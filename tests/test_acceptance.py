"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them inline).

Resolution conventions: accuracy criteria run at the library default profile
(1536 nodes per line); criteria that pin N=512 / N=1024 use those profiles
(8 / 16 panels of 32 Gauss nodes per side).  Runtime bounds are asserted at
the stated N=512 profile.
"""

import time

import numpy as np
import pytest

from dunkl_osc import (NormSpec, Resolution, ThresholdSeq,
                       ap_check, build_family, default_corpus,
                       default_t_grid, dunkl,
                       dunkl_inverse, dunkl_partial_sum,
                       even_odd_split, fourier, hankel_partial_sum,
                       max_oscillation, oscillation,
                       oscillation_ratio_sweep, power_weight,
                       prestini_constant_sweep,
                       resolution_n512, run_identity_suite, sample,
                       transference_demo, transplant_dunkl,
                       transplant_roundtrip_report, variation,
                       w_ab_weight)
from dunkl_osc.funcspace import away_from_zero_corpus
from dunkl_osc.harness import _Transforms, _projection_algebra
from dunkl_osc.transforms import clear_kernel_cache, dunkl_modified
from conftest import assert_pinned, l2_weighted, stack_of

ALPHAS = (-0.5, 0.0, 0.5, 1.0)
TS = (0.5, 1.0, 2.0, 4.0)


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def hi():
    return Resolution()


@pytest.fixture(scope="module")
def hi_grids(hi):
    return hi.space_grid(), hi.freq_grid()


@pytest.fixture(scope="module")
def hi_corpus():
    return default_corpus(7)


def test_criterion_01_plancherel(hi_grids, hi_corpus):
    space, freq = hi_grids
    worst = 0.0
    for alpha in ALPHAS:
        for m in hi_corpus:
            f = sample(m.fn, space)
            nf = l2_weighted(f.values, space, alpha)
            spec = dunkl(alpha, f, freq)
            worst = max(worst, abs(l2_weighted(spec.values, freq, alpha) / nf - 1.0))
    ok = worst <= 1e-6
    assert _report("01 plancherel", ok, f"max |ratio-1| = {worst:.3e}")
    # runtime bound at the N=512 profile, cold kernel cache
    clear_kernel_cache()
    res = resolution_n512()
    sp5, fq5 = res.space_grid(), res.freq_grid()
    corpus5 = default_corpus(7)
    t0 = time.perf_counter()
    for alpha in ALPHAS:
        for m in corpus5:
            spec = dunkl(alpha, sample(m.fn, sp5), fq5)
            l2_weighted(spec.values, fq5, alpha)
    dt = time.perf_counter() - t0
    assert _report("01 plancherel runtime", dt <= 10.0, f"{dt:.2f}s at N=512")


def test_criterion_02_inversion(hi_grids, hi_corpus):
    space, freq = hi_grids
    worst = 0.0
    for alpha in ALPHAS:
        for m in hi_corpus:
            f = sample(m.fn, space)
            nf = l2_weighted(f.values, space, alpha)
            spec = dunkl(alpha, f, freq)
            back = dunkl_inverse(alpha, spec, space)
            worst = max(worst, l2_weighted(back.values - f.values, space, alpha) / nf)
    ok = worst <= 1e-6
    assert _report("02 inversion", ok, f"max rel err = {worst:.3e}")


def test_criterion_03_fourier_reduction(hi_grids, hi_corpus):
    space, freq = hi_grids
    worst = 0.0
    for m in hi_corpus:
        f = sample(m.fn, space)
        d, f = dunkl(-0.5, f, freq), fourier(f, freq)
        worst = max(worst, float(np.max(np.abs(d.values - f.values))))
    ok = worst <= 1e-9
    assert _report("03 fourier reduction", ok, f"max nodewise = {worst:.3e}")


def test_criterion_04_decompositions(hi_grids, hi_corpus):
    space, freq = hi_grids
    worst_route = 0.0
    for alpha in ALPHAS:
        for m in hi_corpus[:6]:
            f = sample(m.fn, space)
            d1 = dunkl(alpha, f, freq, route="decomposition")
            d2 = dunkl(alpha, f, freq, route="direct")
            worst_route = max(worst_route, float(np.max(np.abs(d1.values - d2.values))))
    ok1 = worst_route <= 1e-9
    half_freq = freq.positive_half()
    half = space.positive_half()
    worst_ps = 0.0
    for alpha in (-0.5, 0.0, 1.0):
        for m in hi_corpus[:4]:
            f = sample(m.fn, space)
            fe, fo = even_odd_split(f)
            foy = fo.with_values(fo.values / fo.grid.points)
            for t in TS:
                full = dunkl_partial_sum(alpha, f, t, freq)
                se = hankel_partial_sum(alpha, fe, t, half_freq)
                so = hankel_partial_sum(alpha + 1.0, foy, t, half_freq)
                rec = np.concatenate([(se.values - half.points * so.values)[::-1],
                                      se.values + half.points * so.values])
                worst_ps = max(worst_ps, float(np.max(np.abs(full.values - rec))))
    ok2 = worst_ps <= 1e-8
    assert _report("04 decompositions", ok1 and ok2,
                   f"two-route {worst_route:.3e}, partial-sum {worst_ps:.3e}")


def test_criterion_05_projection_algebra(hi_grids, hi_corpus):
    # S_t S_s f against S_min(s,t) f over the pairs of harness.PROJECTION_TS
    # (= TS), as the identity suite takes it: the rows of the cut lists
    # [t, s] against those of [min(s, t)]
    space, freq = hi_grids
    f = stack_of(hi_corpus[:3], space)
    worst = max(float(np.max(_projection_algebra(_Transforms(alpha, f, freq))))
                for alpha in (-0.5, 0.0, 1.0))
    ok = worst <= 1e-8
    assert _report("05 projection algebra", ok, f"max sup-norm = {worst:.3e}")


def test_criterion_06_conjugation(hi_grids):
    space, freq = hi_grids
    away = away_from_zero_corpus(7)
    worst = 0.0
    for alpha in ALPHAS:
        for m in away:
            f = sample(m.fn, space)
            lhs = dunkl(alpha, f, freq)
            lifted = f.with_values(f.values * np.abs(space.points) ** (alpha + 0.5))
            mid = dunkl_modified(alpha, lifted, freq)
            rhs = mid.values * np.abs(freq.points) ** (-(alpha + 0.5))
            worst = max(worst, float(np.max(np.abs(lhs.values - rhs))))
    ok = worst <= 1e-8
    assert _report("06 conjugation", ok, f"max nodewise = {worst:.3e}")


def test_criterion_07_transplantation(hi_grids):
    space, freq = hi_grids
    away = away_from_zero_corpus(7)
    worst_id = 0.0
    for alpha in (-0.5, 0.0, 1.0):
        for m in away:
            f = sample(m.fn, space)
            out = transplant_dunkl(alpha, alpha, f, freq)
            nf = l2_weighted(f.values, space, -0.5)
            worst_id = max(worst_id, l2_weighted(out.values - f.values, space, -0.5) / nf)
    ok1 = worst_id <= 1e-6
    # roundtrip through a wide pivot on the moment-cancelled members
    report = transplant_roundtrip_report([(-0.5, 0.5), (0.0, 1.0)], seed=7)
    assert len(report.residuals_or_ratios) == 6
    worst_rt = float(np.max([v for _, v in report.residuals_or_ratios]))   # NaN fails
    ok2 = worst_rt <= 1e-5
    assert _report("07 transplantation", ok1 and ok2,
                   f"identity {worst_id:.3e}, roundtrip {worst_rt:.3e}")


def test_criterion_08_prestini_stability():
    reports = prestini_constant_sweep([-0.5, 0.0, 1.0], resolution_n512(), seed=7)
    assert_pinned("prestini", reports)
    ok = all(r.passed for r in reports)
    consts = {r.inputs["alpha"]: [v for (k, v) in r.residuals_or_ratios
                                  if k.startswith("C(")] for r in reports}
    assert _report("08 prestini constants", ok, f"{consts}")


def test_criterion_09_oscillation_below_variation(one_bump, space512, freq512, corpus512):
    tg = default_t_grid(freq512)
    ok = True
    for m in (corpus512[6], corpus512[9]):
        fam = build_family(0.0, sample(m.fn, space512), tg, freq512)
        v2 = variation(fam, 2.0).values.real
        T = len(tg)
        for i in range(100):
            rng = np.random.Generator(np.random.Philox(key=[123, i]))
            k = int(rng.integers(2, min(12, T // 2)))
            pick = np.sort(rng.choice(T, size=k, replace=False))
            cuts = ThresholdSeq(tg.values[pick])
            osc = oscillation(fam, cuts).values.real
            ok = ok and bool(np.all(osc <= v2 + 1e-12))
        ok = ok and bool(np.all(max_oscillation(fam).values.real <= v2 + 1e-12))
    assert _report("09 oscillation <= V^2", ok,
                   "100 seeded sequences and the exact sup, all nodes")


def test_criterion_10_oscillation_ratio_evidence():
    specs = [NormSpec(2.0, 0.0, 0.0), NormSpec(2.0, 0.0, 1.0),
             NormSpec(3.0, 0.0, -0.5)]
    t0 = time.perf_counter()
    reps = oscillation_ratio_sweep(specs, seed=7,
                                   resolution=resolution_n512())
    dt = time.perf_counter() - t0
    ok_full = all(r.passed and r.inputs["in_range"] for r in reps)
    per_spec = dt / len(specs)
    reps_dy = oscillation_ratio_sweep(specs, seed=7,
                                      resolution=resolution_n512(),
                                      dyadic_only=True)
    ok_dy = all(r.passed and r.inputs["in_range"] for r in reps_dy)
    details = ", ".join(
        f"(p={r.inputs['p']:g},a={r.inputs['alpha']:g}) dev={dict(r.residuals_or_ratios)['dilation-deviation']:.1e}"
        for r in reps)
    ok = ok_full and ok_dy and per_spec <= 60.0
    assert _report("10 oscillation ratios", ok,
                   f"{details}; dyadic ok={ok_dy}; {per_spec:.1f}s/spec")


def test_criterion_11_weight_criteria():
    ok = True
    for p in (1.5, 2.0, 3.0):
        for beta in (-1.5, -0.9, 0.0, 0.5, p - 1.1, p - 0.9):
            member, _ = ap_check(power_weight(beta), p)
            ok = ok and (member == (-1.0 < beta < p - 1.0))
    for a in (-1.5, -0.5, 0.0, 0.5, 1.5):
        for b in (-1.5, -0.5, 0.0, 0.5, 1.5):
            member, _ = ap_check(w_ab_weight(a, b), 2.0)
            ok = ok and (member == ((-1 < a < 1) and (-1 < b < 1)))
    assert _report("11 weight criteria", ok, "18-point power lattice + 5x5 w_ab lattice")


def test_criterion_12_transference():
    res = resolution_n512()
    k_hi = int(np.floor(np.log2(res.freq_max())))
    fam = ThresholdSeq(2.0 ** np.arange(-9, k_hi + 2))
    # at n = 3 each Hankel piece is a Fourier piece over r exactly, at any p
    r3 = transference_demo(fam, NormSpec(3.0, 0.0, -0.5), 3, res)
    gap = dict(r3.residuals_or_ratios)["max |hankel - fourier| exact-reduction gap"]
    r2 = transference_demo(fam, NormSpec(2.0, 0.0, -0.5), 2, res)
    ok = r3.passed and gap <= 1e-12 and r2.passed
    assert _report("12 transference", ok, f"p=3 n=3 gap={gap:.2e}, p=2 n=2 stable={r2.passed}")


def test_criterion_13_determinism():
    specs = [NormSpec(2.0, 0.0, 0.0), NormSpec(3.0, 0.0, -0.5)]
    runs = []
    for threads in (1, 4):
        reps = oscillation_ratio_sweep(specs, seed=99,
                                       resolution=Resolution(6, 32, 3.0),
                                       threads=threads)
        runs.append([r.residuals_or_ratios for r in reps])
    same_sweep = runs[0] == runs[1]
    ids = []
    for threads in (1, 4):
        reps = run_identity_suite(Resolution(6, 32, 3.0), seed=99,
                                  alphas=(0.0, 1.0), threads=threads)
        ids.append([r.residuals_or_ratios for r in reps])
    same_suite = ids[0] == ids[1]
    ok = same_sweep and same_suite
    assert _report("13 determinism", ok,
                   f"sweep bitwise={same_sweep}, suite bitwise={same_suite}")
