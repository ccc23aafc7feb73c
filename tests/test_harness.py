import hashlib
import json
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dunkl_osc import (FULL_LINE, HALF_LINE, ArgumentError, NormSpec, PartialSumFamily, Resolution,
                       ThresholdSeq, build_family, bump, classical_ops,
                       conjectured_measure_ap_check, default_t_grid, dyadic_partition,
                       max_oscillation, oscillation_ratio_sweep,
                       prestini_constant_sweep, resolution_n512, run_identity_suite, sample,
                       transference_demo, transforms, w_ab_weight, weighted_carleson_sweep,
                       write_reports_jsonl, write_summary_csv)
from dunkl_osc import cli, harness
from dunkl_osc.cli import _t_grid_for
from dunkl_osc.funcspace import CorpusMember, SampledFn, away_from_zero_corpus, default_corpus
from dunkl_osc.harness import IDENTITIES, _Transforms, _gate_members, _sweep_corpus
from conftest import assert_pinned, blas_threads, run_fresh


@pytest.fixture(scope="module")
def small_res():
    # deliberately light profile for plumbing tests
    return Resolution(6, 32, 3.0)


def test_identity_suite_reports_structure(small_res):
    reports = run_identity_suite(small_res, seed=3, alphas=(-0.5, 0.0))
    assert_pinned("identities", reports)
    names = {r.name for r in reports}
    assert {"plancherel", "inversion", "fourier-reduction", "dunkl-two-route",
            "conjugation", "projection-algebra", "partial-sum-decomposition",
            "transplant-identity", "modified-plancherel"} <= names
    for r in reports:
        assert r.residuals_or_ratios
        assert isinstance(r.passed, bool)
        assert r.resolution["n_line"] == small_res.n_line
    # the zero corpus member contributes an exactly zero residual
    plan = next(r for r in reports if r.name == "plancherel")
    zero_entries = [v for (k, v) in plan.residuals_or_ratios if k == "zero"]
    assert zero_entries == [0.0]


def test_identity_suite_unit_order_and_inputs(small_res):
    reports = run_identity_suite(small_res, seed=3, alphas=(-0.5, 0.0))
    ts = (0.5, 1.0, 2.0, 4.0)
    per_order = ["plancherel", "inversion", "dunkl-two-route", "conjugation",
                 "modified-plancherel"]
    expected = ([(n, {"alpha": -0.5}) for n in per_order]
                + [(n, {"alpha": 0.0}) for n in per_order]
                + [("fourier-reduction", {"alpha": -0.5})])
    for a in (-0.5, 0.0, 1.0):
        expected += [("projection-algebra", {"alpha": a, "ts": ts}),
                     ("partial-sum-decomposition", {"alpha": a, "ts": ts}),
                     ("transplant-identity", {"alpha": a})]
    assert [(r.name, r.inputs) for r in reports] == expected


def test_member_gate_keeps_exactly_the_table_passes(res512):
    space, freq = res512.space_grid(), res512.freq_grid()
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    members = _sweep_corpus(7) + [CorpusMember("zero", zero)]
    alphas = (0.0, 1.0)
    keep, dropped = _gate_members(members, alphas, res512)
    (plancherel, _, tol_p), (inversion, _, tol_i) = IDENTITIES["plancherel"], IDENTITIES["inversion"]
    expected = [m.label for m in members[:-1]
                if all(plancherel(_Transforms(a, sample(m.fn, space), freq)) <= tol_p
                       and inversion(_Transforms(a, sample(m.fn, space), freq)) <= tol_i
                       for a in alphas)]
    assert [m.label for m in keep] == expected
    assert dropped == [m.label for m in members if m.label not in expected]
    assert dropped[-1] == "zero" and len(dropped) > 1   # a zero norm is never kept


def test_structural_identities_pass_even_at_low_resolution(small_res):
    reports = run_identity_suite(small_res, seed=3, alphas=(0.0,))
    for name in ("dunkl-two-route", "conjugation", "projection-algebra",
                 "partial-sum-decomposition", "fourier-reduction"):
        rs = [r for r in reports if r.name == name]
        assert rs and all(r.passed for r in rs), name


def test_report_io(tmp_path, small_res):
    reports = run_identity_suite(small_res, seed=3, alphas=(0.0,))
    jl = tmp_path / "r.jsonl"
    cs = tmp_path / "r.csv"
    write_reports_jsonl(str(jl), reports)
    write_summary_csv(str(cs), reports)
    lines = jl.read_text().splitlines()
    assert len(lines) == len(reports)
    rec = json.loads(lines[0])
    assert set(rec) == {"name", "inputs", "residuals_or_ratios", "tolerance",
                        "passed", "runtime_ms", "resolution", "seed"}
    head, *rows = cs.read_text().splitlines()
    assert head == "name,passed,max_residual_or_ratio,runtime_ms"
    assert len(rows) == len(reports)


def test_reports_reproducible_and_thread_independent(small_res):
    a = run_identity_suite(small_res, seed=5, alphas=(0.0,), threads=1)
    b = run_identity_suite(small_res, seed=5, alphas=(0.0,), threads=4)
    for ra, rb in zip(a, b):
        assert ra.name == rb.name
        assert ra.residuals_or_ratios == rb.residuals_or_ratios


def test_oscillation_sweep_report_fields():
    reps = oscillation_ratio_sweep([NormSpec(2.0, 0.0, 0.0)], seed=7,
                                   resolution=resolution_n512())
    (r,) = reps
    keys = [k for (k, _) in r.residuals_or_ratios]
    assert any("empirical lower bound" in k for k in keys)
    assert "dilation-deviation" in keys
    assert r.inputs["in_range"] is True
    assert "excluded_members" in r.inputs


PINNED_WEIGHTS = [w_ab_weight(0.5, 0.5), w_ab_weight(-2.5, 0.0), w_ab_weight(-1.5, 1.5),
                  w_ab_weight(0.5, 1.5)]
# kind -> (run(threads) at N=512 and seed 7, the refined family width, group
# shapes (members, nodes) that must occur)
SWEEP_RUNS = {
    # 2 members at N=512, 4 on the lambda=2 window, 1 at N=1024
    "oscillation": (lambda threads: oscillation_ratio_sweep(
        [NormSpec(2.0, 0.0, 0.0), NormSpec(2.0, 0.0, 1.0)], seed=7,
        resolution=resolution_n512(), threads=threads), 1024, {(2, 512), (4, 256), (1, 1024)}),
    "weighted-carleson": (lambda threads: weighted_carleson_sweep(
        PINNED_WEIGHTS, 2.0, 0.0, resolution_n512(), threads=threads), 1024, {(2, 512), (1, 1024)}),
    # half-line profiles: 2 members at 256 nodes, 1 at 512
    "prestini": (lambda threads: prestini_constant_sweep(
        [-0.5, 0.0, 1.0], resolution_n512(), seed=7, threads=threads), 512, {(2, 256), (1, 512)}),
}


@pytest.mark.parametrize("kind", SWEEP_RUNS)
def test_oscillation_sweep_groups_members_and_ignores_threads(monkeypatch, kind):
    # every ratio sweep builds its families in member groups of at most one
    # family on the refined grid; the reports are the same at one and two pool
    # threads, and equal to the pinned ones
    run, width, shapes = SWEEP_RUNS[kind]
    groups = []

    def recording_build(order, f, *args):
        groups.append(f.values.shape[:-1] + (f.grid.n,))
        return build_family(order, f, *args)

    monkeypatch.setattr(harness, "build_family", recording_build)
    runs = [run(threads) for threads in (1, 2)]
    one, two = ([replace(r, runtime_ms=0).to_json() for r in reps] for reps in runs)
    assert one == two
    assert all(b * n <= width for b, n in groups)
    assert shapes <= set(groups)
    assert_pinned(kind, runs[0])


@pytest.mark.skipif(blas_threads() is None,
                    reason="needs the OpenBLAS bundled in the numpy wheel")
def test_pins_hold_under_another_blas_kernel():
    # the identity and sweep pins of the tests above, each run once in a fresh
    # process on OpenBLAS's SandyBridge kernels instead of the dispatched ones
    run_fresh("from conftest import assert_pinned\n"
              "from test_harness import SWEEP_RUNS\n"
              "from dunkl_osc import Resolution, run_identity_suite\n"
              "assert_pinned('identities', run_identity_suite(Resolution(6, 32, 3.0), seed=3,\n"
              "                                               alphas=(-0.5, 0.0)))\n"
              "for kind, (run, _, _) in SWEEP_RUNS.items():\n"
              "    assert_pinned(kind, run(1))\n", OPENBLAS_CORETYPE="SandyBridge")


def test_stable_is_the_closed_factor_two_test():
    assert harness._stable(1.0, 0.5) and harness._stable(1.0, 2.0)
    assert harness._stable(np.array([1.0, 4.0]), np.array([2.0, 2.0]))
    assert not harness._stable(1.0, np.nextafter(2.0, 3.0))
    assert not harness._stable(1.0, np.nextafter(0.5, 0.0))
    assert not harness._stable(1.0, np.nan) and not harness._stable(np.nan, 1.0)
    assert not harness._stable(np.array([1.0, 1.0]), np.array([1.0, np.nan]))
    assert not harness._stable(0.0, 1.0) and not harness._stable(0.0, 0.0)


@pytest.mark.parametrize("width", [1, 256, 512, 768, 4096])
def test_grouped_families_respect_the_width_and_member_order(monkeypatch, width, res512):
    space, freq = res512.space_grid(), res512.freq_grid()
    members = [sample(bump(c, 1.0 + 0.1 * i), space) for i, c in enumerate(
        (-0.4, -0.2, 0.0, 0.1, 0.3))]
    stack = members[0].with_values(np.stack([m.values for m in members]))
    tg = default_t_grid(freq)
    groups = []

    def recording_build(order, f, *args):
        groups.append(f.values.shape[0])
        return build_family(order, f, *args)

    monkeypatch.setattr(harness, "build_family", recording_build)
    out = harness._grouped_families(PartialSumFamily.max_abs, width, 0.0, stack, tg, freq).values
    per = max(1, width // space.n)
    assert groups == [min(per, 5 - i) for i in range(0, 5, per)]
    assert out.shape == (5, space.n)
    for m, row in zip(members, out):
        one = build_family(0.0, m, tg, freq).max_abs().values
        assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))


def test_transference_edges_and_labels(monkeypatch):
    spec = NormSpec(2.0, 0.0, -0.5)
    # one edge is no interval
    with pytest.raises(ArgumentError):
        transference_demo(ThresholdSeq(np.array([1.0])), spec, 1)
    rows, square_function = [], harness._square_function

    def recording(mult, spec_f, inverse):
        rows.append((mult, np.abs(spec_f.grid.points)))
        return square_function(mult, spec_f, inverse)

    monkeypatch.setattr(harness, "_square_function", recording)
    r = transference_demo(ThresholdSeq(2.0 ** np.arange(-2, 4)), spec, 1, Resolution(2, 8, 3.0))
    assert r.inputs["members"] == ["1_[0.25,0.5)", "1_[0.5,1)", "1_[1,2)", "1_[2,4)", "1_[4,8)"]
    # row k is 1 exactly on the nodes of [e_k, e_{k+1}), and the rows are disjoint
    assert len(rows) == 4   # two sides, two profiles
    for mult, xi in rows:
        assert mult.shape == (5, xi.size)
        assert np.array_equal(mult[1], ((xi >= 0.5) & (xi < 1.0)).astype(float))
        assert np.array_equal(mult.sum(axis=0), ((xi >= 0.25) & (xi < 8.0)).astype(float))


def test_transference_identity_multiplier():
    # one interval that covers every node of both profiles
    res = resolution_n512()
    one = ThresholdSeq(np.array([2.0 ** -30, 2.0 ** 30]))
    for r in (res, res.refined()):
        xi = np.abs(r.freq_grid().points)
        assert np.all((xi >= one.values[0]) & (xi < one.values[1]))
    r = transference_demo(one, NormSpec(2.0, 0.0, -0.5), 1, res)
    ratios = [v for (k, v) in r.residuals_or_ratios if k.startswith("fourier-side")]
    assert all(abs(v - 1.0) < 1e-9 for v in ratios)


@pytest.mark.parametrize("res", [Resolution(2, 8, 3.0), resolution_n512(), Resolution(24, 32, 3.0)])
def test_dyadic_partition_covers_both_profiles_once(res):
    edges = dyadic_partition(res).values
    assert np.all(np.frexp(edges)[0] == 0.5) and np.array_equal(edges[1:], 2.0 * edges[:-1])
    for r in (res, res.refined()):
        xi = r.half_freq_grid().points
        xi = xi[xi > 0.0]
        hits = np.sum((xi >= edges[:-1, None]) & (xi < edges[1:, None]), axis=0)
        assert np.array_equal(hits, np.ones_like(xi))


def test_transference_hypothesis_guard():
    fam = ThresholdSeq(2.0 ** np.arange(-2, 4))
    with pytest.raises(ArgumentError):
        transference_demo(fam, NormSpec(2.0, 1.5, -0.5), 2)


def test_weighted_carleson_skip_nonintegrable():
    reps = weighted_carleson_sweep([w_ab_weight(-1.2, 0.0)], 2.0, -0.5,
                                   resolution_n512())
    (r,) = reps
    assert r.passed
    assert any("skipped" in k for (k, _) in r.residuals_or_ratios)


def test_weighted_carleson_sweep_checks_once_at_any_thread_count(monkeypatch):
    # one batched A_p call for the integrable weights; a = -2.5 is skipped unchecked
    weights = PINNED_WEIGHTS
    batches = []

    def recording_check(ws, p, alpha):
        batches.append(list(ws))
        return conjectured_measure_ap_check(ws, p, alpha)

    monkeypatch.setattr(harness, "conjectured_measure_ap_check", recording_check)
    runs = [weighted_carleson_sweep(weights, 2.0, 0.0, resolution_n512(), experimental=True,
                                    threads=threads) for threads in (1, 2)]
    assert batches == [weights[:1] + weights[2:]] * 2
    one, two = ([replace(r, runtime_ms=0).to_json() for r in reps] for reps in runs)
    assert one == two
    assert_pinned("weighted-carleson", runs[0])
    assert "experimental_measure_ap" not in runs[0][1].inputs
    for w, r in zip(weights[:1] + weights[2:], runs[0][:1] + runs[0][2:]):
        ok, sup = conjectured_measure_ap_check(w, 2.0, 0.0)
        assert r.inputs["experimental_measure_ap"]["stable"] is ok
        assert r.inputs["experimental_measure_ap"]["sup"] == sup


def test_reports_are_strict_json():
    # the sweeps' infinite tolerance and a skipped weight's NaN ratio are written as null
    reps = weighted_carleson_sweep([w_ab_weight(-1.2, 0.0), w_ab_weight(0.0, 0.5)], 2.0, -0.5,
                                   resolution_n512(), experimental=True)

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    recs = [json.loads(r.to_json(), parse_constant=refuse) for r in reps]
    assert [rec["tolerance"] for rec in recs] == [None, None]
    assert recs[0]["residuals_or_ratios"] == [["skipped (non-integrable weight)", None]]
    assert [v for _, v in recs[1]["residuals_or_ratios"]] == [v for _, v in
                                                              reps[1].residuals_or_ratios]


def test_default_t_grid_dilation_closure(monkeypatch):
    res = resolution_n512()
    tg = default_t_grid(res.freq_grid())
    assert tg.values[-1] <= 0.45 * res.freq_max() * (1 + 1e-12)
    # lambda in {1/2, 2} keeps the scaled grid inside the band
    assert 2.0 * tg.values[-1] <= 0.98 * res.freq_max()
    m, _ = np.frexp(tg.values)
    assert np.any(m == 0.5)  # dyadic points present
    # the CLI's default is the same function of the input grid's frequency grid
    f = sample(bump(0.3, 1.4), res.space_grid())
    seen = []
    monkeypatch.setattr(cli, "default_t_grid", lambda g: seen.append(g) or default_t_grid(g))
    cli_tg = _t_grid_for(SimpleNamespace(t_grid=None), f)
    assert [g.key for g in seen] == [transforms.frequency_grid(f.grid).key]
    assert np.array_equal(cli_tg.values, tg.values)


def test_halved_resolution_passes_at_10x_tolerance():
    # residuals grow at half the default resolution but stay within 10x of
    # the stated tolerances
    reports = run_identity_suite(Resolution(12, 32, 3.0), seed=7,
                                 alphas=(0.0, 1.0))
    for r in reports:
        if np.isfinite(r.tolerance):
            assert r.max_value() <= 10.0 * r.tolerance, (r.name, r.max_value())


def test_projection_identities_read_exactly_zero(small_res):
    # both sides of the projection algebra are rows of one cut call, so it
    # reads exactly 0; the partial-sum decomposition takes its Dunkl side on
    # the direct route, so it reads round-off and could fail
    reports = run_identity_suite(small_res, seed=3, alphas=(0.0,))
    for name in ("projection-algebra", "partial-sum-decomposition"):
        rs = [r for r in reports if r.name == name]
        assert [r.inputs["alpha"] for r in rs] == [-0.5, 0.0, 1.0]
        values = [v for r in rs for _, v in r.residuals_or_ratios]
        if name == "projection-algebra":
            assert all(v == 0.0 for v in values), name
        else:
            assert max(values) <= 1e-13 and any(v != 0.0 for v in values), name


def test_residuals_take_a_stack_and_return_one_value_per_member(res512):
    space, freq = res512.space_grid(), res512.freq_grid()
    members = _sweep_corpus(7)[:3]
    stack = SampledFn(space, np.stack([sample(m.fn, space).values for m in members]
                                      + [np.zeros(space.n)]))
    for name, (residual, _, _) in IDENTITIES.items():
        values = residual(_Transforms(-0.5, stack, freq))
        assert values.shape == (4,) and values[3] == 0.0, name
        for i in range(3):
            one = residual(_Transforms(-0.5, stack.with_values(stack.values[i]), freq))
            assert abs(values[i] - one) <= 1e-14 + 1e-12 * one, name


def test_a_residual_called_alone_equals_its_suite_value(small_res):
    """Called alone on its corpus stack, each residual makes its transforms
    on the path the suite takes and reads the suite's values.  The suite
    takes "default" and "head" as row prefixes of "default+zero", so its
    GEMMs have more columns, and some OpenBLAS kernels (Nehalem) then move
    a column's last bits: compare at the identity's tolerance times 1e-6,
    as the BLAS thread check does."""
    reports = run_identity_suite(small_res, seed=3, alphas=(0.0, 0.5))
    default = default_corpus(3)
    corpora = {"default": default, "head": default[:4],
               "default+zero": default + [CorpusMember("zero", np.zeros_like)],
               "away": away_from_zero_corpus(3)}
    space, freq = small_res.space_grid(), small_res.freq_grid()
    assert {r.name for r in reports} == set(IDENTITIES)
    for r in reports:
        residual, corpus, tol = IDENTITIES[r.name]
        stack = harness._sampled([m.fn for m in corpora[corpus]], space, FULL_LINE)
        values = residual(_Transforms(r.inputs["alpha"], stack, freq))
        assert [m.label for m in corpora[corpus]] == [k for k, _ in r.residuals_or_ratios]
        np.testing.assert_allclose(values, [v for _, v in r.residuals_or_ratios], rtol=0.0,
                                   atol=1e-6 * tol, err_msg=f"{r.name} {r.inputs['alpha']}")


def _kernel_gemms(monkeypatch) -> tuple[list, list]:
    """(kernel, input) digests of every transforms._apply_real call, and the
    number of its real columns that are not all zero, which reach BLAS (a
    stack's column once per matrix)."""
    calls, live = [], []
    real = transforms._apply_real

    def digest(a):
        a = np.ascontiguousarray(a)
        return hashlib.sha256(a.tobytes()).hexdigest(), a.shape, a.dtype.str

    def counted(mat, v):
        calls.append((digest(mat), digest(v)))
        w = transforms._columns(v, mat.ndim - 2)
        live.append(int(np.count_nonzero(w.any(axis=tuple(range(w.ndim - 1))))) * w[..., 0, 0].size)
        return real(mat, v)

    monkeypatch.setattr(transforms, "_apply_real", counted)
    return calls, live


def test_identity_suite_transform_call_budget(monkeypatch, small_res):
    """Each kernel is applied once per order and level: at each of the
    orders -1/2, 0 and 1, j_a and j_{a+1} once to every level-1 input (the
    parity spectra, the direct route and the modified spectra) and once,
    transposed, to every level-2 input (inversion, the cut rows and the
    partial-sum and transplant inverses); and one Fourier GEMM.  No call
    repeats an earlier call's kernel and input, and 600 real columns that
    are not all zero reach BLAS."""
    calls, live = _kernel_gemms(monkeypatch)
    run_identity_suite(small_res, seed=3, alphas=(0.0,))
    assert len(calls) <= 13 and sum(live) <= 600
    assert len(set(calls)) == len(calls)


def test_identity_suite_repeats_no_gemm_at_four_orders(monkeypatch, small_res):
    """At the default orders, four GEMMs per order (two kernels, two
    levels; only inversion at level 2 at the order 1/2) and one Fourier
    GEMM, none repeated; at -1/2 the modified spectra of f and of
    |x|^{a+1/2} f = f are one transform.  728 real columns that are not
    all zero reach BLAS."""
    calls, live = _kernel_gemms(monkeypatch)
    run_identity_suite(small_res, seed=3)
    assert len(calls) <= 17 and sum(live) <= 728
    assert len(set(calls)) == len(calls)


def test_member_gate_takes_one_spectrum_per_order(monkeypatch, res512):
    """Plancherel and inversion share one forward transform of the member
    stack per order: two Hankel parities forward, two back."""
    space = res512.space_grid()
    calls = Counter()
    real = transforms._hankel_plan

    def counted(alpha, f, output_grid):
        calls[f.values.ndim] += 1
        return real(alpha, f, output_grid)

    monkeypatch.setattr(transforms, "_hankel_plan", counted)
    keep, dropped = _gate_members(_sweep_corpus(7), (0.0, 1.0), res512)
    assert calls == Counter({2: 8}) and len(keep) + len(dropped) == 10


def test_prestini_sweep_takes_one_majorant_pass_per_resolution(monkeypatch):
    """The majorant runs once per resolution on the stack of the nonzero
    corpus members, not once per member: on the default two-rung ladder the
    truncated-sup pass runs twice, each time on a (members, N) stack."""
    shapes = []
    real = classical_ops._truncated_sups

    def counted(f, *args, **kwargs):
        shapes.append(f.values.shape)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(classical_ops, "_truncated_sups", counted)
    (rep,) = prestini_constant_sweep([0.0])
    assert len(shapes) == 2 and all(len(s) == 2 and s[0] > 1 for s in shapes)
    assert sum(k.endswith("skipped (zero)") for k, _ in rep.residuals_or_ratios) == 2


def test_transference_takes_each_spectrum_once(monkeypatch):
    """Each side inverts all its multiplied spectra as one stack, and the
    profile g of the exact reduction rides in the Fourier stack: one forward
    and one inverse transform per side and resolution, at every p."""
    calls = Counter()
    for name in ("fourier", "hankel"):
        real = getattr(transforms, name)
        monkeypatch.setattr(transforms, name,
                            lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
    fam = ThresholdSeq(2.0 ** np.arange(-2, 6))
    per_p = {}
    for p in (2.0, 3.0):
        calls.clear()
        transference_demo(fam, NormSpec(p, 0.0, -0.5), 3)
        per_p[p] = dict(calls)
    assert per_p[3.0] == {"fourier": 4, "hankel": 4}
    assert all(per_p[2.0][k] <= per_p[3.0][k] for k in per_p[3.0])


def test_transference_high_dimension():
    # the radial side at n = 30 is the Hankel transform of order 14
    res = resolution_n512()
    fam = ThresholdSeq(2.0 ** np.arange(-9, int(np.floor(np.log2(res.freq_max()))) + 2))
    r = transference_demo(fam, NormSpec(2.0, 0.0, -0.5), 30, res)
    ratios = dict(r.residuals_or_ratios)
    assert all(np.isfinite(v) for v in ratios.values())
    # no exact reduction holds at n = 30, so the report has no gap to gate
    assert r.passed and not any("gap" in k for k in ratios)


GAP = "max |hankel - fourier| exact-reduction gap"


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("p,beta", [(1.5, 0.0), (2.0, 0.0), (3.0, 0.5), (2.0, -0.5)])
def test_transference_gates_the_exact_reduction_at_every_p(dimension, p, beta):
    # n = 1: S_H f0 = S_F f0(|.|); n = 3: S_H f0 = S_F (x f0(|x|)) / r, node by node
    r = transference_demo(dyadic_partition(resolution_n512()), NormSpec(p, beta, -0.5),
                          dimension)
    ratios = dict(r.residuals_or_ratios)
    assert r.passed and (GAP in ratios) == (dimension != 2)
    assert ratios.get(GAP, 0.0) <= 1e-12


@pytest.mark.parametrize("dimension", [1, 3])
def test_transference_fails_when_one_hankel_piece_drops_a_node(monkeypatch, dimension):
    square_function = harness._square_function

    def faulty(mult, spec_f, inverse):
        if spec_f.domain_tag == HALF_LINE:   # the Hankel side: drop the first node of piece 5
            mult = mult.copy()
            mult[5, np.flatnonzero(mult[5])[0]] = 0.0
        return square_function(mult, spec_f, inverse)

    monkeypatch.setattr(harness, "_square_function", faulty)
    for p in (2.0, 3.0):
        r = transference_demo(dyadic_partition(resolution_n512()), NormSpec(p, 0.0, -0.5),
                              dimension)
        assert not r.passed and dict(r.residuals_or_ratios)[GAP] > 1e-6


def test_residuals_do_not_depend_on_the_blas_thread_count():
    code = ("import json\n"
            "from dunkl_osc import Resolution, run_identity_suite\n"
            "print(json.dumps([[r.name, r.residuals_or_ratios] for r in run_identity_suite(\n"
            "    Resolution(6, 32, 3.0), seed=5, alphas=(0.0, 1.0))]))\n")
    one, two = (json.loads(run_fresh(code, OPENBLAS_NUM_THREADS=n)) for n in ("1", "2"))
    # a second BLAS thread may move a GEMM's last bits (it does with the
    # Nehalem and Prescott kernels, not with Haswell or SandyBridge): compare
    # at the identity pins' own tolerance
    assert [name for name, _ in one] == [name for name, _ in two]
    for (name, p), (_, f) in zip(one, two):
        assert [k for k, _ in p] == [k for k, _ in f]
        np.testing.assert_allclose([v for _, v in f], [v for _, v in p], rtol=0.0,
                                   atol=1e-6 * IDENTITIES[name][2], err_msg=name)


def test_bundled_openblas_symbols_are_found():
    # a wheel-layout change must not silently skip the BLAS thread tests
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not describe its BLAS build")
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas.get('name')!r}")
    assert blas_threads() is not None


def test_the_sweep_hot_path_stays_real():
    # the sweep corpus is real, so its stack, families, grouped seminorms and
    # maxima are float64: a stray complex cast would double the DP's work
    res = resolution_n512()
    space, freq = res.space_grid(), res.freq_grid()
    stack = harness._sampled([m.fn for m in _sweep_corpus(7)], space, FULL_LINE)
    tg = default_t_grid(freq)
    fam = build_family(0.0, stack, tg, freq)
    osc = harness._grouped_families(max_oscillation, 1024, 0.0, stack, tg, freq)
    for values in (stack.values, fam.values, osc.values, fam.max_abs().values):
        assert values.dtype == np.float64
