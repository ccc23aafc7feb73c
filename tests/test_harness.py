import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dunkl_osc import (ArgumentError, MultiplierFamily, NormSpec,
                       Resolution, bump, classical_ops, dyadic_indicator_family,
                       interval_indicator_family, oscillation_ratio_sweep,
                       prestini_constant_sweep, resolution_n512, run_identity_suite, sample,
                       transference_demo, transforms,
                       w_ab_weight, weighted_carleson_sweep,
                       write_reports_jsonl, write_summary_csv)
from dunkl_osc.cli import _t_grid_for
from dunkl_osc.funcspace import CorpusMember, SampledFn
from dunkl_osc.harness import IDENTITIES, _gate_members, _sweep_corpus, default_t_grid


@pytest.fixture(scope="module")
def small_res():
    # deliberately light profile for plumbing tests
    return Resolution(6, 32, 3.0)


def test_identity_suite_reports_structure(small_res):
    reports = run_identity_suite(small_res, seed=3, alphas=(-0.5, 0.0))
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
    members = _sweep_corpus(space, 7) + [CorpusMember("zero", zero, sample(zero, space))]
    alphas, tol = (0.0, 1.0), 1e-6
    keep, dropped = _gate_members(members, alphas, res512, tol)
    plancherel, inversion = IDENTITIES["plancherel"][0], IDENTITIES["inversion"][0]
    expected = [m.label for m in members[:-1]
                if all(plancherel(a, m.sampled, space, freq) <= tol
                       and inversion(a, m.sampled, space, freq) <= tol for a in alphas)]
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


def test_multiplier_family_validation():
    with pytest.raises(ArgumentError):
        MultiplierFamily([], [])
    fam = MultiplierFamily(["big"], [lambda u: 2.0 * np.ones_like(u)])
    with pytest.raises(ArgumentError):
        fam.evaluate(0, np.array([1.0]))
    with pytest.raises(ArgumentError):
        interval_indicator_family([(2.0, 1.0)])
    dy = dyadic_indicator_family(-2, 2)
    assert dy.labels == ["1_[0.25,0.5)", "1_[0.5,1)", "1_[1,2)", "1_[2,4)", "1_[4,8)"]
    vals = dy.evaluate(1, np.array([0.4, 0.6]))
    assert vals.tolist() == [0.0, 1.0]


def test_transference_identity_multiplier():
    one = MultiplierFamily(["unit"], [lambda u: np.ones_like(np.asarray(u, float))])
    r = transference_demo(one, NormSpec(2.0, 0.0, -0.5), 1, resolution_n512())
    ratios = [v for (k, v) in r.residuals_or_ratios if k.startswith("fourier-side")]
    assert all(abs(v - 1.0) < 1e-9 for v in ratios)


def test_transference_hypothesis_guard():
    fam = dyadic_indicator_family(-2, 2)
    with pytest.raises(ArgumentError):
        transference_demo(fam, NormSpec(2.0, 1.5, -0.5), 2)


def test_weighted_carleson_skip_nonintegrable():
    reps = weighted_carleson_sweep([w_ab_weight(-1.2, 0.0)], 2.0, -0.5,
                                   resolution_n512())
    (r,) = reps
    assert r.passed
    assert any("skipped" in k for (k, _) in r.residuals_or_ratios)


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


def test_default_t_grid_dilation_closure():
    res = resolution_n512()
    tg = default_t_grid(res)
    assert tg.values[-1] <= 0.45 * res.freq_max() * (1 + 1e-12)
    # lambda in {1/2, 2} keeps the scaled grid inside the band
    assert 2.0 * tg.values[-1] <= 0.98 * res.freq_max()
    m, _ = np.frexp(tg.values)
    assert np.any(m == 0.5)  # dyadic points present
    # the CLI derives the same grid from the profile's space grid
    f = sample(bump(0.3, 1.4), res.space_grid())
    cli_tg = _t_grid_for(SimpleNamespace(t_grid=None), f)
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
    reports = run_identity_suite(small_res, seed=3, alphas=(0.0,))
    for name in ("projection-algebra", "partial-sum-decomposition"):
        rs = [r for r in reports if r.name == name]
        assert [r.inputs["alpha"] for r in rs] == [-0.5, 0.0, 1.0]
        assert all(v == 0.0 for r in rs for _, v in r.residuals_or_ratios), name


def test_residuals_take_a_stack_and_return_one_value_per_member(res512):
    space, freq = res512.space_grid(), res512.freq_grid()
    members = _sweep_corpus(space, 7)[:3]
    stack = SampledFn(space, np.stack([m.sampled.values for m in members]
                                      + [np.zeros(space.n)]))
    for name in ("plancherel", "inversion", "dunkl-two-route", "fourier-reduction"):
        residual = IDENTITIES[name][0]
        values = residual(-0.5, stack, space, freq)
        assert values.shape == (4,) and values[3] == 0.0, name
        for i in range(3):
            one = residual(-0.5, stack.with_values(stack.values[i]), space, freq)
            assert abs(values[i] - one) <= 1e-14 + 1e-12 * one, name


def test_identity_suite_transform_call_budget(monkeypatch, small_res):
    """One GEMM per transform of a whole corpus stack and per cut call, so
    the count does not grow with the corpus or the cut lists: 16 for the
    five per-order identities, 2 for the Fourier reduction (the Fourier
    side is a complex product) and 16 per fixed order, at three orders."""
    calls = []
    real = transforms._apply_real

    def counted(mat, v):
        calls.append(v.shape)
        return real(mat, v)

    monkeypatch.setattr(transforms, "_apply_real", counted)
    run_identity_suite(small_res, seed=3, alphas=(0.0,))
    assert len(calls) <= 66


def test_member_gate_takes_one_spectrum_per_order(monkeypatch, res512):
    """Plancherel and inversion share one forward transform of the member
    stack per order: two Hankel parities forward, two back."""
    space = res512.space_grid()
    calls = Counter()
    real = transforms.hankel

    def counted(alpha, f, output_grid):
        calls[f.values.ndim] += 1
        return real(alpha, f, output_grid)

    monkeypatch.setattr(transforms, "hankel", counted)
    keep, dropped = _gate_members(_sweep_corpus(space, 7), (0.0, 1.0), res512)
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
    """p = 2 reuses the square-function spectra for the Parseval pass, and
    each side inverts all its multiplied spectra as one stack: one forward
    and one inverse transform per side and resolution."""
    calls = Counter()
    for name in ("fourier", "hankel"):
        real = getattr(transforms, name)
        monkeypatch.setattr(transforms, name,
                            lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
    fam = dyadic_indicator_family(-2, 4)
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
    fam = dyadic_indicator_family(-9, int(np.floor(np.log2(res.freq_max()))))
    r = transference_demo(fam, NormSpec(2.0, 0.0, -0.5), 30, res)
    ratios = dict(r.residuals_or_ratios)
    assert all(np.isfinite(v) for v in ratios.values())
    assert r.passed and ratios["max |fourier - hankel| orthogonal-norm gap"] <= 1e-6
