import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunkl_osc import (ArgumentError, PartialSumFamily,
                       ThresholdSeq, build_family, default_t_grid,
                       even_odd_split, make_graded_grid, max_oscillation,
                       oscillation, resolution_n512, sample, variation)
from dunkl_osc import seminorms
from dunkl_osc.harness import _sweep_corpus
from dunkl_osc.seminorms import _run_ends
from conftest import stack_of


def synthetic_family(rows, grid):
    """Family with prescribed per-threshold rows, each a constant or one
    value per node (for closed-form checks)."""
    t = ThresholdSeq(np.arange(1.0, len(rows) + 1.0))
    base = sample(lambda x: np.zeros_like(np.asarray(x, float)), grid)
    vals = np.stack([np.broadcast_to(np.asarray(r, complex), grid.n) for r in rows])
    return PartialSumFamily(base, t, vals)


@pytest.fixture(scope="module")
def grid():
    return make_graded_grid(-1.0, 1.0, 4, 8, 1.0)


def test_constant_family_zero(grid):
    fam = synthetic_family([3.0, 3.0, 3.0, 3.0], grid)
    cuts = ThresholdSeq(np.array([1.0, 2.0, 4.0]))
    assert np.max(oscillation(fam, cuts).values.real) == 0.0
    assert np.max(variation(fam, 2.0).values.real) == 0.0


def test_step_family_single_jump(grid):
    # rows 0 below t=3, 1 at and above; cuts straddling the jump see size 1
    fam = synthetic_family([0.0, 0.0, 1.0, 1.0], grid)
    cuts = ThresholdSeq(np.array([1.0, 4.0]))
    assert np.max(np.abs(oscillation(fam, cuts).values.real - 1.0)) < 1e-15


def test_single_block_equals_direct_max(grid):
    rng = np.random.Generator(np.random.Philox(key=42))
    rows = rng.standard_normal(6)
    fam = synthetic_family(list(rows), grid)
    # J=1 with the block [t_1, t_6): sup_t |a_t - a_{t_min}| over the half-open
    # window (the closing edge is a block base only, per the defining formula)
    cuts = ThresholdSeq(np.array([1.0, 6.0]))
    direct = np.max(np.abs(rows[:-1] - rows[0]))
    assert np.max(np.abs(oscillation(fam, cuts).values.real - direct)) < 1e-15


def test_cut_membership_enforced(grid):
    fam = synthetic_family([0.0, 1.0, 2.0], grid)
    with pytest.raises(ArgumentError):
        oscillation(fam, ThresholdSeq(np.array([1.0, 2.5])))
    with pytest.raises(ArgumentError):   # one cut closes no block
        oscillation(fam, ThresholdSeq(np.array([1.0])))


def test_variation_examples(grid):
    fam = synthetic_family([0.0, 1.0, 0.0], grid)
    assert np.max(np.abs(variation(fam, 2.0).values.real - np.sqrt(2.0))) < 1e-15
    mono = synthetic_family([0.0, 0.3, 1.1, 2.0], grid)
    assert np.max(np.abs(variation(mono, 1.0).values.real - 2.0)) < 1e-15
    with pytest.raises(ArgumentError):
        variation(fam, 0.5)


def test_variation_dp_beats_consecutive(grid):
    # skipping middle points increases the r=2 sum for a monotone family
    fam = synthetic_family([0.0, 1.0, 2.0], grid)
    v = variation(fam, 2.0).values.real[0]
    assert v == pytest.approx(2.0, abs=1e-15)  # selection {0, 2}


def test_oscillation_monotone_in_blocks(grid):
    rng = np.random.Generator(np.random.Philox(key=1))
    rows = rng.standard_normal(8)
    fam = synthetic_family(list(rows), grid)
    c2 = ThresholdSeq(np.array([1.0, 4.0, 6.0]))
    c3 = ThresholdSeq(np.array([1.0, 4.0, 6.0, 8.0]))
    assert np.all(oscillation(fam, c3).values.real
                  >= oscillation(fam, c2).values.real - 1e-15)


def _brute_max_oscillation(fam):
    """max of `oscillation` over every cut sequence of at least two cuts."""
    T, tg = len(fam.t_grid), fam.t_grid
    brute = np.zeros(fam.values.shape[-1])
    for k in range(2, T + 1):
        for pick in itertools.combinations(range(T), k):
            cuts = ThresholdSeq(tg.values[list(pick)])
            brute = np.maximum(brute, oscillation(fam, cuts).values.real)
    return brute


def _brute_variation(vals, r):
    """max over every increasing selection of at least two rows of vals."""
    brute = np.zeros(vals.shape[-1])
    for k in range(2, vals.shape[0] + 1):
        for pick in itertools.combinations(range(vals.shape[0]), k):
            steps = np.abs(np.diff(vals[list(pick)], axis=0)) ** r
            brute = np.maximum(brute, np.sum(steps, axis=0) ** (1.0 / r))
    return brute


def test_max_oscillation_matches_brute_force(grid):
    # T=9 complex rows that differ from node to node, so different nodes
    # attain their supremum on different cut sequences (all 502 of them)
    rng = np.random.Generator(np.random.Philox(key=5))
    T = 9
    fam = synthetic_family(list(rng.standard_normal((T, grid.n))
                                + 1j * rng.standard_normal((T, grid.n))), grid)
    assert np.array_equal(max_oscillation(fam).values.real, _brute_max_oscillation(fam))


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_variation_matches_brute_force(grid, r):
    # T=8 complex rows that differ from node to node: the DP reaches the max over
    # all 247 increasing selections of at least two elements, to rounding
    rng = np.random.Generator(np.random.Philox(key=13))
    T = 8
    vals = rng.standard_normal((T, grid.n)) + 1j * rng.standard_normal((T, grid.n))
    fam = synthetic_family(list(vals), grid)
    brute = _brute_variation(vals, r)
    assert np.max(np.abs(variation(fam, r).values - brute) / brute) <= 1e-14


def _full_chain_sup(vals, lag, power, scale=1.0):
    """The chain DP over all T rows of vals, as it ran before run-interior
    rows were dropped: best[k] = max over i < k of best[i] + |a_i - a_{k-lag}|^(2 power),
    with the parts of vals divided by scale."""
    parts, best = np.stack([vals.real, vals.imag]) / scale, np.zeros(vals.shape)
    scratch = np.empty(parts.shape)
    for k in range(1, vals.shape[-2]):
        gap = np.square(np.subtract(parts[..., :k, :], parts[..., k - lag, None, :],
                                    out=scratch[..., :k, :]), out=scratch[..., :k, :])
        gap = np.add(gap[0], gap[1], out=gap[0])
        if power != 1.0:
            np.power(gap, power, out=gap)
        np.max(np.add(best[..., :k, :], gap, out=gap), axis=-2, out=best[..., k, :])
    return best[..., -1, :]


def _full_variation(vals, r):
    """V^r from the full-T DP, with variation's column scaling for r != 2."""
    if r == 2.0:
        return _full_chain_sup(vals, 0, 1.0) ** 0.5
    s = 2.0 * np.max(np.abs(vals - vals[..., :1, :]), axis=-2)
    s[s == 0.0] = 1.0
    return s * _full_chain_sup(vals, 0, r / 2.0, s[..., None, :]) ** (1.0 / r)


def _full_row_seminorms(vals):
    """max_oscillation and V^r, r = 1, 2, 3, from the full-T DP."""
    return [np.sqrt(_full_chain_sup(vals, 1, 1.0))] + [
        _full_variation(vals, r) for r in (1.0, 2.0, 3.0)]


def _row_seminorms(fam):
    return [max_oscillation(fam).values.real] + [
        variation(fam, r).values for r in (1.0, 2.0, 3.0)]


# run lengths of equal consecutive rows: runs of 1, 2, 3 and 9 rows at the
# start, in the middle and at the end, a duplicated last row, all rows equal,
# T = 1 and T = 2
RUNS = [[9, 1, 2, 3, 1], [1, 3, 9, 2, 1], [2, 1, 1, 3, 9], [3, 2, 1, 9], [1, 1, 1, 1, 2],
        [9], [4], [1], [1, 1], [2], [1, 2, 1, 1, 3, 1, 1, 9, 2, 1, 1, 2, 3]]


@pytest.mark.parametrize("runs", RUNS, ids=lambda r: "-".join(map(str, r)))
@pytest.mark.parametrize("signed_zero", [False, True], ids=["plain", "pm0"])
def test_repeated_rows_give_the_full_dp_bitwise(grid, runs, signed_zero):
    # the DP over the rows that start or end a run equals the DP over every
    # row bit for bit, and the brute force where it is affordable; with
    # signed_zero the copies inside each run differ from its first row only
    # by the sign of zero parts, which compare equal
    rng = np.random.Generator(np.random.Philox(key=len(runs) + 17 * sum(runs)))
    base = rng.standard_normal((len(runs), grid.n)) + 1j * rng.standard_normal((len(runs), grid.n))
    base[:, :5] = 0.0
    vals = np.repeat(base, runs, axis=0)
    if signed_zero:
        starts = np.cumsum([0] + runs[:-1])
        inner = np.setdiff1d(np.arange(len(vals)), starts)
        vals.real[inner, :5] = -0.0
        vals.imag[inner, :3] = -0.0
    fam = synthetic_family(list(vals), grid)
    assert _run_ends(vals).shape[0] == sum(min(r, 2) for r in runs)
    got, want = _row_seminorms(fam), _full_row_seminorms(vals)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert np.array_equal(fam.max_abs().values.real, np.max(np.abs(vals), axis=0))
    if len(vals) <= 9:
        assert np.array_equal(got[0], _brute_max_oscillation(fam))
        for r, g in zip((1.0, 2.0, 3.0), got[1:]):
            brute = _brute_variation(vals, r)
            assert np.all(np.abs(g - brute) <= 1e-14 * brute)


def test_member_repeats_and_dp_step_count(space512, freq512, corpus512, monkeypatch):
    # member 1's spectrum vanishes on the band (t_20, t_40], so its S_t f is
    # constant there: alone it drops more rows than the stack, and the rows
    # of the stacked seminorms still equal the lone calls and the full DP
    tg = default_t_grid(freq512)
    stack = stack_of(corpus512[:2], space512)
    vals = build_family(0.0, stack, tg, freq512).values.copy()
    vals[1, 21:41] = vals[1, 20]
    fam = PartialSumFamily(stack, tg, vals)
    assert _run_ends(vals[1]).shape[0] < _run_ends(vals).shape[1] < len(tg)
    stacked = [max_oscillation(fam).values, fam.max_abs().values]
    for b in range(2):
        row = PartialSumFamily(stack.with_values(stack.values[b]), tg, vals[b])
        assert np.array_equal(stacked[0][b], max_oscillation(row).values)
        assert np.array_equal(stacked[0][b], np.sqrt(_full_chain_sup(vals[b], 1, 1.0)))
        assert np.array_equal(stacked[1][b], row.max_abs().values)
    # the sweep grid at N=512 has K = 49 run-end rows of T = 71, so the DP
    # makes K - 1 steps
    calls, sq_gaps = [], seminorms._sq_gaps

    def counted(*args):
        calls.append(1)
        return sq_gaps(*args)

    monkeypatch.setattr(seminorms, "_sq_gaps", counted)
    max_oscillation(build_family(0.0, sample(corpus512[0].fn, space512), tg, freq512))
    assert (len(tg), len(calls)) == (71, 48)


def _run_table_max_oscillation(family):
    """The DP with a running table run[i] = max over i <= t < k of |a_t - a_i|^2
    and best[k] = max over i < k of best[i] + run[i]."""
    vals = family.values
    T, N = vals.shape
    best, run = np.zeros((T, N)), np.zeros((T, N))
    for k in range(1, T):
        d = vals[:k] - vals[k - 1]
        run[:k] = np.maximum(run[:k], d.real * d.real + d.imag * d.imag)
        best[k] = np.max(best[:k] + run[:k], axis=0)
    return np.sqrt(best[-1])


def test_max_oscillation_needs_no_run_table(grid, space512, freq512, corpus512):
    # cutting a block just after its arg-sup never lowers the sum, so the DP
    # over |a_{k-1} - a_i|^2 alone reaches the same floats
    rng = np.random.Generator(np.random.Philox(key=11))
    fams = [synthetic_family(list(rng.standard_normal((T, grid.n))
                                  + 1j * rng.standard_normal((T, grid.n))), grid)
            for T in (2, 5, 40)]
    fams += [build_family(a, sample(m.fn, space512), default_t_grid(freq512), freq512)
             for a in (0.0, 1.0) for m in corpus512[:3]]
    for fam in fams:
        assert np.array_equal(max_oscillation(fam).values.real, _run_table_max_oscillation(fam))


def test_max_oscillation_between_fixed_and_variation(space512, freq512, one_bump):
    tg = ThresholdSeq(np.union1d(np.geomspace(0.1, 20.0, 24), 2.0 ** np.arange(-3, 5)))
    fam = build_family(0.0, one_bump, tg, freq512)
    full = max_oscillation(fam).values.real
    # dominates fixed sequences: sparse, a single block, every other threshold
    for pick in ([0, 9, 19], [0, len(tg) - 1], list(range(0, len(tg), 2))):
        cuts = ThresholdSeq(tg.values[pick])
        assert np.all(full >= oscillation(fam, cuts).values.real)
    assert np.all(full <= variation(fam, 2.0).values.real + 1e-12)
    assert np.max(full) > 0.0


@pytest.fixture(scope="module")
def family_and_v2(freq512, one_bump):
    fam = build_family(0.5, one_bump, ThresholdSeq(np.geomspace(0.1, 20.0, 32)), freq512)
    return fam, variation(fam, 2.0).values.real


@settings(derandomize=True, deadline=None)
@given(pick=st.sets(st.integers(0, 31), min_size=2))
def test_oscillation_bounded_by_variation(family_and_v2, pick):
    fam, v2 = family_and_v2
    osc = oscillation(fam, ThresholdSeq(fam.t_grid.values[sorted(pick)])).values.real
    assert np.all(osc <= v2 + 1e-12)


def test_carleson_max_operators(space512, freq512, corpus512):
    f = sample(corpus512[1].fn, space512)
    tg = ThresholdSeq(np.union1d(np.geomspace(0.1, 50.0, 32), 2.0 ** np.arange(-3, 6)))
    fam = build_family(0.5, f, tg, freq512)
    cd = fam.max_abs()
    for i in (0, 10, 20):
        assert np.all(cd.values.real >= np.abs(fam.values[i]) - 1e-14)
    # at the band limit the rows approach f, so the max nearly dominates |f|
    assert np.all(cd.values.real >= np.abs(f.values) - 1e-3)
    # parity-decomposition bound for the maximal operator
    fe, fo = even_odd_split(f)
    foy = fo.with_values(fo.values / fo.grid.points)
    he = build_family(0.5, fe, tg, freq512.positive_half()).max_abs()
    ho = build_family(1.5, foy, tg, freq512.positive_half()).max_abs()
    half_pts = fe.grid.points
    bound = np.concatenate([(he.values.real + half_pts * ho.values.real)[::-1],
                            he.values.real + half_pts * ho.values.real])
    assert np.all(cd.values.real <= bound + 1e-8)


def test_zero_function_all_zero(space512, freq512):
    z = sample(lambda x: np.zeros_like(np.asarray(x, float)), space512)
    tg = ThresholdSeq(2.0 ** np.arange(-2, 4))
    fam = build_family(0.0, z, tg, freq512)
    assert np.max(max_oscillation(fam).values.real) == 0.0
    assert np.max(variation(fam, 2.0).values.real) == 0.0
    assert np.max(fam.max_abs().values.real) == 0.0



def test_stacked_seminorms_equal_the_row_calls(space512, freq512, corpus512):
    # a (B, T, N) family reduces along its t axis: each row of a stacked
    # max_oscillation, oscillation and variation is the lone call's, bit for bit
    stack = stack_of(corpus512[:3], space512)
    tg = default_t_grid(freq512)
    fam = build_family(1.0, stack, tg, freq512)
    cuts = ThresholdSeq(tg.values[[0, 7, 30, 52, len(tg) - 1]])
    stacked = [max_oscillation(fam), oscillation(fam, cuts), variation(fam, 2.0),
               variation(fam, 3.0)]
    for b in range(3):
        row = PartialSumFamily(stack.with_values(stack.values[b]), tg, fam.values[b])
        lone = [max_oscillation(row), oscillation(row, cuts), variation(row, 2.0),
                variation(row, 3.0)]
        for s, one in zip(stacked, lone):
            assert s.values.shape == (3, stack.grid.n)
            assert np.array_equal(s.values[b], one.values)


def test_real_family_seminorms_equal_their_complex_cast_bitwise(space512, freq512, corpus512):
    # a float64 family sums one part per squared gap, its complex128 cast two,
    # the second exactly +0.0: every seminorm gives the same bits
    stack = stack_of(corpus512[:2], space512)
    tg = default_t_grid(freq512)
    fam = build_family(0.0, stack, tg, freq512)
    cast = PartialSumFamily(stack, tg, fam.values.astype(complex))
    assert fam.values.dtype == np.float64
    cuts = ThresholdSeq(tg.values[[0, 7, 30, 52, len(tg) - 1]])
    for op in (max_oscillation, lambda f: oscillation(f, cuts), lambda f: variation(f, 2.0),
               lambda f: variation(f, 3.0), PartialSumFamily.max_abs):
        real, cplx = op(fam).values, op(cast).values
        assert real.dtype == cplx.dtype == np.float64 and np.array_equal(real, cplx)


@pytest.fixture(scope="module")
def sweep_member_family():
    """The family of one sweep member at N=512, alpha = 0, on the default t-grid."""
    res = resolution_n512()
    space, freq = res.space_grid(), res.freq_grid()
    f = sample(_sweep_corpus(7)[0].fn, space)
    return build_family(0.0, f, default_t_grid(freq), freq)


@pytest.mark.parametrize("r", [3.0, 40.0, 300.0, 1000.0])
def test_variation_lies_between_the_largest_gap_and_its_chain_bound(sweep_member_family, r):
    # a two-row selection gives V^r >= max_{i<j} |a_j - a_i|, and at most T - 1
    # steps give V^r <= (T - 1)^{1/r} times it: no r-th power under- or overflows
    vals = sweep_member_family.values
    gap = np.max(np.abs(vals[:, None, :] - vals[None, :, :]), axis=(0, 1))
    v = variation(sweep_member_family, r).values
    assert np.all(gap > 0.0)
    assert np.all(v >= (1.0 - 1e-14) * gap)
    assert np.all(v <= (1.0 + 1e-14) * (len(vals) - 1) ** (1.0 / r) * gap)


@pytest.mark.parametrize("c", [1e12, 1e-12])
@pytest.mark.parametrize("r", [3.0, 40.0, 1000.0])
def test_variation_is_scale_covariant(sweep_member_family, c, r):
    fam = sweep_member_family
    scaled = PartialSumFamily(fam.base, fam.t_grid, c * fam.values)
    want = c * variation(fam, r).values
    assert np.max(np.abs(variation(scaled, r).values - want) / want) <= 2e-15


@pytest.mark.parametrize("r", [np.inf, -np.inf, np.nan, 1000.5, 0.5])
def test_variation_refuses_r_outside_its_range(grid, r):
    with pytest.raises(ArgumentError, match="1 <= r <= 1000"):
        variation(synthetic_family([0.0, 1.0, 0.0], grid), r)
