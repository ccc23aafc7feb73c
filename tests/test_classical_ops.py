import numpy as np
import pytest
from scipy.integrate import quad

from dunkl_osc import (FULL_LINE, HALF_LINE, ArgumentError, ResolutionError,
                       SupGrid, ThresholdSeq, build_family, bump,
                       carleson_hunt, conjugate_hardy, default_sup_grid,
                       gaussian, hardy_littlewood_max, make_breakpoint_grid,
                       make_graded_grid, maximal_hilbert, prestini_majorant,
                       sample)
from dunkl_osc.classical_ops import (_conjugate_hardy_at, _even_zero_extension, _hl_sups,
                                     _truncated_sups)


@pytest.fixture(scope="module")
def smooth_pair():
    g = make_graded_grid(-3.0, 3.0, 12, 16, 1.0)
    f1 = sample(bump(0.3, 1.2), g)
    f2 = sample(gaussian(-0.4, 0.3), g)
    sup = default_sup_grid(g, [0.5, 1.0, 2.0])
    return g, f1, f2, sup


def test_supgrid_validation():
    with pytest.raises(ArgumentError):
        SupGrid(np.array([1.0, 2.0]), np.array([0.0]))    # not decreasing
    with pytest.raises(ArgumentError):
        SupGrid(np.array([2.0, 1.0]), np.array([1.0]))    # not symmetric
    for radii, freqs in (([2.0, np.nan], [0.0]), ([2.0, 1.0], [-np.nan, np.nan])):
        with pytest.raises(ArgumentError):
            SupGrid(np.array(radii), np.array(freqs))
    s = SupGrid(np.array([2.0, 1.0]), np.array([-1.0, 0.0, 1.0]))
    assert s.radii[0] == 2.0
    # symmetric to 1e-12 is accepted and stored exactly symmetric, sorted
    q = SupGrid(np.array([1.0]), np.array([1.0, -1.0 - 1e-14])).frequencies
    assert np.array_equal(q[::-1], -q) and q[0] < q[1]


def test_hl_constant():
    g = make_breakpoint_grid(np.arange(-4, 4.25, 0.25), 16)
    c = sample(lambda x: np.ones_like(np.asarray(x, float)), g)
    out = hardy_littlewood_max(c, SupGrid(np.array([0.5, 0.25]), np.array([0.0])))
    i0 = np.argmin(np.abs(g.points))
    assert out.values[i0].real == pytest.approx(1.0, abs=1e-10)


def test_hl_indicator_quarter():
    g = make_breakpoint_grid(np.arange(-4, 4.125, 0.125), 16)
    ind = sample(lambda x: (np.abs(np.asarray(x, float)) <= 1.0).astype(float), g)
    sup = SupGrid(np.array([8.0, 4.0, 2.0, 1.0, 0.5]), np.array([0.0]))
    out = hardy_littlewood_max(ind, sup)
    i3 = np.argmin(np.abs(g.points - 3.0))
    assert out.values[i3].real == pytest.approx(0.25, abs=1e-3)


def test_hl_zero():
    g = make_graded_grid(-1.0, 1.0, 4, 8, 1.0)
    z = sample(lambda x: np.zeros_like(np.asarray(x, float)), g)
    out = hardy_littlewood_max(z, SupGrid(np.array([1.0]), np.array([0.0])))
    assert np.max(np.abs(out.values)) == 0.0


def test_conjugate_hardy_log():
    g = make_breakpoint_grid([0.0, 0.25, 0.5, 0.75, 1.0], 24)
    f = sample(lambda x: np.ones_like(np.asarray(x, float)), g, HALF_LINE)
    out = conjugate_hardy(f)
    i = np.argmin(np.abs(g.points - 0.5))
    x = g.points[i]
    assert out.values[i].real == pytest.approx(np.log(1.0 / x), abs=1e-8)
    # beyond the support the integral is empty
    g2 = make_breakpoint_grid([-2.0, -1.0, 0.0, 1.0], 8)
    f2 = sample(lambda x: (np.abs(np.asarray(x, float)) < 1.0).astype(float), g2)
    out2 = conjugate_hardy(f2)
    assert np.max(np.abs(out2.values[np.abs(g2.points) >= 1.0])) == 0.0


def test_conjugate_hardy_on_grids_off_the_origin():
    # a half-line grid starting above 0 integrates over its own panels; a grid
    # with lo < 0 needs a panel edge at 0 to split off its positive panels.
    # H 1(x) = log(hi / |x|), exact at |x| off the end panels, where the cut
    # panel's interpolated samples of 1 are exact (24 nodes a panel put the last
    # node beyond the last 12-point sub-node, so the last panel is exact too)
    one = lambda x: np.ones_like(np.asarray(x, float))
    for g, tag in ((make_graded_grid(0.2, 2.0, 6, 24), HALF_LINE),
                   (make_graded_grid(-1.0, 3.0, 6, 24, 2.0), FULL_LINE)):
        pe = g.panel_edges[g.panel_edges >= 0.0]
        x = np.abs(g.points)
        inner = (x >= pe[1]) & (x <= pe[-2])
        out = conjugate_hardy(sample(one, g, tag)).values
        assert inner.sum() > g.n // 3
        assert np.max(np.abs(out[inner] - np.log(g.hi / x[inner]))) <= 1e-10   # Gauss on 1/y
    with pytest.raises(ArgumentError, match="panel edge at 0"):
        conjugate_hardy(sample(one, make_breakpoint_grid([-1.0, 0.5, 2.0], 8)))


def test_prestini_majorant_needs_lo_0():
    g = make_graded_grid(0.2, 2.0, 6, 8)
    f = sample(bump(1.0, 0.5), g, HALF_LINE)
    with pytest.raises(ArgumentError, match="lo = 0"):
        prestini_majorant(0.0, f, default_sup_grid(g))


def test_maximal_hilbert_log3():
    g = make_breakpoint_grid(np.arange(-1, 1.0625, 0.0625), 16)
    f = sample(lambda x: np.ones_like(np.asarray(x, float)), g)
    out = maximal_hilbert(f, SupGrid(np.array([0.25]), np.array([0.0])))
    i = np.argmin(np.abs(g.points - 0.5))
    x = g.points[i]
    # for the unit indicator at eps=1/4: |ln((1+x)/(1-x))|; at x=1/2 this is ln 3
    assert out.values[i].real == pytest.approx(np.log((1 + x) / (1 - x)), abs=1e-6)


def test_maximal_hilbert_symmetry_cancellation():
    # f even about the evaluation point makes the integrand odd, so every
    # symmetric truncation cancels (the 1/y kernel carries the oddness)
    g = make_breakpoint_grid(np.arange(-2, 2.125, 0.125), 16)
    f = sample(bump(0.0, 1.8), g)
    sup = SupGrid(2.0 ** np.arange(2, -6, -1), np.array([0.0]))
    out = maximal_hilbert(f, sup)
    i0 = np.argmin(np.abs(g.points))
    assert abs(out.values[i0].real) < 1e-3


def test_carleson_reduces_to_hilbert(smooth_pair):
    g, f1, _, _ = smooth_pair
    sup = SupGrid(2.0 ** np.arange(1, -4, -1), np.array([0.0]))
    h = maximal_hilbert(f1, sup)
    c = carleson_hunt(f1, sup)
    assert np.array_equal(h.values, c.values)


def test_carleson_dominates_hilbert(smooth_pair):
    g, f1, _, sup = smooth_pair
    h = maximal_hilbert(f1, sup)
    c = carleson_hunt(f1, sup)
    assert np.all(c.values.real >= h.values.real - 1e-12)


def test_sublinearity_and_homogeneity(smooth_pair):
    g, f1, f2, sup = smooth_pair
    ops = [lambda h: hardy_littlewood_max(h, sup), conjugate_hardy,
           lambda h: maximal_hilbert(h, sup), lambda h: carleson_hunt(h, sup)]
    for op in ops:
        a = op(f1).values.real
        b = op(f2).values.real
        s = op(f1 + f2).values.real
        assert np.all(s <= a + b + 1e-10)
        scaled = op(-2.5 * f1).values.real
        assert np.max(np.abs(scaled - 2.5 * a)) <= 1e-12 * max(1.0, np.max(a)) * 2.5


def test_sup_monotonicity(smooth_pair):
    g, f1, _, _ = smooth_pair
    small = SupGrid(np.array([1.0, 0.5]), np.array([-1.0, 0.0, 1.0]))
    big = SupGrid(np.array([2.0, 1.0, 0.5, 0.25]), np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    for op in (hardy_littlewood_max, maximal_hilbert, carleson_hunt):
        lo = op(f1, small).values.real
        hi = op(f1, big).values.real
        assert np.all(hi >= lo - 1e-14)


def test_modulation_resolution_guard(smooth_pair):
    g, f1, _, _ = smooth_pair
    with pytest.raises(ResolutionError):
        carleson_hunt(f1, SupGrid(np.array([1.0]), np.array([-1e5, 0.0, 1e5])))


def test_cotlar_cross_check(smooth_pair):
    # H* f <= C (M_HL(Hf) + M_HL f) with a single modest empirical constant
    g, f1, _, sup = smooth_pair
    star = maximal_hilbert(f1, sup).values.real
    tiny = SupGrid(np.array([g.max_spacing * 2.0]), np.array([0.0]))
    hilb = maximal_hilbert(f1, tiny)  # near-principal-value transform
    rhs = (hardy_littlewood_max(hilb, sup).values.real
           + hardy_littlewood_max(f1, sup).values.real)
    mask = rhs > 1e-12
    c = np.max(star[mask] / rhs[mask])
    assert c < 10.0


def test_prestini_majorant_zero_and_positive():
    half = make_graded_grid(0.0, 3.0, 12, 16, 1.0)
    z = sample(lambda x: np.zeros_like(np.asarray(x, float)), half, HALF_LINE)
    sup = default_sup_grid(half, [0.5, 1.0, 2.0])
    assert np.max(np.abs(prestini_majorant(0.0, z, sup).values)) == 0.0
    f = sample(bump(1.5, 1.2), half, HALF_LINE)
    maj = prestini_majorant(0.5, f, sup)
    assert np.all(maj.values.real > 0.0)
    # order -1/2 applies no power reweighting: majorant = K f directly
    maj0 = prestini_majorant(-0.5, f, sup)
    assert np.all(np.isfinite(maj0.values.real))


def test_majorant_dominates_partial_sums():
    half = make_graded_grid(0.0, 3.0, 8, 32, 1.0)
    f = sample(bump(1.5, 1.2), half, HALF_LINE)
    t_grid = ThresholdSeq.dyadic(-3, 4)
    sup = default_sup_grid(half, t_grid.values)
    for alpha in (-0.5, 0.5):
        fam = build_family(alpha, f, t_grid, kind="hankel")
        maj = prestini_majorant(alpha, f, sup).values.real
        ratio = np.max(np.abs(fam.values), axis=0) / maj
        assert np.isfinite(ratio).all()
        assert np.max(ratio) < 10.0


def test_carleson_without_zero_frequency(smooth_pair):
    # a symmetric set without 0 gives the pass no xi = 0 column, and
    # carleson_hunt is the max over the columns it has
    g, f1, f2, _ = smooth_pair
    sup = SupGrid(2.0 ** np.arange(1, -5, -1), np.array([-2.0, -1.0, 1.0, 2.0]))
    sups = _truncated_sups(f2, sup, sup.frequencies)
    assert sups.shape == (g.n, 4)
    assert np.array_equal(carleson_hunt(f2, sup).values.real, np.max(sups, axis=1))


@pytest.mark.parametrize("freqs", [None, [-2.0, -1.0, 1.0, 2.0]], ids=["with-0", "without-0"])
def test_prestini_parts_match_public_operators(freqs):
    # the majorant's one pass gives H* (xi = 0 column) and C (sup's columns
    # only) as the public operators do, for one function and for a stack
    half = make_graded_grid(0.0, 3.0, 8, 32, 1.0)
    one = sample(bump(1.5, 1.2), half, HALF_LINE)
    stack = one.with_values(np.stack([one.values, sample(bump(1.0, 0.8), half).values,
                                      sample(gaussian(2.0, 0.4), half).values * (1 - 2j)]))
    sup = default_sup_grid(half, [0.5, 1.0, 2.0]) if freqs is None else \
        SupGrid(3.0 * 2.0 ** np.arange(8, -9, -1), np.array(freqs))
    a = 0.5
    for f in (one, stack):
        fx = _even_zero_extension(f)
        g = fx.with_values(fx.values * np.abs(fx.grid.points) ** (a + 0.5))
        idx = np.arange(fx.grid.n // 2, fx.grid.n)
        hst = maximal_hilbert(g, sup).values[..., idx]
        car = carleson_hunt(g, sup).values[..., idx]
        assert freqs is None or np.any(hst > car)   # a stray xi = 0 column in C would show
        parts = (hardy_littlewood_max(g, sup).values[..., idx]
                 + conjugate_hardy(g).values[..., idx] + hst + car) * half.points ** (-(a + 0.5))
        maj = prestini_majorant(a, f, sup).values
        assert maj.shape == f.values.shape
        assert np.max(np.abs(maj - parts) / np.abs(parts)) <= 1e-14


def test_majorant_windows_at_the_kept_nodes_are_bitwise():
    # the majorant takes M_HL and H at the positive nodes of the zero extension
    # only; the full operators restricted to those nodes give the same bits
    half = make_graded_grid(0.0, 3.0, 8, 32, 1.0)
    f = sample(bump(1.5, 1.2), half, HALF_LINE)
    stack = f.with_values(np.stack([f.values, sample(gaussian(2.0, 0.4), half).values * 1j]))
    sup = default_sup_grid(half, [0.5, 1.0, 2.0])
    for h in (_even_zero_extension(f), _even_zero_extension(stack)):
        idx = np.arange(h.grid.n // 2, h.grid.n)
        xs = h.grid.points[idx]
        full = (hardy_littlewood_max(h, sup).values, conjugate_hardy(h).values)
        kept = (_hl_sups(h.grid, np.abs(h.values), sup.radii, xs), _conjugate_hardy_at(h, xs))
        for a, b in zip(full, kept):
            assert np.array_equal(a[..., idx].reshape(b.shape), b)


def _rows_match(stacked, single_calls):
    """Each row of a stacked result equals the single-function call within
    1e-15 of that row's max."""
    flat = stacked.reshape((-1,) + single_calls[0].shape)
    assert len(flat) == len(single_calls)
    for row, one in zip(flat, single_calls):
        assert np.max(np.abs(row - one)) <= 1e-15 * np.max(np.abs(one))


def test_operators_act_along_the_last_axis(smooth_pair):
    # a (2, 3, N) stack gives every function's own result in its place, and a
    # single function still gives an (N,) result
    g, f1, f2, sup = smooth_pair
    funcs = [f1, f2, f1 * (0.5 - 1j), sample(bump(-1.0, 0.7), g),
             sample(gaussian(1.2, 0.5), g) * 2j, f1 + f2]
    stack = f1.with_values(np.stack([f.values for f in funcs]).reshape(2, 3, g.n))
    idx = np.arange(3, g.n, 7)
    ops = {"hardy-littlewood": lambda h: hardy_littlewood_max(h, sup).values,
           "conjugate-hardy": lambda h: conjugate_hardy(h).values,
           "maximal-hilbert": lambda h: maximal_hilbert(h, sup).values,
           "carleson-hunt": lambda h: carleson_hunt(h, sup).values,
           "truncated sups": lambda h: _truncated_sups(h, sup, sup.frequencies),
           "truncated sups at nodes": lambda h: _truncated_sups(h, sup, sup.frequencies, idx)}
    for name, op in ops.items():
        singles = [op(f) for f in funcs]
        assert singles[0].shape[0] == (g.n if "nodes" not in name else idx.size), name
        out = op(stack)
        assert out.shape == (2, 3) + singles[0].shape, name
        _rows_match(out, singles)
    half = make_graded_grid(0.0, 3.0, 8, 32, 1.0)
    hfuncs = [sample(bump(c, 0.9), half, HALF_LINE) * w for c, w in
              ((0.8, 1.0), (1.5, 1j), (2.0, 1 + 1j), (1.1, -2.0), (2.4, 0.5), (0.5, 3.0))]
    hstack = hfuncs[0].with_values(np.stack([f.values for f in hfuncs]).reshape(2, 3, half.n))
    hsup = default_sup_grid(half, [0.5, 1.0, 2.0])
    singles = [prestini_majorant(0.5, f, hsup).values for f in hfuncs]
    assert singles[0].shape == (half.n,)
    out = prestini_majorant(0.5, hstack, hsup)
    assert out.values.shape == (2, 3, half.n) and out.domain_tag == HALF_LINE
    _rows_match(out.values, singles)


def _plateau(x):
    """1 on |x| <= 1, a C-infinity step down to 0 on 1 <= |x| <= 2."""
    t = np.clip(2.0 - np.abs(np.asarray(x, dtype=float)), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a, b = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def test_truncated_sups_match_quad_oracle():
    # f = plateau * (1 + iz/2) is linear wherever a window end falls (|x +- eps|
    # < 1, or beyond the support), so the interpolated cut panels are exact and
    # the operators must match adaptive quadrature of the two kept intervals;
    # the dyadic frequencies run through the double-angle steps and a restart
    g = make_breakpoint_grid(np.arange(-4.0, 4.25, 0.25), 16)
    f = sample(lambda z: _plateau(z) * (1.0 + 0.5j * np.asarray(z)), g)
    xis = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    sup = SupGrid(np.array([5.0, 3.0, 0.4, 0.2, 0.1]), np.concatenate([-xis, [0.0], xis]))
    idx = np.array([np.argmin(np.abs(g.points - c)) for c in (-0.4, 0.1, 0.35)])
    sups = _truncated_sups(f, sup, sup.frequencies, idx)
    hilb, carl = maximal_hilbert(f, sup).values[idx], carleson_hunt(f, sup).values[idx]
    for i, x in enumerate(g.points[idx]):
        ref = np.zeros((sup.radii.size, sup.frequencies.size))
        for e, eps in enumerate(sup.radii):
            for k, xi in enumerate(sup.frequencies):
                def h(z):
                    return _plateau(z) * (1.0 + 0.5j * z) * np.exp(-1j * xi * z) / (x - z)

                total = 0j
                for a, b in ((g.lo, x - eps), (x + eps, g.hi)):
                    if a >= b:
                        continue
                    kw = dict(points=[p for p in (-2.0, -1.0, 1.0, 2.0) if a < p < b] or None,
                              limit=200, epsabs=1e-13, epsrel=1e-11)
                    total += quad(lambda z: h(z).real, a, b, **kw)[0]
                    total += 1j * quad(lambda z: h(z).imag, a, b, **kw)[0]
                ref[e, k] = abs(total)
        assert np.max(np.abs(sups[i] / ref.max(axis=0) - 1.0)) <= 1e-8
        assert abs(carl[i] / ref.max() - 1.0) <= 1e-8
        assert abs(hilb[i] / ref[:, sup.frequencies.size // 2].max() - 1.0) <= 1e-8
