import numpy as np
import pytest
from scipy.integrate import quad

from dunkl_osc import (FULL_LINE, HALF_LINE, ArgumentError, Grid, NormSpec,
                       ResolutionError, SampledFn, SupGrid, ThresholdSeq,
                       build_family, bump, carleson_hunt, conjugate_hardy,
                       default_sup_grid, gaussian, hardy_littlewood_max,
                       make_breakpoint_grid, make_graded_grid, maximal_hilbert,
                       multiply_power, prestini_majorant, resolution_n512, sample,
                       transforms, weighted_lp_norm)
from dunkl_osc.classical_ops import _truncated_sups


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


def test_conjugate_hardy_end_panels_read_the_end_samples():
    # with 8 nodes a panel the 12-point sub-nodes of a cut end panel reach past
    # the last grid node; they take the end sample, not 0, so H 1 = log(2/x)
    g = make_graded_grid(0.0, 2.0, 6, 8)
    x = g.points[g.n // 4:3 * g.n // 4]
    out = conjugate_hardy(sample(lambda y: np.ones_like(np.asarray(y, float)), g, HALF_LINE))
    assert np.max(np.abs(out.values[g.n // 4:3 * g.n // 4] - np.log(2.0 / x))) <= 1e-12


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


def test_sup_grid_and_modulations_share_the_transform_band(smooth_pair, monkeypatch):
    # the band is transforms.resolvable_frequency's: the default ladder stops
    # there, and asking twice the nodes per wavelength halves it; given
    # t-values are kept as they are, and an operator reading one above the
    # band refuses it
    g, f1, _, _ = smooth_pair
    f_half = sample(bump(1.5, 1.2), make_graded_grid(0.0, 3.0, 12, 16, 1.0), HALF_LINE)
    band = transforms.resolvable_frequency(g)
    ladder = default_sup_grid(g).frequencies
    assert np.max(ladder) <= band < 2.0 * np.max(ladder) < 2.0 ** 7
    coarse = make_graded_grid(0.0, 400.0, 4, 4, 1.0)   # band 0.03 < 2^-4: no octave fits
    assert np.array_equal(default_sup_grid(coarse).frequencies, [0.0])
    ts = band * np.array([0.2, 0.4, 0.8, 0.999])
    full = default_sup_grid(g, ts)
    assert full.frequencies.size == 9
    carleson_hunt(f1, full)
    for op, f in ((carleson_hunt, f1), (lambda f, sup: prestini_majorant(0.0, f, sup), f_half)):
        over = default_sup_grid(f.grid, [1.0, 1.01 * transforms.resolvable_frequency(f.grid)])
        assert over.frequencies.size == 5
        with pytest.raises(ResolutionError):
            op(f, over)
    monkeypatch.setattr(transforms, "MIN_NODES_PER_WAVELENGTH", 12.0)
    assert np.array_equal(default_sup_grid(g).frequencies, ladder[np.abs(ladder) <= band / 2.0])
    assert np.array_equal(default_sup_grid(g, ts).frequencies, full.frequencies)
    with pytest.raises(ResolutionError):
        carleson_hunt(f1, full)


def test_a_block_without_cut_parts_gives_zero():
    # radius 100 clips every window to the whole support: no cut part is
    # left, and sum_{|y| > eps} over nothing is 0 at every frequency
    half = resolution_n512().half_grid()
    f = sample(bump(1.5, 1.2), half, HALF_LINE)
    sup = SupGrid(np.array([100.0]), np.array([-1.0, 0.0, 1.0]))
    assert np.array_equal(carleson_hunt(f, sup).values, np.zeros(half.n))
    assert np.array_equal(maximal_hilbert(f, sup).values, np.zeros(half.n))
    parts = hardy_littlewood_max(multiply_power(f, 0.5), sup).values + \
        conjugate_hardy(multiply_power(f, 0.5)).values
    assert np.array_equal(prestini_majorant(0.0, f, sup).values,
                          multiply_power(f.with_values(parts), -0.5).values)


@pytest.mark.parametrize("op", [
    maximal_hilbert, carleson_hunt,
    lambda f, sup: prestini_majorant(0.5, f, sup),
    hardy_littlewood_max,
    lambda f, sup: conjugate_hardy(f),
    lambda f, sup: weighted_lp_norm(f, NormSpec(2.0, 0.0, 0.0)),
], ids=["maximal_hilbert", "carleson_hunt", "prestini_majorant", "hardy_littlewood_max",
        "conjugate_hardy", "weighted_lp_norm"])
def test_an_empty_stack_is_refused(op):
    # a (0, N) stack is refused where it is made, as a typed error
    half = make_graded_grid(0.0, 3.0, 12, 16, 1.0)
    with pytest.raises(ArgumentError, match="at least one member"):
        op(SampledFn(half, np.empty((0, half.n)), HALF_LINE), default_sup_grid(half, [1.0]))


@pytest.mark.parametrize("line", ["half-line", "full-line"])
@pytest.mark.parametrize("freqs", ["Q1", "prestini"])
def test_truncated_sups_of_a_real_stack_match_its_complex_cast(line, freqs):
    # a float64 stack takes the real GEMMs and the same stack cast to
    # complex128 the complex ones: the same sums, to round-off
    res = resolution_n512()
    grid = res.half_grid() if line == "half-line" else res.space_grid()
    tag = HALF_LINE if line == "half-line" else FULL_LINE
    ladder = ThresholdSeq.octaves(2.0 ** -4, 0.9 * res.freq_max()).values
    sup = default_sup_grid(grid, ladder)
    q = np.zeros(1) if freqs == "Q1" else sup.frequencies
    real = SampledFn(grid, np.stack([bump(c, r)(grid.points) for c, r in
                                     ((1.5, 1.2), (0.8, 0.5), (2.0, 0.9))]), tag)
    assert real.values.dtype == np.float64
    want = _truncated_sups(real.with_values(real.values.astype(np.complex128)), sup, q)
    got = _truncated_sups(real, sup, q)
    assert got.shape == want.shape == (3, grid.n, q.size)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


def _real_and_complex_stacks(line):
    res = resolution_n512()
    grid = res.half_grid() if line == "half-line" else res.space_grid()
    real = SampledFn(grid, np.stack([bump(c, r)(grid.points) for c, r in
                                     ((1.5, 1.2), (0.8, 0.5), (2.0, 0.9))]),
                     HALF_LINE if line == "half-line" else FULL_LINE)
    return grid, real, real.with_values(real.values * (1 - 0.5j) + 1j * real.values[::-1])


@pytest.mark.parametrize("line", ["half-line", "full-line"])
def test_radii_past_the_support_change_no_output(line):
    # a radius of the support's length or more reaches past both of its ends
    # from every node: it leaves both truncated windows empty (a zero sum) and
    # takes the M_HL average over the whole support (total / 2r, smaller the
    # larger r), so radii beyond the one of the support's length change no bit
    grid, real, cplx = _real_and_complex_stacks(line)
    padded = default_sup_grid(grid, [0.5, 1.0, 2.0])
    assert np.sum(padded.radii > grid.hi - grid.lo) >= 7
    base = SupGrid(padded.radii[padded.radii <= grid.hi - grid.lo], padded.frequencies)
    ops = [hardy_littlewood_max, maximal_hilbert, carleson_hunt]
    if line == "half-line":
        ops.append(lambda f, sup: prestini_majorant(0.5, f, sup))
    for f in (real, cplx):
        for op in ops:
            assert np.array_equal(op(f, padded).values, op(f, base).values)


@pytest.mark.parametrize("line", ["half-line", "full-line"])
def test_truncated_sups_of_a_real_stack_are_even_in_xi(line):
    # T(-xi) = conj T(xi) for a real f, not for a complex one
    grid, real, cplx = _real_and_complex_stacks(line)
    sup = default_sup_grid(grid, [0.5, 1.0, 2.0, 4.0])
    sups, csups = (_truncated_sups(f, sup, sup.frequencies) for f in (real, cplx))
    assert np.array_equal(sups, sups[..., ::-1])
    assert not np.allclose(csups, csups[..., ::-1])


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
    t_grid = ThresholdSeq(2.0 ** np.arange(-3, 5))
    sup = default_sup_grid(half, t_grid.values)
    for alpha in (-0.5, 0.5):
        fam = build_family(alpha, f, t_grid)
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


def _prestini_stack():
    half = make_graded_grid(0.0, 3.0, 8, 32, 1.0)
    one = sample(bump(1.5, 1.2), half, HALF_LINE)
    stack = one.with_values(np.stack([one.values, sample(bump(1.0, 0.8), half).values,
                                      sample(gaussian(2.0, 0.4), half).values * (1 - 2j)]))
    return half, one, stack


@pytest.mark.parametrize("freqs", [None, [-2.0, -1.0, 1.0, 2.0]], ids=["with-0", "without-0"])
def test_prestini_parts_match_public_operators(freqs):
    # the majorant is the public operators on g = x^(a+1/2) f on f's own grid: its
    # one pass gives H* (xi = 0 column) and C (sup's columns only) as maximal_hilbert
    # and carleson_hunt do, up to the BLAS summation order of its wider panel product,
    # for one function and for a stack
    half, one, stack = _prestini_stack()
    sup = default_sup_grid(half, [0.5, 1.0, 2.0]) if freqs is None else \
        SupGrid(3.0 * 2.0 ** np.arange(8, -9, -1), np.array(freqs))
    a = 0.5
    for f in (one, stack):
        g = f.with_values(f.values * half.points ** (a + 0.5))
        hst, car = maximal_hilbert(g, sup).values, carleson_hunt(g, sup).values
        assert freqs is None or np.any(hst > car)   # a stray xi = 0 column in C would show
        parts = (hardy_littlewood_max(g, sup).values + conjugate_hardy(g).values
                 + hst + car) * half.points ** (-(a + 0.5))
        maj = prestini_majorant(a, f, sup).values
        assert maj.shape == f.values.shape
        assert np.max(np.abs(maj - parts) / np.abs(parts)) <= 1e-15


def test_half_line_operators_match_the_zero_extension():
    # every operator treats f as zero beyond its grid, so on a half-line grid it
    # matches f extended by zero to the mirrored full-line grid, at the kept nodes;
    # they differ only where the full grid interpolates across 0 (from the zero
    # at -x_0) and the half grid holds the first sample, for g = x f of the majorant
    half, _, stack = _prestini_stack()
    stack = stack * half.points
    edges = half.panel_edges
    full = Grid(np.concatenate([-half.points[::-1], half.points]),
                np.concatenate([half.weights[::-1], half.weights]), -half.hi, half.hi,
                np.concatenate([-edges[::-1], edges[1:]]))
    ext = SampledFn(full, np.concatenate([np.zeros_like(stack.values), stack.values], axis=-1))
    sup = default_sup_grid(half, [0.5, 1.0, 2.0])
    for op in (lambda h: hardy_littlewood_max(h, sup).values, lambda h: conjugate_hardy(h).values,
               lambda h: _truncated_sups(h, sup, sup.frequencies)):
        on_half, on_full = op(stack), op(ext)[:, half.n:]
        assert np.all(np.abs(on_half - on_full) <= 1e-10 * np.abs(on_full))


def test_hardy_littlewood_windows_past_the_support_are_exact():
    # radius 4 covers the support [0.2, 2] from every node: the clipped window is
    # the whole support, integrated by the grid's own rule, so M_HL x^2 is
    # integral_0.2^2 y^2 dy / 8 to rounding
    g = make_graded_grid(0.2, 2.0, 6, 8)
    out = hardy_littlewood_max(sample(lambda y: np.asarray(y) ** 2, g, HALF_LINE),
                               SupGrid(np.array([4.0]), np.array([0.0]))).values
    exact = (2.0 ** 3 - 0.2 ** 3) / 3.0 / 8.0
    assert np.max(np.abs(out - exact)) <= 1e-14 * exact


def test_maximal_hilbert_of_one_clips_windows_to_the_support():
    # for f = 1 on [0, 2] every eps < min(x, 2 - x) truncates to log(x / (2 - x)) and
    # larger eps, whose windows reach past the support, give less; with 8 nodes a
    # panel the end panels' sub-nodes lie beyond the end nodes and read the end samples
    g = make_graded_grid(0.0, 2.0, 6, 8)
    out = maximal_hilbert(sample(lambda y: np.ones_like(np.asarray(y, float)), g, HALF_LINE),
                          default_sup_grid(g)).values
    mid = slice(g.n // 4, 3 * g.n // 4)
    x = g.points[mid]
    assert np.max(np.abs(out[mid] - np.abs(np.log(x / (2.0 - x))))) <= 2e-3


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
    ops = {"hardy-littlewood": lambda h: hardy_littlewood_max(h, sup).values,
           "conjugate-hardy": lambda h: conjugate_hardy(h).values,
           "maximal-hilbert": lambda h: maximal_hilbert(h, sup).values,
           "carleson-hunt": lambda h: carleson_hunt(h, sup).values,
           "truncated sups": lambda h: _truncated_sups(h, sup, sup.frequencies)}
    for name, op in ops.items():
        singles = [op(f) for f in funcs]
        assert singles[0].shape[0] == g.n, name
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
    sups = _truncated_sups(f, sup, sup.frequencies)[idx]
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
