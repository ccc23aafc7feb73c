import numpy as np
import pytest

from dunkl_osc import (HALF_LINE, ArgumentError, Grid, Resolution, ResolutionError,
                       ThresholdSeq, build_family, bump, default_t_grid, dunkl,
                       dunkl_partial_sum, even_odd_split, family_to_csv, fourier_partial_sum,
                       gaussian, hankel_partial_sum, make_breakpoint_grid,
                       make_graded_grid, radial_partial_sum,
                       resolvable_frequency, sample, transforms)
from dunkl_osc.projections import PartialSumFamily, _cut_rows
from conftest import l2_weighted, stack_of

TS = [0.5, 1.0, 2.0, 4.0]


def test_threshold_seq_validation():
    with pytest.raises(ArgumentError):
        ThresholdSeq(np.array([1.0, 1.0]))
    with pytest.raises(ArgumentError):
        ThresholdSeq(np.array([-1.0, 2.0]))
    dy = ThresholdSeq.octaves(2.0 ** -3, 2.0 ** 5)
    assert np.all(np.frexp(dy.values)[0] == 0.5) and len(dy) == 9
    halves = ThresholdSeq.octaves(1.0, 3.0, 2)
    assert not np.all(np.frexp(halves.values)[0] == 0.5) and len(halves) == 4
    # a range holding no ladder point gives no sequence
    with pytest.raises(ArgumentError):
        ThresholdSeq.octaves(3.0, 3.5)


@pytest.mark.parametrize("res", [Resolution(2, 8, 3.0), Resolution(8), Resolution(16),
                                 Resolution(24)], ids=lambda r: f"N{r.n_line}")
def test_octaves_reproduce_the_inline_ladders(res):
    """ThresholdSeq.octaves gives, bit for bit, the octave eighths of the
    band, the dyadic ladders 2^-4 ... 0.45 and 0.9 of the band and the
    default sup-grid frequencies, as the inline formulas wrote them."""
    band = res.freq_max()
    eighths = 2.0 ** (np.arange(int(np.ceil(8.0 * np.log2(band / 2.0 ** 10))),
                                int(np.floor(8.0 * np.log2(0.45 * band))) + 1) / 8.0)
    assert default_t_grid(res.freq_grid()).values.tobytes() == eighths.tobytes()
    for frac in (0.45, 0.9):
        dyadic = 2.0 ** np.arange(-4, int(np.floor(np.log2(frac * band))) + 1)
        assert ThresholdSeq.octaves(2.0 ** -4, frac * band).values.tobytes() == dyadic.tobytes()
    sup = ThresholdSeq.octaves(2.0 ** -4, 2.0 ** 7).values
    assert sup.tobytes() == (2.0 ** np.arange(-4, 8)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_non_finite_thresholds_and_cuts_are_refused(bad, one_bump, space512, freq512):
    # a NaN cut used to mask nothing away (NaN sorts past the last node),
    # and a cut t <= 0 everything (the partial sum was the zero function)
    for ts in ([1.0, bad, 3.0], [1.0, 2.0, bad]):
        with pytest.raises(ArgumentError):
            ThresholdSeq(np.array(ts))
    with pytest.raises(ArgumentError):
        dunkl_partial_sum(0.0, one_bump, bad, freq512)
    half = sample(bump(1.5, 1.2), space512.positive_half(), HALF_LINE)
    with pytest.raises(ArgumentError):
        hankel_partial_sum(0.5, half, bad, freq512.positive_half())
    with pytest.raises(ArgumentError):
        _cut_rows(0.0, one_bump, [[1.0, bad]], freq512, "dunkl")
    with pytest.raises(ArgumentError):
        _cut_rows(0.0, one_bump, [[1.0], [bad]], freq512, "dunkl")


def test_cut_rows_match_the_node_masks(freq512, space512):
    """Each row is the inverse of the spectrum masked by |xi| <= t, for cuts
    below the first node, on a node and just below it, between nodes and at
    the band edge, in any order and with repeated masks."""
    pts = freq512.positive_half().points
    ts = [freq512.hi, pts[0] / 3.0, pts[40], np.nextafter(pts[5], 0.0),
          pts[5], 0.5 * (pts[5] + pts[6]), 0.5 * (pts[40] + pts[41]), pts[0], pts[-1]]
    f = sample(bump(0.3, 1.4), space512)
    f = f.with_values(np.stack([f.values, gaussian(-0.4, 0.3)(space512.points) * 1j]))
    rows = _cut_rows(0.5, f, [[t] for t in ts], freq512, "dunkl")
    spec = dunkl(0.5, f, freq512, route="direct")
    for t, row in zip(ts, np.moveaxis(rows, -2, 0)):
        keep = np.abs(freq512.points) <= t
        # the inverse is the direct-route forward transform, reflected
        ref = dunkl(0.5, spec.with_values(np.where(keep, spec.values, 0.0)), space512,
                    route="direct").values[..., ::-1]
        assert np.max(np.abs(row - ref)) <= 1e-9
    # the on-node cut keeps its node, the cut just below it does not
    assert np.max(np.abs(rows[:, 4] - rows[:, 3])) > 1e-6


def test_zero_function(space512, freq512):
    z = sample(lambda x: np.zeros_like(np.asarray(x, float)), space512)
    out = dunkl_partial_sum(0.0, z, 1.0, freq512)
    assert np.max(np.abs(out.values)) == 0.0


def test_band_limit_recovers_f(space_hi, freq_hi, corpus_hi):
    f = sample(corpus_hi[1].fn, space_hi)
    for alpha in (0.0, 1.0):
        s = dunkl_partial_sum(alpha, f, freq_hi.hi * 0.999, freq_hi)
        nf = l2_weighted(f.values, space_hi, alpha)
        assert l2_weighted(s.values - f.values, space_hi, alpha) / nf <= 1e-5


def test_band_exceeded_raises(space512, freq512, one_bump):
    with pytest.raises(ResolutionError):
        dunkl_partial_sum(0.0, one_bump, freq512.hi * 2.0, freq512)


def test_partial_sums_name_the_domain_they_need(space512, freq512, one_bump):
    prof = sample(bump(1.2, 0.9), space512.positive_half(), HALF_LINE)
    with pytest.raises(ArgumentError, match="dunkl partial sums need a full-line function"):
        dunkl_partial_sum(0.0, prof, 1.0, freq512)
    with pytest.raises(ArgumentError, match="hankel partial sums need a half-line function"):
        hankel_partial_sum(0.0, one_bump, 1.0, freq512.positive_half())


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_projection_algebra(alpha, space512, freq512, one_bump):
    # the cut list [t, s] masks by the product of both cuts: P_t P_s = P_min
    pairs = [(s, t) for s in TS for t in TS]
    rows = _cut_rows(alpha, one_bump, [[t, s] for s, t in pairs], freq512, "dunkl")
    for (s, t), st in zip(pairs, rows):
        mn = dunkl_partial_sum(alpha, one_bump, min(s, t), freq512)
        assert np.max(np.abs(st - mn.values)) <= 1e-8


def test_idempotence(space512, freq512, one_bump):
    st = _cut_rows(0.5, one_bump, [[2.0, 2.0]], freq512, "dunkl")[0]
    s1 = dunkl_partial_sum(0.5, one_bump, 2.0, freq512)
    assert np.max(np.abs(st - s1.values)) <= 1e-8


@pytest.mark.parametrize("alpha,member", [
    pytest.param(0.0, "real", id="0.0"),
    pytest.param(1.0, "real", id="1.0"),
    pytest.param(2.5, "real", id="2.5"),
    pytest.param(0.0, "complex", id="0.0-complex"),
    pytest.param(2.5, "complex", id="2.5-complex"),
])
def test_two_route_partial_sum(alpha, member, freq512, one_bump):
    # reference: mask the full-line spectrum of the direct route, which
    # never splits f by parity
    f = one_bump
    if member == "complex":
        f = f.with_values(f.values + 1j * gaussian(-0.4, 0.3)(f.grid.points))
    spec = dunkl(alpha, f, freq512, route="direct")
    for t in (0.5, 4.0):
        cut = spec.with_values(np.where(np.abs(freq512.points) <= t, spec.values, 0.0))
        ref = dunkl(alpha, cut, f.grid, route="direct").values[..., ::-1]   # the inverse
        s1 = dunkl_partial_sum(alpha, f, t, freq512)
        assert np.max(np.abs(s1.values - ref)) <= 1e-9


def test_family_resolution_guard(freq512):
    # the space grid resolves the whole frequency band, but reaches past
    # what the frequency grid resolves: the inverse must refuse, not alias
    wide = make_graded_grid(-6.0, 6.0, 16, 32, 1.0)
    f = sample(bump(0.3, 1.4), wide)
    assert resolvable_frequency(wide) > freq512.hi
    assert wide.hi > resolvable_frequency(freq512.positive_half())
    with pytest.raises(ResolutionError):
        build_family(0.0, f, ThresholdSeq(np.array([0.5, 1.0])), freq512)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_parity_decomposition(alpha, space512, freq512, corpus512):
    f = sample(corpus512[1].fn, space512)
    half_freq = freq512.positive_half()
    half = space512.positive_half()
    fe, fo = even_odd_split(f)
    foy = fo.with_values(fo.values / fo.grid.points)
    for t in TS:
        full = dunkl_partial_sum(alpha, f, t, freq512)
        se = hankel_partial_sum(alpha, fe, t, half_freq)
        so = hankel_partial_sum(alpha + 1.0, foy, t, half_freq)
        rec = np.concatenate([(se.values - half.points * so.values)[::-1],
                              se.values + half.points * so.values])
        assert np.max(np.abs(full.values - rec)) <= 1e-8


def test_dirichlet_kernel_cross_check(space512):
    # frequency panels aligned with the cuts make the node mask an exact
    # realization of the integral over [-t, t]
    bk = sorted(set(np.linspace(0, 40, 41)) | {0.5, 1.5})
    half = make_breakpoint_grid(bk, 32)
    pts = np.concatenate([-half.points[::-1], half.points])
    wts = np.concatenate([half.weights[::-1], half.weights])
    edges = np.concatenate([-half.panel_edges[::-1], half.panel_edges[1:]])
    freq = Grid(pts, wts, -40.0, 40.0, edges)
    f = sample(bump(0.3, 1.4), space512)
    x = space512.points
    for t in (1.0, 2.0, 4.0):
        s = fourier_partial_sum(f, t, freq)
        kern = (t / np.pi) * np.sinc(t * (x[:, None] - x[None, :]) / np.pi)
        ref = kern @ (space512.weights * f.values)
        assert np.max(np.abs(s.values - ref)) <= 1e-7


def test_radial_reduction_n1(space_hi, freq_hi):
    # n = 1: the radial partial sum is the even-extension Fourier partial sum
    half = space_hi.positive_half()
    prof = sample(bump(1.2, 0.9), half, HALF_LINE)
    even = sample(lambda x: bump(1.2, 0.9)(np.abs(np.asarray(x, float))), space_hi)
    for t in (1.0, 3.0):
        r = radial_partial_sum(1, prof, t, freq_hi.positive_half())
        fsum = fourier_partial_sum(even, t, freq_hi)
        m = space_hi.n // 2
        assert np.max(np.abs(r.values - fsum.values[m:])) <= 1e-8


def test_radial_projection_property(space512, freq512):
    # n = 3: ball cuts compose as projections, S_s S_t = S_min
    half = space512.positive_half()
    half_freq = freq512.positive_half()
    prof = sample(bump(1.2, 0.9), half, HALF_LINE)
    alpha = (3 - 2) / 2.0
    for s, t in [(1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]:
        st = _cut_rows(alpha, prof, [[t, s]], half_freq, "hankel")[0]
        mn = radial_partial_sum(3, prof, min(s, t), half_freq)
        assert np.max(np.abs(st - mn.values)) <= 1e-8
    fam_t = ThresholdSeq(np.array([1.0, 2.0]))
    fam = build_family(alpha, prof, fam_t, half_freq)
    one = hankel_partial_sum(alpha, prof, 1.0, half_freq)
    assert np.max(np.abs(fam.values[0] - one.values)) <= 1e-12


def test_family_shape_and_consistency(space512, freq512, one_bump):
    tg = ThresholdSeq(np.union1d(np.geomspace(0.06, 20.0, 40), 2.0 ** np.arange(-4, 5)))
    fam = build_family(0.0, one_bump, tg, freq512)
    assert fam.values.shape == (len(tg), space512.n)
    i = 17
    one = dunkl_partial_sum(0.0, one_bump, tg.values[i], freq512)
    assert np.max(np.abs(fam.values[i] - one.values)) <= 1e-12
    # L2 contractivity and monotonicity
    norms = [l2_weighted(fam.values[k], space512, 0.0) for k in range(len(tg))]
    nf = l2_weighted(one_bump.values, space512, 0.0)
    assert max(norms) <= nf * (1.0 + 1e-6)
    assert np.all(np.diff(norms) >= -1e-8)
    # largest threshold lies nearest to f in L2
    dists = [l2_weighted(fam.values[k] - one_bump.values, space512, 0.0)
             for k in range(len(tg))]
    assert np.argmin(dists) == len(tg) - 1


def test_family_csv(tmp_path, freq512, one_bump):
    tg = ThresholdSeq(np.array([0.5, 1.0, 2.0]))
    fam = build_family(0.0, one_bump, tg, freq512)
    path = tmp_path / "fam.csv"
    family_to_csv(str(path), fam)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("x,0.5,1,2")
    assert len(lines) == 1 + one_bump.grid.n
    # a pathlib.Path writes the same file as its str
    family_to_csv(tmp_path / "fam2.csv", fam)
    assert (tmp_path / "fam2.csv").read_text() == path.read_text()


def test_family_csv_refuses_a_stack(tmp_path, space512, freq512, corpus512):
    # a stacked family has no one matrix to write
    tg = ThresholdSeq(np.array([0.5, 1.0, 2.0]))
    stack = stack_of(corpus512[:2], space512)
    fam = build_family(0.0, stack, tg, freq512)
    with pytest.raises(ArgumentError):
        family_to_csv(tmp_path / "stack.csv", fam)
    assert not (tmp_path / "stack.csv").exists()


@pytest.mark.parametrize("kind", ["dunkl", "hankel"])
@pytest.mark.parametrize("members", [1, 2])
def test_stacked_family_equals_member_families(kind, members, res512, space512, freq512,
                                                corpus512):
    """build_family of a (B, N) stack at N=512 gives the (B, T, N) rows of
    the member families, to 1e-14 of their max-abs, and its max_abs the
    members' max_abs."""
    full = stack_of(corpus512[1:1 + members], space512)
    f, freq = (full, freq512) if kind == "dunkl" else (even_odd_split(full)[0],
                                                       freq512.positive_half())
    tg = ThresholdSeq(np.union1d(default_t_grid(freq512).values, 2.0 ** np.arange(-4, 5)))
    fam = build_family(1.0, f, tg, freq)
    assert fam.values.shape == (members, len(tg), f.grid.n)
    assert fam.max_abs().values.shape == (members, f.grid.n)
    for b in range(members):
        one = build_family(1.0, f.with_values(f.values[b]), tg, freq)
        scale = np.max(np.abs(one.values))
        assert np.max(np.abs(fam.values[b] - one.values)) <= 1e-14 * scale
        assert np.max(np.abs(fam.max_abs().values[b] - one.max_abs().values)) <= 1e-14 * scale


def test_family_shape_follows_its_base(freq512, one_bump):
    tg = ThresholdSeq(np.array([0.5, 1.0]))
    rows = build_family(0.0, one_bump, tg, freq512).values
    stack = one_bump.with_values(np.stack([one_bump.values] * 2))
    with pytest.raises(ArgumentError):
        PartialSumFamily(stack, tg, rows)
    with pytest.raises(ArgumentError):
        PartialSumFamily(one_bump, tg, np.stack([rows] * 2))
    assert PartialSumFamily(stack, tg, np.stack([rows] * 2)).values.shape == (
        2, 2, one_bump.grid.n)


@pytest.mark.parametrize("kind", ["dunkl", "hankel"])
def test_cut_rows_stack_equals_one_list_calls(kind, space512, freq512, corpus512):
    """Many cut lists over a member stack give the rows of the one-list
    calls of each member, to 1e-14 of their max-abs; cut lists with equal
    masks give bitwise equal rows."""
    full = stack_of(corpus512[:3], space512)
    f, freq = (full, freq512) if kind == "dunkl" else (even_odd_split(full)[0],
                                                       freq512.positive_half())
    cut_lists = [[0.5], [2.0, 1.0], [4.0], [1.0, 4.0], [3.0, 0.7, 2.0], [4.0, 1.0]]
    rows = _cut_rows(0.0, f, cut_lists, freq, kind)
    assert rows.shape == (3, len(cut_lists), f.grid.n)
    for b in range(3):
        single = f.with_values(f.values[b])
        for i, ts in enumerate(cut_lists):
            one = _cut_rows(0.0, single, [ts], freq, kind)[0]
            assert np.max(np.abs(rows[b, i] - one)) <= 1e-14 * np.max(np.abs(one))
    assert np.array_equal(rows[:, 1], rows[:, 3]) and np.array_equal(rows[:, 1], rows[:, 5])


@pytest.mark.parametrize("kind", ["dunkl", "hankel"])
@pytest.mark.parametrize("members", [1, 2])
@pytest.mark.parametrize("dtype", [float, complex])
def test_families_are_c_ordered_in_their_input_dtype(kind, members, dtype, space512, freq512,
                                                     corpus512):
    full = stack_of(corpus512[:members], space512)
    full = full.with_values(full.values.astype(dtype))
    f, freq = (full, freq512) if kind == "dunkl" else (even_odd_split(full)[0],
                                                       freq512.positive_half())
    fam = build_family(0.0, f, default_t_grid(freq512), freq)
    assert fam.values.flags.c_contiguous and fam.values.dtype == np.dtype(dtype)
    assert fam.max_abs().values.dtype == np.float64


@pytest.mark.parametrize("kind, calls", [("dunkl", 4), ("hankel", 2)])
def test_families_invert_through_transforms_hankel(kind, calls, monkeypatch, space512, freq512,
                                                   corpus512):
    # one forward and one inverse Hankel plan per parity, so the inverse
    # quadrature and its resolution guard have one owner
    full = stack_of(corpus512[:2], space512)
    f, freq = (full, freq512) if kind == "dunkl" else (even_odd_split(full)[0],
                                                       freq512.positive_half())
    seen, hankel = [], transforms._hankel_plan

    def counted(alpha, g, output_grid):
        seen.append(output_grid)
        return hankel(alpha, g, output_grid)

    monkeypatch.setattr(transforms, "_hankel_plan", counted)
    build_family(0.5, f, default_t_grid(freq512), freq)
    spectra, rows = freq512.positive_half(), f.grid.positive_half() if kind == "dunkl" else f.grid
    assert [g.key for g in seen] == [spectra.key] * (calls // 2) + [rows.key] * (calls // 2)


def test_a_complex_member_makes_the_family_complex(space512, freq512, corpus512):
    # a stack with one complex member gives complex rows, each member's rows
    # equal to its lone family to 1e-14 of max|S_t f|
    members = [sample(m.fn, space512).values for m in corpus512[:2]]
    members.append(members[0] + 0.5j * members[1])
    stack = stack_of(corpus512[:1], space512).with_values(np.stack(members))
    tg = default_t_grid(freq512)
    fam = build_family(1.0, stack, tg, freq512)
    assert fam.values.dtype == np.complex128 and fam.values.flags.c_contiguous
    for b in range(3):
        one = build_family(1.0, stack.with_values(members[b]), tg, freq512)
        assert one.values.dtype == (np.complex128 if b == 2 else np.float64)
        assert np.max(np.abs(fam.values[b] - one.values)) <= 1e-14 * np.max(np.abs(one.values))
