import io

import numpy as np
import pytest

from dunkl_osc import (FULL_LINE, HALF_LINE, ArgumentError, Grid, Resolution, SampledFn,
                       SupGrid, ThresholdSeq, away_from_zero_corpus, bump, default_corpus,
                       dunkl, dunkl_partial_sum, even_odd_split, fourier, gaussian,
                       half_line_corpus, make_breakpoint_grid, make_graded_grid,
                       moment_cancelled_corpus, multiply_power, random_band_modes,
                       read_sampled_fn, sample, smooth_corpus, write_sampled_fn)
from dunkl_osc.funcspace import _mapped_side, assemble_values


def test_constant_integration_exact():
    g = make_graded_grid(0.0, 1.0, 8, 16, 2.0)
    assert g.n == 128
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), g, HALF_LINE)
    assert g.weights @ one.values == pytest.approx(1.0, abs=1e-14)


def test_inverse_sqrt_singularity():
    g = make_graded_grid(0.0, 1.0, 16, 16, 3.0)
    f = sample(lambda x: np.asarray(x, float) ** -0.5, g, HALF_LINE)
    assert g.weights @ f.values == pytest.approx(2.0, rel=1e-6)


def test_symmetric_grid_odd_function():
    g = make_graded_grid(-1.0, 1.0, 8, 16, 2.0)
    f = sample(lambda x: np.asarray(x, float), g, FULL_LINE)
    assert abs(g.weights @ f.values) < 1e-14
    assert g.is_symmetric


def test_bad_arguments():
    with pytest.raises(ArgumentError):
        make_graded_grid(1.0, 1.0, 4, 8)
    with pytest.raises(ArgumentError):
        make_graded_grid(0.0, 1.0, 4, 8, 0.5)


def test_grid_never_contains_zero():
    for gamma in (1.0, 2.0, 3.0):
        g = make_graded_grid(-2.0, 2.0, 6, 8, gamma)
        assert np.min(np.abs(g.points)) > 0.0


def test_integrate_bump_against_refined_oracle():
    g = make_graded_grid(-1.0, 1.0, 8, 16, 2.0)
    g4 = make_graded_grid(-1.0, 1.0, 32, 16, 2.0)
    f, f4 = sample(bump(0.0, 1.0), g), sample(bump(0.0, 1.0), g4)
    a, b = g.weights @ f.values, g4.weights @ f4.values
    assert a == pytest.approx(b, rel=1e-8)
    # frozen extended-precision value of the unit bump mass
    assert b == pytest.approx(0.4439938161680794378, rel=1e-10)


def test_refinement_convergence():
    # the bump's flat-but-nonanalytic support edge needs the default 32-node
    # panels for the doubling invariant to hold
    g1 = make_graded_grid(-2.0, 2.0, 8, 32, 2.0)
    g2 = make_graded_grid(-2.0, 2.0, 16, 32, 2.0)
    v1 = g1.weights @ sample(bump(0.2, 1.1), g1).values
    v2 = g2.weights @ sample(bump(0.2, 1.1), g2).values
    assert abs(v1 - v2) <= 1e-10 * abs(v2)


def test_even_odd_split_parity():
    g = make_graded_grid(-2.0, 2.0, 8, 16, 1.0)
    x2 = sample(lambda x: np.asarray(x, float) ** 2, g)
    fe, fo = even_odd_split(x2)
    assert np.max(np.abs(fo.values)) == 0.0
    assert np.max(np.abs(fe.values - fe.grid.points ** 2)) < 1e-14
    x3 = sample(lambda x: np.asarray(x, float) ** 3, g)
    fe3, fo3 = even_odd_split(x3)
    assert np.max(np.abs(fe3.values)) <= 2 * np.finfo(float).eps * 8.0
    mix = sample(lambda x: np.exp(-np.asarray(x, float) ** 2) * (1 + np.asarray(x, float)), g)
    fe_m, fo_m = even_odd_split(mix)
    y = fe_m.grid.points
    assert np.max(np.abs(fe_m.values - np.exp(-y ** 2))) < 1e-15
    assert np.max(np.abs(fo_m.values - y * np.exp(-y ** 2))) < 1e-15


def test_split_reconstruction_roundtrip():
    g = make_graded_grid(-2.0, 2.0, 8, 16, 1.0)
    f = sample(lambda x: np.exp(1j * np.asarray(x, float)) * bump(0.3, 1.2)(x), g)
    fe, fo = even_odd_split(f)
    back = f.with_values(assemble_values(fe.values, fo.values))
    assert np.max(np.abs(back.values - f.values)) <= 4 * np.finfo(float).eps
    # the array-level reassembly acts on the last axis of a stack row by row
    stack = assemble_values(np.stack([fe.values, 2 * fe.values]),
                            np.stack([fo.values, 2 * fo.values]))
    assert np.array_equal(stack[0], back.values)
    assert np.array_equal(stack[1], assemble_values(2 * fe.values, 2 * fo.values))


def test_positive_half_built_once():
    g = make_graded_grid(-2.0, 2.0, 4, 8, 1.0)
    assert g.positive_half() is g.positive_half()
    assert "_half" not in repr(g)


def test_a_node_at_zero_has_no_positive_half():
    # a symmetric grid with an odd node count: every parity split names the
    # cause, and fourier, which folds the node at 0 in once, still serves it
    g = Grid(np.arange(-4, 5) * (2.0 / 9.0), np.full(9, 2.0 / 9.0), -1.0, 1.0)
    assert g.is_symmetric
    f = sample(bump(0.2, 0.7), g, FULL_LINE)
    freq = make_graded_grid(-4.0, 4.0, 2, 8, 1.0)
    for call in (g.positive_half, lambda: even_odd_split(f),
                 lambda: dunkl(0.5, f, freq), lambda: dunkl(0.5, f, freq, route="direct"),
                 lambda: dunkl_partial_sum(0.5, f, 2.0, freq)):
        with pytest.raises(ArgumentError, match="node at 0"):
            call()
    assert np.isfinite(fourier(f, freq).values).all()


def test_even_odd_requires_symmetry():
    g = make_graded_grid(0.0, 1.0, 4, 8)
    f = sample(lambda x: np.asarray(x, float), g, FULL_LINE)
    with pytest.raises(ArgumentError):
        even_odd_split(f)


def test_multiply_power():
    g = make_graded_grid(1.0, 2.0, 4, 8)
    f = sample(lambda x: np.ones_like(np.asarray(x, float)), g, HALF_LINE)
    m = multiply_power(f, 1.0)
    assert np.max(np.abs(m.values - g.points)) < 1e-15
    assert multiply_power(f, 0.0) is f
    roundtrip = multiply_power(multiply_power(f, -0.7), 0.7)
    assert np.max(np.abs(roundtrip.values - f.values)) < 4 * np.finfo(float).eps
    comp = multiply_power(multiply_power(f, 0.3), 0.4)
    direct = multiply_power(f, 0.7)
    assert np.max(np.abs(comp.values - direct.values)) <= \
        2 * np.finfo(float).eps * np.max(np.abs(direct.values))


def test_bump_values():
    b = bump(0.0, 1.0)
    assert b(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0), abs=1e-16)
    assert b(np.array([1.0]))[0] == 0.0
    assert b(np.array([-1.0]))[0] == 0.0
    b2 = bump(3.0, 2.0)
    x = np.linspace(-1, 7, 401)
    supp = x[np.nonzero(b2(x))[0]]
    assert supp.min() > 1.0 and supp.max() < 5.0


def test_gaussian_truncation():
    g = gaussian(0.0, 0.1)
    assert g(np.array([1.3]))[0] == 0.0
    assert g(np.array([0.0]))[0] == 1.0


@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2**128"])
def test_random_band_modes_refuses_a_seed_outside_the_key_range(seed):
    with pytest.raises(ArgumentError, match="seed"):
        random_band_modes(seed)
    # the ends of the range are keys
    for ok in (0, 2 ** 128 - 1):
        assert np.isfinite(random_band_modes(ok)(np.array([0.0, 0.1]))).all()


def test_csv_roundtrip():
    g = make_graded_grid(-2.0, 2.0, 4, 8, 1.0)
    f = sample(lambda x: np.exp(1j * np.asarray(x, float)) * bump(0.0, 1.5)(x), g)
    buf = io.StringIO()
    write_sampled_fn(buf, f)
    buf.seek(0)
    head = buf.readline()
    assert head.startswith("# dunkl-osc sampledfn v2 domain=full")
    buf.seek(0)
    back = read_sampled_fn(buf)
    assert back.domain_tag == FULL_LINE
    assert np.max(np.abs(back.values - f.values)) == 0.0
    assert np.max(np.abs(back.grid.points - g.points)) == 0.0
    # the header carries the panel structure exactly
    assert np.array_equal(back.grid.panel_edges, g.panel_edges)


def test_csv_roundtrip_keeps_a_real_function_real():
    # an all-zero im column reads back as float64, bit for bit; one nonzero
    # im entry keeps the function complex128
    g = make_graded_grid(-2.0, 2.0, 4, 8, 1.0)
    real = sample(bump(0.3, 1.4), g)
    cplx = real.with_values(real.values + 1j * (g.points == g.points[3]))
    for f, dtype in ((real, np.float64), (cplx, np.complex128)):
        buf = io.StringIO()
        write_sampled_fn(buf, f)
        buf.seek(0)
        back = read_sampled_fn(buf)
        assert back.values.dtype == dtype
        assert back.values.tobytes() == f.values.tobytes()


ROUNDTRIP_GRIDS = {
    "full-graded-3": lambda: make_graded_grid(-2.0, 2.0, 6, 8, 3.0),
    "half-graded-2": lambda: make_graded_grid(0.0, 2.0, 6, 8, 2.0),
    "from-0.2": lambda: make_graded_grid(0.2, 2.0, 5, 8),
    "lopsided": lambda: make_graded_grid(-1.0, 3.0, 6, 8, 2.0),
    "default-resolution": lambda: Resolution(24).space_grid(),
    "breakpoints": lambda: make_breakpoint_grid([-1.3, -0.2, 0.0, 0.7, 2.9], 12),
    "no-edges": lambda: Grid(np.array([-0.5, 0.25, 0.5]), np.array([0.75, 0.75, 0.5]), -1.0, 1.0),
}


@pytest.mark.parametrize("name", list(ROUNDTRIP_GRIDS))
def test_csv_roundtrip_keeps_the_grid_exactly(name):
    # support, panel edges and so the grid key (the kernel-cache key) read back bit for bit
    g = ROUNDTRIP_GRIDS[name]()
    tag = HALF_LINE if g.lo >= 0.0 else FULL_LINE
    f = sample(lambda x: np.exp(1j * np.asarray(x)) / (1.0 + np.asarray(x) ** 2), g, tag)
    buf = io.StringIO()
    write_sampled_fn(buf, f)
    buf.seek(0)
    back = read_sampled_fn(buf)
    assert back.grid.key == g.key and back.domain_tag == tag
    assert (back.grid.lo, back.grid.hi) == (g.lo, g.hi)
    if g.panel_edges is None:
        assert back.grid.panel_edges is None
    else:
        assert np.array_equal(back.grid.panel_edges, g.panel_edges)
    assert np.array_equal(back.grid.weights, g.weights)
    assert np.array_equal(back.values, f.values)


def test_csv_refuses_a_stack():
    g = make_graded_grid(-1.0, 1.0, 2, 4)
    stack = SampledFn(g, np.ones((2, g.n)))
    buf = io.StringIO()
    with pytest.raises(ArgumentError):
        write_sampled_fn(buf, stack)
    assert buf.getvalue() == ""


def _mapped_side_loop(span, n_panels, nodes, grading):
    # per-panel reference for the vectorised _mapped_side
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    bnd = np.arange(n_panels + 1) / n_panels
    edges = span * bnd ** grading
    xs, ws = [], []
    for k in range(n_panels):
        a, b = bnd[k], bnd[k + 1]
        u = (a + b) / 2.0 + (b - a) / 2.0 * gl_x
        w = (b - a) / 2.0 * gl_w * span * grading * u ** (grading - 1.0)
        w *= (edges[k + 1] - edges[k]) / w.sum()
        xs.append(span * u ** grading)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws), edges


@pytest.mark.parametrize("span,n_panels,nodes,grading",
                         [(3.0, 24, 32, 1.0), (1.0, 12, 8, 7.0), (1.0, 48, 8, 60.0),
                          (12.0, 57, 32, 1.0), (2.3, 5, 16, 2.5)])
def test_mapped_side_matches_panel_loop(span, n_panels, nodes, grading):
    for got, ref in zip(_mapped_side(span, n_panels, nodes, grading),
                        _mapped_side_loop(span, n_panels, nodes, grading)):
        assert np.array_equal(got, ref)


def test_csv_roundtrip_through_pathlib(tmp_path):
    g = make_graded_grid(0.0, 2.0, 4, 8, 1.0)
    f = sample(bump(1.0, 0.8), g, HALF_LINE)
    path = tmp_path / "f.csv"
    write_sampled_fn(path, f)
    back = read_sampled_fn(path)
    assert back.domain_tag == HALF_LINE
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.grid.points, g.points)


def test_grid_leaves_the_callers_arrays_alone():
    pts, wts, edges = np.array([-0.5, 0.5]), np.array([1.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    g = Grid(pts, wts, -1.0, 1.0, edges)
    pts[0], wts[0], edges[0] = -0.75, 2.0, -2.0   # still writeable
    assert g.points.tolist() == [-0.5, 0.5] and g.weights.tolist() == [1.0, 1.0]
    assert g.panel_edges.tolist() == [-1.0, 0.0, 1.0]
    assert not (g.points.flags.writeable or g.weights.flags.writeable
                or g.panel_edges.flags.writeable)


@pytest.mark.parametrize("pts,wts,edges", [
    ([-0.5, 0.5], [1.5, 0.5], [-1.0, 0.0, 1.0]),      # the total is right, each panel is not
    ([-0.5, 0.5], [1.0, 1.0], [-1.0, 0.25, 1.0]),     # an edge off the panel boundary
    ([-0.5, 0.5], [1.0, 1.0], [-2.0, 0.0, 1.0]),      # edges that do not start at lo
    ([-0.5, 0.5], [1.0, 1.0], [-1.0, 0.0, 0.75]),     # ... or end at hi, a node beyond
])
def test_grid_panel_edges_must_match_its_weights(pts, wts, edges):
    with pytest.raises(ArgumentError, match="panel edges"):
        Grid(np.array(pts), np.array(wts), -1.0, 1.0, np.array(edges))


def test_sampled_fn_leaves_the_callers_array_alone():
    g = make_graded_grid(-1.0, 1.0, 2, 4)
    vals = np.ones(g.n, dtype=complex)
    f = SampledFn(g, vals)
    vals[0] = 5.0
    assert np.all(f.values == 1.0) and not f.values.flags.writeable


def test_sup_grid_leaves_the_callers_arrays_alone():
    r, q = np.array([2.0, 1.0]), np.array([0.0])
    sup = SupGrid(r, q)
    r[0], q[0] = 3.0, 1.0
    assert sup.radii.tolist() == [2.0, 1.0] and sup.frequencies.tolist() == [0.0]
    assert not (sup.radii.flags.writeable or sup.frequencies.flags.writeable)


def test_threshold_seq_leaves_the_callers_array_alone():
    v = np.array([1.0, 2.0])
    seq = ThresholdSeq(v)
    v[0] = 0.5
    assert seq.values.tolist() == [1.0, 2.0] and not seq.values.flags.writeable


def test_moment_cancelled_members_kill_moments():
    g = make_graded_grid(-5.0, 5.0, 16, 32, 1.0)
    members = moment_cancelled_corpus(g)
    half = g.positive_half()
    y, w = half.points, half.weights
    fe = sample(members[0].fn, g).values[g.n // 2:].real
    for p in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        assert abs(np.sum(w * y ** p * fe)) < 1e-9 * np.max(np.abs(fe))


def test_grid_invariant_enforced():
    pts = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ArgumentError):
        Grid(pts, np.array([0.1, 0.1, 0.1]), 0.0, 1.0)  # weights sum != length


def test_grid_rejects_non_finite():
    w = np.array([0.2, 0.6, 0.2])
    with pytest.raises(ArgumentError):
        Grid(np.array([0.2, np.nan, 0.8]), w, 0.0, 1.0)
    with pytest.raises(ArgumentError):
        Grid(np.array([0.2, 0.5, 0.8]), np.array([0.2, np.inf, 0.2]), 0.0, 1.0)
    with pytest.raises(ArgumentError):
        Grid(np.array([0.2, 0.5, 0.8]), w, -np.inf, 1.0)


def test_grid_rejects_malformed_panel_edges():
    pts, w = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    for edges in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0], [0.0, np.nan, 1.0], [0.5],
                  [[0.0, 0.5, 1.0]]):
        with pytest.raises(ArgumentError, match="panel edges"):
            Grid(pts, w, 0.0, 1.0, np.array(edges))
    assert Grid(pts, w, 0.0, 1.0, np.array([0.0, 0.5, 1.0])).panel_edges.size == 3


def test_sampled_fn_rejects_non_finite():
    g = make_graded_grid(-1.0, 1.0, 2, 4)
    vals = np.ones(g.n, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ArgumentError):
        SampledFn(g, vals)
    vals[3] = complex(1.0, np.inf)
    with pytest.raises(ArgumentError):
        SampledFn(g, vals)


def test_multiply_power_origin_rule():
    from dunkl_osc import DomainError
    g = Grid(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]), -1.5, 1.5)
    ok = SampledFn(g, np.array([1.0, 0.0, 1.0], dtype=complex))
    out = multiply_power(ok, -0.5)
    assert out.values[1] == 0.0 and np.isfinite(out.values).all()
    bad = SampledFn(g, np.array([1.0, 2.0, 1.0], dtype=complex))
    with pytest.raises(DomainError):
        multiply_power(bad, -0.5)


def test_sampled_fn_stacks_on_the_last_axis():
    g = make_graded_grid(-1.0, 1.0, 2, 4)
    rng = np.random.Generator(np.random.Philox(key=5))
    vals = rng.standard_normal((2, 3, g.n)) + 1j * rng.standard_normal((2, 3, g.n))
    stack = SampledFn(g, vals)
    fe, fo = even_odd_split(stack)
    one_e, one_o = even_odd_split(SampledFn(g, vals[1, 2]))
    assert np.array_equal(fe.values[1, 2], one_e.values)
    assert np.array_equal(fo.values[1, 2], one_o.values)
    for bad in (np.ones((g.n, 3)), np.ones((3, g.n + 1)), np.ones(())):
        with pytest.raises(ArgumentError):
            SampledFn(g, bad)


def test_sampled_fn_sum_and_difference_need_one_grid():
    # same node count, so only the grid check stands between the operands
    g, wide = make_graded_grid(-1.0, 1.0, 2, 4), make_graded_grid(-2.0, 2.0, 2, 4)
    f = sample(np.cos, g)
    assert np.array_equal((f - sample(np.sin, make_graded_grid(-1.0, 1.0, 2, 4))).values,
                          f.values - np.sin(g.points))
    for op in (f.__add__, f.__sub__):
        with pytest.raises(ArgumentError):
            op(sample(np.cos, wide))


def test_sampling_keeps_real_members_real():
    # float64 unless the function returns complex values; a corpus member
    # accumulates in its coefficients' dtype, so only "complex mix" is complex
    g = make_graded_grid(-3.0, 3.0, 2, 8)
    assert sample(bump(0.3, 1.4), g).values.dtype == np.float64
    assert sample(lambda x: np.exp(1j * x), g).values.dtype == np.complex128
    real = default_corpus(7) + smooth_corpus(7) + half_line_corpus(7)
    for m in real + away_from_zero_corpus(7):
        want = np.complex128 if m.label == "complex mix" else np.float64
        assert m.fn(g.points).dtype == sample(m.fn, g).values.dtype == want, m.label
