import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dunkl_osc import (HALF_LINE, ArgumentError, Grid, Resolution, ResolutionError, SampledFn,
                       build_family, bump, default_t_grid, dunkl,
                       dunkl_inverse, dunkl_modified, dunkl_modified_inverse,
                       even_odd_split, fourier, fourier_inverse, frequency_grid,
                       gaussian, hankel, hankel_partial_sum,
                       hankel_modified, make_breakpoint_grid, make_graded_grid,
                       multiply_power, resolution_n512, run_identity_suite,
                       sample, transforms, transplant_dunkl)
from dunkl_osc.special import _ladder, bessel_j_normalized
from conftest import l2_weighted, stack_of

ALPHAS = [-0.5, 0.0, 0.5, 1.0]


@pytest.fixture(scope="module")
def wide_half():
    return make_graded_grid(0.0, 12.0, 24, 32, 1.0)


def test_fourier_gaussian_self_reciprocal():
    g = make_graded_grid(-12.0, 12.0, 12, 32, 1.0)
    f = sample(lambda x: np.exp(-np.asarray(x, float) ** 2 / 2), g)
    out = fourier(f, g)
    ref = np.exp(-g.points ** 2 / 2)
    sel = np.abs(g.points) < 3.0
    assert np.max(np.abs(out.values - ref)[sel]) < 1e-7 * np.max(ref)


def test_fourier_zero():
    g = make_graded_grid(-2.0, 2.0, 4, 16, 1.0)
    z = sample(lambda x: np.zeros_like(np.asarray(x, float)), g)
    assert np.max(np.abs(fourier(z, g).values)) == 0.0


def test_fourier_indicator():
    # panel edges at +-1 so the indicator is exact for the quadrature; the
    # output grid's single-node panels put evaluation points exactly at 1,2,3
    g = make_breakpoint_grid(np.linspace(-2, 2, 17), 24)
    f = sample(lambda x: (np.abs(np.asarray(x, float)) <= 1.0).astype(float), g)
    out_grid = make_breakpoint_grid([0.5, 1.5, 2.5, 3.5], 1)
    assert out_grid.points.tolist() == [1.0, 2.0, 3.0]
    vals = fourier(f, out_grid)
    x = out_grid.points
    ref = np.sqrt(2 / np.pi) * np.sin(x) / x
    assert np.max(np.abs(vals.values - ref)) < 1e-6


@pytest.mark.parametrize("alpha", ALPHAS)
def test_hankel_gaussian_fixed_point(alpha, wide_half):
    f = sample(lambda y: np.exp(-np.asarray(y, float) ** 2 / 2), wide_half, HALF_LINE)
    out = hankel(alpha, f, wide_half)
    ref = np.exp(-wide_half.points ** 2 / 2)
    sel = wide_half.points < 3.0
    assert np.max(np.abs(out.values - ref)[sel]) < 1e-6 * np.max(ref)


def test_hankel_cosine_reduction(wide_half):
    f = sample(gaussian(4.0, 0.5), wide_half, HALF_LINE)
    out = hankel(-0.5, f, wide_half)
    x = wide_half.points
    ref = np.array([np.sum(wide_half.weights * f.values.real
                           * np.sqrt(2 / np.pi) * np.cos(xx * x)) for xx in x])
    assert np.max(np.abs(out.values - ref)) < 1e-9


def test_hankel_modified_closed_form():
    g = make_breakpoint_grid(np.linspace(0, 1, 17), 16)
    f = sample(lambda y: np.ones_like(np.asarray(y, float)), g, HALF_LINE)
    out_grid = make_breakpoint_grid([0.5, 1.5, 2.5, 4.0], 8)
    out = hankel_modified(0.5, f, out_grid)
    x = out_grid.points
    ref = np.sqrt(2 / np.pi) * (1 - np.cos(x)) / x
    assert np.max(np.abs(out.values - ref)) < 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.5])
def test_hankel_modified_conjugation_identity(alpha):
    g = make_graded_grid(0.0, 3.0, 8, 32, 1.0)
    f = sample(bump(1.5, 1.2), g, HALF_LINE)
    out_grid = make_graded_grid(0.0, 20.0, 12, 32, 1.0)
    lhs = hankel_modified(alpha, f, out_grid)
    lifted = multiply_power(f, -(alpha + 0.5))
    rhs = multiply_power(hankel(alpha, multiply_power(f, -(alpha + 0.5)), out_grid), 0.0)
    via = hankel(alpha, lifted, out_grid)
    rhs_vals = out_grid.points ** (alpha + 0.5) * via.values
    assert np.max(np.abs(lhs.values - rhs_vals)) < 1e-10 * max(1, np.max(np.abs(lhs.values)))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_plancherel_and_inversion(alpha, space_hi, freq_hi, corpus_hi):
    for m in corpus_hi[:4]:
        f = sample(m.fn, space_hi)
        nf = l2_weighted(f.values, space_hi, alpha)
        spec = dunkl(alpha, f, freq_hi)
        assert abs(l2_weighted(spec.values, freq_hi, alpha) / nf - 1.0) <= 1e-6
        back = dunkl_inverse(alpha, spec, space_hi)
        assert l2_weighted(back.values - f.values, space_hi, alpha) / nf <= 1e-6


def test_fourier_reduction_nodewise(space512, freq512, corpus512):
    for m in corpus512[:3]:
        f = sample(m.fn, space512)
        d, f = dunkl(-0.5, f, freq512), fourier(f, freq512)
        assert np.max(np.abs(d.values - f.values)) <= 1e-9


def test_even_function_real_transform(space512, freq512):
    f = sample(bump(0.0, 1.4), space512)
    out = dunkl(1.0, f, freq512)
    assert np.max(np.abs(out.values.imag)) <= 1e-12
    rev = out.values[::-1]
    assert np.max(np.abs(out.values - rev)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_two_route_agreement(alpha, space512, freq512, corpus512):
    f = sample(corpus512[1].fn, space512)
    d1 = dunkl(alpha, f, freq512, route="decomposition")
    d2 = dunkl(alpha, f, freq512, route="direct")
    assert np.max(np.abs(d1.values - d2.values)) <= 1e-9


def test_linearity(space512, freq512, corpus512):
    f, g = sample(corpus512[0].fn, space512), sample(corpus512[7].fn, space512)
    a, b = 1.3 - 0.2j, -0.8j
    lhs = dunkl(0.5, (a * f) + (b * g), freq512)
    rhs = a * dunkl(0.5, f, freq512) + b * dunkl(0.5, g, freq512)
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) <= 64 * np.finfo(float).eps * scale


@pytest.mark.parametrize("alpha", ALPHAS)
def test_modified_dunkl_plancherel_flat(alpha, space_hi, freq_hi):
    f = sample(lambda x: bump(1.5, 1.2)(x) + 1j * bump(-1.4, 1.1)(x), space_hi)
    spec = dunkl_modified(alpha, f, freq_hi)
    assert abs(l2_weighted(spec.values, freq_hi, -0.5)
               / l2_weighted(f.values, space_hi, -0.5) - 1.0) <= 1e-6
    back = dunkl_modified_inverse(alpha, spec, space_hi)
    assert (l2_weighted(back.values - f.values, space_hi, -0.5)
            / l2_weighted(f.values, space_hi, -0.5) <= 1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_conjugation_identity(alpha, space512, freq512):
    # kernel-level identity: holds at fp level at any resolution
    f = sample(bump(1.55, 1.25), space512)
    lhs = dunkl(alpha, f, freq512)
    lifted = f.with_values(f.values * np.abs(space512.points) ** (alpha + 0.5))
    mid = dunkl_modified(alpha, lifted, freq512)
    rhs = mid.values * np.abs(freq512.points) ** (-(alpha + 0.5))
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-8


def test_transplant_identity(space_hi, freq_hi):
    f = sample(bump(1.5, 1.2), space_hi)
    for alpha in (-0.5, 0.3, 1.0):
        out = transplant_dunkl(alpha, alpha, f, freq_hi)
        nf = l2_weighted(f.values, space_hi, -0.5)
        assert l2_weighted(out.values - f.values, space_hi, -0.5) / nf <= 1e-6


def test_transplant_hankel_identity_and_even_reduction(space_hi, freq_hi):
    # the Hankel transplant H_a o H_g on the half line, as two hankel_modified calls
    half, half_freq = space_hi.positive_half(), freq_hi.positive_half()
    prof = sample(bump(1.5, 1.2), half, HALF_LINE)

    def transplant(a, g):
        return hankel_modified(a, hankel_modified(g, prof, half_freq), half)

    out = transplant(0.7, 0.7)
    nf = l2_weighted(prof.values, half, 0.0)
    assert l2_weighted(out.values - prof.values, half, 0.0) / nf <= 1e-6
    # even full-line transplant restricted to the half line
    even = sample(lambda x: bump(1.5, 1.2)(np.abs(np.asarray(x, float))), space_hi)
    t_full = transplant_dunkl(0.2, 0.9, even, freq_hi)
    t_half = transplant(0.2, 0.9)
    m = space_hi.n // 2
    assert np.max(np.abs(t_full.values[m:] - t_half.values)) <= 1e-8


def test_transplant_ratio_stable_under_refinement():
    vals = []
    for panels in (8, 16):
        g = make_graded_grid(-3.0, 3.0, panels, 32, 1.0)
        f = sample(bump(1.5, 1.2), g)
        out = transplant_dunkl(0.5, -0.5, f, frequency_grid(g))
        vals.append(l2_weighted(out.values, g, -0.5) / l2_weighted(f.values, g, -0.5))
    assert abs(vals[1] / vals[0] - 1.0) < 0.01


def test_resolution_guard(space512):
    f = sample(bump(0.0, 1.0), space512)
    too_fine = make_graded_grid(-400.0, 400.0, 4, 8, 1.0)
    with pytest.raises(ResolutionError):
        fourier(f, too_fine)


def test_frequency_grid_refuses_a_band_that_is_not_positive(space512):
    for bad in (0.0, -5.0):
        with pytest.raises(ArgumentError, match=r"^freq_max must be positive"):
            frequency_grid(space512, freq_max=bad)


def test_apply_real_matches_upcast_product():
    # mat acts along the last axis of v (a stack of k mats on the k leading
    # slices of v); the C-ordered result keeps v's dtype
    rng = np.random.Generator(np.random.Philox(key=3))
    mat = rng.standard_normal((40, 30))
    vector = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    stack = rng.standard_normal((7, 30)) + 1j * rng.standard_normal((7, 30))
    real = rng.standard_normal(30)
    real_stack = rng.standard_normal((2, 5, 30))
    transposed = rng.standard_normal((30, 40)).T   # a kernel served as a view
    for m in (mat, transposed, np.stack([mat, transposed])):
        for v in (vector, stack, real, real_stack):
            if m.ndim == 3:
                v = np.stack([v, 2.0 * v])
            ref = np.stack([vi @ mi.astype(complex).T for mi, vi in zip(m, v)]) \
                if m.ndim == 3 else v @ m.astype(complex).T
            out = transforms._apply_real(m, v)
            assert out.shape == ref.shape and out.dtype == v.dtype and out.flags.c_contiguous
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.linalg.norm(m) * np.linalg.norm(v)


def _ulps_of_max(got, want) -> float:
    """max |got - want|, in ulps of each member's max |want| (the last axis)."""
    scale = np.spacing(np.max(np.abs(want), axis=-1, keepdims=True))
    return float(np.max(np.abs(got - want) / scale, initial=0.0))


def test_apply_real_sends_no_all_zero_column_to_blas():
    """A zero member, the zero imaginary plane of a real spectrum and the
    zero real plane of an imaginary one come back exactly +0.0, for one
    matrix and for a (k, r, n) stack whose matrices see different zero
    columns; every other column equals its plain product within 4 ulp of
    its largest value (at most 2 seen on the Haswell, Nehalem, Prescott
    and SandyBridge kernels).  A NaN kernel shows that no column that is
    zero on every matrix reached the GEMM."""
    rng = np.random.Generator(np.random.Philox(key=5))
    mat = rng.standard_normal((40, 30))
    mats = np.stack([mat, rng.standard_normal((40, 30))])
    real = rng.standard_normal((3, 30))
    real[1] = 0.0   # a zero member
    for m in (mat, mats):
        for v in (real, real + 0j, 1j * real):   # real, zero imaginary plane, zero real plane
            if m.ndim == 3:
                v = np.stack([v, 2.0 * np.roll(v, 1, axis=0)])
            got = transforms._apply_real(m, v)
            assert got.dtype == v.dtype and got.flags.c_contiguous
            for g, plane in ((got.real, np.real(v)), (np.imag(got), np.imag(v))):
                w = plane @ m.swapaxes(-1, -2)
                zero = ~np.any(plane != 0.0, axis=-1)
                assert np.all(g[zero] == 0.0) and not np.any(np.signbit(g[zero]))
                assert _ulps_of_max(g[~zero], w[~zero]) <= 4.0
    v = np.stack([real, 0.0 * real]) + 0j   # v[1] is zero
    for nan in (np.full((4, 30), np.nan), np.full((2, 4, 30), np.nan)):
        out = transforms._apply_real(nan, v)
        span = (0, -1) if nan.ndim == 3 else (-1,)   # a stack's column spans its matrices
        dead = ~np.any(v.real != 0.0, axis=span, keepdims=True)
        assert np.all(out.imag == 0.0)
        assert np.all(np.where(dead, out.real == 0.0, np.isnan(out.real)))


def test_one_driver_call_equals_its_plans_made_alone(monkeypatch, space512, freq512,
                                                     corpus512):
    """transforms._run over several plans, which share kernels (a real and
    a complex stack on one j-kernel, and both parities of a Dunkl
    transform next to its direct route), applies each of its three
    kernels once and gives each plan's single-call result within 16 ulp of
    each member's largest value (at most 9 seen on the four kernels): a
    GEMM's column count moves the last bits of a sum."""
    half, half_freq = space512.positive_half(), freq512.positive_half()
    full = stack_of(corpus512[:3], space512)
    mixed = full.with_values(full.values + 0.5j * full.values[::-1])
    prof = even_odd_split(full)[0]
    plans = lambda: [transforms._hankel_plan(0.5, prof, half_freq),
                     transforms._hankel_plan(0.5, prof.with_values(1j * prof.values[0]), half_freq),
                     transforms._hankel_modified_plan(1.5, prof, half_freq),
                     transforms._dunkl_plan(0.5, mixed, freq512),
                     transforms._dunkl_plan(0.5, full, freq512, "direct"),
                     transforms._dunkl_modified_plan(0.5, mixed, freq512),
                     transforms._fourier_plan(full, freq512),
                     transforms._parts_plan(0.5, full, half_freq)]
    calls, real = [], transforms._apply_real
    monkeypatch.setattr(transforms, "_apply_real", lambda m, v: calls.append(m) or real(m, v))
    together = transforms._run(plans())
    assert len(calls) == 3
    alone = [transforms._run([p])[0] for p in plans()]
    for got, want in zip(together, alone):
        for g, w in zip(*((x if isinstance(x, tuple) else (x,)) for x in (got, want))):
            assert g.values.dtype == w.values.dtype and _ulps_of_max(g.values, w.values) <= 16.0
    assert len(calls) == 3 + 12


def test_direct_route_is_independent_of_parity_split(monkeypatch, space512, freq512,
                                                      one_bump):
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route must not use the parity split")

    monkeypatch.setattr(transforms, "_hankel_plan", refuse)
    monkeypatch.setattr(transforms, "even_odd_split", refuse)
    out = dunkl(1.0, one_bump, freq512, route="direct")
    assert out.grid is freq512 and np.max(np.abs(out.values)) > 0.0
    with pytest.raises(ArgumentError):
        dunkl(1.0, sample(bump(1.5, 1.2), space512.positive_half(), HALF_LINE),
              freq512, route="direct")
    lopsided = make_graded_grid(-2.0, 3.0, 8, 32)
    with pytest.raises(ArgumentError):
        dunkl(1.0, sample(bump(0.3, 1.4), lopsided), freq512, route="direct")


def test_kernel_cache_builds_each_key_once():
    """Eight threads, two keys: each key is built once, every thread gets
    the same array, and the two keys' builds overlap."""
    keys = [("cache-stress", k) for k in range(2)]
    started = {key: threading.Event() for key in keys}
    overlapped = {}
    calls = Counter()
    lock = threading.Lock()

    def builder(key):
        def build():
            with lock:
                calls[key] += 1
            started[key].set()
            other = keys[1 - key[1]]
            # blocks the whole timeout if builds of different keys serialize
            overlapped[key] = started[other].wait(timeout=10.0)
            return np.full(4, float(key[1]))
        return build

    results = [None] * 8
    barrier = threading.Barrier(8)

    def worker(i):
        key = keys[i % 2]
        barrier.wait(timeout=10.0)
        results[i] = (key, transforms._cached(key, builder(key)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old)
        with transforms._cache_lock:
            for key in keys:
                transforms._matrix_cache.pop(key, None)
    assert not any(t.is_alive() for t in threads)
    assert calls == Counter({key: 1 for key in keys})
    assert overlapped == {key: True for key in keys}
    for key in keys:
        got = [arr for k, arr in results if k == key]
        assert len(got) == 4 and all(arr is got[0] for arr in got)


def test_kernel_cache_builds_each_key_of_overlapping_groups_once():
    """Eight threads ask for overlapping key pairs, as Dunkl transforms of
    orders a and a + 1 do: every key is built by exactly one build call,
    and every thread gets that build's array."""
    keys = [("group-stress", k) for k in range(5)]
    built = Counter()
    lock = threading.Lock()

    def build(mine):
        with lock:
            built.update(mine)
        return [np.full(4, float(key[1])) for key in mine]

    results = [None] * 8
    barrier = threading.Barrier(8)

    def worker(i):
        group = keys[i % 4:i % 4 + 2]
        barrier.wait(timeout=10.0)
        results[i] = dict(zip(group, transforms._cached_all(group, build)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old)
        with transforms._cache_lock:
            for key in keys:
                transforms._matrix_cache.pop(key, None)
    assert not any(t.is_alive() for t in threads)
    assert built == Counter({key: 1 for key in keys})
    for key in keys:
        got = [r[key] for r in results if key in r]
        assert all(arr is got[0] for arr in got) and got[0][0] == key[1]


@pytest.fixture
def cold_kernel_cache():
    """An empty kernel cache for one test; the entries it held come back."""
    with transforms._cache_lock:
        saved = dict(transforms._matrix_cache)
        transforms._matrix_cache.clear()
    yield transforms._matrix_cache
    with transforms._cache_lock:
        transforms._matrix_cache.clear()
        transforms._matrix_cache.update(saved)


def spy_ladder(monkeypatch):
    """(orders, known orders, points) of every ladder pass that transforms runs."""
    passes = []

    def spy(orders, u, known=None):
        passes.append((list(orders), sorted(known or {}), u.size))
        return _ladder(orders, u, known)

    monkeypatch.setattr(transforms, "_ladder", spy)
    return passes


def entries(passes) -> Counter:
    """Kernel entries evaluated per order by the passes."""
    out = Counter()
    for orders, _, points in passes:
        out.update({a: points for a in orders})
    return out


@pytest.mark.parametrize("alpha", [0.0, 2.0, 0.5, 2.5, 1.05])
def test_j_kernel_one_build_per_unordered_pair(monkeypatch, cold_kernel_cache, alpha):
    a = make_graded_grid(0.0, 3.0, 3, 8, 1.0)
    b = make_graded_grid(0.0, 5.0, 2, 16, 1.0)
    passes = spy_ladder(monkeypatch)
    ab, = transforms._j_kernels(a, b, alpha)
    ba, = transforms._j_kernels(b, a, alpha)
    assert entries(passes) == Counter({alpha: a.n * b.n}) and len(cold_kernel_cache) == 1
    assert ab.shape == (a.n, b.n) and ba.shape == (b.n, a.n)
    assert np.shares_memory(ab, ba) and np.array_equal(ba, ab.T)
    # each orientation equals a kernel built in that orientation, bit for bit
    for rows, cols, mat in ((a, b, ab), (b, a, ba)):
        u = rows.points[:, None] * cols.points[None, :]
        assert np.array_equal(mat, bessel_j_normalized(alpha, u.ravel()).reshape(u.shape))
    for mat in (ab, ba):
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_kernel_cache_evicts_by_bytes(monkeypatch, cold_kernel_cache):
    """Least-recently-used kernels go while the stored bytes exceed the
    budget; the kernel just built stays even when it alone is over."""
    monkeypatch.setattr(transforms, "_CACHE_BUDGET", 3 * 800)
    for k in range(3):
        transforms._cached(("bytes", k), lambda: np.zeros(100))   # 800 bytes each
    transforms._cached(("bytes", 0), None)                        # a hit: now most recent
    transforms._cached(("bytes", 3), lambda: np.zeros(100))
    assert list(cold_kernel_cache) == [("bytes", 2), ("bytes", 0), ("bytes", 3)]
    big = transforms._cached(("bytes", "big"), lambda: np.zeros(400))
    assert list(cold_kernel_cache) == [("bytes", "big")]
    assert cold_kernel_cache[("bytes", "big")] is big


@pytest.fixture(scope="module")
def suite512_kernels():
    """The kernel cache that the N=512 identity suite leaves, from cold."""
    with transforms._cache_lock:
        saved = dict(transforms._matrix_cache)
        transforms._matrix_cache.clear()
    try:
        run_identity_suite(resolution_n512(), 7, (-0.5, 0.0, 0.5, 1.0), 1)
        with transforms._cache_lock:
            kernels = dict(transforms._matrix_cache)
        yield kernels
    finally:
        with transforms._cache_lock:
            transforms._matrix_cache.clear()
            transforms._matrix_cache.update(saved)


def test_identity_suite_builds_each_kernel_once(suite512_kernels):
    """Six j-kernels (orders -1/2 .. 2, one per unordered grid pair) and
    one Fourier kernel serve the whole N=512 identity suite."""
    kinds = Counter(key[0] for key in suite512_kernels)
    assert kinds == Counter({"j": 6, "fourier": 1})


def test_identity_suite_kernel_bytes(suite512_kernels):
    """Each kernel at its symmetric size: six real 256^2 j-kernels and the
    real 512 x 256 cos/sin halves of the Fourier kernel."""
    assert sum(mat.nbytes for mat in suite512_kernels.values()) == 4_194_304


def test_every_transform_acts_on_a_stack(space512, freq512, corpus512):
    """A (3, N) stack gives its three single-function results, to 1e-14 of
    their max-abs, through one GEMM per transform."""
    full = stack_of(corpus512[:3], space512)
    half = even_odd_split(full)[0]
    half_freq = freq512.positive_half()
    ops = [(full, lambda f: fourier(f, freq512)),
           (full, lambda f: fourier_inverse(f, space512)),
           (half, lambda f: hankel(1.0, f, half_freq)),
           (half, lambda f: hankel_modified(0.5, f, half_freq)),
           (full, lambda f: dunkl(0.0, f, freq512)),
           (full, lambda f: dunkl(1.0, f, freq512, route="direct")),
           (full, lambda f: dunkl_inverse(0.0, f, space512)),
           (full, lambda f: dunkl_modified(1.0, f, freq512)),
           (full, lambda f: dunkl_modified_inverse(0.0, f, space512))]
    for stack, op in ops:
        out = op(stack)
        assert out.values.shape[0] == 3
        for i in range(3):
            one = op(stack.with_values(stack.values[i])).values
            assert np.max(np.abs(out.values[i] - one)) <= 1e-14 * np.max(np.abs(one))


def test_fourier_equals_the_plain_formula(monkeypatch, space512, freq512, corpus512,
                                          cold_kernel_cache):
    """The folded cos/sin route on symmetric grids (even and odd n) and the
    unfolded one along a non-symmetric grid give the dense formula, for one
    function and for a stack, to 4e-15 of max |F|: against a long-double
    sum the dense formula itself is off by up to 1.6e-15 of it."""
    monkeypatch.setattr(transforms, "check_resolution", lambda *args: None)   # coarse pairs
    odd = Grid(np.linspace(-2.0, 2.0, 9), np.full(9, 0.5), -2.25, 2.25)
    skew = make_graded_grid(-1.0, 2.0, 4, 8, 1.0)
    assert odd.is_symmetric and not skew.is_symmetric
    for rows, cols in ((freq512, space512), (space512, freq512), (odd, space512),
                       (space512, odd), (skew, space512), (odd, skew), (skew, skew)):
        plain = np.exp(-1j * np.multiply.outer(rows.points, cols.points)) / np.sqrt(2.0 * np.pi)
        one = np.exp(-(cols.points - 0.3) ** 2)
        stack = np.stack([one] + [np.broadcast_to(m.fn(cols.points), (cols.n,))
                                  for m in corpus512[::3]])
        for vals in (one, stack):
            got = fourier(SampledFn(cols, vals), rows).values
            want = (cols.weights * vals) @ plain.T
            scale = np.max(np.abs(want), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 4e-15 * scale), (rows.n, cols.n)
    halves = cold_kernel_cache[("fourier", freq512.key, space512.key)]
    assert halves.dtype == np.float64 and halves.shape == (512, 256)


def test_j_kernel_on_a_proportional_pair_is_built_on_one_triangle(monkeypatch,
                                                                  cold_kernel_cache, res512):
    """The res512 half-frequency grid is a scaled copy of the half-space
    grid: one build per order on the j >= i triangle, served in both
    orientations, exactly symmetric, and within 4 eps max(u_ij, 1) of the
    full evaluation (the argument moves by rounding, about eps u, and near
    u = 0 the value by its last bit)."""
    rows, cols = res512.half_freq_grid(), res512.half_grid()
    passes = spy_ladder(monkeypatch)
    u = np.multiply.outer(rows.points, cols.points)
    for alpha in ALPHAS:
        mat, = transforms._j_kernels(rows, cols, alpha)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(transforms._j_kernels(cols, rows, alpha)[0], mat)
        full = bessel_j_normalized(alpha, u.ravel()).reshape(u.shape)
        assert np.all(np.abs(mat - full) <= 4.0 * np.finfo(float).eps * np.maximum(u, 1.0))
    assert entries(passes) == Counter({alpha: rows.n * (rows.n + 1) // 2 for alpha in ALPHAS})
    assert len(cold_kernel_cache) == len(ALPHAS)


LADDER_ORDERS = [0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 20.5, 49.0]


@pytest.fixture(params=["proportional", "non-proportional"])
def kernel_pair(request, res512):
    """Two half-line grids whose products reach past u = 49, the Hankel
    band of order 49, and the u that each stored entry is evaluated at: a
    proportional pair stores its j >= i triangle and mirrors it."""
    if request.param == "proportional":
        rows, cols = res512.half_freq_grid(), res512.half_grid()
        u = np.multiply.outer(rows.points, cols.points)
        return rows, cols, np.triu(u) + np.triu(u, 1).T
    rows, cols = make_graded_grid(0.0, 3.0, 3, 8, 1.0), make_graded_grid(0.0, 60.0, 4, 16, 1.0)
    return rows, cols, np.multiply.outer(rows.points, cols.points)


@pytest.mark.parametrize("alpha", LADDER_ORDERS)
def test_j_kernel_has_the_same_bits_by_every_path(monkeypatch, cold_kernel_cache,
                                                  kernel_pair, alpha):
    """The bit rule: built alone on a cold cache, as either order of a
    pair, by recurrence on its two cached lower orders, or by two pool
    threads racing on overlapping pairs, a kernel holds
    bessel_j_normalized at each entry's u, bit for bit."""
    rows, cols, u = kernel_pair
    want = bessel_j_normalized(alpha, u.ravel()).reshape(u.shape)
    below = [a for a in (alpha - 2.0, alpha - 1.0) if a >= -0.5]
    passes = spy_ladder(monkeypatch)

    def cold(*orders):
        with transforms._cache_lock:
            cold_kernel_cache.clear()
        return dict(zip(orders, transforms._j_kernels(rows, cols, *orders)))

    builds = {"alone": cold(alpha)[alpha], "pair, lower": cold(alpha, alpha + 1.0)[alpha]}
    if below:
        builds["pair, upper"] = cold(alpha - 1.0, alpha)[alpha]
    cold()
    for a in below:
        transforms._j_kernels(rows, cols, a)
    builds["after its lower orders"] = transforms._j_kernels(rows, cols, alpha)[0]
    assert passes[-1][:2] == ([alpha], below if len(below) == 2 else [])
    cold()
    barrier = threading.Barrier(2)

    def racer(orders):
        barrier.wait(timeout=10.0)
        return dict(zip(orders, transforms._j_kernels(rows, cols, *orders)))

    pairs = [(alpha, alpha + 1.0), (alpha - 1.0, alpha) if below else (alpha, alpha + 1.0)]
    with ThreadPoolExecutor(2) as pool:
        raced = list(pool.map(racer, pairs))
    builds.update({f"racing {orders}": got[alpha] for orders, got in zip(pairs, raced)})
    for name, mat in builds.items():
        assert np.array_equal(mat, want), name


def test_six_order_pass_has_each_orders_bits(cold_kernel_cache, kernel_pair):
    """One pass over the identity suite's six orders (-1/2 .. 2, the upper
    ones recurring in the pass) gives bessel_j_normalized bit for bit."""
    rows, cols, u = kernel_pair
    orders = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    for a, mat in zip(orders, transforms._j_kernels(rows, cols, *orders)):
        assert np.array_equal(mat, bessel_j_normalized(a, u.ravel()).reshape(u.shape)), a


def test_identity_suite_builds_its_kernels_in_one_pass(monkeypatch, cold_kernel_cache):
    """A cold suite asks for every j-kernel it reads at once: the requested
    orders, the fixed orders -1/2, 0 and 1, and each of these plus one, in
    one ladder pass, and no other order."""
    passes = spy_ladder(monkeypatch)
    run_identity_suite(Resolution(6, 32, 3.0), 3, (0.0, 2.5), 1)
    orders = [-0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 3.5]
    assert [p[:2] for p in passes] == [(orders, [])]
    assert sorted(key[1] for key in cold_kernel_cache if key[0] == "j") == orders


def test_identity_suite_keeps_the_kernel_cache_capped(monkeypatch, cold_kernel_cache):
    """Under a budget of four j-kernels the suite builds its six in two
    passes that fit, rebuilds what the budget evicts, and reports the same
    values; the cache never holds more than one build's kernels beyond the
    budget."""
    res = Resolution(6, 32, 3.0)
    want = run_identity_suite(res, 3, (0.0, 0.5), 1)
    with transforms._cache_lock:
        cold_kernel_cache.clear()
    budget = 4 * 8 * res.half_grid().n ** 2
    monkeypatch.setattr(transforms, "_CACHE_BUDGET", budget)
    passes = spy_ladder(monkeypatch)
    over = []
    cached_all = transforms._cached_all

    def capped(keys, build):
        built = []
        out = cached_all(keys, lambda cold: built.extend(build(cold)) or built)
        with transforms._cache_lock:
            stored = sum(m.nbytes for m in cold_kernel_cache.values())
        over.append(stored - budget - sum(m.nbytes for m in built))
        return out

    monkeypatch.setattr(transforms, "_cached_all", capped)
    got = run_identity_suite(res, 3, (0.0, 0.5), 1)
    assert [p[0] for p in passes[:2]] == [[-0.5, 0.0, 0.5, 1.0], [1.5, 2.0]]
    assert len(passes) > 2 and max(over) <= 0
    assert [(r.name, r.residuals_or_ratios) for r in got] == \
        [(r.name, r.residuals_or_ratios) for r in want]


def test_dunkl_family_builds_each_cold_pair_in_one_pass(monkeypatch, cold_kernel_cache,
                                                        space512, freq512, corpus512):
    """Every transform that needs j_a and j_{a+1} evaluates both in one
    ladder pass on a cold cache; a Hankel-only call evaluates its order
    alone and leaves one kernel."""
    passes = spy_ladder(monkeypatch)
    full = stack_of(corpus512[:2], space512)
    half = even_odd_split(full)[0]
    calls = [lambda: dunkl(1.0, full, freq512), lambda: dunkl(1.0, full, freq512, route="direct"),
             lambda: dunkl_modified(1.0, full, freq512),
             lambda: build_family(1.0, full, default_t_grid(freq512), freq512)]
    for call in calls:
        with transforms._cache_lock:
            cold_kernel_cache.clear()
        passes.clear()
        call()
        assert [p[:2] for p in passes] == [([1.0, 2.0], [])]
    with transforms._cache_lock:
        cold_kernel_cache.clear()
    passes.clear()
    hankel_partial_sum(1.5, half, 4.0, freq512)
    assert [p[:2] for p in passes] == [([1.5], [])]
    assert [key[:2] for key in cold_kernel_cache] == [("j", 1.5)]


def test_real_stacks_stay_real_through_the_kernels(space512, freq512, corpus512):
    # every transform of a float64 stack agrees with that of its complex128
    # cast to eps sqrt(n) of max|out|, n the input node count (the two GEMMs
    # may sum in different orders); the Hankel transforms stay float64, the
    # others multiply by +-i and give complex128
    stack = stack_of(corpus512[::3], space512)
    fe, half = even_odd_split(stack)[0], freq512.positive_half()
    assert stack.values.dtype == fe.values.dtype == np.float64
    cases = [
        (lambda f: hankel(0.5, f, half), fe, np.float64),
        (lambda f: hankel_modified(0.5, f, half), fe, np.float64),
        (lambda f: fourier(f, freq512), stack, np.complex128),
        (lambda f: fourier_inverse(f, freq512), stack, np.complex128),
        (lambda f: dunkl_modified(1.0, f, freq512), stack, np.complex128),
        (lambda f: dunkl_modified_inverse(1.0, f, freq512), stack, np.complex128),
        (lambda f: dunkl_inverse(1.0, f, freq512), stack, np.complex128),
    ] + [(lambda f, route=route: dunkl(1.0, f, freq512, route), stack, np.complex128)
         for route in ("decomposition", "direct")]
    for op, f, dtype in cases:
        real, cast = op(f).values, op(f.with_values(f.values.astype(complex))).values
        assert real.dtype == dtype and cast.dtype == np.complex128
        bound = np.finfo(float).eps * np.sqrt(f.grid.n) * np.max(np.abs(cast))
        assert np.max(np.abs(real - cast)) <= bound


def test_a_complex_member_makes_the_stack_complex(space512, freq512, corpus512):
    # one complex member upcasts the stack; each row is still its member's
    # lone transform, to 1e-14 of max|out|
    members = [sample(m.fn, space512).values for m in corpus512[:2]]
    members.append(members[0] + 0.5j * members[1])
    half = freq512.positive_half()
    for op in (lambda f: dunkl(1.0, f, freq512),
               lambda f: hankel(1.0, even_odd_split(f)[0], half)):
        out = op(SampledFn(space512, np.stack(members))).values
        assert out.dtype == np.complex128
        for b in range(3):
            one = op(SampledFn(space512, members[b])).values
            assert np.max(np.abs(out[b] - one)) <= 1e-14 * np.max(np.abs(one))
