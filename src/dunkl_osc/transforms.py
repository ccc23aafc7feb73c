"""The transform calculus: Fourier, Hankel, modified Hankel, Dunkl, modified
Dunkl, their inverses, and the transplantation operators.

Everything is dense quadrature, O(N_in * N_out): a kernel matrix is built
once and cached, so sweeping a corpus over fixed grids costs one matrix
build plus one GEMM per kernel a transform reads.  Every transform acts
along the last axis of f.values, so a (..., N) stack of functions on one
grid is the columns of that one GEMM.  Each kernel-applying transform is
a plan (_Plan): its GEMM requests, (kernel, stack) pairs, and a finishing
step that makes its result from their products.  The driver _run takes
several plans and applies each distinct kernel array once, to the
concatenated real columns of every request on it; a public transform is
a _run of its one plan, and the identity suite makes the transforms of
one order and level in one _run.  _apply_real, the one GEMM owner, sends
no all-zero column to BLAS (a zero member, the zero imaginary plane of a
real function's even spectrum) and writes +0.0 for it.  A GEMM's column
count can move a sum's last bits, so a transform made with others may
differ there from the same transform made alone.  Each kernel is stored
at its symmetric size.
A Bessel kernel j_a(xy) is symmetric in the product, so it is cached once
per order and unordered grid pair, and the other orientation is served as
its transposed view.  The Fourier kernel is stored as its real cos and sin
halves on the nodes >= 0 of a symmetric axis and applied to the even and
odd folds of the data, and is built into one array, each half scaled on
its triangle before the mirror.  When the two node sets are proportional
(a frequency half-grid is a scaled copy of its space half-grid) a kernel is
evaluated on one triangle and mirrored (_outer_kernel).  Bessel kernels
are built as order ladders (_j_kernels): the Dunkl-family transforms need
j_a and j_{a+1} on one grid pair and build the orders still cold in one
special._ladder pass, and an order whose two lower orders are cached recurs
from them past its turning point.  No order is built that no transform
asked for.  Each stored entry equals bessel_j_normalized at its u bit for
bit, whichever path built it, so no output depends on what was cached
before or on which thread built a kernel.  Every kernel is
real and is applied in real arithmetic (_apply_real), so no cached kernel
is upcast to a complex copy, and the data's dtype carries through: hankel
and hankel_modified of a float64 f are float64, while fourier and the
Dunkl transforms, which multiply by +-i, are complex128.  Every
full-line transform reuses the cached half-line kernels: the direct Dunkl
route sums the four (sign x, sign y) quadrants instead of building a
full-line kernel.  An oscillatory resolution guard refuses output
frequencies with fewer than six input nodes per kernel wavelength rather
than aliasing silently.

Conventions (all realized exactly at the kernel level):

  fourier          F f(x)  = (2 pi)^{-1/2} integral f(y) e^{-ixy} dy
  hankel           Hk_a f(x) = integral_0^inf f(y) J_a(xy)/(xy)^a y^{2a+1} dy
  hankel_modified  H_a f(x)  = integral_0^inf f(y) (xy)^{1/2} J_a(xy) dy
  dunkl            D_a f(x)  = Hk_a f_e(|x|) - i x Hk_{a+1}(f_o/(.))(|x|)
  dunkl_modified   Dm_a f(x) = H_a f_e(|x|) - i sgn(x) H_{a+1}(f_o)(|x|)

Inverses are argument reflections of the forward operators; at a = -1/2 the
Dunkl transform coincides with the Fourier transform through the closed
J_{+-1/2} forms.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArgumentError, ResolutionError
from .funcspace import (FULL_LINE, HALF_LINE, Grid, SampledFn, assemble_values,
                        even_odd_split, make_graded_grid)
from .special import _ladder

MIN_NODES_PER_WAVELENGTH = 6.0

_cache_lock = threading.Lock()
_matrix_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
_building: dict[tuple, Future] = {}   # keys whose build is in flight
_CACHE_BUDGET = 1 << 30   # bytes of stored kernels; an N=1536 identity suite stores 38 MB
_MIRROR_BLOCK = 64   # rows per block when a symmetric kernel's triangle is mirrored


def _cached_all(keys, build):
    """The kernels for keys, each built once: the keys neither stored nor in
    flight are built by one call build(those keys) in this thread, and a key
    that another thread is building is waited for; different keys build
    concurrently, outside the lock.  Kernels are published read-only (one
    buffer may back two orientations), and least-recently-used ones are
    evicted while the stored bytes exceed _CACHE_BUDGET, never the kernels
    just built."""
    found, waits, mine = {}, {}, []
    with _cache_lock:
        for key in keys:
            if key in _matrix_cache:
                _matrix_cache.move_to_end(key)
                found[key] = _matrix_cache[key]
            elif key in _building:
                waits[key] = _building[key]
            else:
                _building[key] = Future()
                mine.append(key)
    if mine:
        try:
            mats = build(mine)
        except BaseException as exc:
            with _cache_lock:
                pending = [_building.pop(key) for key in mine]
            for fut in pending:
                fut.set_exception(exc)
            raise
        with _cache_lock:
            for key, mat in zip(mine, mats):
                mat.flags.writeable = False
                _matrix_cache[key] = found[key] = mat
            stored = sum(m.nbytes for m in _matrix_cache.values())
            while stored > _CACHE_BUDGET and len(_matrix_cache) > len(mine):
                stored -= _matrix_cache.popitem(last=False)[1].nbytes
            pending = [_building.pop(key) for key in mine]
        for fut, mat in zip(pending, mats):
            fut.set_result(mat)
    found.update((key, fut.result()) for key, fut in waits.items())
    return [found[key] for key in keys]


def _cached(key, builder):
    """The kernel for one key, built by builder() once (_cached_all)."""
    return _cached_all([key], lambda _: [builder()])[0]


def clear_kernel_cache() -> None:
    with _cache_lock:
        _matrix_cache.clear()


def resolvable_frequency(grid: Grid) -> float:
    """Largest |frequency| with >= MIN_NODES_PER_WAVELENGTH input nodes per
    kernel wavelength on this grid."""
    if grid.n < 2:
        raise ArgumentError(f"a grid of {grid.n} node(s) is too small for a transform")
    return 2.0 * np.pi / (MIN_NODES_PER_WAVELENGTH * grid.max_spacing)


def check_resolution(input_grid: Grid, max_abs_freq: float) -> None:
    limit = resolvable_frequency(input_grid)
    if max_abs_freq > limit:
        raise ResolutionError(
            f"output frequency {max_abs_freq:.6g} exceeds the resolvable "
            f"limit {limit:.6g} (needs >= {MIN_NODES_PER_WAVELENGTH:g} nodes "
            f"per wavelength)")


def frequency_grid(space_grid: Grid, freq_max: float | None = None,
                   nodes_per_panel: int = 32) -> Grid:
    """Symmetric frequency grid matched to a space grid: the default span is
    98% of the resolution guard and the node budget mirrors the space grid."""
    limit = resolvable_frequency(space_grid)
    f = 0.98 * limit if freq_max is None else float(freq_max)
    if not f > 0.0:
        raise ArgumentError(f"freq_max must be positive, got {f:g}")
    if f > limit:
        raise ResolutionError(f"requested band {f:g} beyond resolvable {limit:g}")
    budget = space_grid.n if space_grid.lo >= 0.0 else space_grid.n // 2
    return make_graded_grid(-f, f, max(1, budget // nodes_per_panel), nodes_per_panel, 1.0)


def _columns(v: np.ndarray, b: int) -> np.ndarray:
    """The real columns of a stack v along its last axis, behind b leading
    kernel-stack axes: a C-ordered float64 (..., n, C) array whose C columns
    are v's functions, a complex v's as interleaved real and imaginary
    columns."""
    cplx = np.iscomplexobj(v)
    w = np.ascontiguousarray(np.moveaxis(v, -1, b), dtype=np.complex128 if cplx else np.float64)
    w = w.reshape(w.shape[:b + 1] + (np.prod(v.shape[b:-1], dtype=int),))   # k may be 0
    return w.view(np.float64) if cplx else w


def _from_columns(out: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (..., C, r) products of v's real columns (_columns) as the
    C-ordered (..., r) stack of v's dtype."""
    r = out.shape[-1]
    if np.iscomplexobj(v):   # rows re, im -> complex
        out = np.ascontiguousarray(out.reshape(out.shape[:-2] + (-1, 2, r)).swapaxes(-1, -2))
        out = out.view(np.complex128)
    return np.ascontiguousarray(out).reshape(v.shape[:-1] + (r,))


def _apply_real(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mat applied along the last axis of a (..., n) stack v, for a real
    (r, n) matrix, without upcasting mat: the C-ordered (..., r) result keeps
    v's dtype.  v's real columns (_columns) are the columns of one real
    GEMM, less those that are all zero, whose products are written as +0.0.
    A (k, r, n) stack of matrices takes a (k, ..., n) v and applies mat[i]
    to v[i], in one batched call, whose column spans all k matrices: it is
    left out when it is zero on every one.  The GEMM runs in row form,
    (w.T @ mat.T), which streams the stored kernel row by row whether mat is
    the stored array or its transposed view."""
    b = mat.ndim - 2
    w = _columns(v, b)
    live = np.flatnonzero(w.any(axis=tuple(range(b + 1))))
    out = np.zeros(w.shape[:b] + (w.shape[-1], mat.shape[-2]))
    if live.size == w.shape[-1]:
        np.matmul(w.swapaxes(-1, -2), mat.swapaxes(-1, -2), out=out)
    elif live.size:
        out[..., live, :] = w[..., live].swapaxes(-1, -2) @ mat.swapaxes(-1, -2)
    return _from_columns(out, v)


class _Plan(NamedTuple):
    """A transform as its GEMM requests, (kernel, stack) pairs for
    _apply_real, and the finishing step that makes its result from their
    products, given in request order.  _run carries plans out."""

    gemms: list
    finish: Callable

    def then(self, step: Callable) -> "_Plan":
        """This plan with step applied to its result."""
        return _Plan(self.gemms, lambda outs: step(self.finish(outs)))


def _joined(plans: list, finish: Callable) -> _Plan:
    """One plan of several: finish takes their results, in order."""
    cuts = np.cumsum([0] + [len(p.gemms) for p in plans])
    return _Plan([g for p in plans for g in p.gemms],
                 lambda outs: finish(*(p.finish(outs[s:e])
                                       for p, s, e in zip(plans, cuts, cuts[1:]))))


def _run(plans: list) -> list:
    """The results of plans, each distinct kernel array (the same buffer,
    shape and strides) applied once: the real columns of every request on
    it are concatenated into one _apply_real call.  A GEMM's column count
    can move a product's last bits, so a request made with others may differ
    there from the same request made alone."""
    on = {}   # kernel -> the (plan, request) indices on it
    for i, plan in enumerate(plans):
        for j, (mat, _) in enumerate(plan.gemms):
            on.setdefault((mat.__array_interface__["data"][0], mat.shape, mat.strides),
                          []).append((i, j))
    outs = [[None] * len(p.gemms) for p in plans]
    for where in on.values():
        mat = plans[where[0][0]].gemms[where[0][1]][0]
        vs = [plans[i].gemms[j][1] for i, j in where]
        cols = [_columns(v, mat.ndim - 2) for v in vs]
        edges = np.cumsum([0] + [c.shape[-1] for c in cols])
        out = _apply_real(mat, (np.concatenate(cols, axis=-1) if len(cols) > 1 else cols[0])
                          .swapaxes(-1, -2))
        for (i, j), v, s, e in zip(where, vs, edges, edges[1:]):
            outs[i][j] = _from_columns(out[..., s:e, :], v)
    return [p.finish(o) for p, o in zip(plans, outs)]


def _outer_kernel(r: np.ndarray, c: np.ndarray, fn, *stored, out=None):
    """The (r.size, c.size) kernels of the 1-d arrays fn(u, *stored) returns,
    at u_ij = r_i c_j; stored kernels on the same nodes reach fn in u's
    layout.  When r and c are proportional node sets of one length (a
    frequency half-grid is a scaled copy of the space half-grid), u is
    symmetric up to rounding: fn runs on the j >= i triangle only, packed
    row by row, and the triangle is mirrored in row blocks, so each kernel
    is exactly symmetric.  The kernels are new arrays, or are written into
    the (K, r.size, c.size) array out when one is given."""
    n = r.size
    lam = r[-1] / c[-1] if n == c.size and c[-1] != 0.0 else 0.0
    if lam == 0.0 or np.any(np.abs(r - lam * c) > 4.0 * np.finfo(float).eps * np.abs(lam * c)):
        u = np.multiply.outer(r, c)
        vals = [v.reshape(u.shape) for v in fn(u.ravel(), *(m.ravel() for m in stored))]
        if out is None:
            return vals
        for o, v in zip(out, vals):
            o[...] = v
        return out

    def packed(row):   # the j >= i triangle, row by row
        return np.concatenate([row(i) for i in range(n)])

    tri = list(fn(packed(lambda i: r[i] * c[i:]),
                  *(packed(lambda i, m=m: m[i, i:]) for m in stored)))
    low = np.tri(_MIRROR_BLOCK, k=-1, dtype=bool)
    kernels = []
    while tri:   # each triangle is freed once its kernel is filled
        vals, start = tri.pop(0), 0
        o = np.empty((n, n)) if out is None else out[len(kernels)]
        for i in range(n):
            o[i, i:] = vals[start:start + n - i]
            start += n - i
        for s in range(0, n, _MIRROR_BLOCK):
            e = min(s + _MIRROR_BLOCK, n)
            o[s:e, :s] = o[:s, s:e].T
            np.copyto(o[s:e, s:e], o[s:e, s:e].T, where=low[:e - s, :e - s])
        kernels.append(o)
    return kernels if out is None else out


def _j_kernels(rows: Grid, cols: Grid, *orders: float) -> list:
    """j_a(outer(|rows|, |cols|)) for each order a, for half-line grids,
    cached once per order and unordered grid pair: x*y = y*x exactly, so
    the orientation with rows.key > cols.key is the transposed view of the
    stored one.  The orders not yet cached are built in one special._ladder
    pass, which recurs in the Hankel band from the kernels of orders a - 1
    and a - 2 when both are cached, a the lowest order it builds.  Each
    stored entry equals bessel_j_normalized at its u, whatever the path."""
    if rows.key > cols.key:
        return [m.T for m in _j_kernels(cols, rows, *orders)]

    def key(a):
        return ("j", float(a), rows.key, cols.key)

    def build(cold_keys):
        cold = [k[1] for k in cold_keys]
        below = (min(cold) - 2.0, min(cold) - 1.0)
        with _cache_lock:
            stored = [_matrix_cache.get(key(a)) for a in below]
        if any(m is None for m in stored):
            below, stored = (), []
        return _outer_kernel(np.abs(rows.points), np.abs(cols.points),
                             lambda u, *known: _ladder(cold, u, dict(zip(below, known))),
                             *stored)

    return _cached_all([key(a) for a in orders], build)


def fourier(f: SampledFn, output_grid: Grid) -> SampledFn:
    """(2 pi)^{-1/2} integral f(y) e^{-ixy} dy on the output grid.

    The cached kernel is real: [C; S] = [cos; sin](x y) / sqrt(2 pi) on the
    nodes x >= 0 and y >= 0 of a symmetric axis (a non-symmetric axis is
    kept whole), built into one (2p, q) array; a symmetric pair's packed
    triangle is scaled before it is mirrored.  On a symmetric input grid
    the weighted samples fold into e = v+ + v- and o = v+ - v- at y >= 0
    (v- the mirrored samples at y < 0; an odd grid's node y = 0 counted
    once; unfolded, e = o = v), so F(x) = C e - i S o and, on a symmetric
    output grid, F(-x) = C e + i S o.  One batched product applies the row
    block C to e and S to o."""
    return _run([_fourier_plan(f, output_grid)])[0]


def _fourier_plan(f: SampledFn, output_grid: Grid) -> _Plan:
    if f.domain_tag != FULL_LINE:
        raise ArgumentError("fourier needs a full-line function")
    check_resolution(f.grid, float(np.max(np.abs(output_grid.points))))
    m = output_grid.n // 2 if output_grid.is_symmetric else 0
    k = f.grid.n // 2 if f.grid.is_symmetric else 0
    p, q = output_grid.n - m, f.grid.n - k
    scale = np.sqrt(2.0 * np.pi)
    halves = _cached(("fourier", output_grid.key, f.grid.key), lambda: _outer_kernel(
        output_grid.points[m:], f.grid.points[k:],
        lambda u: (np.cos(u) / scale, np.sin(u) / scale), out=np.empty((2, p, q))).reshape(2 * p, q))
    v = f.grid.weights * f.values
    eo = np.stack([v[..., k:]] * 2)   # (2, ..., q): e, o
    neg = v[..., :k][..., ::-1]
    eo[0, ..., q - k:] += neg
    eo[1, ..., q - k:] -= neg

    def finish(outs):
        ce, so = outs[0]
        vals = np.concatenate([(ce + 1j * so)[..., p - m:][..., ::-1], ce - 1j * so], axis=-1)
        return SampledFn(output_grid, vals, FULL_LINE)
    return _Plan([(halves.reshape(2, p, q), eo)], finish)


def _reflected(out: SampledFn) -> SampledFn:
    """out at the reflected arguments: each inverse transform is its
    forward transform followed by argument reflection."""
    return out.with_values(out.values[..., ::-1])


def fourier_inverse(g: SampledFn, output_grid: Grid) -> SampledFn:
    if not output_grid.is_symmetric:
        raise ArgumentError("fourier_inverse needs a symmetric output grid")
    return _reflected(fourier(g, output_grid))


def hankel(alpha: float, f: SampledFn, output_grid: Grid) -> SampledFn:
    """Hankel transform of order alpha with the normalized kernel
    J_a(xy)/(xy)^a against y^{2a+1} dy."""
    return _run([_hankel_plan(alpha, f, output_grid)])[0]


def _hankel_plan(alpha: float, f: SampledFn, output_grid: Grid) -> _Plan:
    """The one owner of the Hankel quadrature and its resolution guard."""
    if f.domain_tag != HALF_LINE:
        raise ArgumentError("hankel needs a half-line function")
    check_resolution(f.grid, float(np.max(np.abs(output_grid.points))))
    mat, = _j_kernels(output_grid, f.grid, alpha)
    y = f.grid.points
    return _Plan([(mat, f.grid.weights * y ** (2.0 * alpha + 1.0) * f.values)],
                 lambda outs: SampledFn(output_grid, outs[0], HALF_LINE))


def hankel_modified(alpha: float, f: SampledFn, output_grid: Grid) -> SampledFn:
    """Kernel (xy)^{1/2} J_a(xy) against plain dy; self-inverse on L^2(dx).
    Reuses the cached j_alpha matrix through
    (xy)^{1/2} J_a(xy) = (xy)^{a+1/2} j_a(xy)."""
    return _run([_hankel_modified_plan(alpha, f, output_grid)])[0]


def _hankel_modified_plan(alpha: float, f: SampledFn, output_grid: Grid) -> _Plan:
    if f.domain_tag != HALF_LINE:
        raise ArgumentError("hankel_modified needs a half-line function")
    check_resolution(f.grid, float(np.max(np.abs(output_grid.points))))
    mat, = _j_kernels(output_grid, f.grid, alpha)
    y, x = f.grid.points, output_grid.points
    return _Plan([(mat, f.grid.weights * y ** (alpha + 0.5) * f.values)],
                 lambda outs: SampledFn(output_grid, x ** (alpha + 0.5) * outs[0], HALF_LINE))


def _parts_plan(alpha: float, f: SampledFn, half_out: Grid) -> _Plan:
    """The parity step of the Dunkl transform: E = Hk_a f_e and
    O = Hk_{a+1}(f_o / y) on half_out, so D_a f(+-x) = E(x) -+ i x O(x)."""
    fe, fo = even_odd_split(f)
    check_resolution(fe.grid, float(np.max(np.abs(half_out.points))))
    _j_kernels(half_out, fe.grid, alpha, alpha + 1.0)   # one pass: both hankel plans hit
    return _joined([_hankel_plan(alpha, fe, half_out),
                    _hankel_plan(alpha + 1.0, fo.with_values(fo.values / fo.grid.points),
                                 half_out)], lambda *parts: parts)


def _assembled(output_grid: Grid, he: SampledFn, ho: SampledFn) -> SampledFn:
    """The Dunkl spectrum E(|x|) - i x O(|x|) from the parity spectra."""
    half = output_grid.positive_half()
    return SampledFn(output_grid, assemble_values(he.values, -1j * half.points * ho.values),
                     FULL_LINE)


def dunkl(alpha: float, f: SampledFn, output_grid: Grid, route: str = "decomposition") -> SampledFn:
    """Dunkl transform of order alpha on the full line.

    route='decomposition' (default): Hk_a on the even part plus the signed
    Hk_{a+1} of f_o(y)/y.  route='direct': dense full-line quadrature of the
    kernel (j_a(xy) - i xy j_{a+1}(xy))/2 against |y|^{2a+1} dy, without
    the parity split.  The kernel depends on |x|, |y| and sgn(xy) only, so
    the sum runs over the four (sign x, sign y) quadrants with the cached
    half-line kernels ja, jb: for x > 0, with v+ the weighted samples at
    y > 0 and v- those at the mirrored y < 0,
        D f(+-x) = (ja @ (v+ + v-) -+ i x jb @ (|y| (v+ - v-))) / 2.
    The two routes are the same integral rearranged and are cross-checked
    in the identity suite.
    """
    return _run([_dunkl_plan(alpha, f, output_grid, route)])[0]


def _dunkl_plan(alpha: float, f: SampledFn, output_grid: Grid,
                route: str = "decomposition") -> _Plan:
    if not output_grid.is_symmetric:
        raise ArgumentError("dunkl needs a symmetric output grid")
    half_out = output_grid.positive_half()
    if route == "decomposition":
        return _parts_plan(alpha, f, half_out).then(lambda parts: _assembled(output_grid, *parts))
    if route == "direct":
        if f.domain_tag != FULL_LINE or not f.grid.is_symmetric:
            raise ArgumentError("the direct route needs a full-line, symmetric-grid f")
        check_resolution(f.grid, float(np.max(np.abs(output_grid.points))))
        half_in = f.grid.positive_half()
        ja, jb = _j_kernels(half_out, half_in, alpha, alpha + 1.0)
        m = f.grid.n // 2
        v = f.grid.weights * np.abs(f.grid.points) ** (2.0 * alpha + 1.0) * f.values
        quad = np.stack([v[..., m:], v[..., m - 1::-1]], axis=-2)   # y > 0, mirrored y < 0

        def finish(outs):
            a, b = outs
            even = 0.5 * (a[..., 0, :] + a[..., 1, :])
            odd = 0.5 * half_out.points * (b[..., 0, :] - b[..., 1, :])
            return SampledFn(output_grid, assemble_values(even, -1j * odd), FULL_LINE)
        return _Plan([(ja, quad), (jb, half_in.points * quad)], finish)
    raise ArgumentError(f"unknown dunkl route {route!r}")


def dunkl_inverse(alpha: float, g: SampledFn, output_grid: Grid) -> SampledFn:
    """Inverse Dunkl transform: the forward transform followed by argument
    reflection."""
    return _reflected(dunkl(alpha, g, output_grid))


def dunkl_modified(alpha: float, f: SampledFn, output_grid: Grid) -> SampledFn:
    """Modified Dunkl transform H_a(f_e)(|x|) - i sgn(x) H_{a+1}(f_o)(|x|);
    an isometry of L^2(R, dx)."""
    return _run([_dunkl_modified_plan(alpha, f, output_grid)])[0]


def _dunkl_modified_plan(alpha: float, f: SampledFn, output_grid: Grid) -> _Plan:
    if not output_grid.is_symmetric:
        raise ArgumentError("dunkl_modified needs a symmetric output grid")
    fe, fo = even_odd_split(f)
    half_out = output_grid.positive_half()
    check_resolution(fe.grid, float(np.max(np.abs(half_out.points))))
    _j_kernels(half_out, fe.grid, alpha, alpha + 1.0)   # one pass: both modified plans hit
    return _joined([_hankel_modified_plan(alpha, fe, half_out),
                    _hankel_modified_plan(alpha + 1.0, fo, half_out)],
                   lambda he, ho: SampledFn(output_grid, assemble_values(he.values, -1j * ho.values),
                                            FULL_LINE))


def dunkl_modified_inverse(alpha: float, g: SampledFn, output_grid: Grid) -> SampledFn:
    return _reflected(dunkl_modified(alpha, g, output_grid))


def transplant_dunkl(alpha: float, gamma: float, f: SampledFn,
                     freq_grid: Grid | None = None,
                     output_grid: Grid | None = None) -> SampledFn:
    """Dunkl transplantation: inverse modified transform of order alpha
    composed with the forward modified transform of order gamma.  Output on
    f's own grid unless output_grid is given (a transplanted function has
    power tails, so roundtrip compositions evaluate the intermediate on a
    wider grid)."""
    if freq_grid is None:
        freq_grid = frequency_grid(f.grid)
    spec = dunkl_modified(gamma, f, freq_grid)
    return dunkl_modified_inverse(alpha, spec, output_grid or f.grid)
