"""Hardy-Littlewood maximal function, conjugate Hardy operator, maximal
Hilbert transform, Carleson-Hunt maximal operator, and the pointwise
majorant |x|^{-(a+1/2)} (M_HL + H + H* + C)((.)^{a+1/2} f)(|x|) that
dominates Hankel partial sums.

Quadrature strategy: every window is first clipped to the grid's support
[edges[0], edges[-1]], so each operator treats f as zero outside its grid.
Whole panels use the grid's own Gauss-Legendre weights with node-exact
kernels (1/y, 1/(x-z), modulations), summed once per panel; a window or
truncation reads the panels it keeps from a left prefix (panels before it)
and a right suffix (panels after it), both sums of kept terms only.  A
window end on a panel edge cuts nothing; the kept parts of the panels it
does cut go through one re-quadrature, `_cut_segments`: a fresh Gauss rule
at samples linearly interpolated between grid nodes and held at the end
samples between the end nodes and the support's edges, so truncation
boundaries cost no node-snapping error.  Each caller applies its own kernel
there.  The modulated pass sums the real parts u, v of f = u + iv (u alone
for a real f) against cos(xi z) at xi >= 0 and sin(xi z) at xi > 0: whole
panels as one real GEMM, cut parts as one more (transforms._apply_real).  A
real part's T(+-xi) is C -+ iS, so a real stack's |T| at -xi is mirrored from
xi and a complex one's is recombined from T_u(+-xi) + i T_v(+-xi).

Every operator acts along the last axis of a (..., N) SampledFn stack; the
geometry of an evaluation block (1/(x-z) kernel, window searches, cut-panel
nodes and cos/sin ladder) is built once and shared by the whole stack.
Suprema over radii/frequencies are taken over a finite SupGrid, iterated in
a fixed order; enlarging the SupGrid never decreases any output.  A radius
past both ends of the support from every node empties both truncated
windows (dropped) and gives M_HL total/2r (only the smallest such is kept).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .errors import ArgumentError
from .funcspace import HALF_LINE, Grid, SampledFn, _freeze, multiply_power
from .projections import ThresholdSeq

_SUB_NODES = 12
_GL_SUB = np.polynomial.legendre.leggauss(_SUB_NODES)
_LADDER = 4  # exact cos/sin at every 4th doubled frequency: a doubling doubles the error
_BLOCK_BUDGET = 96  # rows x stack members per _truncated_sups block: caps the prefix tables


@dataclass(frozen=True)
class SupGrid:
    """Finite discretization of sup_{r>0} / sup_{eps>0} / sup_{xi in R}:
    decreasing positive radii (dyadic by default) and a symmetric finite
    frequency set, stored sorted and exactly symmetric (q[::-1] == -q),
    which an operator reading it checks against its grid's resolvable band."""

    radii: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        r, q = _freeze(self.radii), np.asarray(self.frequencies, dtype=float)
        if (r.ndim != 1 or r.size == 0 or not np.isfinite(r).all() or np.any(r <= 0)
                or np.any(np.diff(r) >= 0)):
            raise ArgumentError("radii must be positive and strictly decreasing")
        qs = np.sort(q, axis=None)
        if (q.ndim != 1 or q.size == 0 or not np.isfinite(qs).all()
                or np.max(np.abs(qs + qs[::-1])) > 1e-12 * (1 + np.max(np.abs(q)))):
            raise ArgumentError("frequencies must form a symmetric finite set")
        object.__setattr__(self, "radii", r)
        # exactly symmetric: a - b == -(b - a)
        object.__setattr__(self, "frequencies", _freeze((qs - qs[::-1]) / 2.0))


def default_sup_grid(grid: Grid, t_values=None) -> SupGrid:
    """Dyadic radii 2^8..2^-8 times the support scale (those past it cost nothing);
    frequencies are the t_values as given (an operator refuses one above the
    grid's band), else the octaves in [2^-4, min(2^7, band)], plus 0, reflected."""
    scale = max(abs(grid.lo), abs(grid.hi))
    radii = scale * 2.0 ** np.arange(8, -9, -1)
    if t_values is None:   # a band below 2^-4 (a very coarse grid) leaves xi = 0 alone
        band = min(2.0 ** 7, transforms.resolvable_frequency(grid))
        pos = ThresholdSeq.octaves(2.0 ** -4, band).values if band >= 2.0 ** -4 else np.empty(0)
    else:
        pos = np.asarray(t_values, dtype=float)
    # the sorted set without repeats; np.unique would import numpy.ma, and
    # != keeps a NaN for SupGrid to refuse
    freqs = np.sort(np.concatenate([-pos, [0.0], pos]))
    return SupGrid(radii, freqs[np.r_[True, freqs[1:] != freqs[:-1]]])


def _require_panels(grid: Grid) -> np.ndarray:
    if grid.panel_edges is None:
        raise ArgumentError("this operator needs a grid with panel structure")
    return grid.panel_edges


def _sub_gauss(a, b):
    """Nodes/weights of the fixed Gauss rule on segments [a, b] (batched)."""
    gx, gw = _GL_SUB
    mid, hl = (a + b)[..., None] / 2.0, (b - a)[..., None] / 2.0
    return mid + hl * gx, hl * gw


def _panel_of(edges: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Index of the panel holding each grid node z."""
    return np.clip(np.searchsorted(edges, z, side="right") - 1, 0, edges.size - 2)


def _window_panels(edges: np.ndarray, a, b):
    """The window [a, b] (a <= b) clipped to the support [edges[0], edges[-1]]:
    (first, stop, left cut, right cut) with panels first..stop-1 whole inside it
    and the cut parts [a, edges[first]] and [edges[stop], b], or the one part
    [a, b] when no edge lies inside; an end on an edge cuts nothing."""
    a, b = np.clip(a, edges[0], edges[-1]), np.clip(b, edges[0], edges[-1])
    first = np.searchsorted(edges, a, side="left")
    stop = np.maximum(np.searchsorted(edges, b, side="right") - 1, first)
    return first, stop, (a, np.minimum(edges[first], b)), (edges[stop], b)


def _covering(edges: np.ndarray, z: np.ndarray, radii: np.ndarray) -> int:
    """How many of the decreasing radii reach past the support both ways from every node."""
    return int(np.count_nonzero((z[-1] - radii <= edges[0]) & (z[0] + radii >= edges[-1])))


def _cut_segments(grid: Grid, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The nonempty cut parts [lo, hi] of panels: (cut, nodes, samples) with cut
    the mask of hi > lo, nodes the (K, q) fresh Gauss nodes on those parts and
    samples the (M, K, q) Gauss-weighted values of each of the (M, N) rows there,
    linearly interpolated between grid nodes and held at the end samples between
    the end nodes and the support's edges.  The caller applies its kernel."""
    cut = hi > lo
    nodes, wts = _sub_gauss(lo[cut], hi[cut])
    return cut, nodes, wts * np.stack([np.interp(nodes, grid.points, row) for row in rows])


def _window_integrals(grid: Grid, samples: np.ndarray, windows, kernel=None) -> list:
    """integral_a^b samples(y) kernel(y) dy for each (a, b) in windows, a <= b
    elementwise, as (M, n) rows, one per function of the real (..., N) stack samples.
    Whole panels use the grid weights with node-exact kernel values, their prefix
    sums formed once; the cut parts go through `_cut_segments`."""
    samples = samples.reshape(-1, grid.n)
    integrand = samples if kernel is None else samples * kernel(grid.points)
    edges = _require_panels(grid)
    idx = _panel_of(edges, grid.points)
    masses = [np.bincount(idx, grid.weights * v, edges.size - 1) for v in integrand]
    prefix = np.pad(np.cumsum(masses, axis=-1), ((0, 0), (1, 0)))
    outs = []
    for a, b in windows:
        first, stop, *parts = _window_panels(edges, a, b)
        out = prefix[:, stop] - prefix[:, first]
        for lo, hi in parts:
            cut, nodes, vals = _cut_segments(grid, samples, lo, hi)
            out[:, cut] += np.sum(vals if kernel is None else vals * kernel(nodes), axis=-1)
        outs.append(out)
    return outs


def hardy_littlewood_max(f: SampledFn, sup: SupGrid) -> SampledFn:
    """sup over radii of the window average (1/2r) integral_{x-r}^{x+r} |f|."""
    x = f.grid.points
    radii = sup.radii[max(_covering(_require_panels(f.grid), x, sup.radii) - 1, 0):]  # total/2r
    sums = _window_integrals(f.grid, np.abs(f.values), [(x - r, x + r) for r in radii])
    best = np.max([t / (2.0 * r) for r, t in zip(radii, sums)], axis=0, initial=0.0)
    return f.with_values(best.reshape(f.values.shape))


def conjugate_hardy(f: SampledFn) -> SampledFn:
    """H f(x) = integral_{|x|}^sup-support |f(y)| / y dy."""
    grid, samples, xa = f.grid, np.abs(f.values), np.abs(f.grid.points)
    edges = _require_panels(grid)
    if grid.lo < 0.0:   # integrate over the panels right of the edge at 0
        if not np.any(edges[:-1] == 0.0):
            raise ArgumentError("conjugate_hardy on a grid with lo < 0 needs a panel edge at 0")
        pos = grid.points > 0.0
        samples = samples[..., pos]
        grid = Grid(grid.points[pos], grid.weights[pos], 0.0, grid.hi, edges[edges >= 0.0])
    (vals,) = _window_integrals(grid, samples, [(xa, np.full_like(xa, grid.hi))],
                                kernel=lambda y: 1.0 / y)
    return f.with_values(vals.reshape(f.values.shape))


def _truncated_sups(f: SampledFn, sup: SupGrid, frequencies: np.ndarray) -> np.ndarray:
    """(..., N, Q): per function of the stack f and xi in frequencies (sorted,
    exactly symmetric), the max over eps of |integral_{|x-z|>eps} f(z) e^{-i xi z}/(x-z) dz|
    at the grid nodes x (see the module docstring for the quadrature)."""
    grid, vals = f.grid, f.values.reshape(-1, f.grid.n)
    edges, z = _require_panels(grid), grid.points
    transforms.check_resolution(grid, float(np.max(np.abs(frequencies))))
    M, n_pan, nQ, nP = vals.shape[0], edges.size - 1, frequencies.size, frequencies.size // 2
    parts = np.concatenate([vals.real, vals.imag]) if np.iscomplexobj(vals) else vals  # u, v
    radii = sup.radii[_covering(edges, z, sup.radii):]       # the rest leave windows empty
    pos, Mr, z0 = frequencies[nQ - nP:], parts.shape[0], nQ % 2   # xi > 0; z0: is xi = 0 in
    block = max(8, _BLOCK_BUDGET // M)
    # nodes laid out as (panel, slot); short panels padded with zero-weight slots
    panel_of = _panel_of(edges, z)
    counts = np.bincount(panel_of, minlength=n_pan)
    slot = np.arange(counts.max())
    node = np.minimum(np.searchsorted(panel_of, np.arange(n_pan))[:, None] + slot, z.size - 1)
    zp, wp = z[node], np.where(slot < counts[:, None], grid.weights[node], 0.0)
    mod = np.exp(-1j * zp[..., None] * frequencies[nP:])      # xi >= 0
    mod = np.concatenate([mod.real, -mod.imag[..., z0:]], axis=-1)   # cos at xi >= 0, sin at xi > 0
    gmat = (parts.T[node][..., None] * mod[..., None, :]).reshape(n_pan, slot.size, Mr * nQ)
    best = np.zeros((z.size, Mr, nQ - nP))    # max |T| at xi >= 0; for u + iv, -xi rows first
    left = np.zeros((n_pan + 1, block, Mr * nQ))               # sum of the first i panels
    right = np.zeros((n_pan + 1, block, Mr * nQ))              # ... of the last i panels
    for s in range(0, z.size, block):
        xb = z[s:s + block]
        B = xb.size
        with np.errstate(divide="ignore"):
            kern = 1.0 / (xb[None, :, None] - zp[:, None, :])  # (P, B, m)
        kern[~np.isfinite(kern)] = 0.0  # diagonal is always inside the window
        psum = np.matmul(kern * wp[:, None, :], gmat)          # (P, B, Mr nQ) per-panel sums
        for i in range(n_pan):      # one add per panel: faster than cumsum over axis 0
            np.add(left[i, :B], psum[i], out=left[i + 1, :B])
            np.add(right[i, :B], psum[n_pan - 1 - i], out=right[i + 1, :B])
        # the kept windows [lo, x-eps] and [x+eps, hi] of the support
        _, stop, _, left_cut = _window_panels(edges, edges[0], xb[:, None] - radii)
        first, _, right_cut, _ = _window_panels(edges, xb[:, None] + radii, edges[-1])
        rows = np.arange(B)[:, None]
        res = (left[stop, rows] + right[n_pan - first, rows]).reshape(B, radii.size, Mr, nQ)
        for seg_lo, seg_hi in (left_cut, right_cut):
            cut, nodes, fv = _cut_segments(grid, parts, seg_lo, seg_hi)   # (K, q), (Mr, K, q)
            base = (fv * (1.0 / (xb[np.nonzero(cut)[0], None] - nodes))).transpose(1, 0, 2)
            add = np.empty((nodes.shape[0], Mr, nQ))
            if z0:
                add[..., 0] = base.sum(axis=-1)
            cs = np.empty((2 * nP,) + nodes.shape)              # cos rows, then sin rows
            cos, sin = cs[:nP], cs[nP:]
            for k, xi in enumerate(pos):
                if k % _LADDER and xi == 2.0 * pos[k - 1]:      # double angle
                    cos[k] = (cos[k - 1] - sin[k - 1]) * (cos[k - 1] + sin[k - 1])
                    sin[k] = 2.0 * sin[k - 1] * cos[k - 1]
                else:
                    cos[k], sin[k] = np.cos(nodes * xi), np.sin(nodes * xi)
            add[..., z0:] = transforms._apply_real(cs.transpose(1, 0, 2), base)
            res[cut] += add
        w = np.zeros(res.shape[:-1] + (nQ - nP,), dtype=complex)  # C + iS = T(-xi) of a real part
        w.real[...], w.imag[..., z0:] = res[..., :nQ - nP], res[..., nQ - nP:]
        if Mr > M:    # f = u + iv: T(-xi) = W_u + i W_v and T(xi) = conj(W_u - i W_v)
            w = np.concatenate([w[:, :, :M] + j * w[:, :, M:] for j in (1j, -1j)], axis=2)
        best[s:s + B] = np.max(np.abs(w), axis=1, initial=0.0)
    out = np.concatenate([best[:, :M, z0:][..., ::-1], best[:, -M:]], axis=-1)   # -xi, xi >= 0
    return np.moveaxis(out, 1, 0).reshape(f.values.shape[:-1] + (z.size, nQ))


def maximal_hilbert(f: SampledFn, sup: SupGrid) -> SampledFn:
    """sup over eps of |integral_{|y|>eps} f(x-y)/y dy|."""
    return f.with_values(_truncated_sups(f, sup, np.zeros(1))[..., 0])


def carleson_hunt(f: SampledFn, sup: SupGrid) -> SampledFn:
    """sup over (eps, xi) of |integral_{|y|>eps} e^{i xi y} f(x-y)/y dy|."""
    return f.with_values(np.max(_truncated_sups(f, sup, sup.frequencies), axis=-1))


def prestini_majorant(order: float, f: SampledFn, sup: SupGrid) -> SampledFn:
    """|x|^{-(a+1/2)} (M_HL + H + H* + C)((.)^{a+1/2} f)(|x|) for a half-line f,
    zero beyond its grid like every operator here; the unknown uniform constant
    is left out and estimated empirically by the harness."""
    if f.domain_tag != HALF_LINE:
        raise ArgumentError("prestini_majorant expects a half-line function")
    if f.grid.lo != 0.0:
        raise ArgumentError("prestini_majorant needs a half-line grid with lo = 0")
    g = multiply_power(f, order + 0.5)
    # one pass: H* is the xi = 0 column, which C leaves out unless 0 is in sup
    q, mid = sup.frequencies, sup.frequencies.size // 2
    sups = _truncated_sups(g, sup, q if q.size % 2 else np.insert(q, mid, 0.0))
    car = np.max(sups if q.size % 2 else np.delete(sups, mid, axis=-1), axis=-1)
    total = hardy_littlewood_max(g, sup).values + conjugate_hardy(g).values + sups[..., mid] + car
    return multiply_power(f.with_values(total), -(order + 0.5))
