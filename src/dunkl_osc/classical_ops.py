"""Hardy-Littlewood maximal function, conjugate Hardy operator, maximal
Hilbert transform, Carleson-Hunt maximal operator, and the pointwise
majorant |x|^{-(a+1/2)} (M_HL + H + H* + C)((.)^{a+1/2} f)(|x|) that
dominates Hankel partial sums.

Quadrature strategy: whole panels use the grid's own Gauss-Legendre weights
with node-exact kernels (1/y, 1/(x-z), modulations), summed once per panel;
a window or truncation reads the panels it keeps from a left prefix (panels
before it) and a right suffix (panels after it), both sums of kept terms
only.  The two panels it cuts are re-quadratured on their kept parts with a
fresh Gauss rule, at samples linearly interpolated between grid nodes, so
truncation boundaries cost no node-snapping error.  Modulations on cut
panels take cos and sin on the positive half of the symmetric frequency set
(-xi by conjugate symmetry, xi = 0 as the plain sum).

Every operator acts along the last axis of a (..., N) SampledFn stack; the
geometry of an evaluation block (1/(x-z) kernel, window searches, cut-panel
nodes and cos/sin ladder) is built once and shared by the whole stack.
Suprema over radii/frequencies are taken over a finite SupGrid, iterated in
a fixed order; enlarging the SupGrid never decreases any output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ResolutionError
from .funcspace import FULL_LINE, HALF_LINE, Grid, SampledFn, _freeze

_SUB_NODES = 12
_GL_SUB = np.polynomial.legendre.leggauss(_SUB_NODES)
_LADDER = 4  # exact cos/sin at every 4th doubled frequency: a doubling doubles the error
_BLOCK_BUDGET = 96  # rows x stack members per _truncated_sups block: caps the prefix tables


@dataclass(frozen=True)
class SupGrid:
    """Finite discretization of sup_{r>0} / sup_{eps>0} / sup_{xi in R}:
    decreasing positive radii (dyadic by default) and a symmetric finite
    frequency set, stored sorted and exactly symmetric (q[::-1] == -q)."""

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
    """Dyadic radii 2^8..2^-8 times the support scale; frequencies are the
    cut thresholds (plus 0), reflected to a symmetric set and capped at the
    grid's resolvable modulation band."""
    scale = max(abs(grid.lo), abs(grid.hi))
    radii = scale * 2.0 ** np.arange(8, -9, -1)
    pos = 2.0 ** np.arange(-4, 8) if t_values is None else np.asarray(t_values, dtype=float)
    pos = pos[pos * grid.max_spacing <= np.pi / 3.0]
    freqs = np.unique(np.concatenate([-pos, [0.0], pos]))
    return SupGrid(radii, freqs)


def _require_panels(grid: Grid) -> np.ndarray:
    if grid.panel_edges is None:
        raise ArgumentError("this operator needs a grid with panel structure")
    return grid.panel_edges


def _sub_gauss(a, b):
    """Nodes/weights of the fixed Gauss rule on segments [a, b] (batched)."""
    gx, gw = _GL_SUB
    mid, hl = (a + b)[..., None] / 2.0, (b - a)[..., None] / 2.0
    return mid + hl * gx, hl * gw


def _window_integrals(grid: Grid, samples: np.ndarray, windows, kernel=None) -> list:
    """integral_a^b samples(y) kernel(y) dy for each (a, b) in windows, a <= b
    elementwise, as (M, n) rows, one per function of the real (..., N) stack samples.
    Whole panels use the grid weights with node-exact kernel values, their prefix sums
    formed once; the cut panels are re-quadratured with interpolated samples."""
    samples = samples.reshape(-1, grid.n)
    integrand = samples if kernel is None else samples * kernel(grid.points)
    edges = _require_panels(grid)
    idx = np.clip(np.searchsorted(edges, grid.points, side="right") - 1, 0, edges.size - 2)
    masses = [np.bincount(idx, grid.weights * v, edges.size - 1) for v in integrand]
    prefix = np.pad(np.cumsum(masses, axis=-1), ((0, 0), (1, 0)))

    def seg(lo, hi):
        nodes, wts = _sub_gauss(lo, hi)
        v = np.stack([np.interp(nodes, grid.points, row, 0.0, 0.0) for row in samples])
        if kernel is not None:
            v = v * kernel(nodes)
        return np.sum(wts * v, axis=-1)

    outs = []
    for a, b in windows:
        a = np.clip(a, edges[0], edges[-1])
        b = np.clip(b, edges[0], edges[-1])
        ia = np.clip(np.searchsorted(edges, a, side="right") - 1, 0, edges.size - 2)
        ib = np.clip(np.searchsorted(edges, b, side="right") - 1, 0, edges.size - 2)
        same, diff = ia == ib, ia != ib
        out = np.zeros((samples.shape[0],) + a.shape)
        out[:, same] = seg(a[same], b[same])
        full = prefix[:, ib[diff]] - prefix[:, ia[diff] + 1]
        out[:, diff] = full + seg(a[diff], edges[ia[diff] + 1]) + seg(edges[ib[diff]], b[diff])
        outs.append(out)
    return outs


def _hl_sups(grid: Grid, samples: np.ndarray, radii: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(M, xs.size): sup over radii of the window averages of samples about xs."""
    sums = _window_integrals(grid, samples, [(xs - r, xs + r) for r in radii])
    return np.max([t / (2.0 * r) for r, t in zip(radii, sums)], axis=0, initial=0.0)


def hardy_littlewood_max(f: SampledFn, sup: SupGrid) -> SampledFn:
    """sup over radii of the window average (1/2r) integral_{x-r}^{x+r} |f|."""
    best = _hl_sups(f.grid, np.abs(f.values), sup.radii, f.grid.points)
    return f.with_values(best.reshape(f.values.shape))


def _conjugate_hardy_at(f: SampledFn, xa: np.ndarray) -> np.ndarray:
    """(M, xa.size): integral_{xa}^sup-support |f(y)| / y dy at points xa >= 0."""
    grid, samples = f.grid, np.abs(f.values)
    edges = _require_panels(grid)
    if grid.lo < 0.0:   # integrate over the panels right of the edge at 0
        if not np.any(edges[:-1] == 0.0):
            raise ArgumentError("conjugate_hardy on a grid with lo < 0 needs a panel edge at 0")
        pos = grid.points > 0.0
        samples = samples[..., pos]
        grid = Grid(grid.points[pos], grid.weights[pos], 0.0, grid.hi, edges[edges >= 0.0])
    with np.errstate(divide="ignore"):
        (vals,) = _window_integrals(grid, samples, [(xa, np.full_like(xa, grid.hi))],
                                    kernel=lambda y: 1.0 / y)
    vals[:, xa >= grid.hi] = 0.0
    return vals


def conjugate_hardy(f: SampledFn) -> SampledFn:
    """H f(x) = integral_{|x|}^sup-support |f(y)| / y dy."""
    return f.with_values(_conjugate_hardy_at(f, np.abs(f.grid.points)).reshape(f.values.shape))


def _truncated_sups(f: SampledFn, sup: SupGrid, frequencies: np.ndarray,
                    eval_idx: np.ndarray | None = None) -> np.ndarray:
    """(..., n_eval, Q): per function of the stack f and xi in frequencies (sorted,
    exactly symmetric), the max over eps of |integral_{|x-z|>eps} f(z) e^{-i xi z}/(x-z) dz|
    at the grid nodes x[eval_idx] (see the module docstring for the quadrature)."""
    grid, vals = f.grid, f.values.reshape(-1, f.grid.n)
    edges, z = _require_panels(grid), grid.points
    if np.max(np.abs(frequencies)) * grid.max_spacing > np.pi / 3.0:
        raise ResolutionError("modulation frequency beyond the grid's resolvable band")
    xs = z if eval_idx is None else z[eval_idx]
    M, n_pan, nQ, nP = vals.shape[0], edges.size - 1, frequencies.size, frequencies.size // 2
    pos = frequencies[nQ - nP:]                                # xi > 0, ascending
    block = max(8, _BLOCK_BUDGET // M)
    # nodes laid out as (panel, slot); short panels padded with zero-weight slots
    panel_of = np.clip(np.searchsorted(edges, z, side="right") - 1, 0, n_pan - 1)
    counts = np.bincount(panel_of, minlength=n_pan)
    slot = np.arange(counts.max())
    node = np.minimum(np.searchsorted(panel_of, np.arange(n_pan))[:, None] + slot, z.size - 1)
    zp, wp = z[node], np.where(slot < counts[:, None], grid.weights[node], 0.0)
    gmat = (vals.T[node][..., None] * np.exp(-1j * zp[..., None, None] * frequencies)).view(float)
    gmat = gmat.reshape(n_pan, slot.size, M * 2 * nQ)          # columns (member, xi, re/im)
    out = np.zeros((xs.size, M, nQ))
    left = np.zeros((n_pan + 1, block, M * 2 * nQ))            # sum of the first i panels
    right = np.zeros((n_pan + 1, block, M * 2 * nQ))           # ... of the last i panels
    for s in range(0, xs.size, block):
        xb = xs[s:s + block]
        B = xb.size
        with np.errstate(divide="ignore"):
            kern = 1.0 / (xb[None, :, None] - zp[:, None, :])  # (P, B, m)
        kern[~np.isfinite(kern)] = 0.0  # diagonal is always inside the window
        psum = np.matmul(kern * wp[:, None, :], gmat)          # (P, B, 2MQ) per-panel sums
        for i in range(n_pan):      # one add per panel: faster than cumsum over axis 0
            np.add(left[i, :B], psum[i], out=left[i + 1, :B])
            np.add(right[i, :B], psum[n_pan - 1 - i], out=right[i + 1, :B])
        lo_w = xb[:, None] - sup.radii[None, :]                # (B, E)
        hi_w = xb[:, None] + sup.radii[None, :]
        ia = np.clip(np.searchsorted(edges, lo_w, side="right") - 1, 0, n_pan - 1)
        ib = np.clip(np.searchsorted(edges, hi_w, side="right") - 1, 0, n_pan - 1)
        rows = np.arange(B)[:, None]
        res = (left[ia, rows] + right[n_pan - 1 - ib, rows]).view(complex).reshape(B, -1, M, nQ)
        # kept parts of the cut panels, [panel_lo, x-eps] and [x+eps, panel_hi];
        # empty ones (window end beyond the support) add nothing and are skipped
        xe = np.broadcast_to(xb[:, None], lo_w.shape)
        for seg_lo, seg_hi in ((edges[ia], np.minimum(lo_w, edges[ia + 1])),
                               (np.maximum(hi_w, edges[ib]), edges[ib + 1])):
            seg_hi = np.maximum(seg_lo, np.clip(seg_hi, edges[0], edges[-1]))
            seg_lo = np.clip(seg_lo, edges[0], edges[-1])
            cut = seg_hi > seg_lo
            nodes, wts = _sub_gauss(seg_lo[cut], seg_hi[cut])   # (K, q)
            fv = np.stack([np.interp(nodes, z, v, left=0.0, right=0.0) for v in vals])
            base = wts * fv * (1.0 / (xe[cut][:, None] - nodes))  # (M, K, q)
            add = np.empty((nodes.shape[0], M, nQ), dtype=complex)
            if nQ % 2:
                add[..., nP] = base.sum(axis=-1).T
            if nP:
                cs = np.empty((2 * nP,) + nodes.shape)          # cos rows, then sin rows
                cos, sin = cs[:nP], cs[nP:]
                for k, xi in enumerate(pos):
                    if k % _LADDER and xi == 2.0 * pos[k - 1]:  # double angle
                        cos[k] = (cos[k - 1] - sin[k - 1]) * (cos[k - 1] + sin[k - 1])
                        sin[k] = 2.0 * sin[k - 1] * cos[k - 1]
                    else:
                        cos[k], sin[k] = np.cos(nodes * xi), np.sin(nodes * xi)
                reim = np.stack([base.real, base.imag], axis=1).transpose(2, 1, 0, 3)
                parts = reim.reshape(nodes.shape[0], 2 * M, -1) @ cs.transpose(1, 2, 0)
                (rc, rs), (ic, is_) = parts.reshape(-1, 2, M, 2, nP).transpose(1, 3, 0, 2, 4)
                np.add(rc, is_, out=add.real[..., nQ - nP:])
                np.subtract(ic, rs, out=add.imag[..., nQ - nP:])
                np.subtract(rc, is_, out=add.real[..., nP - 1::-1])
                np.add(ic, rs, out=add.imag[..., nP - 1::-1])
            res[cut] += add
        out[s:s + B] = np.max(np.abs(res), axis=1)
    return np.moveaxis(out, 1, 0).reshape(f.values.shape[:-1] + (xs.size, nQ))


def maximal_hilbert(f: SampledFn, sup: SupGrid) -> SampledFn:
    """sup over eps of |integral_{|y|>eps} f(x-y)/y dy|."""
    return f.with_values(_truncated_sups(f, sup, np.zeros(1))[..., 0])


def carleson_hunt(f: SampledFn, sup: SupGrid) -> SampledFn:
    """sup over (eps, xi) of |integral_{|y|>eps} e^{i xi y} f(x-y)/y dy|."""
    return f.with_values(np.max(_truncated_sups(f, sup, sup.frequencies), axis=-1))


def _even_zero_extension(f: SampledFn) -> SampledFn:
    """Half-line f (grid lo = 0) viewed on the full line, zero on the negative axis."""
    g = f.grid
    edges = _require_panels(g)
    pts = np.concatenate([-g.points[::-1], g.points])
    wts = np.concatenate([g.weights[::-1], g.weights])
    full = Grid(pts, wts, -g.hi, g.hi, np.concatenate([-edges[::-1], edges[1:]]))
    vals = np.concatenate([np.zeros_like(f.values), f.values], axis=-1)
    return SampledFn(full, vals, FULL_LINE)


def prestini_majorant(order: float, f: SampledFn, sup: SupGrid) -> SampledFn:
    """|x|^{-(a+1/2)} (M_HL + H + H* + C)((.)^{a+1/2} f)(|x|) for a
    half-line f extended by zero; the unknown uniform constant is left out
    and estimated empirically by the harness."""
    if f.domain_tag != HALF_LINE:
        raise ArgumentError("prestini_majorant expects a half-line function")
    if f.grid.lo != 0.0:
        raise ArgumentError("prestini_majorant needs a half-line grid with lo = 0")
    fx = _even_zero_extension(f)
    a = float(order)
    g = fx.with_values(fx.values * np.abs(fx.grid.points) ** (a + 0.5))
    pos_idx = np.arange(fx.grid.n // 2, fx.grid.n)
    xs = fx.grid.points[pos_idx]   # M_HL and H only at the kept nodes x > 0
    mhl = _hl_sups(fx.grid, np.abs(g.values), sup.radii, xs).reshape(f.values.shape)
    hop = _conjugate_hardy_at(g, xs).reshape(f.values.shape)
    # one pass: H* is the xi = 0 column, which C leaves out unless 0 is in sup
    q, mid = sup.frequencies, sup.frequencies.size // 2
    sups = _truncated_sups(g, sup, q if q.size % 2 else np.insert(q, mid, 0.0), pos_idx)
    hst = sups[..., mid]
    car = np.max(sups if q.size % 2 else np.delete(sups, mid, axis=-1), axis=-1)
    total = (mhl + hop + hst + car) * f.grid.points ** (-(a + 0.5))
    return f.with_values(total)
