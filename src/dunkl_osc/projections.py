"""Sharp frequency-cut partial sum operators and precomputed families.

A partial sum is realized as: forward transform, multiply by the indicator
of [0, t] (node mask on the frequency grid), inverse transform.  Masks make
the family an exact projection lattice on the discrete frequency samples:
composing two partial sums multiplies their masks, so P_s P_t = P_min holds
to floating-point exactness.  Cut thresholds are snapped to midpoints
between adjacent frequency nodes so the node mask is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ResolutionError
from .funcspace import (FULL_LINE, HALF_LINE, Grid, SampledFn,
                        even_odd_split)
from . import transforms
from .transforms import frequency_grid


@dataclass(frozen=True)
class ThresholdSeq:
    """Strictly increasing positive thresholds (cut levels / t-grid)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ArgumentError("threshold sequence must be a nonempty 1-d array")
        if np.any(v <= 0.0) or np.any(np.diff(v) <= 0.0):
            raise ArgumentError("thresholds must be positive and strictly increasing")
        vv = np.ascontiguousarray(v)
        vv.flags.writeable = False
        object.__setattr__(self, "values", vv)

    def __len__(self):
        return self.values.size

    @property
    def is_dyadic(self) -> bool:
        m, _ = np.frexp(self.values)
        return bool(np.all(m == 0.5))

    @classmethod
    def geometric(cls, t_min: float, t_max: float, count: int) -> "ThresholdSeq":
        return cls(np.geomspace(t_min, t_max, count))

    @classmethod
    def dyadic(cls, k_min: int, k_max: int) -> "ThresholdSeq":
        return cls(2.0 ** np.arange(k_min, k_max + 1))

    @classmethod
    def union(cls, *seqs: "ThresholdSeq") -> "ThresholdSeq":
        vals = np.unique(np.concatenate([s.values for s in seqs]))
        return cls(vals)


def snap_threshold(t: float, freq_points: np.ndarray) -> float:
    """Move t to the midpoint of the node gap it falls in, so the node mask
    |node| <= t is an exact, unambiguous comparison."""
    pos = freq_points[freq_points > 0.0]
    i = int(np.searchsorted(pos, t, side="right"))
    if i == 0:
        return float(pos[0] / 2.0)
    if i >= pos.size:
        return float(pos[-1] + 1.0)
    return float(0.5 * (pos[i - 1] + pos[i]))


@dataclass(frozen=True)
class PartialSumFamily:
    """Rows S_t f over a threshold grid, sharing one forward transform.

    values[i, j] = S_{t_i} f (x_j) on the base grid.  The private spectral
    payload lets composed projections reuse the cached spectrum."""

    base: SampledFn
    order: float
    kind: str
    t_grid: ThresholdSeq
    values: np.ndarray
    _spectral: tuple = field(repr=False, default=())

    def __post_init__(self):
        if self.values.shape != (len(self.t_grid), self.base.grid.n):
            raise ArgumentError("family matrix must be (len(t_grid), grid.n)")

    def row(self, i: int) -> SampledFn:
        return SampledFn(self.base.grid, self.values[i], self.base.domain_tag)

    def max_abs(self) -> SampledFn:
        return SampledFn(self.base.grid, np.max(np.abs(self.values), axis=0),
                         self.base.domain_tag)


def _hankel_forward_parts(order: float, f: SampledFn, half_freq: Grid):
    """Even/odd half-line spectra of a full-line function: E = Hk_a f_e and
    O = Hk_{a+1}(f_o / .)."""
    fe, fo = even_odd_split(f)
    e_spec = transforms.hankel(order, fe, half_freq)
    fo_over = fo.with_values(fo.values / fo.grid.points)
    o_spec = transforms.hankel(order + 1.0, fo_over, half_freq)
    return e_spec, o_spec


def _check_band(t: float, half_freq: Grid) -> None:
    if t > half_freq.hi:
        raise ResolutionError(
            f"cut t={t:g} exceeds the resolvable frequency band {half_freq.hi:g}")


def _mask(half_freq: Grid, t: float) -> np.ndarray:
    ts = snap_threshold(t, half_freq.points)
    return half_freq.points <= ts


def dunkl_partial_sum(order: float, f: SampledFn, t: float,
                      freq_grid: Grid | None = None,
                      route: str = "decomposition") -> SampledFn:
    """S_t f = inverse Dunkl of 1_{[-t,t]} times the Dunkl transform of f.

    The default route cuts the half-line spectra of the even/odd parts; the
    'direct' route masks the full-line Dunkl spectrum.  Both apply the same
    node mask, so they differ only in floating-point rearrangement.
    """
    if f.domain_tag != FULL_LINE:
        raise ArgumentError("dunkl_partial_sum needs a full-line function")
    if freq_grid is None:
        freq_grid = frequency_grid(f.grid)
    half_freq = freq_grid.positive_half() if freq_grid.is_symmetric else freq_grid
    _check_band(t, half_freq)
    if route == "direct":
        full = freq_grid if freq_grid.is_symmetric else None
        if full is None:
            raise ArgumentError("direct route needs a symmetric frequency grid")
        spec = transforms.dunkl(order, f, full)
        ts = snap_threshold(t, half_freq.points)
        cut = spec.with_values(np.where(np.abs(full.points) <= ts, spec.values, 0.0))
        return transforms.dunkl_inverse(order, cut, f.grid)
    e_spec, o_spec = _hankel_forward_parts(order, f, half_freq)
    m = _mask(half_freq, t)
    e_cut = e_spec.with_values(np.where(m, e_spec.values, 0.0))
    o_cut = o_spec.with_values(np.where(m, o_spec.values, 0.0))
    half_out = f.grid.positive_half()
    se = transforms.hankel(order, e_cut, half_out)
    so = transforms.hankel(order + 1.0, o_cut, half_out)
    vals = np.concatenate([(se.values - half_out.points * so.values)[::-1],
                           se.values + half_out.points * so.values])
    return SampledFn(f.grid, vals, FULL_LINE)


def dunkl_partial_sum_iterated(order: float, f: SampledFn, ts,
                               freq_grid: Grid | None = None) -> SampledFn:
    """S_{t_k} ... S_{t_1} f.  Projections commute through their masks: the
    composition applies every cut to the shared spectrum, then inverts once."""
    if f.domain_tag != FULL_LINE:
        raise ArgumentError("needs a full-line function")
    if freq_grid is None:
        freq_grid = frequency_grid(f.grid)
    half_freq = freq_grid.positive_half() if freq_grid.is_symmetric else freq_grid
    for t in ts:
        _check_band(t, half_freq)
    e_spec, o_spec = _hankel_forward_parts(order, f, half_freq)
    ev, ov = e_spec.values, o_spec.values
    for t in ts:
        m = _mask(half_freq, t)
        ev = np.where(m, ev, 0.0)
        ov = np.where(m, ov, 0.0)
    half_out = f.grid.positive_half()
    se = transforms.hankel(order, e_spec.with_values(ev), half_out)
    so = transforms.hankel(order + 1.0, o_spec.with_values(ov), half_out)
    vals = np.concatenate([(se.values - half_out.points * so.values)[::-1],
                           se.values + half_out.points * so.values])
    return SampledFn(f.grid, vals, FULL_LINE)


def hankel_partial_sum(order: float, f: SampledFn, t: float,
                       freq_grid: Grid | None = None) -> SampledFn:
    """S~_t f = Hk_a (1_[0,t] Hk_a f) on the half line."""
    return hankel_partial_sum_iterated(order, f, [t], freq_grid)


def hankel_partial_sum_iterated(order: float, f: SampledFn, ts,
                                freq_grid: Grid | None = None) -> SampledFn:
    """S~_{t_k} ... S~_{t_1} f: every cut applied to the shared spectrum,
    one inverse transform."""
    if f.domain_tag != HALF_LINE:
        raise ArgumentError("hankel_partial_sum needs a half-line function")
    if freq_grid is None:
        freq_grid = frequency_grid(f.grid)
    if freq_grid.is_symmetric:
        freq_grid = freq_grid.positive_half()
    for t in ts:
        _check_band(t, freq_grid)
    spec = transforms.hankel(order, f, freq_grid)
    vals = spec.values
    for t in ts:
        vals = np.where(_mask(freq_grid, t), vals, 0.0)
    return transforms.hankel(order, spec.with_values(vals), f.grid)


def fourier_partial_sum(f: SampledFn, t: float,
                        freq_grid: Grid | None = None) -> SampledFn:
    """Sharp Fourier frequency truncation to [-t, t]; the order -1/2 Dunkl
    partial sum through the closed trigonometric kernels."""
    return dunkl_partial_sum(-0.5, f, t, freq_grid)


def radial_partial_sum(dimension: int, f0: SampledFn, t: float,
                       freq_grid: Grid | None = None) -> SampledFn:
    """Radial profile of the ball-truncated Fourier partial sum in n
    dimensions: the Hankel partial sum at order (n-2)/2."""
    if dimension < 1:
        raise ArgumentError("dimension must be >= 1")
    return hankel_partial_sum((dimension - 2) / 2.0, f0, t, freq_grid)


def build_family(order: float, f: SampledFn, t_grid: ThresholdSeq,
                 freq_grid: Grid | None = None, kind: str | None = None) -> PartialSumFamily:
    """All rows S_t f for t in t_grid; the forward transform is computed
    once and each row costs one inverse mat-vec (batched)."""
    if kind is None:
        kind = "dunkl" if f.domain_tag == FULL_LINE else "hankel"
    if freq_grid is None:
        freq_grid = frequency_grid(f.grid)
    half_freq = freq_grid.positive_half() if freq_grid.is_symmetric else freq_grid
    _check_band(float(t_grid.values[-1]), half_freq)
    masks = np.stack([_mask(half_freq, t) for t in t_grid.values])  # (T, F)
    if kind in ("dunkl", "fourier"):
        if kind == "fourier":
            order = -0.5
        e_spec, o_spec = _hankel_forward_parts(order, f, half_freq)
        half_out = f.grid.positive_half()
        me = transforms._j_matrix(order, half_out, half_freq)
        mo = transforms._j_matrix(order + 1.0, half_out, half_freq)
        xi = half_freq.points
        we = half_freq.weights * xi ** (2.0 * order + 1.0)
        wo = half_freq.weights * xi ** (2.0 * order + 3.0)
        se = transforms._apply_real(me, (masks * (we * e_spec.values)).T)   # (Nhalf, T)
        so = transforms._apply_real(mo, (masks * (wo * o_spec.values)).T)
        xpos = half_out.points[:, None]
        rows = np.concatenate([(se - xpos * so)[::-1, :], se + xpos * so], axis=0).T
        payload = ("dunkl", half_freq, e_spec.values, o_spec.values)
    elif kind == "hankel":
        spec = transforms.hankel(order, f, half_freq)
        mat = transforms._j_matrix(order, f.grid, half_freq)
        wt = half_freq.weights * half_freq.points ** (2.0 * order + 1.0)
        rows = transforms._apply_real(mat, (masks * (wt * spec.values)).T).T
        payload = ("hankel", half_freq, spec.values)
    else:
        raise ArgumentError(f"unknown family kind {kind!r}")
    return PartialSumFamily(f, float(order), kind, t_grid, rows, payload)


def family_to_csv(path_or_buf, family: PartialSumFamily) -> None:
    """Matrix CSV: header row of t values (first column is x)."""
    own = isinstance(path_or_buf, (str, bytes))
    buf = open(path_or_buf, "w") if own else path_or_buf
    try:
        buf.write("x," + ",".join(f"{t:.17g}" for t in family.t_grid.values) + "\n")
        for j, x in enumerate(family.base.grid.points):
            row = ",".join(repr(complex(v)) for v in family.values[:, j])
            buf.write(f"{x:.17g},{row}\n")
    finally:
        if own:
            buf.close()
