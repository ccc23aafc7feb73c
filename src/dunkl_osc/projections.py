"""Sharp frequency-cut partial sums S_t f = D_a^{-1} 1_{[-t,t]} D_a f and
their families over a t-grid, all rows of one spectral-cut pipeline.

_cut_plan makes one forward transform, applies the (U, F) matrix of the
distinct masks (cut list i masks by the product of its cuts' masks), and
plans one inverse Hankel transform per parity (transforms._hankel_plan,
which owns the quadrature and the resolution guard), which _cut_rows
carries out alone and the identity suite with its other inverse
transforms: the full-line Dunkl spectrum is cut through the
half-line spectra E = Hk_a f_e and O = Hk_{a+1}(f_o/y) of the even and
odd parts, and the U rows are reassembled by parity before they are
copied to the T cut lists; a (..., N) stack gives C-ordered (..., T, N)
rows of its dtype (a float64 f has real spectra and rows).  build_family
passes one cut per row and a partial sum is a one-row family.  A cut t
keeps the frequency nodes |xi| <= t, counted by one search over all cuts
of a call; a cut list keeps the product of its masks, and equal masks
share one computed row, so P_s P_t = P_min holds exactly for the masks
(the projection-algebra identity), not for two composed partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ResolutionError
from .funcspace import (FULL_LINE, HALF_LINE, Grid, SampledFn, _freeze, _text_file,
                        assemble_values)
from . import transforms


@dataclass(frozen=True)
class ThresholdSeq:
    """Strictly increasing positive thresholds (cut levels / t-grid)."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 1 or v.size == 0:
            raise ArgumentError("threshold sequence must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ArgumentError("thresholds must be finite")
        if np.any(v <= 0.0) or np.any(np.diff(v) <= 0.0):
            raise ArgumentError("thresholds must be positive and strictly increasing")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size

    @classmethod
    def octaves(cls, lo: float, hi: float, per_octave: int = 1) -> "ThresholdSeq":
        """Every 2^{k/per_octave} in [lo, hi]: per_octave points per octave,
        containing the dyadic points in range, so the ladder is closed under
        the dilations lambda in {1/2, 2} away from its ends."""
        k = np.arange(int(np.ceil(per_octave * np.log2(lo))),
                      int(np.floor(per_octave * np.log2(hi))) + 1)
        return cls(2.0 ** (k / per_octave))


def default_t_grid(freq_grid: Grid) -> ThresholdSeq:
    """Octave eighths across [band/2^10, 0.45 band] of the frequency grid's
    band: a dilation by 1/2 or 2 keeps the grid inside the band."""
    band = freq_grid.hi
    return ThresholdSeq.octaves(band / 2.0 ** 10, 0.45 * band, 8)


@dataclass(frozen=True)
class PartialSumFamily:
    """Rows S_t f over a threshold grid, sharing one forward transform:
    values[..., i, j] = S_{t_i} f (x_j) on the base grid, for a base that
    is one function or a (..., N) stack of them."""

    base: SampledFn
    t_grid: ThresholdSeq
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.base.values.shape[:-1] + (len(self.t_grid), self.base.grid.n):
            raise ArgumentError("family matrix must be (..., len(t_grid), grid.n)")

    def max_abs(self) -> SampledFn:
        return SampledFn(self.base.grid, np.max(np.abs(self.values), axis=-2),
                         self.base.domain_tag)


def _cut_plan(order: float, f: SampledFn, cut_lists, freq_grid: Grid | None,
              kind: str, parts=None) -> transforms._Plan:
    """The plan of the (..., len(cut_lists), f.grid.n) rows S_{cut list} f
    of the single pipeline for a (..., f.grid.n) stack f: kind 'hankel'
    cuts the Hankel spectrum of a half-line f, kind 'dunkl' the Dunkl
    spectrum of a full-line f, whose parity spectra (E, O) on the positive
    half of freq_grid (transforms._parts_plan) are parts when the caller
    already has them.  The forward transform is made here, and the inverse
    Hankel transforms of the masked spectra are the plan's requests.  Every
    cut is checked to be finite and in the band, and the inverse
    (transforms._hankel_plan) against the resolution guard."""
    want = FULL_LINE if kind == "dunkl" else HALF_LINE
    if f.domain_tag != want:
        raise ArgumentError(f"{kind} partial sums need a {want.replace('_', '-')} function")
    if freq_grid is None:
        freq_grid = transforms.frequency_grid(f.grid)
    half_freq = freq_grid.positive_half() if freq_grid.is_symmetric else freq_grid
    flat = np.array([t for ts in cut_lists for t in ts], dtype=float)
    if not np.all(np.isfinite(flat)):
        raise ArgumentError("cuts must be finite")
    over = flat[flat > half_freq.hi]
    if over.size:
        raise ResolutionError(
            f"cut t={over[0]:g} exceeds the resolvable frequency band {half_freq.hi:g}")
    # cut list i keeps the nodes up to its lowest cut (an empty list cuts
    # nothing): the (U, F) masks of the distinct node counts, ascending
    counts = iter(np.searchsorted(half_freq.points, flat, side="right"))
    lowest = [min((next(counts) for _ in ts), default=half_freq.n) for ts in cut_lists]
    distinct, row_of = np.unique(lowest, return_inverse=True)
    masks = np.arange(half_freq.n) < distinct[:, None]
    if want == HALF_LINE:
        out_grid = f.grid
        orders, specs = [order], [transforms.hankel(order, f, half_freq)]
    else:
        out_grid = f.grid.positive_half()
        orders = [order, order + 1.0]
        specs = parts or transforms._run([transforms._parts_plan(order, f, half_freq)])[0]

    def finish(*inverses):   # (..., U, N_out) rows per parity
        rows = [g.values for g in inverses]
        if want == FULL_LINE:   # the rows are read-only: x O is a new buffer
            rows = [assemble_values(rows[0], rows[1] * out_grid.points)]
        return np.take(rows[0], row_of, axis=-2)
    return transforms._joined([transforms._hankel_plan(
        a, spec.with_values(masks * spec.values[..., None, :]), out_grid)
        for a, spec in zip(orders, specs)], finish)


def _cut_rows(order: float, f: SampledFn, cut_lists, freq_grid: Grid | None,
              kind: str) -> np.ndarray:
    """The rows of _cut_plan, made alone."""
    return transforms._run([_cut_plan(order, f, cut_lists, freq_grid, kind)])[0]


def dunkl_partial_sum(order: float, f: SampledFn, t: float,
                      freq_grid: Grid | None = None) -> SampledFn:
    """S_t f = inverse Dunkl of 1_{[-t,t]} times the Dunkl transform of f:
    a one-row spectral cut, which masks the half-line spectra of the even
    and odd parts with the same node mask."""
    return SampledFn(f.grid, _cut_rows(order, f, [[t]], freq_grid, "dunkl")[..., 0, :], FULL_LINE)


def hankel_partial_sum(order: float, f: SampledFn, t: float,
                       freq_grid: Grid | None = None) -> SampledFn:
    """S~_t f = Hk_a (1_[0,t] Hk_a f) on the half line."""
    return SampledFn(f.grid, _cut_rows(order, f, [[t]], freq_grid, "hankel")[..., 0, :], HALF_LINE)


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
                 freq_grid: Grid | None = None) -> PartialSumFamily:
    """All rows S_t f for t in t_grid: one spectral-cut row per threshold,
    sharing one forward transform and one inverse GEMM per parity; a
    (..., N) stack f gives (..., len(t_grid), N) rows.  A full-line f gets
    the Dunkl partial sums, a half-line f the Hankel ones."""
    kind = "dunkl" if f.domain_tag == FULL_LINE else "hankel"
    rows = _cut_rows(order, f, [[t] for t in t_grid.values], freq_grid, kind)
    return PartialSumFamily(f, t_grid, rows)


def family_to_csv(path_or_buf, family: PartialSumFamily) -> None:
    """Matrix CSV of a one-function family: header row of t values (first
    column is x)."""
    if family.values.ndim != 2:
        raise ArgumentError("family_to_csv writes the family of one function, not a stack")
    with _text_file(path_or_buf, "w") as buf:
        buf.write("x," + ",".join(f"{t:.17g}" for t in family.t_grid.values) + "\n")
        for j, x in enumerate(family.base.grid.points):
            row = ",".join(repr(complex(v)) for v in family.values[:, j])
            buf.write(f"{x:.17g},{row}\n")
