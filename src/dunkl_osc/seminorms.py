"""Truncated oscillation seminorm and r-variation seminorm of a partial-sum
family.

Both seminorms take their supremum over cuts drawn from the family's finite
t-grid, and both are exact there, by one quadratic dynamic program over the
last element of a chain (`_chain_sup`): a selection for `variation`, a cut
sequence for `max_oscillation`, in O(K^2 N) over the K rows that start or
end a run of equal rows (49 of 71 at the N=512 and N=1024 sweep grids).
`oscillation` evaluates one fixed cut sequence.  Each reduces the family's
t axis (axis -2), so the family of a (..., N) stack gives one (..., N)
result, row for row equal to the lone calls.  A squared gap sums the parts
that the values' dtype has (`_parts`), so a float64 family costs half of its
complex128 cast and gives the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .funcspace import SampledFn
from .projections import PartialSumFamily, ThresholdSeq

MAX_VARIATION_R = 1000.0   # 2^-r, the least r-th power of the largest scaled gap, is normal


def _cut_indices(family: PartialSumFamily, cuts: ThresholdSeq) -> np.ndarray:
    tg = family.t_grid.values
    idx = np.clip(np.searchsorted(tg, cuts.values), 0, tg.size - 1)
    if not np.all(np.isclose(tg[idx], cuts.values, rtol=1e-12, atol=0.0)):
        raise ArgumentError("every cut must belong to the family's t-grid")
    return idx


def _parts(values: np.ndarray) -> np.ndarray:
    """The (P, ..., T, N) stack of the real components of values: (re,) for
    float64 values, a view, and (re, im) for complex ones."""
    return np.stack([values.real, values.imag]) if np.iscomplexobj(values) else values[None]


def _sq_gaps(parts: np.ndarray, t: int, rows: slice, out: np.ndarray) -> np.ndarray:
    """|a_i - a_t|^2 for i in rows as the sum over parts (see _parts) of the
    squared gaps, written into out[0] with out[1:] as scratch: two ufunc
    calls over every part, one add for (re, im), and no temporaries."""
    np.square(np.subtract(parts[..., rows, :], parts[..., t, None, :], out=out), out=out)
    return np.add(out[0], out[1], out=out[0]) if len(parts) == 2 else out[0]


def oscillation(family: PartialSumFamily, cuts: ThresholdSeq) -> SampledFn:
    """O^2_{I,J} for the cuts I_1 < ... < I_{J+1}, each in the family's t-grid,
    with J = len(cuts) - 1 blocks: sqrt of the sum over blocks of the squared
    sup of |a_t - a_{I_j}| for t in the family's grid restricted to
    [I_j, I_{j+1}), per function of a stacked family."""
    if len(cuts) < 2:
        raise ArgumentError("an oscillation needs at least two cuts")
    idx = _cut_indices(family, cuts)
    parts = _parts(family.values)
    acc = np.zeros(parts.shape[1:-2] + parts.shape[-1:])
    for i0, i1 in zip(idx[:-1], idx[1:]):
        gap = np.empty(parts.shape[:-2] + (i1 - i0, parts.shape[-1]))
        acc += np.max(_sq_gaps(parts, i0, slice(i0, i1), gap), axis=-2)
    return SampledFn(family.base.grid, np.sqrt(acc), family.base.domain_tag)


def _run_ends(values: np.ndarray) -> np.ndarray:
    """The rows of a (..., T, N) stack that start or end a run of rows equal
    over every leading index and column (-0.0 equals 0.0; a NaN row is kept)."""
    same = np.all(values[..., 1:, :] == values[..., :-1, :], axis=(*range(values.ndim - 2), -1))
    keep = np.ones(values.shape[-2], dtype=bool)
    keep[1:-1] = ~(same[:-1] & same[1:])
    return values[..., keep, :]


def _chain_sup(values: np.ndarray, lag: int, power: float, scale=None) -> np.ndarray:
    """best[k] = max over i < k of best[i] + |a_i - a_{k-lag}|^(2 power), the best
    chain ending at k, over the K `_run_ends` rows of the (..., T, N) values, each
    (..., N) column's parts divided by scale if given.  Adding a step never lowers a
    sum, so the last row is the sup; it is the T-row sup bitwise, as a step inside
    a run adds exactly 0 and moving a cut within its run keeps each gap."""
    vals = _run_ends(values)
    parts, best = _parts(vals), np.zeros(vals.shape)
    if scale is not None:
        parts = parts / scale[..., None, :]
    scratch = np.empty(parts.shape)
    for k in range(1, vals.shape[-2]):
        gap = _sq_gaps(parts, k - lag, slice(0, k), scratch[..., :k, :])
        if power != 1.0:
            np.power(gap, power, out=gap)
        np.max(np.add(best[..., :k, :], gap, out=gap), axis=-2, out=best[..., k, :])
    return best[..., -1, :]


def max_oscillation(family: PartialSumFamily) -> SampledFn:
    """Pointwise sup of `oscillation` over every increasing cut sequence
    drawn from the family's t-grid, of any length, exact via dynamic
    programming over the sequence's last cut: O(K^2 N) time, O(K N) memory
    per function of a stacked family, over the K rows that start or end a
    run of equal rows.  The last cut closes its block without belonging to
    it, as in `oscillation`: the best sequence ending at k extends the best
    one ending at i by |a_{k-1} - a_i|^2, since a block sup at t < k-1 is
    reached by cutting at t+1 instead."""
    return SampledFn(family.base.grid, np.sqrt(_chain_sup(family.values, 1, 1.0)),
                     family.base.domain_tag)


def variation(family: PartialSumFamily, r: float) -> SampledFn:
    """V^r over the family's t-grid, 1 <= r <= MAX_VARIATION_R: sup over
    increasing selections of (sum |a_{t_{j+1}} - a_{t_j}|^r)^{1/r}, exact via
    dynamic programming over the selection's last element, per function of a
    stacked family: O(K^2 N) over the K rows that start or end a run of equal
    rows.  For r != 2 each column's parts are divided by s = 2 max_i |a_i - a_0|
    >= every gap and s is multiplied back, so the largest scaled gap's r-th
    power, >= 2^-r, neither underflows nor overflows."""
    if not 1.0 <= r <= MAX_VARIATION_R:
        raise ArgumentError(f"variation exponent must be finite with 1 <= r <= "
                            f"{MAX_VARIATION_R:g}, got {r!r}")
    vals, s = family.values, None
    if r != 2.0:
        s = 2.0 * np.max(np.abs(vals - vals[..., :1, :]), axis=-2)
        s[s == 0.0] = 1.0
    v = _chain_sup(vals, 0, r / 2.0, s) ** (1.0 / r)
    return SampledFn(family.base.grid, v if s is None else s * v, family.base.domain_tag)
