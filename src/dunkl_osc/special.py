"""Bessel functions of the first kind J_a and the normalized kernel
j_a(u) = J_a(u) / u^a for orders -1/2 <= a <= MAX_ORDER.

Evaluation scheme: half-integer orders +-1/2 use the closed trigonometric
forms (no series error where the Fourier reduction is exercised); otherwise
an ascending series in 80-bit extended precision for u <= 14 and the large
argument cosine expansion for u > 14.  Both branches are vectorized and run
in bands of u, each band stopping when its own points converge; kernel
matrices for the transforms are built through these entry points.

The fixed split is only sound while u = 14 is large against the order: up
to MAX_ORDER = 7.5 the absolute error against scipy.special.jv on (0, 60]
stays below 1e-13, but at order 8 it is already 0.37.  Higher orders are
refused with DomainError rather than answered wrongly.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DomainError

_SPLIT = 14.0
MAX_ORDER = 7.5
_SERIES_EDGES = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, _SPLIT)   # upper band edges in u
_BAND_EDGES = np.array(_SERIES_EDGES + (20.0, 30.0, 60.0, 120.0))
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

# Lanczos approximation, g = 7, 9 coefficients.  Relative error is below
# 1e-13 on [0.5, inf), which is the only range needed (a + 1 with a >= -1/2).
_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])


def gamma(z):
    """Gamma(z) for z >= 0.5 via the Lanczos sum."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.5):
        raise DomainError("gamma: argument below 0.5 not supported")
    zz = z - 1.0
    acc = np.full_like(zz, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    out = np.sqrt(2.0 * np.pi) * t ** (zz + 0.5) * np.exp(-t) * acc
    return out if out.ndim else float(out)


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < -0.5:
        raise ArgumentError(f"order must satisfy alpha >= -1/2, got {alpha}")
    if alpha > MAX_ORDER:
        raise DomainError(f"Bessel order {alpha:g} exceeds the supported maximum "
                          f"{MAX_ORDER:g} (the series/asymptotic split at u={_SPLIT:g} "
                          f"is inaccurate beyond it)")
    return alpha


def _max_abs(x: np.ndarray):
    """max |x| without an |x| temporary."""
    return max(x.max(), -x.min())


def _series_normalized(alpha: float, u: np.ndarray) -> np.ndarray:
    """j_a(u) = sum_k (-1)^k (u^2/4)^k / (k! (a+1)_k) / (2^a Gamma(a+1)),
    accumulated in extended precision.  Valid for u <= ~20."""
    q = np.asarray(u, dtype=np.longdouble) ** 2 / 4.0
    term = np.ones_like(q)
    acc = np.ones_like(q)
    a = np.longdouble(alpha)   # a float64 denominator is inexact for most orders
    for k in range(200):
        # term * (-q) / d in place; moving the sign onto d is exact
        term *= q
        term /= -((k + 1) * (a + (k + 1)))
        acc += term
        if _max_abs(term) < 1e-21 * max(1.0, float(_max_abs(acc))):
            break
    acc *= 1.0 / (2.0 ** np.longdouble(alpha) * np.longdouble(gamma(alpha + 1.0)))
    return acc.astype(float)


def _asymptotic_j(alpha: float, u: np.ndarray) -> np.ndarray:
    """Large-argument cosine expansion of J_a(u); terms added until they
    stop decreasing or fall below 1e-19.  Exact for half-integer orders."""
    u = np.asarray(u, dtype=float)
    mu = 4.0 * alpha * alpha
    p = np.ones_like(u)
    q = np.zeros_like(u)
    ak_over_uk = np.ones_like(u)
    prev = np.inf
    for k in range(1, 40):
        ak_over_uk *= mu - (2.0 * k - 1.0) ** 2
        ak_over_uk /= 8.0 * k
        ak_over_uk /= u
        mag = float(_max_abs(ak_over_uk)) if u.size else 0.0
        if mag > prev or mag == 0.0:
            break
        part = q if k % 2 == 1 else p
        if (k // 2) % 2:   # the sign (-1)^(k // 2); x - y is exactly x + (-1) y
            part -= ak_over_uk
        else:
            part += ak_over_uk
        if mag < 1e-19:
            break
        prev = mag
    omega = u - alpha * np.pi / 2.0 - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * u)) * (p * np.cos(omega) - q * np.sin(omega))


def bessel_j_normalized(alpha: float, u):
    """j_a(u) = J_a(u)/u^a, continuously extended to 1/(2^a Gamma(a+1))
    at u = 0.  Even entire function of u; vectorized over u >= 0.  Orders
    above MAX_ORDER raise DomainError."""
    alpha = _check_order(alpha)
    uu = np.asarray(u, dtype=float)
    scalar = uu.ndim == 0
    uu = np.atleast_1d(uu)
    if np.any(uu < 0.0):
        raise DomainError("bessel_j_normalized: argument must be >= 0")
    if alpha == -0.5:
        out = _SQRT_2_OVER_PI * np.cos(uu)
    elif alpha == 0.5:
        out = _SQRT_2_OVER_PI * np.sinc(uu / np.pi)
    else:
        out = np.empty_like(uu)
        band = np.searchsorted(_BAND_EDGES, uu)   # _BAND_EDGES[b - 1] < u <= _BAND_EDGES[b]
        for b in np.flatnonzero(np.bincount(band)):
            sel = band == b
            ub = uu[sel]
            out[sel] = (_series_normalized(alpha, ub) if b < len(_SERIES_EDGES)
                        else _asymptotic_j(alpha, ub) / ub ** alpha)
    return float(out[0]) if scalar else out


def bessel_j(alpha: float, u):
    """J_a(u) = u^a j_a(u) for u >= 0, -1/2 <= a <= MAX_ORDER (infinite at
    u = 0 for a < 0).  Absolute error <= 1e-12 for u <= 10, relative error
    (against the amplitude envelope) <= 1e-10 beyond.  Orders above
    MAX_ORDER raise DomainError."""
    alpha = _check_order(alpha)
    uu = np.asarray(u, dtype=float)
    if np.any(uu < 0.0):
        raise DomainError("bessel_j: argument must be >= 0")
    with np.errstate(divide="ignore"):
        return uu ** alpha * bessel_j_normalized(alpha, uu)
