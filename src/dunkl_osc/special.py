"""The normalized Bessel kernel j_a(u) = J_a(u) / u^a of the first kind
for orders -1/2 <= a <= MAX_ORDER, in float64.

Orders +-1/2 use the closed trigonometric forms.  Otherwise u is cut into
bands, each run in cache-sized blocks with a term or step count fixed by its
edges: the ascending series for u <= 2 (Horner in u^2, no cancellation);
Miller's backward recurrence in the order (DLMF 3.6(vi)) up to max(20, a),
normalised by the Neumann sum (DLMF 10.23.15); beyond, the Hankel expansion
(DLMF 10.17.3, Horner in 1/u^2, short of float64 below u = 20) at orders b
in [-1/2, 1/2) and b + 1, then forward recurrence in the order (DLMF
10.6.1), stable for u > a.  u^a j_a is within 1e-15 of mpmath's J_a on the
N=512 and N=1536 kernel grids at orders 0 to 2, and within 1e-13 of
scipy.special.jv for a <= 50, u <= 600 (scipy's own error there: 2e-14).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, DomainError

MAX_ORDER = 50.0
_TURN = 20.0   # lowest u where the Hankel expansion at orders <= 3/2 reaches _TOL
_EDGES = (2.0, 4.0, 7.0, 10.0, 14.0, _TURN, 30.0, 60.0, 120.0)   # band edges in u
_TOL = 1e-18   # neglected terms, relative to the leading one
_CHUNK = 1 << 15   # points per block: a block's temporaries stay in cache
_MILLER_SEED = 1e-150   # Miller values grow from it by < 1e64 at every order and band
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _horner(coefs: list, x: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] x^k for scalar coefficients."""
    acc = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _series(a: float, u: np.ndarray, hi: float) -> np.ndarray:
    """sum_k (-u^2/4)^k / (k! Gamma(a+k+1) 2^a), the terms that matter at u = hi."""
    coefs = [1.0 / (2.0 ** a * math.gamma(a + 1.0))]
    while abs(coefs[-1]) * hi ** (2 * len(coefs) - 2) > _TOL * coefs[0]:
        coefs.append(-coefs[-1] / (4.0 * len(coefs) * (a + len(coefs))))
    return _horner(coefs, u * u)


def _miller(a: float, u: np.ndarray, hi: float) -> np.ndarray:
    """J_{m-1} = (2m/u) J_m - J_{m+1} down from J_{a+n} = seed, J_{a+n+1} = 0,
    normalised by (u/2)^a / Gamma(a+1) = sum_k d_k J_{a+2k}, d_k = (a+2k)
    Gamma(a+k) / (k! Gamma(a+1)).  n is the first even offset where the bound
    J_{a+n}(hi) <= (hi/2)^{a+n} / Gamma(a+n+1) (DLMF 10.14.4) puts the
    neglected d_k J_{a+2k} below _TOL of the sum."""
    d = [1.0, a + 2.0]
    while d[-1] * math.exp((2 * len(d) - 2) * math.log(hi / 2.0) + math.lgamma(a + 1.0)
                           - math.lgamma(a + 2 * len(d) - 1.0)) > _TOL:
        k = len(d)
        d.append(d[-1] * (a + 2 * k) * (a + k - 1) / (k * (a + 2 * k - 2)))
    r2 = 2.0 / u
    nxt, cur, t = np.zeros_like(u), np.full_like(u, _MILLER_SEED), np.empty_like(u)
    s = cur * d[-1]
    for m in range(2 * len(d) - 2, 0, -1):
        np.multiply(cur, r2, out=t)
        t *= a + m
        t -= nxt
        nxt, cur, t = cur, t, nxt   # cur is J_{a+m-1}
        if m % 2:
            s += np.multiply(cur, d[(m - 1) // 2], out=t)
    return cur / (s * (2.0 ** a * math.gamma(a + 1.0)))


def _hankel_pq(m: float, lo: float, u, z, cos_w, sin_w) -> np.ndarray:
    """P cos w - Q sin w of the Hankel expansion at order m, P and Q Horner in
    z = 1/u^2 with the terms that matter at u = lo (finite at half-integer m)."""
    ak = [1.0]
    while ak[-1] != 0.0 and abs(ak[-1]) > _TOL * lo ** (len(ak) - 1):
        ak.append(ak[-1] * (4.0 * m * m - (2 * len(ak) - 1) ** 2) / (8.0 * len(ak)))
    signed = [(-1) ** (k // 2) * c for k, c in enumerate(ak)]
    out = _horner(signed[0::2], z) * cos_w
    if any(signed[1::2]):
        out -= _horner(signed[1::2], z) / u * sin_w
    return out


def _hankel(a: float, u: np.ndarray, lo: float) -> np.ndarray:
    """J_m(u) = sqrt(2/(pi u)) (P cos w - Q sin w), w = u - (m/2 + 1/4) pi, at
    m = b and b + 1, then j_{m+1} = (2m j_m - j_{m-1}) / u^2 up to a.  cos w
    and sin w rotate cos u and sin u by scalars: u (and u/2) is never rounded."""
    b = a - math.floor(a + 0.5)
    z = 1.0 / (u * u)
    t = np.tan(0.5 * u)   # numpy's float64 tan is several times faster than sin and cos
    cu, su = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
    m = a if a < b + 2.0 else b   # a itself when no recurrence is needed
    c, s = math.cos((m / 2.0 + 0.25) * math.pi), math.sin((m / 2.0 + 0.25) * math.pi)
    cos_w, sin_w = cu * c + su * s, su * c - cu * s
    amp = _SQRT_2_OVER_PI * u ** (-m - 0.5)
    j0 = _hankel_pq(m, lo, u, z, cos_w, sin_w) * amp
    if m == a:
        return j0
    j1 = _hankel_pq(b + 1.0, lo, u, z, sin_w, -cos_w) * (amp / u)   # w moves by -pi/2
    for k in range(1, int(a - b)):
        j0, j1 = j1, (j1 * (2.0 * (b + k)) - j0) * z
    return j1


def bessel_j_normalized(alpha: float, u):
    """j_a(u) = J_a(u)/u^a, continuously extended to 1/(2^a Gamma(a+1))
    at u = 0.  Even entire function of u; vectorized over u >= 0.  Orders
    above MAX_ORDER raise DomainError."""
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < -0.5:
        raise ArgumentError(f"order must satisfy alpha >= -1/2, got {alpha}")
    if alpha > MAX_ORDER:
        raise DomainError(f"Bessel order {alpha:g} exceeds the supported maximum {MAX_ORDER:g}")
    uu = np.asarray(u, dtype=float).ravel()
    if np.any(uu < 0.0):
        raise DomainError("bessel_j_normalized: argument must be >= 0")
    if alpha == -0.5:
        out = _SQRT_2_OVER_PI * np.cos(uu)
    elif alpha == 0.5:
        out = np.sin(uu)
        np.divide(out, uu, out=out, where=uu > 0.0)
        out[uu == 0.0] = 1.0
        out *= _SQRT_2_OVER_PI
    else:
        turn = max(_TURN, alpha)
        edges = np.array(sorted(set(_EDGES) | {turn}))
        band = np.searchsorted(edges, uu).astype(np.uint8)   # edges[b-1] < u <= edges[b]
        order = np.argsort(band, kind="stable")
        ends = np.searchsorted(band, np.arange(1, len(edges) + 2), sorter=order)
        bounds = [0.0, *edges, np.inf]
        out = np.empty_like(uu)
        for b, end in enumerate(ends):   # band b is (bounds[b], bounds[b + 1]]
            for start in range(ends[b - 1] if b else 0, end, _CHUNK):
                idx = order[start:min(start + _CHUNK, end)]
                out[idx] = (_series(alpha, uu[idx], bounds[1]) if b == 0 else
                            _miller(alpha, uu[idx], bounds[b + 1]) if bounds[b + 1] <= turn
                            else _hankel(alpha, uu[idx], bounds[b]))
    return out.reshape(np.shape(u)) if np.ndim(u) else float(out[0])
