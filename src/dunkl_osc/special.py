"""The normalized Bessel kernel j_a(u) = J_a(u) / u^a of the first kind
for orders -1/2 <= a <= MAX_ORDER, in float64.

Orders +-1/2 use the closed trigonometric forms.  Otherwise u is cut into
bands, each run in cache-sized blocks with a term or step count fixed by its
edges: the ascending series for u <= 2 (Horner in u^2, no cancellation);
Miller's backward recurrence in the order (DLMF 3.6(vi)) up to max(20, a),
normalised by the Neumann sum (DLMF 10.23.15); beyond, a's ladder
b, b + 1, ..., a with b in [-1/2, 1/2): the Hankel expansion (DLMF 10.17.3,
Horner in 1/u^2, short of float64 below u = 20) at b and b + 1 (the closed
forms when b = -1/2), and above them the forward recurrence
j_a = (2(a-1) j_{a-1} - j_{a-2}) / u^2 (DLMF 10.6.1, stable for u > a).  In
that band j_a is thus defined by the values of j_{a-1} and j_{a-2}.

_ladder evaluates several orders in one pass: one band classification over
all their edges, each order's own series and Miller run, and one ladder per
Hankel block sharing tan(u/2), cos u, sin u and 1/u^2.  It may be handed
orders already evaluated on the same u (cached kernels) to recur from.  The
bit rule: every value it returns equals bessel_j_normalized(a, u) bit for
bit, whatever it was handed.

u^a j_a is within 1e-15 of mpmath's J_a on the N=512 and N=1536 kernel
grids at orders 0 to 2, and within 1e-13 of scipy.special.jv for a <= 50,
u <= 600 (scipy's own error there: 2e-14).
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


def _closed(a: float, u: np.ndarray) -> np.ndarray:
    """j_{-1/2} = sqrt(2/pi) cos u and j_{1/2} = sqrt(2/pi) sin(u)/u."""
    if a == -0.5:
        return _SQRT_2_OVER_PI * np.cos(u)
    out = np.sin(u)
    np.divide(out, u, out=out, where=u > 0.0)
    out[u == 0.0] = 1.0
    out *= _SQRT_2_OVER_PI
    return out


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


def _hankel(orders, u: np.ndarray, lo: float, memo: dict) -> dict:
    """memo (orders -> values on a block of u past every order's turn),
    filled up the ladder of each of orders from the highest two rungs
    known below it.  Orders b and b + 1 take J_m(u) = sqrt(2/(pi u))
    (P cos w - Q sin w), w = u - (m/2 + 1/4) pi, with the terms that matter
    at u = lo (or the closed forms at b = -1/2); cos w and sin w rotate
    cos u and sin u by scalars, so u (and u/2) is never rounded.  Higher
    orders recur from the two rungs below (m - 1 and m - 2 are exact)."""
    z = 1.0 / (u * u)
    cos_sin = None   # made on first use: a ladder from known rungs needs z alone
    for a in orders:
        k = 0   # rungs a - k, ..., a are filled
        while a - k >= 1.5 and not (a - k - 1.0 in memo and a - k - 2.0 in memo):
            k += 1
        if k and a - k < 1.5 and a - k >= 0.5:   # b + 1 was reached: b is needed too
            k += 1
        for m in (a - i for i in range(k, -1, -1)):
            if m in memo:
                continue
            if abs(m) == 0.5:
                memo[m] = _closed(m, u)
            elif m < 1.5:
                if cos_sin is None:   # numpy's float64 tan is several times faster than sin, cos
                    t = np.tan(0.5 * u)
                    cos_sin = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
                cu, su = cos_sin
                c, s = math.cos((m / 2.0 + 0.25) * math.pi), math.sin((m / 2.0 + 0.25) * math.pi)
                amp = _SQRT_2_OVER_PI * u ** (-m - 0.5)
                memo[m] = _hankel_pq(m, lo, u, z, cu * c + su * s, su * c - cu * s) * amp
            else:
                memo[m] = (memo[m - 1.0] * (2.0 * (m - 1.0)) - memo[m - 2.0]) * z
    return memo


def _ladder(orders, u: np.ndarray, known: dict | None = None) -> list:
    """[j_a(u) for a in orders] on a 1-d u >= 0, in one pass: one band
    classification over every order's edges, with each order's own series,
    Miller run and band parameters, and one Hankel ladder per block.  known
    maps orders to values already evaluated on this u (cached kernels) for
    the Hankel band to recur from.  Each value equals bessel_j_normalized
    bit for bit, so which orders are known changes no output."""
    orders = [float(a) for a in orders]
    for a in orders:
        if not np.isfinite(a) or a < -0.5:
            raise ArgumentError(f"order must satisfy alpha >= -1/2, got {a}")
        if a > MAX_ORDER:
            raise DomainError(f"Bessel order {a:g} exceeds the supported maximum {MAX_ORDER:g}")
    known = dict(known or {})
    out = {a: _closed(a, u) for a in orders if abs(a) == 0.5}
    known.update(out)
    rest = [a for a in orders if a not in out]
    if rest:
        turns = [max(_TURN, a) for a in rest]
        edges = np.array(sorted(set(_EDGES).union(turns)))
        band = np.searchsorted(edges, u).astype(np.uint8)   # edges[k-1] < u <= edges[k]
        bounds = [0.0, *edges, np.inf]
        out.update((a, np.empty_like(u)) for a in rest)
        for k in range(len(bounds) - 1):   # band k is (bounds[k], bounds[k + 1]]
            lo, hi = bounds[k], bounds[k + 1]
            hank = [a for a, turn in zip(rest, turns) if hi > turn]
            members = np.flatnonzero(band == k)
            for start in range(0, members.size, _CHUNK):
                idx = members[start:start + _CHUNK]
                uu = u[idx]
                if hank:   # b and b + 1 keep their own bands: lo is an edge of _EDGES
                    vals = _hankel(hank, uu, max(e for e in _EDGES if e <= lo),
                                   {m: v[idx] for m, v in known.items()})
                for a, turn in zip(rest, turns):
                    out[a][idx] = (_series(a, uu, bounds[1]) if k == 0 else
                                   _miller(a, uu, min(e for e in (*_EDGES, turn) if e >= hi))
                                   if hi <= turn else vals[a])
    return [out[a] for a in orders]


def bessel_j_normalized(alpha: float, u):
    """j_a(u) = J_a(u)/u^a, continuously extended to 1/(2^a Gamma(a+1))
    at u = 0.  Even entire function of u; vectorized over u >= 0.  Orders
    above MAX_ORDER raise DomainError."""
    uu = np.asarray(u, dtype=float).ravel()
    if np.any(uu < 0.0):
        raise DomainError("bessel_j_normalized: argument must be >= 0")
    out = _ladder([float(alpha)], uu)[0]
    return out.reshape(np.shape(u)) if np.ndim(u) else float(out[0])
