"""Weighted L^p norms, power and |x|^a (1+|x|)^{b-a} weights, numerical
Muckenhoupt class checkers, and the closed-form admissible-range predicates.

The A_p checker evaluates the product of mu(B)-averages against |x|^mu dx
(mu = 0 for ap_check) over a deterministic family of intervals (centers 0 and
+-2^j, lengths 2^m), by graded quadrature in two array passes over a batch of
weights (a weighted-Carleson sweep checks all of its weights in one); the
integrands are even, so each distinct |x|-piece is integrated once.  Each
integrand (mu(B), w or w^{-p'/p}) is |x|^A (1+|x|)^C, and each distinct pair
(A, C) is integrated once per batch.  An average with A <= -1 is not
integrable at 0: every interval touching 0 gets +inf, so the supremum is inf
(null in a JSON report).  A weight is accepted when the supremum is finite (a
NaN product makes it non-finite) and stable both under doubling the
center/length range and under refining the quadrature resolution (one
routine, _ap_stable, for both checkers); power weights make the product
scale-invariant, so a near-critical exponent shows up only through
quadrature refinement, the second axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainError
from .funcspace import SampledFn, _mapped_side


@dataclass(frozen=True)
class NormSpec:
    """(p, beta, alpha): the space L^p(R, |x|^{beta + 2 alpha + 1} dx)."""

    p: float
    beta: float
    alpha: float

    def __post_init__(self):
        if not (np.isfinite([self.p, self.beta, self.alpha]).all() and self.p > 1.0
                and self.alpha >= -0.5):
            raise ArgumentError("NormSpec needs finite p > 1, beta and alpha >= -1/2")


def _powers(x):
    """power(0, e) = |x|^e, power(1, e) = (1+|x|)^e at the nodes x, each computed once."""
    ax = np.abs(np.asarray(x, dtype=float))
    bases = (ax, 1.0 + ax)
    return lru_cache(maxsize=None)(lambda base, e: bases[base] ** e)


@dataclass(frozen=True)
class Weight:
    """Even nonnegative weight: power |x|^beta or w_ab = |x|^a (1+|x|)^{b-a}."""

    kind: str
    params: tuple

    def __post_init__(self):
        n = {"power": 1, "w_ab": 2}.get(self.kind)
        if len(self.params) != n or not np.isfinite(self.params).all():
            raise ArgumentError(f"a weight is 'power' with 1 finite exponent or 'w_ab' with 2, "
                                f"not {self.kind!r} with {self.params}")

    def __call__(self, x):
        power, (e0, e1) = _powers(x), self.exponents
        return power(0, e0) * power(1, e1) if e1 else power(0, e0)

    @property
    def exponents(self) -> tuple[float, float]:
        """(e0, e1) with w = |x|^e0 (1+|x|)^e1: (beta, 0) or (a, b - a)."""
        if self.kind == "power":
            return self.params[0], 0.0
        a, b = self.params
        return a, b - a

    def shifted(self, s: float) -> "Weight":
        """The weight times |x|^s: both families add s to every exponent."""
        return Weight(self.kind, tuple(e + s for e in self.params))


def power_weight(beta: float) -> Weight:
    return Weight("power", (float(beta),))


def w_ab_weight(a: float, b: float) -> Weight:
    return Weight("w_ab", (float(a), float(b)))


_LOW_SUM = np.finfo(float).tiny / np.finfo(float).eps   # below it, terms lost to underflow count
_AP_PANELS = 12   # 8-point Gauss panels per interval side in the A_p checkers' base pass


def weighted_lp_norm(f: SampledFn, spec: NormSpec, weight: Weight | None = None) -> float:
    """(integral |f|^p w(x) |x|^{2 alpha + 1} dx)^{1/p}, one value per function
    of a (..., N) stack; w defaults to the power weight |x|^{spec.beta}.
    Where the plain sum is not a normal float above tiny/eps (at large p, its
    terms under- or overflow), it is taken in logs instead, from the weight's
    exponents, with each function's largest term factored out."""
    w = weight if weight is not None else power_weight(spec.beta)
    (e0, e1), a = w.exponents, 2.0 * spec.alpha + 1.0
    if e0 + a <= -1.0:
        raise DomainError(f"weight exponent {e0 + a:g} at the origin is not integrable")
    x = f.grid.points
    ax, af = np.abs(x), np.abs(f.values)
    with np.errstate(all="ignore"):   # a plain sum that fails is redone in logs
        dens = w(x) * ax ** a
        total = np.sum(f.grid.weights * dens * af ** spec.p, axis=-1)
        if total.min() > _LOW_SUM and total.max() < np.inf:
            return total ** (1.0 / spec.p)
        logs = (np.log(f.grid.weights) + (np.log(ax) * (e0 + a) if e0 + a else 0.0)
                + e1 * np.log1p(ax) + spec.p * np.log(af))
        top = np.max(logs, axis=-1)
        redo = ~((total > _LOW_SUM) & (total < np.inf)) & np.isfinite(top)
        top = np.where(redo, top, 0.0)
        log_sum = top + np.log(np.sum(np.exp(logs - top[..., None]), axis=-1))
        return np.where(redo, np.exp(log_sum / spec.p), total ** (1.0 / spec.p))[()]


# ---------------------------------------------------------------------------
# Muckenhoupt checkers

@lru_cache(maxsize=64)
def _side_template(n_panels: int, grading: float):
    """Nodes/weights of 8-point Gauss panels on (0, 1], graded toward 0."""
    x, w, _ = _mapped_side(1.0, n_panels, 8, grading)
    x.flags.writeable = w.flags.writeable = False   # shared by every caller
    return x, w


def _grading_for(exponent: float) -> float:
    """Panel grading that maps |x|^exponent (exponent > -1) to a
    polynomial-like integrand in the panel coordinate."""
    if exponent >= 0.0:
        return 1.0
    return float(min(60.0, np.ceil(2.0 / (1.0 + exponent))))


def _ap_products(weights: list[Weight], p: float, mu: float, k_range: int,
                 n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(products, level) over the intervals B of lengths 2^m and centers 0 and
    +-2^j, |m|, |j| <= k_range, in (m, j, sign) order, a row per weight; level = max(|m|, |j|).
    Product: (avg_B w)(avg_B w^{-p'/p})^{p/p'}, avg_B f = int_B f |x|^mu dx /
    mu(B) (mu = 0: mu(B) = |B|).  The integrand is |x|^A (1+|x|)^C: (A, C) = (mu, 0)
    for mu(B), (mu + e0, e1) for w, (mu + c e0, c e1), c = -p'/p, for w^{-p'/p}, with
    (e0, e1) = Weight.exponents.  Each distinct |x|-piece is one row of nodes (the
    integrands are even): the plain template over [|lo|, |hi|] off 0, so (m, j, -1)
    copies (m, j, +1); for B straddling 0, its sides [0, -lo], [0, hi], graded to |x|^A
    and shared by every such B.  The rows, node blocks, each power of a block's |x| or
    1+|x|, q |x|^A per distinct A and each distinct (A, C) integral (a row sum) are
    computed once per batch; for A <= -1, a B that touches 0 gets exactly +inf."""
    pp = p / (p - 1.0)
    ex = np.arange(-k_range, k_range + 1.0)
    m, j, s = (a.ravel() for a in np.meshgrid(ex, ex, [-1.0, 0.0, 1.0], indexing="ij"))
    m, j, s = (a[(s != 0.0) | (j == 0.0)] for a in (m, j, s))   # center 0 once
    length, center = 2.0 ** m, s * 2.0 ** j
    lo, hi = center - length / 2.0, center + length / 2.0
    straddle = np.flatnonzero((lo < 0.0) & (hi > 0.0))   # an endpoint at 0 is no straddle
    plain = np.flatnonzero((lo >= 0.0) & (s > 0.0))      # (m, j, -1) sits 1 or 2 rows before
    # the side radii are exact dyadic sums, so equal sides are equal floats
    sides, side_of = np.unique(np.concatenate([-lo[straddle], hi[straddle]]), return_inverse=True)
    # (A, C) of w and w^{-p'/p} of each weight, then of mu(B); the distinct ones are integrated
    keys = [(mu + c * e0, c * e1) for e0, e1 in (w.exponents for w in weights)
            for c in (1.0, -pp / p)] + [(mu, 0.0)] * bool(mu)
    pairs = list(dict.fromkeys(keys))
    grading = {k: _grading_for(a) for k, (a, _) in enumerate(pairs) if a > -1.0}
    groups = [(lo[plain], length[plain], None)] + [   # pieces [start, start + size]
        (np.zeros_like(sides), sides, g) for g in set(grading.values())]
    total = np.empty((len(pairs), length.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start, size, g in groups:
            x0, q0 = _side_template(n_panels, g or 1.0)
            todo = range(len(pairs)) if g is None else [k for k, gk in grading.items() if gk == g]
            piece = np.empty((len(pairs), size.size))
            # row blocks of ~2^13 nodes keep the temporaries small and cache-resident
            for r in np.array_split(np.arange(size.size), 1 + size.size * x0.size // 2 ** 13):
                x, q = start[r, None] + size[r, None] * x0, size[r, None] * q0
                power, qa, buf = _powers(x), {}, np.empty_like(x)
                for k in todo:
                    a, c = pairs[k]
                    if a not in qa:
                        qa[a] = q * power(0, a)
                    integrand = np.multiply(qa[a], power(1, c), out=buf) if c else qa[a]
                    piece[k, r] = integrand.sum(axis=1)
            if g is None:
                total[:, plain] = total[:, plain - 1 - (j[plain] == 0.0)] = piece
            else:   # a straddling row is the sum of its two sides
                lr = piece[todo][:, side_of.reshape(2, -1)]
                total[np.ix_(todo, straddle)] = lr[:, 0] + lr[:, 1]
        diverge = [k for k, (a, _) in enumerate(pairs) if a <= -1.0]
        total[np.ix_(diverge, np.flatnonzero((lo <= 0.0) & (hi >= 0.0)))] = np.inf
        sums = total[[pairs.index(key) for key in keys]]
        meas = sums[-1] if mu else length
        n = 2 * len(weights)
        return sums[0:n:2] / meas * (sums[1:n:2] / meas) ** (p / pp), np.maximum(abs(m), abs(j))


def _ap_stable(weights: list[Weight], p: float, mu: float, refine: int) -> list[tuple[bool, float]]:
    """(is_member, sup_estimate) per weight of the A_p product against |x|^mu dx.

    The k_range = 10 supremum (base, read from the wide pass) must be finite
    and move by less than 5% both when the center/length range doubles (wide)
    and when the _AP_PANELS panels per interval side are multiplied by refine
    (fine): 4 for ap_check (mu = 0), whose quadrupling resolves the slow
    growth just inside the critical exponent, and 2 for the experimental
    conjectured_measure_ap_check (mu = 2 alpha + 1); an inf or NaN product
    fails it.  Power weights make the product scale invariant, so only the
    resolution axis can expose a near-critical exponent at the origin (a
    non-integrable one gives inf exactly); huge or tiny intervals expose
    failures at infinity."""
    prod, level = _ap_products(weights, p, mu, 20, _AP_PANELS)
    base, wide = np.max(prod[:, level <= 10], axis=1), np.max(prod, axis=1)
    fine = np.max(_ap_products(weights, p, mu, 10, refine * _AP_PANELS)[0], axis=1)
    ok = (wide <= 1.05 * base) & (fine <= 1.05 * base) & np.isfinite(base)
    return [(bool(o), float(b)) for o, b in zip(ok, base)]


def _require_p_alpha(name: str, p: float, *orders: float, beta: float = 0.0) -> None:
    if not (1.0 < p < np.inf and all(-0.5 <= a < np.inf for a in orders)   # NaN fails too
            and np.isfinite(beta)):
        raise ArgumentError(f"{name} needs finite p > 1, finite beta and orders >= -1/2, "
                            f"got p={p}, beta={beta}, orders {list(orders)}")


def ap_check(weight: Weight, p: float) -> tuple[bool, float]:
    """Numerical A_p membership: (is_member, sup_estimate), by the stability
    test of _ap_stable with Lebesgue measure (_AP_PANELS panels, refined 4x)."""
    _require_p_alpha("ap_check", p)
    return _ap_stable([weight], p, 0.0, 4)[0]


def ap_alpha_check(weight: Weight, p: float, alpha: float) -> bool:
    """Membership in A_p^alpha: w(x) |x|^{2a+1-p(a+1/2)} in A_p.  Power
    weights use the closed criterion; w_ab weights shift into another w_ab
    and go through the numerical checker."""
    _require_p_alpha("ap_alpha_check", p, alpha)
    shift = 2.0 * alpha + 1.0 - p * (alpha + 0.5)
    if weight.kind == "power":
        return -1.0 < weight.params[0] + shift < p - 1.0
    return ap_check(weight.shifted(shift), p)[0]


def conjectured_measure_ap_check(weights: Weight | list[Weight], p: float,
                                 alpha: float) -> tuple[bool, float] | list:
    """Experimental: the Muckenhoupt product with the measure |x|^{2a+1} dx in
    both averages; (is_member, sup_estimate) for a Weight, a list of them for a
    list of weights, checked in one pass (_AP_PANELS panels, refined 2x).  No
    boundedness claim is attached to this predicate; it is exposed only behind
    the CLI --experimental flag."""
    _require_p_alpha("conjectured_measure_ap_check", p, alpha)
    one = isinstance(weights, Weight)
    out = _ap_stable([weights] if one else weights, p, 2.0 * alpha + 1.0, 2)
    return out[0] if one else out


# ---------------------------------------------------------------------------
# closed-form admissible ranges

def range_full_oscillation(p: float, beta: float, alpha: float) -> bool:
    """-1 < beta + (alpha+1/2)(2-p) < p/2 - 1, for p >= 2, with the extra
    admissible point beta = 0 at p = 2."""
    if not 2.0 <= p < np.inf:
        raise ArgumentError(f"the full-range predicate needs a finite p >= 2, got {p}")
    _require_p_alpha("range_full_oscillation", p, alpha, beta=beta)
    if p == 2.0 and beta == 0.0:
        return True
    c = beta + (alpha + 0.5) * (2.0 - p)
    return -1.0 < c < p / 2.0 - 1.0


def range_dyadic_oscillation(p: float, beta: float, alpha: float) -> bool:
    """-1 < beta + (alpha+1/2)(2-p) < p - 1, for p > 1."""
    _require_p_alpha("range_dyadic_oscillation", p, alpha, beta=beta)
    c = beta + (alpha + 0.5) * (2.0 - p)
    return -1.0 < c < p - 1.0


def transplant_range(p: float, beta: float, alpha: float, gamma: float) -> bool:
    """Two-sided transplantation condition:
    -1 - p min(a+1/2, g+1/2) < beta < -1 + p min(a+3/2, g+3/2)."""
    _require_p_alpha("transplant_range", p, alpha, gamma, beta=beta)
    lo = -1.0 - p * min(alpha + 0.5, gamma + 0.5)
    hi = -1.0 + p * min(alpha + 1.5, gamma + 1.5)
    return lo < beta < hi


def beta_star(beta: float, alpha: float, p: float) -> float:
    """Weight-exponent shift beta* = beta - (alpha+1/2)(2-p); with
    alpha = (n-2)/2 this is beta - (n-1)(1-p/2)."""
    _require_p_alpha("beta_star", p, alpha, beta=beta)
    return beta - (alpha + 0.5) * (2.0 - p)
