"""Weighted L^p norms, power and |x|^a (1+|x|)^{b-a} weights, numerical
Muckenhoupt class checkers, and the closed-form admissible-range predicates.

The A_p checker evaluates the averaged product over a deterministic family
of intervals (centers 0 and +-2^k, lengths 2^m) by graded quadrature.  A
weight is accepted when the supremum is stable both under doubling the
center/length range and under refining the quadrature resolution (one
routine, _ap_stable, for both checkers); power weights make the product
scale-invariant, so divergence at a critical exponent shows up only through
quadrature refinement, which is why the second stability axis exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, DomainError
from .funcspace import SampledFn


@dataclass(frozen=True)
class NormSpec:
    """(p, beta, alpha): the space L^p(R, |x|^{beta + 2 alpha + 1} dx)."""

    p: float
    beta: float
    alpha: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ArgumentError("NormSpec needs p > 1")
        if self.alpha < -0.5:
            raise ArgumentError("NormSpec needs alpha >= -1/2")

    @property
    def measure_exponent(self) -> float:
        return self.beta + 2.0 * self.alpha + 1.0


@dataclass(frozen=True)
class Weight:
    """Even nonnegative weight: power |x|^beta or w_ab = |x|^a (1+|x|)^{b-a}."""

    kind: str
    params: tuple

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        if self.kind == "power":
            (beta,) = self.params
            return x ** beta
        a, b = self.params
        return x ** a * (1.0 + x) ** (b - a)

    @property
    def exponent_at_zero(self) -> float:
        return self.params[0]

    @property
    def exponent_at_infinity(self) -> float:
        return self.params[-1]

    def shifted(self, s: float) -> "Weight":
        """The weight times |x|^s (both families are closed under this)."""
        if self.kind == "power":
            return Weight("power", (self.params[0] + s,))
        a, b = self.params
        return Weight("w_ab", (a + s, b + s))


def power_weight(beta: float) -> Weight:
    return Weight("power", (float(beta),))


def w_ab_weight(a: float, b: float) -> Weight:
    return Weight("w_ab", (float(a), float(b)))


def weighted_lp_norm(f: SampledFn, spec: NormSpec, weight: Weight | None = None) -> float:
    """(integral |f|^p w(x) |x|^{2 alpha + 1} dx)^{1/p}; w defaults to the
    power weight |x|^{spec.beta}."""
    w = weight if weight is not None else power_weight(spec.beta)
    exp_at_zero = w.exponent_at_zero + 2.0 * spec.alpha + 1.0
    if exp_at_zero <= -1.0:
        raise DomainError(
            f"weight exponent {exp_at_zero:g} at the origin is not integrable")
    x = f.grid.points
    dens = w(x) * np.abs(x) ** (2.0 * spec.alpha + 1.0)
    total = float(np.sum(f.grid.weights * dens * np.abs(f.values) ** spec.p))
    return total ** (1.0 / spec.p)


# ---------------------------------------------------------------------------
# Muckenhoupt checkers

_GL8 = np.polynomial.legendre.leggauss(8)
_template_cache: dict = {}


def _side_template(n_panels: int, grading: float):
    """Nodes/weights on (0, 1], graded toward 0, cached."""
    key = (n_panels, round(grading, 6))
    if key not in _template_cache:
        gx, gw = _GL8
        bnd = np.arange(n_panels + 1) / n_panels
        u = ((bnd[:-1] + bnd[1:]) / 2.0)[:, None] + ((bnd[1:] - bnd[:-1]) / 2.0)[:, None] * gx
        wu = ((bnd[1:] - bnd[:-1]) / 2.0)[:, None] * np.broadcast_to(gw, u.shape)
        x = u ** grading
        w = wu * grading * u ** (grading - 1.0)
        edges = bnd ** grading
        w *= ((edges[1:] - edges[:-1]) / w.sum(axis=1))[:, None]
        _template_cache[key] = (x.ravel(), w.ravel())
    return _template_cache[key]


def _grading_for(exponent: float) -> float:
    """Panel grading that maps |x|^exponent to a polynomial-like integrand in
    the panel coordinate; non-integrable exponents get the deepest probe so
    refinement exposes the divergence."""
    if exponent >= 0.0:
        return 1.0
    if exponent > -1.0:
        return float(min(60.0, np.ceil(2.0 / (1.0 + exponent))))
    return 60.0


def _interval_average(w: Callable, sing_exp: float, center: float, length: float,
                      n_panels: int) -> float:
    """(1/|B|) int_B w for B = [center - L/2, center + L/2]; the quadrature is
    graded toward 0 when B straddles it, matched to w's |x|^sing_exp blowup."""
    lo, hi = center - length / 2.0, center + length / 2.0
    with np.errstate(divide="ignore", over="ignore"):
        if lo < 0.0 < hi:
            g = _grading_for(sing_exp)
            acc = 0.0
            for span in (-lo, hi):
                x, ww = _side_template(n_panels, g)
                acc += float(np.dot(span * ww, w(span * x)))
            return acc / length
        x, ww = _side_template(n_panels, 1.0)
        return float(np.dot(length * ww, w(lo + length * x))) / length


def _ap_sup(w: Callable, p: float, e0: float, mu: float, k_range: int,
            n_panels: int) -> float:
    """Supremum over centers {0, +-2^k} and lengths 2^m of the A_p product
    (avg_B w)(avg_B w^{-p'/p})^{p/p'}, both averages taken against the
    measure |x|^mu dx (mu = 0 is Lebesgue measure)."""
    pp = p / (p - 1.0)
    w_pos, w_neg = w, lambda x: w(x) ** (-pp / p)
    if mu:                                   # mu = 0 needs no |x|^0 factor
        w_pos = lambda x: w(x) * np.abs(x) ** mu
        w_neg = lambda x: w(x) ** (-pp / p) * np.abs(x) ** mu
    e_pos, e_neg = e0 + mu, -e0 * pp / p + mu
    best = 0.0
    lengths = 2.0 ** np.arange(-k_range, k_range + 1)
    centers = np.unique(np.concatenate([[0.0], 2.0 ** np.arange(-k_range, k_range + 1),
                                        -2.0 ** np.arange(-k_range, k_range + 1)]))
    for length in lengths:
        for c in centers:
            m1 = _interval_average(w_pos, e_pos, c, length, n_panels)
            m2 = _interval_average(w_neg, e_neg, c, length, n_panels)
            best = max(best, m1 * m2 ** (p / pp))
    return best


def _ap_stable(weight: Weight, p: float, mu: float, refine: int,
               interval_samples: int) -> tuple[bool, float]:
    """(is_member, sup_estimate) of the A_p product against |x|^mu dx.

    The interval-family supremum must move by less than 5% both when the
    center/length range doubles and when the per-interval quadrature
    resolution is multiplied by refine: 4 for ap_check (mu = 0), whose
    quadrupling resolves even the slow log-divergence at the critical
    exponent, and 2 for the experimental conjectured_measure_ap_check
    (mu = 2 alpha + 1).  Power weights make the product scale invariant, so
    only the resolution axis can expose a divergence at the origin; huge or
    tiny intervals expose failures at infinity."""
    n_panels = max(4, interval_samples // 8)
    e0 = weight.exponent_at_zero
    base = _ap_sup(weight, p, e0, mu, 10, n_panels)
    wide = _ap_sup(weight, p, e0, mu, 20, n_panels)
    fine = _ap_sup(weight, p, e0, mu, 10, refine * n_panels)
    ok = wide <= 1.05 * base and fine <= 1.05 * base and np.isfinite(base)
    return bool(ok), float(base)


def ap_check(weight: Weight, p: float, interval_samples: int = 96) -> tuple[bool, float]:
    """Numerical A_p membership: (is_member, sup_estimate), by the stability
    test of _ap_stable with Lebesgue measure."""
    if not p > 1.0:
        raise ArgumentError("ap_check needs p > 1")
    return _ap_stable(weight, p, 0.0, 4, interval_samples)


def ap_alpha_check(weight: Weight, p: float, alpha: float) -> bool:
    """Membership in A_p^alpha: w(x) |x|^{2a+1-p(a+1/2)} in A_p.  Power
    weights use the closed criterion; w_ab weights shift into another w_ab
    and go through the numerical checker."""
    if not p > 1.0:
        raise ArgumentError("ap_alpha_check needs p > 1")
    shift = 2.0 * alpha + 1.0 - p * (alpha + 0.5)
    if weight.kind == "power":
        c = weight.params[0] + shift
        return -1.0 < c < p - 1.0
    member, _ = ap_check(weight.shifted(shift), p)
    return member


def conjectured_measure_ap_check(weight: Weight, p: float, alpha: float,
                                 interval_samples: int = 96) -> tuple[bool, float]:
    """Experimental: the Muckenhoupt product with the measure |x|^{2a+1} dx
    in both averages.  No boundedness claim is attached to this predicate;
    it is exposed only behind the CLI --experimental flag."""
    if not p > 1.0:
        raise ArgumentError("needs p > 1")
    return _ap_stable(weight, p, 2.0 * alpha + 1.0, 2, interval_samples)


# ---------------------------------------------------------------------------
# closed-form admissible ranges

def range_full_oscillation(p: float, beta: float, alpha: float) -> bool:
    """-1 < beta + (alpha+1/2)(2-p) < p/2 - 1, for p >= 2, with the extra
    admissible point beta = 0 at p = 2."""
    if p < 2.0:
        raise ArgumentError("the full-range predicate needs p >= 2")
    if p == 2.0 and beta == 0.0:
        return True
    c = beta + (alpha + 0.5) * (2.0 - p)
    return -1.0 < c < p / 2.0 - 1.0


def range_dyadic_oscillation(p: float, beta: float, alpha: float) -> bool:
    """-1 < beta + (alpha+1/2)(2-p) < p - 1, for p > 1."""
    if not p > 1.0:
        raise ArgumentError("needs p > 1")
    c = beta + (alpha + 0.5) * (2.0 - p)
    return -1.0 < c < p - 1.0


def transplant_range(p: float, beta: float, alpha: float, gamma: float) -> bool:
    """Two-sided transplantation condition:
    -1 - p min(a+1/2, g+1/2) < beta < -1 + p min(a+3/2, g+3/2)."""
    if not p > 1.0:
        raise ArgumentError("needs p > 1")
    lo = -1.0 - p * min(alpha + 0.5, gamma + 0.5)
    hi = -1.0 + p * min(alpha + 1.5, gamma + 1.5)
    return lo < beta < hi


def beta_star(beta: float, alpha: float, p: float) -> float:
    """Weight-exponent shift beta* = beta - (alpha+1/2)(2-p); with
    alpha = (n-2)/2 this is beta - (n-1)(1-p/2)."""
    return beta - (alpha + 0.5) * (2.0 - p)
