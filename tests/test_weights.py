import warnings

import numpy as np
import pytest

from dunkl_osc import (HALF_LINE, ArgumentError, DomainError, NormSpec,
                       ap_alpha_check, ap_check, beta_star,
                       conjectured_measure_ap_check, make_graded_grid,
                       power_weight, range_dyadic_oscillation,
                       range_full_oscillation, sample, transplant_range,
                       w_ab_weight, weighted_lp_norm)
from dunkl_osc.weights import _ap_products, _grading_for, _side_template


def test_norm_examples():
    g = make_graded_grid(0.0, 1.0, 16, 16, 2.0)
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), g, HALF_LINE)
    assert weighted_lp_norm(one, NormSpec(2, 0.0, -0.5)) == pytest.approx(1.0, abs=1e-10)
    assert weighted_lp_norm(one, NormSpec(2, 0.5, -0.5)) == pytest.approx(
        np.sqrt(2.0 / 3.0), abs=1e-8)
    z = sample(lambda x: np.zeros_like(np.asarray(x, float)), g, HALF_LINE)
    assert weighted_lp_norm(z, NormSpec(2, 0.0, -0.5)) == 0.0


def test_norm_integrability_guard():
    g = make_graded_grid(0.0, 1.0, 8, 8, 3.0)
    one = sample(lambda x: np.ones_like(np.asarray(x, float)), g, HALF_LINE)
    with pytest.raises(DomainError):
        weighted_lp_norm(one, NormSpec(2, -1.2, -0.5))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ap_check_matches_closed_criterion(p):
    for beta in (-1.5, -0.9, 0.0, 0.5, p - 1.1, p - 0.9):
        member, _ = ap_check(power_weight(beta), p)
        assert member == (-1.0 < beta < p - 1.0), (p, beta)


def test_ap_constant_weight():
    member, sup = ap_check(w_ab_weight(0.0, 0.0), 2.0)
    assert member and sup == pytest.approx(1.0, abs=1e-10)


def test_w_ab_a2_lattice():
    for a in (-1.5, -0.5, 0.0, 0.5, 1.5):
        for b in (-1.5, -0.5, 0.0, 0.5, 1.5):
            member, _ = ap_check(w_ab_weight(a, b), 2.0)
            assert member == ((-1 < a < 1) and (-1 < b < 1)), (a, b)


def test_ap_alpha_reductions():
    # alpha = -1/2 reduces exactly to A_p
    assert ap_alpha_check(power_weight(0.3), 2.0, -0.5) == (-1 < 0.3 < 1)
    assert ap_alpha_check(power_weight(0.0), 2.0, 0.0) is True
    # -1 < (3/2)(2 - 3.9) = -2.85 fails
    assert ap_alpha_check(power_weight(0.0), 3.9, 1.0) is False
    # consistency with the dyadic range predicate for power weights
    for p in (1.5, 2.5):
        for beta in (-0.5, 0.0, 1.0):
            for alpha in (-0.5, 0.0, 1.0):
                assert (ap_alpha_check(power_weight(beta), p, alpha)
                        == range_dyadic_oscillation(p, beta, alpha))


def test_range_full():
    assert [p for p in (2.0, 2.5, 3.9) if range_full_oscillation(p, 0.0, 0.0)] == [2.0, 2.5, 3.9]
    assert not range_full_oscillation(4.0, 0.0, 0.0)
    assert all(range_full_oscillation(p, 0.0, -0.5) for p in (2.0, 3.0, 10.0))
    assert range_full_oscillation(2.0, 0.0, 1.7)  # p=2 beta=0 carve-out
    with pytest.raises(ArgumentError):
        range_full_oscillation(1.5, 0.0, 0.0)


def test_range_dyadic():
    inside = [p for p in (1.30, 1.34, 2.0, 3.9) if range_dyadic_oscillation(p, 0.0, 0.0)]
    assert inside == [1.34, 2.0, 3.9]
    assert not range_dyadic_oscillation(4.0, 0.0, 0.0)
    assert range_dyadic_oscillation(2.0, 0.9999, -0.5)
    assert not range_dyadic_oscillation(2.0, 1.0, -0.5)
    assert all(range_dyadic_oscillation(p, 0.0, -0.5) for p in (1.1, 2.0, 50.0))


def test_range_implication():
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(200):
        p = float(rng.uniform(2.0, 6.0))
        beta = float(rng.uniform(-2.0, 4.0))
        alpha = float(rng.uniform(-0.5, 2.0))
        if range_full_oscillation(p, beta, alpha):
            assert range_dyadic_oscillation(p, beta, alpha)


def test_transplant_range():
    assert transplant_range(2.0, 0.0, -0.5, 0.0)
    assert not transplant_range(2.0, -1.0, -0.5, 0.0)
    assert transplant_range(2.0, 0.99, -0.5, 0.0)
    assert not transplant_range(2.0, 1.0, -0.5, 0.0)
    # alpha = gamma: -1 - p(a+1/2) < beta < -1 + p(a+3/2)
    assert transplant_range(2.0, -3.9, 1.0, 1.0)
    assert not transplant_range(2.0, -4.1, 1.0, 1.0)
    assert not transplant_range(2.0, -9.0, 1.0, 1.0)


def test_beta_star():
    assert beta_star(0.7, -0.5, 3.3) == 0.7
    assert beta_star(0.7, 1.2, 2.0) == 0.7
    assert beta_star(0.0, 0.0, 4.0) == pytest.approx(1.0)
    # with alpha = (n-2)/2 the two stated forms coincide
    n, p, beta = 3, 2.6, 0.4
    alpha = (n - 2) / 2.0
    assert beta_star(beta, alpha, p) == pytest.approx(beta - (n - 1) * (1 - p / 2.0))


def test_weight_evaluators():
    w = w_ab_weight(0.5, -0.5)
    x = np.array([0.25, 1.0, 4.0])
    assert np.allclose(w(x), x ** 0.5 * (1 + x) ** -1.0)
    assert np.allclose(w(-x), w(x))  # even
    pw = power_weight(-0.3)
    assert np.allclose(pw(x), x ** -0.3)
    shifted = w.shifted(2.0)
    assert shifted.params == (2.5, 1.5)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_constant_weight_every_p(p):
    member, sup = ap_check(w_ab_weight(0.0, 0.0), p)
    assert member and sup == pytest.approx(1.0, abs=1e-10)


def test_conjectured_measure_checker_reduction():
    from dunkl_osc import conjectured_measure_ap_check
    # at alpha = -1/2 the adapted measure is Lebesgue, so the verdict matches
    # the plain checker on a clear member and a clear non-member
    ok_in, _ = conjectured_measure_ap_check(power_weight(0.0), 2.0, -0.5)
    ok_out, _ = conjectured_measure_ap_check(power_weight(1.5), 2.0, -0.5)
    assert ok_in is True and ok_out is False


@pytest.mark.parametrize("weight", [power_weight(0.3), w_ab_weight(-0.5, 0.5)],
                         ids=["power", "w_ab"])
def test_experimental_check_reduces_to_ap_at_alpha_minus_half(weight):
    # alpha = -1/2 makes the measure |x|^{2a+1} dx Lebesgue: both checkers
    # then evaluate the same base supremum
    _, base_exp = conjectured_measure_ap_check(weight, 2.0, -0.5)
    _, base_ap = ap_check(weight, 2.0)
    assert base_exp == base_ap


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_experimental_constant_weight_is_one(alpha):
    # mu(B)-averages of the constant weight are 1 on every interval
    member, sup = conjectured_measure_ap_check(w_ab_weight(0.0, 0.0), 2.0, alpha)
    assert member and sup == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_experimental_check_matches_closed_criterion(p, alpha):
    # |x|^beta is in A_p(|x|^mu dx) iff -(mu + 1) < beta < (mu + 1)(p - 1)
    lo, hi = -(2.0 * alpha + 2.0), (2.0 * alpha + 2.0) * (p - 1.0)
    for beta in (lo - 0.5, lo + 0.5, hi - 0.5, hi + 0.5):
        member, _ = conjectured_measure_ap_check(power_weight(beta), p, alpha)
        assert member == (lo < beta < hi), (p, alpha, beta)


def test_nan_product_is_not_a_member():
    # beta = -4.5 is not integrable against |x|^3 dx; the deepest graded
    # probe meets 0 * inf = NaN products, which must not be skipped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        member, sup = conjectured_measure_ap_check(power_weight(-4.5), 2.0, 1.0)
    assert member is False and not np.isfinite(sup)


def _scalar_products(weight, p, mu, k_range, n_panels):
    """The A_p products of _ap_products, one interval and one average at a
    time, in its (m, j, sign) order; also how many straddle 0 and how many
    end at 0."""
    pp = p / (p - 1.0)
    e0 = weight.exponent_at_zero
    out, straddle, at_zero = [], 0, 0
    for m in range(-k_range, k_range + 1):
        for j in range(-k_range, k_range + 1):
            for s in (-1.0, 0.0, 1.0):
                if s == 0.0 and j != 0:
                    continue
                length, c = 2.0 ** m, s * 2.0 ** j
                lo, hi = c - length / 2.0, c + length / 2.0
                straddle += lo < 0.0 < hi
                at_zero += lo == 0.0 or hi == 0.0

                def integral(f, e):
                    if lo < 0.0 < hi:
                        x, q = _side_template(n_panels, _grading_for(e))
                        return sum(float(np.dot(sp * q, f(sp * x))) for sp in (-lo, hi))
                    x, q = _side_template(n_panels, 1.0)
                    return float(np.dot(length * q, f(lo + length * x)))

                meas = integral(lambda x: np.abs(x) ** mu, mu) if mu else length
                a1 = integral(lambda x: weight(x) * np.abs(x) ** mu, e0 + mu) / meas
                a2 = integral(lambda x: weight(x) ** (-pp / p) * np.abs(x) ** mu,
                              -e0 * pp / p + mu) / meas
                out.append(a1 * a2 ** (p / pp))
    return np.array(out), straddle, at_zero


@pytest.mark.parametrize("weight,p,mu", [
    (w_ab_weight(-0.5, 0.5), 2.0, 0.0),   # straddle gradings 4 and 1
    (w_ab_weight(0.6, -0.3), 3.0, 0.0),   # 1 and 3
    (w_ab_weight(-1.5, 0.5), 2.0, 1.0),   # 4 and 1, mu(B) shares grading 1
    (w_ab_weight(0.5, -0.5), 2.0, 1.0),   # one straddle node array
])
def test_batched_products_match_scalar_reference(weight, p, mu):
    # 48 panels (384 nodes a side) split each node array into several blocks
    ref, straddle, at_zero = _scalar_products(weight, p, mu, 3, 48)
    prod, level = _ap_products(weight, p, mu, 3, 48)
    assert straddle and at_zero and len(ref) - straddle - at_zero > 0
    assert prod.shape == ref.shape and np.all(np.isfinite(ref))
    assert np.max(np.abs(prod - ref) / ref) <= 1e-13
    assert level.max() == 3 and np.sum(level <= 1) == 3 * 7


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_base_sup_from_wide_pass_is_bitwise(mu):
    weight = w_ab_weight(-0.5, 1.5)
    wide, level = _ap_products(weight, 2.0, mu, 20, 12)
    base, _ = _ap_products(weight, 2.0, mu, 10, 12)
    assert np.array_equal(np.sort(wide[level <= 10]), np.sort(base))
    assert np.max(wide[level <= 10]) == np.max(base)
