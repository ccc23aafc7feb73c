import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sp

import dunkl_osc
from dunkl_osc import DomainError, bessel_j_normalized
from dunkl_osc.special import MAX_ORDER, _ladder

# oracle: ascending series in extended precision (mpmath), frozen values
J_1_AT_2_5 = 0.4970941024642740380108163      # truncated series, 40 digits
J_3HALF_AT_7_7 = -0.007200035921625495404122322

ORDERS = [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0]


def bessel_j(a, u):
    """J_a(u) = u^a j_a(u) for u > 0."""
    return np.asarray(u, dtype=float) ** a * bessel_j_normalized(a, u)


def test_half_integer_closed_forms():
    assert bessel_j(0.5, np.pi / 2) == pytest.approx(2.0 / np.pi, abs=1e-15)
    assert bessel_j(-0.5, np.pi) == pytest.approx(-np.sqrt(2.0) / np.pi, abs=1e-15)


def test_series_oracle_values():
    assert abs(bessel_j(1.0, 2.5) - J_1_AT_2_5) < 1e-10
    assert abs(bessel_j(1.5, 7.7) - J_3HALF_AT_7_7) < 1e-12


def test_series_oracle_recomputed():
    # recompute the u <= 10 oracle here: plain Horner-free summation with
    # Python floats is enough to confirm the frozen constant's provenance
    import mpmath as mp
    mp.mp.dps = 40
    s = mp.mpf(0)
    for k in range(120):
        s += (-1) ** k * (mp.mpf("2.5") / 2) ** (2 * k + 1) / (
            mp.factorial(k) * mp.gamma(k + 2))
    assert abs(float(s) - J_1_AT_2_5) < 1e-16


def test_normalized_at_zero():
    assert bessel_j_normalized(-0.5, 0.0) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-14)
    assert bessel_j_normalized(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    # 1 / (2^a Gamma(a+1)) generally
    for a in (0.7, 1.5, 2.0):
        assert bessel_j_normalized(a, 0.0) == pytest.approx(
            1.0 / (2.0 ** a * math.gamma(a + 1.0)), rel=1e-13)


def test_normalized_closed_form_half():
    x = np.linspace(0.05, 30, 301)
    ref = np.sqrt(2 / np.pi) * np.sin(x) / x
    assert np.max(np.abs(bessel_j_normalized(0.5, x) - ref)) < 1e-14


@pytest.mark.parametrize("alpha", ORDERS)
def test_normalized_consistency(alpha):
    u = np.linspace(1e-3, 60, 700)
    lhs = bessel_j_normalized(alpha, u) * u ** alpha
    rhs = bessel_j(alpha, u)
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1.0 + np.abs(rhs)))


@pytest.mark.parametrize("alpha", ORDERS)
def test_continuity_at_zero(alpha):
    assert abs(bessel_j_normalized(alpha, 1e-8)
               - bessel_j_normalized(alpha, 0.0)) < 1e-7


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_recurrence(alpha):
    u = np.linspace(0.1, 50, 2000)
    lhs = bessel_j(alpha - 1.0, u) + bessel_j(alpha + 1.0, u)
    rhs = 2.0 * alpha / u * bessel_j(alpha, u)
    scale = np.abs(lhs) + np.abs(rhs) + np.sqrt(2.0 / (np.pi * u))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-9


@pytest.mark.parametrize("alpha", ORDERS + [0.25, 2.5, 3.0])
def test_against_scipy(alpha):
    u = np.concatenate([np.linspace(1e-9, 10, 801), np.geomspace(10.01, 600, 800)])
    mine = bessel_j(alpha, u)
    ref = sp.jv(alpha, u)
    small = u <= 10
    assert np.max(np.abs(mine - ref)[small]) < 1e-12
    env = np.sqrt(2.0 / (np.pi * u[~small]))
    assert np.max(np.abs(mine - ref)[~small] / env) < 1e-10


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        bessel_j_normalized(0.5, -1.0)
    with pytest.raises(DomainError):
        bessel_j_normalized(1.0, np.array([0.5, -0.1]))


def test_order_below_minus_half_rejected():
    from dunkl_osc import ArgumentError
    with pytest.raises(ArgumentError):
        bessel_j_normalized(-0.6, 1.0)
    with pytest.raises(ArgumentError):
        bessel_j_normalized(-1.0, 1.0)


def test_oracle_lattice_up_to_max_order():
    # every half-integer order up to MAX_ORDER and -1/4, plus off-lattice
    # orders whose coefficients are not exact in double precision, across
    # every band up to u = 600; relative where |J| > 1 (negative order, u -> 0)
    u = np.concatenate([np.linspace(0.0, 60.0, 6001)[1:], np.geomspace(60.0, 600.0, 2000)])
    for alpha in [-0.25] + list(np.arange(0.0, MAX_ORDER + 0.25, 0.5)) + [1.05, 6.95, 30.3]:
        ref = sp.jv(alpha, u)
        err = np.max(np.abs(bessel_j(alpha, u) - ref) / np.maximum(1.0, np.abs(ref)))
        assert err <= 1e-13, (alpha, err)


def _kernel_arguments(res, n, rng):
    """n points u = x y of the res kernel grids, half of them u <= 14."""
    u = np.outer(res.half_grid().points, res.half_freq_grid().points).ravel()
    return np.concatenate([rng.choice(u[u <= 14.0], n // 2, replace=False),
                           rng.choice(u[u > 14.0], n // 2, replace=False)])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
def test_kernel_grids_against_mpmath(alpha):
    # 1000 points of each of the N=512 and N=1536 kernels per order
    import mpmath as mp
    from dunkl_osc import Resolution, resolution_n512
    rng = np.random.default_rng(11)
    u = np.concatenate([_kernel_arguments(r, 1000, rng)
                        for r in (resolution_n512(), Resolution())])
    if abs(alpha) == 0.5:
        # the closed forms, against the envelope sqrt(2/pi) max(1, u)^(-a-1/2)
        # of |j_a|: J_{-1/2} is unbounded at 0, so no absolute bound on J applies
        with mp.workdps(30):
            ref = np.array([float(mp.besselj(alpha, mp.mpf(x)) / mp.mpf(x) ** alpha) for x in u])
        env = np.sqrt(2.0 / np.pi) * np.maximum(1.0, u) ** (-alpha - 0.5)
        assert np.max(np.abs(bessel_j_normalized(alpha, u) - ref) / env) <= 1e-15
        return
    with mp.workdps(30):
        ref = np.array([float(mp.besselj(alpha, mp.mpf(x))) for x in u])
    err = np.abs(bessel_j(alpha, u) - ref)
    assert np.max(err[u <= 14.0]) <= 1e-15
    assert np.max(err[u > 14.0]) <= 4e-15


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0, 2.5, 7.0, 20.0, 33.3, MAX_ORDER])
def test_small_argument_relative(alpha):
    # j_a(u) ~ 1/(2^a Gamma(a+1)) is tiny at high order: the series branch
    # must be accurate relative to it, not merely absolutely
    import mpmath as mp
    u = np.concatenate([[0.0, 1e-9, 1e-3], np.linspace(0.01, 2.0, 60)])
    with mp.workdps(30):
        ref = np.array([float(mp.besselj(alpha, mp.mpf(x)) / mp.mpf(x) ** alpha) if x > 0
                        else float(1 / (mp.mpf(2) ** alpha * mp.gamma(alpha + 1))) for x in u])
    assert np.max(np.abs(bessel_j_normalized(alpha, u) / ref - 1.0)) <= 1e-13


@pytest.mark.parametrize("alpha", [10.0, 20.5, 33.3, MAX_ORDER])
def test_below_turning_point_relative(alpha):
    # the Miller band at u < a, where J_a decays like (u/2)^a / Gamma(a+1)
    # and a Hankel kernel weights it by y^(2a+1)
    import mpmath as mp
    u = np.linspace(2.01, 0.95 * alpha, 40)
    with mp.workdps(30):
        ref = np.array([float(mp.besselj(alpha, mp.mpf(x)) / mp.mpf(x) ** alpha) for x in u])
    assert np.max(np.abs(bessel_j_normalized(alpha, u) / ref - 1.0)) <= 1e-13


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 20.0, 20.5, 24.0, 25.0, 48.0, 49.0])
def test_ladder_pass_has_each_orders_bits(alpha):
    # the bit rule on a dense u: passes over j_a and j_{a+1}, and over j_a,
    # j_{a+1} and j_{a+2}, whose upper orders recur from rungs built in the
    # same pass, equal bessel_j_normalized bit for bit, also where another
    # order's turning point splits a band (a >= 20); the pass at a = 49
    # stops at MAX_ORDER
    u = np.linspace(0.0, 200.0, 200001)
    orders = [a for a in (alpha, alpha + 1.0, alpha + 2.0) if a <= MAX_ORDER]
    want = [bessel_j_normalized(a, u) for a in orders]
    for n in {2, len(orders)}:
        got = _ladder(orders[:n], u)
        assert all(np.array_equal(g, w) for g, w in zip(got, want[:n])), n


def test_import_pulls_no_test_dependencies():
    # scipy and mpmath are test-only; importing either at run time would
    # also cost every CLI start
    src = os.path.dirname(os.path.dirname(dunkl_osc.__file__))
    code = ("import sys, dunkl_osc; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_order_above_max_rejected():
    with pytest.raises(DomainError):
        bessel_j_normalized(MAX_ORDER + 0.5, 1.0)
    with pytest.raises(DomainError):
        bessel_j_normalized(MAX_ORDER + 1e-9, np.array([0.5, 14.5]))
