"""The normal CDF ``phi`` and the exp-scaled ``f_helper`` of coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhscaling.coefficients import f_helper, phi

from oracles import bisect_on, mills_bounds, mp_f_helper, phi_inv, quad_phi


def test_phi_at_zero():
    assert phi(0.0) == 0.5


def test_phi_optimal_acceptance_constant():
    # 2 * Phi(-1.19) is the classic stationary acceptance rate.
    assert 2.0 * phi(-1.19) == pytest.approx(0.234, abs=2e-3)


def test_phi_against_quadrature_oracle():
    # frozen from quad_phi(1.644853626951)
    assert phi(1.644853626951) == pytest.approx(0.95, abs=1e-9)
    for x in (-8.0, -3.3, -0.7, 0.41, 2.9):
        assert phi(x) == pytest.approx(quad_phi(x), abs=1e-14)


def test_phi_symmetry_grid():
    for x in np.linspace(-12.0, 12.0, 4001):
        assert abs(phi(x) + phi(-x) - 1.0) <= 1e-14


def test_phi_monotone_on_grid():
    xs = np.linspace(-12.0, 12.0, 20001)
    vals = [phi(float(x)) for x in xs]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_mills_bounds_bracket_phi():
    for x in np.linspace(-12.0, -0.01, 2000):
        lower, upper = mills_bounds(float(x))
        assert lower < phi(float(x)) < upper


# phi_inv is the independent quantile oracle (scipy.special.ndtri); these
# tests check phi against it


def test_phi_inv_median():
    assert phi(phi_inv(0.5)) == 0.5


def test_phi_inv_frozen_oracle_values():
    # quantiles of 0.27 and 0.975 frozen from bisection, the second rounded
    # to 1e-9 (which moves phi by up to 1e-9 * pdf = 6e-11)
    assert phi(-0.6128129910166273) == pytest.approx(0.27, abs=1e-15)
    assert phi(1.959963985) == pytest.approx(0.975, abs=1e-10)


def test_phi_inv_residuals():
    for p in (1e-12, 1e-5, 0.02, 0.27, 0.5, 0.77, 0.99, 1 - 1e-8):
        assert abs(phi(phi_inv(p)) - p) <= 1e-10
        assert phi_inv(p) == pytest.approx(bisect_on(phi, p, -40.0, 40.0), abs=1e-9)


def test_phi_inv_roundtrip_on_x():
    # Rounding p = phi(x) to a double loses up to ulp(p) of information,
    # which maps back to ulp(p) / pdf(x) in x; near x = +6 that conditioning
    # term reaches ~1e-8 and no inverse can beat it.  The tolerance is
    # 1e-9 plus that unavoidable term.
    for x in np.linspace(-6.0, 6.0, 1201):
        x = float(x)
        p = phi(x)
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        conditioning = math.ulp(p) / pdf
        assert abs(phi_inv(p) - x) <= 1e-9 + conditioning


def test_f_helper_values():
    assert f_helper(0.0) == 0.5
    # frozen: exp(2) * quad_phi(-2)
    assert f_helper(-2.0) == pytest.approx(0.16810200122317062, rel=1e-12)


def test_h_helper_values():
    # h(x) = x * f_helper(x); frozen: exp(0.5) * quad_phi(+-1)
    assert 1.0 * f_helper(1.0) == pytest.approx(1.3871429788350047, rel=1e-12)
    assert -1.0 * f_helper(-1.0) == pytest.approx(-0.26157829186512344, rel=1e-12)


def test_f_and_h_strictly_increasing():
    xs = np.linspace(-10.0, 10.0, 10001)
    f_vals = [f_helper(float(x)) for x in xs]
    h_vals = [float(x) * f_helper(float(x)) for x in xs]
    assert all(b > a for a, b in zip(f_vals, f_vals[1:]))
    assert all(b > a for a, b in zip(h_vals, h_vals[1:]))


def test_f_helper_saturates_far_right():
    # finite up to the overflow of exp(x^2 / 2) near x = 37.6, inf past it
    assert f_helper(35.1) == pytest.approx(mp_f_helper(35.1), rel=1e-13)
    assert f_helper(37.6) < math.inf
    assert f_helper(37.7) == math.inf
    assert f_helper(100.0) == math.inf


def test_f_helper_far_left_tail_matches_log_phi():
    # exp(x^2 / 2) Phi(x) against 50-digit arithmetic, deep in the tail
    for x in (-2.0, -8.0, -36.0, -50.0, -120.0, -1e4):
        assert f_helper(x) == pytest.approx(mp_f_helper(x), rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-12.0, max_value=12.0))
def test_phi_in_unit_interval(x):
    assert 0.0 <= phi(x) <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e-6, max_value=5.0),
)
def test_f_ordering_property(x, gap):
    assert f_helper(x) < f_helper(x + gap)
