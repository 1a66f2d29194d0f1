import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhscaling.coefficients import (
    A_INFINITE,
    _f1_and_drift,
    acc_rate,
    f1,
    f_rate,
    g_drift,
    gamma,
    j_curve,
    phi,
)
from mhscaling.errors import DomainError

from oracles import mc_gamma_gdrift, mp_f1, mp_h_helper


def test_gamma_on_diagonal_matches_acceptance_form():
    for ell in (0.5, 1.7, 2.38, 4.0):
        assert gamma(1.0, 1.0, ell) == pytest.approx(
            2.0 * ell * ell * phi(-0.5 * ell), rel=1e-14
        )


def test_gamma_infinite_a_branch():
    assert gamma(A_INFINITE, 0.3, 1.7) == pytest.approx(1.7**2 / 2.0, rel=1e-15)
    assert gamma(math.inf, -4.0, 0.9) == 0.9**2 / 2.0


def test_gamma_zero_a_branch():
    # positive part of b in the exponent
    assert gamma(0.0, 2.0, 1.1) == pytest.approx(
        1.1**2 * math.exp(-0.5 * 1.1**2 * 2.0), rel=1e-15
    )
    assert gamma(0.0, -2.0, 1.1) == pytest.approx(1.1**2, rel=1e-15)


def test_gamma_monte_carlo_oracle():
    # frozen spot check at (2, 0.5, 1.3); wider randomized sweep below
    got = gamma(2.0, 0.5, 1.3)
    est, se, _, _ = mc_gamma_gdrift(2.0, 0.5, 1.3, 2_000_000, seed=7)
    assert abs(got - est) <= 4.0 * se


def test_g_drift_branches():
    assert g_drift(math.inf, -3.0, 2.0) == 0.0
    assert g_drift(1.0, 1.0, 2.0) == pytest.approx(
        0.5 * gamma(1.0, 1.0, 2.0), rel=1e-14
    )
    # a = 0: indicator of positive curvature
    assert g_drift(0.0, -1.0, 1.5) == 0.0
    assert g_drift(0.0, 2.0, 1.5) == pytest.approx(
        1.5**2 * math.exp(-0.5 * 1.5**2 * 2.0), rel=1e-15
    )


def test_g_drift_monte_carlo_oracle():
    got = g_drift(2.0, 0.5, 1.3)
    _, _, est, se = mc_gamma_gdrift(2.0, 0.5, 1.3, 2_000_000, seed=7)
    assert abs(got - est) <= 4.0 * se


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        a = float(rng.uniform(0.05, 8.0))
        b = float(rng.uniform(-3.0, 3.0))
        ell = float(rng.uniform(0.2, 3.0))
        g_est, g_se, d_est, d_se = mc_gamma_gdrift(
            a, b, ell, 2_000_000, seed=int(rng.integers(1 << 31))
        )
        assert abs(gamma(a, b, ell) - g_est) <= 4.0 * g_se
        assert abs(g_drift(a, b, ell) - d_est) <= 4.0 * d_se


def test_gamma_gdrift_domain_errors():
    for fn in (gamma, g_drift, acc_rate):
        with pytest.raises(DomainError):
            fn(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            fn(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            fn(1.0, math.inf, 1.0)


def test_acc_rate_examples():
    assert acc_rate(1.0, 1.0, 2.38) == pytest.approx(0.234, abs=1e-3)
    assert acc_rate(0.0, -1.0, 3.7) == 1.0
    est = np.exp(
        np.minimum(
            np.random.default_rng(99).normal(
                -0.5 * 1.1**2 * 2.0, 1.1 * math.sqrt(3.0), size=4_000_000
            ),
            0.0,
        )
    )
    assert acc_rate(3.0, 2.0, 1.1) == pytest.approx(
        est.mean(), abs=4.0 * est.std() / 2000.0
    )


def test_gamma_bounds():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a = float(rng.uniform(0.0, 10.0))
        b = float(rng.uniform(-5.0, 5.0))
        ell = float(rng.uniform(0.05, 5.0))
        g = gamma(a, b, ell)
        d = g_drift(a, b, ell)
        assert 0.0 < g <= ell * ell * (1.0 + 1e-15)
        assert 0.0 <= d <= g * (1.0 + 1e-14)


def test_sign_identity_grid():
    # sign(gamma - 2*g_drift) == sign(a - b) away from the diagonal
    a_grid = np.linspace(0.0, 10.0, 11)
    b_grid = np.linspace(-5.0, 5.0, 11)
    ells = (0.5, 1.0, 2.0, 4.0, 5.0)
    checked = 0
    for a in a_grid:
        for b in b_grid:
            for ell in ells:
                if a == b:
                    continue
                diff = gamma(float(a), float(b), ell) - 2.0 * g_drift(
                    float(a), float(b), ell
                )
                assert math.copysign(1.0, diff) == math.copysign(1.0, a - b), (
                    a,
                    b,
                    ell,
                )
                checked += 1
    assert checked >= 500


def test_equilibrium_identity_high_precision():
    for c in np.linspace(0.05, 12.0, 40):
        for ell in (0.3, 1.0, 2.38, 4.4):
            g = gamma(float(c), float(c), ell)
            d = g_drift(float(c), float(c), ell)
            assert abs(g - 2.0 * d) <= 1e-12


def test_f_rate_zero_a_is_gamma():
    # b = 0 and b = +-1e-8 are the diagonal a == b and points next to it
    for b in (-2.0, -1e-8, 0.0, 1e-8, 0.5, 1.0, 3.0):
        for ell in (0.7, 2.0):
            assert f_rate(0.0, b, ell) == pytest.approx(
                gamma(0.0, b, ell), rel=1e-13
            )


def test_f_rate_diagonal_closed_form():
    ell = 1.6
    expected = (
        2.0
        * ell**2
        * (
            (1.0 + ell**2 / 4.0) * phi(-ell / 2.0)
            - ell / (2.0 * math.sqrt(2.0 * math.pi)) * math.exp(-(ell**2) / 8.0)
        )
    )
    assert f_rate(1.0, 1.0, ell) == pytest.approx(expected, rel=1e-14)


def test_f_rate_continuous_across_diagonal():
    # f_rate at a == b and a relative gap of 1e-8 and 2e-7 either side
    for a in (0.3, 1.0, 4.0):
        for ell in (0.8, 2.0):
            assert f_rate(a, a + 1e-8, ell) == pytest.approx(
                f_rate(a, a, ell), abs=1e-5
            )
            assert f_rate(a, a - 1e-8, ell) == pytest.approx(
                f_rate(a, a, ell), abs=1e-5
            )
    for a in (0.3, 1.0, 4.0):
        delta = 2e-7 * max(1.0, a)
        assert f_rate(a, a + delta, 1.3) == pytest.approx(
            f_rate(a, a, 1.3), abs=1e-5
        )


def test_f_rate_across_the_diagonal_matches_a_50_digit_oracle():
    # f_rate is f1 rescaled for b > 0; the reference is mp_f1 through the
    # scaling identity, with a/b and ell sqrt(b) formed in 50 digits, on
    # both sides of a == b out to a relative gap of 1.01e-7.  A form first
    # order in a - b would be off by up to 7e-7 here.
    for b in (0.5, 1.0, 2.0, 7.3):
        for ell in (0.7, 1.5, 2.38):
            for delta in (0.0, 1e-8, -1e-8, 5e-8, -5e-8, 9.9e-8, -9.9e-8, 1.01e-7, -1.01e-7):
                a = b * (1.0 + delta)
                with mpmath.workdps(50):
                    big_b = mpmath.mpf(b)
                    oracle = float(mp_f1(mpmath.mpf(a) / big_b,
                                         mpmath.mpf(ell) * mpmath.sqrt(big_b)) / big_b)
                assert f_rate(a, b, ell) == pytest.approx(oracle, rel=1e-13), (a, b, ell)


def test_f_rate_positive_on_compacts():
    for m_bound in (1.0, 5.0, 10.0):
        values = []
        for a in np.linspace(0.0, m_bound, 21):
            for b in np.linspace(-m_bound, m_bound, 21):
                for ell in (0.5, 1.0, 2.0, 4.0):
                    values.append(f_rate(float(a), float(b), ell))
        assert min(values) > 0.0


def test_f_rate_appendix_h_form_oracle():
    # independent closed form through the increasing helper h, evaluated in
    # 50-digit arithmetic
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = float(rng.uniform(0.05, 6.0))
        b = float(rng.uniform(-3.0, 3.0))
        if abs(a - b) < 1e-3:
            continue
        ell = float(rng.uniform(0.2, 3.0))
        root_a = math.sqrt(a)
        oracle = (
            2.0
            * ell
            * root_a
            * math.exp(-(ell**2) * b * b / (8.0 * a))
            * (
                mp_h_helper(ell * (b - 2.0 * a) / (2.0 * root_a))
                - mp_h_helper(-ell * b / (2.0 * root_a))
            )
            / (b - a)
        )
        assert f_rate(a, b, ell) == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_f1_branches():
    for ell in (0.5, 1.3, 2.38):
        assert f1(0.0, ell) == pytest.approx(
            ell * ell * math.exp(-0.5 * ell * ell), rel=1e-15
        )
        assert f1(1.0, ell) == pytest.approx(f_rate(1.0, 1.0, ell), rel=1e-14)
    assert f1(4.0, 1.0) == pytest.approx(f_rate(4.0, 1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("gap", [1e-3, -1e-3, 1e-5, -1e-5, 1e-6, -1e-6, 1.01e-7, -1.01e-7])
def test_f1_near_one_matches_a_50_digit_oracle(gap):
    # The generic form divides by 1 - s and lost about eps / |1 - s| (5.8e-10
    # at 1 - s = 1e-6); inside |s - 1| < 1e-3 the series in s - 1 holds f1 to
    # rounding.  1 - s = 1e-3 rounds to just outside the band, where the
    # generic form is within 1e-12.
    s = 1.0 - gap
    tol = 1e-14 if abs(s - 1.0) < 1e-3 else 1e-12
    for ell in (0.3, 1.5, 1.85, 2.38):
        with mpmath.workdps(50):
            oracle = float(mp_f1(s, ell))
        assert f1(s, ell) == pytest.approx(oracle, rel=tol), ell


@pytest.mark.parametrize("s", [
    0.0, 1e-8, 1e-3, 0.5, 1.0 - 2e-7, 1.0 - 5e-8, 1.0, 1.0 + 5e-8, 1.0 + 2e-7,
    2.0, 1e3, 1e8,
])
def test_f1_and_drift_equals_separate_calls(s):
    # the fused helper is bit-for-bit f1 and g_drift at unit curvature, at
    # s = 1, inside f1's series band |s - 1| < 1e-3 and outside it
    for ell in np.logspace(-4.0, 3.0, 57):
        ell = float(ell)
        assert _f1_and_drift(s, ell) == (f1(s, ell), g_drift(s, 1.0, ell))


def test_f1_scaling_identity():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = float(rng.uniform(0.0, 8.0))
        b = float(rng.uniform(0.05, 5.0))
        ell = float(rng.uniform(0.1, 4.0))
        assert f_rate(a, b, ell) == pytest.approx(
            f1(a / b, ell * math.sqrt(b)) / b, abs=1e-12, rel=1e-10
        )


def test_j_curve_at_zero_and_reference():
    assert j_curve(0.77, 0.0) == 1.0
    assert j_curve(1.0, 2.38) == pytest.approx(0.234, abs=1e-3)


def test_j_curve_matches_acceptance():
    assert j_curve(0.5, 1.0) == pytest.approx(acc_rate(0.5, 1.0, 1.0), rel=1e-13)
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = float(rng.uniform(0.01, 9.0))
        b = float(rng.uniform(0.05, 4.0))
        ell = float(rng.uniform(0.1, 4.0))
        assert acc_rate(a, b, ell) == pytest.approx(
            j_curve(a / b, ell * math.sqrt(b)), rel=1e-11, abs=1e-13
        )


def test_j_curve_strictly_decreasing_and_vanishing():
    for s in (0.05, 0.5, 1.0, 3.0, 20.0):
        ells = np.linspace(1e-3, 8.0, 400)
        vals = [j_curve(s, float(ell)) for ell in ells]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    # far-scale limit, compared against the explicit tail bound
    for s in (0.7, 2.0):
        val = j_curve(s, 50.0)
        bound = phi(-50.0 / (2.0 * math.sqrt(s))) + (
            math.exp(0.5 * 50.0**2 * (s - 1.0)) if s <= 0.5 else 0.0
        ) + (
            math.sqrt(2.0 * s) / (50.0 * (2.0 * s - 1.0) * math.sqrt(math.pi))
            * math.exp(-(50.0**2) / (8.0 * s))
            if s > 0.5
            else 0.0
        )
        assert val <= bound + 1e-300
        assert val < 1e-20


def test_j_curve_domain():
    with pytest.raises(DomainError):
        j_curve(0.0, 1.0)
    with pytest.raises(DomainError):
        j_curve(-1.0, 1.0)
    with pytest.raises(DomainError):
        j_curve(1.0, -0.5)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=9.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.5),
)
def test_sign_identity_property(a, b, ell):
    if abs(a - b) < 1e-9:
        return
    diff = gamma(a, b, ell) - 2.0 * g_drift(a, b, ell)
    assert math.copysign(1.0, diff) == math.copysign(1.0, a - b)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=0.01, max_value=6.0),
    st.floats(min_value=0.01, max_value=6.0),
)
def test_j_monotone_property(s, ell1, ell2):
    lo, hi = sorted((ell1, ell2))
    if hi - lo < 1e-9:
        return
    assert j_curve(s, hi) < j_curve(s, lo)


def test_coefficients_are_pinned():
    # The digest of every coefficient on a grid that takes in a = 0, a = inf,
    # a tiny and a huge a, points next to the diagonal a == b and b <= 0; a
    # raised error enters by its type name.  It moves if the arithmetic of
    # any coefficient changes, and such a change must be recorded; it is also
    # tied to the scipy in use, whose special functions they call.
    moments = (0.0, 1e-300, 1e-8, 0.3, 0.5, 1.0, 1.0 + 5e-8, 1.0 + 1e-6, 2.0, 37.0,
               1e8, 1e300, math.inf)
    curvatures = (-5.0, 0.0, 1e-3, 0.5, 1.0, 3.0, 1e4)
    ells = np.geomspace(1e-5, 100.0, 15).tolist()

    def value(fn, *args):
        try:
            return repr(fn(*args))
        except Exception as exc:  # noqa: BLE001 - the error is part of the pin
            return type(exc).__name__

    digest = hashlib.sha256()
    for ell in ells:
        for a in moments:
            for b in curvatures:
                for fn in (gamma, g_drift, acc_rate, f_rate):
                    digest.update(value(fn, a, b, ell).encode())
            for fn in (f1, j_curve, _f1_and_drift):
                digest.update(value(fn, a, ell).encode())
    assert digest.hexdigest() == "aa8e981eff40a5d97833405df531386c7d9fe758eeadfbfdb1a0cb9c289b8542"
