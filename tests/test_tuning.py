import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhscaling.coefficients import acc_rate, f1, f_rate, j_curve
from mhscaling.errors import ConcaveRegionError, DomainError
from mhscaling.tuning import (
    ell_alpha,
    ell_alpha_ab,
    ell_ent_gaussian,
    ell_star,
    ell_star_ab,
    matched_alpha,
    x_star,
)

from oracles import golden_max, mp_acceptance_terms, mp_f1, phi_inv


def test_x_star_value():
    assert x_star() == pytest.approx(1.22, abs=5e-3)

    def psi(x):
        return x * math.sqrt(2.0 / math.pi) * math.exp(-x * x / 8.0) - x * x * (
            0.5 * math.erfc(x / (2.0 * math.sqrt(2.0)))
        )

    assert x_star() == pytest.approx(golden_max(psi, 0.5, 4.0), abs=1e-7)


def test_x_star_is_the_50_digit_root():
    with mpmath.workdps(50):
        oracle = mpmath.findroot(lambda x: mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-x * x / 8)
                                 - 2 * x * mpmath.ncdf(-x / 2), 1.22)
    assert abs(x_star() - oracle) <= math.ulp(x_star())


def test_ell_star_at_zero_is_sqrt_two():
    res = ell_star(0.0)
    assert res.converged
    assert res.ell == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_ell_star_at_one():
    assert ell_star(1.0).ell == pytest.approx(1.85, abs=0.01)


def test_ell_star_large_s_asymptotics():
    assert ell_star(1e4).ell / 100.0 == pytest.approx(x_star(), abs=0.02)


def test_ell_star_asymptotic_sandwich():
    gaps = [abs(ell_star(s).ell / math.sqrt(s) - x_star()) for s in (1e2, 1e3, 1e4)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_ell_star_is_the_argmax():
    for s in (0.0, 0.3, 1.0, 2.5, 40.0):
        res = ell_star(s)
        for delta in (-1e-3, -1e-5, 1e-5, 1e-3):
            assert f1(s, res.ell) >= f1(s, res.ell + delta)


def test_ell_star_continuity():
    for s in (0.0, 1.0):
        assert abs(ell_star(s + 1e-4).ell - ell_star(s).ell) < 1e-2


def test_ell_star_ab_scaling():
    assert ell_star_ab(1.0, 1.0).ell == pytest.approx(1.85, abs=0.01)
    assert ell_star_ab(4.0, 4.0).ell == pytest.approx(
        ell_star(1.0).ell / 2.0, rel=1e-12
    )


def test_ell_star_ab_against_golden_oracle():
    got = ell_star_ab(2.0, 0.5).ell
    oracle = golden_max(lambda ell: f_rate(2.0, 0.5, ell), 1e-4, 30.0, tol=1e-10)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_ell_star_ab_scaling_law_property():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = float(rng.uniform(0.0, 6.0))
        b = float(rng.uniform(0.1, 4.0))
        lam = float(rng.uniform(0.2, 5.0))
        assert ell_star_ab(lam * a, lam * b).ell == pytest.approx(
            ell_star_ab(a, b).ell / math.sqrt(lam), abs=1e-8, rel=1e-8
        )


def test_ell_star_ab_rejects_nonpositive_curvature():
    with pytest.raises(ConcaveRegionError):
        ell_star_ab(1.0, 0.0)
    with pytest.raises(ConcaveRegionError):
        ell_star_ab(1.0, -2.0)


def test_ell_alpha_reference_point():
    assert ell_alpha(1.0, 0.234).ell == pytest.approx(2.38, abs=0.01)


def test_ell_alpha_small_s_limit():
    assert ell_alpha(1e-6, 0.37).ell == pytest.approx(
        math.sqrt(-2.0 * math.log(0.37)), abs=1e-3
    )


def test_ell_alpha_large_s_limit():
    assert ell_alpha(1e6, 0.27).ell / 1e3 == pytest.approx(
        -2.0 * phi_inv(0.27), abs=1e-3
    )


def test_ell_alpha_residuals_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        s = float(rng.uniform(0.01, 50.0))
        alpha = float(rng.uniform(0.02, 0.95))
        res = ell_alpha(s, alpha)
        assert abs(j_curve(s, res.ell) - alpha) <= 1e-10


@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("s", [1e12, 1e20, 1e42, 1e100])
def test_ell_alpha_above_one_half_at_large_s(s, alpha):
    # a target above 1/2 puts the root near 1 / sqrt s, far below any fixed
    # absolute tolerance
    assert abs(j_curve(s, ell_alpha(s, alpha).ell) - alpha) <= 1e-12


def test_ell_alpha_at_huge_s_takes_few_iterations():
    assert ell_alpha(1e200, 0.27).iterations < 15


def test_star_and_alpha_solve_cost_canary():
    # total solver iterations over a wide grid of s, 400 solves; a seed that
    # starts far from the root shows here first.  The Chebyshev seeds and
    # Newton steps take 650 here, 1.6 a solve.
    grid = [float(s) for s in np.geomspace(1e-6, 1e12, 200)]
    total = sum(ell_star(s).iterations + ell_alpha(s, 0.27).iterations for s in grid)
    assert total <= 700


def _brentq_root(fn, ell):
    # scipy's brentq on fn in u = log ell, to the last bits, within e^(+-1/2)
    # of ell: the oracle of the Newton solves (a root outside that bracket
    # fails it, as brentq then raises)
    from scipy.optimize import brentq

    u = math.log(ell)
    return math.exp(brentq(lambda v: fn(math.exp(v)), u - 0.5, u + 0.5,
                           xtol=1e-15, rtol=8.9e-16, maxiter=200))


def test_rules_match_a_brentq_oracle_on_a_fixed_grid():
    # 10^4 (m, s, alpha) points: 2,000 s log-spaced over [1e-8, 1e8] and 500
    # with |s - 1| < 1e-3, each with the four acceptance targets; the k-th
    # target of each s goes with m^2 = (0, 0.3, 0.9, 0.999)[k] s, of either
    # sign, for the entropy rule.  ell_star is solved once per s.
    from mhscaling import tuning

    ss = np.concatenate((np.geomspace(1e-8, 1e8, 2000),
                         1.0 + np.linspace(-9.99e-4, 9.99e-4, 500)))
    worst = {}

    def check(rule, got, fn):
        gap = abs(got / _brentq_root(fn, got) - 1.0)
        worst[rule] = max(worst.get(rule, 0.0), gap)

    for i, s in enumerate(ss.tolist()):
        check("star", ell_star(s).ell, lambda ell: tuning._slopes(s, ell)[0])
        for k, alpha in enumerate((0.01, 0.27, 0.574, 0.99)):
            check(alpha, ell_alpha(s, alpha).ell, lambda ell: j_curve(s, ell) - alpha)
            m = (-1.0) ** i * math.sqrt((0.0, 0.3, 0.9, 0.999)[k] * s)
            m2 = m * m

            def descent(ell):
                # -(s - m^2) times the ell-derivative of the entropy objective
                f1_slope, drift_slope, _, _ = tuning._slopes(s, ell)
                return 2.0 * m2 * drift_slope - (1.0 - s) * (s - m2 - 1.0) * f1_slope

            check("ent", ell_ent_gaussian(m, s).ell, descent)
    assert max(worst.values()) <= 1e-12, worst


@pytest.mark.parametrize("s", [1e-8, 0.3, 0.5, 0.9995, 1.0, 4.0, 80.0, 1e6, 1e12])
def test_slopes_match_50_digit_derivatives(s):
    # _slopes' first and second ell-derivatives of f1 and g_drift(s, 1, .) and
    # _acceptance_and_slope's of j_curve, against mpmath's numerical
    # derivatives of the closed forms, around each rule's root
    from mhscaling import tuning

    def mp_rate(ell):
        return mp_f1(s, ell)

    def mp_drift(ell):
        return ell * ell * mp_acceptance_terms(s, ell)[1]

    def mp_accept(ell):
        return sum(mp_acceptance_terms(s, ell))

    for factor in (0.5, 1.0, 2.0):
        ell = factor * math.hypot(math.sqrt(2.0), x_star() * math.sqrt(s))
        with mpmath.workdps(50):
            oracle = [mpmath.diff(mp_rate, ell), mpmath.diff(mp_drift, ell),
                      mpmath.diff(mp_rate, ell, 2), mpmath.diff(mp_drift, ell, 2),
                      mpmath.diff(mp_accept, ell)]
            scale = [abs(mp_rate(ell)) / ell, abs(mp_drift(ell)) / ell]
        got = [*tuning._slopes(s, ell), tuning._acceptance_and_slope(s, ell)[1]]
        # the first derivatives vanish at a root: there they are held to
        # the scale of the function's own value
        floor = [1e-13 * scale[0], 1e-13 * scale[1], 0.0, 0.0, 0.0]
        for g, o, f in zip(got, oracle, floor):
            assert abs(g - float(o)) <= 1e-7 * abs(float(o)) + f, (factor, got, oracle)


def test_ell_alpha_domain():
    with pytest.raises(DomainError):
        ell_alpha(0.0, 0.3)
    with pytest.raises(DomainError):
        ell_alpha(1.0, 0.0)
    with pytest.raises(DomainError):
        ell_alpha(1.0, 1.0)


def test_ell_alpha_ab_matches_b_one():
    alpha = 0.31
    assert ell_alpha_ab(1.0, 1.0, alpha).ell == pytest.approx(
        ell_alpha(1.0, alpha).ell, rel=1e-13
    )


def test_ell_alpha_ab_double_well_start_moments():
    got = ell_alpha_ab(5.24, 5.24, 0.27).ell
    assert got == pytest.approx(ell_alpha(1.0, 0.27).ell / math.sqrt(5.24), rel=1e-12)


def test_ell_alpha_ab_acceptance_residual():
    res = ell_alpha_ab(3.0, 2.0, 0.3)
    assert acc_rate(3.0, 2.0, res.ell) == pytest.approx(0.3, abs=1e-9)


def test_matched_alpha_values():
    assert matched_alpha("near_equilibrium") == pytest.approx(0.35, abs=0.005)
    assert matched_alpha("s_to_zero") == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert matched_alpha("s_to_infinity") == pytest.approx(0.27, abs=0.005)
    with pytest.raises(DomainError):
        matched_alpha("nonsense")


def test_f1_unimodality_single_sign_change():
    # one rise and one fall of successive differences on a geometric grid
    for s in (0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 10.0, 100.0):
        hi = max(6.0, 3.0 * x_star() * math.sqrt(s))
        grid = np.geomspace(1e-3, hi, 1000)
        vals = np.array([f1(s, float(ell)) for ell in grid])
        diffs = np.diff(vals)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes == 1, (s, changes)


def test_ell_ent_gaussian_degenerate_convention():
    # m = 1e-200 squares to 0, so the objective vanishes there too
    for m in (0.0, 1e-200):
        res = ell_ent_gaussian(m, 1.0)
        assert res.ell == pytest.approx(ell_star(1.0).ell, rel=1e-12)
        assert res.objective_value == 0.0


def test_ell_ent_gaussian_zero_mean_matches_rate_optimal():
    # with m = 0 the objective is a negative multiple of f1, so the
    # minimizer coincides with ell_star
    res = ell_ent_gaussian(0.0, 4.0)
    assert res.ell == pytest.approx(ell_star(4.0).ell, abs=1e-4)


def _ent_objective(m, s, ell):
    # twice dH/dt along the moment flow, written from the chain rule on
    # H = (s - ln(s - m^2) - 1) / 2 (independent route to the same objective)
    from mhscaling.coefficients import g_drift

    ds = f1(s, ell) * (1.0 - s)
    dm = -g_drift(s, 1.0, ell) * m
    return ds - (ds - 2.0 * m * dm) / (s - m * m)


@pytest.mark.parametrize("m,s", [(0.0, 4.0), (3.0, 10.0), (1.0, 2.0), (-2.0, 6.0)])
def test_ell_ent_gaussian_grid_oracle(m, s):
    res = ell_ent_gaussian(m, s)
    grid = np.linspace(1e-3, 12.0, 120001)
    vals = [_ent_objective(m, s, float(ell)) for ell in grid]
    oracle = float(grid[int(np.argmin(vals))])
    assert res.ell == pytest.approx(oracle, abs=1e-4)
    assert res.objective_value <= min(vals) + 1e-12


def test_ell_ent_gaussian_domain():
    with pytest.raises(DomainError):
        ell_ent_gaussian(2.0, 4.0)
    with pytest.raises(DomainError):
        ell_ent_gaussian(1.0, 0.5)


def _mp_ent_objective(m, s, ell):
    # the same objective in 50-digit arithmetic, from the closed forms
    # f1 = ell^2 (Phi(-ell / (2 sqrt s)) + (1 - 2s) E) / (1 - s) and
    # g_drift = ell^2 E, E = exp(ell^2 (s - 1) / 2) Phi(ell (1 / (2 sqrt s) - sqrt s))
    root_s = mpmath.sqrt(s)
    e = mpmath.exp(ell * ell * (s - 1) / 2) * mpmath.ncdf(ell * (1 / (2 * root_s) - root_s))
    rate = ell * ell * (mpmath.ncdf(-ell / (2 * root_s)) + (1 - 2 * s) * e)
    drift = ell * ell * e
    return rate - (rate + 2 * m * m * drift) / (s - m * m)


def _mp_derivative_root(fn, bracket):
    # root of the ell-derivative of fn, by 50-digit numerical differentiation
    with mpmath.workdps(50):
        return float(mpmath.findroot(lambda ell: mpmath.diff(fn, ell), bracket,
                                     solver="anderson"))


@pytest.mark.parametrize("s", [160.0, 1e3, 3e3, 1e5, 1e6, 1e8, 1e12])
def test_ell_star_matches_mpmath_root_at_large_s(s):
    # the direct derivative form cancels to eps * s^2 here
    def rate(ell):
        ss = mpmath.mpf(s)
        return _mp_ent_objective(0, ss, ell) * ss / -(1 - ss) ** 2

    root_s = math.sqrt(s)
    oracle = _mp_derivative_root(rate, (root_s, 1.5 * root_s))
    assert ell_star(s).ell == pytest.approx(oracle, rel=2e-11)
    assert ell_ent_gaussian(0.0, s).ell == pytest.approx(oracle, rel=2e-11)


def test_ell_ent_gaussian_solves_at_huge_s():
    # (1 - s)(s - m^2 - 1) overflows here unless the descent weights are rescaled
    for s in np.geomspace(1e100, 1e307, 300):
        for m in (0.0, 1.0, 1e5):
            res = ell_ent_gaussian(m, float(s))
            assert 0.0 < res.ell < math.inf and math.isfinite(res.objective_value)


def test_rules_solve_near_the_top_of_the_float_range():
    # the roots are near 1e154, normal doubles; above s ~ 2.3e307 the
    # bracket's outer end squared, or 8 s, overflowed and the rules refused
    s = 5e307
    assert ell_star(s).ell == pytest.approx(x_star() * math.sqrt(s), rel=1e-13)
    assert abs(ell_alpha(1e308, 0.27).objective_value - 0.27) <= 1e-14
    res = ell_ent_gaussian(1.0, s)
    assert res.converged and 0.0 < res.ell < math.inf


@pytest.mark.parametrize("m,s", [(3.0, 10.0), (1.0, 2.0), (-2.0, 6.0), (0.5, 0.3),
                                 (0.1, 0.02), (10.0, 200.0), (1.9, 4.0), (0.0, 4.0),
                                 (900.0, 1e6)])
def test_ell_ent_gaussian_matches_mpmath_derivative_root(m, s):
    # the minimizer is a root of the objective's ell-derivative, taken here by
    # high-precision numerical differentiation and bracketed by a coarse scan
    grid = np.geomspace(1e-2, 10.0 * math.sqrt(max(s, 1.0)), 400)
    idx = int(np.argmin([_ent_objective(m, s, float(ell)) for ell in grid]))
    oracle = _mp_derivative_root(
        lambda ell: _mp_ent_objective(mpmath.mpf(m), mpmath.mpf(s), ell),
        (grid[idx - 1], grid[idx + 1]),
    )
    assert ell_ent_gaussian(m, s).ell == pytest.approx(oracle, rel=1e-10)


def test_ent_objective_single_fall_then_rise():
    # the root-finding rule relies on one sign change of the ell-derivative;
    # checked on geometric grids for s < 1, s >> 1 and m^2 near s
    for s in (0.02, 0.3, 0.9, 2.0, 10.0, 100.0, 500.0):
        for frac in (0.0, 0.5, 0.9, 0.999):
            m = frac * math.sqrt(s)
            hi = max(6.0, 3.0 * x_star() * math.sqrt(max(s, 1.0)))
            grid = np.geomspace(1e-3, hi, 1000)
            vals = np.array([_ent_objective(m, s, float(ell)) for ell in grid])
            diffs = np.diff(vals)
            signs = np.sign(diffs[np.abs(diffs) > 1e-12 * np.max(np.abs(vals))])
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert signs[0] < 0 and changes == 1, (m, s, changes)


@settings(max_examples=500, deadline=None)
@given(*3 * [st.floats(allow_nan=False, allow_infinity=False)])
def test_rules_return_a_finite_scale_or_refuse(m, s, alpha):
    # over all finite inputs: a usable scale, or DomainError (never a bare
    # ValueError from the root finder, never a nan)
    for solve in (lambda: ell_star(s), lambda: ell_alpha(s, alpha),
                  lambda: ell_ent_gaussian(m, s)):
        try:
            res = solve()
        except DomainError:
            continue
        assert 0.0 < res.ell < math.inf and math.isfinite(res.objective_value)


def test_solves_evaluate_each_ell_once(monkeypatch):
    # no solve evaluates its rule twice at one ell
    from mhscaling import tuning

    seen = []

    def recording(fn):
        def wrapped(s, ell):
            seen.append(ell)
            return fn(s, ell)
        return wrapped

    tuning._star_series(), tuning._alpha_series(0.27)  # built once, not counted
    for name in ("_slopes", "_acceptance_and_slope", "j_curve"):
        monkeypatch.setattr(tuning, name, recording(getattr(tuning, name)))
    for solve in (lambda: ell_star(4.0), lambda: ell_alpha(4.0, 0.27),
                  lambda: ell_ent_gaussian(2.0, 6.0)):
        seen.clear()
        solve()
        assert seen and len(seen) == len(set(seen))


def test_solves_evaluate_the_special_functions_once_per_ell(monkeypatch):
    # Each ell a rate-optimal or entropy solve tries costs one Phi and one
    # f_helper call, for f1 and both ell-derivatives together (s > 1/2, where
    # the second acceptance term goes through f_helper), and so does the
    # objective at the root; the (a, b) form rescales that objective.
    from mhscaling import coefficients, tuning

    calls, ells = {"phi": 0, "f_helper": 0}, []

    def counting(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    root = tuning._newton_root

    def recording_root(fn, objective, seed):
        def recorded(ell):
            ells.append(ell)
            return fn(ell)
        return root(recorded, objective, seed)

    tuning._star_series()  # built once, at the first solve: not counted here
    phi = coefficients.phi
    for module in (coefficients, tuning):  # Phi as each module binds it
        monkeypatch.setattr(module, "phi", counting("phi", phi))
    monkeypatch.setattr(coefficients, "f_helper", counting("f_helper", coefficients.f_helper))
    monkeypatch.setattr(tuning, "_newton_root", recording_root)
    for solve in (lambda: ell_star(4.0), lambda: ell_star_ab(4.0, 1.3),
                  lambda: ell_ent_gaussian(1.0, 6.0)):
        calls.update(phi=0, f_helper=0)
        ells.clear()
        solve()
        assert ells and calls == {"phi": len(ells) + 1, "f_helper": len(ells) + 1}


def test_ell_alpha_reports_the_acceptance_at_its_root():
    for s in np.geomspace(1e-6, 1e6, 61):
        for alpha in (0.01, 0.27, 0.574, 0.99):
            res = ell_alpha(float(s), alpha)
            assert res.objective_value == j_curve(float(s), res.ell)
