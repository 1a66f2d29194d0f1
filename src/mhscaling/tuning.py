"""Proposal-scale selection rules.

Three families of rules for picking the step constant ``ell`` (proposal
standard deviation ``ell / sqrt(n)``) from the current moments:

* ``ell_star`` / ``ell_star_ab``: maximize the entropy production rate
  ``f1(s, .)`` resp. ``f_rate(a, b, .)`` (rate-optimal rule);
* ``ell_alpha`` / ``ell_alpha_ab``: hold the limiting acceptance rate at a
  target value alpha (constant-acceptance rule);
* ``ell_ent_gaussian``: minimize the instantaneous entropy derivative of the
  Gaussian moment system (defined for Gaussian targets only).

Each rule is one root: of the analytic ell-derivative of its objective
(``ell_star``, ``ell_ent_gaussian``) or of the acceptance residual
(``ell_alpha``); a value-only search resolves a smooth optimum only to
sqrt(eps).  ``_slopes`` gives the first and second ell-derivatives of f1 and
g_drift(s, 1, .), and ``_acceptance_and_slope`` the acceptance and its
ell-derivative, each from one evaluation of the acceptance terms.  All three
share one solve, safeguarded Newton steps in u = log ell: a tolerance
relative in ell, as a target acceptance above 1/2 has its root near
1/sqrt s.  ``ell_star`` and ``ell_alpha`` depend on s alone, so each starts
from a Chebyshev series in s, built at its first use by the same solve (one
per acceptance target); ``ell_ent_gaussian`` starts from the rate-optimal
series, as ell_star(s) is its root at m = 0.

``matched_alpha`` returns the acceptance target that makes the constant-
acceptance rule coincide with the rate-optimal one in each asymptotic regime.

All rules require positive mean curvature b; for b <= 0 no finite scale is
optimal and a ``ConcaveRegionError`` is raised (callers apply a cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .coefficients import (
    _SQRT_2PI, _accept_terms, _check_ell, _f1_and_drift, _f1_and_terms, f1, j_curve, phi,
)
# f_rate and g_drift are not called here; they stay importable as
# tuning.<name>, names the per-layer trace of perfbench/ wraps
from .coefficients import f_rate, g_drift  # noqa: F401
from .errors import ConcaveRegionError, DomainError

__all__ = [
    "TuningResult",
    "x_star",
    "ell_star",
    "ell_star_ab",
    "ell_alpha",
    "ell_alpha_ab",
    "matched_alpha",
    "ell_ent_gaussian",
]

# A Newton step in u = log ell below _U_STEP ends a solve, as the error it
# leaves is of the order of its square; a safeguarding bracket narrower than
# _U_TOL ends one too.  Both are relative tolerances in ell.  No step is
# longer than _MAX_STEP, a factor e in ell.
_U_STEP, _U_TOL, _MAX_STEP = 1e-7, 1e-13, 1.0
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a one-dimensional tuning solve."""

    ell: float
    objective_value: float
    iterations: int
    converged: bool


# Above this value of t = ell (2s - 1) / (2 sqrt s), the Mills-ratio terms
# are taken through the gap 1 - t M(t), where M(t) = Phi(-t) / pdf(t), by its
# asymptotic series t^2 (1 - t M(t)) = 1 - 3u + 15u^2 - ... in u = 1/t^2,
# summed to the (2k + 1)!! u^k term below; the first omitted term is below
# 1e-17 at this t.  The direct forms cancel to a relative error of about
# eps * t^2: 1.4e-13 at this t, 2e-12 at t = 100, 6e-5 in ell_star at
# s = 1e6 (where t = 1.2e6); ell_star's root reaches this t near s = 20.
_GAP_T = 25.0
_GAP_SERIES = (3.0, 15.0, 105.0, 945.0, 10395.0, 135135.0, 2027025.0, 34459425.0,
               654729075.0)


def _mills_terms(s: float, ell: float, second: float):
    # (sqrt s, t, density, ell^2 D, ell^2 C) for the ell-derivatives below,
    # with density = pdf(ell / (2 sqrt s)), D = density M'(t) and
    # C = density (1 + t^2 M'(t)), given the second acceptance term
    # E = density M(t); M' = t M - 1.  Past _GAP_T, t^2 (1 + t^2 M'(t)) is the
    # series 3 - 15u + ... of _GAP_SERIES, and ell / t = sqrt s / (s - 1/2)
    # keeps both finite to the top of the floating-point range.
    root_s = math.sqrt(s)
    density = math.exp(-ell * ell / 8.0 / s) / _SQRT_2PI
    t = ell * ((s - 0.5) / root_s)
    if t > _GAP_T:
        u = 1.0 / (t * t)
        series = 0.0
        for c in reversed(_GAP_SERIES):
            series = c - u * series
        ratio = root_s / (s - 0.5)
        scaled = density * ratio * ratio
        return root_s, t, density, -scaled * (1.0 - u * series), scaled * series
    d1 = ell * ell * (t * second - density)
    return root_s, t, density, d1, ell * ell * density + t * t * d1


def _slopes(s: float, ell: float) -> tuple[float, float, float, float]:
    # The first and second ell-derivatives of f1(s, .) and of
    # g_drift(s, 1, .) = ell^2 E, as (f1', g', f1'', g''), from one evaluation
    # of f1 and its terms.  With q = ell^2 / (4s) and the rest as in
    # _mills_terms:
    #   f1'  = 2 f1 / ell + 2 sqrt(s) ell^2 D
    #   f1'' = f1' / ell + 2 sqrt(s) ell ((4 - q) D + C)
    #   g'   = ell ((2 - q) E + t D)
    #   g''  = (2 - 5q + q^2) E + t ((5 - 2q) D + C)
    # f1' vanishes once on (0, inf), at the maximizer.
    if s == 0.0:
        # there f1 and g_drift are both ell^2 e^{-ell^2/2}
        ell2 = ell * ell
        gauss = math.exp(-0.5 * ell2)
        slope, bend = (2.0 - ell2) * ell * gauss, (ell2 * (ell2 - 5.0) + 2.0) * gauss
        return slope, slope, bend, bend
    value, _, second = _f1_and_terms(s, ell)
    root_s, t, density, d1, c1 = _mills_terms(s, ell, second)
    q = ell * ell / 4.0 / s
    if t < 0.0:
        # below s = 1/2, q and t^2 are large and nearly equal: the same
        # written in w = ell^2 (s - 1) = t^2 - q
        w = ell * ell * (s - 1.0)
        core = (4.0 + w) * d1 + ell * ell * density
        drift_slope = ell * ((2.0 + w) * second - t * density)
        drift_bend = (2.0 + w * (5.0 + w)) * second - (
            t * density * (4.0 + w - q) if density else 0.0)
    else:
        ratio = (s - 0.5) / root_s  # t / ell
        core = (4.0 - q) * d1 + c1
        drift_slope = ell * (2.0 - q) * second + ratio * d1
        drift_bend = ((2.0 - q * (5.0 - q)) * second
                      + ratio / ell * ((5.0 - 2.0 * q) * d1 + c1))
    f1_slope = 2.0 * value / ell + 2.0 * root_s * d1
    return f1_slope, drift_slope, (f1_slope + 2.0 * root_s * core) / ell, drift_bend


def _acceptance_and_slope(s: float, ell: float) -> tuple[float, float]:
    # j_curve(s, ell) = Phi(-ell / (2 sqrt s)) + E and its ell-derivative
    # sqrt(s) D - ell E / 2 (as in _mills_terms), from one evaluation of the
    # acceptance terms
    first, second = _accept_terms(s, 1.0, ell)
    root_s, t, density, d1, _ = _mills_terms(s, ell, second)
    # D itself below _GAP_T, where ell^2 D may underflow with ell^2
    d = t * second - density if t <= _GAP_T else d1 / (ell * ell)
    return first + second, root_s * d - 0.5 * ell * second


_X_STAR = 1.2240063619249615


def x_star() -> float:
    """Maximizer of x*sqrt(2/pi)*exp(-x**2/8) - x**2*Phi(-x/2) (~1.22).

    Governs the large-s growth ell_star(s) ~ x_star * sqrt(s).  A literal:
    the 50-digit root of the derivative sqrt(2/pi) exp(-x^2/8) - 2 x Phi(-x/2),
    rounded to the nearest double.
    """
    return _X_STAR


# u = log ell over which exp(u) is a positive double and ell^2 is finite
_LOG_MIN, _LOG_MAX = math.log(5e-324), 0.5 * math.log(1.7e308)


def _newton_root(fn, objective, seed: float) -> TuningResult:
    # Root of fn(ell)[0], which is positive left of its one root and negative
    # right of it, with fn(ell)[1] its ell-derivative: Newton steps in
    # u = log ell from u = log seed.  A step that heads away from the side
    # the sign points to, or is longer than _MAX_STEP, becomes a step of
    # _MAX_STEP toward it.  The values seen so far bracket the root, at first
    # with the ends of the floating-point range, and an iterate outside the
    # bracket moves to its midpoint.  Each evaluation of fn counts as an
    # iteration; objective(root) is the rule's value.  Where the rule's
    # formulas over- or underflow, fn turns nan or keeps its sign to an end
    # of the floating-point range: a DomainError.
    lo, hi = _LOG_MIN, _LOG_MAX
    u = math.log(seed)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        ell = math.exp(u)
        value, slope = fn(ell)
        if math.isnan(value):
            raise DomainError(f"the rule is nan at the step scale {ell!r}; "
                              "the moments are too extreme")
        if value > 0.0:
            lo, limit = u, _MAX_STEP
        else:
            hi, limit = u, -_MAX_STEP
        scale = ell * slope
        step = -value / scale if 0.0 < abs(scale) < math.inf else limit
        if not 0.0 <= step / limit <= 1.0:
            step = limit
        if abs(step) <= _U_STEP:
            return _result(objective, math.exp(u + step), iteration, True)
        if hi - lo <= _U_TOL:
            if lo == _LOG_MIN or hi == _LOG_MAX:
                raise DomainError(
                    f"no step scale in [{math.exp(_LOG_MIN):g}, {math.exp(_LOG_MAX):g}] "
                    "solves the rule in floating point; the moments are too extreme")
            return _result(objective, math.exp(0.5 * (lo + hi)), iteration, True)
        u += step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
    return _result(objective, math.exp(u), _MAX_ITERATIONS, False)


def _result(objective, root: float, iterations: int, converged: bool) -> TuningResult:
    value = objective(root)
    if not math.isfinite(value):
        raise DomainError(f"the rule's objective is {value!r} at its root {root!r}; "
                          "the moments are too extreme")
    return TuningResult(root, value, iterations, converged)


# ell_star and ell_alpha start from a Chebyshev series (Trefethen,
# Approximation Theory and Approximation Practice, SIAM 2013) for
# log(ell(s) / (1 + s)^power) in x = tanh(ln s / 4) = (sqrt s - 1) / (sqrt s + 1),
# which maps s in [0, inf] onto [-1, 1]; power is the rule's growth
# ell ~ s^power as s -> inf, so the series is bounded and its two ends are
# the asymptotes ell(0) and ell / s^power at infinity.  At degree 32 its
# relative error over all s is below 1.4e-7 for ell_star, 2e-7 for
# ell_alpha(., 0.27) and 7e-5 for a target of 0.99, so most solves end
# after one Newton step; in tanh(ln s / 12) over s in [1e-8, 1e8], the
# degree-32 series of ell_star is only within 5e-4.
_DEGREE = 32


def _chebyshev_series(solve, ell_at_zero: float, power: float):
    # (coefficients, power) of the series interpolating at the first-kind
    # Chebyshev points; solve(s, seed) finds each root from the one at the
    # next smaller s, the smallest from the rule's value at s = 0.
    n = _DEGREE + 1
    angles = [math.pi * (k + 0.5) / n for k in range(n)]
    logs, ell, previous = [0.0] * n, ell_at_zero, 0.0
    for k in reversed(range(n)):
        x = math.cos(angles[k])
        s = ((1.0 + x) / (1.0 - x)) ** 2
        ell = solve(s, ell * ((1.0 + s) / (1.0 + previous)) ** power).ell
        logs[k], previous = math.log(ell) - power * math.log1p(s), s
    coefs = [2.0 / n * sum(y * math.cos(j * a) for y, a in zip(logs, angles))
             for j in range(n)]
    coefs[0] *= 0.5
    return tuple(coefs), power


def _seed(series, s: float) -> float:
    coefs, power = series
    root_s = math.sqrt(s)
    x = (root_s - 1.0) / (root_s + 1.0)
    # Clenshaw's recurrence for the sum of coefs[j] T_j(x)
    b1 = b2 = 0.0
    x2 = x + x
    for c in coefs[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return math.exp(coefs[0] + x * b1 - b2 + power * math.log1p(s))


def _solve_star(s: float, seed: float) -> TuningResult:
    def fn(ell):
        f1_slope, _, f1_bend, _ = _slopes(s, ell)
        return f1_slope, f1_bend
    return _newton_root(fn, lambda ell: f1(s, ell), seed)


def _solve_alpha(s: float, alpha: float, seed: float) -> TuningResult:
    def fn(ell):
        accept, slope = _acceptance_and_slope(s, ell)
        return accept - alpha, slope
    return _newton_root(fn, lambda ell: j_curve(s, ell), seed)


@lru_cache(maxsize=None)
def _star_series():
    return _chebyshev_series(_solve_star, math.sqrt(2.0), 0.5)


@lru_cache(maxsize=64)
def _alpha_series(alpha: float):
    # j_curve(0, ell) = exp(-ell^2 / 2); the root grows like sqrt(s) for
    # targets below 1/2 and shrinks like 1 / sqrt(s) for targets above it
    return _chebyshev_series(lambda s, seed: _solve_alpha(s, alpha, seed),
                             math.sqrt(-2.0 * math.log(alpha)),
                             0.5 * ((alpha < 0.5) - (alpha > 0.5)))


def ell_star(s: float) -> TuningResult:
    """Unique maximizer of ell -> f1(s, ell) on (0, inf)."""
    if s < 0.0 or math.isnan(s):
        raise DomainError(f"moment ratio s must be >= 0, got {s!r}")
    return _solve_star(s, _seed(_star_series(), s))


def ell_star_ab(a: float, b: float) -> TuningResult:
    """Maximizer of ell -> f_rate(a, b, ell); equals ell_star(a/b) / sqrt(b).

    Its objective is ell_star(a/b)'s divided by b, as f_rate is f1 rescaled.
    """
    if a < 0.0 or math.isnan(a):
        raise DomainError(f"moment a must be >= 0, got {a!r}")
    if not b > 0.0:
        raise ConcaveRegionError(
            "no finite rate-optimal step scale for b <= 0; larger proposals "
            "only speed up the exit from the concave region, apply a cap"
        )
    base = ell_star(a / b)
    ell = base.ell / math.sqrt(b)
    _check_ell(ell)
    return TuningResult(ell, base.objective_value / b, base.iterations, base.converged)


def ell_alpha(s: float, alpha: float) -> TuningResult:
    """Unique solution of j_curve(s, ell) == alpha (acceptance matching).

    The acceptance curve is strictly decreasing from 1 to 0, so the root is
    unique.
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"moment ratio s must be finite and > 0, got {s!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"target acceptance alpha must lie in (0, 1), got {alpha!r}")
    return _solve_alpha(s, alpha, _seed(_alpha_series(alpha), s))


def ell_alpha_ab(a: float, b: float, alpha: float) -> TuningResult:
    """Scale solving acc_rate(a, b, .) == alpha; equals ell_alpha(a/b) / sqrt(b)."""
    if not b > 0.0:
        raise ConcaveRegionError(
            "no step scale attains a sub-1/2 acceptance target for b <= 0; "
            "apply a cap instead"
        )
    if not a > 0.0:
        raise DomainError(f"moment a must be > 0, got {a!r}")
    base = ell_alpha(a / b, alpha)
    ell = base.ell / math.sqrt(b)
    _check_ell(ell)
    return TuningResult(ell, base.objective_value, base.iterations, base.converged)


def matched_alpha(regime: str) -> float:
    """Acceptance target matching the rate-optimal rule in a limiting regime.

    Regimes: ``near_equilibrium`` (s -> 1, ~0.35), ``s_to_zero`` (exp(-1))
    and ``s_to_infinity`` (~0.27).
    """
    if regime == "near_equilibrium":
        return j_curve(1.0, ell_star(1.0).ell)
    if regime == "s_to_zero":
        return math.exp(-0.5 * ell_star(0.0).ell ** 2)
    if regime == "s_to_infinity":
        return phi(-0.5 * x_star())
    raise DomainError(
        "regime must be one of 'near_equilibrium', 's_to_zero', 's_to_infinity', "
        f"got {regime!r}"
    )


def _entropy_derivative_objective(m: float, s: float, ell: float) -> float:
    # Twice the entropy time-derivative: ds/dt - d(s - m^2)/dt / (s - m^2)
    # with ds/dt = f1(s, ell)(1 - s) and dm/dt = -g_drift(s, 1, ell) m, so the
    # mean contributes 2 m^2 g_drift to the variance production.
    f1_value, drift = _f1_and_drift(s, ell)
    rate = f1_value * (1.0 - s)
    return rate - (rate + 2.0 * m * m * drift) / (s - m * m)


def ell_ent_gaussian(m: float, s: float) -> TuningResult:
    """Minimizer over ell of the Gaussian entropy time-derivative.

    The ell-derivative of the objective is negative near ell = 0 and changes
    sign once.  At the equilibrium point (m, s) == (0, 1), or where m^2
    underflows to 0 at s == 1, the objective vanishes identically; by
    convention the rate-optimal ell_star(1) is returned there (continuity
    with nearby states).
    """
    if math.isnan(m) or math.isnan(s):
        raise DomainError("moments must be finite numbers")
    m2 = m * m
    if not s > m2:
        raise DomainError(
            f"second moment must exceed squared mean, got s={s!r}, m={m!r}"
        )
    if m2 == 0.0 and s == 1.0:
        base = ell_star(1.0)
        return TuningResult(base.ell, 0.0, base.iterations, base.converged)

    # for s = f 2^e >= 1 both weights carry a factor 2^(-2e): the f1 weight
    # overflows once s^2 does, and a power of two changes no rounding
    e = max(math.frexp(s)[1], 0)
    f1_weight = math.ldexp(1.0 - s, -e) * math.ldexp(s - m2 - 1.0, -e)
    drift_weight = math.ldexp(m2, 1 - 2 * e)

    def descent(ell: float) -> tuple[float, float]:
        # -(s - m^2) 2^(-2e) times the ell-derivative of the objective, and
        # its own ell-derivative
        f1_slope, drift_slope, f1_bend, drift_bend = _slopes(s, ell)
        return (drift_weight * drift_slope - f1_weight * f1_slope,
                drift_weight * drift_bend - f1_weight * f1_bend)

    # seeded from ell_star(s), its root at m = 0
    return _newton_root(descent, lambda ell: _entropy_derivative_objective(m, s, ell),
                        _seed(_star_series(), s))
