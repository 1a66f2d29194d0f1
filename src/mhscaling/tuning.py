"""Proposal-scale selection rules.

Three families of rules for picking the step constant ``ell`` (proposal
standard deviation ``ell / sqrt(n)``) from the current moments:

* ``ell_star`` / ``ell_star_ab``: maximize the entropy production rate
  ``f1(s, .)`` resp. ``f_rate(a, b, .)`` (rate-optimal rule);
* ``ell_alpha`` / ``ell_alpha_ab``: hold the limiting acceptance rate at a
  target value alpha (constant-acceptance rule);
* ``ell_ent_gaussian``: minimize the instantaneous entropy derivative of the
  Gaussian moment system (defined for Gaussian targets only).

Each rule is one bracketed root: of the analytic ell-derivative of its
objective (``ell_star``, ``ell_ent_gaussian``) or of the acceptance residual
(``ell_alpha``); a value-only search resolves a smooth optimum only to
sqrt(eps).  ``_slopes`` gives the ell-derivatives of f1 and g_drift(s, 1, .)
from one evaluation of f1 and the acceptance terms it is made of.  All three
share one solve, brentq in u = log ell from one guess sqrt(2 + x_star^2 s):
a tolerance relative in ell, as a target acceptance above 1/2 has its root
near 1/sqrt s.

``matched_alpha`` returns the acceptance target that makes the constant-
acceptance rule coincide with the rate-optimal one in each asymptotic regime.

All rules require positive mean curvature b; for b <= 0 no finite scale is
optimal and a ``ConcaveRegionError`` is raised (callers apply a cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .coefficients import (
    _SQRT_2PI, _check_ell, _f1_and_drift, _f1_and_terms, f1, f_rate, j_curve, phi,
)
# g_drift is not called here; it stays importable as tuning.g_drift, a name
# the per-layer trace of perfbench/ wraps
from .coefficients import g_drift  # noqa: F401
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

# brentq's absolute tolerance in u = log ell, a relative one in ell
_U_TOL = 1e-13


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a one-dimensional tuning solve."""

    ell: float
    objective_value: float
    iterations: int
    converged: bool


# Above this value of t = ell (2s - 1) / (2 sqrt s), the ell-derivatives of
# f1 and g_drift are taken through the Mills-ratio gap 1 - t M(t), where
# M(t) = Phi(-t) / pdf(t).  The direct forms cancel to a relative error of
# about eps * t^2 (6e-5 in ell_star at s = 1e6, 45% at s = 1e8; 2e-12 at this
# t, which ell_star's root reaches near s = 80).
_GAP_T = 100.0


def _scaled_mills_gap(t: float) -> float:
    # t^2 (1 - t M(t)) by its asymptotic series 1 - 3/t^2 + 15/t^4 - 105/t^6;
    # the first omitted term is below 1e-13 for t >= _GAP_T
    u = 1.0 / (t * t)
    return 1.0 - 3.0 * u * (1.0 - 5.0 * u * (1.0 - 7.0 * u))


def _slopes(s: float, ell: float) -> tuple[float, float]:
    # The ell-derivatives of f1(s, .) and of g_drift(s, 1, .) = ell^2 E, from
    # one evaluation of f1 and its terms Phi(-ell/(2 sqrt s)) and
    # E = density M(t).  The first vanishes once on (0, inf), at the maximizer.
    if s == 0.0:
        # there f1 and g_drift are both ell^2 e^{-ell^2/2}
        slope = (2.0 * ell - ell**3) * math.exp(-0.5 * ell * ell)
        return slope, slope
    value, first, second = _f1_and_terms(s, ell)
    root_s = math.sqrt(s)
    gauss = math.exp(-ell * ell / 8.0 / s)
    density = gauss / _SQRT_2PI
    t = ell * ((s - 0.5) / root_s)
    if t > _GAP_T:
        gap = _scaled_mills_gap(t)
        f1_slope = 2.0 * value / ell - 2.0 * root_s * density * (ell / t) ** 2 * gap
        t_gap = density * gap / t
    else:
        tail = -math.sqrt(2.0 * s / math.pi) * gauss + ell * first
        f1_slope = (2.0 / ell - ell * (1.0 - s)) * value + ell * ell * tail
        t_gap = t * (density - t * second)
    # d(ell^2 E)/d ell = ell ((2 - ell^2/(4s)) E - t density (1 - t M(t)))
    return f1_slope, ell * ((2.0 - ell * ell / 4.0 / s) * second - t_gap)


_X_STAR = 1.2240063619249615


def x_star() -> float:
    """Maximizer of x*sqrt(2/pi)*exp(-x**2/8) - x**2*Phi(-x/2) (~1.22).

    Governs the large-s growth ell_star(s) ~ x_star * sqrt(s).  A literal:
    the 50-digit root of the derivative sqrt(2/pi) exp(-x^2/8) - 2 x Phi(-x/2),
    rounded to the nearest double.
    """
    return _X_STAR


def _guess(s: float) -> float:
    # follows ell_star's asymptotes sqrt 2 (s -> 0) and x_star sqrt s (s -> inf)
    return math.hypot(math.sqrt(2.0), _X_STAR * math.sqrt(s))


# u = log ell over which exp(u) is a positive double and ell^2 is finite
_LOG_MIN, _LOG_MAX = math.log(5e-324), 0.5 * math.log(1.7e308)


def _bracketed_root(fn, objective, guess: float) -> TuningResult:
    # Root of fn, which is positive left of its one root and negative right
    # of it, found by brentq in u = log ell to a relative tolerance.  The
    # bracket starts at guess * e^(+-1) and steps out by 1, 2, 4, ... in u,
    # the old outer end becoming the inner one; the steps count as
    # iterations.  Each value of fn is kept, so brentq and the search share
    # the bracket ends, and objective(root, fn(root)) is the rule's value.
    # Where the rule's formulas over- or underflow, fn turns nan or keeps its
    # sign to the ends of the floating-point range: a DomainError.
    values = {}

    def g(u: float) -> float:
        if u not in values:
            values[u] = fn(math.exp(u))
        return values[u]

    lo = math.log(guess) - 1.0
    hi = min(lo + 2.0, _LOG_MAX)
    step, expansions = 1.0, 0
    while g(lo) <= 0.0 and lo > _LOG_MIN:
        lo, hi = max(lo - step, _LOG_MIN), lo
        step, expansions = 2.0 * step, expansions + 1
    while g(hi) > 0.0 and hi < _LOG_MAX:
        lo, hi = hi, min(hi + step, _LOG_MAX)
        step, expansions = 2.0 * step, expansions + 1
    # imported here: scipy.optimize is slow to import and used nowhere else
    from scipy.optimize import brentq

    try:
        root_u, info = brentq(g, lo, hi, xtol=_U_TOL, full_output=True)
    except ValueError:
        raise DomainError(f"no step scale in [{math.exp(lo):g}, {math.exp(hi):g}] solves "
                          "the rule in floating point; the moments are too extreme") from None
    root = math.exp(root_u)
    value = objective(root, g(root_u))
    if not math.isfinite(value):
        raise DomainError(f"the rule's objective is {value!r} at its root {root!r}; "
                          "the moments are too extreme")
    return TuningResult(root, value, info.iterations + expansions, info.converged)


def ell_star(s: float) -> TuningResult:
    """Unique maximizer of ell -> f1(s, ell) on (0, inf)."""
    if s < 0.0 or math.isnan(s):
        raise DomainError(f"moment ratio s must be >= 0, got {s!r}")
    return _bracketed_root(lambda ell: _slopes(s, ell)[0], lambda ell, _: f1(s, ell), _guess(s))


def ell_star_ab(a: float, b: float) -> TuningResult:
    """Maximizer of ell -> f_rate(a, b, ell); equals ell_star(a/b) / sqrt(b)."""
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
    return replace(base, ell=ell, objective_value=f_rate(a, b, ell))


def ell_alpha(s: float, alpha: float) -> TuningResult:
    """Unique solution of j_curve(s, ell) == alpha (acceptance matching).

    Bisection-style bracketing is valid because the acceptance curve is
    strictly decreasing from 1 to 0.
    """
    if not s > 0.0:
        raise DomainError(f"moment ratio s must be > 0, got {s!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"target acceptance alpha must lie in (0, 1), got {alpha!r}")
    # the acceptance at the root is alpha plus the residual there, exactly:
    # it lies within a factor 2 of alpha, so the residual took no rounding
    return _bracketed_root(
        lambda ell: j_curve(s, ell) - alpha, lambda _, residual: alpha + residual, _guess(s)
    )


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
    return replace(base, ell=ell)


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
        return replace(ell_star(1.0), objective_value=0.0)

    # for s = f 2^e >= 1 both weights carry a factor 2^(-2e): the f1 weight
    # overflows once s^2 does, and a power of two changes no rounding
    e = max(math.frexp(s)[1], 0)
    f1_weight = math.ldexp(1.0 - s, -e) * math.ldexp(s - m2 - 1.0, -e)
    drift_weight = math.ldexp(m2, 1 - 2 * e)

    def descent(ell: float) -> float:
        # -(s - m^2) 2^(-2e) times the ell-derivative of the objective
        f1_slope, drift_slope = _slopes(s, ell)
        return drift_weight * drift_slope - f1_weight * f1_slope

    return _bracketed_root(
        descent, lambda ell, _: _entropy_derivative_objective(m, s, ell), _guess(s)
    )
