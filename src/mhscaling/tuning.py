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
(``ell_alpha``).  A value-only search resolves a smooth optimum only to about
sqrt(eps), as nearly equal values drown in roundoff.

``matched_alpha`` returns the acceptance target that makes the constant-
acceptance rule coincide with the rate-optimal one in each asymptotic regime.

All rules require positive mean curvature b; for b <= 0 no finite scale is
optimal and a ``ConcaveRegionError`` is raised (callers apply a cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import optimize

from .coefficients import _SQRT_2PI, _exp_phi_term, _f1_and_drift, f1, f_rate, j_curve, phi
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

_ELL_TOL = 1e-12


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
# about eps * t^2 (6e-5 in ell_star at s = 1e6, 45% at s = 1e8).  No bracket
# of a solve at s <= 1e3 reaches this t.
_GAP_T = 4e3


def _scaled_mills_gap(t: float) -> float:
    # t^2 (1 - t M(t)) by its asymptotic series 1 - 3/t^2 + 15/t^4; the first
    # omitted term is below 1e-19 for t >= _GAP_T
    u = 1.0 / (t * t)
    return 1.0 - 3.0 * u * (1.0 - 5.0 * u)


def _d_f1_d_ell(s: float, ell: float) -> float:
    # Partial derivative of f1 with respect to ell; vanishes exactly once on
    # (0, inf), at the maximizer.
    if s == 0.0:
        return (2.0 * ell - ell**3) * math.exp(-0.5 * ell * ell)
    root_s = math.sqrt(s)
    value = f1(s, ell)
    t = ell * ((s - 0.5) / root_s)
    if t > _GAP_T:
        density = math.exp(-ell * ell / (8.0 * s)) / _SQRT_2PI
        return 2.0 * value / ell - 2.0 * root_s * density * (ell / t) ** 2 * _scaled_mills_gap(t)
    tail = -math.sqrt(2.0 * s / math.pi) * math.exp(-ell * ell / (8.0 * s)) + ell * phi(
        -0.5 * ell / root_s
    )
    return (2.0 / ell - ell * (1.0 - s)) * value + ell * ell * tail


def _d_drift_d_ell(s: float, ell: float) -> float:
    # ell-derivative of g_drift(s, 1, ell) = ell^2 E, E = _exp_phi_term(s, 1, ell)
    # = density * M(t): ell ((2 - ell^2/(4s)) E - t density (1 - t M(t)))
    density = math.exp(-ell * ell / (8.0 * s)) / _SQRT_2PI
    term = _exp_phi_term(s, 1.0, ell)
    t = ell * ((s - 0.5) / math.sqrt(s))
    t_gap = density * _scaled_mills_gap(t) / t if t > _GAP_T else t * (density - t * term)
    return ell * ((2.0 - ell * ell / (4.0 * s)) * term - t_gap)


@lru_cache(maxsize=1)
def x_star() -> float:
    """Maximizer of x*sqrt(2/pi)*exp(-x**2/8) - x**2*Phi(-x/2) (~1.22).

    Governs the large-s growth ell_star(s) ~ x_star * sqrt(s).  Computed once
    by root-finding on the derivative; the lru_cache doubles as the one-time
    initialization guard.
    """

    def dpsi(x: float) -> float:
        return math.sqrt(2.0 / math.pi) * math.exp(-x * x / 8.0) - 2.0 * x * phi(-0.5 * x)

    return float(optimize.brentq(dpsi, 0.5, 4.0, xtol=1e-13))


def _bracket_high(s: float) -> float:
    return max(6.0, 3.0 * x_star() * math.sqrt(s))


def _bracketed_root(fn, objective, lo: float, hi: float) -> TuningResult:
    # Root of fn, which is positive left of its one root and negative right
    # of it.  lo shrinks by 1e-2 while fn(lo) <= 0 (an acceptance target
    # within rounding of 1 puts the root below any fixed lo); hi doubles
    # while fn(hi) > 0.  Both expansions count as iterations.
    expansions = 0
    while fn(lo) <= 0.0 and lo > 1e-300:
        lo *= 1e-2
        expansions += 1
    while fn(hi) > 0.0 and expansions < 200:
        hi *= 2.0
        expansions += 1
    root, info = optimize.brentq(fn, lo, hi, xtol=_ELL_TOL, full_output=True)
    root = float(root)
    return TuningResult(
        ell=root,
        objective_value=objective(root),
        iterations=info.iterations + expansions,
        converged=info.converged,
    )


def ell_star(s: float) -> TuningResult:
    """Unique maximizer of ell -> f1(s, ell) on (0, inf)."""
    if s < 0.0 or math.isnan(s):
        raise DomainError(f"moment ratio s must be >= 0, got {s!r}")
    return _bracketed_root(
        lambda ell: _d_f1_d_ell(s, ell), lambda ell: f1(s, ell), 1e-6, _bracket_high(s)
    )


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
    return TuningResult(
        ell=ell,
        objective_value=f_rate(a, b, ell),
        iterations=base.iterations,
        converged=base.converged,
    )


def ell_alpha(s: float, alpha: float) -> TuningResult:
    """Unique solution of j_curve(s, ell) == alpha (acceptance matching).

    Bisection-style bracketing is valid because the acceptance curve is
    strictly decreasing from 1 to 0.
    """
    if not s > 0.0:
        raise DomainError(f"moment ratio s must be > 0, got {s!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"target acceptance alpha must lie in (0, 1), got {alpha!r}")
    return _bracketed_root(
        lambda ell: j_curve(s, ell) - alpha, lambda ell: j_curve(s, ell), 1e-9, 1.0
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
    return TuningResult(
        ell=base.ell / math.sqrt(b),
        objective_value=base.objective_value,
        iterations=base.iterations,
        converged=base.converged,
    )


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

    f1_weight = (1.0 - s) * (s - m2 - 1.0)

    def descent(ell: float) -> float:
        # -(s - m^2) times the ell-derivative of the objective
        return 2.0 * m2 * _d_drift_d_ell(s, ell) - f1_weight * _d_f1_d_ell(s, ell)

    return _bracketed_root(
        descent, lambda ell: _entropy_derivative_objective(m, s, ell),
        1e-6, _bracket_high(max(s, 1.0)),
    )
