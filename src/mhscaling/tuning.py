"""Proposal-scale selection rules.

Three families of rules for picking the step constant ``ell`` (proposal
standard deviation ``ell / sqrt(n)``) from the current moments:

* ``ell_star`` / ``ell_star_ab``: maximize the entropy production rate
  ``f1(s, .)`` resp. ``f_rate(a, b, .)`` (rate-optimal rule);
* ``ell_alpha`` / ``ell_alpha_ab``: hold the limiting acceptance rate at a
  target value alpha (constant-acceptance rule);
* ``ell_ent_gaussian``: minimize the instantaneous entropy derivative of the
  Gaussian moment system (defined for Gaussian targets only).

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

# g_drift is not called here; it stays importable as tuning.g_drift, a name
# the per-layer trace of perfbench/ wraps
from .coefficients import _f1_and_drift, f1, f_rate, g_drift, j_curve  # noqa: F401
from .errors import ConcaveRegionError, DomainError
from .special import phi

__all__ = [
    "TuningResult",
    "x_star",
    "ell_star",
    "ell_star_ab",
    "ell_alpha",
    "ell_alpha_ab",
    "matched_alpha",
    "ell_ent_gaussian",
    "golden_section_max",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ELL_TOL = 1e-12


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a one-dimensional tuning solve."""

    ell: float
    objective_value: float
    iterations: int
    converged: bool


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-10,
                       max_iter: int = 200) -> tuple[float, int]:
    """Golden-section search for the maximizer of a unimodal function.

    Returns (argmax, iterations).  Correct for any strictly unimodal fn;
    resolution is limited to roughly sqrt(eps) near a smooth maximum.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1_val, f2_val = fn(x1), fn(x2)
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        if f1_val < f2_val:
            lo, x1, f1_val = x1, x2, f2_val
            x2 = lo + inv_phi * (hi - lo)
            f2_val = fn(x2)
        else:
            hi, x2, f2_val = x2, x1, f1_val
            x1 = hi - inv_phi * (hi - lo)
            f1_val = fn(x1)
        iterations += 1
    return 0.5 * (lo + hi), iterations


def _d_f1_d_ell(s: float, ell: float) -> float:
    # Partial derivative of f1 with respect to ell; vanishes exactly once on
    # (0, inf), at the maximizer.
    if s == 0.0:
        return (2.0 * ell - ell**3) * math.exp(-0.5 * ell * ell)
    root_s = math.sqrt(s)
    value = f1(s, ell)
    tail = -math.sqrt(2.0 * s / math.pi) * math.exp(-ell * ell / (8.0 * s)) + ell * phi(
        -0.5 * ell / root_s
    )
    return (2.0 / ell - ell * (1.0 - s)) * value + ell * ell * tail


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


def ell_star(s: float) -> TuningResult:
    """Unique maximizer of ell -> f1(s, ell) on (0, inf).

    Solved as the root of the analytic ell-derivative, which a value-only
    search cannot locate to the contracted 1e-8 accuracy (comparisons of
    nearly equal maxima drown in roundoff at the sqrt(eps) scale).
    """
    if s < 0.0 or math.isnan(s):
        raise DomainError(f"moment ratio s must be >= 0, got {s!r}")
    lo = 1e-6
    hi = _bracket_high(s)
    expansions = 0
    while _d_f1_d_ell(s, hi) > 0.0 and expansions < 60:
        hi *= 2.0
        expansions += 1
    root, info = optimize.brentq(
        lambda ell: _d_f1_d_ell(s, ell), lo, hi, xtol=_ELL_TOL, full_output=True
    )
    return TuningResult(
        ell=float(root),
        objective_value=f1(s, float(root)),
        iterations=info.iterations + expansions,
        converged=info.converged,
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
    lo = 1e-9
    expansions = 0
    while j_curve(s, lo) <= alpha and lo > 1e-300:
        lo *= 1e-2  # targets within rounding of 1 push the root toward 0
        expansions += 1
    hi = 1.0
    while j_curve(s, hi) > alpha and expansions < 200:
        hi *= 2.0
        expansions += 1
    root, info = optimize.brentq(
        lambda ell: j_curve(s, ell) - alpha, lo, hi, xtol=_ELL_TOL, full_output=True
    )
    return TuningResult(
        ell=float(root),
        objective_value=j_curve(s, float(root)),
        iterations=info.iterations + expansions,
        converged=info.converged,
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


# Grid resolution for the global scan that seeds the local refinement of the
# entropy-derivative objective (which is not known to be unimodal).
_ENT_SCAN_POINTS = 64


def ell_ent_gaussian(m: float, s: float) -> TuningResult:
    """Minimizer over ell of the Gaussian entropy time-derivative.

    At the equilibrium point (m, s) == (0, 1) the objective vanishes
    identically; by convention the rate-optimal ell_star(1) is returned
    there (continuity with nearby states).
    """
    if math.isnan(m) or math.isnan(s):
        raise DomainError("moments must be finite numbers")
    if not s > m * m:
        raise DomainError(
            f"second moment must exceed squared mean, got s={s!r}, m={m!r}"
        )
    if m == 0.0 and s == 1.0:
        base = ell_star(1.0)
        return TuningResult(base.ell, 0.0, base.iterations, base.converged)

    hi = _bracket_high(max(s, 1.0))
    lo = 1e-4
    ratio = (hi / lo) ** (1.0 / (_ENT_SCAN_POINTS - 1))
    best_idx, best_val, grid = 0, math.inf, []
    x = lo
    for idx in range(_ENT_SCAN_POINTS):
        grid.append(x)
        val = _entropy_derivative_objective(m, s, x)
        if val < best_val:
            best_idx, best_val = idx, val
        x *= ratio
    ref_lo = grid[max(best_idx - 1, 0)]
    ref_hi = grid[min(best_idx + 1, _ENT_SCAN_POINTS - 1)]
    ell, iterations = golden_section_max(
        lambda e: -_entropy_derivative_objective(m, s, e), ref_lo, ref_hi, tol=1e-10
    )
    return TuningResult(
        ell=ell,
        objective_value=_entropy_derivative_objective(m, s, ell),
        iterations=iterations + _ENT_SCAN_POINTS,
        converged=True,
    )
