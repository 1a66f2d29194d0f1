"""Limiting coefficient functions of the rescaled random walk Metropolis chain.

For a product target with one-dimensional potential V, proposal variance
``ell**2 / n`` and moments ``a = E[(V')^2]``, ``b = E[V'']`` of the current
law, the chain's diffusive limit has diffusion coefficient ``gamma(a, b, ell)``
and drift coefficient ``g_drift(a, b, ell)``.  The derived quantities exposed
here:

* ``acc_rate``   limiting mean acceptance probability, gamma / ell**2
* ``f_rate``     entropy production rate (b*gamma - 2*a*g_drift) / (b - a)
* ``f1``         f_rate with b normalized to 1, in closed form
* ``j_curve``    acceptance rate as a function of the moment ratio s = a/b

They are built on two special functions, the normal CDF ``phi`` and the
exp-scaled product ``f_helper(x) = exp(x**2 / 2) * phi(x)``, both taken from
``scipy.special``.

All functions are scalar, pure and thread-safe.  The argument ``a`` may be
``math.inf`` (the chain degenerates to a pure diffusion); that case is an
exact branch, not an approximation.
"""

from __future__ import annotations

import math

from scipy.special import erfcx, ndtr

from .errors import DomainError

__all__ = [
    "phi",
    "f_helper",
    "A_INFINITE",
    "gamma",
    "g_drift",
    "acc_rate",
    "f_rate",
    "f1",
    "j_curve",
]

A_INFINITE = math.inf

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Relative half-width of the band around a == b inside which f_rate switches
# to the diagonal closed form (the generic branch divides by b - a).
_DIAGONAL_BAND = 1e-7


# The float() calls keep numpy scalars out of the scalar solvers built on
# these two, which run measurably slower on np.float64.
def phi(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return float(ndtr(x))


def f_helper(x: float) -> float:
    """exp(x**2 / 2) * Phi(x), strictly increasing in x.

    Finite and fully precise far into the left tail; overflows to ``inf``
    once x exceeds about 37.6.
    """
    return 0.5 * float(erfcx(-x / _SQRT2))


def _check_ab(a: float, b: float, ell: float) -> None:
    if a < 0.0 or math.isnan(a):
        raise DomainError(f"moment a must be >= 0 (or inf), got {a!r}")
    if not math.isfinite(b):
        raise DomainError(f"moment b must be finite, got {b!r}")
    if not ell > 0.0 or not math.isfinite(ell):
        raise DomainError(f"step scale ell must be finite and > 0, got {ell!r}")


def _exp_phi_term(a: float, b: float, ell: float) -> float:
    """e^{ell^2 (a-b)/2} * Phi(ell*(b/(2 sqrt a) - sqrt a)) for 0 < a < inf.

    The exponent and the squared Phi argument differ by exactly
    ell^2 b^2 / (8a), so the product is rewritten through f_helper; evaluating
    the difference in closed form keeps full relative precision even when
    both factors over/underflow (naive log-space evaluation loses ~8 digits
    once the exponents reach 1e7, which silently shifts optimizer roots).
    """
    root_a = math.sqrt(a)
    x2 = ell * (b / (2.0 * root_a) - root_a)
    if x2 >= 0.0:
        # Here b >= 2a, hence the exponent is negative: no overflow.
        return math.exp(0.5 * ell * ell * (a - b)) * phi(x2)
    exponent = -(ell * ell * b * b) / 8.0 / a
    return math.exp(exponent) * f_helper(x2)


def _accept_terms(a: float, b: float, ell: float) -> tuple[float, float]:
    # The two summands of the limiting acceptance probability for 0 < a < inf.
    first = phi(-ell * b / (2.0 * math.sqrt(a)))
    return first, _exp_phi_term(a, b, ell)


def gamma(a: float, b: float, ell: float) -> float:
    """Limiting diffusion coefficient; lies in (0, ell**2]."""
    _check_ab(a, b, ell)
    ell2 = ell * ell
    if a == math.inf:
        return 0.5 * ell2
    if a == 0.0:
        return ell2 * math.exp(-0.5 * ell2 * max(b, 0.0))
    first, second = _accept_terms(a, b, ell)
    return ell2 * (first + second)


def g_drift(a: float, b: float, ell: float) -> float:
    """Limiting drift coefficient; satisfies 0 <= g_drift <= gamma."""
    _check_ab(a, b, ell)
    ell2 = ell * ell
    if a == math.inf:
        return 0.0
    if a == 0.0:
        return ell2 * math.exp(-0.5 * ell2 * b) if b > 0.0 else 0.0
    _, second = _accept_terms(a, b, ell)
    return ell2 * second


def acc_rate(a: float, b: float, ell: float) -> float:
    """Limiting mean acceptance probability, gamma(a, b, ell) / ell**2."""
    return gamma(a, b, ell) / (ell * ell)


def _f_diagonal(c: float, ell: float) -> float:
    # Closed form of f_rate on the diagonal a == b == c.
    root_c = math.sqrt(c)
    return (
        2.0
        * ell
        * ell
        * (
            (1.0 + 0.25 * ell * ell * c) * phi(-0.5 * ell * root_c)
            - ell * root_c / (2.0 * _SQRT_2PI) * math.exp(-0.125 * ell * ell * c)
        )
    )


def f_rate(a: float, b: float, ell: float) -> float:
    """Entropy production rate (b*gamma - 2*a*g_drift) / (b - a).

    Continuous across a == b (the quotient is replaced by its closed-form
    limit inside a narrow band around the diagonal) and strictly positive on
    compact moment sets.
    """
    _check_ab(a, b, ell)
    if a == math.inf:
        raise DomainError("f_rate requires a finite moment a")
    if abs(a - b) < _DIAGONAL_BAND * max(1.0, abs(a), abs(b)):
        return _f_diagonal(0.5 * (a + b), ell)
    return (b * gamma(a, b, ell) - 2.0 * a * g_drift(a, b, ell)) / (b - a)


def f1(s: float, ell: float) -> float:
    """Entropy production rate at unit curvature, f_rate(s, 1, ell).

    Evaluated through its own closed form in the moment ratio s, so it acts
    as an independent route to f_rate; the two are tied together by the
    scaling identity f_rate(a, b, ell) == f1(a/b, ell*sqrt(b)) / b for b > 0.
    """
    return _f1_and_drift(s, ell)[0]


def _f1_and_drift(s: float, ell: float) -> tuple[float, float]:
    # (f1(s, ell), g_drift(s, 1, ell)), sharing the exp-Phi term both need;
    # equal bit for bit to the two separate calls for finite ell.
    if s < 0.0 or not math.isfinite(s):
        raise DomainError(f"moment ratio s must be finite and >= 0, got {s!r}")
    if not ell > 0.0:
        raise DomainError(f"step scale ell must be > 0, got {ell!r}")
    ell2 = ell * ell
    if s == 0.0:
        value = ell2 * math.exp(-0.5 * ell2)
        return value, value
    second = _exp_phi_term(s, 1.0, ell)
    if abs(s - 1.0) < _DIAGONAL_BAND:
        return _f_diagonal(1.0, ell), ell2 * second
    root_s = math.sqrt(s)
    value = ell2 / (1.0 - s) * (phi(-0.5 * ell / root_s) + (1.0 - 2.0 * s) * second)
    return value, ell2 * second


def j_curve(s: float, ell: float) -> float:
    """Limiting acceptance rate as a function of the moment ratio s = a/b.

    Strictly decreasing in ell, with j_curve(s, 0) == 1; equals
    acc_rate(s, 1, ell) for ell > 0 and more generally
    acc_rate(a, b, ell) == j_curve(a/b, ell*sqrt(b)) for b > 0.
    """
    if not s > 0.0 or not math.isfinite(s):
        raise DomainError(f"moment ratio s must be finite and > 0, got {s!r}")
    if ell < 0.0 or math.isnan(ell):
        raise DomainError(f"step scale ell must be >= 0, got {ell!r}")
    if ell == 0.0:
        return 1.0
    return phi(-0.5 * ell / math.sqrt(s)) + _exp_phi_term(s, 1.0, ell)
