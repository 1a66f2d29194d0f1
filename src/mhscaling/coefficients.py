"""Limiting coefficient functions of the rescaled random walk Metropolis chain.

For a product target with one-dimensional potential V, proposal variance
``ell**2 / n`` and moments ``a = E[(V')^2]``, ``b = E[V'']`` of the current
law, the chain's diffusive limit has diffusion coefficient ``gamma(a, b, ell)``
and drift coefficient ``g_drift(a, b, ell)``.  The derived quantities exposed
here:

* ``acc_rate``   limiting mean acceptance probability, gamma / ell**2
* ``f_rate``     entropy production rate (b*gamma - 2*a*g_drift) / (b - a),
                 taken through f1 for b > 0
* ``f1``         f_rate with b normalized to 1, in closed form
* ``j_curve``    acceptance rate as a function of the moment ratio s = a/b

All are made of the two terms of the limiting acceptance probability that
``_accept_terms`` evaluates, on the normal CDF ``phi`` and the exp-scaled
``f_helper(x) = exp(x**2 / 2) * phi(x)``, both from ``scipy.special``.

All functions are scalar, pure and thread-safe.  The argument ``a`` may be
``math.inf`` (the chain degenerates to a pure diffusion) or 0; both are exact
limits inside ``_accept_terms``, not approximations.
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


def _check_ell(ell: float) -> None:
    # past about 1.3e154, ell^2 is inf and every coefficient nan
    if not ell > 0.0 or not math.isfinite(ell * ell):
        raise DomainError(f"step scale ell must be > 0 with a finite square, got {ell!r}")


def _check_ab(a: float, b: float, ell: float) -> None:
    if a < 0.0 or math.isnan(a):
        raise DomainError(f"moment a must be >= 0 (or inf), got {a!r}")
    if not math.isfinite(b):
        raise DomainError(f"moment b must be finite, got {b!r}")
    _check_ell(ell)


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
    # The two summands Phi(-ell b/(2 sqrt a)) and E = _exp_phi_term(a, b, ell)
    # of the limiting acceptance probability, with their limits at a = 0 and
    # a = inf: every coefficient here is made of them, g_drift is ell^2 E.
    if a == math.inf:
        return 0.5, 0.0
    if a == 0.0:
        return (0.0, math.exp(-0.5 * (ell * ell) * b)) if b > 0.0 else (1.0, 0.0)
    return phi(-ell * b / (2.0 * math.sqrt(a))), _exp_phi_term(a, b, ell)


def gamma(a: float, b: float, ell: float) -> float:
    """Limiting diffusion coefficient; lies in (0, ell**2]."""
    _check_ab(a, b, ell)
    first, second = _accept_terms(a, b, ell)
    return ell * ell * (first + second)


def g_drift(a: float, b: float, ell: float) -> float:
    """Limiting drift coefficient; satisfies 0 <= g_drift <= gamma."""
    _check_ab(a, b, ell)
    return ell * ell * _accept_terms(a, b, ell)[1]


def acc_rate(a: float, b: float, ell: float) -> float:
    """Limiting mean acceptance probability, gamma(a, b, ell) / ell**2."""
    return gamma(a, b, ell) / (ell * ell)


def f_rate(a: float, b: float, ell: float) -> float:
    """Entropy production rate (b*gamma - 2*a*g_drift) / (b - a).

    For b > 0 it is f1(a/b, ell*sqrt(b)) / b, accurate to rounding across
    a == b, and a DomainError where a/b or ell**2 * b overflows.  For b <= 0,
    b - a is negative unless a == b == 0, whose limit is ell**2, so the
    quotient is taken as written.  Strictly positive on compact moment sets.
    """
    _check_ab(a, b, ell)
    if a == math.inf:
        raise DomainError("f_rate requires a finite moment a")
    if b > 0.0:
        return f1(a / b, ell * math.sqrt(b)) / b
    if a == 0.0 and b == 0.0:
        return ell * ell
    first, second = _accept_terms(a, b, ell)
    ell2 = ell * ell
    return (b * (ell2 * (first + second)) - 2.0 * a * (ell2 * second)) / (b - a)


def f1(s: float, ell: float) -> float:
    """Entropy production rate at unit curvature, f_rate(s, 1, ell).

    Written in the moment ratio s and built from the acceptance terms at unit
    curvature; f_rate is f1 rescaled for b > 0, through the scaling identity
    f_rate(a, b, ell) == f1(a/b, ell*sqrt(b)) / b, so neither checks the
    other.  The independent oracles are the Monte Carlo means of acceptance
    criterion 02 and the quadrature and mpmath references in
    tests/oracles.py.
    """
    return _f1_and_terms(s, ell)[0]


def _f1_and_terms(s: float, ell: float) -> tuple[float, float, float]:
    # (f1(s, ell), first, second), with (first, second) = _accept_terms(s, 1, ell)
    if s < 0.0 or not math.isfinite(s):
        raise DomainError(f"moment ratio s must be finite and >= 0, got {s!r}")
    _check_ell(ell)
    first, second = _accept_terms(s, 1.0, ell)
    if abs(s - 1.0) < _SERIES_BAND:
        return _f1_near_one(s, ell, second), first, second
    return ell * ell / (1.0 - s) * (first + (1.0 - 2.0 * s) * second), first, second


# Half-width of the band around s == 1 inside which f1 is summed as a series
# in s - 1: the generic form divides the difference of two nearly equal terms
# by 1 - s, a relative error of about eps / |1 - s| (5.8e-10 at 1 - s = 1e-6).
_SERIES_BAND = 1e-3


def _f1_near_one(s: float, ell: float, second: float) -> float:
    # f1 = ell^2 ((first - second) / (1 - s) + 2 second).  With the Mills ratio
    # M(x) = Phi(-x) / pdf(x), d = pdf(A), A = ell / (2 sqrt s) and
    # t = ell (s - 1/2) / sqrt s, the terms are first = d M(A) and
    # second = d M(t), so (first - second) / (1 - s) = ell / sqrt s times the
    # divided difference d M[A, t], summed as the Taylor series of M about t in
    # h = t - A = ell (s - 1) / sqrt s.  D_k = d M^(k)(t) follows from
    # M' = x M - 1 as D_{k+1} = t D_k + k D_{k-1}; the terms fall by about
    # 2 |s - 1| each, so seven leave 1e-19 at the edge of the band.
    root_s = math.sqrt(s)
    t = ell * ((s - 0.5) / root_s)
    h = ell * ((s - 1.0) / root_s)
    prev, cur = second, t * second - math.exp(-ell * ell / 8.0 / s) / _SQRT_2PI
    total, weight = cur, 1.0
    for k in range(1, 7):
        prev, cur = cur, t * cur + k * prev
        weight *= -h / (k + 1)
        total += weight * cur
    return ell * ell * (2.0 * second + ell / root_s * total)


def _f1_and_drift(s: float, ell: float) -> tuple[float, float]:
    # (f1(s, ell), g_drift(s, 1, ell)) from one evaluation of their terms
    value, _, second = _f1_and_terms(s, ell)
    return value, ell * ell * second


def j_curve(s: float, ell: float) -> float:
    """Limiting acceptance rate as a function of the moment ratio s = a/b.

    Strictly decreasing in ell, with j_curve(s, 0) == 1; equals
    acc_rate(s, 1, ell) for ell > 0 and more generally
    acc_rate(a, b, ell) == j_curve(a/b, ell*sqrt(b)) for b > 0.
    """
    if not s > 0.0 or not math.isfinite(s):
        raise DomainError(f"moment ratio s must be finite and > 0, got {s!r}")
    if ell == 0.0:
        return 1.0
    _check_ell(ell)
    first, second = _accept_terms(s, 1.0, ell)
    return first + second
