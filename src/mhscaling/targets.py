"""One-dimensional target potentials and their moment functionals.

A :class:`Potential` bundles V and its first four derivatives for a
normalized density exp(-V).  Two built-ins are provided (standard Gaussian
and a bistable double well); arbitrary potentials can be wrapped with
:func:`custom_potential`.  Moment functionals of the potential under a law
(either the stationary one, by quadrature, or an empirical sample) feed the
tuning rules and the mean-field integrators.

All callables are vectorized over numpy arrays.  Potentials are immutable
after construction and safe to share across threads/processes.  Every
potential, the built-ins included, is built and checked by
:func:`custom_potential`; the built-ins are made of module-level functions
(the double well's normalizing constant through a ``functools.partial``), so
they pickle cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "Potential",
    "MomentFunctionals",
    "gaussian_potential",
    "double_well_potential",
    "custom_potential",
    "check_target_name",
    "potential_by_name",
    "stationary_moments",
    "stationary_coordinate_moments",
    "empirical_moments",
    "integrate_against_density",
    "sample_stationary",
    "start_params",
    "initial_coords",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Potential:
    """A normalized 1-D potential with derivatives up to fourth order."""

    name: str
    eval_v: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    d4: Callable
    # points where higher derivatives jump; quadrature splits there
    breakpoints: tuple = ()
    i_fisher: float = field(default=math.nan)


@dataclass(frozen=True)
class MomentFunctionals:
    """Moments of a potential under some law.

    a = E[(V')^2], b = E[V''], i_fisher = stationary Fisher-type constant of
    the target (metadata), mala_m4 = E[(V')^2 V'' + V'''' - 2 V''' V' - (V'')^2]
    (the combination steering the MALA step-variance regime).
    """

    a: float
    b: float
    i_fisher: float
    mala_m4: float


def integrate_against_density(p: Potential, fn, epsabs: float = 1e-10) -> float:
    """Integral of fn(x) * exp(-V(x)) over the line by adaptive quadrature.

    fn takes one float and may return a 0-d array; the float is taken here.
    A result that is not finite, or an error estimate over budget (or nan),
    raises QuadratureError.
    """
    # imported here, its one user: the CLI starts without loading it
    from scipy import integrate

    edges = [-np.inf, *sorted(p.breakpoints), np.inf]
    total = 0.0
    err_total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, err = integrate.quad(
            lambda x: float(fn(x)) * math.exp(-float(p.eval_v(x))),
            lo,
            hi,
            epsabs=epsabs / max(len(edges) - 1, 1),
            epsrel=1e-12,
            limit=300,
        )
        total += val
        err_total += err
    if not (math.isfinite(total) and err_total <= 100.0 * epsabs):  # nan fails too
        raise QuadratureError(
            f"quadrature of {p.name} gave {total!r} with error estimate {err_total:.2e}"
        )
    return total


# -- built-in: standard Gaussian ---------------------------------------------


def _gauss_v(x):
    return 0.5 * np.asarray(x, dtype=float) ** 2 + _HALF_LOG_2PI


def _gauss_d1(x):
    return np.asarray(x, dtype=float)


def _gauss_d2(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _gauss_zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# -- built-in: double well ----------------------------------------------------
# Raw well: ((x-1)(x+1))^2 inside |x| <= 1, 4(|x|-1)^2 outside, factored so
# that no digits cancel near 0 and +-1; the constant that makes exp(-V)
# integrate to one is fitted at construction.


def _dw_raw_v(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, ((x - 1.0) * (x + 1.0)) ** 2, 4.0 * (np.abs(x) - 1.0) ** 2)


def _dw_d1(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 4.0 * x * (x - 1.0) * (x + 1.0), 8.0 * (x - np.sign(x)))


def _dw_d2(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 12.0 * x**2 - 4.0, 8.0)


def _dw_d3(x):
    # discontinuous at |x| = 1 (kept piecewise; kink documented)
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 24.0 * x, 0.0)


def _dw_d4(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 24.0, 0.0)


def _stencil_d1(fn, grid, h):
    return (fn(grid - 2 * h) - 8 * fn(grid - h) + 8 * fn(grid + h) - fn(grid + 2 * h)) / (
        12 * h
    )


def _stencil_d2(fn, grid, h):
    return (
        -fn(grid - 2 * h)
        + 16 * fn(grid - h)
        - 30 * fn(grid)
        + 16 * fn(grid + h)
        - fn(grid + 2 * h)
    ) / (12 * h * h)


def _check_derivatives(p: Potential) -> None:
    # V'' and V''' finite on a wide grid, then fourth-order stencils, chained
    # (d3 against d1, d4 against d2) so the truncation error stays below
    # 1e-5 for any reasonably smooth potential.  nan fails every check.
    wide = np.linspace(-30.0, 30.0, 2001)
    if not (np.all(np.isfinite(p.d2(wide))) and np.all(np.isfinite(p.d3(wide)))):
        raise DomainError(f"second/third derivatives must be bounded for {p.name}")
    h = 1e-2
    grid = np.linspace(-3.0, 3.0, 241)
    if p.breakpoints:
        keep = np.ones_like(grid, dtype=bool)
        for bp in p.breakpoints:
            keep &= np.abs(np.abs(grid) - abs(bp)) > 3.5 * h
        grid = grid[keep]
    pairs = (
        (_stencil_d1(p.eval_v, grid, h), p.d1(grid)),
        (_stencil_d2(p.eval_v, grid, h), p.d2(grid)),
        (_stencil_d2(p.d1, grid, h), p.d3(grid)),
        (_stencil_d2(p.d2, grid, h), p.d4(grid)),
    )
    for got, want in pairs:
        if not np.max(np.abs(got - want)) <= 1e-5:
            raise DomainError(f"derivative mismatch for {p.name}")


def _shifted(eval_v, shift, x):
    # a normalized V; module-level, so its partial pickles as eval_v does
    return eval_v(x) + shift


def custom_potential(name, eval_v, d1, d2, d3, d4, breakpoints=(), normalize=False) -> Potential:
    """Wrap user-supplied closures as a Potential.

    The derivative checks run first, on every potential.  Then one
    quadrature of exp(-V) either fits an additive constant so that it
    integrates to one (``normalize=True``) or checks that it does, and a
    second gives ``i_fisher``.  The result pickles if the closures do.
    """
    p = Potential(name, eval_v, d1, d2, d3, d4, breakpoints=tuple(breakpoints))
    _check_derivatives(p)
    mass = integrate_against_density(p, lambda x: 1.0, epsabs=1e-12)
    if normalize:
        p = replace(p, eval_v=partial(_shifted, eval_v, math.log(mass)))
    elif not abs(mass - 1.0) <= 1e-6:
        raise DomainError(f"exp(-V) must integrate to 1, got {mass!r} for {p.name}")
    return replace(p, i_fisher=integrate_against_density(p, lambda x: d1(x) ** 2))


@lru_cache(maxsize=1)
def gaussian_potential() -> Potential:
    """Standard Gaussian target, V(x) = x^2/2 + log(2 pi)/2."""
    return custom_potential("gaussian", _gauss_v, _gauss_d1, _gauss_d2, _gauss_zero, _gauss_zero)


@lru_cache(maxsize=1)
def double_well_potential() -> Potential:
    """Bistable double-well target with wells at +-1.

    Piecewise quartic inside |x| <= 1 and quadratic outside; V and V' are
    continuous across |x| = 1, V''' and V'''' jump there.  The additive
    normalization constant is computed numerically at construction.
    """
    return custom_potential("double-well", _dw_raw_v, _dw_d1, _dw_d2, _dw_d3, _dw_d4,
                            breakpoints=(-1.0, 1.0), normalize=True)


# the built-in targets by CLI identifier
_BUILTIN_TARGETS = {
    "gaussian": gaussian_potential,
    "double-well": double_well_potential,
}


def check_target_name(name) -> None:
    """Raise DomainError unless ``name`` identifies a built-in target."""
    if not (isinstance(name, str) and name in _BUILTIN_TARGETS):
        raise DomainError(f"unknown target {name!r}; available: {sorted(_BUILTIN_TARGETS)}")


def potential_by_name(name: str) -> Potential:
    """Look up a built-in target by its CLI identifier."""
    check_target_name(name)
    return _BUILTIN_TARGETS[name]()


def _mala_combination(p: Potential, x):
    d1 = p.d1(x)
    d2 = p.d2(x)
    return d1 * d1 * d2 + p.d4(x) - 2.0 * p.d3(x) * d1 - d2 * d2


def stationary_moments(p: Potential) -> MomentFunctionals:
    """Moments under the stationary density exp(-V), by quadrature.

    In exact arithmetic a == b == i_fisher and mala_m4 == 0 (integration by
    parts); each field is integrated independently so the identities double
    as a quadrature self-test.  Where the third derivative jumps (piecewise
    potentials), the weak fourth derivative carries point masses at the
    breakpoints; they are added to the classical integral, which is what
    makes the mala_m4 == 0 identity hold for the double well.
    """
    a = integrate_against_density(p, lambda x: p.d1(x) ** 2)
    b = integrate_against_density(p, p.d2)
    m4 = integrate_against_density(p, partial(_mala_combination, p))
    eps = 1e-12
    for c in p.breakpoints:
        jump = float(p.d3(c + eps)) - float(p.d3(c - eps))
        m4 += jump * math.exp(-float(p.eval_v(c)))
    return MomentFunctionals(a=a, b=b, i_fisher=p.i_fisher, mala_m4=m4)


def stationary_coordinate_moments(p: Potential) -> tuple[float, float]:
    """(E[x], E[x^2]) under exp(-V); equilibrium references for estimators."""
    mean = integrate_against_density(p, lambda x: x)
    second = integrate_against_density(p, lambda x: x * x)
    return mean, second


def _moment_means(p: Potential, x, d1, *more) -> np.ndarray:
    """a = mean V'(x)^2 and b = mean V''(x) along the last axis of the points
    x, then the means of the arrays ``more`` (shaped as x), stacked on axis 0;
    d1 is V'(x).  Each row is reduced alone, as np.mean reduces it, so a
    row's means do not depend on the other rows."""
    # a custom V'' may return one number for a constant curvature
    d2 = np.broadcast_to(p.d2(x), x.shape)
    return np.add.reduce(np.array((d1 * d1, d2, *more)), axis=-1) / x.shape[-1]


def empirical_moments(p: Potential, xs) -> MomentFunctionals:
    """Sample averages of the moment functionals over a coordinate vector.

    mala_m4 averages the classical combination only.  Where V''' jumps, the
    stationary value (:func:`stationary_moments`) adds the point masses of
    the weak V'''' at the breakpoints, which no sample sees: on the double
    well a large equilibrium sample reads mala_m4 near 22.5, not 0.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if xs.size == 0:
        raise DomainError("empirical_moments requires a nonempty sample")
    a, b, m4 = _moment_means(p, xs, p.d1(xs), _mala_combination(p, xs))
    return MomentFunctionals(a=float(a), b=float(b), i_fisher=p.i_fisher, mala_m4=float(m4))


def sample_stationary(p: Potential, size: int, rng: np.random.Generator):
    """Draw from exp(-V).

    Exact for the Gaussian; otherwise inverse-transform on a dense quadrature
    grid (suitable for initializing chains, not for high-precision work).
    """
    if p.name == "gaussian":
        return rng.standard_normal(size)
    grid = np.linspace(-12.0, 12.0, 20001)
    density = np.exp(-np.asarray(p.eval_v(grid), dtype=float))
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)))
    cdf *= np.diff(grid)[0]
    cdf /= cdf[-1]
    u = rng.uniform(size=size)
    return np.interp(u, cdf, grid)


# start laws for a chain or particle system, with the parameters an empty
# parameter list stands for
_START_DEFAULTS = {"point": (0.0,), "gaussian": (0.0, 1.0), "stationary": ()}


def start_params(kind: str, params=()) -> tuple:
    """The parameters of the start law ``kind`` as floats, checked.

    ``point`` takes the common value of the coordinates, ``gaussian`` their
    mean and variance, ``stationary`` (draws from exp(-V)) ignores any.  An
    empty ``params`` means (0.0,) and (0.0, 1.0) respectively.
    """
    if kind not in _START_DEFAULTS:
        raise DomainError(f"unknown init {kind!r}; use point:v, gaussian:m,v or stationary")
    if kind == "stationary":
        return ()
    try:
        values = tuple(float(v) for v in params) or _START_DEFAULTS[kind]
    except (TypeError, ValueError):
        values = ()
    if len(values) != len(_START_DEFAULTS[kind]) or (kind == "gaussian" and not values[1] >= 0.0):
        usage = "point:v" if kind == "point" else "gaussian:mean,var with var >= 0"
        raise DomainError(f"init {kind!r} must be {usage}, got {params!r}")
    return values


def initial_coords(kind: str, params, n: int, p: Potential, rng: np.random.Generator):
    """n start coordinates drawn from the law ``kind`` (see :func:`start_params`)."""
    if n < 1:
        raise DomainError(f"need at least one coordinate, got n={n!r}")
    values = start_params(kind, params)
    if kind == "point":
        return np.full(n, values[0], dtype=float)
    if kind == "gaussian":
        mean, var = values
        return mean + math.sqrt(var) * rng.standard_normal(n)
    return sample_stationary(p, n, rng)
