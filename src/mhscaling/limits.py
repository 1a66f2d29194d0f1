"""Mean-field limit integrators and MALA limiting objects.

Gaussian targets admit a closed two-moment description of the nonlinear
diffusion limit: the pair (m, s) = (mean, second moment) follows

    ds/dt = f1(s, ell) * (1 - s),        dm/dt = -g_drift(s, 1, ell) * m,

with the relative entropy to equilibrium, :func:`gaussian_entropy`, in closed
form; :func:`integrate_gaussian_ode` integrates it.  It and the MALA
second-moment flow take one RK4 step, ``_rk4_with_guard``, given their field,
which halves a step that would make s - m^2 negative.  For general targets
the limit is simulated as an interacting particle system (Euler-Maruyama
with coefficients recomputed from the empirical moments each step).  The
MALA side collects the step-variance regime classifier, the transient speed
function ``mala_w``, the stationary-regime speed ``z`` and the
fixed-variance AR(1) limit chain, stepped as its own recursion.  One routine,
``_horizon``, checks every integrator's horizon; a start or moment is refused
by ``coefficients``' finite check, a cadence or step count by its count check.
States are single-owner; coefficient calls are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chains import _MAX_STEPS, Strategy
from .coefficients import (_check_count, _check_ell, _check_finite, _check_spread,
                           _f1_and_drift, acc_rate, f_rate, g_drift, gamma, phi)
from .errors import DomainError
from .targets import Potential, _moment_means, integrate_against_density
# empirical_moments, f1 and the ell_* solvers are not called here (the MALA
# optimum is closed form); they stay importable as limits.<name>, names the
# per-layer trace of perfbench/ wraps
from .coefficients import f1  # noqa: F401
from .targets import empirical_moments  # noqa: F401
from .tuning import ell_alpha, ell_ent_gaussian, ell_star  # noqa: F401

__all__ = [
    "LimitTrajectory",
    "gaussian_entropy",
    "policy_ell",
    "integrate_gaussian_ode",
    "ParticleEnsemble",
    "make_ensemble",
    "meanfield_particle_step",
    "integrate_particles",
    "entropy_rate_bound",
    "MalaRegime",
    "mala_regime",
    "mala_w",
    "integrate_mala_second_moment",
    "mala_z_stationary",
    "MalaZOptimum",
    "mala_z_optimum",
    "mala_ar1_limit",
]


def _check_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{what} must be finite and > 0, got {value!r}")


def _horizon(dt: float, t0: float, t_max: float) -> int:
    _check_positive("dt", dt)
    _check_finite("t_max", t_max, t0)
    span = t_max - t0
    if not span / dt <= _MAX_STEPS:  # inf too
        raise DomainError(f"{span!r} in steps of {dt!r} is more than {_MAX_STEPS:,} steps")
    return int(round(span / dt))


def gaussian_entropy(m: float, s: float) -> float:
    """Relative entropy to the standard normal, (s - ln(s - m^2) - 1) / 2."""
    variance = _check_spread(m, s)
    # log1p keeps full precision near equilibrium, where variance - 1 is
    # exact (Sterbenz, from 1/2 to 2); below 1/2, variance - 1 would round
    # the small variance away (to -1 below 1.1e-16), so log takes it directly
    if variance < 0.5:
        return 0.5 * (s - 1.0 - math.log(variance))
    return 0.5 * (s - 1.0 - math.log1p(variance - 1.0))


def policy_ell(strategy: Strategy, m: float, s: float) -> float:
    """Step constant prescribed by a strategy in the Gaussian limit, where
    a = s and b = 1."""
    return strategy.scale(s, 1.0, m, s)


def _ode_field(m: float, s: float, ell: float) -> tuple[float, float]:
    s = max(s, 0.0)
    f1_value, drift = _f1_and_drift(s, ell)
    return (-drift * m, f1_value * (1.0 - s))


def _rk4_with_guard(field, m0: float, s0: float, dt: float,
                    _depth: int = 0) -> tuple[float, float]:
    # one RK4 step of length dt of (dm/dt, ds/dt) = field(m, s) from
    # (m0, s0); a step that would push s - m^2 negative is retried as two
    # half steps
    k1m, k1s = field(m0, s0)
    k2m, k2s = field(m0 + 0.5 * dt * k1m, s0 + 0.5 * dt * k1s)
    k3m, k3s = field(m0 + 0.5 * dt * k2m, s0 + 0.5 * dt * k2s)
    k4m, k4s = field(m0 + dt * k3m, s0 + dt * k3s)
    m1 = m0 + dt / 6.0 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    s1 = s0 + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    if s1 < m1 * m1:
        if _depth >= 40:
            raise DomainError("step size underflow while protecting s > m^2")
        half = _rk4_with_guard(field, m0, s0, 0.5 * dt, _depth + 1)
        return _rk4_with_guard(field, *half, 0.5 * dt, _depth + 1)
    return m1, s1


@dataclass
class LimitTrajectory:
    """Time series produced by the limit integrators."""

    t: np.ndarray
    m: np.ndarray
    s: np.ndarray
    entropy: np.ndarray
    ell: np.ndarray
    acc: np.ndarray


def integrate_gaussian_ode(m0: float, s0: float, strategy: Strategy,
                           dt: float = 1e-3, t_max: float = 50.0,
                           stop_tol: float | None = None,
                           policy_every: int = 1) -> LimitTrajectory:
    """Integrate the moment system from (m0, s0) at time 0 by RK4.

    The start needs s0 >= m0^2; equality is a point mass, whose entropy is
    +inf.  A step that would push the variance negative is retried at half
    length.  With ``stop_tol`` set, integration ends once |m| and |s - 1|
    both drop below it.  The strategy scale is evaluated from the current
    state at the start of a step, and only every ``policy_every`` steps (the
    scale drifts on the trajectory timescale, so a small refresh interval
    changes nothing measurable while saving the solver calls).
    """
    steps = _horizon(dt, 0.0, t_max)
    policy_every = _check_count("policy_every", policy_every, 1)
    if stop_tol is not None:
        _check_positive("stop_tol", stop_tol)
    _check_finite("m0", m0)
    _check_finite("s0", s0, m0 * m0)
    rows = []

    def push(m, s, t, ell_used):
        entropy = gaussian_entropy(m, s) if s - m * m > 0.0 else math.inf
        rows.append((t, m, s, entropy, ell_used, acc_rate(max(s, 0.0), 1.0, ell_used)))

    m, s, t = m0, s0, 0.0
    ell = policy_ell(strategy, m, s)
    push(m, s, t, ell)
    field = partial(_ode_field, ell=ell)
    for k in range(steps):
        if k % policy_every == 0 and k > 0:
            ell = policy_ell(strategy, m, s)
            field = partial(_ode_field, ell=ell)
        (m, s), t = _rk4_with_guard(field, m, s, dt), t + dt
        push(m, s, t, ell)
        if stop_tol is not None and abs(m) < stop_tol and abs(s - 1.0) < stop_tol:
            break
    return LimitTrajectory(*(np.array(column) for column in zip(*rows)))


@dataclass
class ParticleEnsemble:
    """Interacting particle approximation of the nonlinear diffusion; the
    particles ``xs``, any array-like of numbers, are held as a flat float
    array of their own."""

    xs: np.ndarray
    t: float
    dt: float
    rng: np.random.Generator

    def __post_init__(self):
        try:
            self.xs = np.array(self.xs, dtype=float).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"particles must be numbers: {exc}") from None
        if self.xs.size < 2:
            raise DomainError("ensemble needs at least 2 particles")
        _check_positive("dt", self.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            mean_square = float(np.mean(self.xs**2))
        _check_finite("the particles' mean square", mean_square)


def make_ensemble(xs, dt: float, *, rng: np.random.Generator) -> ParticleEnsemble:
    """An ensemble at time 0 with particles at ``xs``, drawing noise from ``rng``."""
    return ParticleEnsemble(xs=xs, t=0.0, dt=dt, rng=rng)


def meanfield_particle_step(pe: ParticleEnsemble, p: Potential, ell: float) -> ParticleEnsemble:
    """One Euler-Maruyama step, coefficients frozen at the empirical moments
    a = mean V'(x)^2 and b = mean V''(x) of the particles."""
    d1 = np.asarray(p.d1(pe.xs))
    a, b = (float(mean) for mean in _moment_means(p, pe.xs, d1))
    drift = g_drift(a, b, ell)
    diffusion = gamma(a, b, ell)
    noise = pe.rng.standard_normal(pe.xs.size)
    # x - (drift V') dt + sqrt(gamma dt) noise in a new array: d1 may be pe.xs
    step = np.multiply(drift, d1, out=np.empty(pe.xs.shape))
    step *= pe.dt
    noise *= math.sqrt(diffusion * pe.dt)
    pe.xs = np.add(np.subtract(pe.xs, step, out=step), noise, out=step)
    pe.t += pe.dt
    return pe


def integrate_particles(pe: ParticleEnsemble, p: Potential, ell: float,
                        t_max: float, record_every: int = 1):
    """Advance an ensemble to t_max; returns (t, mean, second moment) arrays."""
    record_every = _check_count("record_every", record_every, 1)
    steps = _horizon(pe.dt, pe.t, t_max)
    _check_ell(ell)  # also where t_max allows no step
    rows = [(pe.t, float(np.mean(pe.xs)), float(np.mean(pe.xs**2)))]
    for k in range(1, steps + 1):
        meanfield_particle_step(pe, p, ell)
        if k % record_every == 0:
            rows.append((pe.t, float(np.mean(pe.xs)), float(np.mean(pe.xs**2))))
    return tuple(np.array(column) for column in zip(*rows))


def entropy_rate_bound(a: float, b: float, ell: float, fisher: float) -> float:
    """Upper bound on the entropy time-derivative, -f_rate(a,b,ell)/2 * fisher."""
    _check_finite("Fisher information", fisher, 0.0)
    return -0.5 * f_rate(a, b, ell) * fisher


@dataclass(frozen=True)
class MalaRegime:
    """Step-variance regime of the Langevin-adjusted chain."""

    tag: str
    moment: float

    @property
    def variance_exponent(self):
        """p such that the step variance should scale like n**-p (None: no
        diffusive scaling; shrink the variance as slowly as possible)."""
        return {"negative_moment": 0.5, "stationary_moment": 1.0 / 3.0}.get(self.tag)


def mala_regime(moment: float, eps: float | None = None) -> MalaRegime:
    """Classify the steering moment with a dead band around zero."""
    _check_finite("moment", moment)
    if eps is None:
        eps = 1e-8 * max(1.0, abs(moment))
    _check_finite("dead band", eps, 0.0)
    if moment < -eps:
        tag = "negative_moment"
    elif moment > eps:
        tag = "positive_moment"
    else:
        tag = "stationary_moment"
    return MalaRegime(tag=tag, moment=moment)


def mala_w(moment: float, ell: float) -> float:
    """Transient MALA speed, ell^2 * (exp(ell^4 / 8 * moment) ^ 1).

    Where ell^4 overflows (ell above about 1.2e77) this is its limit: 0 for
    a negative moment, ell^2 otherwise.
    """
    _check_ell(ell)
    _check_finite("moment", moment)
    try:
        exponent = 0.125 * ell**4 * moment
    except OverflowError:
        return 0.0 if moment < 0.0 else ell * ell
    return ell * ell * math.exp(min(exponent, 0.0))


def integrate_mala_second_moment(s0: float, ell: float, dt: float = 1e-3,
                                 t_max: float = 5.0):
    """Second-moment flow ds/dt = mala_w(s - 1, ell) * (1 - s) for the
    Gaussian target, stepped as the moment system at m = 0 (so s0 >= 0); returns (t, s)."""
    steps = _horizon(dt, 0.0, t_max)
    _check_ell(ell)
    _check_finite("s0", s0, 0.0)

    def field(m, s):
        return 0.0, mala_w(s - 1.0, ell) * (1.0 - s)

    ss = np.empty(steps + 1)
    ss[0] = s0
    for k in range(1, steps + 1):
        ss[k] = _rk4_with_guard(field, 0.0, ss[k - 1], dt)[1]
    return np.arange(steps + 1) * dt, ss


def _z_moment(p: Potential) -> float:
    # Roberts & Rosenthal's 5 g'''^2 - 3 g''^3 with g = log density = -V,
    # against exp(-V), which custom_potential makes integrate to one.  Two
    # means, so that a constant V'' gives 3 V''^3 times the mass as rounded:
    # the Gaussian's exp(-V) integrates to 1 + 7e-17 in doubles, which rounds
    # to 1, while three times it rounds up past 3.
    return (5.0 * integrate_against_density(p, lambda x: p.d3(x) ** 2)
            + 3.0 * integrate_against_density(p, lambda x: p.d2(x) ** 3))


def mala_z_stationary(p: Potential, ell: float) -> float:
    """Stationary-regime MALA speed 2 ell^2 Phi(-ell^3 sqrt(K/3) / 8).

    K is the stationary mean of 5 V'''^2 + 3 V''^3 (Roberts & Rosenthal 1998,
    JRSS-B 60:255, whose g = log density is -V), for proposal std
    ell * n^(-1/6).  The Gaussian target has K = 3, hence speed
    2 ell^2 Phi(-ell^3 / 8).  A target with K < 0 raises DomainError.
    """
    _check_ell(ell)
    k_moment = _z_moment(p)
    if k_moment < 0.0:
        raise DomainError(
            f"stationary moment K={k_moment:.6g} is negative for {p.name}; "
            "the speed formula requires K >= 0"
        )
    try:
        u = ell**3 * math.sqrt(k_moment / 3.0) / 8.0
    except OverflowError:  # ell^3 past the largest double
        u = math.inf if k_moment > 0.0 else 0.0
    return 2.0 * ell * ell * phi(-u)


@dataclass(frozen=True)
class MalaZOptimum:
    ell: float
    z_value: float
    acceptance: float


# u = c ell^3 at the maximum of 2 ell^2 Phi(-u), whose ell-derivative is
# 2 ell (2 Phi(-u) - 3 u pdf(u)): the 50-digit root rounded to a double
_MALA_U_STAR = 0.5618244445677497


def mala_z_optimum(p: Potential) -> MalaZOptimum:
    """Maximizer of the stationary-regime speed and the acceptance there.

    In closed form: with c = sqrt(K/3) / 8 the speed peaks at c ell^3 = u*,
    the root of 2 Phi(-u) = 3 u pdf(u), so the acceptance there, 2 Phi(-u*)
    (~0.574), is a universal constant, independent of the target.
    """
    k_moment = _z_moment(p)
    if k_moment <= 0.0:
        raise DomainError(
            f"stationary moment K={k_moment:.6g} must be positive for {p.name}"
        )
    ell = (_MALA_U_STAR * 8.0 / math.sqrt(k_moment / 3.0)) ** (1.0 / 3.0)
    acceptance = 2.0 * phi(-_MALA_U_STAR)
    return MalaZOptimum(ell=ell, z_value=ell * ell * acceptance, acceptance=acceptance)


def mala_ar1_limit(ell: float, steps: int, y0: float = 0.0, *,
                   rng: np.random.Generator):
    """Fixed-variance MALA limit chain Y_{k+1} = (1 - ell^2/2) Y_k + ell G.

    Defined for 0 < ell < 2; the stationary law is centered normal with
    variance 1 / (1 - ell^2 / 4).  Returns the length steps+1 trajectory
    including y0.
    """
    if not 0.0 < ell < 2.0:
        raise DomainError(f"AR(1) limit requires 0 < ell < 2, got {ell!r}")
    steps = _check_count("steps", steps, 0, _MAX_STEPS)
    _check_finite("AR(1) start y0", y0)
    noise = rng.standard_normal(steps)
    decay = 1.0 - 0.5 * ell * ell
    # the recursion on Python floats, which step it twice as fast as numpy
    # scalars; a block at a time, as 10^7 of them would take 300 MB
    blocks = (noise[k:k + 2**16].tolist() for k in range(0, steps, 2**16))
    path = itertools.accumulate(itertools.chain.from_iterable(blocks),
                                lambda y, g: decay * y + ell * g, initial=y0)
    return np.fromiter(path, float, steps + 1)
