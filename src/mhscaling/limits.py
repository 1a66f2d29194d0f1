"""Mean-field limit integrators and MALA limiting objects.

Gaussian targets admit a closed two-moment description of the nonlinear
diffusion limit: the pair (m, s) = (mean, second moment) follows

    ds/dt = f1(s, ell) * (1 - s),        dm/dt = -g_drift(s, 1, ell) * m,

with the relative entropy to equilibrium available in closed form.  For
general targets the limit is simulated as an interacting particle system
(Euler-Maruyama with coefficients recomputed from the empirical moments each
step).  The MALA side collects the step-variance regime classifier, the
transient speed function ``mala_w``, the stationary-regime speed ``z`` and
the fixed-variance AR(1) limit chain.

States are single-owner; coefficient calls are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import Strategy, chain_rng
from .coefficients import acc_rate, f1, f_rate, g_drift, gamma
from .errors import DomainError
from .targets import Potential, empirical_moments, integrate_against_density
# ell_alpha, ell_ent_gaussian and ell_star are not called here; they stay
# importable as limits.<name>, names the per-layer trace of perfbench/ wraps
from .tuning import ell_alpha, ell_ent_gaussian, ell_star, golden_section_max  # noqa: F401

__all__ = [
    "GaussianMoments",
    "LimitTrajectory",
    "gaussian_entropy",
    "policy_ell",
    "gaussian_ode_step",
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
    "write_limit_csv",
    "LIMIT_HEADER",
]

@dataclass
class GaussianMoments:
    """Mean and second moment of the Gaussian limit law at time t.

    The variance s - m*m must be nonnegative; it may vanish only at the
    initial time (a point mass start), after which the diffusion makes it
    positive immediately.
    """

    m: float
    s: float
    t: float = 0.0

    def __post_init__(self):
        if self.s < self.m * self.m:
            raise DomainError(
                f"second moment below squared mean: s={self.s!r}, m={self.m!r}"
            )


def gaussian_entropy(gm: GaussianMoments) -> float:
    """Relative entropy to the standard normal, (s - ln(s - m^2) - 1) / 2."""
    return _entropy(gm.m, gm.s)


def _entropy(m: float, s: float) -> float:
    variance = s - m * m
    if variance <= 0.0:
        raise DomainError(f"entropy needs s > m^2, got s={s!r}, m={m!r}")
    # log1p keeps full precision when the state is close to equilibrium
    return 0.5 * (s - 1.0 - math.log1p(variance - 1.0))


def policy_ell(strategy: Strategy, m: float, s: float) -> float:
    """Step constant prescribed by a strategy in the Gaussian limit, where
    a = s and b = 1."""
    return strategy.scale(s, 1.0, m, s, None)


def _ode_field(m: float, s: float, ell: float) -> tuple[float, float]:
    s = max(s, 0.0)
    return (-g_drift(s, 1.0, ell) * m, f1(s, ell) * (1.0 - s))


def _rk4_with_guard(gm: GaussianMoments, ell: float, dt: float,
                    _depth: int = 0) -> GaussianMoments:
    m0, s0 = gm.m, gm.s
    k1m, k1s = _ode_field(m0, s0, ell)
    k2m, k2s = _ode_field(m0 + 0.5 * dt * k1m, s0 + 0.5 * dt * k1s, ell)
    k3m, k3s = _ode_field(m0 + 0.5 * dt * k2m, s0 + 0.5 * dt * k2s, ell)
    k4m, k4s = _ode_field(m0 + dt * k3m, s0 + dt * k3s, ell)
    m1 = m0 + dt / 6.0 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    s1 = s0 + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    if s1 < m1 * m1:
        # reject and retry at half length until the variance stays positive
        if _depth >= 40:
            raise DomainError("step size underflow while protecting s > m^2")
        half = _rk4_with_guard(gm, ell, 0.5 * dt, _depth + 1)
        return _rk4_with_guard(half, ell, 0.5 * dt, _depth + 1)
    return GaussianMoments(m=m1, s=s1, t=gm.t + dt)


def gaussian_ode_step(gm: GaussianMoments, strategy: Strategy, dt: float) -> GaussianMoments:
    """One RK4 step of the two-moment system.

    The policy scale is evaluated once per step from the current state (it
    varies on the trajectory timescale, not the step one).  If a step would
    push the variance negative it is retried at half length.
    """
    if not dt > 0.0:
        raise DomainError(f"dt must be > 0, got {dt!r}")
    return _rk4_with_guard(gm, policy_ell(strategy, gm.m, gm.s), dt)


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
    """Integrate the moment system from (m0, s0).

    With ``stop_tol`` set, integration ends once |m| and |s - 1| both drop
    below it.  Entropy is +inf at a zero-variance initial point.
    ``policy_every`` re-evaluates the strategy scale only every that many
    steps (the scale drifts on the trajectory timescale, so a small refresh
    interval changes nothing measurable while saving the solver calls).
    """
    gm = GaussianMoments(m=m0, s=s0)
    steps = int(round(t_max / dt))
    ts, ms, ss, ents, ells, accs = [], [], [], [], [], []

    ell = policy_ell(strategy, gm.m, gm.s)

    def push(state, ell_used):
        ts.append(state.t)
        ms.append(state.m)
        ss.append(state.s)
        variance = state.s - state.m * state.m
        ents.append(_entropy(state.m, state.s) if variance > 0.0 else math.inf)
        ells.append(ell_used)
        accs.append(acc_rate(max(state.s, 0.0), 1.0, ell_used))

    push(gm, ell)
    for k in range(steps):
        if k % policy_every == 0:
            ell = policy_ell(strategy, gm.m, gm.s)
        gm = _rk4_with_guard(gm, ell, dt)
        push(gm, ell)
        if stop_tol is not None and abs(gm.m) < stop_tol and abs(gm.s - 1.0) < stop_tol:
            break
    return LimitTrajectory(
        t=np.array(ts),
        m=np.array(ms),
        s=np.array(ss),
        entropy=np.array(ents),
        ell=np.array(ells),
        acc=np.array(accs),
    )


@dataclass
class ParticleEnsemble:
    """Interacting particle approximation of the nonlinear diffusion."""

    xs: np.ndarray
    t: float
    dt: float
    rng: np.random.Generator

    def __post_init__(self):
        if self.xs.size < 2:
            raise DomainError("ensemble needs at least 2 particles")
        if not self.dt > 0.0:
            raise DomainError(f"dt must be > 0, got {self.dt!r}")


def make_ensemble(xs, dt: float, seed=None, rng=None) -> ParticleEnsemble:
    xs = np.array(xs, dtype=float).reshape(-1)
    if rng is None:
        rng = chain_rng(0 if seed is None else seed)
    return ParticleEnsemble(xs=xs, t=0.0, dt=dt, rng=rng)


def meanfield_particle_step(pe: ParticleEnsemble, p: Potential, ell: float) -> ParticleEnsemble:
    """One Euler-Maruyama step, coefficients frozen at the empirical moments."""
    moments = empirical_moments(p, pe.xs)
    drift = g_drift(moments.a, moments.b, ell)
    diffusion = gamma(moments.a, moments.b, ell)
    noise = pe.rng.standard_normal(pe.xs.size)
    pe.xs = pe.xs - drift * np.asarray(p.d1(pe.xs)) * pe.dt + math.sqrt(
        diffusion * pe.dt
    ) * noise
    pe.t += pe.dt
    return pe


def integrate_particles(pe: ParticleEnsemble, p: Potential, ell: float,
                        t_max: float, record_every: int = 1):
    """Advance an ensemble to t_max; returns (t, mean, second moment) arrays."""
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    ts = [pe.t]
    ms = [float(np.mean(pe.xs))]
    ss = [float(np.mean(pe.xs**2))]
    steps = int(round((t_max - pe.t) / pe.dt))
    for k in range(1, steps + 1):
        meanfield_particle_step(pe, p, ell)
        if k % record_every == 0:
            ts.append(pe.t)
            ms.append(float(np.mean(pe.xs)))
            ss.append(float(np.mean(pe.xs**2)))
    return np.array(ts), np.array(ms), np.array(ss)


def entropy_rate_bound(a: float, b: float, ell: float, fisher: float) -> float:
    """Upper bound on the entropy time-derivative, -f_rate(a,b,ell)/2 * fisher."""
    if fisher < 0.0:
        raise DomainError(f"Fisher information must be >= 0, got {fisher!r}")
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
    if eps is None:
        eps = 1e-8 * max(1.0, abs(moment))
    if eps < 0.0:
        raise DomainError(f"dead band must be >= 0, got {eps!r}")
    if moment < -eps:
        tag = "negative_moment"
    elif moment > eps:
        tag = "positive_moment"
    else:
        tag = "stationary_moment"
    return MalaRegime(tag=tag, moment=moment)


def mala_w(moment: float, ell: float) -> float:
    """Transient MALA speed, ell^2 * (exp(ell^4 / 8 * moment) ^ 1)."""
    if not ell > 0.0:
        raise DomainError(f"ell must be > 0, got {ell!r}")
    exponent = 0.125 * ell**4 * moment
    return ell * ell * math.exp(min(exponent, 0.0))


def integrate_mala_second_moment(s0: float, ell: float, dt: float = 1e-3,
                                 t_max: float = 5.0):
    """Second-moment flow ds/dt = mala_w(s - 1, ell) * (1 - s) for the
    Gaussian target; returns (t, s) arrays."""

    def field(s):
        return mala_w(s - 1.0, ell) * (1.0 - s)

    steps = int(round(t_max / dt))
    ts = np.empty(steps + 1)
    ss = np.empty(steps + 1)
    ts[0], ss[0] = 0.0, s0
    s = s0
    for k in range(1, steps + 1):
        k1 = field(s)
        k2 = field(s + 0.5 * dt * k1)
        k3 = field(s + 0.5 * dt * k2)
        k4 = field(s + dt * k3)
        s += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        ts[k], ss[k] = k * dt, s
    return ts, ss


def _z_moment(p: Potential) -> float:
    raw = integrate_against_density(
        p, lambda x: 5.0 * float(p.d3(x)) ** 2 - 3.0 * float(p.d2(x)) ** 3
    )
    mass = integrate_against_density(p, lambda x: 1.0)
    return raw / mass


def mala_z_stationary(p: Potential, ell: float) -> float:
    """Stationary-regime MALA speed 2 ell^2 Phi(-ell^3 sqrt(K/3) / 8).

    K is the stationary mean of 5 V'''^2 - 3 V''^2 * V''; it is negative for
    the Gaussian target (K = -3), in which case the square root is undefined
    and a DomainError is raised rather than guessing a corrected formula.
    """
    if not ell > 0.0:
        raise DomainError(f"ell must be > 0, got {ell!r}")
    k_moment = _z_moment(p)
    if k_moment < 0.0:
        raise DomainError(
            f"stationary moment K={k_moment:.6g} is negative for {p.name}; "
            "the speed formula requires K >= 0"
        )
    from .special import phi

    return 2.0 * ell * ell * phi(-(ell**3) * math.sqrt(k_moment / 3.0) / 8.0)


@dataclass(frozen=True)
class MalaZOptimum:
    ell: float
    z_value: float
    acceptance: float


def mala_z_optimum(p: Potential) -> MalaZOptimum:
    """Maximizer of the stationary-regime speed and the acceptance there.

    The acceptance rate at the optimum is a universal constant (~0.574),
    independent of the target.
    """
    k_moment = _z_moment(p)
    if k_moment <= 0.0:
        raise DomainError(
            f"stationary moment K={k_moment:.6g} must be positive for {p.name}"
        )
    c = math.sqrt(k_moment / 3.0) / 8.0
    hi = (4.0 / c) ** (1.0 / 3.0)
    ell, _ = golden_section_max(
        lambda e: mala_z_stationary(p, e), 1e-6, hi, tol=1e-10
    )
    z_val = mala_z_stationary(p, ell)
    return MalaZOptimum(ell=ell, z_value=z_val, acceptance=z_val / (ell * ell))


def mala_ar1_limit(ell: float, steps: int, y0: float = 0.0, seed=None, rng=None):
    """Fixed-variance MALA limit chain Y_{k+1} = (1 - ell^2/2) Y_k + ell G.

    Defined for 0 < ell < 2; the stationary law is centered normal with
    variance 1 / (1 - ell^2 / 4).  Returns the length steps+1 trajectory
    including y0.
    """
    # imported here: scipy.signal is slow to import and used nowhere else
    from scipy import signal

    if not 0.0 < ell < 2.0:
        raise DomainError(f"AR(1) limit requires 0 < ell < 2, got {ell!r}")
    if rng is None:
        rng = chain_rng(0 if seed is None else seed)
    noise = rng.standard_normal(steps)
    decay = 1.0 - 0.5 * ell * ell
    zi = signal.lfiltic([ell], [1.0, -decay], y=[y0])
    filtered, _ = signal.lfilter([ell], [1.0, -decay], noise, zi=zi)
    return np.concatenate(([y0], filtered))


LIMIT_HEADER = "t,m,s,H,ell_used,acc"


def write_limit_csv(traj: LimitTrajectory, path) -> None:
    """Write a limit trajectory in the exchange format (t,m,s,H,ell_used,acc)."""
    with open(path, "w", newline="") as fh:
        fh.write(LIMIT_HEADER + "\n")
        for i in range(traj.t.size):
            row = (traj.t[i], traj.m[i], traj.s[i], traj.entropy[i],
                   traj.ell[i], traj.acc[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
