"""Finite-dimensional Metropolis chain simulators.

The random walk chain moves all n coordinates with one shared accept/reject
decision per step, the proposal standard deviation being ``ell / sqrt(n)``
with ``ell`` supplied by a pluggable :class:`Strategy`; the Langevin-adjusted
chain (``mala_step``) uses a drift-corrected proposal with the acceptance
exponent written out explicitly.

RNG discipline: each chain owns one counter-based generator (Philox) seeded
from a master seed; replicate independence comes from spawned seed sequences.
Within a step the n proposal normals are drawn as one block, so coordinate i
consumes position i of the block, and a single uniform decides acceptance.

A ChainState is confined to one worker at a time; potentials and strategies
are immutable and shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import tuning
from .errors import ConcaveRegionError, DomainError
from .targets import Potential

__all__ = [
    "Strategy",
    "ConstantEll",
    "ConstantAccNumeric",
    "ConstantAccAdaptive",
    "RateOptimal",
    "EntropyOptimalGaussian",
    "strategy_from_label",
    "ChainState",
    "StepRecord",
    "chain_rng",
    "adaptive_update",
    "rwm_step",
    "mala_step",
    "run_chain",
    "run_mala",
]

# Fallback scale when the estimated curvature is nonpositive and a numeric
# rule has no finite optimum; a finite cap keeps the chain well defined.
DEFAULT_ELL_CAP = 10.0

# Moment ratios this small are indistinguishable from 0 and would break the
# acceptance-matching solve; clamp instead.
_S_FLOOR = 1e-12


@dataclass(frozen=True)
class Strategy:
    """Base class for step-scale strategies.

    Each rule keeps its three jobs together: ``spec()`` is its lossless text
    form (``kind`` plus the field values, read back by
    :func:`strategy_from_label`), ``label()`` its short name in file names
    and row tags, and ``scale()`` the step constant it prescribes.
    """

    kind: ClassVar[str] = ""

    def spec(self) -> str:
        values = (repr(float(getattr(self, f.name))) for f in fields(self))
        return ":".join([self.kind, *values])

    def label(self) -> str:
        raise NotImplementedError

    def scale(self, a, b, m, s, n, theta=None) -> float:
        """Step constant ell for the moments a = mean V'^2, b = mean V'',
        mean m and second moment s of the coordinates, in dimension n (None
        for the deterministic limit), with the adaptive state theta."""
        raise NotImplementedError


def _capped(solve, *args) -> float:
    # nonpositive curvature: the numeric rules have no finite optimum there
    try:
        return solve(*args).ell
    except ConcaveRegionError:
        return DEFAULT_ELL_CAP


@dataclass(frozen=True)
class ConstantEll(Strategy):
    kind: ClassVar[str] = "constant"
    ell: float = 2.38

    def __post_init__(self):
        if not self.ell > 0.0:
            raise DomainError(f"constant ell must be > 0, got {self.ell!r}")

    def label(self) -> str:
        return f"constant-{self.ell:g}"

    def scale(self, a, b, m, s, n, theta=None) -> float:
        return self.ell


@dataclass(frozen=True)
class ConstantAccNumeric(Strategy):
    """Solve the limiting acceptance curve for a target rate each step."""

    kind: ClassVar[str] = "alpha"
    alpha: float = 0.27

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")

    def label(self) -> str:
        return f"acc-{self.alpha:g}-numeric"

    def scale(self, a, b, m, s, n, theta=None) -> float:
        return _capped(tuning.ell_alpha_ab, max(a, _S_FLOOR * abs(b)), b, self.alpha)


@dataclass(frozen=True)
class ConstantAccAdaptive(Strategy):
    """Track a target acceptance rate by stochastic approximation.

    The log proposal standard deviation theta starts at log(2.38 / sqrt(n))
    and after the k-th step (k = 1, 2, ...) moves by
    k**-0.6 * (alpha_k - alpha), alpha_k being the computed acceptance
    probability of that step (see :func:`adaptive_update`).  The scale is
    the chain's own state, so the rule has no deterministic-limit
    counterpart.
    """

    kind: ClassVar[str] = "alpha-adaptive"
    alpha: float = 0.27

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")

    def label(self) -> str:
        return f"acc-{self.alpha:g}-adaptive"

    def scale(self, a, b, m, s, n, theta=None) -> float:
        if theta is None:
            raise DomainError(
                "the adaptive strategy needs a chain's current theta; it has no "
                "deterministic-limit counterpart"
            )
        return math.exp(theta) * math.sqrt(n)


@dataclass(frozen=True)
class RateOptimal(Strategy):
    """Maximize the entropy production rate given the current moments."""

    kind: ClassVar[str] = "star"

    def label(self) -> str:
        return "rate-optimal"

    def scale(self, a, b, m, s, n, theta=None) -> float:
        return _capped(tuning.ell_star_ab, a, b)


@dataclass(frozen=True)
class EntropyOptimalGaussian(Strategy):
    """Minimize the Gaussian entropy derivative (Gaussian targets only)."""

    kind: ClassVar[str] = "ent"

    def label(self) -> str:
        return "entropy-gaussian"

    def scale(self, a, b, m, s, n, theta=None) -> float:
        if s > m * m + _S_FLOOR:
            return tuning.ell_ent_gaussian(m, s).ell
        # degenerate spread (e.g. a point start): fall back to the
        # rate-optimal value
        return _capped(tuning.ell_star_ab, a, b)


_KINDS = {cls.kind: cls for cls in (ConstantEll, ConstantAccNumeric, ConstantAccAdaptive,
                                    RateOptimal, EntropyOptimalGaussian)}


def strategy_from_label(text: str) -> Strategy:
    """Parse a strategy spec such as 'constant:2.38', 'alpha:0.27' or 'star'.

    The inverse of :meth:`Strategy.spec`; an omitted argument takes the
    field's default.
    """
    kind, _, arg = text.partition(":")
    cls = _KINDS.get(kind)
    if cls is None:
        raise DomainError(
            f"unknown strategy {text!r}; expected constant[:ell], alpha[:a], "
            "alpha-adaptive[:a], star or ent"
        )
    if not arg:
        return cls()
    if not fields(cls):
        raise DomainError(f"strategy {kind!r} takes no argument, got {text!r}")
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"strategy {text!r}: {arg!r} is not a finite number")
    return cls(value)


@dataclass
class _Summary:
    """What a step needs to know of the point ``coords`` under ``potential``."""

    coords: np.ndarray  # the summarised array itself; compared by identity
    potential: Potential
    sum_v: float
    d1: np.ndarray
    a_hat: float
    b_hat: float
    m_hat: float
    s_hat: float
    strategy: Strategy | None = None  # the strategy ``ell`` was chosen by
    ell: float = math.nan


@dataclass
class ChainState:
    """Position, generator and counters of one chain.

    ``coords`` is replaced by a new array when a proposal is accepted and is
    never mutated in place.  The step functions rely on this: they cache the
    current point's moments, ``sum V(coords)``, ``V'(coords)`` and, for
    non-adaptive strategies, the scale ``ell``, keyed on the identity of the
    ``coords`` array object (and of the potential and strategy), and reuse
    them after a rejection.  Assigning a new array to ``coords`` invalidates
    the cache; writing into the array does not.
    """

    coords: np.ndarray
    rng: np.random.Generator
    k: int = 0
    theta: float | None = None
    accept_count: int = 0
    _summary: _Summary | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class StepRecord:
    k: int
    ell_used: float
    accepted: bool
    acc_prob: float
    a_hat: float
    b_hat: float
    # coordinate moments, consumed by the experiment estimators
    m_hat: float = field(default=math.nan)
    s_hat: float = field(default=math.nan)


def chain_rng(seed) -> np.random.Generator:
    """Counter-based generator for a chain (accepts int or SeedSequence)."""
    return np.random.Generator(np.random.Philox(seed))


def adaptive_update(theta, acc_prob, alpha_target, k) -> float:
    """One stochastic-approximation step on the log proposal scale.

    theta_{k+1} = theta_k + (k + 1)**-0.6 * (acc_prob - alpha_target); the
    proposal standard deviation at the next step is exp(theta_{k+1}).
    """
    return theta + float(k + 1) ** -0.6 * (acc_prob - alpha_target)


def _summarise(coords: np.ndarray, p: Potential, v: np.ndarray,
               d1: np.ndarray) -> _Summary:
    return _Summary(
        coords=coords,
        potential=p,
        sum_v=np.sum(v),
        d1=d1,
        a_hat=float(np.mean(d1 * d1)),
        b_hat=float(np.mean(p.d2(coords))),
        m_hat=float(np.mean(coords)),
        s_hat=float(np.mean(coords * coords)),
    )


def _current(state: ChainState, p: Potential) -> _Summary:
    """The summary of ``state.coords``: cached, or computed on a miss."""
    here = state._summary
    if here is None or here.coords is not state.coords or here.potential is not p:
        coords = state.coords
        with np.errstate(over="ignore", invalid="ignore"):
            here = _summarise(coords, p, p.eval_v(coords), p.d1(coords))
        if not (math.isfinite(here.sum_v) and math.isfinite(here.a_hat)):
            raise DomainError("sum of V or mean V'^2 is not finite at the chain's state")
        state._summary = here
    return here


def _accept(state: ChainState, p: Potential, proposal: np.ndarray,
            v: np.ndarray, d1: np.ndarray | None = None) -> None:
    # V(proposal), and V'(proposal) when the step has it, are reused.
    state.coords = proposal
    state.accept_count += 1
    state._summary = _summarise(proposal, p, v, p.d1(proposal) if d1 is None else d1)


def _record(state: ChainState, here: _Summary, ell, accepted, acc_prob) -> StepRecord:
    return StepRecord(
        k=state.k,
        ell_used=ell,
        accepted=bool(accepted),
        acc_prob=acc_prob,
        a_hat=here.a_hat,
        b_hat=here.b_hat,
        m_hat=here.m_hat,
        s_hat=here.s_hat,
    )


def rwm_step(state: ChainState, p: Potential, strategy: Strategy):
    """One random walk Metropolis step over all coordinates.

    Proposes coords + (ell / sqrt(n)) * G with a fresh normal block G and
    accepts with probability exp(sum V(x) - sum V(y)) ^ 1 using a single
    uniform.  The moments in the record, and ell, are those of the current
    coordinate vector; they are computed when the chain reaches it and reused
    while the chain rejects (see :class:`ChainState`).  Adaptive strategies
    choose ell afresh every step, because theta moves every step.
    """
    coords = state.coords
    n = coords.size
    here = _current(state, p)
    adaptive = isinstance(strategy, ConstantAccAdaptive)
    if adaptive:
        if state.theta is None:  # the classic stationary-phase scale
            state.theta = math.log(2.38 / math.sqrt(n))
        ell = strategy.scale(here.a_hat, here.b_hat, here.m_hat, here.s_hat, n, state.theta)
    else:
        if here.strategy is not strategy:
            here.ell = strategy.scale(here.a_hat, here.b_hat, here.m_hat, here.s_hat, n)
            here.strategy = strategy
        ell = here.ell

    sigma = ell / math.sqrt(n)
    noise = state.rng.standard_normal(n)
    proposal = coords + sigma * noise
    v_proposal = p.eval_v(proposal)
    log_ratio = float(here.sum_v - np.sum(v_proposal))
    acc_prob = math.exp(min(log_ratio, 0.0))
    accepted = state.rng.uniform() <= acc_prob
    if accepted:
        _accept(state, p, proposal, v_proposal)

    if adaptive:
        state.theta = adaptive_update(state.theta, acc_prob, strategy.alpha, state.k)

    state.k += 1
    return state, _record(state, here, ell, accepted, acc_prob)


def mala_step(state: ChainState, p: Potential, sigma: float):
    """One Langevin-adjusted step with proposal std sigma.

    The acceptance exponent is the explicit form
    sum_i [ V(x_i) - V(x_i + z_i)
            + ((g_i)^2 - (g_i - (sigma/2)(V'(x_i) + V'(x_i + z_i)))^2) / 2 ]
    with z_i = sigma g_i - (sigma^2 / 2) V'(x_i); its equivalence with the
    density-ratio form is covered by tests rather than assumed.  The moments
    in the record, sum V(x) and V'(x) are those of the current coordinate
    vector, computed when the chain reaches it and reused while it rejects.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
    coords = state.coords
    here = _current(state, p)
    d1_here = here.d1

    noise = state.rng.standard_normal(coords.size)
    jump = sigma * noise - 0.5 * sigma * sigma * d1_here
    proposal = coords + jump
    d1_proposal = p.d1(proposal)
    reverse = noise - 0.5 * sigma * (d1_here + d1_proposal)
    v_proposal = p.eval_v(proposal)
    exponent = float(
        here.sum_v
        - np.sum(v_proposal)
        + 0.5 * (np.sum(noise * noise) - np.sum(reverse * reverse))
    )
    acc_prob = math.exp(min(exponent, 0.0))
    accepted = state.rng.uniform() <= acc_prob
    if accepted:
        _accept(state, p, proposal, v_proposal, d1_proposal)
    state.k += 1
    return state, _record(state, here, sigma, accepted, acc_prob)


def _run(init, p, steps, record_every, rng, step_fn):
    coords = np.array(init, dtype=float).reshape(-1).copy()
    if coords.size < 1:
        raise DomainError("initial state must have at least one coordinate")
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps!r}")
    state = ChainState(coords=coords, rng=rng)
    records = []
    for k in range(1, steps + 1):
        state, record = step_fn(state)
        if k % record_every == 0:
            records.append(record)
    return records, state


def run_chain(init, p: Potential, strategy: Strategy, steps: int,
              record_every: int = 1, *, rng: np.random.Generator):
    """Run a random walk chain; deterministic for a given generator state.

    Returns (records, final_state) where records holds every
    ``record_every``-th StepRecord.
    """
    return _run(
        init, p, steps, record_every, rng,
        lambda state: rwm_step(state, p, strategy),
    )


def run_mala(init, p: Potential, sigma: float, steps: int,
             record_every: int = 1, *, rng: np.random.Generator):
    """Run a Langevin-adjusted chain at fixed proposal std sigma."""
    return _run(
        init, p, steps, record_every, rng,
        lambda state: mala_step(state, p, sigma),
    )
