"""Finite-dimensional Metropolis chain simulators.

The random walk chain moves all n coordinates with one shared accept/reject
decision per step, the proposal standard deviation being ``ell / sqrt(n)``
with ``ell`` supplied by a pluggable :class:`Strategy`; the Langevin-adjusted
chain uses a drift-corrected proposal with the acceptance exponent written
out explicitly.

Every chain is a row of a batch: an ``(R, n)`` array stepped by one kernel
per chain kind.  A kernel chooses its scale, builds the proposal and its
log acceptance ratio; the batch draws the normals, decides, moves the
accepted rows and counts the step, doing the O(R n) work on arrays and
whatever sets a row's bits (its draws, scale and exp) row by row.
:func:`run_chains` steps R random walk chains; :func:`run_chain` and
:func:`run_mala` loop the same kernels on a batch of one and return its
records and end point, so a chain's state lives only in its batch.

RNG discipline: each chain, or row, owns one counter-based generator
(Philox) seeded from a master seed; replicate independence comes from
spawned seed sequences.  Within a step the n proposal normals are drawn as
one block, so coordinate i consumes position i of the block, and then a
single uniform variate decides acceptance.  Both draws are made in one
place each (``_Batch.normals`` and ``_Batch.decide``), which fixes the
stream layout for every kind of chain.  A row's stream does not depend on
the other rows of its batch.  Potentials and strategies are immutable and
shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import tuning
from .errors import ConcaveRegionError, DomainError
from .targets import Potential, _moment_means

__all__ = [
    "Strategy",
    "ConstantEll",
    "ConstantAccNumeric",
    "ConstantAccAdaptive",
    "RateOptimal",
    "EntropyOptimalGaussian",
    "strategy_from_label",
    "StepRecord",
    "ChainRuns",
    "chain_rng",
    "adaptive_update",
    "rwm_step",
    "run_chains",
    "run_chains_moments",
    "run_chain",
    "run_mala",
]

# Fallback scale when the estimated curvature is nonpositive and a numeric
# rule has no finite optimum; a finite cap keeps the chain well defined.
DEFAULT_ELL_CAP = 10.0

# Far more steps than any run here takes (criterion 04's chain takes
# 200,000 and criterion 05's ODE 60,000); a larger count is a typo and
# would run for days.  Chains, the AR(1) limit and the integrators share it.
_MAX_STEPS = 10**7

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


@dataclass(frozen=True)
class StepRecord:
    k: int
    ell_used: float
    accepted: bool
    acc_prob: float
    a_hat: float
    b_hat: float
    # coordinate moments, consumed by the experiment estimators
    m_hat: float
    s_hat: float


@dataclass(frozen=True)
class ChainRuns:
    """What :func:`run_chains` records: per-step (R, steps) arrays named as
    the fields of :class:`StepRecord`, column k - 1 holding step k, and each
    chain's final point and theta."""

    ell_used: np.ndarray
    accepted: np.ndarray
    acc_prob: np.ndarray
    a_hat: np.ndarray
    b_hat: np.ndarray
    m_hat: np.ndarray
    s_hat: np.ndarray
    coords: np.ndarray
    theta: list


def chain_rng(seed) -> np.random.Generator:
    """Counter-based generator for a chain (accepts an int >= 0, a sequence
    of them, or a SeedSequence)."""
    if isinstance(seed, int) and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed))


def adaptive_update(theta, acc_prob, alpha_target, k) -> float:
    """One stochastic-approximation step on the log proposal scale.

    theta_{k+1} = theta_k + (k + 1)**-0.6 * (acc_prob - alpha_target); the
    proposal standard deviation at the next step is exp(theta_{k+1}).
    """
    return theta + float(k + 1) ** -0.6 * (acc_prob - alpha_target)


def _summarise(p: Potential, x: np.ndarray, v: np.ndarray, d1: np.ndarray):
    # sum V, V', a_hat = mean V'^2, b_hat = mean V'', m_hat = mean x and
    # s_hat = mean x^2 of each row of the points x.  Each row is reduced as np.sum and np.mean
    # reduce it alone, so a row's values do not depend on the other rows.
    return (np.add.reduce(v, axis=-1), d1, *_moment_means(p, x, d1, x, x * x))


_SUMMARY = ("sum_v", "d1", "a_hat", "b_hat", "m_hat", "s_hat")
_MOMENTS = _SUMMARY[2:]
_OUTCOME = ("ell_used", "acc_prob", "accepted")  # what the kernels return, in order


class _Batch:
    """R chains in dimension n under one potential, stepped together.

    Row r has its own generator ``rngs[r]``, strategy ``strategies[r]`` and
    adaptive ``theta[r]`` (None until an adaptive strategy first steps it),
    and the summary of its current point (see ``_summarise``).  ``ell[r]``
    is the scale row r's strategy chose at that point, None until chosen.
    ``x`` is replaced, never written into, when rows move, so a row of it
    can serve as a chain's coords, and ``x`` may be a view of a caller's
    array.  The summary arrays are the batch's own and are refreshed in
    place; ``d1`` is copied because ``p.d1`` may return its argument (the
    Gaussian's does).  All rows have made ``k`` steps.
    """

    def __init__(self, p: Potential, x: np.ndarray, rngs, strategies, theta):
        if p.name != "gaussian" and any(isinstance(s, EntropyOptimalGaussian)
                                        for s in strategies):
            raise DomainError(f"strategy 'ent' is for the Gaussian target, not {p.name!r}")
        self.p, self.x, self.k = p, x, 0
        self.rngs, self.strategies, self.theta = list(rngs), list(strategies), list(theta)
        self.ell = [None] * len(x)
        with np.errstate(over="ignore", invalid="ignore"):
            summary = _summarise(p, x, p.eval_v(x), np.array(p.d1(x), dtype=float))
        for name, values in zip(_SUMMARY, summary):
            setattr(self, name, values)
        if not (np.all(np.isfinite(self.sum_v)) and np.all(np.isfinite(self.a_hat))):
            raise DomainError("sum of V or mean V'^2 is not finite at the chain's state")

    def here(self, r: int) -> tuple:
        """(a_hat, b_hat, m_hat, s_hat) of row r's point, as floats."""
        return (float(self.a_hat[r]), float(self.b_hat[r]), float(self.m_hat[r]),
                float(self.s_hat[r]))

    def normals(self) -> np.ndarray:
        """Each row's block of n proposal normals, drawn from its own generator."""
        return np.array([rng.standard_normal(self.x.shape[1]) for rng in self.rngs])

    def decide(self, log_ratio: np.ndarray, proposal: np.ndarray, v: np.ndarray,
               d1: np.ndarray | None = None):
        """Close a step: row r accepts its proposal with probability
        exp(log_ratio[r]) ^ 1, against one uniform from its own generator;
        the accepted rows move (reusing V(proposal) and, when the step has
        it, V'(proposal)) and the step is counted.  Returns the rows'
        (acc_prob, accepted) as lists."""
        acc_prob = [math.exp(min(d, 0.0)) for d in log_ratio.tolist()]
        accepted = [rng.random() <= prob for rng, prob in zip(self.rngs, acc_prob)]
        self.k += 1
        rows = [r for r, flag in enumerate(accepted) if flag]
        if not rows:
            return acc_prob, accepted
        for r in rows:
            self.ell[r] = None
        if len(rows) < len(accepted):
            self.x = np.where(np.array(accepted)[:, None], proposal, self.x)
            proposal, v = proposal[rows], v[rows]
            d1 = None if d1 is None else d1[rows]
        else:
            self.x, rows = proposal, slice(None)
        summary = _summarise(self.p, proposal, v, self.p.d1(proposal) if d1 is None else d1)
        for name, values in zip(_SUMMARY, summary):
            getattr(self, name)[rows] = values
        return acc_prob, accepted


def _rwm_kernel(batch: _Batch):
    """One random walk Metropolis step of every row of ``batch``.

    Row r proposes x_r + (ell_r / sqrt(n)) G_r with a fresh normal block G_r
    and accepts with probability exp(sum V(x_r) - sum V(y_r)) ^ 1, using one
    uniform drawn from its own generator after the block.  ell_r is chosen
    from the summary of x_r: by adaptive strategies every step, because
    theta moves every step, by the others once per point.  The proposal, V,
    the row sums and the refresh of moved rows are array work; the scale,
    the draws and exp are taken row by row, so each row's bits are those of
    a chain stepped alone.  Returns the rows' (ell, acc_prob, accepted) as
    lists.
    """
    n = batch.x.shape[1]
    root_n = math.sqrt(n)
    ell, theta = batch.ell, batch.theta
    adaptive = []
    for r, strategy in enumerate(batch.strategies):
        if isinstance(strategy, ConstantAccAdaptive):
            adaptive.append(r)
            if theta[r] is None:  # the classic stationary-phase scale
                theta[r] = math.log(2.38 / root_n)
        elif ell[r] is not None:
            continue
        ell[r] = strategy.scale(*batch.here(r), n, theta[r])
    ell_used = ell.copy()

    proposal = batch.x + np.array([[e / root_n] for e in ell_used]) * batch.normals()
    v = batch.p.eval_v(proposal)
    k = batch.k  # theta_k moves with the index of the step it closes
    acc_prob, accepted = batch.decide(batch.sum_v - np.add.reduce(v, axis=-1), proposal, v)
    for r in adaptive:
        theta[r] = adaptive_update(theta[r], acc_prob[r], batch.strategies[r].alpha, k)
    return ell_used, acc_prob, accepted


def _mala_kernel(batch: _Batch, sigma: float):
    """One Langevin-adjusted step, proposal std sigma, of every row of ``batch``.

    A row proposes y = x + sigma g - (sigma^2 / 2) V'(x) and accepts with
    probability exp(E) ^ 1, E being the explicit form
    sum_i [ V(x_i) - V(y_i)
            + ((g_i)^2 - (g_i - (sigma/2)(V'(x_i) + V'(y_i)))^2) / 2 ];
    its equivalence with the density-ratio form is covered by tests rather
    than assumed.  Draws and exp are taken row by row, as in
    :func:`_rwm_kernel`.  Returns the rows' (sigma, acc_prob, accepted).
    """
    d1_here, noise = batch.d1, batch.normals()
    proposal = batch.x + (sigma * noise - 0.5 * sigma * sigma * d1_here)
    d1 = batch.p.d1(proposal)
    reverse = noise - 0.5 * sigma * (d1_here + d1)
    v = batch.p.eval_v(proposal)
    exponent = (
        batch.sum_v
        - np.add.reduce(v, axis=-1)
        + 0.5 * (np.add.reduce(noise * noise, axis=-1) - np.add.reduce(reverse * reverse, axis=-1))
    )
    acc_prob, accepted = batch.decide(exponent, proposal, v, d1)
    return [sigma] * len(acc_prob), acc_prob, accepted


def rwm_step(coords, p: Potential, strategy: Strategy, *, rng: np.random.Generator):
    """One random walk Metropolis step from ``coords``: a one-step
    :func:`run_chain`, returning the new coords and the step's record.

    Nothing in the package steps a chain by hand; this one-step view stays
    because ``perfbench/tracing.py`` wraps it to count chain steps.
    """
    records, coords = _run_one(coords, p, strategy, 1, 1, rng, _rwm_kernel)
    return coords, records[0]


def _check_steps(steps) -> None:
    if not 0 <= steps <= _MAX_STEPS:
        raise DomainError(f"steps must be from 0 to {_MAX_STEPS:,}, got {steps!r}")


def _start(inits, p: Potential, strategies, steps: int, rngs) -> _Batch:
    x = np.array(inits, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DomainError(
            f"initial states must be R rows of n >= 1 coordinates, got shape {x.shape}"
        )
    _check_steps(steps)
    if not len(strategies) == len(rngs) == len(x):
        raise DomainError(
            f"need one strategy and one generator per chain: {len(x)} chains, "
            f"{len(strategies)} strategies, {len(rngs)} generators"
        )
    return _Batch(p, x, rngs, strategies, [None] * len(x))


def run_chains(inits, p: Potential, strategies, steps: int, *, rngs) -> ChainRuns:
    """Run R random walk chains as one batch; deterministic for given
    generator states.

    Chain r starts at ``inits[r]`` (all of one dimension n), moves by
    ``strategies[r]`` and draws only from ``rngs[r]``: each step n normals,
    then one uniform variate.  Its records are bit for bit those of
    :func:`run_chain` on the same generator, whatever the other rows do.
    """
    batch = _start(inits, p, strategies, steps, rngs)
    out = {name: np.empty((len(batch.x), steps), dtype=bool if name == "accepted" else float)
           for name in _MOMENTS + _OUTCOME}
    for k in range(steps):
        # the moments recorded at a step are those of the point it starts from
        for name in _MOMENTS:
            out[name][:, k] = getattr(batch, name)
        for name, values in zip(_OUTCOME, _rwm_kernel(batch)):
            out[name][:, k] = values
    return ChainRuns(**out, coords=batch.x, theta=batch.theta)


def run_chains_moments(inits, p: Potential, strategies, steps: int, *, rngs):
    """The per-step (R, steps) ``m_hat`` and ``s_hat`` arrays of
    :func:`run_chains`, bit for bit, without its other records.

    All a square-bias sweep reads, in two sevenths of the memory.
    """
    batch = _start(inits, p, strategies, steps, rngs)
    m_hat, s_hat = np.empty((len(batch.x), steps)), np.empty((len(batch.x), steps))
    for k in range(steps):
        m_hat[:, k], s_hat[:, k] = batch.m_hat, batch.s_hat
        _rwm_kernel(batch)
    return m_hat, s_hat


def _run_one(init, p, strategy, steps, record_every, rng, kernel, *args):
    # ``steps`` kernel steps of the chain from ``init``, as a batch of one;
    # returns a StepRecord for every record_every-th step, and the end point
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    batch = _start(np.reshape(init, (1, -1)), p, [strategy], steps, [rng])
    records = []
    for i in range(1, steps + 1):
        # a record holds the moments of the point its step starts from
        here = batch.here(0) if i % record_every == 0 else None
        ell, acc_prob, accepted = kernel(batch, *args)
        if here is not None:
            records.append(StepRecord(batch.k, ell[0], accepted[0], acc_prob[0], *here))
    return records, batch.x[0]


def run_chain(init, p: Potential, strategy: Strategy, steps: int,
              record_every: int = 1, *, rng: np.random.Generator):
    """Run a random walk chain; deterministic for a given generator state.

    Returns (records, coords): every ``record_every``-th StepRecord and the
    chain's end point.  The chain is a batch of one stepped by the kernel of
    :func:`run_chains`; its records equal those of the same chain in a
    :func:`run_chains` batch.
    """
    return _run_one(init, p, strategy, steps, record_every, rng, _rwm_kernel)


def run_mala(init, p: Potential, sigma: float, steps: int,
             record_every: int = 1, *, rng: np.random.Generator):
    """Run a Langevin-adjusted chain at fixed proposal std sigma; laid out
    as :func:`run_chain`."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
    return _run_one(init, p, None, steps, record_every, rng, _mala_kernel, sigma)
