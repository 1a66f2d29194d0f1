"""Finite-dimensional Metropolis chain simulators.

The random walk chain moves all n coordinates with one shared accept/reject
decision per step, the proposal standard deviation being ``ell / sqrt(n)``
with ``ell`` supplied by a pluggable :class:`Strategy`; the Langevin-adjusted
chain uses a drift-corrected proposal with the acceptance exponent written
out explicitly.

Every chain is a row of a batch: an ``(R, n)`` array stepped by one kernel
per chain kind.  A kernel chooses its scale, builds the proposal and its
log acceptance ratio; the batch draws the normals, decides, moves the
accepted rows and counts the step, all on arrays: only a block's draws and
the scale at a new point are taken row by row.  A kernel returns its
step's record in :class:`StepRecord` order, one (R,) array per field, the
moments being those of the point the step starts from.  One loop steps
every batch and keeps chosen fields of every record_every-th record: all
of them for :func:`run_chains`, m_hat and s_hat for
:func:`run_chains_moments`; :func:`run_chain` and :func:`run_mala` read a
batch of one back as StepRecords, so a chain's state lives only in its
batch.

RNG discipline (stream layout 2): each chain, or row, owns one counter-based
generator (Philox) seeded from a master seed; replicate independence comes
from spawned seed sequences.  A step takes n + 1 normals from it: the first
n, coordinate i at position i, for the proposal, and the last, z, for the
uniform Phi(z) that decides.  ``_Batch.normals`` draws them K steps at a
time and ``_Batch.decide`` decides every row at once, which fixes the
layout for every kind of chain.  On Philox a (K, n + 1) block equals K
draws of n + 1 bit for bit and a block stops at the last step, so the bits
do not depend on K and a run leaves its generator steps * (n + 1) normals
on.  A row's stream does not depend on the other rows of its batch.
Potentials and strategies are immutable and shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
from scipy.special import ndtr

from . import tuning  # noqa: F401  (not called: perfbench/'s trace replaces chains.tuning)
from .coefficients import _check_count, _check_ell
from .errors import ConcaveRegionError, DomainError
from .targets import Potential, _moment_means
from .tuning import _check_alpha, _ell_alpha_ab, _ell_star_ab, _solve_ent

__all__ = [
    "STREAM_LAYOUT",
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

# A spread s - m^2 this small is a point start, where the entropy rule has
# no root and falls back to the rate-optimal scale.
_S_FLOOR = 1e-12

# The module docstring's stream layout, recorded in run manifests; layout 1
# drew n normals, then one uniform, a step at a time.  _Batch sizes its
# blocks of draws from these two (see its docstring).
STREAM_LAYOUT, _BLOCK, _MIN_BLOCK_STEPS = 2, 2**17, 32


@dataclass(frozen=True)
class Strategy:
    """Base class for step-scale strategies.

    A rule declares its ``kind``, its one field if it takes an argument, and
    its ``label_format``; from these this class makes two of its three jobs:
    ``spec()``, its lossless text form (``kind`` plus the field values, read
    back by :func:`strategy_from_label`), and ``label()``, its short name in
    file names and row tags (``label_format`` filled with the field values).
    The third, ``scale()``, the step constant it prescribes, is the one
    method each rule writes; the field's own check is its ``__post_init__``.
    """

    kind: ClassVar[str] = ""
    label_format: ClassVar[str] = ""

    def spec(self) -> str:
        values = (repr(float(getattr(self, f.name))) for f in fields(self))
        return ":".join([self.kind, *values])

    def label(self) -> str:
        return self.label_format.format(*(getattr(self, f.name) for f in fields(self)))

    def scale(self, a, b, m, s) -> float:
        """Step constant ell for the moments a = mean V'^2, b = mean V'',
        mean m and second moment s of the coordinates."""
        raise NotImplementedError


def _capped(solve, *args) -> float:
    # nonpositive curvature: the numeric rules have no finite optimum there
    try:
        return solve(*args)
    except ConcaveRegionError:
        return DEFAULT_ELL_CAP


@dataclass(frozen=True)
class ConstantEll(Strategy):
    kind: ClassVar[str] = "constant"
    label_format: ClassVar[str] = "constant-{:g}"
    ell: float = 2.38

    def __post_init__(self):
        _check_ell(self.ell)

    def scale(self, a, b, m, s) -> float:
        return self.ell


@dataclass(frozen=True)
class _AcceptanceTarget(Strategy):
    # the rules that hold the acceptance rate at a target alpha
    alpha: float = 0.27

    def __post_init__(self):
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class ConstantAccNumeric(_AcceptanceTarget):
    """Solve the limiting acceptance curve for a target rate each step."""

    kind: ClassVar[str] = "alpha"
    label_format: ClassVar[str] = "acc-{:g}-numeric"

    def scale(self, a, b, m, s) -> float:
        return _capped(_ell_alpha_ab, a, b, self.alpha)


@dataclass(frozen=True)
class ConstantAccAdaptive(_AcceptanceTarget):
    """Track a target acceptance rate by stochastic approximation.

    The log proposal standard deviation theta starts at log(2.38 / sqrt(n))
    and after the k-th step (k = 1, 2, ...) moves by
    k**-0.6 * (alpha_k - alpha), alpha_k being the computed acceptance
    probability of that step (see :func:`adaptive_update`).  The scale
    exp(theta) sqrt(n) is the chain's own state, kept by the random walk
    kernel, so the rule has no deterministic-limit counterpart and
    ``scale`` refuses.
    """

    kind: ClassVar[str] = "alpha-adaptive"
    label_format: ClassVar[str] = "acc-{:g}-adaptive"

    def scale(self, a, b, m, s) -> float:
        raise DomainError("the adaptive strategy needs a chain's current theta; it has no "
                          "deterministic-limit counterpart")


@dataclass(frozen=True)
class RateOptimal(Strategy):
    """Maximize the entropy production rate given the current moments."""

    kind: ClassVar[str] = "star"
    label_format: ClassVar[str] = "rate-optimal"

    def scale(self, a, b, m, s) -> float:
        return _capped(_ell_star_ab, a, b)


@dataclass(frozen=True)
class EntropyOptimalGaussian(Strategy):
    """Minimize the Gaussian entropy derivative (Gaussian targets only)."""

    kind: ClassVar[str] = "ent"
    label_format: ClassVar[str] = "entropy-gaussian"

    def scale(self, a, b, m, s) -> float:
        if s > m * m + _S_FLOOR:
            return _solve_ent(m, s)[0]
        # degenerate spread (e.g. a point start): fall back to the
        # rate-optimal value
        return _capped(_ell_star_ab, a, b)


_KINDS = {cls.kind: cls for cls in (ConstantEll, ConstantAccNumeric, ConstantAccAdaptive,
                                    RateOptimal, EntropyOptimalGaussian)}
# the spec grammar, "constant[:ell] | alpha[:alpha] | ...", for refusals and help
_SPEC_USAGE = " | ".join(kind + "".join(f"[:{f.name}]" for f in fields(cls))
                         for kind, cls in _KINDS.items())


def strategy_from_label(text: str) -> Strategy:
    """Parse a strategy spec such as 'constant:2.38', 'alpha:0.27' or 'star'.

    The inverse of :meth:`Strategy.spec`; an omitted argument takes the
    field's default.  An argument that is a number is checked by the class
    alone.
    """
    kind, _, arg = text.partition(":")
    cls = _KINDS.get(kind)
    if cls is None:
        raise DomainError(f"unknown strategy {text!r}; expected {_SPEC_USAGE}")
    if not arg:
        return cls()
    if not fields(cls):
        raise DomainError(f"strategy {kind!r} takes no argument, got {text!r}")
    try:
        value = float(arg)
    except ValueError:
        raise DomainError(f"strategy {text!r}: {arg!r} is not a number") from None
    return cls(value)


@dataclass(frozen=True)
class StepRecord:
    """Step k of a chain; the fields after k, in order, are a kernel's record."""

    k: int
    ell_used: float
    accepted: bool
    acc_prob: float
    a_hat: float
    b_hat: float
    m_hat: float
    s_hat: float


@dataclass(frozen=True)
class ChainRuns:
    """What :func:`run_chains` records: per-step (R, steps) arrays named and
    ordered as the fields of :class:`StepRecord` after k, column k - 1
    holding step k, then each chain's final point and theta."""

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
    if not isinstance(seed, np.random.SeedSequence):  # None would draw OS entropy
        seed = ([_check_count("seed", s) for s in seed] if np.iterable(seed)
                else _check_count("seed", seed))
    return np.random.Generator(np.random.Philox(seed))


def adaptive_update(theta, acc_prob, alpha_target, k):
    """One stochastic-approximation step on the log proposal scale.

    theta_{k+1} = theta_k + (k + 1)**-0.6 * (acc_prob - alpha_target); the
    proposal standard deviation at the next step is exp(theta_{k+1}).  Floats
    or arrays, element by element the same bits.
    """
    return theta + float(k + 1) ** -0.6 * (acc_prob - alpha_target)


class _Batch:
    """R chains in dimension n under one potential, stepped together.

    Row r starts at ``inits[r]`` and has its own generator ``rngs[r]`` and
    strategy ``strategies[r]``; the rows ``adaptive`` hold ``thetas``
    (log(2.38 / sqrt(n)) from construction) and targets ``alphas``.  ``x``
    is the batch's own copy of the starts.  The summary of row r's current
    point is ``sum_v[r]``, the sum of V, ``d1[r]``, V', and the column
    ``moments[:, r]``, holding a_hat = mean V'^2, b_hat = mean V'', m_hat =
    mean x and s_hat = mean x^2.  Each row is reduced as np.sum and np.mean
    reduce it alone, so a row's values do not depend on the other rows.
    ``ell[r]`` is row r's scale, to be chosen before the next step on the
    rows ``stale``.  An accepted step writes its rows into ``x``, ``sum_v``
    and ``d1`` (a copy: ``p.d1`` may return its argument) in place, and
    rebinds ``moments`` to a fresh array.  All rows have made ``k`` of the
    ``steps`` steps the batch draws for.

    The draws come in blocks of K steps: K = _BLOCK // (R (n + 1)), the
    steps that fit in 1 MiB of doubles, raised toward _MIN_BLOCK_STEPS = 32
    within a cap of 32 MiB; at least 1 and at most the steps left.  The
    paper shape (R = 1,000, n = 100) draws 32 steps, 25.9 MB, at a time.
    The bits do not depend on K.
    """

    def __init__(self, p: Potential, inits, rngs, strategies, steps: int):
        x = np.array(inits, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise DomainError(
                f"initial states must be R rows of n coordinates, R, n >= 1, got shape {x.shape}"
            )
        steps = _check_count("steps", steps, 0, _MAX_STEPS)
        if not len(strategies) == len(rngs) == len(x):
            raise DomainError(
                f"need one strategy and one generator per chain: {len(x)} chains, "
                f"{len(strategies)} strategies, {len(rngs)} generators"
            )
        if p.name != "gaussian" and any(isinstance(s, EntropyOptimalGaussian)
                                        for s in strategies):
            raise DomainError(f"strategy 'ent' is for the Gaussian target, not {p.name!r}")
        self.p, self.x, self.k, self.steps = p, x, 0, steps
        self.rngs, self.strategies = list(rngs), list(strategies)
        adaptive = np.array([isinstance(s, ConstantAccAdaptive) for s in self.strategies])
        self.adaptive, self.stale = adaptive.nonzero()[0], (~adaptive).nonzero()[0]
        # tuned rows choose a scale at each new point
        self.tuned = ~adaptive & [not isinstance(s, ConstantEll) for s in self.strategies]
        self.thetas = np.full(self.adaptive.size, math.log(2.38 / math.sqrt(x.shape[1])))
        self.alphas = np.array([self.strategies[r].alpha for r in self.adaptive.tolist()])
        self.ell = np.full(len(x), math.nan)
        # step k + 1 takes column k % K of the block of draws at the front of _buf
        per_step = len(x) * (x.shape[1] + 1)
        block = min(max(_BLOCK // per_step, _MIN_BLOCK_STEPS),
                    _MIN_BLOCK_STEPS * _BLOCK // per_step)
        self._buf = np.empty((len(x), min(steps, max(1, block)), x.shape[1] + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            self.sum_v = np.add.reduce(p.eval_v(x), axis=-1)
            self.d1 = np.array(p.d1(x), dtype=float)
            self.moments = _moment_means(p, x, self.d1, x, x * x)
        if not (np.all(np.isfinite(self.sum_v)) and np.all(np.isfinite(self.moments[0]))):
            raise DomainError("sum of V or mean V'^2 is not finite at the chain's state")

    def normals(self) -> np.ndarray:
        """Each row's n proposal normals for step k + 1, from (K, n + 1)
        blocks of its own generator's normals (K as in the class docstring)."""
        at = self.k % self._buf.shape[1]
        if not at:
            block = self._buf[:, :min(self.steps - self.k, self._buf.shape[1])]
            for rng, rows in zip(self.rngs, block):
                rng.standard_normal(rows.shape, out=rows)
            self._uniforms = ndtr(block[:, :, -1])
        return self._buf[:, at, :-1]

    def decide(self, log_ratio: np.ndarray, proposal: np.ndarray, sum_v: np.ndarray,
               d1: np.ndarray | None = None):
        """Close a step: row r accepts its proposal with probability
        exp(log_ratio[r]) ^ 1, against the uniform of its step's draws; the
        accepted rows move (reusing sum_v, each proposal's sum of V, and,
        when the step has it, V'(proposal)) and the step is counted.
        Returns the step's record after ell_used: the rows' accepted and
        acc_prob, then the moments of the points the step started from (a
        move rebinds ``moments``)."""
        acc_prob = np.exp(np.minimum(log_ratio, 0.0))
        accepted = self._uniforms[:, self.k % self._buf.shape[1]] <= acc_prob
        self.k += 1
        here, rows = self.moments, accepted.nonzero()[0]
        if rows.size:
            if rows.size == accepted.size:
                rows = slice(None)  # every row: views, not copies
            proposal, sum_v = proposal[rows], sum_v[rows]
            d1 = self.p.d1(proposal) if d1 is None else d1[rows]
            self.x[rows] = proposal
            self.sum_v[rows] = sum_v
            self.d1[rows] = d1
            self.moments = here.copy()
            self.moments[:, rows] = _moment_means(self.p, proposal, d1,
                                                  proposal, proposal * proposal)
        return (accepted, acc_prob, *here)


def _rwm_kernel(batch: _Batch):
    """One random walk Metropolis step of every row of ``batch``.

    Row r proposes x_r + (ell_r / sqrt(n)) G_r with its step's normals G_r
    and accepts with probability exp(sum V(x_r) - sum V(y_r)) ^ 1 against
    its step's uniform (V = inf is a plain rejection).  ell_r is the scale
    at x_r: exp(theta_r) sqrt(n) on an adaptive row, every step; on a
    constant row the strategy's, once; on the others the strategy's, at
    each new point.  Those calls and the adaptive scales are the only
    row-by-row work, so each row's bits are those of a chain stepped alone.
    Returns the step's record of every row, (R,) arrays in the order of the
    :class:`StepRecord` fields after k.
    """
    n, ell, stale = batch.x.shape[1], batch.ell, batch.stale
    root_n = math.sqrt(n)
    for r, here in zip(stale.tolist(), batch.moments.take(stale, 1).T.tolist()):
        ell[r] = batch.strategies[r].scale(*here)
    for r, theta in zip(batch.adaptive.tolist(), batch.thetas.tolist()):
        ell[r] = math.exp(theta) * root_n
    ell_used = ell.copy()

    proposal = batch.x + (ell_used / root_n)[:, None] * batch.normals()
    sum_v = np.add.reduce(batch.p.eval_v(proposal), axis=-1)
    k = batch.k  # theta_k moves with the index of the step it closes
    record = (ell_used, *batch.decide(batch.sum_v - sum_v, proposal, sum_v))
    if batch.adaptive.size:
        batch.thetas = adaptive_update(batch.thetas, record[2][batch.adaptive], batch.alphas, k)
    batch.stale = (record[1] & batch.tuned).nonzero()[0]
    return record


def _mala_kernel(batch: _Batch, sigma: float):
    """One Langevin-adjusted step, proposal std sigma, of every row of ``batch``.

    A row proposes y = x + sigma g - (sigma^2 / 2) V'(x) and accepts with
    probability exp(E) ^ 1, E being the explicit form
    sum_i [ V(x_i) - V(y_i)
            + ((g_i)^2 - (g_i - (sigma/2)(V'(x_i) + V'(y_i)))^2) / 2 ];
    its equivalence with the density-ratio form is covered by tests rather
    than assumed.  The draws and the decision are those of
    :func:`_rwm_kernel`, and so is the record returned, with ell = sigma.
    """
    d1_here, noise = batch.d1, batch.normals()
    proposal = batch.x + (sigma * noise - 0.5 * sigma * sigma * d1_here)
    d1 = batch.p.d1(proposal)  # an overflow is a plain rejection
    reverse = noise - 0.5 * sigma * (d1_here + d1)
    sum_v = np.add.reduce(batch.p.eval_v(proposal), axis=-1)
    exponent = batch.sum_v - sum_v + 0.5 * (np.add.reduce(noise * noise, axis=-1)
                                            - np.add.reduce(reverse * reverse, axis=-1))
    return (np.full(exponent.shape, sigma), *batch.decide(exponent, proposal, sum_v, d1))


def rwm_step(coords, p: Potential, strategy: Strategy, *, rng: np.random.Generator):
    """One random walk Metropolis step from ``coords``: a one-step
    :func:`run_chain`, returning the new coords and the step's record.  The
    package does not call it; ``perfbench/tracing.py`` wraps it."""
    (record,), coords = run_chain(coords, p, strategy, 1, rng=rng)
    return coords, record


_FIELDS = tuple(f.name for f in fields(StepRecord))[1:]  # a kernel's record, in order


def _run(batch: _Batch, kernel, *args, names=_FIELDS, every: int = 1) -> list:
    """Step ``batch`` to its last step by ``kernel`` (given ``args``): the
    one loop over chain steps.  Keeps the fields ``names`` of every
    ``every``-th step's record, as (R, steps // every) arrays in that order,
    column j holding step (j + 1) * every.  Floating-point overflow is
    silent throughout: in the kernels a proposal whose V overflows is a
    plain rejection."""
    picks = [_FIELDS.index(name) for name in names]
    out = [np.empty((len(batch.x), batch.steps // every), bool if name == "accepted" else float)
           for name in names]
    by_step = [column.T for column in out]  # by_step[i][j] is column j of out[i]
    with np.errstate(over="ignore"):
        for k in range(1, batch.steps + 1):
            record = kernel(batch, *args)
            if k % every == 0:
                for column, i in zip(by_step, picks):
                    column[k // every - 1] = record[i]
    return out


def run_chains(inits, p: Potential, strategies, steps: int, *, rngs) -> ChainRuns:
    """Run R random walk chains as one batch; deterministic for given
    generator states.

    Chain r starts at ``inits[r]`` (all of one dimension n), moves by
    ``strategies[r]`` and draws only from ``rngs[r]``: each step n + 1
    normals, the last one's Phi being the uniform that decides (stream
    layout 2).  Its records are bit for bit those of :func:`run_chain` on
    the same generator, whatever the other rows do or the block size.
    """
    batch = _Batch(p, inits, rngs, strategies, steps)
    records = _run(batch, _rwm_kernel)
    thetas = dict(zip(batch.adaptive.tolist(), batch.thetas.tolist()))
    return ChainRuns(*records, coords=batch.x, theta=[thetas.get(r) for r in range(len(batch.x))])


def run_chains_moments(inits, p: Potential, strategies, steps: int, *, rngs):
    """The per-step (R, steps) ``m_hat`` and ``s_hat`` arrays of
    :func:`run_chains`, bit for bit: all a square-bias sweep reads, in two
    sevenths of the memory."""
    batch = _Batch(p, inits, rngs, strategies, steps)
    return tuple(_run(batch, _rwm_kernel, names=("m_hat", "s_hat")))


def _run_one(init, p, strategy, steps, record_every, rng, kernel, *args):
    # ``steps`` kernel steps of the chain from ``init``, as a batch of one;
    # returns a StepRecord for every record_every-th step, and the end point
    every = _check_count("record_every", record_every, 1)
    batch = _Batch(p, np.reshape(init, (1, -1)), [rng], [strategy], steps)
    rows = zip(*(column[0].tolist() for column in _run(batch, kernel, *args, every=every)))
    return [StepRecord(every * j, *row) for j, row in enumerate(rows, 1)], batch.x[0]


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
    _check_ell(sigma, "sigma")
    return _run_one(init, p, None, steps, record_every, rng, _mala_kernel, sigma)
