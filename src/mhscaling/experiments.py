"""Reproduction harness: square-bias sweeps and the relative-loss surface.

A sweep runs, for each strategy, a batch of independent chains started from
the same initial condition and reports how fast the time-averaged coordinate
moments approach their equilibrium values as the burn-in grows.  The
relative-loss surface compares the constant-acceptance rule against the
rate-optimal one across a grid of moment pairs.

Every (strategy, replicate) chain of a sweep is a row of one batch stepped
by :func:`mhscaling.chains.run_chains_moments` in this process; each row
draws only from its own generator.  The statistics are one array pass:
:func:`window_mean` gives each chain's estimate at each burn-in, and one
:func:`square_bias` call reduces the (moment, strategy, t0, replicate)
stack over its contiguous replicate axis, a deterministic reduction, so
runs with the same config (seed included) are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .chains import chain_rng, run_chains_moments, strategy_from_label
# run_chain is not called here; it stays importable as experiments.run_chain,
# a name the per-layer trace of perfbench/ wraps
from .chains import run_chain  # noqa: F401
from .coefficients import _check_count, f_rate
from .errors import DomainError
from .targets import (
    check_target_name,
    initial_coords,
    potential_by_name,
    start_params,
    stationary_coordinate_moments,
)
from .tuning import ell_alpha_ab, ell_star_ab

__all__ = [
    "ExperimentConfig",
    "BiasCurve",
    "PRESETS",
    "preset_config",
    "window_mean",
    "square_bias",
    "square_bias_sweep",
    "LossPoint",
    "robustness_grid",
    "relative_loss_surface",
    "mean_relative_loss",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved description of a square-bias experiment."""

    target: str
    n: int
    window: int
    t0_grid: tuple
    replicates: int
    strategies: tuple
    init_kind: str = "point"
    init_params: tuple = (10.0,)
    seed: int = 0

    def __post_init__(self):
        # the counts as checked ints, however given: numpy fails deep in a sweep
        for name, least in (("n", 1), ("window", 1), ("replicates", 2), ("seed", 0)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), least))
        if not np.iterable(self.t0_grid):
            raise DomainError(f"t0 grid must be a sequence of burn-ins, got {self.t0_grid!r}")
        object.__setattr__(self, "t0_grid",
                           tuple(_check_count("burn-in t0", v) for v in self.t0_grid))
        check_target_name(self.target)
        if not self.t0_grid:
            raise DomainError("t0 grid must not be empty")
        if list(self.t0_grid) != sorted(self.t0_grid):
            raise DomainError("t0 grid must be nondecreasing")
        if not self.strategies:
            raise DomainError("need at least one strategy")
        start_params(self.init_kind, self.init_params)
        labels = [s.label() for s in self.strategies]
        if len(set(labels)) < len(labels):
            # rows and output files are keyed by label
            raise DomainError(f"strategies must have distinct labels, got {labels}")

    def to_dict(self):
        """The fields as JSON values, in field order; strategies as specs."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**d, "t0_grid": list(self.t0_grid), "init_params": list(self.init_params),
                "strategies": [s.spec() for s in self.strategies]}

    @classmethod
    def from_dict(cls, d) -> ExperimentConfig:
        """The config :meth:`to_dict` wrote; a key with a default may be
        left out.  Anything malformed, a misspelled key included, raises
        DomainError."""
        if not isinstance(d, dict):
            raise DomainError(f"config must be a JSON object, got {type(d).__name__}")
        if unknown := sorted(set(d) - {f.name for f in fields(cls)}):
            raise DomainError(f"config has unknown keys {unknown}")
        d = {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **d}
        try:
            values = {f.name: d[f.name] for f in fields(cls)}
            values["strategies"] = tuple(map(strategy_from_label, values["strategies"]))
            values["init_params"] = tuple(values["init_params"])
            return cls(**values)
        except KeyError as exc:
            raise DomainError(f"config is missing the key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # DomainError included
            raise DomainError(f"config: {exc}") from None


def _default_strategies(target: str):
    # the reference constant is the stationary-optimal 2.38 / sqrt(I); the
    # entropy rule only makes sense where the entropy has a closed form
    if target == "gaussian":
        return ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27", "ent")
    ell_const = 2.38 / math.sqrt(potential_by_name(target).i_fisher)
    return (f"constant:{ell_const:.6g}", "star", "alpha:0.27", "alpha-adaptive:0.27")


# The built-in sweep shapes, in the form a --config file takes; a preset adds
# the target, the seed and the target's default strategies.
PRESETS = {
    "desk": {"n": 50, "window": 500, "t0_grid": (0, 50, 100, 200, 400, 800), "replicates": 50},
    "paper": {"n": 100, "window": 1500, "t0_grid": (0, 100, 250, 500, 1000, 2000, 4000),
              "replicates": 200},
}


def preset_config(name: str, target="gaussian", seed=0) -> ExperimentConfig:
    """The sweep of ``PRESETS[name]`` on ``target``, read as a config file is.  ``desk``
    is CI-scale (orderings survive, exact values do not); ``paper`` is full size (slow)."""
    return ExperimentConfig.from_dict({**PRESETS[name], "target": target, "seed": seed,
                                       "strategies": _default_strategies(target)})


def window_mean(per_step, t0: int, window: int):
    """Average over steps (t0, t0+T]: over ``s_hat`` the estimator of the
    second moment, over ``m_hat`` that of the mean.

    ``per_step`` holds entry k - 1 for step k along its last axis: one
    trajectory (a float is returned) or a (rows, steps) array (one per row).
    """
    per_step = np.asarray(per_step, dtype=float)
    # a negative slice start would average the wrong window, an empty window
    # gives nan and a negative one the wrong steps
    t0, window = _check_count("burn-in t0", t0), _check_count("window length T", window, 1)
    if per_step.shape[-1] < t0 + window:
        raise DomainError(f"{per_step.shape[-1]} steps are too few for t0={t0}, T={window}")
    mean = per_step[..., t0 : t0 + window].mean(axis=-1)
    return float(mean) if mean.ndim == 0 else mean


def square_bias(samples, ref):
    """Squared bias b^2 of the replicate mean against ``ref``, and its
    delta-method standard error 2|b| se + se^2 (se: replicate spread / sqrt R).

    Replicates lie along the last axis; both are arrays over the leading axes.
    """
    samples = np.asarray(samples, dtype=float)
    # one replicate has no spread to give an error from
    n_rep = _check_count("replicates", samples.shape[-1] if samples.ndim else 1, 2)
    bias = samples.mean(axis=-1) - ref
    se = samples.std(axis=-1, ddof=1) / math.sqrt(n_rep)
    return bias * bias, 2.0 * np.abs(bias) * se + se * se


@dataclass(frozen=True)
class BiasCurve:
    t0: int
    sq_bias_s: float
    sq_bias_m: float
    stderr_s: float
    stderr_m: float
    strategy: str = ""


def square_bias_sweep(cfg: ExperimentConfig, workers: int | None = None):
    """Run the full sweep; returns a list of BiasCurve rows, strategy-major.

    One chain of length max(t0) + T serves every burn-in value of a
    replicate (the per-t0 estimator laws are unchanged; only their coupling
    across t0 differs, which the bias and stderr do not see).  All chains
    run as one batch in this process.  ``workers`` has no effect; it stays
    accepted because perfbench's sweep round and acceptance criterion 07
    pass it.

    Stream layout 2: the chain of strategy i and replicate r draws from a
    Philox generator on child i * R + r of SeedSequence(seed).spawn(S * R),
    first its start coordinates, then, each step, n + 1 normals: n for the
    proposal and one whose Phi is the uniform that decides.  The chains draw
    them in blocks of many steps; the bits do not depend on the block size.
    """
    p = potential_by_name(cfg.target)
    ref_m, ref_s = stationary_coordinate_moments(p)
    shape = (len(cfg.strategies), cfg.replicates)
    children = np.random.SeedSequence(cfg.seed).spawn(shape[0] * shape[1])
    rngs = [chain_rng(child) for child in children]
    inits = [initial_coords(cfg.init_kind, cfg.init_params, cfg.n, p, rng) for rng in rngs]
    strategies = [s for s in cfg.strategies for _ in range(cfg.replicates)]
    steps = max(cfg.t0_grid) + cfg.window
    m_hat, s_hat = run_chains_moments(inits, p, strategies, steps, rngs=rngs)
    # estimates[k, i, j, r]: moment k (s, then m), strategy i, burn-in t0_grid[j], replicate r
    estimates = np.stack([
        np.stack([window_mean(x, t0, cfg.window).reshape(shape) for t0 in cfg.t0_grid], axis=1)
        for x in (s_hat, m_hat)
    ])
    sq, se = (a.tolist() for a in square_bias(estimates, np.reshape((ref_s, ref_m), (2, 1, 1))))
    return [BiasCurve(t0, sq[0][i][j], sq[1][i][j], se[0][i][j], se[1][i][j], strategy.label())
            for i, strategy in enumerate(cfg.strategies) for j, t0 in enumerate(cfg.t0_grid)]


@dataclass(frozen=True)
class LossPoint:
    alpha: float
    b: float
    a: float
    loss: float


def robustness_grid():
    """Default comparison grid: linear a in [0.01, 100], b in {0.1, 1, 10}.

    Linear spacing weights the far-from-equilibrium side (large a/b), which
    is the transient regime the comparison is about; with log spacing the
    near-equilibrium decades dominate the mean and wash the ranking out.
    """
    return (0.1, 1.0, 10.0), tuple(np.linspace(0.01, 100.0, 61)), (0.27, 0.35, 0.37)


def relative_loss_surface(b_values, a_grid, alphas):
    """Relative entropy-rate loss of acceptance matching vs rate-optimal.

    For each (alpha, b, a): (F(a,b,l*) - F(a,b,l^alpha)) / F(a,b,l*) with
    l* the rate-optimal and l^alpha the acceptance-matched scale.  Entries
    lie in [0, 1) by maximality of l*.
    """
    rows = []
    for alpha in alphas:
        for b in b_values:
            for a in a_grid:
                a, b, alpha = float(a), float(b), float(alpha)
                best = ell_star_ab(a, b).objective_value
                matched = f_rate(a, b, ell_alpha_ab(a, b, alpha).ell)
                rows.append(
                    LossPoint(alpha=alpha, b=b, a=a, loss=(best - matched) / best)
                )
    return rows


def mean_relative_loss(rows) -> dict:
    """Average loss per alpha over the swept (a, b) grid."""
    losses: dict = {}
    for row in rows:
        losses.setdefault(row.alpha, []).append(row.loss)
    return {alpha: sum(values) / len(values) for alpha, values in losses.items()}
