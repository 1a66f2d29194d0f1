"""Reproduction harness: square-bias sweeps and the relative-loss surface.

A sweep runs, for each strategy, a batch of independent chains started from
the same initial condition and reports how fast the time-averaged coordinate
moments approach their equilibrium values as the burn-in grows.  The
relative-loss surface compares the constant-acceptance rule against the
rate-optimal one across a grid of moment pairs.

Every (strategy, replicate) chain of a sweep is a row of one batch stepped
by :func:`mhscaling.chains.run_chains_moments` in this process; each row
draws only from its own generator, and aggregation is a deterministic
reduction ordered by replicate index, so runs with the same config (seed
included) are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .chains import chain_rng, run_chains_moments, strategy_from_label
# run_chain is not called here; it stays importable as experiments.run_chain,
# a name the per-layer trace of perfbench/ wraps
from .chains import run_chain  # noqa: F401
from .coefficients import f_rate
from .errors import DomainError
from .targets import (
    initial_coords,
    potential_by_name,
    start_params,
    stationary_coordinate_moments,
)
from .tuning import ell_alpha_ab, ell_star_ab

__all__ = [
    "ExperimentConfig",
    "BiasCurve",
    "desk_config",
    "paper_config",
    "estimator_s",
    "estimator_m",
    "aggregate_bias",
    "square_bias_sweep",
    "LossPoint",
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
        if self.window < 1:
            raise DomainError("window length T must be >= 1")
        if self.replicates < 2:
            raise DomainError("need at least 2 replicates")
        if not self.t0_grid:
            raise DomainError("t0 grid must not be empty")
        if list(self.t0_grid) != sorted(self.t0_grid):
            raise DomainError("t0 grid must be nondecreasing")
        if self.t0_grid[0] < 0:
            raise DomainError(f"burn-in t0 must be >= 0, got {self.t0_grid[0]}")
        if not self.strategies:
            raise DomainError("need at least one strategy")
        start_params(self.init_kind, self.init_params)
        labels = [s.label() for s in self.strategies]
        if len(set(labels)) < len(labels):
            # rows and output files are keyed by label
            raise DomainError(f"strategies must have distinct labels, got {labels}")

    def to_dict(self):
        return {
            "target": self.target,
            "n": self.n,
            "window": self.window,
            "t0_grid": list(self.t0_grid),
            "replicates": self.replicates,
            "strategies": [s.spec() for s in self.strategies],
            "init_kind": self.init_kind,
            "init_params": list(self.init_params),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d) -> ExperimentConfig:
        """The config :meth:`to_dict` wrote; a key with a default may be
        left out.  Anything malformed raises DomainError."""
        if not isinstance(d, dict):
            raise DomainError(f"config must be a JSON object, got {type(d).__name__}")
        d = {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **d}
        try:
            return cls(
                target=d["target"],
                n=int(d["n"]),
                window=int(d["window"]),
                t0_grid=tuple(int(v) for v in d["t0_grid"]),
                replicates=int(d["replicates"]),
                strategies=tuple(strategy_from_label(s) for s in d["strategies"]),
                init_kind=d["init_kind"],
                init_params=tuple(d["init_params"]),
                seed=int(d["seed"]),
            )
        except KeyError as exc:
            raise DomainError(f"config is missing the key {exc}") from None
        except (TypeError, ValueError) as exc:  # DomainError included
            raise DomainError(f"config: {exc}") from None


def _default_strategies(target: str):
    # the reference constant is the stationary-optimal 2.38 / sqrt(I); the
    # entropy rule only makes sense where the entropy has a closed form
    if target == "gaussian":
        return ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27", "ent")
    ell_const = 2.38 / math.sqrt(potential_by_name(target).i_fisher)
    return (f"constant:{ell_const:.6g}", "star", "alpha:0.27", "alpha-adaptive:0.27")


def desk_config(target="gaussian", seed=0, strategies=None) -> ExperimentConfig:
    """CI-scale defaults; orderings survive the scale-down, exact values do not."""
    if strategies is None:
        strategies = _default_strategies(target)
    return ExperimentConfig(
        target=target,
        n=50,
        window=500,
        t0_grid=(0, 50, 100, 200, 400, 800),
        replicates=50,
        strategies=tuple(strategy_from_label(s) for s in strategies),
        seed=seed,
    )


def paper_config(target="gaussian", seed=0, strategies=None) -> ExperimentConfig:
    """Full-size preset matching the published experiments (slow)."""
    if strategies is None:
        strategies = _default_strategies(target)
    return ExperimentConfig(
        target=target,
        n=100,
        window=1500,
        t0_grid=(0, 100, 250, 500, 1000, 2000, 4000),
        replicates=200,
        strategies=tuple(strategy_from_label(s) for s in strategies),
        seed=seed,
    )


def _window_mean(per_step, t0: int, window: int):
    per_step = np.asarray(per_step, dtype=float)
    if t0 < 0:  # a negative slice start would average the wrong window
        raise DomainError(f"burn-in t0 must be >= 0, got {t0}")
    if per_step.shape[-1] < t0 + window:
        raise DomainError(
            f"trajectory of length {per_step.shape[-1]} too short for t0={t0}, T={window}"
        )
    mean = per_step[..., t0 : t0 + window].mean(axis=-1)
    return float(mean) if mean.ndim == 0 else mean


def estimator_s(s_hat, t0: int, window: int):
    """Time-and-coordinate average of squared coordinates over (t0, t0+T].

    ``s_hat`` holds per-step values along its last axis, entry k - 1 for
    step k: one trajectory (a float is returned) or a (rows, steps) array
    (one value per row).
    """
    return _window_mean(s_hat, t0, window)


def estimator_m(m_hat, t0: int, window: int):
    """Time-and-coordinate average of coordinates over (t0, t0+T]; laid
    out as :func:`estimator_s`."""
    return _window_mean(m_hat, t0, window)


@dataclass(frozen=True)
class BiasCurve:
    t0: int
    sq_bias_s: float
    sq_bias_m: float
    stderr_s: float
    stderr_m: float
    strategy: str = ""


def aggregate_bias(samples_s, samples_m, ref_s, ref_m, t0: int = 0,
                   strategy: str = "") -> BiasCurve:
    """Squared bias of the replicate-averaged estimators, with delta-method
    standard errors from the replicate spread."""
    samples_s = np.asarray(samples_s, dtype=float)
    samples_m = np.asarray(samples_m, dtype=float)
    n_rep = samples_s.size
    mean_s, mean_m = float(samples_s.mean()), float(samples_m.mean())
    se_s = float(samples_s.std(ddof=1)) / math.sqrt(n_rep)
    se_m = float(samples_m.std(ddof=1)) / math.sqrt(n_rep)
    bias_s, bias_m = mean_s - ref_s, mean_m - ref_m
    return BiasCurve(
        t0=t0,
        sq_bias_s=bias_s**2,
        sq_bias_m=bias_m**2,
        stderr_s=2.0 * abs(bias_s) * se_s + se_s**2,
        stderr_m=2.0 * abs(bias_m) * se_m + se_m**2,
        strategy=strategy,
    )


def square_bias_sweep(cfg: ExperimentConfig, workers: int | None = None):
    """Run the full sweep; returns a list of BiasCurve rows.

    One chain of length max(t0) + T serves every burn-in value of a
    replicate (the per-t0 estimator laws are unchanged; only their coupling
    across t0 differs, which the bias and stderr do not see).  All chains
    run as one batch in this process; ``workers`` is accepted for
    compatibility and has no effect.

    Stream layout: the chain of strategy i and replicate r draws from a
    Philox generator on child i * R + r of SeedSequence(seed).spawn(S * R),
    first its start coordinates, then, each step, n normals and one uniform.
    """
    p = potential_by_name(cfg.target)
    ref_m, ref_s = stationary_coordinate_moments(p)
    per_strategy = cfg.replicates
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.strategies) * per_strategy)
    rngs = [chain_rng(child) for child in children]
    inits = [initial_coords(cfg.init_kind, cfg.init_params, cfg.n, p, rng) for rng in rngs]
    strategies = [s for s in cfg.strategies for _ in range(per_strategy)]
    steps = max(cfg.t0_grid) + cfg.window
    m_hat, s_hat = run_chains_moments(inits, p, strategies, steps, rngs=rngs)
    # (chain, t0) estimator values
    all_s = np.stack([estimator_s(s_hat, t0, cfg.window) for t0 in cfg.t0_grid], axis=1)
    all_m = np.stack([estimator_m(m_hat, t0, cfg.window) for t0 in cfg.t0_grid], axis=1)
    curves = []
    for i, strategy in enumerate(cfg.strategies):
        block = slice(i * per_strategy, (i + 1) * per_strategy)
        for j, t0 in enumerate(cfg.t0_grid):
            curves.append(
                aggregate_bias(
                    all_s[block, j],
                    all_m[block, j],
                    ref_s,
                    ref_m,
                    t0=t0,
                    strategy=strategy.label(),
                )
            )
    return curves


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
                if a < 0 or b <= 0 or not 0 < alpha < 1:
                    raise DomainError(
                        f"need a >= 0, b > 0, alpha in (0,1); got {(a, b, alpha)}"
                    )
                a, b, alpha = float(a), float(b), float(alpha)
                best = f_rate(a, b, ell_star_ab(a, b).ell)
                matched = f_rate(a, b, ell_alpha_ab(max(a, 1e-12), b, alpha).ell)
                rows.append(
                    LossPoint(alpha=alpha, b=b, a=a, loss=(best - matched) / best)
                )
    return rows


def mean_relative_loss(rows) -> dict:
    """Average loss per alpha over the swept (a, b) grid."""
    sums: dict = {}
    counts: dict = {}
    for row in rows:
        sums[row.alpha] = sums.get(row.alpha, 0.0) + row.loss
        counts[row.alpha] = counts.get(row.alpha, 0) + 1
    return {alpha: sums[alpha] / counts[alpha] for alpha in sums}
