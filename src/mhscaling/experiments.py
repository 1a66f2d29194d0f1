"""Reproduction harness: square-bias sweeps and the relative-loss surface.

A sweep runs, for each strategy, a batch of independent chains started from
the same initial condition and reports how fast the time-averaged coordinate
moments approach their equilibrium values as the burn-in grows.  The
relative-loss surface compares the constant-acceptance rule against the
rate-optimal one across a grid of moment pairs.

Replicates are embarrassingly parallel and scheduled on a process pool;
aggregation is a deterministic reduction ordered by replicate index, so runs
with the same config (seed included) are byte-identical.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chains import chain_rng, run_chain, strategy_from_label
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
        if list(self.t0_grid) != sorted(self.t0_grid):
            raise DomainError("t0 grid must be nondecreasing")
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


def estimator_s(records, t0: int, window: int) -> float:
    """Time-and-coordinate average of squared coordinates over (t0, t0+T]."""
    if len(records) < t0 + window:
        raise DomainError(
            f"trajectory of length {len(records)} too short for t0={t0}, T={window}"
        )
    return float(np.mean([r.s_hat for r in records[t0 : t0 + window]]))


def estimator_m(records, t0: int, window: int) -> float:
    """Time-and-coordinate average of coordinates over (t0, t0+T]."""
    if len(records) < t0 + window:
        raise DomainError(
            f"trajectory of length {len(records)} too short for t0={t0}, T={window}"
        )
    return float(np.mean([r.m_hat for r in records[t0 : t0 + window]]))


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


def _replicate_estimates(args):
    """One chain; returns the estimator values at every burn-in."""
    cfg, strategy, seed_seq = args
    p = potential_by_name(cfg.target)
    rng = chain_rng(seed_seq)
    coords = initial_coords(cfg.init_kind, cfg.init_params, cfg.n, p, rng)
    steps = max(cfg.t0_grid) + cfg.window
    records, _ = run_chain(coords, p, strategy, steps=steps, record_every=1, rng=rng)
    est_s = [estimator_s(records, t0, cfg.window) for t0 in cfg.t0_grid]
    est_m = [estimator_m(records, t0, cfg.window) for t0 in cfg.t0_grid]
    return est_s, est_m


def square_bias_sweep(cfg: ExperimentConfig, workers: int | None = None):
    """Run the full sweep; returns a list of BiasCurve rows.

    One chain of length max(t0) + T serves every burn-in value of a
    replicate (the per-t0 estimator laws are unchanged; only their coupling
    across t0 differs, which the bias and stderr do not see).
    """
    p = potential_by_name(cfg.target)
    ref_m, ref_s = stationary_coordinate_moments(p)
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(len(cfg.strategies) * cfg.replicates)
    jobs = []
    for i, strategy in enumerate(cfg.strategies):
        for r in range(cfg.replicates):
            jobs.append((cfg, strategy, children[i * cfg.replicates + r]))

    if workers is None:
        workers = os.cpu_count() or 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_estimates, jobs, chunksize=1))
    else:
        results = [_replicate_estimates(job) for job in jobs]

    curves = []
    per_strategy = cfg.replicates
    for i, strategy in enumerate(cfg.strategies):
        block = results[i * per_strategy : (i + 1) * per_strategy]
        all_s = np.array([est_s for est_s, _ in block])
        all_m = np.array([est_m for _, est_m in block])
        for j, t0 in enumerate(cfg.t0_grid):
            curves.append(
                aggregate_bias(
                    all_s[:, j],
                    all_m[:, j],
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
