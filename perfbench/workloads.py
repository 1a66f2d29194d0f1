"""The benchmark workloads, built from a seed on the public API of mhscaling.

A workload runs in rounds.  A round is the unit whose wall time is ``run_s``:
one checked result.  It is made of operations (one strategy of the sweep, one
strategy of the ODE, one seed of the particle run); each operation passes or
fails its output check, and an operation that raises counts as failed.
Round ``k`` of seed ``s`` always gets the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks

# sweep-gaussian: the desk shape with every default strategy.  Four replicates
# keep a round near 3.5 s; the check's standard-error floor allows for that.
SWEEP_STRATEGIES = ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27", "ent")
SWEEP_N = 50
SWEEP_WINDOW = 500
SWEEP_T0_GRID = (0, 50, 100, 200, 400, 800)
SWEEP_REPLICATES = 4
SWEEP_START = 10.0

# ode-gaussian: three tuned strategies from a point mass at 10.
ODE_STRATEGIES = ("star", "alpha:0.27", "ent")
ODE_START = (10.0, 100.0)
ODE_DT = 1e-2
ODE_T_MAX = 60.0
ODE_STOP_TOL = 1e-4

# particles-double-well: N particles from N(2, 0.5^2) at a constant scale.
PARTICLES_N = 10_000
PARTICLES_DT = 1e-2
PARTICLES_STEPS = 1000
PARTICLES_ELL = 1.0
PARTICLES_INIT_MEAN = 2.0
PARTICLES_INIT_SD = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    work_per_round: float
    prepare: Callable  # seed -> context
    run_round: Callable  # (context, k) -> one problem (or None) per operation


def tally(outcomes) -> tuple[int, int, list]:
    """(attempted, failed, problems) over per-operation outcomes."""
    problems = [p for p in outcomes if p is not None]
    return len(outcomes), len(problems), problems


def round_seed(seed: int, k: int) -> int:
    """Seed of round k: a fixed function of the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# -- sweep-gaussian -------------------------------------------------------------


def _prepare_sweep(seed):
    from mhscaling import chains, experiments, targets

    targets.potential_by_name("gaussian")  # built once per process, cached
    strategies = tuple(chains.strategy_from_label(s) for s in SWEEP_STRATEGIES)
    config = experiments.ExperimentConfig(
        target="gaussian",
        n=SWEEP_N,
        window=SWEEP_WINDOW,
        t0_grid=SWEEP_T0_GRID,
        replicates=SWEEP_REPLICATES,
        strategies=strategies,
        init_kind="point",
        init_params=(SWEEP_START,),
        seed=seed,
    )
    return SimpleNamespace(seed=seed, config=config,
                           labels=[s.label() for s in strategies])


def _sweep_round(ctx, k):
    from mhscaling import experiments

    cfg = replace(ctx.config, seed=round_seed(ctx.seed, k))
    try:
        rows = experiments.square_bias_sweep(cfg, workers=1)
    except Exception as exc:  # every strategy of the sweep fails with it
        return [f"sweep raised {exc!r}"] * len(ctx.labels)
    return [
        checks.check_sweep_rows([r for r in rows if r.strategy == label], cfg.t0_grid)
        for label in ctx.labels
    ]


# -- ode-gaussian ---------------------------------------------------------------


def _prepare_ode(seed):
    from mhscaling import chains

    return SimpleNamespace(
        seed=seed,
        strategies=[(label, chains.strategy_from_label(label)) for label in ODE_STRATEGIES],
    )


def _ode_round(ctx, k):
    from mhscaling import limits

    problems = []
    for label, strategy in ctx.strategies:
        try:
            traj = limits.integrate_gaussian_ode(
                *ODE_START, strategy, dt=ODE_DT, t_max=ODE_T_MAX, stop_tol=ODE_STOP_TOL
            )
        except Exception as exc:  # the operation fails, the round goes on
            problems.append(f"{label} raised {exc!r}")
            continue
        problems.append(checks.check_ode(traj, label, ODE_STOP_TOL, ODE_T_MAX))
    return problems


# -- particles-double-well ----------------------------------------------------


def _prepare_particles(seed):
    from mhscaling import targets

    return SimpleNamespace(seed=seed, potential=targets.potential_by_name("double-well"))


def _particles_round(ctx, k):
    from mhscaling import chains, limits

    rng = chains.chain_rng(np.random.SeedSequence([ctx.seed, k]))
    init = PARTICLES_INIT_MEAN + PARTICLES_INIT_SD * rng.standard_normal(PARTICLES_N)
    try:
        ensemble = limits.make_ensemble(init, dt=PARTICLES_DT, rng=rng)
        _, ms, ss = limits.integrate_particles(
            ensemble, ctx.potential, PARTICLES_ELL,
            t_max=PARTICLES_STEPS * PARTICLES_DT, record_every=PARTICLES_STEPS,
        )
    except Exception as exc:  # the one operation of the round fails
        return [f"particle run raised {exc!r}"]
    return [checks.check_particles(ms, ss)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-gaussian",
            work_unit="chain-steps",
            work_per_round=float(len(SWEEP_STRATEGIES) * SWEEP_REPLICATES
                                 * (max(SWEEP_T0_GRID) + SWEEP_WINDOW)),
            prepare=_prepare_sweep,
            run_round=_sweep_round,
        ),
        Workload(
            name="ode-gaussian",
            work_unit="solves",
            work_per_round=float(len(ODE_STRATEGIES)),
            prepare=_prepare_ode,
            run_round=_ode_round,
        ),
        Workload(
            name="particles-double-well",
            work_unit="particle-updates",
            work_per_round=float(PARTICLES_N * PARTICLES_STEPS),
            prepare=_prepare_particles,
            run_round=_particles_round,
        ),
    )
}
