"""Recompute the references that perfbench/checks.py records.

    python3 perfbench/calibrate.py

Prints the ODE reach times at dt = 1e-3 (ten times finer than the workload)
and the mean and seed-to-seed spread of the particle run's final (m, s) over
40 seeds.  Takes about a minute on one core.  Copy the printed values into
checks.py only when the workload itself changes.
"""

from __future__ import annotations

import os
import statistics
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads as w  # noqa: E402
from mhscaling import chains, limits, targets  # noqa: E402

PARTICLE_SEEDS = 40


def main() -> int:
    for label in w.ODE_STRATEGIES:
        traj = limits.integrate_gaussian_ode(
            *w.ODE_START, chains.strategy_from_label(label), dt=1e-3,
            t_max=w.ODE_T_MAX, stop_tol=w.ODE_STOP_TOL)
        print(f"ODE_T_REF[{label!r}] = {traj.t[-1]:.4f}")

    p = targets.potential_by_name("double-well")
    finals = {"m": [], "s": []}
    for seed in range(PARTICLE_SEEDS):
        rng = chains.chain_rng(np.random.SeedSequence([10_000 + seed, 0]))
        init = w.PARTICLES_INIT_MEAN + w.PARTICLES_INIT_SD * rng.standard_normal(w.PARTICLES_N)
        ensemble = limits.make_ensemble(init, dt=w.PARTICLES_DT, rng=rng)
        _, ms, ss = limits.integrate_particles(
            ensemble, p, w.PARTICLES_ELL, t_max=w.PARTICLES_STEPS * w.PARTICLES_DT,
            record_every=w.PARTICLES_STEPS)
        finals["m"].append(float(ms[-1]))
        finals["s"].append(float(ss[-1]))
    for key, values in finals.items():
        print(f"PARTICLES_REF[{key!r}] = {statistics.mean(values):.4f}  "
              f"sd {statistics.stdev(values):.4f}  8 sd {8 * statistics.stdev(values):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
