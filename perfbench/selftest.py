"""Self-test of the benchmark's output checks.

Feeds deliberately corrupted results (a nan bias row, an entropy increase, a
missed stop tolerance, an operation that raises, ...) through each workload's
round, with the package call replaced by a fake that returns them, and
asserts that the tally counts them as failed and the intact ones as passed.
Every benchmark worker runs it before measuring; to run it alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

import checks
import workloads


@contextlib.contextmanager
def _replaced(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _raise(*args, **kwargs):
    raise FloatingPointError("injected failure")


def _expect(name, outcomes, failed_ops) -> list[str]:
    """The operations at indices ``failed_ops`` must fail, the rest pass."""
    attempted, failed, _ = workloads.tally(outcomes)
    got = [i for i, p in enumerate(outcomes) if p is not None]
    if failed != len(failed_ops) or got != sorted(failed_ops):
        return [f"{name}: {failed} of {attempted} counted failed at {got}, "
                f"expected {sorted(failed_ops)}"]
    return []


def _sweep_rows(cfg, corrupt):
    from mhscaling.experiments import BiasCurve

    rows = []
    for i, strategy in enumerate(cfg.strategies):
        for t0 in cfg.t0_grid:
            final = t0 == cfg.t0_grid[-1]
            row = {"t0": t0, "sq_bias_s": 1e-4 if final else 1.0,
                   "sq_bias_m": 4e-4 if final else 0.5,
                   "stderr_s": 2e-3, "stderr_m": 3e-3}
            row.update(corrupt.get((i, t0), {}))
            if row.pop("drop", False):
                continue
            rows.append(BiasCurve(strategy=strategy.label(), **row))
    return rows


def _check_sweep(ctx) -> list[str]:
    from mhscaling import experiments

    final = ctx.config.t0_grid[-1]
    corrupt = {
        (0, 100): {"sq_bias_s": math.nan},            # a nan bias row
        (1, final): {"sq_bias_m": 1.0},               # final m off by 1 (20 se)
        (2, 50): {"stderr_m": -1e-3},                 # negative error
        (3, 200): {"drop": True},                     # a missing t0
    }
    problems = []
    with _replaced(experiments, "square_bias_sweep",
                   lambda cfg, workers=None: _sweep_rows(cfg, corrupt)):
        problems += _expect("sweep corrupted rows", workloads._sweep_round(ctx, 0), [0, 1, 2, 3])
    with _replaced(experiments, "square_bias_sweep", _raise):
        problems += _expect("sweep raising", workloads._sweep_round(ctx, 0),
                            list(range(len(ctx.labels))))
    return problems


def _ode_trajectory(label, bump=0.0, t_scale=1.0):
    # a decay from the point mass (10, 100) that reaches 1e-4 at the reference time
    t = np.linspace(0.0, checks.ODE_T_REF[label] * t_scale, 400)
    decay = np.exp(-0.6 * t)
    m, s = 10.0 * decay, 1.0 + 99.0 * decay
    variance = s - m * m
    entropy = np.full_like(t, math.inf)
    entropy[1:] = 0.5 * (s[1:] - 1.0 - np.log(variance[1:]))
    if bump:
        entropy[200] = entropy[199] + bump
    return SimpleNamespace(t=t, m=m, s=s, entropy=entropy)


def _check_ode(ctx) -> list[str]:
    from mhscaling import limits

    fakes = {"star": {}, "alpha:0.27": {"bump": 1e-6}, "ent": {"t_scale": 0.5}}

    def integrate(m0, s0, strategy, **kwargs):
        label = next(lab for lab, st in ctx.strategies if st is strategy)
        return _ode_trajectory(label, **fakes[label])

    problems = []
    with _replaced(limits, "integrate_gaussian_ode", integrate):
        problems += _expect("ode entropy bump and missed tolerance",
                            workloads._ode_round(ctx, 0), [1, 2])
    with _replaced(limits, "integrate_gaussian_ode", _raise):
        problems += _expect("ode raising", workloads._ode_round(ctx, 0), [0, 1, 2])
    return problems


def _check_particles(ctx) -> list[str]:
    from mhscaling import limits

    ref = checks.PARTICLES_REF

    def finishing_at(m, s):
        return lambda *a, **k: (np.array([0.0, 10.0]), np.array([2.0, m]), np.array([4.2, s]))

    problems = []
    for name, m, s, failed in (("intact", ref["m"], ref["s"], []),
                               ("nan mean", math.nan, ref["s"], [0]),
                               ("shifted second moment", ref["m"], ref["s"] + 0.2, [0])):
        with _replaced(limits, "integrate_particles", finishing_at(m, s)):
            problems += _expect(f"particles {name}", workloads._particles_round(ctx, 0), failed)
    return problems


_CHECKS = {
    "sweep-gaussian": _check_sweep,
    "ode-gaussian": _check_ode,
    "particles-double-well": _check_particles,
}


def run(workload_name, ctx) -> list[str]:
    """Problems found in the checks of one workload (empty when sound)."""
    return _CHECKS[workload_name](ctx)


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        problems += run(name, workload.prepare(0))
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
