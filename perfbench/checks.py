"""Output checks for the benchmark workloads.

Every check returns ``None`` when the output passes and a one-line problem
description when it does not.  The checks compare against the theory or a
recorded reference within stated tolerances, never against the bytes of an
earlier run, so they keep passing after a correct change to the random-stream
layout.  They read only the fields they check, so the self-test can feed
them corrupted stand-ins for the package's outputs.
"""

from __future__ import annotations

import math

# -- sweep-gaussian -------------------------------------------------------------

# The final-t0 estimate must lie within SWEEP_Z standard errors of the
# stationary moments.  With four replicates the row's own standard error is a
# Student-t(3) quantity that is now and then far too small, so it is floored at
# SWEEP_SE_FLOOR (the replicate-to-replicate spread of the estimators at this
# shape is 0.035-0.075; measured over 30 seeds).
SWEEP_Z = 8.0
SWEEP_SE_FLOOR = 0.05

# -- ode-gaussian ---------------------------------------------------------------

# Time at which |m| and |s - 1| first drop below ODE_STOP_TOL from
# (m0, s0) = (10, 100), recorded with dt = 1e-3 (perfbench/calibrate.py).
ODE_T_REF = {"star": 25.552, "alpha:0.27": 26.328, "ent": 25.565}
ODE_T_REL_TOL = 0.02
# Entropy may rise by at most this much between steps (rounding only).
ODE_ENTROPY_SLACK = 1e-12

# -- particles-double-well ----------------------------------------------------

# Final (m, s) of the particle run, mean over 40 seeds (perfbench/calibrate.py),
# and the tolerance: 8 times the seed-to-seed standard deviation at N = 10^4.
PARTICLES_REF = {"m": 0.4615, "s": 0.9607}
PARTICLES_TOL = {"m": 0.080, "s": 0.067}


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _bias_and_se(sq_bias: float, stderr: float) -> tuple[float, float]:
    # The rows carry b^2 and the delta-method error 2|b| se + se^2; invert it.
    bias = math.sqrt(sq_bias)
    return bias, math.sqrt(bias * bias + stderr) - bias


def check_sweep_rows(rows, t0_grid) -> str | None:
    """Rows of one strategy: one finite row per t0, nonnegative squared
    biases and errors, and the final-t0 row close to stationarity."""
    if [r.t0 for r in rows] != list(t0_grid):
        return f"rows cover t0 {[r.t0 for r in rows]}, expected {list(t0_grid)}"
    for r in rows:
        values = (r.sq_bias_s, r.sq_bias_m, r.stderr_s, r.stderr_m)
        if not _finite(*values):
            return f"non-finite row at t0={r.t0}: {values}"
        if min(values) < 0.0:
            return f"negative squared bias or error at t0={r.t0}: {values}"
    final = rows[-1]
    for moment, sq_bias, stderr in (("s", final.sq_bias_s, final.stderr_s),
                                    ("m", final.sq_bias_m, final.stderr_m)):
        bias, se = _bias_and_se(sq_bias, stderr)
        if bias > SWEEP_Z * max(se, SWEEP_SE_FLOOR):
            return (f"final-t0 bias of {moment} is {bias:.4g}, more than "
                    f"{SWEEP_Z:g} standard errors (se {se:.3g})")
    return None


def check_ode(traj, label: str, stop_tol: float, t_max: float) -> str | None:
    """Tolerance reached inside the horizon, entropy not increasing and the
    reach time close to the recorded reference."""
    n = len(traj.t)
    if n < 2:
        return "trajectory has no steps"
    m_end, s_end, t_end = float(traj.m[-1]), float(traj.s[-1]), float(traj.t[-1])
    if not _finite(m_end, s_end, t_end):
        return f"non-finite final state m={m_end}, s={s_end}, t={t_end}"
    if not (abs(m_end) < stop_tol and abs(s_end - 1.0) < stop_tol):
        return f"stop tolerance not reached: m={m_end:.3g}, s-1={s_end - 1.0:.3g}"
    if t_end >= t_max:
        return f"tolerance reached only at the horizon t={t_end}"
    # a point-mass start has entropy +inf at t = 0; every later value is finite
    entropy = [float(h) for h in traj.entropy[1:]]
    if not _finite(*entropy):
        return "non-finite entropy after the first step"
    rise = max(b - a for a, b in zip(entropy, entropy[1:])) if len(entropy) > 1 else 0.0
    if rise > ODE_ENTROPY_SLACK:
        return f"entropy increases by {rise:.3g} in one step"
    ref = ODE_T_REF[label]
    if abs(t_end - ref) > ODE_T_REL_TOL * ref:
        return f"tolerance reached at t={t_end:.4g}, reference {ref:.4g}"
    return None


def check_particles(ms, ss) -> str | None:
    """Final (m, s) of a particle run within Monte Carlo tolerance of the
    recorded reference."""
    if len(ms) == 0 or len(ms) != len(ss):
        return f"moment series of lengths {len(ms)} and {len(ss)}"
    final = {"m": float(ms[-1]), "s": float(ss[-1])}
    for key, value in final.items():
        if not _finite(value):
            return f"non-finite final {key}={value}"
        if abs(value - PARTICLES_REF[key]) > PARTICLES_TOL[key]:
            return (f"final {key}={value:.4g}, reference {PARTICLES_REF[key]:.4g} "
                    f"+- {PARTICLES_TOL[key]:g}")
    return None
