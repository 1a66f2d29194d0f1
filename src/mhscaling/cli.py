"""Command-line interface.

Subcommands:

* ``tune``        print step scales from the tuning rules
* ``simulate``    run a chain / moment ODE / particle system / AR(1) limit
* ``experiment``  square-bias sweeps and the robustness surface
* ``validate``    run the closed-form checks: coefficient identities, the
                  Monte Carlo oracle and tuning constants (acceptance
                  criteria 01 and 03 run the same identity and tuning groups)

Every writing subcommand creates ``--out`` if needed and drops a
``manifest.json`` with the fully resolved configuration and seed, enough to
re-run bit-identically.  The ``config`` of a ``tune`` or ``simulate``
manifest holds every parsed option but ``--out`` (``simulate``'s ``--seed``
goes under ``seed``); an ``experiment`` manifest holds the resolved sweep
config, or the loss surface's grid.  Exit codes: 0 success, 1 validation
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import chains, experiments, limits, targets, tuning
from .coefficients import f_rate, g_drift, gamma, j_curve
from .errors import DomainError

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_USAGE = 2

# headers of the exchange-format CSVs
TRAJECTORY_HEADER = "k,ell_used,acc_prob,a_hat,b_hat"
LIMIT_HEADER = "t,m,s,H,ell_used,acc"
BIAS_HEADER = "t0,sq_bias_s,sq_bias_m,stderr_s,stderr_m"


def _write_run(outdir, command, config, seed, files):
    """Create ``outdir``, write each ``(name, header, rows)`` of ``files``
    there as a CSV, then ``manifest.json`` with ``config`` and ``seed``.
    Returns the paths written, the manifest last."""
    os.makedirs(outdir, exist_ok=True)
    paths = [_write_csv(os.path.join(outdir, name), header, rows)
             for name, header, rows in files]
    manifest = {
        "tool": "mhscaling",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "outputs": sorted(name for name, _, _ in files),
        "wall_clock": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [*paths, path]


def _options(args, *skip):
    # a run's parsed options, as its manifest records them
    return {k: v for k, v in vars(args).items() if k not in ("command", "fn", "out", *skip)}


def _write_csv(path, header, rows):
    """Write one exchange-format CSV, floats as repr (exact on re-read); returns path."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return path


def _parse_grid(spec: str):
    try:
        lo, hi, num = spec.split(":")
        grid = np.linspace(float(lo), float(hi), int(num))
    except ValueError:
        grid = np.empty(0)
    if grid.size < 1 or not np.all(np.isfinite(grid)):
        raise DomainError(f"grid must be lo:hi:num, finite, num >= 1; got {spec!r}")
    return grid


# -- tune ----------------------------------------------------------------------


def _cmd_tune(args) -> int:
    rows = []
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise DomainError("--a and --b must be given together")
        if args.mode == "star":
            res = tuning.ell_star_ab(args.a, args.b)
        elif args.mode == "alpha":
            res = tuning.ell_alpha_ab(args.a, args.b, args.alpha)
        else:
            raise DomainError("--mode ent works on --m/--s, not --a/--b")
        rows.append((f"a={args.a:g} b={args.b:g}", res))
    else:
        s_values = _parse_grid(args.s_grid) if args.s_grid else [args.s]
        for s in s_values:
            s = float(s)
            if args.mode == "star":
                res = tuning.ell_star(s)
            elif args.mode == "alpha":
                res = tuning.ell_alpha(s, args.alpha)
            else:
                res = tuning.ell_ent_gaussian(args.m, s)
            rows.append((f"s={s:g}", res))

    print(f"{'input':<20} {'ell':>16} {'objective':>16} {'converged':>10}")
    for label, res in rows:
        print(f"{label:<20} {res.ell:>16.10f} {res.objective_value:>16.10f} {res.converged!s:>10}")
    if args.out:
        _write_run(args.out, "tune", _options(args), None, [(
            "tune.csv", "input,ell,objective,converged",
            ((label, res.ell, res.objective_value, res.converged) for label, res in rows),
        )])
    return _EXIT_OK


# -- simulate ------------------------------------------------------------------


def _initial_coords(text: str, n: int, p, rng):
    # --init is kind[:p1,p2,...]; targets.initial_coords defines the kinds
    kind, _, arg = text.partition(":")
    return targets.initial_coords(kind, arg.split(",") if arg else (), n, p, rng)


def _cmd_simulate(args) -> int:
    if args.kind in ("ode", "ar1"):  # both limits are the Gaussian's
        if args.target != "gaussian":
            raise DomainError(f"--kind {args.kind} is for the Gaussian target, "
                              f"not {args.target!r}")
    else:
        p = targets.potential_by_name(args.target)
    if args.kind in ("rwm", "mala"):
        rng = chains.chain_rng(args.seed)
        init = _initial_coords(args.init, args.n, p, rng)
        if args.kind == "rwm":
            strategy = chains.strategy_from_label(args.strategy)
            records, _ = chains.run_chain(
                init, p, strategy, steps=args.steps,
                record_every=args.record_every, rng=rng,
            )
        else:
            records, _ = chains.run_mala(
                init, p, args.sigma, steps=args.steps,
                record_every=args.record_every, rng=rng,
            )
        output = ("trajectory.csv", TRAJECTORY_HEADER,
                  ((r.k, r.ell_used, r.acc_prob, r.a_hat, r.b_hat) for r in records))

    elif args.kind == "ode":
        strategy = chains.strategy_from_label(args.strategy)
        traj = limits.integrate_gaussian_ode(
            args.m0, args.s0, strategy, dt=args.dt, t_max=args.t_max,
            stop_tol=args.stop_tol,
        )
        output = ("limit.csv", LIMIT_HEADER,
                  zip(traj.t, traj.m, traj.s, traj.entropy, traj.ell, traj.acc))

    elif args.kind == "particles":
        rng = chains.chain_rng(args.seed)
        init = _initial_coords(args.init, args.n, p, rng)
        pe = limits.make_ensemble(init, dt=args.dt, rng=rng)
        ts, ms, ss = limits.integrate_particles(
            pe, p, args.ell, t_max=args.t_max, record_every=args.record_every
        )
        output = ("particles.csv", "t,m,s", zip(ts, ms, ss))

    else:  # ar1, the last of the kinds argparse lets through
        traj = limits.mala_ar1_limit(args.ell, args.steps, y0=args.y0,
                                     rng=chains.chain_rng(args.seed))
        output = ("ar1.csv", "k,y", enumerate(traj))

    _write_run(args.out, "simulate", _options(args, "seed"), args.seed, [output])
    return _EXIT_OK


# -- experiment ----------------------------------------------------------------


def _cmd_experiment(args) -> int:
    if args.kind == "loss":
        b_values, a_grid, alphas = experiments.robustness_grid()
        rows = experiments.relative_loss_surface(b_values, a_grid, alphas)
        means = experiments.mean_relative_loss(rows)
        _write_run(
            args.out, "experiment",
            {"kind": "loss", "a_grid": list(a_grid),
             "b_values": list(b_values), "alphas": list(alphas)},
            None, [("relative_loss.csv", "alpha,b,a,loss",
                    ((r.alpha, r.b, r.a, r.loss) for r in rows))],
        )
        for alpha in sorted(means):
            print(f"alpha={alpha:g}: mean relative loss {means[alpha]:.5f}")
        return _EXIT_OK

    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{args.config} is not JSON: {exc}") from None
        cfg = experiments.ExperimentConfig.from_dict(
            raw.get("config", raw) if isinstance(raw, dict) else raw)
    elif args.preset:
        cfg = experiments.preset_config(args.preset, args.target, args.seed)
    else:
        raise DomainError(f"give --preset {'|'.join(experiments.PRESETS)} or --config FILE")

    curves = experiments.square_bias_sweep(cfg)
    # one CSV per strategy; each list is filled here, before any file is written
    rows = {s.label(): [] for s in cfg.strategies}
    for c in curves:
        rows[c.strategy].append((c.t0, c.sq_bias_s, c.sq_bias_m, c.stderr_s, c.stderr_m))
    paths = _write_run(args.out, "experiment", cfg.to_dict(), cfg.seed,
                       [(f"bias_{label}.csv", BIAS_HEADER, r) for label, r in rows.items()])
    print(f"wrote {len(paths)} files to {args.out}")
    return _EXIT_OK


# -- validate ------------------------------------------------------------------
# The closed-form checks: ``validate`` runs the three groups, acceptance
# criteria 01 and 03 the identity and tuning groups.  Each group yields
# (name, ok, detail) and takes its seeded draws from ``rng``.


def _draws(rng, count, *ranges):
    # count points, coordinate i uniform on ranges[i], drawn point by point
    return [tuple(float(rng.uniform(lo, hi)) for lo, hi in ranges) for _ in range(count)]


def identity_checks(rng):
    """gamma == 2 g_drift on the diagonal a == b, the sign of gamma - 2 g_drift
    off it (on a grid and at 1,000 draws), and F > 0 on a compact grid."""
    worst = max(abs(gamma(c, c, ell) - 2.0 * g_drift(c, c, ell))
                for c, ell in itertools.product(np.linspace(0.05, 10.0, 20).tolist(),
                                                np.linspace(0.3, 4.8, 20).tolist()))
    yield "equilibrium identity gamma == 2*g_drift", worst <= 1e-12, f"max |diff| {worst:.2e}"

    points = list(itertools.product(np.linspace(0.0, 10.0, 10).tolist(),
                                    np.linspace(-5.0, 5.0, 10).tolist(),
                                    np.linspace(0.5, 5.0, 10).tolist()))
    points += _draws(rng, 1000, (0.0, 10.0), (-5.0, 5.0), (0.05, 5.0))
    wrong = sum(math.copysign(1.0, gamma(a, b, ell) - 2.0 * g_drift(a, b, ell))
                != math.copysign(1.0, a - b) for a, b, ell in points if abs(a - b) >= 1e-9)
    yield ("sign identity sign(gamma - 2 g_drift) == sign(a - b)", wrong == 0,
           f"{wrong} of {len(points)} points wrong")

    min_f = min(f_rate(a, b, ell) for a, b, ell in itertools.product(
        np.linspace(0.0, 10.0, 11).tolist(), np.linspace(-10.0, 10.0, 11).tolist(),
        (0.5, 1.0, 2.0, 4.0)))
    yield "entropy rate positive on compacts", min_f > 0.0, f"min {min_f:.3e}"


def oracle_checks(rng, n_samples):
    """gamma and g_drift against Monte Carlo means at 8 drawn points, to 4
    standard errors."""
    miss = ""
    for _ in range(8):
        a, b, ell = _draws(rng, 1, (0.05, 8.0), (-3.0, 3.0), (0.2, 3.0))[0]
        z = rng.normal(-0.5 * ell * ell * b, ell * math.sqrt(a), size=n_samples)
        capped = np.exp(np.minimum(z, 0.0))
        for coefficient, mc in ((gamma, capped), (g_drift, np.where(z < 0.0, capped, 0.0))):
            se = ell * ell * mc.std() / math.sqrt(n_samples)
            if not miss and abs(coefficient(a, b, ell) - ell * ell * mc.mean()) > 4.0 * se:
                miss = f"{coefficient.__name__} at (a={a:.3f}, b={b:.3f}, ell={ell:.3f})"
    yield f"Monte Carlo oracle at {n_samples} samples (4 se)", not miss, miss


# name, value, target, tolerance; a vector value is checked entry by entry
TUNING_CONSTANTS = (
    ("rate-optimal scale at s=0 is sqrt(2)", lambda: tuning.ell_star(0.0).ell,
     math.sqrt(2.0), 1e-8),
    ("rate-optimal scale at s=1", lambda: tuning.ell_star(1.0).ell, 1.85, 0.01),
    ("rate-optimal scale at s=1e4, over 100, less x_star",
     lambda: tuning.ell_star(1e4).ell / 100.0 - tuning.x_star(), 0.0, 0.02),
    ("acceptance-matched scale at (1, 0.234)", lambda: tuning.ell_alpha(1.0, 0.234).ell,
     2.38, 0.01),
    ("matched acceptance targets",
     lambda: [tuning.matched_alpha(r) for r in ("near_equilibrium", "s_to_zero", "s_to_infinity")],
     (0.35, math.exp(-1.0), 0.27), (0.005, 1e-10, 0.005)),
)


def tuning_checks(rng):
    """The constants of TUNING_CONSTANTS, acceptance matching residuals at 10
    drawn (s, alpha), and the scaling law ell*(la, lb) = ell*(a, b) / sqrt(l)
    at 10 drawn (a, b, l)."""
    for name, value, target, tol in TUNING_CONSTANTS:
        got = np.atleast_1d(value())
        yield (name, bool(np.all(np.abs(got - target) <= tol)),
               ", ".join(f"{v:.12g}" for v in got))

    worst = max(abs(j_curve(s, tuning.ell_alpha(s, alpha).ell) - alpha)
                for s, alpha in _draws(rng, 10, (0.01, 30.0), (0.05, 0.9)))
    yield "acceptance matching residuals < 1e-10", worst <= 1e-10, f"max {worst:.1e}"

    worst = 0.0
    for a, b, lam in _draws(rng, 10, (0.0, 5.0), (0.1, 4.0), (0.2, 5.0)):
        want = tuning.ell_star_ab(a, b).ell / math.sqrt(lam)
        worst = max(worst, abs(tuning.ell_star_ab(lam * a, lam * b).ell - want) / max(1.0, want))
    yield "rate-optimal scaling law", worst <= 1e-8, f"max relative error {worst:.1e}"


def _cmd_validate(args) -> int:
    # fewer make the Monte Carlo check vacuous; more than numpy can draw at once
    if not 2 <= args.samples <= 1e8:
        raise DomainError(f"--samples must be a count from 2 to 1e8, got {args.samples:g}")
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    passed = total = 0
    for name, ok, detail in itertools.chain(identity_checks(rng), oracle_checks(
            rng, int(args.samples)), tuning_checks(rng)):
        print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")
        passed, total = passed + ok, total + 1
    print(f"{passed}/{total} checks passed")
    return _EXIT_OK if passed == total else _EXIT_VALIDATION


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhscaling",
        description="Proposal-scale tuning and mean-field limits for "
        "Metropolis algorithms in the transient phase",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p_tune = sub.add_parser("tune", help="step-scale tuning rules", **fmt)
    p_tune.add_argument("--mode", choices=("star", "alpha", "ent"), required=True,
                        help="rule: rate-optimal, acceptance-matched, or entropy-derivative")
    p_tune.add_argument("--s", type=float, default=1.0, help="moment ratio a/b")
    p_tune.add_argument("--s-grid", help="grid lo:hi:num instead of --s")
    p_tune.add_argument("--a", type=float, help="moment E[(V')^2]")
    p_tune.add_argument("--b", type=float, help="moment E[V'']")
    p_tune.add_argument("--alpha", type=float, default=0.27,
                        help="target acceptance rate for --mode alpha")
    p_tune.add_argument("--m", type=float, default=0.0,
                        help="mean for --mode ent")
    p_tune.add_argument("--out", help="directory for tune.csv + manifest")
    p_tune.set_defaults(fn=_cmd_tune)

    p_sim = sub.add_parser("simulate", help="chains, moment ODE, particles, AR(1)", **fmt)
    p_sim.add_argument("--kind", choices=("rwm", "mala", "ode", "particles", "ar1"),
                       required=True, help="what to simulate")
    p_sim.add_argument("--target", choices=tuple(targets._BUILTIN_TARGETS),
                       default="gaussian", help="target potential")
    p_sim.add_argument("--n", type=int, default=100, help="dimension / particle count")
    p_sim.add_argument("--steps", type=int, default=10000, help="chain steps")
    p_sim.add_argument("--strategy", default="constant:2.38",
                       help="constant[:ell] | alpha[:a] | alpha-adaptive[:a] | star | ent")
    p_sim.add_argument("--ell", type=float, default=1.0,
                       help="fixed step constant (particles, ar1)")
    p_sim.add_argument("--sigma", type=float, default=0.1, help="MALA proposal std")
    p_sim.add_argument("--dt", type=float, default=1e-3, help="integrator step")
    p_sim.add_argument("--t-max", type=float, default=10.0, help="integration horizon")
    p_sim.add_argument("--stop-tol", type=float, default=None,
                       help="early stop for the ODE once |m|,|s-1| drop below")
    p_sim.add_argument("--m0", type=float, default=10.0, help="ODE initial mean")
    p_sim.add_argument("--s0", type=float, default=100.0, help="ODE initial second moment")
    p_sim.add_argument("--y0", type=float, default=0.0, help="AR(1) start")
    p_sim.add_argument("--init", default="gaussian:0,1",
                       help="point:v | gaussian:mean,var | stationary")
    p_sim.add_argument("--record-every", type=int, default=1, help="recording cadence")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="square-bias sweeps / robustness surface", **fmt)
    p_exp.add_argument("--kind", choices=("bias", "loss"), default="bias",
                       help="square-bias sweep or relative-loss surface")
    p_exp.add_argument("--preset", choices=tuple(experiments.PRESETS), help="built-in config")
    p_exp.add_argument("--config", help="JSON config or manifest to re-run")
    p_exp.add_argument("--target", choices=tuple(targets._BUILTIN_TARGETS),
                       default="gaussian", help="target potential for presets")
    p_exp.add_argument("--seed", type=int, default=0, help="master seed for presets")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_val = sub.add_parser("validate", help="identity and oracle checks", **fmt)
    p_val.add_argument("--samples", type=float, default=1e6,
                       help="Monte Carlo oracle sample count")
    p_val.add_argument("--seed", type=int, default=0, help="master seed")
    p_val.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # bad input, a path that cannot be used, or a size too large to allocate
    except (DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
