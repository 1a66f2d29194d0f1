"""One benchmark process: a set-up sample, a measured run or a traced run.

run.py starts each worker as a fresh interpreter with the package's ``src``
on ``PYTHONPATH`` and the numeric libraries pinned to one thread:

    python3 perfbench/worker.py --mode setup|measure|trace --workload NAME
        --seed N --seconds T --spawned-at MONOTONIC [--trace-out PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide on Linux), so set-up time runs from the start of
the interpreter to the first timed call.  The worker prints one JSON object
as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time


def _run_rounds(workload, ctx, seconds, max_rounds=None):
    """Rounds 0, 1, ... until ``seconds`` have passed (at least one); returns
    the wall time of each round and the problem (or None) of each operation."""
    times, outcomes = [], []
    start = time.monotonic()
    while True:
        t0 = time.perf_counter()
        outcomes.extend(workload.run_round(ctx, len(times)))
        times.append(time.perf_counter() - t0)
        if time.monotonic() - start >= seconds or len(times) == max_rounds:
            return times, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import mhscaling
    import mhscaling.cli  # noqa: F401  (the import every CLI call pays)
    imported = time.monotonic()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.prepare(args.seed)
    ready = time.monotonic()
    report = {
        "setup_s": ready - args.spawned_at,
        "inputs_s": ready - imported,
        "package": mhscaling.__file__,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0
    import selftest

    report["selftest"] = selftest.run(args.workload, ctx)
    if report["selftest"]:
        print(json.dumps(report))
        return 0

    import numpy
    import scipy

    report["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "mhscaling": mhscaling.__version__}
    if args.mode == "measure":
        times, outcomes = _run_rounds(workload, ctx, args.seconds)
    else:
        from tracing import Tracer

        # untraced rounds for the overhead baseline, then one traced round
        times, outcomes = _run_rounds(workload, ctx, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        untraced_potential = getattr(ctx, "potential", None)
        if untraced_potential is not None:
            ctx.potential = tracer.potential(untraced_potential)
        try:
            traced_times, traced_outcomes = _run_rounds(workload, ctx, 0.0, max_rounds=1)
        finally:
            tracer.uninstall()
            if untraced_potential is not None:
                ctx.potential = untraced_potential
        outcomes += traced_outcomes
        report["traced_round_s"] = traced_times[0]
        report["layers"] = tracer.layer_metrics()
        report["dropped_spans"] = tracer.counts["trace.dropped_spans"]
        tracer.write(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "traced_round_s": traced_times[0],
            "untraced_round_s": statistics.median(times),
        })

    attempted, failed, problems = workloads.tally(outcomes)
    report.update(
        round_s=times,
        attempted=attempted,
        failed=failed,
        problems=problems[:5],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
