"""Benchmark of mhscaling: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is sweep-gaussian, ode-gaussian, particles-double-well, or all (each in
turn).  Run from anywhere; the package is imported from ``src`` next to this
directory, so nothing needs installing.

With ``--trace 0`` the run takes set-up samples in fresh interpreters and then
measures rounds of the workload in one more, untraced, for T seconds.  With
``--trace 1`` it times ``import mhscaling.cli`` under ``-X importtime``, runs
untraced rounds for T/2 seconds and then one round under the tracer.  Every
worker checks its outputs and runs the self-test of the checks first.  A table
with medians, spreads and sample counts goes to standard output, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment, is written to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# Set-up samples per run: these fresh interpreters plus the measuring one.
SETUP_PROBES = 2
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# A worker that runs this much longer than its measuring time is stuck.
WORKER_GRACE_S = 90


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env():
    return dict(os.environ, PYTHONPATH=SRC, **THREAD_PINS)


def _worker(mode, name, seed, seconds, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=_child_env(),
                          capture_output=True, text=True, timeout=seconds + WORKER_GRACE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(lines[-1])
    if not os.path.abspath(report["package"]).startswith(SRC + os.sep):
        raise BenchError(f"imported mhscaling from {report['package']}, not from {SRC}")
    if report.get("selftest"):
        raise BenchError("self-test of the checks failed: " + "; ".join(report["selftest"]))
    return report


def _import_profile() -> list:
    """(depth, module, cumulative seconds) per line of ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mhscaling.cli"],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=WORKER_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"importing mhscaling.cli failed:\n{proc.stderr.strip()}")
    entries = []
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1]) * 1e-6))
    return entries


def _package_import_s(entries, package) -> float:
    """Import time of ``package``: its entries that were imported from outside it.

    A line's importer is the next line with less indentation."""
    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0.0
    for i, (depth, name, seconds) in enumerate(entries):
        if inside(name):
            importer = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
            if not inside(importer):
                total += seconds
    return total


def _summary(samples) -> dict:
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else samples * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _environment(seed, seconds, versions) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_sha": _git_sha(),
        "thread_pinning": THREAD_PINS,
        "seed": seed,
        "seconds": seconds,
    }


def _measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics with their summaries."""
    setup = [_worker("setup", workload.name, seed, 0)["setup_s"] for _ in range(SETUP_PROBES)]
    report = _worker("measure", workload.name, seed, seconds)
    setup.append(report["setup_s"])
    summaries = {
        "setup_s": _summary(setup),
        "run_s": _summary(report["round_s"]),
        "throughput": _summary([workload.work_per_round / t for t in report["round_s"]]),
        "peak_rss_mb": _summary([report["peak_rss_mb"]]),
    }
    return summaries, report


def _trace(workload, seed, seconds):
    """Traced run: per-layer metrics; end-to-end ones are not reported."""
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json")
    imports = _import_profile()
    report = _worker("trace", workload.name, seed, seconds, trace_out)
    values = dict(report["layers"])
    values["cli.import_s"] = _package_import_s(imports, "mhscaling")
    values["setup.scipy_signal_import_s"] = _package_import_s(imports, "scipy.signal")
    values["setup.inputs_s"] = report["inputs_s"]
    values["trace.overhead_s"] = report["traced_round_s"] - statistics.median(report["round_s"])
    report["trace_file"] = trace_out
    return {k: {"median": v, "q1": v, "q3": v, "n": 1} for k, v in values.items()}, report


def run_one(spec, name, seed, seconds, trace) -> dict:
    workload = workloads.WORKLOADS[name]
    if trace:
        summaries, report = _trace(workload, seed, seconds)
        declared = spec["per_layer"]
    else:
        summaries, report = _measure(workload, seed, seconds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(summaries):
        raise BenchError(f"metrics {sorted(summaries)} do not match BENCHMARK.json {sorted(units)}")

    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for metric in units:
        s = summaries[metric]
        unit = units[metric]
        note = f" ({workload.work_unit}/s)" if metric == "throughput" else ""
        spread = f"  IQR {s['q1']:.6g}..{s['q3']:.6g}" if s["n"] > 1 else ""
        print(f"{metric:30s} {s['median']:14.6g} {unit:6s}{note}{spread}  n={s['n']}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"{'failed_frac':30s} {failed_frac:14.6g} {'':6s}"
          f"  ({report['failed']} of {report['attempted']} operations)")
    for problem in report["problems"]:
        print(f"  failed: {problem}")
    env = _environment(seed, seconds, report["versions"])
    print("env " + json.dumps(env))

    record = {"workload": name, "trace": int(trace), "env": env,
              "metrics": {m: {**summaries[m], "unit": units[m]} for m in units},
              "failed_frac": failed_frac, "worker": report}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": summaries[m]["median"], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mhscaling", "__init__.py")):
        print(f"run.py: no mhscaling source tree at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(spec, n, args.seed, args.seconds, args.trace) for n in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
