"""Per-layer tracing for the benchmark's traced run.

Timing wrappers go on the public names that each calling module binds (for
example ``experiments.run_chain``, ``chains.tuning.ell_star_ab``,
``limits.policy_ell`` and ``coefficients.phi``), in the benchmark process
only, and come off again when the traced round ends; the package source is
not touched.  Each wrapped call is a span with a parent.  Self time is the
span's duration minus the part its child spans cover, accumulated as spans
close; inclusive time is summed over the outermost span of each layer, so a
layer nested in itself is not counted twice.  Counts are taken in the same
wrappers.  Spans are kept in memory, up to ``SPAN_CAP`` of them, and written
out by :meth:`Tracer.write` at the end; spans past the cap are still timed
and counted, and the number dropped is recorded.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import time
import types

import numpy as np

LAYERS = ("special", "coefficients", "tuning", "targets", "chains", "limits", "experiments")

# per-layer accumulator slots
_CALLS, _SELF, _INCLUSIVE, _DEPTH = range(4)

# Spans kept in memory; a traced sweep round makes millions of calls.
SPAN_CAP = 100_000


class _NeverRaised(Exception):
    """Placeholder for wrappers that count no exception."""


def _count_solve(result, args, counts):
    counts["tuning.solves"] += 1
    counts["tuning.iterations"] += result.iterations
    counts["tuning.nonconverged"] += not result.converged


def _count_elements(result, args, counts):
    counts["targets.elements"] += np.size(args[0])


def _count_step(result, args, counts):
    counts["chains.steps"] += 1
    counts["chains.accepted"] += result[1].accepted


def _count_records(result, args, counts):
    counts["experiments.records"] += len(result[0])


def _count_ode_steps(result, args, counts):
    counts["limits.steps"] += len(result.t) - 1


def _count_particle_step(result, args, counts):
    counts["limits.steps"] += 1


def _count_policy(result, args, counts):
    counts["limits.policy_calls"] += 1


class Tracer:
    def __init__(self):
        self.stats = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS}
        self.counts = collections.Counter()
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack = [[0, 0.0]]  # [span id, time covered by child spans]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self._potentials: dict = {}

    def wrap(self, fn, layer, name, after=None, error=(_NeverRaised, "")):
        """A traced stand-in for ``fn``; ``after(result, args, counts)`` runs
        inside the span, and ``error`` names an exception type to count."""
        stats = self.stats[layer]
        self.names.append(name)
        name_index = len(self.names) - 1
        stack, spans, ids, counts = self._stack, self.spans, self._ids, self.counts
        error_type, error_count = error
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            stats[_DEPTH] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, counts)
                return result
            except error_type:
                counts[error_count] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stats[_CALLS] += 1
                stats[_SELF] += duration - frame[1]
                stats[_DEPTH] -= 1
                if stats[_DEPTH] == 0:
                    stats[_INCLUSIVE] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent[0], name_index, start, end))
                else:
                    counts["trace.dropped_spans"] += 1

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, layer, after=None, error=(_NeverRaised, ""), prefix=None):
        """Wrap the name ``attr`` as module ``owner`` binds it."""
        name = f"{prefix or owner.__name__.rpartition('.')[2]}.{attr}"
        self._replace(owner, attr, self.wrap(getattr(owner, attr), layer, name, after, error))

    def potential(self, p):
        """A copy of potential ``p`` whose V and derivatives are traced."""
        if p.name not in self._potentials:
            fields = {
                f: self.wrap(getattr(p, f), "targets", f"{p.name}.{f}", after=_count_elements)
                for f in ("eval_v", "d1", "d2", "d3", "d4")
            }
            self._potentials[p.name] = dataclasses.replace(p, **fields)
        return self._potentials[p.name]

    def install(self):
        """Wrap the bindings the three workloads go through."""
        from mhscaling import chains, coefficients, experiments, limits, tuning
        from mhscaling.errors import ConcaveRegionError

        solve = {"after": _count_solve,
                 "error": (ConcaveRegionError, "tuning.concave_fallbacks")}

        for attr in ("phi", "f_helper"):
            self.patch(coefficients, attr, "special")
        for attr in ("f1", "f_rate", "g_drift", "j_curve"):
            self.patch(tuning, attr, "coefficients")
        self.patch(tuning, "phi", "special")

        # chains calls tuning through the module object, so it gets a view of
        # the module with traced solvers; the module itself stays untouched
        view = types.SimpleNamespace(**{a: getattr(tuning, a) for a in tuning.__all__})
        for attr in ("ell_star_ab", "ell_alpha_ab", "ell_ent_gaussian"):
            self.patch(view, attr, "tuning", prefix="chains.tuning", **solve)
        self._replace(chains, "tuning", view)
        self.patch(chains, "rwm_step", "chains", after=_count_step)

        for attr in ("acc_rate", "f1", "g_drift", "gamma"):
            self.patch(limits, attr, "coefficients")
        for attr in ("ell_alpha", "ell_ent_gaussian", "ell_star"):
            self.patch(limits, attr, "tuning", **solve)
        self.patch(limits, "empirical_moments", "targets")
        self.patch(limits, "policy_ell", "limits", after=_count_policy)
        self.patch(limits, "meanfield_particle_step", "limits", after=_count_particle_step)

        lookup = experiments.potential_by_name
        self._replace(experiments, "potential_by_name", self.wrap(
            lambda name: self.potential(lookup(name)), "targets",
            "experiments.potential_by_name"))
        self.patch(experiments, "stationary_coordinate_moments", "targets")
        self.patch(experiments, "run_chain", "chains", after=_count_records)

        # the benchmark's own calls into the top layers
        self.patch(experiments, "square_bias_sweep", "experiments")
        self.patch(limits, "integrate_gaussian_ode", "limits", after=_count_ode_steps)
        self.patch(limits, "integrate_particles", "limits")
        self.patch(limits, "make_ensemble", "limits")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the spans and counts recorded so far."""
        s, c = self.stats, self.counts

        def per(layer, count, scale):
            return s[layer][_INCLUSIVE] / count * scale if count else 0.0

        steps = c["chains.steps"]
        return {
            "special.calls": s["special"][_CALLS],
            "special.self_s": s["special"][_SELF],
            "coefficients.calls": s["coefficients"][_CALLS],
            "coefficients.self_s": s["coefficients"][_SELF],
            "coefficients.us_per_call": per("coefficients", s["coefficients"][_CALLS], 1e6),
            "tuning.solves": c["tuning.solves"],
            "tuning.self_s": s["tuning"][_SELF],
            "tuning.us_per_solve": per("tuning", c["tuning.solves"], 1e6),
            "tuning.iterations": c["tuning.iterations"],
            "tuning.nonconverged": c["tuning.nonconverged"],
            "tuning.concave_fallbacks": c["tuning.concave_fallbacks"],
            "targets.calls": s["targets"][_CALLS],
            "targets.elements": c["targets.elements"],
            "targets.self_s": s["targets"][_SELF],
            "targets.ns_per_element": per("targets", c["targets.elements"], 1e9),
            "chains.steps": steps,
            "chains.self_s": s["chains"][_SELF],
            "chains.us_per_step": per("chains", steps, 1e6),
            "chains.accept_ratio": c["chains.accepted"] / steps if steps else 0.0,
            "limits.steps": c["limits.steps"],
            "limits.policy_calls": c["limits.policy_calls"],
            "limits.self_s": s["limits"][_SELF],
            "limits.us_per_step": per("limits", c["limits.steps"], 1e6),
            "experiments.self_s": s["experiments"][_SELF],
            "experiments.records": c["experiments.records"],
        }

    def write(self, path, meta: dict) -> None:
        """Write the spans, names, layer totals and counts as one JSON file."""
        doc = {
            **meta,
            "names": self.names,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.counts["trace.dropped_spans"],
            "layers": {layer: dict(zip(("calls", "self_s", "inclusive_s"), v[:3]))
                       for layer, v in self.stats.items()},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
