"""Spans around the calls into each walkfield layer, recorded from outside.

Nothing inside the package is instrumented.  `install` replaces each
public function at the name where its caller looks it up (for example
`walkfield.infer.genetics.stationary_precision`) with a wrapper that
records a span: name, start, end, parent, the op kind it ran under, the
exception it raised if any, and an optional count taken from the call.
Spans stay in memory; `write` dumps them when the run ends, and
`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


# (module that looks the name up, attribute, span name, count taken from the call)
TARGETS = (
    ("walkfield.graph", "generator_from_rates", "graph.generator_from_rates", None),
    ("walkfield.infer.gaussian", "build_generator", "graph.build_generator", None),
    ("walkfield.infer.gaussian", "edge_rates_loglinear", "graph.edge_rates_loglinear", None),
    ("walkfield.infer.gaussian", "check_irreducible", "graph.check_irreducible", None),
    ("walkfield.infer.genetics", "build_generator", "graph.build_generator", None),
    ("walkfield.infer.genetics", "edge_rates_loglinear", "graph.edge_rates_loglinear", None),
    ("walkfield.infer.genetics", "check_irreducible", "graph.check_irreducible", None),
    ("walkfield.ident", "generator_from_rates", "graph.generator_from_rates", None),
    ("walkfield.ident", "check_irreducible", "graph.check_irreducible", None),
    ("walkfield.field", "stationary_precision", "field.stationary_precision", None),
    ("walkfield.field", "log_pseudo_det", "field.log_pseudo_det", None),
    ("walkfield.field", "IntrinsicField", "field.IntrinsicField", None),
    ("walkfield.field", "sample_fields", "field.sample_fields", None),
    ("walkfield.field", "log_density", "field.log_density", None),
    ("walkfield.field", "constrained_solve", "field.constrained_solve", None),
    ("walkfield.infer.gaussian", "stationary_precision", "field.stationary_precision", None),
    ("walkfield.infer.gaussian", "constrained_solve", "field.constrained_solve", None),
    ("walkfield.infer.genetics", "stationary_precision", "field.stationary_precision", None),
    ("walkfield.infer.genetics", "constrained_solve", "field.constrained_solve", None),
    ("walkfield.ident", "verify_unique", "ident.verify_unique", None),
    ("walkfield.ident", "check_identifiable", "ident.check_identifiable", None),
    ("walkfield.ident", "minimize", "ident.restart", None),
    ("walkfield.popsim", "simulate_population", "popsim.simulate_population",
     lambda a, k, r: r.event_count),
    ("walkfield.popsim", "integrate_limit_ode", "popsim.integrate_limit_ode", None),
    ("walkfield.cli", "fit_gaussian", "infer.gaussian.fit_gaussian",
     lambda a, k, r: k["iterations"]),
    ("walkfield.cli", "gaussian_loglik_fn", "infer.gaussian.gaussian_loglik_fn", None),
    ("walkfield.infer.genetics", "fit_probit_genetics", "infer.genetics.fit_probit_genetics",
     None),
    ("walkfield.infer.genetics", "truncated_normal", "infer.genetics.truncated_normal", None),
    ("walkfield.infer.genetics", "category_probs", "infer.genetics.category_probs", None),
    ("walkfield.cli", "compute_dic", "infer.diagnostics.compute_dic", None),
    ("walkfield.cli", "split_half_diagnostic", "infer.diagnostics.split_half_diagnostic", None),
    ("walkfield.cli", "write_samples_csv", "io.write_samples_csv",
     lambda a, k, r: os.path.getsize(a[1])),
    ("walkfield.cli", "read_samples_csv", "io.read_samples_csv",
     lambda a, k, r: os.path.getsize(a[0])),
    ("walkfield.cli", "write_manifest", "io.write_manifest", None),
    ("walkfield.cli", "write_json", "io.write_json", None),
    ("walkfield.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; single-threaded, parent taken from a stack."""

    def __init__(self):
        # span: [id, parent, name, start, end, tag, error, count]
        self.spans = []
        self.stack = []
        self.tag = None

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else None, name,
                    time.perf_counter(), None, self.tag, None, None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[7] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every target; returns a function that restores the originals."""
        saved = []
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def write(self, path):
        keys = ("id", "parent", "name", "start", "end", "tag", "error", "count")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans, each count and time taken per round."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[4] - s[3]
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    counted = defaultdict(float)
    for s in spans:
        for key in (s[2], f"{s[2]}.{s[5]}") if s[5] else (s[2],):
            calls[key] += 1
            busy[key] += s[4] - s[3]
            self_time[key] += s[4] - s[3] - child_time[s[0]]
            counted[key] += s[7] or 0

    def under(span, name):
        while span[1] is not None:
            span = by_id[span[1]]
            if span[2] == name:
                return True
        return False

    rejected = sum(
        1 for s in spans
        if s[6] and s[2].startswith("graph.")
        and under(s, "infer.genetics.fit_probit_genetics")
    )
    out = {}
    for name in ("graph.build_generator", "field.stationary_precision",
                 "infer.genetics.truncated_normal", "infer.genetics.category_probs",
                 "popsim.simulate_population.open", "popsim.simulate_population.closed"):
        out[f"{name}.calls"] = calls[name] / rounds
    for name in ("graph.build_generator", "graph.edge_rates_loglinear",
                 "graph.generator_from_rates", "field.stationary_precision",
                 "field.log_pseudo_det", "field.IntrinsicField", "field.sample_fields",
                 "field.log_density", "field.constrained_solve", "ident.verify_unique",
                 "ident.check_identifiable", "popsim.simulate_population.open",
                 "popsim.simulate_population.closed", "popsim.integrate_limit_ode",
                 "infer.gaussian.fit_gaussian", "infer.genetics.truncated_normal",
                 "infer.genetics.category_probs", "infer.diagnostics.compute_dic",
                 "infer.diagnostics.split_half_diagnostic", "io.write_samples_csv",
                 "io.read_samples_csv", "io.write_manifest"):
        out[f"{name}.busy_s"] = busy[name] / rounds
    for phase in ("open", "closed"):
        name = f"popsim.simulate_population.{phase}"
        out[f"popsim.{phase}.events"] = counted[name] / rounds
        out[f"popsim.{phase}.events_per_s"] = counted[name] / busy[name] if busy[name] else 0.0
    fit = "infer.gaussian.fit_gaussian"
    out["infer.gaussian.sweeps_per_s"] = counted[fit] / busy[fit] if busy[fit] else 0.0
    out["infer.genetics.fit_probit_genetics.self_s"] = (
        self_time["infer.genetics.fit_probit_genetics"] / rounds)
    out["infer.genetics.rejected_proposals"] = rejected / rounds
    out["ident.verify_unique.restarts"] = calls["ident.restart"] / rounds
    for name in ("io.write_samples_csv", "io.read_samples_csv"):
        out[f"{name}.bytes"] = counted[name] / rounds
    out["cli.self_s"] = self_time["cli.main"] / rounds
    out["trace.spans"] = len(spans) / rounds
    return out
