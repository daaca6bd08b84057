"""Span recorder for the traced run.

The recorder wraps functions of the affinemetrics layers from outside.
Each wrapped call is a span with a name, start, end, parent span and the
id of the CLI item it ran under.  A span's self time is its duration minus
the time its child spans cover.

Module-level functions are patched under every name a module of the
package binds them to, so calls from inside the defining module and from
importing modules are both seen.  ``expr``'s own binding of ``eval_ast``
is left alone: its recursive calls stay unwrapped and only outermost
evaluations are timed.  Jet methods are patched on the class.

Jet arithmetic and ``eval_ast`` run millions of times per pass, so their
spans are folded into per-name totals as they close instead of being kept
one by one; every other span is kept in memory and written out at the end.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time

# (module, function, keep each span); the span name is module.function
TARGETS = (
    ("expr", "parse_expression", True),
    ("expr", "eval_ast", False),
    ("jets", "compose_curve_in_surface", True),
    ("surfgeo", "surface_jets", True),
    ("surfgeo", "form_from_jets", True),
    ("surfgeo", "affine_first_fundamental", True),
    ("surfgeo", "fundamental_forms_euclid", True),
    ("curvegeo", "affine_integrand", True),
    ("curvegeo", "affine_arclength", True),
    ("curvegeo", "euclidean_frenet", True),
    ("numerics", "ode_solve", True),
    ("numerics", "quad_adaptive", True),
    ("commensurate", "integrate_commensurate", True),
    ("commensurate", "run_family", True),
    ("commensurate", "_condition_parts", True),
    ("commensurate", "solve_theta_dd", True),
    ("commensurate", "commensurate_residual", True),
    ("commensurate", "induced_arclength", True),
    ("identities", "integrand_routes_suite", True),
    ("identities", "lmn_route_suite", True),
    ("identities", "form_routes_suite", True),
    ("identities", "equiaffine_invariance_suite", True),
    ("identities", "reparam_law_suite", True),
    ("identities", "condition_routes_suite", True),
    ("identities", "reference_form_suite", True),
    ("cli", "main", True),
)
TERMINATIONS = ("completed", "AsymptoticProximity", "SingularDenominator",
                "DomainExit", "StepFailure")

# ROADMAP baseline of the three kernels, microseconds per call
ROADMAP_US = {"commensurate._condition_parts": 1536.0,
              "surfgeo.surface_jets.o3": 778.0,
              "jets.compose_curve_in_surface": 612.0}


def _span_names():
    names = [f"{module}.{func}" for module, func, _ in TARGETS]
    names[3:3] = ["jets.Jet1.__mul__", "jets.Jet2.__mul__", "jets.Jet2.func"]
    return names


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in _span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        if not name.startswith("identities."):
            units[f"{name}.self_s"] = "s"
        if name == "surfgeo.surface_jets":
            for order in (1, 2, 3):
                units[f"{name}.o{order}.calls"] = "count"
    units.update({
        "numerics.ode.steps_accepted": "count",
        "numerics.ode.steps_rejected": "count",
        "numerics.ode.accept_ratio": "ratio",
        "numerics.ode.rhs_calls": "count",
        "numerics.ode.rhs_per_step": "ratio",
        "commensurate.geom_evals_per_step": "ratio",
        "commensurate.nodes": "count",
    })
    for kind in TERMINATIONS:
        units[f"commensurate.terminations.{kind}"] = "count"
    units.update({
        "numerics.quad.evaluations": "count",
        "numerics.quad.panels": "count",
        "cli.bytes_written": "bytes",
    })
    for name in ROADMAP_US:
        units[f"{name}.us_per_call"] = "us"
    units["trace_overhead_ratio"] = "ratio"
    units["failed_ratio"] = "ratio"
    return units


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.stats = {}            # name -> [calls, total_s, self_s]
        self.spans = []            # (id, parent id, item, name, start, end)
        self.counts = collections.Counter()
        self.item = None
        self._stack = []           # open spans: [child_s, kept ancestor id]
        self._next_id = 0
        self._ode_depth = 0

    def wrap(self, name, fn, keep=True, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, outcome,
        seconds)`` sees the return value or the exception raised."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            outcome = None
            start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                stats[0] += 1
                stats[1] += seconds
                stats[2] += seconds - frame[0]
                if stack:
                    stack[-1][0] += seconds
                if keep:
                    spans.append((span_id, parent, self.item, name, start,
                                  end))
                if after is not None:
                    after(args, kwargs, outcome, seconds)

        return wrapper

    # hooks reading counts off arguments and returned objects

    def _after_surface_jets(self, args, kwargs, outcome, seconds):
        order = args[3] if len(args) > 3 else kwargs.get("order")
        self.counts[f"surface_jets.o{order}"] += 1
        if order == 3:
            self.counts["surface_jets.o3.seconds"] += seconds
            if self._ode_depth:
                self.counts["surface_jets.o3.in_ode"] += 1

    def _after_ode_solve(self, args, kwargs, outcome, seconds):
        result = getattr(outcome, "trace", outcome)
        if result is None or not hasattr(result, "n_steps"):
            return
        accepted = len(result.ts) - 1
        self.counts["ode.steps"] += result.n_steps
        self.counts["ode.accepted"] += accepted
        self.counts["ode.rhs"] += result.n_rhs

    def _after_integrate(self, args, kwargs, outcome, seconds):
        if hasattr(outcome, "nodes"):
            self.counts["nodes"] += len(outcome.nodes)
            self.counts[f"termination.{outcome.termination}"] += 1

    def _after_arclength(self, args, kwargs, outcome, seconds):
        if hasattr(outcome, "evaluations"):
            self.counts["quad.evaluations"] += outcome.evaluations

    def _counting_writes(self, write):
        # no span: writing stays in cli.main's self time
        def _write_atomic(path, text):
            self.counts["bytes_written"] += len(text.encode())
            return write(path, text)
        return _write_atomic

    def _counting_ode(self, fn):
        def ode_solve(*args, **kwargs):
            self._ode_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._ode_depth -= 1
        return ode_solve

    def install(self):
        """Patch every target in the loaded affinemetrics package."""
        pkg = importlib.import_module("affinemetrics")
        for module in ("expr", "jets", "surfgeo", "curvegeo", "numerics",
                       "commensurate", "identities", "cli"):
            importlib.import_module(f"affinemetrics.{module}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "affinemetrics" or n.startswith("affinemetrics.")]
        hooks = {"surface_jets": self._after_surface_jets,
                 "ode_solve": self._after_ode_solve,
                 "integrate_commensurate": self._after_integrate,
                 "affine_arclength": self._after_arclength,
                 "induced_arclength": self._after_arclength}
        for module, func, keep in TARGETS:
            home = sys.modules[f"affinemetrics.{module}"]
            original = getattr(home, func)
            inner = (self._counting_ode(original) if func == "ode_solve"
                     else original)
            wrapped = self.wrap(f"{module}.{func}", inner, keep,
                                hooks.get(func))
            for mod in modules:
                if mod.__name__ == "affinemetrics.expr" and func == "eval_ast":
                    continue
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapped)
        cli = sys.modules["affinemetrics.cli"]
        cli._write_atomic = self._counting_writes(cli._write_atomic)
        jet1, jet2 = pkg.Jet1, pkg.Jet2
        jet1.__mul__ = self.wrap("jets.Jet1.__mul__", jet1.__mul__, False)
        jet2.__mul__ = self.wrap("jets.Jet2.__mul__", jet2.__mul__, False)
        for func in sys.modules["affinemetrics.expr"].FUNCTIONS:
            setattr(jet2, func,
                    self.wrap("jets.Jet2.func", getattr(jet2, func), False))

    def count_output(self, text):
        """Bytes an item wrote to stdout and stderr."""
        self.counts["bytes_written"] += len(text.encode())


def layer_metrics(stats, counts, traced_wall_s, untraced_wall_s,
                  failed_ratio):
    """Every per-layer metric of metric_units(), as numbers, from a
    Recorder's ``stats`` and ``counts``."""
    out = {}
    for name in _span_names():
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        if not name.startswith("identities."):
            out[f"{name}.self_s"] = self_s
    c = collections.Counter(counts)
    for order in (1, 2, 3):
        out[f"surfgeo.surface_jets.o{order}.calls"] = c[
            f"surface_jets.o{order}"]
    accepted = c["ode.accepted"]
    out.update({
        "numerics.ode.steps_accepted": accepted,
        "numerics.ode.steps_rejected": c["ode.steps"] - accepted,
        "numerics.ode.accept_ratio": _ratio(accepted, c["ode.steps"]),
        "numerics.ode.rhs_calls": c["ode.rhs"],
        "numerics.ode.rhs_per_step": _ratio(c["ode.rhs"], accepted),
        "commensurate.geom_evals_per_step": _ratio(
            c["surface_jets.o3.in_ode"], accepted),
        "commensurate.nodes": c["nodes"],
    })
    for kind in TERMINATIONS:
        out[f"commensurate.terminations.{kind}"] = c[f"termination.{kind}"]
    out.update({
        "numerics.quad.evaluations": c["quad.evaluations"],
        # GK15: fifteen integrand evaluations per panel
        "numerics.quad.panels": c["quad.evaluations"] // 15,
        "cli.bytes_written": c["bytes_written"],
    })
    per_call = {
        "commensurate._condition_parts": (
            out["commensurate._condition_parts.total_s"],
            out["commensurate._condition_parts.calls"]),
        "surfgeo.surface_jets.o3": (c["surface_jets.o3.seconds"],
                                    c["surface_jets.o3"]),
        "jets.compose_curve_in_surface": (
            out["jets.compose_curve_in_surface.total_s"],
            out["jets.compose_curve_in_surface.calls"]),
    }
    for name, (seconds, calls) in per_call.items():
        out[f"{name}.us_per_call"] = _ratio(1e6 * seconds, calls)
    out["trace_overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    out["failed_ratio"] = failed_ratio
    return out


def _ratio(a, b):
    return a / b if b else 0.0
