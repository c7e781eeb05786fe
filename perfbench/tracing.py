"""Per-layer spans and counters, recorded from outside the program.

Each layer's public functions are wrapped under every name a caller looks
them up by: a call through ``candofsm.cli.generate_model`` and one through
``candofsm.generate.generate_model`` land in the same ``generate`` span.
Spans are kept in memory and written out when the run ends.  ``eval_expr``
gets no span: a verify pass makes millions of calls, so the engine-level
calls are counted and timed in aggregate and every call, recursive ones
included, is only counted.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
from time import perf_counter

# (layer, function, modules a caller looks the function up in).  The first
# module defines the function; the others re-export it to their callers.
LAYER_FUNCTIONS = (
    ("specio", "parse_spec", ("candofsm.specio",)),
    ("specio", "serialize_spec", ("candofsm.specio",)),
    ("specio", "write_trace_csv", ("candofsm.specio", "candofsm.cli")),
    ("specio", "read_trace_csv", ("candofsm.specio", "candofsm.cli")),
    ("fsm", "check_roster", ("candofsm.fsm", "candofsm.cli")),
    ("fsm", "check_statemap", ("candofsm.fsm", "candofsm.cli")),
    ("fsm", "check_totality", ("candofsm.fsm", "candofsm.cli")),
    ("fsm", "check_cando", ("candofsm.fsm", "candofsm.cli")),
    ("generate", "generate_model", ("candofsm.generate", "candofsm.cli")),
    ("generate", "render_requirements_markdown", ("candofsm.generate", "candofsm.cli")),
    ("opmodel", "run", ("candofsm.opmodel",)),
    ("opmodel", "step", ("candofsm.opmodel",)),
    ("reqs.engine", "run_requirements_trace", ("candofsm.reqs.engine",)),
    ("reqs.engine", "fire_round", ("candofsm.reqs.engine",)),
    ("trace", "diff", ("candofsm.trace", "candofsm.cli")),
)

# Every per-layer metric a traced pass yields, with its unit.
LAYER_METRICS = {
    "reqs.engine.run_ms": "ms",
    "reqs.engine.rounds": "count",
    "reqs.engine.round_us": "us",
    "reqs.engine.fire_round_p50_us": "us",
    "reqs.engine.fire_round_max_us": "us",
    "reqs.engine.evals": "count",
    "reqs.engine.eval_ms": "ms",
    "reqs.engine.self_ms": "ms",
    "reqs.engine.fired": "count",
    "reqs.engine.fire_ratio": "ratio",
    "reqs.expr.evals": "count",
    "generate.model_ms": "ms",
    "generate.calls": "count",
    "generate.requirements": "count",
    "generate.render_ms": "ms",
    "specio.parse_ms": "ms",
    "specio.serialize_ms": "ms",
    "specio.csv_ms": "ms",
    "fsm.check_ms": "ms",
    "fsm.violations": "count",
    "opmodel.run_ms": "ms",
    "opmodel.rounds": "count",
    "opmodel.round_us": "us",
    "opmodel.step_us": "us",
    "trace.diff_ms": "ms",
    "trace.rows_compared": "count",
    "trace.diff_entries": "count",
}

# Counts that must repeat exactly from pass to pass, run to run and under
# any hash seed, for a fixed workload and seed.
EXACT_COUNTS = (
    "generate.requirements",
    "reqs.engine.rounds",
    "reqs.engine.evals",
    "reqs.expr.evals",
    "opmodel.rounds",
    "trace.rows_compared",
)


def _rows(trace_or_rows) -> int:
    return len(getattr(trace_or_rows, "rows", trace_or_rows))


def _observe(name: str, outermost: bool, args, result, counts: dict) -> None:
    """Record the outcome counts a layer call produced."""
    if name == "fire_round":
        counts["reqs.engine.fired"] += len(result.fired)
    elif name == "generate_model":
        counts["generate.requirements"] = len(result[0].requirements)
    elif name.startswith("check_") and outermost:
        counts["fsm.violations"] += len(result)
    elif name == "run":
        counts["opmodel.rounds"] += len(result.rows) - 1
    elif name == "step":
        counts["opmodel.rounds"] += 1
    elif name == "diff":
        counts["trace.rows_compared"] += min(_rows(args[0]), _rows(args[1]))
        counts["trace.diff_entries"] += len(result)


class Tracer:
    """Installs the layer wrappers for one pass at a time.

    ``with tracer.traced_pass(): ...`` patches every layer function, runs the
    body, restores the originals and appends the pass's metrics to
    ``tracer.passes``.  Spans of all passes stay in ``tracer.spans`` as
    ``(parent, layer, function, start, end)`` with times in seconds from
    the tracer's creation and ``parent`` the index of the enclosing span
    or -1.
    """

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list = []
        self.passes: list[dict[str, float]] = []
        self._pass_starts: list[int] = []

    def traced_pass(self):
        return _TracedPass(self)

    def scale_last(self, factor: float) -> None:
        """Convert the last pass's times by ``factor``, as its wall time was."""
        last = self.passes[-1]
        for name, unit in LAYER_METRICS.items():
            if unit in ("ms", "us"):
                last[name] *= factor

    def summary(self) -> dict[str, float]:
        """Median of each per-layer metric over the traced passes; counts
        take the lower median, so they stay whole."""
        return {name: (statistics.median_low if unit == "count" else statistics.median)(
                    [p[name] for p in self.passes])
                for name, unit in LAYER_METRICS.items()}

    def write(self, path, **about) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**about, "pass_starts": self._pass_starts,
                       "fields": ["parent", "layer", "function", "start_s", "end_s"],
                       "spans": self.spans}, fh)


class _TracedPass:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.outermost: list[bool] = []
        self.counts = dict.fromkeys(
            ("reqs.engine.fired", "generate.requirements", "fsm.violations",
             "opmodel.rounds", "trace.rows_compared", "trace.diff_entries"), 0)
        self.engine_calls = itertools.count()
        self.all_calls = itertools.count()
        self.eval_seconds = 0.0

    def __enter__(self):
        self.first_span = len(self.tracer.spans)
        self.tracer._pass_starts.append(self.first_span)
        for layer, name, modules in LAYER_FUNCTIONS:
            home = importlib.import_module(modules[0])
            original = getattr(home, name)
            wrapper = self._span_wrapper(layer, name, original)
            for module_name in modules:
                module = importlib.import_module(module_name)
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapper)
        self._patch_eval_expr()
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self.saved):
            setattr(module, name, original)
        self.saved.clear()
        if exc[0] is None:
            self.tracer.passes.append(self._metrics())
        return False

    def _patch(self, module, name, replacement) -> None:
        self.saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _span_wrapper(self, layer, name, fn):
        spans, stack, depth = self.tracer.spans, self.stack, self.depth
        origin, counts, outermost_flags = self.tracer.origin, self.counts, self.outermost

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            outermost = not depth.get(layer)
            outermost_flags.append(outermost)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth[layer] = depth.get(layer, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[layer] -= 1
                stack.pop()
                spans[index] = (parent, layer, name, start - origin, end - origin)
            _observe(name, outermost, args, result, counts)
            return result

        return traced

    def _patch_eval_expr(self) -> None:
        engine = importlib.import_module("candofsm.reqs.engine")
        expr = importlib.import_module("candofsm.reqs.expr")
        original = expr.eval_expr
        all_calls, engine_calls = self.all_calls, self.engine_calls

        # The evaluator recurses through its module global, so this wrapper
        # sees every nested call.
        def counted(node, ctx):
            next(all_calls)
            return original(node, ctx)

        def engine_eval(node, ctx):
            next(engine_calls)
            start = perf_counter()
            try:
                return counted(node, ctx)
            finally:
                self.eval_seconds += perf_counter() - start

        self._patch(expr, "eval_expr", counted)
        self._patch(engine, "eval_expr", engine_eval)

    def _metrics(self) -> dict[str, float]:
        spans = self.tracer.spans[self.first_span:]
        flags = self.outermost

        def durations(name):
            return [end - start for (_, _, fn, start, end) in spans if fn == name]

        def layer_ms(layer):
            return 1e3 * sum(end - start for (_, ly, _, start, end), top
                             in zip(spans, flags) if ly == layer and top)

        fire = durations("fire_round")
        steps = durations("step")
        engine_evals = next(self.engine_calls)
        eval_ms = 1e3 * self.eval_seconds
        fired = self.counts["reqs.engine.fired"]
        reqs_ms = layer_ms("reqs.engine")
        ops_ms = layer_ms("opmodel")
        ops_rounds = self.counts["opmodel.rounds"]
        return {
            "reqs.engine.run_ms": reqs_ms,
            "reqs.engine.rounds": len(fire),
            "reqs.engine.round_us": 1e3 * reqs_ms / len(fire) if fire else 0.0,
            "reqs.engine.fire_round_p50_us": 1e6 * statistics.median(fire) if fire else 0.0,
            "reqs.engine.fire_round_max_us": 1e6 * max(fire) if fire else 0.0,
            "reqs.engine.evals": engine_evals,
            "reqs.engine.eval_ms": eval_ms,
            "reqs.engine.self_ms": 1e3 * sum(fire) - eval_ms,
            "reqs.engine.fired": fired,
            "reqs.engine.fire_ratio": fired / engine_evals if engine_evals else 0.0,
            "reqs.expr.evals": next(self.all_calls),
            "generate.model_ms": 1e3 * sum(durations("generate_model")),
            "generate.calls": len(durations("generate_model")),
            "generate.requirements": self.counts["generate.requirements"],
            "generate.render_ms": 1e3 * sum(durations("render_requirements_markdown")),
            "specio.parse_ms": 1e3 * sum(durations("parse_spec")),
            "specio.serialize_ms": 1e3 * sum(durations("serialize_spec")),
            "specio.csv_ms": 1e3 * sum(durations("write_trace_csv")
                                       + durations("read_trace_csv")),
            "fsm.check_ms": layer_ms("fsm"),
            "fsm.violations": self.counts["fsm.violations"],
            "opmodel.run_ms": ops_ms,
            "opmodel.rounds": ops_rounds,
            "opmodel.round_us": 1e3 * ops_ms / ops_rounds if ops_rounds else 0.0,
            "opmodel.step_us": 1e6 * statistics.fmean(steps) if steps else 0.0,
            "trace.diff_ms": layer_ms("trace"),
            "trace.rows_compared": self.counts["trace.rows_compared"],
            "trace.diff_entries": self.counts["trace.diff_entries"],
        }
