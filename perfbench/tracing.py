"""In-memory spans around calls into wsngen's public functions.

A Tracer wraps every public function of every wsngen module in every module
namespace that binds it, so a call from the benchmark, or from one module
into another, records a span [function, start, end, parent span, op].
Nothing under src/ changes: install() swaps the wrappers in and uninstall()
puts the originals back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# Called once per generated value; a span there would cost more than the
# work it times.
PER_VALUE_HELPERS = frozenset({"exp_entry_from_uniform", "lcg_step"})

# span key (module.function) -> per-layer time metric
SPAN_METRICS = {
    "generator.derive_constants": "generator.derive_ms",
    "deployment.deploy_grid": "deployment.generate_ms",
    "deployment.deploy_nongrid": "deployment.generate_ms",
    "deployment.deployment_to_csv": "deployment.write_ms",
    "deployment.deployment_to_json": "deployment.write_ms",
    "deployment.points_from_csv": "deployment.read_ms",
    "deployment.deployment_from_json": "deployment.read_ms",
    "traffic.traffic_uniform": "traffic.generate_ms",
    "traffic.traffic_exponential_transform": "traffic.generate_ms",
    "traffic.traffic_exponential_recurrence": "traffic.generate_ms",
    "traffic.traffic_to_csv": "traffic.write_ms",
    "traffic.traffic_to_json": "traffic.write_ms",
    "traffic.matrix_from_csv": "traffic.read_ms",
    "traffic.traffic_from_json": "traffic.read_ms",
    "validation.run_suite": "validation.run_suite_ms",
    "topology.build_graph": "topology.build_ms",
    "topology.graph_to_csv": "topology.export_ms",
    "topology.graph_to_json": "topology.export_ms",
    "report.batch_row": "report.batch_row_ms",
    "report.render_report_text": "report.render_ms",
    "report.render_report_json": "report.render_ms",
    "cli.main": "cli.main_ms",
}

# batch_row's self time: its span minus the spans it caused
SELF_METRICS = {"report.batch_row": "report.self_ms"}


def _path_arg(args, kwargs, index):
    path = args[index] if len(args) > index else kwargs.get("path")
    return os.path.getsize(path) if path is not None else 0


def _suite_values(args, kwargs, result):
    data = args[0]
    if hasattr(data, "points"):
        return {"validation.values": 2 * len(data.points)}
    if hasattr(data, "values"):
        return {"validation.values": data.node_count * data.slot_count}
    return {"validation.values": len(data)}


# span key -> work counts taken from its arguments and result, after the span
COUNTERS = {
    "deployment.deploy_grid": lambda a, k, r: {"deployment.points": r.node_count},
    "deployment.deploy_nongrid": lambda a, k, r: {"deployment.points": r.node_count},
    "deployment.deployment_to_csv": lambda a, k, r: {"deployment.bytes": _path_arg(a, k, 1)},
    "deployment.deployment_to_json": lambda a, k, r: {"deployment.bytes": _path_arg(a, k, 1)},
    "traffic.traffic_uniform": lambda a, k, r: {"traffic.values": r.node_count * r.slot_count},
    "traffic.traffic_exponential_transform":
        lambda a, k, r: {"traffic.values": r.node_count * r.slot_count},
    "traffic.traffic_exponential_recurrence":
        lambda a, k, r: {"traffic.values": r.node_count * r.slot_count},
    "traffic.traffic_to_csv": lambda a, k, r: {"traffic.bytes": _path_arg(a, k, 1)},
    "traffic.traffic_to_json": lambda a, k, r: {"traffic.bytes": _path_arg(a, k, 1)},
    "validation.run_suite": _suite_values,
    "topology.build_graph": lambda a, k, r: {"topology.edges": len(r.edges)},
    "topology.graph_to_csv": lambda a, k, r: {"topology.export_bytes": _path_arg(a, k, 2)},
    "topology.graph_to_json": lambda a, k, r: {"topology.export_bytes": _path_arg(a, k, 2)},
}

TIME_METRICS = sorted(set(SPAN_METRICS.values()) | set(SELF_METRICS.values()))
COUNT_METRICS = sorted({"deployment.points", "deployment.bytes", "traffic.values", "traffic.bytes",
                        "validation.values", "topology.edges", "topology.export_bytes"})


class Tracer:
    def __init__(self, package):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.first_args: dict[str, tuple] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches = []
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]
        wrappers = {}

        def wrapper_of(obj):
            if not (inspect.isfunction(obj) and obj.__module__.startswith(prefix)
                    and not obj.__name__.startswith("_") and obj.__name__ not in PER_VALUE_HELPERS):
                return None
            if obj not in wrappers:
                wrappers[obj] = self._wrap(f"{obj.__module__[len(prefix):]}.{obj.__name__}", obj)
            return wrappers[obj]

        for module in modules:
            for name, obj in vars(module).items():
                if wrapper_of(obj) is not None:
                    self._patches.append((module.__dict__, name, obj, wrapper_of(obj)))
                elif isinstance(obj, dict):
                    # dispatch tables such as report._DEPLOYERS hold the functions themselves
                    for entry, value in obj.items():
                        if wrapper_of(value) is not None:
                            self._patches.append((obj, entry, value, wrapper_of(value)))

    def _wrap(self, key, fn):
        counter = COUNTERS.get(key)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([key, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            self.first_args.setdefault(key, (args, kwargs))
            if counter is not None:
                for name, amount in counter(args, kwargs, result).items():
                    self.counts[name] = self.counts.get(name, 0) + amount
            return result

        return traced

    def install(self) -> None:
        for namespace, name, _, wrapper in self._patches:
            namespace[name] = wrapper

    def uninstall(self) -> None:
        for namespace, name, original, _ in self._patches:
            namespace[name] = original

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Busy time (ms) and work counts per op, for every layer metric.

        A layer the workload never reaches reads 0.
        """
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = dict.fromkeys(TIME_METRICS, 0.0)
        for index, (key, start, end, _, _) in enumerate(self.spans):
            if key in SPAN_METRICS:
                total[SPAN_METRICS[key]] += end - start
            if key in SELF_METRICS:
                total[SELF_METRICS[key]] += end - start - child[index]
        out = {name: seconds * 1000.0 / ops for name, seconds in total.items()}
        out.update({name: self.counts.get(name, 0) / ops for name in COUNT_METRICS})
        return out
