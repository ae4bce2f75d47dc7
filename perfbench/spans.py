"""In-memory spans around the public functions of the six streamfdr modules.

Each function is wrapped where its caller looks it up (for example
``streamfdr.simulation.make_mixture``, which ``run_cell`` calls through its
module globals), so the package itself is not edited. A span records
``(unit, id, parent, name, start_ns, end_ns, size, hits)``: ``unit`` is the
traced unit of work (one `simulate` call, one stream pass, one block of
steps), ``size`` the decisions or schedule values the call handled and
``hits`` its rejections. Spans stay in memory until ``write_spans`` at the
end.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict

LAYERS = ("cli", "simulation", "distributions", "metrics", "engines", "schedules")


# size/hits of one call, from its arguments and result.
def _levels(args, kwargs, result):
    return len(args[0]), int(result[1].sum())


def _mask(args, kwargs, result):
    return len(args[0]), int(result.sum())


def _step(args, kwargs, result):
    return 1, int(result.rejected)


def _slice(args, kwargs, result):
    return len(result), 0


def _one(args, kwargs, result):
    return 1, 0


# (module, attribute path, span name, measure). The attribute path is where
# the caller looks the function up; a dotted path patches a class attribute.
PATCH_POINTS = (
    ("streamfdr.cli", "main", "cli.main", None),
    ("streamfdr.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("streamfdr.cli", "cmd_stream", "cli.cmd_stream", None),
    ("streamfdr.cli", "parse_config", "cli.parse_config", None),
    ("streamfdr.cli", "run_grid", "simulation.run_grid", None),
    ("streamfdr.cli", "write_csv", "simulation.write_csv", None),
    ("streamfdr.cli", "lond_step", "engines.lond_step", _step),
    ("streamfdr.cli", "lord_step", "engines.lord_step", _step),
    ("streamfdr.cli", "make_power_schedule", "schedules.make_power_schedule", None),
    ("streamfdr.cli", "make_adaptive_schedule", "schedules.make_adaptive_schedule", None),
    ("streamfdr.simulation", "run_cell", "simulation.run_cell", None),
    ("streamfdr.simulation", "make_mixture", "simulation.make_mixture", None),
    ("streamfdr.simulation", "gg_sample", "distributions.gg_sample", None),
    ("streamfdr.simulation", "pvalue", "distributions.pvalue", None),
    ("streamfdr.simulation", "TruthLabels", "metrics.TruthLabels", None),
    ("streamfdr.simulation", "lord_levels", "engines.lord_levels", _levels),
    ("streamfdr.simulation", "lond_levels", "engines.lond_levels", _levels),
    ("streamfdr.simulation", "bh_mask", "engines.bh_mask", _mask),
    ("streamfdr.simulation", "fdp_fnp_from_mask", "metrics.fdp_fnp_from_mask", None),
    ("streamfdr.simulation", "pool", "metrics.pool", None),
    ("streamfdr.simulation", "make_power_schedule", "schedules.make_power_schedule", None),
    ("streamfdr.simulation", "make_adaptive_schedule", "schedules.make_adaptive_schedule", None),
    ("streamfdr.metrics", "TruthLabels.signal_mask", "metrics.signal_mask", None),
    ("streamfdr.engines", "lond_step", "engines.lond_step", _step),
    ("streamfdr.engines", "lord_step", "engines.lord_step", _step),
    ("streamfdr.schedules", "LambdaSchedule.slice", "schedules.slice", _slice),
    ("streamfdr.schedules", "LambdaSchedule.lambda_at", "schedules.lambda_at", _one),
)

LEVELS = ("engines.lord_levels", "engines.lond_levels")
STEPS = ("engines.lond_step", "engines.lord_step")
ENGINE_CALLS = LEVELS + STEPS + ("engines.bh_mask",)
SCHEDULE_READS = ("schedules.slice", "schedules.lambda_at")


class Tracer:
    """Wraps the patch points while installed and keeps their spans."""

    def __init__(self):
        self.spans = []
        self.unit = 0
        self.missing = []  # patch points this version of the package lacks
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved = []

    def _wrap(self, name, fn, measure):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            size, hits = measure(args, kwargs, result) if measure else (0, 0)
            spans.append((self.unit, sid, parent, name, start, end, size, hits))
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, measure in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def write_spans(path, spans) -> None:
    """Write spans as tab-separated lines, one per span."""
    with open(path, "w") as handle:
        handle.write("unit\tid\tparent\tname\tstart_ns\tend_ns\tsize\thits\n")
        for span in spans:
            handle.write("\t".join(map(str, span)) + "\n")


def read_spans(path) -> list[tuple]:
    spans = []
    with open(path) as handle:
        next(handle)
        for line in handle:
            u, sid, parent, name, start, end, size, hits = line.rstrip("\n").split("\t")
            spans.append((int(u), int(sid), int(parent), name, int(start), int(end), int(size), int(hits)))
    return spans


def function_table(spans) -> dict:
    """Per span name: calls, inclusive and self time, size and hits.

    A span's self time is its duration minus the durations of its direct
    children. Span ids are unique within a unit.
    """
    child_ns = defaultdict(int)
    for unit, _, parent, _, start, end, _, _ in spans:
        child_ns[unit, parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "size": 0, "hits": 0})
    for unit, sid, _, name, start, end, size, hits in spans:
        row = table[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[unit, sid]
        row["size"] += size
        row["hits"] += hits
    return dict(table)


def layer_metrics(spans, replicates: int) -> dict:
    """The per-layer metrics of a set of traced units.

    ``replicates`` is the number of (cell, replicate) datasets the traced
    units' CSV rows describe (0 outside `simulate`). A layer's share is its self time over
    the time of all outermost spans. Counts come from the first traced
    unit, so they repeat exactly for a given seed.
    """
    table = function_table(spans)
    first_unit = min((s[0] for s in spans), default=0)
    first = function_table([s for s in spans if s[0] == first_unit])

    def total(names, key, source=table):
        return sum(source[name][key] for name in names if name in source)

    self_by_layer = defaultdict(int)
    for name, row in table.items():
        self_by_layer[name.split(".")[0]] += row["self_ns"]
    decisions = total(ENGINE_CALLS, "size")
    scheduled = total(LEVELS + STEPS, "size")
    levels_ids = {(s[0], s[1]) for s in spans if s[3] in LEVELS}
    slices_in_levels = sum(1 for s in spans if s[3] == "schedules.slice" and (s[0], s[2]) in levels_ids)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "engines.self_us_per_decision": (ratio(self_by_layer["engines"] / 1e3, decisions), "us"),
        "schedules.lookup_us_per_decision": (ratio(total(SCHEDULE_READS, "self_ns") / 1e3, decisions), "us"),
        "engines.discoveries": (total(LEVELS + STEPS, "hits", first), "count"),
        "engines.scan_blocks": (ratio(slices_in_levels, total(LEVELS, "calls")), "count"),
        "engines.scan_values_per_decision": (ratio(total(SCHEDULE_READS, "size"), scheduled), "count"),
        "simulation.make_mixture_calls_per_replicate": (
            ratio(total(("simulation.make_mixture",), "calls"), replicates), "count"),
    }
    traced_ns = sum(s[5] - s[4] for s in spans if s[2] == 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (ratio(100.0 * self_by_layer[layer], traced_ns), "%")
    return metrics
