"""Span tracing of errest's layers from outside the package.

The traced run rebinds the module attributes that callers look up (for
example ``errest.trajectory.switch_fstats``, or ``SwitchReplay.snapshot``
on its class) to wrappers that record one span per call. Per-vote calls
such as ``SwitchReplay.apply`` are left alone; their work is counted from
the inputs and results of the wrapped calls around them.

A span is ``(span_id, name, start, end, parent_id, run_id)``; one run id
per CLI command. Spans stay in memory until the benchmark writes them out.
"""

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute path). The name is the metric prefix.
TARGETS = {
    "cli.run_estimate": ("errest.cli", "run_estimate"),
    "cli.run_simulate": ("errest.cli", "run_simulate"),
    "cli.run_pairs": ("errest.cli", "run_pairs"),
    "core.read_votes_csv": ("errest.core", "read_votes_csv"),
    "core.read_truth_csv": ("errest.core", "read_truth_csv"),
    "core.write_votes_csv": ("errest.core", "write_votes_csv"),
    "core.fstats_from_tally": ("errest.core", "fstats_from_tally"),
    "trajectory.evaluate_trajectory": ("errest.trajectory", "evaluate_trajectory"),
    "switch.SwitchReplay.snapshot": ("errest.switch", "SwitchReplay.snapshot"),
    "switch.switch_fstats": ("errest.switch", "switch_fstats"),
    "switch.switch_total_errors": ("errest.switch", "switch_total_errors"),
    "estimators.chao92": ("errest.estimators", "chao92"),
    "estimators.vchao92": ("errest.estimators", "vchao92"),
    "estimators.majority": ("errest.estimators", "majority"),
    "sim.simulate": ("errest.sim", "simulate"),
    "sim.permute_tasks": ("errest.sim", "permute_tasks"),
    "sim.GroundTruth.switches_needed": ("errest.sim", "GroundTruth.switches_needed"),
    "priority.draw_task": ("errest.priority", "draw_task"),
    "priority.partition": ("errest.priority", "partition"),
    "pairs.read_records_csv": ("errest.pairs", "read_records_csv"),
    "pairs.similarity": ("errest.pairs", "similarity"),
    "pairs.normalize_fields": ("errest.pairs", "normalize_fields"),
    "pairs.edit_distance": ("errest.pairs", "edit_distance"),
}

# Exact work counts, derived from a traced call's arguments and result.
WORK_COUNTS = {
    "core.read_votes_csv": ("core.votes_parsed", lambda args, result: len(result)),
    "trajectory.evaluate_trajectory": ("trajectory.prefixes", lambda args, result: len(result)),
    "switch.SwitchReplay.snapshot": (
        "switch.snapshot.events_built", lambda args, result: len(result.events)
    ),
    "pairs.edit_distance": (
        "pairs.edit_distance.cells", lambda args, result: len(args[0]) * len(args[1])
    ),
}

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    ("core.read_votes_csv.s", "s"),
    ("core.votes_parsed", "count"),
    ("core.read_truth_csv.s", "s"),
    ("trajectory.evaluate_trajectory.s", "s"),
    ("trajectory.evaluate_trajectory.self_s", "s"),
    ("trajectory.prefixes", "count"),
    ("switch.SwitchReplay.snapshot.s", "s"),
    ("switch.snapshot.events_built", "count"),
    ("switch.switch_fstats.s", "s"),
    ("switch.switch_fstats.calls", "count"),
    ("switch.switch_total_errors.s", "s"),
    ("core.fstats_from_tally.s", "s"),
    ("core.fstats_from_tally.calls", "count"),
    ("estimators.chao92.s", "s"),
    ("estimators.vchao92.s", "s"),
    ("estimators.majority.s", "s"),
    ("sim.GroundTruth.switches_needed.s", "s"),
    ("sim.simulate.s", "s"),
    ("sim.permute_tasks.s", "s"),
    ("priority.draw_task.s", "s"),
    ("priority.draw_task.calls", "count"),
    ("priority.partition.s", "s"),
    ("core.write_votes_csv.s", "s"),
    ("pairs.read_records_csv.s", "s"),
    ("pairs.similarity.s", "s"),
    ("pairs.similarity.calls", "count"),
    ("pairs.normalize_fields.calls", "count"),
    ("pairs.edit_distance.s", "s"),
    ("pairs.edit_distance.cells", "count"),
    ("cli.run_estimate.self_s", "s"),
    ("cli.run_simulate.self_s", "s"),
    ("cli.run_pairs.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly for every command of one seed.
EXACT_COUNTS = (
    "core.votes_parsed",
    "trajectory.prefixes",
    "switch.snapshot.events_built",
    "pairs.normalize_fields.calls",
    "pairs.edit_distance.cells",
)


class Tracer:
    """Records spans and work counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack = [-1]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = WORK_COUNTS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.run_id))
            if counter is not None:
                self.counts[self.run_id][counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target wherever an errest module holds a reference to it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "errest" or n.startswith("errest."))]
        for name, (mod_name, attr) in TARGETS.items():
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summaries(self) -> dict[int, Counter]:
        """Per run: each name's total time, self time and call count, plus the work counts."""
        child_time: Counter = Counter()
        for _, _, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for span_id, name, start, end, _, run_id in self.spans:
            run = out[run_id]
            run[f"{name}.s"] += end - start
            run[f"{name}.self_s"] += end - start - child_time[span_id]
            run[f"{name}.calls"] += 1
        for run_id, counts in self.counts.items():
            out[run_id].update(counts)
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, in id order, after a line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "name", "start", "end", "parent", "run"]\n')
            for span in sorted(self.spans):
                fh.write(json.dumps(span))
                fh.write("\n")
