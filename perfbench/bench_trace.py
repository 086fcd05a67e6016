"""Layer spans for the benchmark's traced run.

:func:`installed` wraps the public methods of each simulator layer's
classes with spans (name, start, end, parent, simulation id) and restores
the originals on exit.  It must be entered before any core is built:
``SuperscalarCore`` binds ``hierarchy.checker_probe`` into its checker when
a run starts, so a wrapper installed later would be bypassed.

Spans live in compact arrays in memory and are reduced to per-layer
counts, times and self times by :func:`layer_metrics`.  Campaign trials
that run in pool workers record into the worker's copy of the log (the
workers must be forked, the default start method on Linux, to inherit the
wrappers);
:func:`traced_point` ships those spans back inside the result row and the
wrapped :meth:`ResultsStore.append` strips them off and merges them before
the row is written, so the store on disk is unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

#: Row key under which a pool worker ships its spans to the parent.
SPANS_KEY = "_perfbench_spans"

#: The log :func:`traced_point` records into and the campaign point runner
#: it wraps.  Pool workers receive the point function by reference (it is
#: pickled by import path), so a worker can reach both only through a
#: module attribute; :func:`installed` sets it and clears it on exit.
_ACTIVE: "tuple[SpanLog, Callable] | None" = None


class SpanLog:
    """Spans kept in parallel arrays, indexed by span id.

    ``child_s`` accumulates, per span, the time its direct children took.
    Children recorded in this process run one after another, so their sum
    is the time they cover.  Spans merged from parallel pool workers
    overlap; their parents are listed in ``overlapping`` and their covered
    time is recomputed as an interval union by :func:`self_times`.
    """

    COLUMNS = ("name_of", "starts", "ends", "parents", "sims", "child_s")

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.sims = array("i")
        self.child_s = array("d")
        self.overlapping: set[int] = set()
        self.counters: Counter[str] = Counter()
        self.stack = [-1]
        self.sim = 0
        self.next_sim = 1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clear(self) -> None:
        """Drop every span and counter in place (wrappers hold the arrays)."""
        for column in self.COLUMNS:
            del getattr(self, column)[:]
        self.overlapping.clear()
        self.counters.clear()
        self.stack[:] = [-1]
        self.sim = 0

    def __len__(self) -> int:
        return len(self.starts)

    def export(self) -> dict[str, Any]:
        shipped = {column: getattr(self, column) for column in self.COLUMNS}
        return {**shipped, "names": list(self.names), "counters": dict(self.counters)}

    def merge(self, shipped: dict[str, Any]) -> None:
        """Append spans recorded in another process under the open span."""
        base = len(self)
        anchor = self.stack[-1]
        name_map = [self.name_id(name) for name in shipped["names"]]
        sim_map: dict[int, int] = {}
        for sim in shipped["sims"]:
            if sim and sim not in sim_map:
                sim_map[sim] = self.next_sim
                self.next_sim += 1
        self.name_of.extend(name_map[n] for n in shipped["name_of"])
        self.starts.extend(shipped["starts"])
        self.ends.extend(shipped["ends"])
        self.parents.extend(
            p + base if p >= 0 else anchor for p in shipped["parents"]
        )
        self.sims.extend(sim_map.get(s, 0) for s in shipped["sims"])
        self.child_s.extend(shipped["child_s"])
        if anchor >= 0:
            self.overlapping.add(anchor)
        self.counters.update(shipped["counters"])

    def wrap(
        self,
        name: str,
        fn: Callable,
        new_sim: bool = False,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``new_sim`` opens a
        simulation id when no simulation is open yet."""
        nid = self.name_id(name)
        name_of, starts, ends = self.name_of, self.starts, self.ends
        parents, sims, stack = self.parents, self.sims, self.stack
        child_s = self.child_s
        clock = time.perf_counter
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = new_sim and log.sim == 0
            if opened:
                log.sim = log.next_sim
                log.next_sim += 1
            index = len(starts)
            parent = stack[-1]
            name_of.append(nid)
            parents.append(parent)
            sims.append(log.sim)
            ends.append(0.0)
            child_s.append(0.0)
            stack.append(index)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ends[index] = clock()
                stack.pop()
                if parent >= 0:
                    child_s[parent] += end - start
                if opened:
                    log.sim = 0
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def write(self, header_path: Path) -> None:
        """Write the spans: a JSON header plus one raw array per column.

        Columns sit back to back in ``<header>.bin`` in the header's
        ``columns`` order, each ``count`` items of the given typecode in
        native byte order; times are ``time.perf_counter`` seconds.
        """
        data_path = header_path.with_suffix(".bin")
        with data_path.open("wb") as fh:
            for column in self.COLUMNS:
                getattr(self, column).tofile(fh)
        header = {
            "count": len(self),
            "data": data_path.name,
            "columns": [[c, getattr(self, c).typecode] for c in self.COLUMNS],
            "names": self.names,
            "counters": dict(self.counters),
        }
        header_path.write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")


class _TimedStream:
    """A wrong-path stream whose lazy synthesis is timed op by op."""

    __slots__ = ("_next", "_counters")

    def __init__(self, log: SpanLog, stream) -> None:
        self._next = log.wrap("workloads.wrong_path", stream.__next__)
        self._counters = log.counters

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self):
        op = self._next()  # an exhausted stream raises before the count
        self._counters["workloads.wrong_path_ops"] += 1
        return op


def _record_core_stats(log: SpanLog, stats) -> None:
    """Exact per-layer counts from one finished simulation."""
    c = log.counters
    c["core.cycles"] += stats.cycles
    c["core.cycles_skipped"] += stats.cycles_skipped
    c["core.sched_events"] += stats.sched_events
    c["core.loads_forwarded"] += stats.loads_forwarded
    c["core.mem_order_violations"] += stats.mem_order_violations
    c["recovery.checkpoints_taken"] += stats.checkpoints_taken
    c["recovery.squashed_ops"] += stats.squashed
    c["faults.injected"] += stats.faults_injected
    if stats.fault_model_enabled:
        c["faults.sdc"] += stats.fault_outcomes.get("sdc", 0)
    if stats.checker_slots_used or stats.checks_completed:
        c["checker.slots_used"] += stats.checker_slots_used
        c["checker.slot_cycles"] += stats.cycles * stats.issue_width
    memory = stats.memory
    accesses = memory.get("l1d_accesses", 0)
    c["memory.l1d_accesses"] += accesses
    c["memory.l1d_misses"] += round(memory.get("l1d_miss_rate", 0.0) * accesses)


def traced_point(config: dict[str, Any], timeout_s: float | None = None):
    """Campaign point runner that carries worker spans back in the row."""
    from repro.experiments import campaign

    if _ACTIVE is None:
        return campaign.execute_campaign_point(config, timeout_s)
    log, original = _ACTIVE
    in_worker = os.getpid() != log.pid
    if in_worker:
        log.clear()  # the fork copied the parent's spans; ship only ours
    kind = "experiments.trial" if config.get("kind") == "trial" else (
        "experiments.calibration"
    )
    row = log.wrap(kind, original, new_sim=True)(config, timeout_s)
    if row.get("status") == "ok" and kind == "experiments.trial":
        log.counters["experiments.trial_sim_cycles"] += row["result"]["cycles"]
    if in_worker:
        row[SPANS_KEY] = log.export()
    return row


@contextlib.contextmanager
def installed(log: SpanLog) -> Iterator[SpanLog]:
    """Wrap every traced layer entry point for the duration of the block."""
    global _ACTIVE
    import repro.workloads as workloads
    from repro.core.checker import Checker
    from repro.core.core import SuperscalarCore
    from repro.core.recovery import RecoveryManager
    import repro.experiments as experiments
    from repro.experiments import campaign
    from repro.experiments.store import ResultsStore
    from repro.faults import models
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.workloads.synthetic import WrongPathGenerator

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def method(cls: type, attr: str, name: str, **kwargs: Any) -> None:
        patch(cls, attr, log.wrap(name, cls.__dict__[attr], **kwargs))

    patch(experiments, "run_campaign",
          log.wrap("experiments.campaign", experiments.run_campaign))
    patch(workloads, "generate", log.wrap("workloads.generate", workloads.generate))
    iter_stream = WrongPathGenerator.iter_stream

    def timed_iter_stream(self, branch, seq, depth):
        log.counters["workloads.wrong_path_streams"] += 1
        return _TimedStream(log, iter_stream(self, branch, seq, depth))

    patch(WrongPathGenerator, "iter_stream", timed_iter_stream)
    method(
        SuperscalarCore,
        "run",
        "core.run",
        new_sim=True,
        on_return=functools.partial(_record_core_stats, log),
    )
    method(Checker, "issue", "checker.issue")
    method(Checker, "process_completions", "checker.process_completions")
    for attr in ("access", "ifetch", "checker_probe"):
        method(MemoryHierarchy, attr, f"memory.{attr}")
    for attr in ("note_commit", "squash_wrong_path", "recover_fault",
                 "recover_mem_violation"):
        method(RecoveryManager, attr, f"recovery.{attr}")
    fault_models = {
        cls
        for cls in vars(models).values()
        if isinstance(cls, type) and issubclass(cls, models.FaultModel)
    }
    for cls in fault_models:
        if "maybe_inject" in cls.__dict__:
            method(cls, "maybe_inject", "faults.maybe_inject")
    original_append = ResultsStore.append
    append_span = log.wrap("experiments.store_append", original_append)

    def append(self, row):
        shipped = row.pop(SPANS_KEY, None)
        if shipped is not None:
            log.merge(shipped)
        return append_span(self, row)

    patch(ResultsStore, "append", append)
    _ACTIVE = (log, campaign.execute_campaign_point)
    patch(campaign, "execute_campaign_point", traced_point)
    try:
        yield log
    finally:
        _ACTIVE = None
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(log: SpanLog) -> array:
    """Each span's duration minus the part its child spans cover.

    Children from parallel pool workers overlap, so for their parents the
    covered part is the union of the children's intervals, not their sum.
    """
    starts, ends, parents = log.starts, log.ends, log.parents
    out = array("d", (end - start - child for start, end, child
                      in zip(starts, ends, log.child_s)))
    intervals: dict[int, list[tuple[float, float]]] = {
        parent: [] for parent in log.overlapping
    }
    if intervals:
        for index, parent in enumerate(parents):
            if parent in intervals:
                intervals[parent].append((starts[index], ends[index]))
    for parent, spans in intervals.items():
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(spans):
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            elif end > cur_end:
                cur_end = end
        if cur_end is not None:
            covered += cur_end - cur_start
        out[parent] = ends[parent] - starts[parent] - covered
    return out


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(log: SpanLog, workers: int = 0) -> dict[str, tuple[float, str]]:
    """Per-layer counts, times and self times as ``name -> (value, unit)``."""
    own = self_times(log)
    calls: Counter[str] = Counter()
    total: defaultdict[str, float] = defaultdict(float)
    layer_self: defaultdict[str, float] = defaultdict(float)
    trials: list[float] = []
    names = log.names
    layers = [name.split(".", 1)[0] for name in names]
    for index, nid in enumerate(log.name_of):
        name = names[nid]
        duration = log.ends[index] - log.starts[index]
        calls[name] += 1
        total[name] += duration
        layer_self[layers[nid]] += own[index]
        if name == "experiments.trial":
            trials.append(duration)
    c = log.counters
    cycles = c["core.cycles"]
    steps = cycles - c["core.cycles_skipped"]
    points_s = total["experiments.trial"] + total["experiments.calibration"]
    campaign_s = total["experiments.campaign"]
    m: dict[str, tuple[float, str]] = {
        "workloads.generate_s": (total["workloads.generate"], "s"),
        "workloads.wrong_path_streams": (c["workloads.wrong_path_streams"], "count"),
        "workloads.wrong_path_ops": (c["workloads.wrong_path_ops"], "count"),
        "workloads.wrong_path_s": (total["workloads.wrong_path"], "s"),
        "core.run_s": (total["core.run"], "s"),
        "core.cycles": (cycles, "count"),
        "core.cycles_skipped": (c["core.cycles_skipped"], "count"),
        "core.steps": (steps, "count"),
        "core.skip_ratio": (c["core.cycles_skipped"] / cycles if cycles else 0.0, "ratio"),
        "core.sched_events": (c["core.sched_events"], "count"),
        "core.host_us_per_step": (total["core.run"] * 1e6 / steps if steps else 0.0, "us"),
        "core.loads_forwarded": (c["core.loads_forwarded"], "count"),
        "core.mem_order_violations": (c["core.mem_order_violations"], "count"),
        "checker.issue_calls": (calls["checker.issue"], "count"),
        "checker.issue_s": (total["checker.issue"], "s"),
        "checker.completions_s": (total["checker.process_completions"], "s"),
        "checker.slot_steal_rate": (
            c["checker.slots_used"] / c["checker.slot_cycles"]
            if c["checker.slot_cycles"] else 0.0,
            "ratio",
        ),
        "memory.l1d_miss_rate": (
            c["memory.l1d_misses"] / c["memory.l1d_accesses"]
            if c["memory.l1d_accesses"] else 0.0,
            "ratio",
        ),
        "recovery.s": (
            sum(total[n] for n in total if n.startswith("recovery.")), "s"
        ),
        "recovery.checkpoints_taken": (c["recovery.checkpoints_taken"], "count"),
        "recovery.squashed_ops": (c["recovery.squashed_ops"], "count"),
        "faults.inject_calls": (calls["faults.maybe_inject"], "count"),
        "faults.inject_s": (total["faults.maybe_inject"], "s"),
        "faults.injected": (c["faults.injected"], "count"),
        "faults.sdc_rate": (
            c["faults.sdc"] / c["faults.injected"] if c["faults.injected"] else 0.0,
            "ratio",
        ),
        "experiments.trial_samples": (len(trials), "count"),
        "experiments.trial_s_p50": (_percentile(trials, 50), "s"),
        "experiments.trial_s_p90": (_percentile(trials, 90), "s"),
        "experiments.calibration_s": (total["experiments.calibration"], "s"),
        "experiments.store_append_s": (total["experiments.store_append"], "s"),
        "experiments.dispatch_overhead_s": (
            campaign_s - points_s / workers if workers else 0.0, "s"
        ),
        "experiments.trial_sim_cycles": (c["experiments.trial_sim_cycles"], "count"),
    }
    for attr in ("access", "ifetch", "checker_probe"):
        m[f"memory.{attr}_calls"] = (calls[f"memory.{attr}"], "count")
        m[f"memory.{attr}_s"] = (total[f"memory.{attr}"], "s")
    for attr in ("note_commit", "squash_wrong_path", "recover_fault",
                 "recover_mem_violation"):
        m[f"recovery.{attr}_calls"] = (calls[f"recovery.{attr}"], "count")
    for layer in ("workloads", "core", "checker", "memory", "recovery", "faults",
                  "experiments"):
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m
