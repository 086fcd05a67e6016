"""Time-sharded parallel simulation of a single trace.

``run_sharded_experiment`` splits one :class:`~repro.simulate.Experiment`'s
op budget into N contiguous windows, simulates each window in its own
worker process, and merges the per-shard
:class:`~repro.core.stats.CoreStats` into one result dict with the same
shape :func:`repro.simulate.run_experiment` produces.

Each worker reconstructs its slice of the monolithic run exactly:

* the main op stream via :meth:`TraceGenerator.fast_forward` — shard *k*
  synthesizes ``trace[fetch_start:end]`` without building the prefix;
* wrong-path streams via :class:`~repro.simulate.OffsetWrongPathSource`
  (``build_core``'s ``wrong_path_offset``), which re-keys
  each branch's stream by its *monolithic* sequence number, so a shard
  fetches byte-identical wrong-path work to the monolithic run;
* alias-pair addresses fall out of the main-stream fast-forward (they are
  a pure function of the static program and the iteration index).

Shards with index >= 1 prepend a ``warmup`` op prefix whose statistics
are discarded at a commit-aligned boundary
(:meth:`SuperscalarCore.run_window`), so their measured windows start
from plausibly-warm caches, predictor, store sets, and checker pipeline
instead of a cold machine.  ``--shards 1`` (no warmup, no pool) is
bit-identical to the monolithic path; N > 1 is an explicitly approximate
fast mode — cold-boundary effects and per-shard fault-RNG divergence are
real — whose error is measured and gated by the ``sharded`` bench config.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace

from repro.core.stats import CoreStats
from repro.experiments.runner import PointTimeout, _wall_clock_limit
from repro.obs import ObsSession, PipelineTracer
from repro.parallel.merge import merge_core_stats
from repro.simulate import Experiment, build_core, experiment_result, run_params
from repro.workloads.synthetic import TraceGenerator

#: Default warm-start prefix (ops) for shards with index >= 1.  Sized on
#: the big-core bench trace (branchy, 100k ops, 200-cycle memory): the
#: cold-start transient there needs ~5k ops before per-window IPC is
#: within 1% of the monolithic run's same window.
DEFAULT_SHARD_WARMUP = 5_000


@dataclass(frozen=True, slots=True)
class ShardWindow:
    """One shard's slice of the op budget.

    ``start``/``length`` delimit the measured window in monolithic trace
    offsets; ``warmup`` ops before ``start`` are additionally simulated
    (never more than exist: shard 0 has none to run).
    """

    index: int
    start: int
    length: int
    warmup: int

    @property
    def fetch_start(self) -> int:
        """Monolithic offset of the first op the shard actually fetches."""
        return self.start - self.warmup


def plan_shards(num_ops: int, shards: int, warmup: int) -> list[ShardWindow]:
    """Split ``[0, num_ops)`` into ``shards`` contiguous windows.

    The remainder of an uneven split goes to the earliest shards, one op
    each, so window lengths differ by at most one.  Each shard's warmup is
    clipped to the ops that exist before its window (shard 0 gets none).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    if num_ops < 0:
        raise ValueError(f"num_ops must be non-negative, got {num_ops}")
    base, extra = divmod(num_ops, shards)
    windows: list[ShardWindow] = []
    start = 0
    for index in range(shards):
        length = base + (1 if index < extra else 0)
        windows.append(
            ShardWindow(
                index=index, start=start, length=length, warmup=min(warmup, start)
            )
        )
        start += length
    return windows


@dataclass(slots=True)
class _ShardTask:
    """Everything one worker needs to simulate one shard (picklable)."""

    window: ShardWindow
    #: The run, with this shard's fault seed.
    experiment: Experiment
    collect_trace: bool
    #: ``--trace-ops`` window in *monolithic* seq coordinates (or None);
    #: the worker translates it into shard-local seqs before tracing.
    trace_ops: tuple[int, int] | None
    timeout_s: float | None


@dataclass(slots=True)
class _ShardResult:
    """One worker's answer: per-mode window stats plus trace rows."""

    index: int
    error: str | None = None
    unchecked: CoreStats | None = None
    checked: CoreStats | None = None
    #: Total simulated cycles per mode *including* warmup (window stats
    #: only cover the measured span; obs lanes need the full extent).
    total_cycles: dict[str, int] = field(default_factory=dict)
    #: Per-mode (op rows, instant events) captured by the shard's tracers.
    trace_rows: dict[str, tuple[list, list]] = field(default_factory=dict)
    wall_s: float = 0.0


def _execute_shard(task: _ShardTask) -> _ShardResult:
    """Simulate one shard's window; top-level so pools can pickle it.

    Exceptions (including the wall-clock budget) become an ``error``
    string — the parent raises one RuntimeError naming every failed shard
    instead of a half-merged result.
    """
    window = task.window
    exp = task.experiment
    result = _ShardResult(index=window.index)
    started = time.perf_counter()
    try:
        with _wall_clock_limit(task.timeout_s):
            generator = TraceGenerator(exp.profile, seed=exp.seed)
            generator.fast_forward(window.fetch_start)
            trace = [
                generator.next_op() for _ in range(window.warmup + window.length)
            ]
            # Shard-local seqs are monolithic seqs minus the fetch offset,
            # so the --trace-ops window translates by the same shift (a
            # negative bound is harmless: local seqs start at 0).
            local_trace_ops = None
            if task.trace_ops is not None:
                lo, hi = task.trace_ops
                local_trace_ops = (lo - window.fetch_start, hi - window.fetch_start)
            for mode in ("unchecked", "checked") if exp.check else ("unchecked",):
                tracer = (
                    PipelineTracer(mode, seq_range=local_trace_ops)
                    if task.collect_trace
                    else None
                )
                core = build_core(
                    exp,
                    mode == "checked",
                    wrong_path_offset=window.fetch_start,
                    tracer=tracer,
                )
                stats = core.run_window(trace, warmup_ops=window.warmup)
                setattr(result, mode, stats)
                result.total_cycles[mode] = core._now
                if tracer is not None:
                    result.trace_rows[mode] = (tracer.ops, tracer.events)
    except PointTimeout:
        result.error = (
            f"timeout: shard exceeded its {task.timeout_s}s wall-clock budget"
        )
    except Exception as exc:  # crash isolation: the parent reports which shard
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_s = time.perf_counter() - started
    return result


def _retry_shard(task: _ShardTask) -> _ShardResult:
    """Re-run one failed shard in a fresh single-worker pool.

    A shard that died with the rest of a crashed pool (OOM kill, broken
    pipe) often succeeds alone; pool-level failures here become an error
    result so the caller can fall through to in-process execution.
    """
    try:
        with multiprocessing.Pool(processes=1) as pool:
            return pool.apply(_execute_shard, (task,))
    except Exception as exc:
        result = _ShardResult(index=task.window.index)
        result.error = f"retry pool failed — {type(exc).__name__}: {exc}"
        return result


def _degrade_failed_shards(
    tasks: list[_ShardTask], shard_results: list[_ShardResult]
) -> tuple[int, int]:
    """Retry each failed shard once, then fall back to in-process execution.

    Returns ``(retries, fallbacks)``.  Results are repaired in place; a
    shard whose in-process fallback *also* fails keeps its error and the
    caller raises as before — degradation never hides a deterministic
    failure (a bad config fails identically everywhere).
    """
    retries = 0
    fallbacks = 0
    for position, result in enumerate(shard_results):
        if result.error is None:
            continue
        task = tasks[position]
        retries += 1
        repaired = _retry_shard(task)
        if repaired.error is not None:
            fallbacks += 1
            repaired = _execute_shard(task)
        shard_results[position] = repaired
    return retries, fallbacks


def _host_shard_tracers(
    shard_results: list[_ShardResult], obs: ObsSession, check: bool
) -> None:
    """Re-host worker trace rows as per-shard tracers with offset stamps.

    Each shard becomes its own Perfetto lane group (``unchecked.shard0``,
    ``unchecked.shard1``, …); within a mode, shard *k*'s timestamps are
    shifted by the total simulated cycles of the shards before it, so the
    lanes line up end-to-end in monolithic-run order instead of all
    starting at cycle 0.
    """
    modes = ["unchecked"] + (["checked"] if check else [])
    for mode in modes:
        offset = 0
        for result in shard_results:
            rows, events = result.trace_rows.get(mode, ([], []))
            tracer = PipelineTracer(f"{mode}.shard{result.index}")
            tracer.ops = [_offset_row(row, offset) for row in rows]
            tracer.events = [
                (name, cycle + offset, args) for name, cycle, args in events
            ]
            obs.tracers.append(tracer)
            offset += result.total_cycles.get(mode, 0)


def _offset_row(row: dict, offset: int) -> dict:
    """Shift every per-op cycle stamp (``*_at`` keys) by ``offset``."""
    if not offset:
        return row
    shifted = dict(row)
    for key, value in row.items():
        if key.endswith("_at") and value is not None:
            shifted[key] = value + offset
    return shifted


def run_sharded_experiment(
    exp: Experiment,
    shards: int = 1,
    warmup: int = DEFAULT_SHARD_WARMUP,
    workers: int | None = None,
    timeout_s: float | None = None,
    obs: ObsSession | None = None,
) -> dict:
    """Run ``exp`` time-sharded across processes.

    The returned dict has exactly :func:`repro.simulate.run_experiment`'s shape
    (preset/ops/seed/wrong_path/params/unchecked[/checked/slowdown/
    fault_coverage]); with ``shards > 1`` a ``"sharding"`` block is
    appended describing the split and per-shard wall times.  With
    ``shards == 1`` everything runs in-process with zero warmup and the
    result is bit-identical to the monolithic path.
    """
    windows = plan_shards(exp.ops, shards, warmup if shards > 1 else 0)
    collect_trace = obs is not None and obs.wants_tracing
    tasks = [
        _ShardTask(
            window=window,
            # Shard 0 keeps the monolithic fault seed: it replays the trace
            # from op 0, so the injector's draw stream lines up exactly and
            # the --shards 1 path stays bit-identical.  Later shards get a
            # decorrelated per-shard stream — replaying the monolithic
            # *prefix* stream in every shard would both correlate their
            # fault placements and make late-stream faults unreachable,
            # biasing the merged fault count low.
            experiment=replace(
                exp, fault_seed=exp.checker_seed + 0xF5EED * window.index
            ),
            collect_trace=collect_trace,
            trace_ops=obs.trace_ops if obs is not None else None,
            timeout_s=timeout_s,
        )
        for window in windows
    ]
    started = time.perf_counter()
    pool_size = min(workers or shards, shards)
    if pool_size <= 1 or shards <= 1:
        shard_results = [_execute_shard(task) for task in tasks]
    else:
        # Same ordered-map discipline as the sweep runner: results come
        # back in shard order regardless of completion order or pool size.
        try:
            with multiprocessing.Pool(processes=pool_size) as pool:
                shard_results = pool.map(_execute_shard, tasks, chunksize=1)
        except Exception as exc:
            # A pool-level crash (a worker killed hard enough to break the
            # pool itself) loses every result; synthesize error results so
            # the degradation pass below re-runs each shard individually.
            shard_results = []
            for task in tasks:
                result = _ShardResult(index=task.window.index)
                result.error = f"pool crashed — {type(exc).__name__}: {exc}"
                shard_results.append(result)
    shard_retries = 0
    shard_fallbacks = 0
    if shards > 1:
        shard_retries, shard_fallbacks = _degrade_failed_shards(tasks, shard_results)
    wall_s = time.perf_counter() - started
    failed = [result for result in shard_results if result.error is not None]
    if failed:
        details = "; ".join(f"shard {r.index}: {r.error}" for r in failed)
        raise RuntimeError(f"{len(failed)} shard(s) failed — {details}")
    unchecked = merge_core_stats([result.unchecked for result in shard_results])
    checked = (
        merge_core_stats([result.checked for result in shard_results])
        if exp.check
        else None
    )
    # The reported params are shard 0's, i.e. the monolithic run's.
    result = experiment_result(exp, run_params(exp, exp.check), unchecked, checked)
    if shards > 1:
        result["sharding"] = {
            "shards": shards,
            "warmup_ops": warmup,
            "workers": pool_size,
            "host_cpus": os.cpu_count(),
            "retries": shard_retries,
            "fallbacks": shard_fallbacks,
            "wall_s": round(wall_s, 4),
            "windows": [
                {
                    "start": window.start,
                    "length": window.length,
                    "warmup": window.warmup,
                    "wall_s": round(result_.wall_s, 4),
                }
                for window, result_ in zip(windows, shard_results)
            ],
        }
    if obs is not None:
        if collect_trace:
            _host_shard_tracers(shard_results, obs, exp.check)
        unchecked.register_metrics(obs.registry, "unchecked.")
        if checked is not None:
            checked.register_metrics(obs.registry, "checked.")
    return result
