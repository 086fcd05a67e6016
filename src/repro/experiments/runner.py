"""Multiprocess point execution for sweeps and campaigns.

``run_sweep`` expands a :class:`~repro.experiments.spec.SweepSpec`, drops
every point whose config hash is already in the store (resume/caching),
and fans the rest out over a :mod:`multiprocessing` pool; each point is
rebuilt from its stored config into one :class:`~repro.simulate.Experiment`
and run by :func:`~repro.simulate.run_experiment`.  Campaigns
(:mod:`repro.experiments.campaign`) run their calibrations and trials
through the same three pieces: :func:`point_row` (one crash- and
timeout-guarded row), :func:`ordered_rows` (the ordered fan-out) and
:func:`pending_configs` (the resume filter).  Three properties the tests
pin down:

* **Determinism** — each point's config carries its own seeds (workload
  seed, fault seed = seed + 1, wrong-path seed) and workers share no
  state, so results are a pure function of the config.  Rows are appended
  in submission order (``imap``, not ``imap_unordered``), making the
  store byte-identical for any ``--workers`` value.
* **Crash isolation** — :func:`point_row` catches everything and
  returns an error row; one pathological point cannot take down the sweep,
  and error rows are retried on the next invocation.
* **Streaming** — rows are appended (and progress reported) as each point
  finishes, so an interrupted sweep keeps its completed prefix.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.experiments.spec import RunPoint, SCHEMA_VERSION, config_hash
from repro.experiments.store import ResultsStore
from repro.simulate import run_experiment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.obs.spans import SpanCollector

#: Progress callback: (completed count, pending total, the row just stored).
ProgressFn = Callable[[int, int, dict], None]
#: Transient row key carrying the point's wall time from the worker to the
#: parent.  Popped before the row reaches the store: store rows must stay a
#: pure function of the config (byte-identical across machines and worker
#: counts), and wall time is neither.
ELAPSED_KEY = "_elapsed_s"

#: More transport-only keys (same contract as :data:`ELAPSED_KEY`): the
#: wall-clock start of the point and the worker process that ran it, which
#: become runner spans in the parent when span collection is on.
STARTED_KEY = "_started_at"
WORKER_KEY = "_worker"


@dataclass(slots=True)
class SweepSummary:
    """What one ``run_sweep`` invocation did."""

    total: int  #: points in the expanded grid
    cached: int  #: skipped — already completed in the store (or in-grid dupes)
    executed: int  #: actually simulated this invocation
    errors: int  #: executed points that produced error rows
    retried: int = 0  #: in-invocation re-executions of error rows (``retries=N``)
    wall_seconds: float = 0.0  #: wall time of this invocation's execution loop
    slowest_point_s: float = 0.0  #: worst single-point wall time observed
    #: Sum of per-point wall times over (effective workers x loop wall):
    #: 1.0 means no worker ever idled, low values mean stragglers
    #: serialized the tail of the pool.
    worker_utilization: float = 0.0

    def to_dict(self) -> dict[str, int | float]:
        return {
            "total": self.total,
            "cached": self.cached,
            "executed": self.executed,
            "errors": self.errors,
            "retried": self.retried,
            "wall_seconds": self.wall_seconds,
            "slowest_point_s": self.slowest_point_s,
            "worker_utilization": self.worker_utilization,
        }


class PointTimeout(Exception):
    """A grid point exceeded its per-point wall-clock budget."""


@contextmanager
def _wall_clock_limit(seconds: float | None):
    """Raise :class:`PointTimeout` in the calling thread after ``seconds``.

    Uses ``SIGALRM``/``setitimer`` (pool tasks run on each worker's main
    thread, where the signal is deliverable).  Where the timer cannot be
    armed — platforms without ``SIGALRM`` (Windows), or an in-process
    ``run_sweep`` called from a non-main thread — the limit degrades to a
    no-op instead of erroring every point.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise PointTimeout()

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def point_row(
    config: dict[str, Any],
    simulate: Callable[[dict[str, Any]], dict[str, Any]],
    timeout_s: float | None = None,
) -> dict[str, Any]:
    """Run one point through ``simulate``; always returns a row, never raises.

    ``simulate(config)`` returns the fields a success row adds (at least
    ``result``).  An exception, or a run past ``timeout_s`` wall seconds,
    becomes an error row instead — retried by the next invocation.  The
    row's transport keys must be stripped (:func:`strip_transport`)
    before it is stored.
    """
    row: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "config": config,
        STARTED_KEY: time.time(),
        WORKER_KEY: os.getpid(),
    }
    started = time.perf_counter()
    try:
        with _wall_clock_limit(timeout_s):
            fields = simulate(config)
    except PointTimeout:
        row["status"] = "error"
        row["error"] = f"timeout: point exceeded its {timeout_s}s wall-clock budget"
    except Exception:
        row["status"] = "error"
        row["error"] = traceback.format_exc()
    else:
        row["status"] = "ok"
        row.update(fields)
    row[ELAPSED_KEY] = round(time.perf_counter() - started, 3)
    return row


def strip_transport(row: dict[str, Any]) -> tuple[float, float | None, int]:
    """Pop the transport keys: (elapsed seconds, wall start, worker pid)."""
    return (
        row.pop(ELAPSED_KEY, 0.0),
        row.pop(STARTED_KEY, None),
        row.pop(WORKER_KEY, 0),
    )


def execute_point(
    config: dict[str, Any], timeout_s: float | None = None
) -> dict[str, Any]:
    """Run one sweep grid point into a row (see :func:`point_row`)."""
    return point_row(config, _simulate_point, timeout_s)


def _simulate_point(config: dict[str, Any]) -> dict[str, Any]:
    point = RunPoint.from_config(config)
    return {"group_hash": point.group_hash(), "result": run_experiment(point.experiment())}


def pending_configs(
    configs: list[dict[str, Any]], store: ResultsStore
) -> tuple[list[dict[str, Any]], int]:
    """Configs still to run, and how many the store (or in-list dupes) covers."""
    done = store.completed_hashes()
    seen: set[str] = set()
    pending: list[dict[str, Any]] = []
    cached = 0
    for config in configs:
        digest = config_hash(config)
        if digest in done or digest in seen:
            cached += 1
            continue
        seen.add(digest)
        pending.append(config)
    return pending, cached


def _schedule_pending(
    pending: list[RunPoint], timings: dict[str, float]
) -> list[RunPoint]:
    """Longest-point-first order for resumed sweeps.

    Points with a recorded wall time (the store's timings sidecar, fed by
    previous invocations) run longest-first, so the stragglers start while
    the pool is still full instead of serializing at its tail.  Points
    never timed run *first*, in spec order: an unknown point may itself be
    the next straggler, and spec order keeps a fresh sweep's store layout
    exactly what it was before scheduling existed.  Ties keep spec order
    (the sort is stable), so the order — and therefore the store layout —
    is a pure function of (spec, sidecar).
    """
    if not timings:
        return pending
    known = [point for point in pending if point.config_hash() in timings]
    unknown = [point for point in pending if point.config_hash() not in timings]
    known.sort(key=lambda point: timings[point.config_hash()], reverse=True)
    return unknown + known


def run_sweep(
    spec,
    store: ResultsStore,
    workers: int = 1,
    progress: ProgressFn | None = None,
    timeout_s: float | None = None,
    spans: "SpanCollector | None" = None,
    registry: "MetricsRegistry | None" = None,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
) -> SweepSummary:
    """Execute every not-yet-stored point of ``spec`` into ``store``.

    ``timeout_s`` bounds each point's wall time (None defers to the spec's
    ``timeout_s`` field; both None disables the bound).  Per-point wall
    times are surfaced through the progress callback (the popped
    ``_elapsed_s``) and aggregated into the summary, never stored.

    ``retries`` re-executes a point that came back as an error row up to
    that many times *within this invocation* (in the parent process, with
    exponential backoff starting at ``retry_backoff_s``) before the error
    row is stored.  A retry that succeeds stores the ordinary success row
    — a pure function of the config, so the store stays byte-identical to
    a run that never needed the retry.

    ``spans`` collects one wall-clock span per executed point (worker,
    start, duration — the runner half of ``--trace-out``); ``registry``
    receives the summary counters under ``sweep.``.  Both are observers:
    the stored rows are byte-identical with or without them.
    """
    if timeout_s is None:
        timeout_s = getattr(spec, "timeout_s", None)
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if retry_backoff_s < 0:
        raise ValueError(f"retry_backoff_s must be non-negative, got {retry_backoff_s}")
    points = spec.points()
    timings = store.load_timings()
    # Scheduling before the resume filter is the same order: the filter
    # keeps its input order, and grid duplicates share one config.
    configs, cached = pending_configs(
        [point.config() for point in _schedule_pending(points, timings)], store
    )
    executed = 0
    errors = 0
    retried = 0
    slowest = 0.0
    busy = 0.0
    new_timings: dict[str, float] = {}
    started = time.perf_counter()
    for row in ordered_rows(execute_point, configs, workers, timeout_s):
        # In-invocation retry: re-run error rows in the parent (crash
        # isolation still holds — execute_point never raises) with
        # exponential backoff, keeping whichever row the last attempt
        # produced.  Transport keys are still on the row here, so the
        # replacement row flows through the same popping below.
        attempt = 0
        while row.get("status") == "error" and attempt < retries:
            time.sleep(retry_backoff_s * (2 ** attempt))
            attempt += 1
            retried += 1
            row = execute_point(row["config"], timeout_s)
        elapsed, started_at, worker = strip_transport(row)
        slowest = max(slowest, elapsed)
        busy += elapsed
        digest = row.get("config_hash")
        if digest:
            new_timings[str(digest)] = elapsed
        store.append(row)
        executed += 1
        if row.get("status") != "ok":
            errors += 1
        if spans is not None and started_at is not None:
            config = row.get("config", {})
            spans.record(
                f"{config.get('preset', '?')} seed={config.get('seed')}",
                started_at,
                elapsed,
                worker,
                status=row.get("status"),
                fault_rate=config.get("fault_rate"),
                config_hash=str(row.get("config_hash", ""))[:12],
            )
        if progress is not None:
            row["_elapsed_s"] = elapsed  # callback-visible, already un-stored
            progress(executed, len(configs), row)
            del row["_elapsed_s"]
    wall = round(time.perf_counter() - started, 3)
    effective_workers = max(1, min(workers, len(configs)))
    summary = SweepSummary(
        total=len(points),
        cached=cached,
        executed=executed,
        errors=errors,
        retried=retried,
        wall_seconds=wall,
        slowest_point_s=slowest,
        # min(): per-point times are rounded before summing, so the ratio
        # can nudge past 1.0 on sub-millisecond points.
        worker_utilization=(
            min(1.0, round(busy / (effective_workers * wall), 4))
            if executed and wall > 0
            else 0.0
        ),
    )
    if new_timings:
        timings.update(new_timings)
        store.save_timings(timings)
    if registry is not None:
        for name in ("total", "cached", "executed", "errors", "retried"):
            registry.set_counter(f"sweep.{name}", getattr(summary, name))
        registry.set_gauge("sweep.wall_seconds", summary.wall_seconds)
        registry.set_gauge("sweep.slowest_point_s", summary.slowest_point_s)
        registry.set_gauge("sweep.worker_utilization", summary.worker_utilization)
    return summary


def ordered_rows(
    point_fn: Callable[..., dict[str, Any]],
    configs: list[dict[str, Any]],
    workers: int,
    timeout_s: float | None,
) -> Iterator[dict[str, Any]]:
    """``point_fn(config, timeout_s=...)`` over ``configs``, in-process or
    across a pool (so a top-level function: pools pickle it by import
    path).  Rows are yielded in submission order whatever the worker count.
    """
    worker = functools.partial(point_fn, timeout_s=timeout_s)
    if workers <= 1 or len(configs) <= 1:
        yield from map(worker, configs)
        return
    with multiprocessing.Pool(processes=min(workers, len(configs))) as pool:
        # Ordered imap: rows stream back as they finish but are yielded in
        # submission order, so the store layout is worker-count-invariant.
        yield from pool.imap(worker, configs, chunksize=1)
