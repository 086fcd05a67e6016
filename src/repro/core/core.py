"""Cycle-level superscalar core with an optional shared-resource checker.

The machine is trace driven and models the paper's pipeline shape:

* **fetch** — up to ``fetch_width`` micro-ops per cycle enter a bounded
  window; fetch stalls on I-cache misses (probed once per cache line the
  fetch group touches).  At a mispredicted branch the front end switches
  to a synthetic **wrong-path** stream (see
  :class:`~repro.workloads.synthetic.WrongPathGenerator`): wrong-path ops
  are renamed, issued, and executed like any other op — consuming real
  issue slots, functional units, and memory bandwidth — and are squashed
  when the branch resolves, after which fetch redirects to the correct
  path.  With ``model_wrong_path`` off, fetch instead stalls at the
  branch and the full penalty is resolution wait + redirect.  Streams are
  consumed lazily: only the prefix the front end actually fetches before
  resolution is ever synthesized.
* **rename** — source operands capture direct references to their in-flight
  producers; the zero register never creates a dependency.  Rename also
  feeds the scheduling kernel (:mod:`repro.core.sched`): an op with
  outstanding sources registers for their completion wakeups and enters
  the primary ready queue exactly when the last one lands, and a
  correct-path op joins the checker's in-order ready queue.  With
  ``frontend_depth`` > 0, a front-end hold delays issue eligibility by
  that many extra pipeline cycles.
* **issue/execute** — oldest-first out-of-order issue of ready ops into the
  shared issue slots and Table 1 functional units, popping the seq-ordered
  ready queue instead of rescanning the window; loads and stores go
  through the memory hierarchy (ports, MSHRs, bus) and replay on
  structural refusal; divides block their unpipelined units.  With
  ``CoreParams.memdep`` enabled, a load-store queue tracks in-flight
  memory ops in program order: a store-set predictor
  (:mod:`repro.core.storesets`) delays loads behind stores they have
  conflicted with before, a load whose address matches an older issued
  store forwards from the store buffer instead of accessing the D-cache,
  and a load that issued under an older not-yet-issued same-address store
  is caught when the store's address resolves — an ``EV_MEM_VIOLATION``
  event squashes the load and everything younger through the same
  recovery machinery fault detection uses.
* **check** — with the checker enabled, completed ops are re-executed in
  program order through whatever issue slots and units the primary stream
  left idle this cycle (see :mod:`repro.core.checker`); commit is gated on
  verification, and a detected fault squashes all younger ops and replays
  them from the verified state.
* **commit** — in-order, up to ``commit_width`` per cycle.  With
  ``CoreParams.recovery.checkpoint_interval`` set, commit also takes
  periodic verified-state checkpoints that fault recovery rolls back to.

All squash paths — branch-mispredict redirect, checker fault recovery,
memory-order-violation replay, wrong-path cleanup — are owned by one
:class:`~repro.core.recovery.RecoveryManager`; the core's pipeline stages
make thin calls into it.

All timed wakeups — functional-unit completion, deferred memory fills,
branch resolution, checker retirement — flow through one cycle-indexed
:class:`~repro.core.sched.EventWheel` drained at the top of every step, so
per-cycle cost scales with events and issues, not window occupancy.  With
``CoreParams.cycle_skip`` (the default), the run loop additionally jumps
``now`` over provably idle stretches — ready queue empty, fetch stalled,
every pending wakeup in the future — landing exactly on the next cycle
where anything can happen, so the simulated schedule (and every statistic)
is identical to ticking cycle by cycle.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Iterable, Sequence

from repro.branch.combining import CombiningPredictor
from repro.core.checker import Checker
from repro.core.dynop import DynOp
from repro.faults.models import FaultModel, build_fault_model
from repro.faults.outcomes import OutcomeTracker, zero_outcomes
from repro.core.params import CoreParams
from repro.core.recovery import RecoveryManager
from repro.core.sched import (
    EV_BRANCH_RESOLVE,
    EV_CHECK_DONE,
    EV_DEP_WAKE,
    EV_MEM_FILL,
    EV_MEM_VIOLATION,
    DeadlockError,
    EventWheel,
    FUPool,
    ReadyQueue,
)
from repro.core.stats import CoreStats
from repro.core.storesets import StoreSetPredictor
from repro.isa.instruction import MicroOp, format_microop
from repro.isa.opcodes import OpClass, UNPIPELINED_OPS, default_latencies, fu_class_for
from repro.isa.registers import REG_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.telemetry import IntervalTelemetry
from repro.obs.tracer import PipelineTracer
from repro.workloads.synthetic import WrongPathGenerator

#: Signature of a wrong-path stream source: (branch uop, branch seq,
#: depth) -> the micro-ops the front end finds down the wrong path.  The
#: core consumes the iterable lazily, so generator-backed sources only pay
#: for the prefix fetched before the branch resolves.
WrongPathSource = Callable[[MicroOp, int, int], Iterable[MicroOp]]


class SuperscalarCore:
    """One simulated core; :meth:`run` executes a trace to completion."""

    def __init__(
        self,
        params: CoreParams | None = None,
        hierarchy: MemoryHierarchy | None = None,
        predictor: CombiningPredictor | None = None,
        wrong_path_source: WrongPathSource | None = None,
        tracer: PipelineTracer | None = None,
    ):
        self.params = params or CoreParams()
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        # Observability is opt-in objects, not no-op objects: with no
        # tracer the commit/recovery paths hold None and pay one is-None
        # test per finalized op; with telemetry_interval == 0 the cycle
        # loop's sampling boundary is never reached.  May also be assigned
        # directly before calling run().
        self.tracer = tracer
        self.telemetry: IntervalTelemetry | None = None
        self._owns_predictor = predictor is None and self.params.use_real_predictor
        self.predictor = predictor  # built by _reset_run_state() when owned
        # A caller-supplied source (e.g. a profile-aware WrongPathGenerator)
        # overrides the default generic stream generator.
        self._wp_source_override = wrong_path_source
        self._latencies = default_latencies()
        self._trace: Sequence[MicroOp] = ()
        self.retired: list[DynOp] = []
        self._window: deque[DynOp] = deque()
        self._reg_producer: dict[int, DynOp] = {}
        self._branch_outcome: dict[int, bool] = {}
        # Everything else per-run lives in _reset_run_state(), the single
        # source of truth for a fresh measurement.
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Rebuild everything a fresh measurement needs.

        The hierarchy is always reset: its queues and in-flight misses hold
        absolute cycle numbers, which would poison a run that restarts at
        cycle 0 (warm *caches* across runs would need relative timestamps —
        an open item).  A caller-supplied predictor keeps its trained state;
        predictor state is cycle-free, so staying warm is sound.
        """
        self._fu = FUPool(self.params.fu_counts)
        self._wheel = EventWheel()
        self._ready = ReadyQueue()
        self.stats = CoreStats(issue_width=self.params.issue_width)
        cp = self.params.checker
        self.checker: Checker | None = None
        self.fault_injector: FaultModel | None = None
        self._fault_tracker: OutcomeTracker | None = None
        if cp.enabled:
            # With D-cache banking modelled, every checker load/store must
            # win a (port, bank) slot against the primary stream before its
            # check can issue; single-bank keeps the legacy LSQ bypass.
            probe = (
                self.hierarchy.checker_probe
                if self.hierarchy.params.dcache_banks > 1
                else None
            )
            self.checker = Checker(
                self._fu, self._latencies, self.stats, self._wheel, dcache_probe=probe
            )
            self.fault_injector = build_fault_model(cp, self.params.fu_counts)
            if self.fault_injector.wants_check_hook:
                self.checker.fault_hook = self.fault_injector.on_check_issue
            if cp.fault_model != "transient":
                # Non-transient models can mask, miss, or false-alarm, so
                # outcomes need tracking; the transient default resolves
                # every fault as detected-or-squashed by construction and
                # carries no tracker (and no stats block) at all.
                self.stats.fault_model_enabled = True
                self.stats.fault_model = cp.fault_model
                self.stats.fault_outcomes = zero_outcomes()
                self._fault_tracker = OutcomeTracker(self.stats, self.tracer)
                self.fault_injector.tracker = self._fault_tracker
        # --- per-run caches for the cycle loop (the params object is
        # read-only during a run; a few of these reach into kernel-structure
        # internals, trading encapsulation for measured per-cycle cost) ---
        params = self.params
        self._issue_width = params.issue_width
        self._frontend_depth = params.frontend_depth
        self._reserved = (
            cp.reserved_slots
            if self.checker is not None and cp.slot_policy == "reserved"
            else 0
        )
        self._primary_budget = self._issue_width - self._reserved
        self._ready_heap = self._ready._heap
        self._wheel_pop = self._wheel.pop_due
        self._check_deque = self.checker._pending._queue if self.checker else None
        self._trace_len = len(self._trace)
        # Per-OpClass lookup tables (IntEnum-indexed lists beat dict/set
        # hashing in the issue loop).
        self._lat_by_op = [self._latencies[op] for op in OpClass]
        self._fu_by_op = [fu_class_for(op) for op in OpClass]
        self._unpip_by_op = [op in UNPIPELINED_OPS for op in OpClass]
        # --- memory-dependence subsystem (inert when disabled: no LSQ
        # bookkeeping, no predictor, no extra RNG/stat traffic) ---
        md = params.memdep
        self._memdep_on = md.enabled
        self._lsq: deque[DynOp] = deque()
        # Address indexes over the LSQ's correct-path ops, each chain in seq
        # order: forwarding and violation checks walk one address's chain
        # instead of the whole queue.  Wrong-path ops hold LSQ slots but
        # never forward or violate, so they are never indexed.  Every LSQ
        # change goes through _rename, _commit or _trim_squashed_lsq.
        self._lsq_stores: dict[int, list[DynOp]] = {}
        self._lsq_loads: dict[int, list[DynOp]] = {}
        self._lsq_size = md.lsq_size
        self._fwd_latency = md.forward_latency
        self._violation_penalty = md.violation_penalty
        self._storesets = (
            StoreSetPredictor(md.ssit_size, md.lfst_size, md.ssit_decay_cycles)
            if md.enabled
            else None
        )
        self.stats.memdep_enabled = md.enabled
        self.stats.ssit_decay_enabled = md.enabled and md.ssit_decay_cycles > 0
        # --- observability: telemetry exists only when sampling is on;
        # the recovery manager below captures self.tracer as its hook ---
        interval = params.telemetry_interval
        self.telemetry = IntervalTelemetry(interval, self) if interval else None
        # --- recovery subsystem: one manager owns every squash path and
        # the (optional) verified-state checkpointing policy ---
        self._recovery = RecoveryManager(self)
        self._ckpt_on = self._recovery.checkpointing
        self.stats.checkpointing_enabled = self._ckpt_on
        self._skip_enabled = params.cycle_skip
        self.hierarchy.reset()
        self.hierarchy.attach_wheel(self._wheel)
        if self._owns_predictor:
            self.predictor = CombiningPredictor()
        self.retired.clear()
        self._window.clear()
        self._reg_producer.clear()
        self._branch_outcome.clear()
        self._fetch_index = 0
        # Redirect stalls (branch/recovery) and I-cache-miss stalls are
        # tracked separately: a recovery replaces the former but must not
        # cancel an outstanding instruction-fetch miss.
        self._fetch_stall_until = 0
        self._icache_stall_until = 0
        self._waiting_branch = None
        # --- wrong-path episode state (one episode at a time; the next
        # mispredicted branch can only be fetched after the redirect) ---
        if self.params.model_wrong_path:
            self._wp_source = self._wp_source_override or WrongPathGenerator(
                seed=self.params.wrong_path_seed
            ).iter_stream
        else:
            self._wp_source = None
        self._wp_branch: DynOp | None = None
        # The episode's stream is held as a lazy iterator plus a one-op
        # lookahead slot (an op probed for an I-cache miss stays peeked
        # until the stall clears), so unconsumed wrong-path ops cost
        # nothing to synthesize.
        self._wp_iter = None
        self._wp_peek: MicroOp | None = None
        self._wp_resolve_at: int | None = None
        self._wp_icache_stall_until = 0
        self._wp_saved_producers: dict[int, DynOp] = {}
        # Wrong-path seqs start past the trace so they always read as
        # "younger than any real op" to the squash machinery.
        self._wp_next_seq = len(self._trace)
        # run_window() overwrites this with the real bound before the cycle loop;
        # the default covers direct _step()-driven unit tests.
        self._cycle_limit = 10_000 + 400 * len(self._trace)
        self._now = 0

    # ------------------------------------------------------------------- run

    def run(self, trace: Sequence[MicroOp], max_cycles: int | None = None) -> CoreStats:
        """Simulate ``trace`` to completion and return the stats.

        Raises:
            DeadlockError: if the simulation exceeds ``max_cycles``
                (defaults to a generous bound scaled by trace length) — a
                deadlock guard, not an expected exit.  The message names
                the stuck oldest op and its unmet dependencies.
        """
        return self.run_window(trace, 0, max_cycles)

    def run_window(
        self,
        trace: Sequence[MicroOp],
        warmup_ops: int,
        max_cycles: int | None = None,
    ) -> CoreStats:
        """Simulate ``trace`` but report stats for a measured window only.

        The first ``warmup_ops`` *commits* are a warm-start prefix: they
        train the caches, branch predictor, store sets, and fill the
        checker pipeline exactly as :meth:`run` would, but their statistics
        are discarded at a commit-aligned boundary (the first cycle whose
        commit stage reaches ``warmup_ops`` retired ops — commit is
        in-order, so the boundary is a well-defined point in the trace).
        Everything after the boundary is measured: ``stats.cycles`` spans
        boundary-to-end, every counter covers only the window, and the
        memory snapshot is a delta against the boundary's raw counters.
        Time-sharded runs (see :mod:`repro.parallel`) use this so each
        shard's measurement starts from plausibly-warm microarchitectural
        state rather than a cold machine.

        ``warmup_ops <= 0`` is exactly :meth:`run`.  In-flight state at the
        boundary (issued-not-committed ops, outstanding misses, an open
        wrong-path episode) deliberately carries across: splitting such
        state between windows is what would make shard sums diverge from
        the monolithic run far more than the boundary approximation does.

        Raises:
            ValueError: if ``warmup_ops > 0`` with interval telemetry on
                (samples would straddle the discarded prefix).
        """
        self._trace = trace  # before the reset: wrong-path seqs start past it
        self._reset_run_state()
        telemetry = self.telemetry
        if warmup_ops > 0 and telemetry is not None:
            raise ValueError(
                "interval telemetry is not supported with warm-start windows"
            )
        limit = max_cycles if max_cycles is not None else 10_000 + 400 * len(trace)
        # Cycle skipping must not leap past the deadlock guard: a stuck run
        # still stops (and reports its state) at limit + 1, as if ticking.
        self._cycle_limit = limit
        started = time.perf_counter()
        stats = self.stats
        base_cycle = base_committed = base_injected = base_decays = base_posted = 0
        base_memory = None
        if warmup_ops > 0:
            self._advance(limit, warmup_ops)
            # Measurement boundary: snapshot what the finalize below
            # subtracts, then zero the window counters in place (subsystems
            # hold references to this stats object).  `committed` stays
            # cumulative — the checkpointing policy keys off it.
            base_cycle = self._now
            base_committed = stats.committed
            if self.fault_injector is not None:
                base_injected = self.fault_injector.injected
            if self._storesets is not None:
                base_decays = self._storesets.decays
            base_memory = self.hierarchy.raw_counters()
            base_posted = self._wheel.posted
            stats.reset_window()
            stats.committed = base_committed
        self._advance(limit)
        if telemetry is not None:
            telemetry.finalize(self._now)
        stats.cycles = self._now - base_cycle
        stats.committed -= base_committed
        if self.fault_injector is not None:
            stats.faults_injected = self.fault_injector.injected - base_injected
        if self._fault_tracker is not None:
            # Committed-and-still-live silent faults resolve as SDC; after
            # this every injected fault has exactly one outcome.
            self._fault_tracker.finalize(self._now)
        if self._storesets is not None:
            stats.ssit_decays = self._storesets.decays - base_decays
        stats.wall_seconds = time.perf_counter() - started
        stats.sched_events = self._wheel.posted - base_posted
        stats.memory = self.hierarchy.snapshot(baseline=base_memory)
        return stats

    def _advance(self, limit: int, stop: int | None = None) -> None:
        """The cycle loop: step until the trace drains, or until ``stop``
        commits when given.

        Telemetry sampling is a boundary comparison per step; with
        telemetry off the boundary sits past the deadlock guard, where
        ``now`` never gets (a step or a skip lands at most on limit + 1).
        The commit stop defaults past the trace length, equally unreachable.
        """
        step = self._step
        trace_len = self._trace_len
        window = self._window
        stats = self.stats
        skip = self._skip_enabled
        ready_heap = self._ready_heap
        maybe_skip = self._maybe_skip
        telemetry = self.telemetry
        next_at = limit + 2 if telemetry is None else telemetry.next_boundary(self._now)
        if stop is None:
            stop = trace_len + 1
        while (self._fetch_index < trace_len or window) and stats.committed < stop:
            if self._now > limit:
                raise self._deadlock(limit)
            step()
            if self._now >= next_at:
                # A cycle skip that jumps several boundaries yields one
                # sample spanning the gap (its `cycles` field says so).
                telemetry.sample(self._now)
                next_at = telemetry.next_boundary(self._now)
            # Cycle skipping: with nothing ready to issue, jump straight
            # to the next cycle where anything can happen (_maybe_skip).
            if skip and not ready_heap:
                maybe_skip()

    def _deadlock(self, limit: int) -> DeadlockError:
        """The guard's exception, with the telemetry flight recorder's last
        samples attached (and appended to the message) when sampling is on."""
        report = self._deadlock_report(limit)
        telemetry = self.telemetry
        if telemetry is None:
            return DeadlockError(report)
        telemetry.finalize(self._now)
        samples = telemetry.recent_samples()
        if samples:
            report += f"\nflight recorder (last {len(samples)} telemetry samples):"
            report += "".join("\n  " + json.dumps(row, sort_keys=True) for row in samples)
        return DeadlockError(report, samples=samples)

    def _deadlock_report(self, limit: int) -> str:
        """Describe why the window is stuck (for :class:`DeadlockError`)."""
        now = self._now
        lines = [
            f"simulation exceeded {limit} cycles with {len(self._window)} ops "
            f"in flight — likely deadlock"
        ]
        next_event = self._wheel.next_cycle()
        lines.append(
            f"cycle {now}; next scheduled event "
            f"{'at cycle ' + str(next_event) if next_event is not None else 'none'}"
        )
        if not self._window:
            lines.append(
                f"window empty but fetch stuck at trace index {self._fetch_index} "
                f"(fetch stall until {self._fetch_stall_until}, i-cache stall "
                f"until {self._icache_stall_until}, waiting branch "
                f"{self._waiting_branch.seq if self._waiting_branch else None})"
            )
            return "\n".join(lines)
        op = self._window[0]
        state: str
        if op.issued_at is None:
            unmet = [
                d for d in op.deps if d.complete_at is None or d.complete_at > now
            ]
            if unmet:
                deps_desc = ", ".join(
                    f"seq={d.seq} <{format_microop(d.uop)}> "
                    f"({'never issued' if d.issued_at is None else f'completes at {d.complete_at}'}"
                    f"{', squashed' if d.squashed else ''})"
                    for d in unmet
                )
                state = f"waiting to issue on unmet dependencies: {deps_desc}"
            else:
                state = (
                    "ready but never issued (structural starvation: functional "
                    "unit or issue slot never became available)"
                )
        elif op.complete_at is not None and op.complete_at > now:
            state = f"executing until cycle {op.complete_at}"
        elif self.checker is not None and not op.checked:
            if op.check_issued_at is None:
                state = "completed but its in-order check never issued"
            else:
                state = f"check in flight until cycle {op.check_complete_at}"
        else:
            state = "complete and commit-ready (commit stage never drained it)"
        lines.append(
            f"oldest op seq={op.seq} <{format_microop(op.uop)}> fetched at "
            f"cycle {op.fetched_at}: {state}"
        )
        return "\n".join(lines)

    def _maybe_skip(self) -> None:
        """Jump ``self._now`` over cycles in which nothing can happen.

        Called by the run loop after a step, only when the primary ready
        queue is empty (anything issueable — including ops stashed on a
        structural hazard — keeps the heap non-empty and vetoes skipping).
        The next cycle where *any* stage can make progress is bounded by:

        * the event wheel's next pending wakeup (producer completions,
          memory fills, branch resolution, check retirements, violation
          deliveries all live there);
        * the window head's completion (unchecked mode's commit gate);
        * the check-queue head's wake-up — its primary completion and its
          verified source operands, whose ready cycles the in-order
          checker fixed when the older checks issued;
        * the end of the active fetch stall (redirect, I-cache miss, or
          the wrong-path stream's own I-cache stall).

        If any of those is due now (or a commit / checker head is already
        eligible, where structural availability cannot be predicted
        cheaply), the loop ticks normally.  Otherwise ``now`` jumps to the
        earliest bound — by construction a cycle-for-cycle no-op for the
        schedule, so every statistic is identical with skipping on or off
        (pinned by the cycle-skip identity tests and the goldens).
        """
        now = self._now
        window = self._window
        if not window and self._fetch_index >= self._trace_len:
            # Run complete: the loop is about to exit, and a last jump to a
            # stale wheel event (a squashed op's wake, a late fill) would
            # inflate the recorded cycle count past the final commit.
            return
        target = self._wheel.next_cycle()
        checker = self.checker
        if window:
            head = window[0]
            if checker is not None:
                if head.checked:
                    return  # commit drains this cycle
            else:
                complete_at = head.complete_at
                if complete_at is not None:
                    if complete_at <= now:
                        return  # commit drains this cycle
                    if target is None or complete_at < target:
                        target = complete_at
        if checker is not None:
            pending = self._check_deque
            if pending:
                head = pending[0]
                if head.squashed:
                    return  # let the issue path drop the stale head
                complete_at = head.complete_at
                if complete_at is not None:
                    wake = complete_at
                    reg_ready_get = checker._reg_ready.get
                    for src in head.uop.srcs:
                        if src != REG_ZERO:
                            ready = reg_ready_get(src, 0)
                            if ready > wake:
                                wake = ready
                    if wake <= now:
                        return  # head may check (or is blocked structurally)
                    if target is None or wake < target:
                        target = wake
        if self._wp_branch is not None:
            stall = self._wp_icache_stall_until
            if stall <= now:
                return  # wrong-path fetch may run this cycle
            if target is None or stall < target:
                target = stall
        elif self._waiting_branch is None and self._fetch_index < self._trace_len:
            stall = self._fetch_stall_until
            icache = self._icache_stall_until
            if icache > stall:
                stall = icache
            if stall <= now:
                return  # correct-path fetch may run this cycle
            if target is None or stall < target:
                target = stall
        if target is not None and target > now:
            bound = self._cycle_limit + 1
            if target > bound:
                target = bound
                if target <= now:
                    return
            self.stats.cycles_skipped += target - now
            self._now = target

    # ------------------------------------------------------------ cycle step

    def _step(self) -> None:
        now = self._now
        # Deliver this cycle's timed wakeups before any stage runs: producer
        # completions top up the ready queue, fill arrivals arm the
        # hierarchy, and branch-resolution / check-retirement events are
        # batched for the squash and checker phases below (in the same
        # order the scan-based core processed them).
        events = self._wheel_pop(now)
        checker = self.checker
        if events is not None:
            checks_done: list[DynOp] | None = None
            violations: list[tuple[DynOp, DynOp]] | None = None
            branch_resolved = False
            ready_push = self._ready.push
            for kind, payload in events:
                if kind == EV_DEP_WAKE:
                    payload.pending_deps -= 1
                    if not payload.pending_deps and not payload.squashed:
                        ready_push(payload)
                elif kind == EV_CHECK_DONE:
                    if checks_done is None:
                        checks_done = [payload]
                    else:
                        checks_done.append(payload)
                elif kind == EV_MEM_FILL:
                    self.hierarchy.fills_due()
                elif kind == EV_BRANCH_RESOLVE:
                    branch_resolved = True
                else:  # EV_MEM_VIOLATION
                    if violations is None:
                        violations = [payload]
                    else:
                        violations.append(payload)
            if branch_resolved:
                self._recovery.squash_wrong_path(now)
            if violations is not None:
                for store, load in violations:
                    self._recovery.recover_mem_violation(store, load, now)
            if checks_done is not None and checker is not None:
                anomaly = checker.process_completions(checks_done, now)
                if anomaly is not None:
                    if anomaly.faulty:
                        self._recovery.recover_fault(anomaly, now)
                    else:
                        # A clean op whose check miscompared: checker-side
                        # fault, replay the op itself (false alarm).
                        self._recovery.recover_false_alarm(anomaly, now)
        # In-order commit: gate on the head so quiet cycles cost one check.
        window = self._window
        if window:
            head = window[0]
            if (
                head.checked
                if checker is not None
                else (head.complete_at is not None and head.complete_at <= now)
            ):
                self._commit(now)
        self._fu.begin_cycle(now)
        # Under the "reserved" policy the issue stage is statically
        # partitioned: the primary stream never sees the checker's slots,
        # and the checker gets its reservation plus whatever the capped
        # primary stream still left idle.  "opportunistic" (the paper's
        # scheme) gives the primary stream the full width and the checker
        # only the leftovers.
        if self._ready_heap:
            slots_left = self._issue_primary(now, self._primary_budget)
        else:
            slots_left = self._primary_budget
        if checker is not None:
            # The in-order check pipeline can only start at the queue head;
            # skip the issue call outright when the head has no completed
            # primary result yet (a lazily-dropped squashed head still
            # routes through issue, which discards it).
            pending = self._check_deque
            if pending:
                head = pending[0]
                complete_at = head.complete_at
                if head.squashed or (complete_at is not None and complete_at <= now):
                    checker.issue(now, slots_left + self._reserved)
        # Fetch, with the cheap stall guards inlined so a stalled front end
        # costs two comparisons instead of a call.
        if self._wp_branch is not None:
            if now >= self._wp_icache_stall_until:
                self._fetch_wrong_path(now)
        elif (
            self._waiting_branch is None
            and now >= self._fetch_stall_until
            and now >= self._icache_stall_until
            and self._fetch_index < self._trace_len
        ):
            self._fetch(now)
        self._now = now + 1

    # ---------------------------------------------------------------- commit

    def _commit(self, now: int) -> None:
        done = 0
        window = self._window
        reg_producer = self._reg_producer
        budget = self.params.commit_width
        record = self.params.record_retired
        gate_on_check = self.checker is not None
        lsq = self._lsq if self._memdep_on else None
        store_cls = OpClass.STORE
        tracer = self.tracer
        fault_tracker = self._fault_tracker
        while window and done < budget:
            op = window[0]
            if gate_on_check:
                if not op.checked:
                    break
            elif op.complete_at is None or op.complete_at > now:
                break
            window.popleft()
            if lsq is not None and lsq and lsq[0] is op:
                lsq.popleft()
                # The oldest LSQ op heads its address chain.
                index = self._lsq_stores if op.uop.op is store_cls else self._lsq_loads
                addr = op.uop.addr
                chain = index[addr]
                if len(chain) == 1:
                    del index[addr]
                else:
                    del chain[0]
            op.committed_at = now
            dest = op.uop.dest
            if reg_producer.get(dest) is op:
                del reg_producer[dest]
            if record:
                self.retired.append(op)
            if tracer is not None:
                tracer.op_retired(op, now)
            if fault_tracker is not None:
                fault_tracker.note_commit(op, now)
            done += 1
        self.stats.committed += done
        if done and self._ckpt_on:
            self._recovery.note_commit(self.stats.committed, now)

    # ----------------------------------------------------------------- issue

    def _issue_primary(self, now: int, budget: int) -> int:
        """Oldest-first OOO issue from the ready queue; returns leftovers.

        Ops the cycle cannot serve — functional unit busy, memory access
        refused — are stashed and re-pushed for the next cycle, matching
        the scan core's behaviour of skipping them without losing them.
        A refused memory access still burns its issue slot (a replay storm
        must not look like idle issue bandwidth to the checker).
        """
        slots = budget
        pop_live = self._ready.pop_live
        stash: list[DynOp] | None = None
        fu = self._fu
        stats = self.stats
        lat_by_op = self._lat_by_op
        fu_by_op = self._fu_by_op
        unpip_by_op = self._unpip_by_op
        wheel_post = self._wheel.post
        access = self.hierarchy.access
        injector = self.fault_injector
        inject_all = injector is not None and not injector.dest_only
        fault_tracker = self._fault_tracker
        waiting_branch = self._waiting_branch
        store_cls = OpClass.STORE
        load_cls = OpClass.LOAD
        memdep_on = self._memdep_on
        fwd_latency = self._fwd_latency
        while slots:
            op = pop_live()
            if op is None:
                break
            uop = op.uop
            op_cls = uop.op
            cls = fu_by_op[op_cls]
            if op_cls is load_cls or op_cls is store_cls:
                if fu.available(cls) <= 0:
                    if stash is None:
                        stash = [op]
                    else:
                        stash.append(op)
                    continue
                fwd = None
                if memdep_on and op_cls is load_cls and not op.wrong_path:
                    fwd = self._forwarding_store(op)
                if fwd is not None:
                    # Store-to-load forwarding: the value comes straight
                    # from the older store's buffer entry, so the load
                    # skips the D-cache entirely (no port, no MSHR).
                    complete = now + fwd_latency
                    op.fwd_from = fwd
                    stats.loads_forwarded += 1
                    fu.acquire(cls)
                else:
                    result = access(uop.addr, now, is_store=op_cls is store_cls)
                    if not result.ok:
                        op.replays += 1
                        slots -= 1
                        stats.replay_slots_used += 1
                        if op.wrong_path:
                            stats.wrong_path_mem_replays += 1
                            stats.wrong_path_slots_used += 1
                        else:
                            stats.mem_replays += 1
                        if stash is None:
                            stash = [op]
                        else:
                            stash.append(op)
                        continue
                    complete = result.ready_at
                    fu.acquire(cls)
                    if memdep_on and op_cls is store_cls and not op.wrong_path:
                        # The store's address just resolved: any younger
                        # load that already read this address from memory
                        # saw stale data and must replay.  The squash is
                        # posted for the next cycle rather than applied
                        # mid-issue: this loop is walking the ready queue
                        # and must not mutate the window under itself.
                        violator = self._order_violator(op)
                        if violator is not None:
                            wheel_post(now + 1, EV_MEM_VIOLATION, (op, violator))
            else:
                complete = now + lat_by_op[op_cls]
                if not fu.try_acquire(
                    cls, complete if unpip_by_op[op_cls] else None
                ):
                    if stash is None:
                        stash = [op]
                    else:
                        stash.append(op)
                    continue
            op.issued_at = now
            op.complete_at = complete
            slots -= 1
            waiters = op.waiters
            if waiters is not None:
                for waiter in waiters:
                    wheel_post(complete, EV_DEP_WAKE, waiter)
                op.waiters = None
            if op.wrong_path:
                stats.wrong_path_issued += 1
                stats.wrong_path_slots_used += 1
            else:
                stats.primary_slots_used += 1
                if fault_tracker is not None:
                    # A consumer of a live silent fault just issued: the
                    # corrupt value propagated (MASKED is off the table).
                    fault_tracker.note_issue(op)
                # Wrong-path results are never checked, so corrupting them
                # would be invisible and would break the detected+squashed
                # == injected invariant.  Skipping them also keeps forced
                # fault seqs stable across the toggle (rate-based draws
                # still follow issue order, which the toggle can perturb).
                # Register-writing ops only by default (the transient
                # injector's own gate, so this fast path changes no RNG
                # draw sequence); models with dest_only=False — the
                # address-path model must see stores — gate themselves.
                if injector is not None and (uop.dest is not None or inject_all):
                    injector.maybe_inject(op)
            if op is waiting_branch:
                # Resolution time is now known: fetch restarts after redirect
                # and any wrong-path work is squashed at resolution.
                self._waiting_branch = waiting_branch = None
                self._recovery.schedule_branch_redirect(complete)
        if stash is not None:
            push = self._ready.push
            for op in stash:
                push(op)
        return slots

    # ------------------------------------------------------ memory dependence

    def _forwarding_store(self, load: DynOp) -> DynOp | None:
        """Youngest older same-address store that can forward to ``load``.

        Walks the address's store chain youngest-first so the first older
        store is the one whose value the load must see.  A matching store
        that has not issued yet cannot forward (its data does not exist) —
        the load proceeds to the D-cache and the store's later issue
        catches the ordering violation.  Wrong-path stores never forward:
        their values are fiction and they vanish at resolution.
        """
        chain = self._lsq_stores.get(load.uop.addr)
        if chain is not None:
            seq = load.seq
            for store in reversed(chain):
                if store.seq < seq:
                    return store if store.issued_at is not None else None
        return None

    def _order_violator(self, store: DynOp) -> DynOp | None:
        """Oldest younger load that already read ``store``'s address, if any.

        A younger issued load with the same address violated memory order
        unless it forwarded from a store *younger* than this one (in which
        case it saw the closer value, which is correct).  Only the oldest
        violator matters — squashing from it removes every younger one —
        and the address's load chain is in program order, so the walk stops
        at the first match.
        """
        chain = self._lsq_loads.get(store.uop.addr)
        if chain is not None:
            sseq = store.seq
            for load in chain:
                if load.seq <= sseq or load.issued_at is None:
                    continue
                fwd = load.fwd_from
                if fwd is not None and fwd.seq > sseq:
                    continue
                return load
        return None

    def _trim_squashed_lsq(self) -> None:
        """Drop the squashed tail of the LSQ and of its address indexes.

        Every squash removes a youngest-first suffix of the window, so its
        LSQ victims are a suffix of the (program-ordered) LSQ and each
        correct-path victim is the youngest op of its address chain.
        """
        lsq = self._lsq
        store_cls = OpClass.STORE
        while lsq and lsq[-1].squashed:
            op = lsq.pop()
            if op.wrong_path:
                continue
            index = self._lsq_stores if op.uop.op is store_cls else self._lsq_loads
            addr = op.uop.addr
            chain = index[addr]
            if len(chain) == 1:
                del index[addr]
            else:
                chain.pop()

    # ----------------------------------------------------------------- fetch

    def _fetch(self, now: int) -> None:
        # Stall and end-of-trace guards live in _step (inlined on the cycle
        # loop); this body only runs when correct-path fetch may proceed.
        params = self.params
        trace = self._trace
        trace_len = len(trace)
        window = self._window
        index = self._fetch_index
        # The window only grows during fetch, so the per-cycle budget is
        # fixed up front instead of re-deriving len(window) per op.
        budget = min(
            params.fetch_width, trace_len - index, params.window_size - len(window)
        )
        if budget <= 0:
            return
        probed_line: int | None = None
        model_icache = params.model_icache
        line_bytes = self.hierarchy.params.line_bytes
        ifetch = self.hierarchy.ifetch
        rename = self._rename
        branch_cls = OpClass.BRANCH
        memdep_on = self._memdep_on
        load_cls = OpClass.LOAD
        store_cls = OpClass.STORE
        lsq = self._lsq
        lsq_size = self._lsq_size
        fetched = 0
        try:
            while fetched < budget:
                uop = trace[index]
                if (
                    memdep_on
                    and (uop.op is load_cls or uop.op is store_cls)
                    and len(lsq) >= lsq_size
                ):
                    # LSQ full: the front end stalls until commit or a
                    # squash frees a slot (the op stays at trace[index]).
                    self.stats.lsq_full_stalls += 1
                    return
                if model_icache:
                    # Probe once per cache line the group touches, not once
                    # per group: a line-crossing group pays for (and trains
                    # the prefetcher on) its second line too.
                    line = uop.pc // line_bytes
                    if line != probed_line:
                        result = ifetch(uop.pc, now)
                        probed_line = line
                        if result.level != "l1":
                            self._icache_stall_until = result.ready_at
                            return
                op = rename(uop, now)
                window.append(op)
                index += 1
                self._fetch_index = index
                fetched += 1
                if uop.op is branch_cls and self._fetch_branch(op):
                    return
        finally:
            self.stats.fetched += fetched

    def _fetch_wrong_path(self, now: int) -> None:
        """Fetch down the wrong path while the mispredicted branch is unresolved.

        Wrong-path I-cache misses stall only *this* stream (their line
        fills and bus traffic persist): the correct-path redirect after the
        squash must not inherit a wait for instructions that were never on
        the program's path.  The stream iterator is advanced only when an
        op is actually renamed, so resolution leaves the unfetched suffix
        unsynthesized.
        """
        params = self.params
        window = self._window
        budget = min(params.fetch_width, params.window_size - len(window))
        if budget <= 0:
            return
        probed_line: int | None = None
        model_icache = params.model_icache
        line_bytes = self.hierarchy.params.line_bytes
        ifetch = self.hierarchy.ifetch
        rename = self._rename
        wp_iter = self._wp_iter
        memdep_on = self._memdep_on
        load_cls = OpClass.LOAD
        store_cls = OpClass.STORE
        lsq = self._lsq
        lsq_size = self._lsq_size
        fetched = 0
        try:
            while fetched < budget:
                uop = self._wp_peek
                if uop is None:
                    uop = next(wp_iter, None)
                    if uop is None:
                        break  # stream exhausted: wait for resolution
                    self._wp_peek = uop
                if (
                    memdep_on
                    and (uop.op is load_cls or uop.op is store_cls)
                    and len(lsq) >= lsq_size
                ):
                    # Wrong-path memory ops need real LSQ slots too; the
                    # peeked op waits for one (or for resolution).
                    self.stats.lsq_full_stalls += 1
                    return
                if model_icache:
                    line = uop.pc // line_bytes
                    if line != probed_line:
                        result = ifetch(uop.pc, now, prefetch=False)
                        probed_line = line
                        if result.level != "l1":
                            self._wp_icache_stall_until = result.ready_at
                            return
                self._wp_peek = None
                op = rename(uop, now, True)
                window.append(op)
                fetched += 1
        finally:
            self.stats.wrong_path_fetched += fetched

    def _rename(self, uop: MicroOp, now: int, wrong_path: bool = False) -> DynOp:
        reg_producer = self._reg_producer
        srcs = uop.srcs
        # Unrolled dependency capture: nearly every micro-op has 0-2
        # sources, and REG_ZERO (register 0) never creates a dependency.
        n_srcs = len(srcs)
        if n_srcs == 0:
            deps = ()
        elif n_srcs == 1:
            src = srcs[0]
            producer = reg_producer.get(src) if src else None
            deps = () if producer is None else (producer,)
        elif n_srcs == 2:
            src = srcs[0]
            first = reg_producer.get(src) if src else None
            src = srcs[1]
            second = reg_producer.get(src) if src else None
            if first is None:
                deps = () if second is None else (second,)
            else:
                deps = (first,) if second is None else (first, second)
        else:
            deps = tuple(
                producer
                for src in srcs
                if src != REG_ZERO and (producer := reg_producer.get(src)) is not None
            )
        if self._memdep_on and not wrong_path and uop.op is OpClass.LOAD:
            # Store-set prediction: a load that has conflicted with an
            # in-flight store's PC before waits for that store to issue
            # (riding the ordinary wakeup machinery) instead of racing it
            # to the D-cache.  An already-issued store needs no delay —
            # forwarding at issue handles it.
            pred = self._storesets.predicted_store(uop.pc, now)
            if pred is not None and pred.issued_at is None:
                deps = (*deps, pred)
                self.stats.loads_delayed += 1
        if wrong_path:
            seq = self._wp_next_seq
            self._wp_next_seq = seq + 1
            op = DynOp(uop, seq, now, deps, wrong_path=True, branch_color=self._wp_branch.seq)
        else:
            op = DynOp(uop, self._fetch_index, now, deps)
        if self._memdep_on:
            opc = uop.op
            if opc is OpClass.LOAD or opc is OpClass.STORE:
                # Every in-flight memory op (wrong-path included) holds an
                # LSQ slot from rename to commit or squash; only
                # correct-path stores are visible to the predictor.
                self._lsq.append(op)
                if not wrong_path:
                    index = self._lsq_stores if opc is OpClass.STORE else self._lsq_loads
                    chain = index.get(uop.addr)
                    if chain is None:
                        index[uop.addr] = [op]
                    else:
                        chain.append(op)
                    if opc is OpClass.STORE:
                        self._storesets.store_fetched(uop.pc, op, now)
        if uop.op is OpClass.NOP:
            # Nops consume front-end and commit bandwidth only; they never
            # enter the ready or check queues.
            op.issued_at = now
            op.complete_at = now
            op.checked = True
            return op
        dest = uop.dest
        if dest is not None and dest != REG_ZERO:
            reg_producer[dest] = op
        # --- scheduling-kernel registration: count outstanding sources and
        # arrange the wakeups that will push the op into the ready queue.
        # Producers whose completion cycle is already known share a single
        # wheel event at the latest such cycle (readiness is the max);
        # unissued producers each enlist the op on their waiter list.
        pending = 0
        if deps:
            wake_at = 0
            for producer in deps:
                complete = producer.complete_at
                if complete is None:
                    # Producer not issued yet: its issue posts our wakeup.
                    pending += 1
                    if producer.waiters is None:
                        producer.waiters = [op]
                    else:
                        producer.waiters.append(op)
                elif complete > wake_at:
                    wake_at = complete
            if wake_at > now:
                pending += 1
                self._wheel.post(wake_at, EV_DEP_WAKE, op)
        depth = self._frontend_depth
        if depth:
            # Front-end pipeline hold: +depth cycles between fetch and the
            # first issue opportunity (which is fetch+1 at depth 0, since
            # fetch runs after issue within a cycle).
            pending += 1
            self._wheel.post(now + depth + 1, EV_DEP_WAKE, op)
        if pending:
            op.pending_deps = pending
        else:
            self._ready.push(op)
        if self._check_deque is not None and not wrong_path:
            self._check_deque.append(op)
        return op

    def _fetch_branch(self, op: DynOp) -> bool:
        """Record prediction outcome; True if fetch must stop at ``op``.

        A branch re-fetched after a recovery squash reuses its first
        outcome: the dynamic branch is counted (and, in real-predictor
        mode, trains the predictor) exactly once.
        """
        uop = op.uop
        outcome = self._branch_outcome.get(op.seq)
        if outcome is None:
            self.stats.branches += 1
            if self.predictor is not None and self.params.use_real_predictor:
                prediction = self.predictor.predict(uop.pc)
                resolved_target = uop.target if uop.target is not None else uop.pc + 4
                outcome = self.predictor.resolve(
                    uop.pc, prediction, bool(uop.taken), resolved_target
                )
            else:
                outcome = uop.mispredicted
            if outcome:
                self.stats.branch_mispredicts += 1
            self._branch_outcome[op.seq] = outcome
        op.mispredicted = outcome
        if op.mispredicted:
            self._waiting_branch = op
            if self._wp_source is not None:
                # Start a wrong-path episode: fetch switches to this stream
                # next cycle and stays there until the branch resolves.
                self._wp_branch = op
                self._wp_resolve_at = None
                self._wp_icache_stall_until = 0
                self._wp_iter = iter(
                    self._wp_source(uop, op.seq, self.params.wrong_path_depth)
                )
                self._wp_peek = None
                # Snapshot the producer map: during the episode only
                # wrong-path renames (overwrites) and in-order commits
                # (deletions) touch it, so the resolution squash restores
                # this snapshot minus since-committed entries instead of
                # rescanning the window (see _squash_wrong_path).
                self._wp_saved_producers = dict(self._reg_producer)
            return True
        return False
