"""Unified squash/recovery subsystem with verified-state checkpointing.

Every way the core throws work away funnels through one
:class:`RecoveryManager`:

* **Branch-mispredict redirect** — a resolved mispredicted branch squashes
  its wrong-path episode and restarts correct-path fetch after the
  redirect penalty.
* **Checker fault recovery** — a detected fault squashes everything
  younger than the faulty op and replays it from verified state.
* **Memory-order-violation replay** — a load that issued under an older
  unresolved same-address store squashes from the load onward.

The manager owns the shared unwinding mechanics those paths used to
duplicate inside ``core.py``: popping the window tail, refunding
cross-cycle functional-unit reservations, trimming the LSQ, rebuilding
the register-producer map, terminating a live wrong-path episode, and the
stall accounting that restarts fetch.  Each squash carries a typed
:class:`RecoveryCause` so per-cause counters fall out of the single entry
point instead of being scattered across call sites.

On top of that interface sits the checkpointing policy
(:class:`RecoveryParams`).  With ``checkpoint_interval > 0`` the manager
snapshots the *verified* (committed) state every ``checkpoint_interval``
commits — each snapshot costs ``checkpoint_overhead`` front-end stall
cycles, and at most ``max_live_checkpoints`` snapshots are live (hardware
keeps a small ring of shadow copies; older ones are reclaimed).  Fault
recovery then rolls back to the youngest live checkpoint and replays
forward to the restart point at commit bandwidth, instead of paying the
flat ``CheckerParams.recovery_penalty``:

    stall = restore_penalty + ceil(rollback_distance / commit_width)

where ``rollback_distance`` is the number of instructions between the
checkpoint and the restart point.  Small intervals keep rollbacks short
(cheap recoveries) at the price of frequent checkpoint overhead — the
tradeoff curve ``examples/checkpoint_study.toml`` reproduces, following
the checkpoint-spacing analyses of checked-core designs (cf.
arXiv:1811.07612).

Simplifications, recorded honestly: the rollback replay is *charged* as
stall cycles rather than re-simulated instruction by instruction (the
commit frontier is already the verified state in this model, so squash
and restart semantics are unchanged — only the recovery latency model
differs), and memory-order-violation replays keep their flat
``violation_penalty`` (the offending load is still in the window; no
architectural rollback is needed).  With ``checkpoint_interval == 0``
(the default) the flat-penalty model is byte-identical to the
pre-refactor core, which the golden-equivalence suite pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.sched import EV_BRANCH_RESOLVE
from repro.isa.opcodes import OpClass, UNPIPELINED_OPS, fu_class_for
from repro.isa.registers import REG_ZERO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.core import SuperscalarCore
    from repro.core.dynop import DynOp


class RecoveryCause(Enum):
    """Why a squash happened; values double as stats-counter keys."""

    BRANCH_MISPREDICT = "branch_mispredict"
    CHECKER_FAULT = "checker_fault"
    MEM_ORDER_VIOLATION = "mem_order_violation"
    #: A checker-side fault made a clean op's check miscompare; the op is
    #: squashed and replayed (it was never wrong).  Only non-transient
    #: fault models can produce it.
    CHECKER_FALSE_ALARM = "checker_false_alarm"


@dataclass(slots=True)
class RecoveryParams:
    """Recovery-policy configuration (flat penalty by default).

    Attributes:
        checkpoint_interval: Commits between verified-state checkpoints;
            0 (the default) disables checkpointing and keeps the legacy
            flat ``recovery_penalty`` fault-recovery model.
        checkpoint_overhead: Front-end stall cycles charged when a
            checkpoint is taken (shadow-copy creation bandwidth).
        max_live_checkpoints: Bound on simultaneously live checkpoints;
            taking a new one past the bound reclaims the oldest.
        restore_penalty: Fixed cycles to restore a checkpoint image before
            the replay-to-restart-point cost is added.
    """

    checkpoint_interval: int = 0
    checkpoint_overhead: int = 1
    max_live_checkpoints: int = 8
    restore_penalty: int = 2

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if self.checkpoint_overhead < 0:
            raise ValueError("checkpoint_overhead must be non-negative")
        if self.max_live_checkpoints <= 0:
            raise ValueError("max_live_checkpoints must be positive")
        if self.restore_penalty < 0:
            raise ValueError("restore_penalty must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot."""
        return {
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoint_overhead": self.checkpoint_overhead,
            "max_live_checkpoints": self.max_live_checkpoints,
            "restore_penalty": self.restore_penalty,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RecoveryParams":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RecoveryParams keys: {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(slots=True, frozen=True)
class Checkpoint:
    """One verified-state snapshot: the commit frontier when it was taken.

    ``seq`` is the sequence number of the next instruction to commit —
    every older instruction is architecturally committed (verified) in
    the image — and ``cycle`` is when the snapshot was taken.
    """

    seq: int
    cycle: int


class RecoveryManager:
    """Owns every squash path of one :class:`SuperscalarCore` run.

    The manager reaches into the core's per-run pipeline state (window,
    LSQ, kernel queues, fetch/stall registers) by design: it *is* the
    recovery half of the core, split out so the three historical squash
    paths share one implementation and so recovery policy (flat penalty
    vs checkpoint rollback) is pluggable behind one interface.  A fresh
    manager is built per run by ``_reset_run_state``.
    """

    __slots__ = (
        "_core",
        "_stats",
        "_params",
        "_ckpt_on",
        "_checkpoints",
        "_next_ckpt_commit",
        "_commit_width",
        "_hook",
    )

    def __init__(self, core: "SuperscalarCore"):
        self._core = core
        self._stats = core.stats
        self._params = core.params.recovery
        self._commit_width = core.params.commit_width
        # Observability hook (a PipelineTracer, or None).  Squash paths and
        # checkpoint creation report through it; None — the default — means
        # the guarded calls below never fire.
        self._hook = core.tracer
        interval = self._params.checkpoint_interval
        self._ckpt_on = interval > 0
        self._checkpoints: deque[Checkpoint] = deque(
            maxlen=self._params.max_live_checkpoints
        )
        # The implicit initial checkpoint: architectural state before the
        # first instruction is always restorable.
        self._checkpoints.append(Checkpoint(0, 0))
        self._next_ckpt_commit = interval

    @property
    def checkpointing(self) -> bool:
        """Whether the checkpoint-rollback policy is active this run."""
        return self._ckpt_on

    @property
    def live_checkpoints(self) -> int:
        """Currently live checkpoints (bounded by ``max_live_checkpoints``)."""
        return len(self._checkpoints)

    # ------------------------------------------------------------ checkpoints

    def note_commit(self, committed_total: int, now: int) -> None:
        """Commit-stage hook: take a checkpoint every ``checkpoint_interval``.

        ``committed_total`` is the running commit count, which equals the
        sequence number of the next instruction to commit (correct-path
        ops commit exactly once, in order), so it is the checkpoint's
        ``seq`` directly.  A wide commit cycle that crosses several
        interval boundaries still takes a single checkpoint — hardware
        snapshots the frontier, not every multiple it passed.
        """
        nxt = self._next_ckpt_commit
        if committed_total < nxt:
            return
        interval = self._params.checkpoint_interval
        while committed_total >= nxt:
            nxt += interval
        self._next_ckpt_commit = nxt
        self._checkpoints.append(Checkpoint(committed_total, now))
        stats = self._stats
        stats.checkpoints_taken += 1
        if self._hook is not None:
            self._hook.checkpoint(committed_total, now)
        overhead = self._params.checkpoint_overhead
        if overhead:
            # Shadow-copy creation steals front-end bandwidth: whichever
            # stream is fetching stalls for the overhead window.
            stats.checkpoint_overhead_cycles += overhead
            core = self._core
            until = now + overhead
            if until > core._fetch_stall_until:
                core._fetch_stall_until = until
            if core._wp_branch is not None and until > core._wp_icache_stall_until:
                core._wp_icache_stall_until = until

    def _fault_stall_cycles(self, restart_seq: int, now: int) -> int:
        """Cycles between detection and the restart of fetch.

        Flat ``recovery_penalty`` without checkpointing; with it, restore
        the youngest live checkpoint (always at or older than the restart
        point — checkpoints snapshot the commit frontier, and the faulty
        op had not committed) and replay forward at commit bandwidth.
        """
        if not self._ckpt_on:
            return self._core.params.checker.recovery_penalty
        ckpt = self._checkpoints[-1]
        distance = restart_seq - ckpt.seq
        if distance < 0:  # defensive: never true by construction
            distance = 0
        stats = self._stats
        stats.rollback_distance_sum += distance
        if distance > stats.rollback_distance_max:
            stats.rollback_distance_max = distance
        hist = stats.rollback_distance_hist
        bucket = "0" if distance == 0 else str(1 << (distance - 1).bit_length())
        hist[bucket] = hist.get(bucket, 0) + 1
        return self._params.restore_penalty + -(-distance // self._commit_width)

    # -------------------------------------------------------- recovery paths

    def schedule_branch_redirect(self, complete: int) -> None:
        """A mispredicted branch issued; its resolution time is now known.

        Fetch restarts after resolution plus the redirect penalty, and any
        live wrong-path episode is squashed at resolution (via the posted
        ``EV_BRANCH_RESOLVE`` event).
        """
        core = self._core
        core._fetch_stall_until = complete + core.params.mispredict_penalty
        self._stats.recoveries_by_cause[RecoveryCause.BRANCH_MISPREDICT.value] += 1
        if self._hook is not None:
            self._hook.recovery(
                RecoveryCause.BRANCH_MISPREDICT.value,
                complete,
                restart_at=core._fetch_stall_until,
            )
        if core._wp_branch is not None:
            core._wp_resolve_at = complete
            core._wheel.post(complete, EV_BRANCH_RESOLVE, None)

    def squash_wrong_path(self, now: int) -> None:
        """Throw away the wrong-path work once its branch has resolved.

        Reached via the branch's EV_BRANCH_RESOLVE wheel event.  The guard
        re-validates the episode: a recovery squash may have ended it (and
        possibly started a successor) between the event being posted and
        delivered, in which case the stale event is a no-op.

        Wrong-path ops are always the youngest ops in the window (no
        correct-path fetch happens during an episode), so popping the
        wrong-path tail removes exactly this episode's colour.
        """
        core = self._core
        if (
            core._wp_branch is None
            or core._wp_resolve_at is None
            or now < core._wp_resolve_at
        ):
            return
        color = core._wp_branch.seq
        window = core._window
        stats = self._stats
        hook = self._hook
        squashed = 0
        while (
            window
            and window[-1].wrong_path
            and window[-1].branch_color == color
        ):
            victim = window.pop()
            victim.squashed = True
            squashed += 1
            if hook is not None:
                hook.op_squashed(victim, RecoveryCause.BRANCH_MISPREDICT, now)
            if victim.uop.op in UNPIPELINED_OPS:
                self.release_victim_fu(victim, now)
        stats.wrong_path_squashed += squashed
        stats.squashed_by_cause[RecoveryCause.BRANCH_MISPREDICT.value] += squashed
        if core._memdep_on:
            # Wrong-path memory ops occupied real LSQ slots; refund them.
            core._trim_squashed_lsq()
        # Restore the pre-episode producer map rather than rescanning the
        # window.  Equivalent to rebuild_producers(): no correct-path op
        # was renamed during the episode, and commit is in-order, so the
        # surviving last-writer of a register is exactly the snapshot entry
        # unless that op has since committed (in which case every older
        # writer has committed too and the register maps to retired state).
        core._reg_producer = {
            reg: op
            for reg, op in core._wp_saved_producers.items()
            if op.committed_at is None
        }
        self.end_wrong_path()

    def recover_fault(self, faulty: "DynOp", now: int) -> None:
        """Squash-and-replay from the verified state after a detection.

        The checker's re-execution of ``faulty`` produced the correct
        result (its operands were verified), so the op itself commits as
        corrected; everything younger consumed — or may have consumed — the
        corrupt value and is squashed and re-fetched.  Wrong-path ops are
        always younger than any checkable op, so an active episode is
        swept away with the rest (and restarted when its branch is
        re-fetched and re-mispredicted).  Ready-queue entries, pending
        wakeups, and check-queue entries of the victims are dropped lazily
        by the kernel structures (the re-fetched instances are fresh
        records).
        """
        core = self._core
        stats = self._stats
        if self._hook is not None:
            # Before the flag flips below: the hook reads fault_at and
            # check_complete_at off the still-marked op.
            self._hook.fault_detected(faulty, now)
        tracker = core._fault_tracker
        if tracker is not None:
            tracker.note_detected(faulty, now)
        faulty.faulty = False
        faulty.corrected = True
        faulty.checked = True
        stats.checks_completed += 1
        stats.recoveries += 1
        stats.recoveries_by_cause[RecoveryCause.CHECKER_FAULT.value] += 1
        self.squash_younger(faulty.seq, now, RecoveryCause.CHECKER_FAULT)
        if core.checker is not None:
            core.checker.rebuild_after_squash(core._window)
        restart = faulty.seq + 1
        core._fetch_index = restart
        core._waiting_branch = None
        self.end_wrong_path()
        stall = self._fault_stall_cycles(restart, now)
        stats.recovery_stall_cycles += stall
        core._fetch_stall_until = now + stall
        if self._hook is not None:
            self._hook.recovery(
                RecoveryCause.CHECKER_FAULT.value, now, seq=faulty.seq, stall=stall
            )

    def recover_false_alarm(self, op: "DynOp", now: int) -> None:
        """A clean op's check miscompared (checker-side fault): replay it.

        The hardware cannot tell a spurious miscompare from a real one,
        and here it is the *checker's* recompute that is untrustworthy —
        so unlike :meth:`recover_fault`, the op itself cannot commit as
        corrected.  The squash boundary is ``op.seq - 1``: the op and
        everything younger are re-fetched and re-checked (the replayed
        check is a fresh eligible event for the fault model).  Stall
        accounting matches fault recovery, under a distinct
        :class:`RecoveryCause` inserted lazily into the per-cause dicts
        (legacy rows never carry the key).
        """
        core = self._core
        stats = self._stats
        tracker = core._fault_tracker
        if tracker is not None:
            tracker.note_false_alarm(op, now)
        op.check_faulty = False
        stats.recoveries += 1
        label = RecoveryCause.CHECKER_FALSE_ALARM.value
        by_cause = stats.recoveries_by_cause
        by_cause[label] = by_cause.get(label, 0) + 1
        self.squash_younger(op.seq - 1, now, RecoveryCause.CHECKER_FALSE_ALARM)
        if core.checker is not None:
            core.checker.rebuild_after_squash(core._window)
        core._fetch_index = op.seq
        core._waiting_branch = None
        self.end_wrong_path()
        stall = self._fault_stall_cycles(op.seq, now)
        stats.recovery_stall_cycles += stall
        core._fetch_stall_until = now + stall
        if self._hook is not None:
            self._hook.recovery(label, now, seq=op.seq, stall=stall)

    def recover_mem_violation(self, store: "DynOp", load: "DynOp", now: int) -> None:
        """Deliver a posted memory-order violation: train, squash, replay.

        Re-validates both ops first — a fault recovery or wrong-path squash
        delivered earlier this cycle may have already removed them, making
        the event stale.  The surviving case trains the store-set predictor
        (so future instances of this load wait for the store) and reuses
        the recovery squash machinery from the offending load onward; the
        store itself is older and survives.  The flat ``violation_penalty``
        applies even with checkpointing on: the load is still in the
        window, so no architectural rollback is involved.
        """
        core = self._core
        if store.squashed or load.squashed or load.committed_at is not None:
            return
        stats = self._stats
        stats.mem_order_violations += 1
        stats.recoveries_by_cause[RecoveryCause.MEM_ORDER_VIOLATION.value] += 1
        if self._hook is not None:
            self._hook.recovery(
                RecoveryCause.MEM_ORDER_VIOLATION.value,
                now,
                store=store.seq,
                load=load.seq,
            )
        core._storesets.train(load.uop.pc, store.uop.pc, now)
        self.squash_younger(load.seq - 1, now, RecoveryCause.MEM_ORDER_VIOLATION)
        if core.checker is not None:
            core.checker.rebuild_after_squash(core._window)
        core._fetch_index = load.seq
        core._waiting_branch = None
        self.end_wrong_path()
        core._fetch_stall_until = now + core._violation_penalty

    # ------------------------------------------------------ shared unwinding

    def squash_younger(self, boundary_seq: int, now: int, cause: RecoveryCause) -> None:
        """Squash every windowed op with ``seq > boundary_seq``.

        Shared tail of fault recovery and memory-order-violation replay:
        pops victims off the window, returns any cross-cycle functional-unit
        reservations they hold, trims them off the LSQ tail, and rebuilds
        the register-producer map from the survivors.  Kernel-structure
        entries (ready queue, wakeups, check queue) are dropped lazily.
        """
        core = self._core
        stats = self._stats
        label = cause.value
        by_cause = stats.squashed_by_cause
        if label not in by_cause:  # lazy key for CHECKER_FALSE_ALARM
            by_cause[label] = 0
        window = core._window
        hook = self._hook
        tracker = core._fault_tracker
        while window and window[-1].seq > boundary_seq:
            victim = window.pop()
            victim.squashed = True
            by_cause[label] += 1
            if hook is not None:
                hook.op_squashed(victim, cause, now)
            if victim.wrong_path:
                stats.wrong_path_squashed += 1
            else:
                stats.squashed += 1
                if victim.faulty:
                    stats.faults_squashed += 1
                    if tracker is not None:
                        tracker.note_squashed(victim, now)
                elif victim.check_faulty and tracker is not None:
                    tracker.note_squashed(victim, now)
            if victim.uop.op in UNPIPELINED_OPS:
                self.release_victim_fu(victim, now)
        if core._memdep_on:
            core._trim_squashed_lsq()
        self.rebuild_producers()

    def end_wrong_path(self) -> None:
        """Terminate the live wrong-path episode (if any)."""
        core = self._core
        core._wp_branch = None
        core._wp_iter = None
        core._wp_peek = None
        core._wp_resolve_at = None
        core._wp_icache_stall_until = 0
        core._wp_saved_producers = {}

    def rebuild_producers(self) -> None:
        """Recompute the register-producer map from the surviving window."""
        core = self._core
        reg_producer = core._reg_producer
        reg_producer.clear()
        for op in core._window:
            dest = op.uop.dest
            if dest is not None and dest != REG_ZERO and op.uop.op is not OpClass.NOP:
                reg_producer[dest] = op

    def release_victim_fu(self, victim: "DynOp", now: int) -> None:
        """Free functional-unit reservations a squashed op still holds.

        Only unpipelined ops reserve a unit across cycles; a squashed
        in-flight divide (primary execution or its check) must give its
        unit back instead of blocking it for the full latency of work that
        no longer exists.  Reservations that already expired are left to
        ``begin_cycle`` — releasing them here could steal an identical
        reservation from a live op.
        """
        if victim.uop.op not in UNPIPELINED_OPS:
            return
        cls = fu_class_for(victim.uop.op)
        fu = self._core._fu
        if victim.issued_at is not None and victim.complete_at is not None:
            if victim.complete_at > now:
                fu.release(cls, victim.complete_at)
        if victim.check_issued_at is not None and victim.check_complete_at is not None:
            if victim.check_complete_at > now:
                fu.release(cls, victim.check_complete_at)
