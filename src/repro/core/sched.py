"""Event-driven scheduling kernel shared by the core and the checker.

The pre-kernel simulator rescanned the whole instruction window every
cycle: primary issue walked every in-flight op to find the ready ones, the
checker re-walked it for check candidates, and check retirement re-walked
it for finished re-executions — O(window × cycles) for work that is
O(events) in a real scheduler.  This module provides the three structures
that replace those scans:

* :class:`EventWheel` — a cycle-indexed wheel of timed wakeups.  Anything
  that will happen at a *known* future cycle (a functional unit finishing,
  a deferred memory fill arriving, a mispredicted branch resolving, a
  checker re-execution retiring) posts an event; the core drains exactly
  the current cycle's events at the top of each step and touches nothing
  else.
* :class:`ReadyQueue` — the out-of-order primary ready queue, a seq-keyed
  min-heap.  An op is pushed exactly when its *last* source produces a
  result (per-producer wakeup lists plus wheel events — see
  ``SuperscalarCore._rename``), so oldest-first issue pops ready ops
  instead of polling ``deps_ready`` across the window.  Deletion is lazy:
  squashed or already-issued entries are dropped when popped.
* :class:`CheckQueue` — the checker's in-order ready queue.  Correct-path
  ops enter at rename in program order; the head is the only op the
  in-order check pipeline can start next, so eligibility is a head test,
  not a window scan.  Squashed entries are dropped lazily at the head.
* :class:`FUPool` — per-cycle functional-unit availability, shared by
  primary issue and the checker within a cycle: the checker can only
  take what the primary stream left idle, which is exactly the resource
  sharing the paper exploits.

Determinism note: the kernel is a pure restructuring of the per-cycle
scans.  Events within a cycle are applied before the pipeline stages run,
and both queues reproduce the window's program order (live window
sequence numbers are strictly increasing — wrong-path seqs start past the
trace), so a kernel core and a scan core produce identical cycle-by-cycle
schedules.  The golden-equivalence suite pins this against pre-kernel
fixtures.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.isa.opcodes import FU_CLASSES, FUClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.dynop import DynOp

# --- event kinds ---------------------------------------------------------
#: A producer's result arrives; payload is the waiting DynOp whose
#: ``pending_deps`` count drops by one.
EV_DEP_WAKE = 0
#: A deferred L1D fill response arrives; payload is None (the hierarchy
#: applies every due fill at the next data access — see
#: ``MemoryHierarchy.attach_wheel``).
EV_MEM_FILL = 1
#: A checker re-execution finishes; payload is the checked DynOp.
EV_CHECK_DONE = 2
#: A mispredicted branch resolves; payload is None (the core validates the
#: active wrong-path episode itself — a recovery may have ended it early).
EV_BRANCH_RESOLVE = 3
#: A store's address resolved under an already-issued younger same-address
#: load; payload is the ``(store, load)`` pair.  Delivery re-validates both
#: ops (either may have been squashed between post and delivery) before
#: training the store-set predictor and squashing from the load.
EV_MEM_VIOLATION = 4


class DeadlockError(RuntimeError):
    """The simulation exceeded its cycle bound without draining the window.

    Subclasses :class:`RuntimeError` for backward compatibility with the
    pre-kernel guard.  The message names the stuck oldest op and its unmet
    dependencies so a hung configuration is diagnosable from the exception
    alone (sweep error rows carry it verbatim).

    With interval telemetry enabled (``CoreParams.telemetry_interval``)
    the core also attaches its flight recorder — the last few telemetry
    samples — as ``samples``, and appends them to the message, so a hang
    arrives with its own recent history (occupancy, IPC, checker lag).
    """

    def __init__(self, message: str, samples: list[dict] | None = None):
        super().__init__(message)
        #: Last telemetry samples before the guard tripped (empty when
        #: telemetry was off).
        self.samples: list[dict] = samples or []


class EventWheel:
    """Cycle-indexed timed-wakeup wheel.

    Sparse by design: a plain ``{cycle: [(kind, payload), ...]}`` map, so
    posting is O(1), draining a cycle is O(events due), and an eventless
    cycle costs one dictionary miss.  Events are delivered in posting
    order within a cycle; handlers that need program order (check
    retirement) sort their own batch.
    """

    __slots__ = ("_due", "posted")

    def __init__(self) -> None:
        self._due: dict[int, list[tuple[int, Any]]] = {}
        #: Total events ever posted (kernel telemetry, surfaced by bench).
        self.posted = 0

    def post(self, cycle: int, kind: int, payload: Any) -> None:
        """Schedule ``(kind, payload)`` for delivery at ``cycle``."""
        self.posted += 1
        bucket = self._due.get(cycle)
        if bucket is None:
            self._due[cycle] = [(kind, payload)]
        else:
            bucket.append((kind, payload))

    def pop_due(self, cycle: int) -> list[tuple[int, Any]] | None:
        """Remove and return the events due at exactly ``cycle`` (or None)."""
        return self._due.pop(cycle, None)

    def next_cycle(self) -> int | None:
        """Earliest cycle with a pending event (deadlock diagnostics)."""
        return min(self._due) if self._due else None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._due.values())


class ReadyQueue:
    """Seq-ordered ready queue for out-of-order primary issue.

    A min-heap keyed by sequence number reproduces the window scan's
    oldest-first order (live window seqs are strictly increasing).  A
    monotonic tiebreak keeps heap entries comparable when a stale entry
    for a squashed op coexists with its re-fetched (same-seq) successor;
    staleness is resolved lazily in :meth:`pop_live`.
    """

    __slots__ = ("_heap", "_tick")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, DynOp]] = []
        self._tick = 0

    def push(self, op: DynOp) -> None:
        """Add a deps-ready, unissued op."""
        self._tick += 1
        heappush(self._heap, (op.seq, self._tick, op))

    def pop_live(self) -> DynOp | None:
        """Pop the oldest live entry; drop squashed/issued entries on the way.

        The issue loop re-:meth:`push`\\ es ops it could not serve this
        cycle (functional unit busy, memory refusal), so popped-but-unissued
        ops are never lost.
        """
        heap = self._heap
        while heap:
            op = heappop(heap)[2]
            if op.squashed or op.issued_at is not None:
                continue
            return op
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[DynOp]:
        """Live entries, unordered (diagnostics only)."""
        return (op for _, _, op in self._heap if not op.squashed and op.issued_at is None)


class CheckQueue:
    """In-order ready queue of correct-path ops awaiting their check.

    Program order is append order: correct-path renames happen in fetch
    order and survive squashes in order (recovery re-fetches are appended
    with larger seqs after older survivors).  ``head`` drops squashed
    entries lazily; the checker pops an op only when its check issues, so
    the head is precisely where the paper's in-order check pipeline is
    blocked.
    """

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: deque[DynOp] = deque()

    def append(self, op: DynOp) -> None:
        self._queue.append(op)

    def head(self) -> DynOp | None:
        """The next op the in-order checker may start, or None."""
        queue = self._queue
        while queue:
            op = queue[0]
            if op.squashed:
                queue.popleft()
                continue
            return op
        return None

    def popleft(self) -> None:
        """Consume the current head (its check just issued)."""
        self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class FUPool:
    """Per-class functional-unit availability with unpipelined blocking.

    Tracks how many issues each unit class has accepted this cycle
    (pipelined units accept one new op per unit per cycle) and which units
    in-flight unpipelined divides block across cycles.
    """

    def __init__(self, counts: Mapping[FUClass, int]):
        # List storage indexed by FUClass (an IntEnum): the issue loops hit
        # these several times per op, and list indexing beats dict hashing.
        self._counts: list[int] = [0] * len(FU_CLASSES)
        for cls, count in counts.items():
            self._counts[cls] = count
        self._used: list[int] = [0] * len(FU_CLASSES)
        # busy-until cycles of units blocked by in-flight unpipelined ops
        self._blocked: list[list[int]] = [[] for _ in FU_CLASSES]
        self._cycle = -1
        # Issue-count reset in begin_cycle only touches classes that issued
        # last cycle; unpipelined reservations are rare enough to track with
        # one flag instead of four per-cycle list scans.
        self._used_classes: list[int] = []
        self._any_blocked = False

    def begin_cycle(self, now: int) -> None:
        """Reset per-cycle issue counts and release finished unpipelined units."""
        self._cycle = now
        used_classes = self._used_classes
        if used_classes:
            used = self._used
            for cls in used_classes:
                used[cls] = 0
            used_classes.clear()
        if self._any_blocked:
            blocked_lists = self._blocked
            any_left = False
            for cls in FU_CLASSES:
                blocked = blocked_lists[cls]
                if blocked:
                    blocked_lists[cls] = blocked = [end for end in blocked if end > now]
                    if blocked:
                        any_left = True
            self._any_blocked = any_left

    def available(self, cls: FUClass) -> int:
        """Units of ``cls`` that can still accept an op this cycle."""
        return self._counts[cls] - self._used[cls] - len(self._blocked[cls])

    def acquire(self, cls: FUClass, busy_until: int | None = None) -> None:
        """Issue one op to a ``cls`` unit.

        Args:
            busy_until: For unpipelined ops, the completion cycle through
                which the unit stays blocked; ``None`` for pipelined ops.

        Raises:
            RuntimeError: if no unit is available (callers must check
                :meth:`available` first).
        """
        if self.available(cls) <= 0:
            raise RuntimeError(f"no {cls.name} unit available at cycle {self._cycle}")
        if busy_until is not None:
            # The blocked entry covers the issue cycle too (busy_until is
            # in the future), so counting it in _used as well would make
            # one divide occupy two units this cycle.
            self._blocked[cls].append(busy_until)
            self._any_blocked = True
        else:
            if not self._used[cls]:
                self._used_classes.append(cls)
            self._used[cls] += 1

    def try_acquire(self, cls: FUClass, busy_until: int | None = None) -> bool:
        """Fused :meth:`available` + :meth:`acquire` for the issue hot path.

        Returns False (without side effects) when no ``cls`` unit can accept
        an op this cycle.
        """
        if self._counts[cls] - self._used[cls] - len(self._blocked[cls]) <= 0:
            return False
        if busy_until is not None:
            self._blocked[cls].append(busy_until)
            self._any_blocked = True
        else:
            if not self._used[cls]:
                self._used_classes.append(cls)
            self._used[cls] += 1
        return True

    def release(self, cls: FUClass, busy_until: int) -> bool:
        """Free one unit blocked through ``busy_until`` (a squashed op).

        Squash-and-replay removes ops from the window, but an in-flight
        unpipelined op's reservation would otherwise keep its unit blocked
        for the full latency of work that no longer exists.  Returns True
        if a matching reservation was found and removed; False if it had
        already expired (``begin_cycle`` dropped it) — a no-op, not an
        error, so callers can release unconditionally at squash time.
        """
        blocked = self._blocked[cls]
        if busy_until in blocked:
            blocked.remove(busy_until)
            return True
        return False

    def utilization(self, classes: Iterable[FUClass] | None = None) -> dict[FUClass, int]:
        """Current-cycle issues per class (for stats and tests)."""
        wanted = tuple(classes) if classes is not None else FU_CLASSES
        return {cls: self._used[cls] for cls in wanted}
