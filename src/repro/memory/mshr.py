"""Miss status holding registers (MSHRs).

The MSHR file bounds the number of distinct outstanding cache-line misses
(Table 1: 32 MSHRs) and the number of accesses that may merge onto one
outstanding miss (8 targets per MSHR).  When either bound is hit the
requesting load/store cannot issue this cycle — the core replays it — which
is exactly the memory-level-parallelism throttle whose interaction with
window capacity (the C factor) drives the paper's floating-point results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


#: Sentinel "no in-flight miss" completion cycle (any real cycle is lower).
_NEVER = float("inf")


class MSHROutcome(enum.Enum):
    """Result of asking the MSHR file to track a miss."""

    NEW = "new"  #: allocated a fresh MSHR for this line
    MERGED = "merged"  #: attached as an extra target on an existing miss
    NO_MSHR = "no_mshr"  #: all MSHRs busy — retry later
    NO_TARGET = "no_target"  #: line already has the maximum merged targets


@dataclass(slots=True)
class _Miss:
    ready_at: int
    targets: int


class MSHRFile:
    """Tracks outstanding line misses with bounded entries and targets."""

    def __init__(self, entries: int = 32, targets_per_entry: int = 8):
        if entries <= 0 or targets_per_entry <= 0:
            raise ValueError("entries and targets_per_entry must be positive")
        self.entries = entries
        self.targets_per_entry = targets_per_entry
        self._misses: dict[int, _Miss] = {}
        # Earliest in-flight completion: reclaim scans only when some miss
        # can actually have finished (this sits on the access hot path).
        self._next_ready = _NEVER
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.target_stalls = 0

    def _reclaim(self, now: int) -> None:
        if now < self._next_ready:
            return
        misses = self._misses
        finished = [line for line, miss in misses.items() if miss.ready_at <= now]
        for line in finished:
            del misses[line]
        self._next_ready = (
            min(miss.ready_at for miss in misses.values()) if misses else _NEVER
        )

    def outstanding(self, now: int) -> int:
        """Number of line misses still in flight at cycle ``now``."""
        self._reclaim(now)
        return len(self._misses)

    def lookup(self, line: int, now: int) -> int | None:
        """Return the ready cycle of an in-flight miss on ``line``, if any."""
        self._reclaim(now)
        miss = self._misses.get(line)
        return miss.ready_at if miss is not None else None

    def request(self, line: int, now: int, ready_at: int) -> tuple[MSHROutcome, int]:
        """Track a miss on ``line`` issued at ``now`` completing at ``ready_at``.

        Returns:
            ``(outcome, ready_cycle)``.  For ``MERGED`` the returned ready
            cycle is the existing miss's completion time; for refusals it is
            ``now`` (meaningless, the access must be retried).
        """
        self._reclaim(now)
        miss = self._misses.get(line)
        if miss is not None:
            if miss.targets >= self.targets_per_entry:
                self.target_stalls += 1
                return MSHROutcome.NO_TARGET, now
            miss.targets += 1
            self.merges += 1
            return MSHROutcome.MERGED, miss.ready_at
        if len(self._misses) >= self.entries:
            self.full_stalls += 1
            return MSHROutcome.NO_MSHR, now
        self._allocate(line, ready_at)
        return MSHROutcome.NEW, ready_at

    def _allocate(self, line: int, ready_at: int) -> None:
        """Track a new miss on ``line``; the caller has checked it is
        absent and that an entry is free (reclaimed at the current cycle)."""
        self._misses[line] = _Miss(ready_at=ready_at, targets=1)
        if ready_at < self._next_ready:
            self._next_ready = ready_at
        self.allocations += 1

    def flush(self) -> None:
        """Drop all in-flight state (between independent regions)."""
        self._misses.clear()
        self._next_ready = _NEVER

    def reset(self) -> None:
        """Drop in-flight state *and* counters (between independent runs)."""
        self.flush()
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.target_stalls = 0
