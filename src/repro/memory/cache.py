"""Set-associative cache with LRU replacement.

The cache tracks tags only (the simulator is trace driven; data values are
not modelled in the cache).  Writes are write-back / write-allocate: a
store miss allocates the line and marks it dirty, and evicting a dirty
line reports a writeback so the hierarchy can charge bus bandwidth.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.util import require_power_of_two

#: Table 1 cache-line size, shared by every cache level and by the
#: workload generator's hot-set / cold-miss address striding.
LINE_BYTES = 64


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction over all lookups (0.0 when never accessed)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses


@dataclass(slots=True)
class EvictedLine:
    """Description of a line pushed out by a fill."""

    line_addr: int
    dirty: bool


class Cache:
    """A set-associative, LRU, write-back/write-allocate cache model.

    Sets are created on first fill: a set that never held a line is
    ``None`` and probes of it miss without allocating, so building or
    invalidating a cache allocates no per-set objects and a run pays only
    for the sets it fills.

    Args:
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Line size (Table 1: 64 bytes).
        name: Label used in stats dumps.
    """

    def __init__(
        self, size_bytes: int, ways: int, line_bytes: int = LINE_BYTES, name: str = "cache"
    ):
        require_power_of_two(line_bytes, "line_bytes")
        if size_bytes % (ways * line_bytes):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line ({ways}*{line_bytes})"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = require_power_of_two(size_bytes // (ways * line_bytes), f"{name} set count")
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set maps line address -> dirty flag, in LRU order (oldest
        # first); None until the set's first fill.
        self._sets: list[OrderedDict[int, bool] | None] = [None] * self.num_sets
        self.stats = CacheStats()

    def line_addr(self, addr: int) -> int:
        """Return the line-aligned address containing byte ``addr``."""
        return addr >> self._line_shift

    def lookup(self, addr: int, is_store: bool = False) -> bool:
        """Probe the cache; returns True on hit.

        A store hit marks the line dirty.  Misses do **not** allocate; call
        :meth:`fill` when the miss response arrives (or immediately, for
        atomic-latency modelling).
        """
        line = self.line_addr(addr)
        cache_set = self._sets[line & self._set_mask]
        if cache_set is not None and line in cache_set:
            cache_set.move_to_end(line)
            if is_store:
                cache_set[line] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> EvictedLine | None:
        """Install the line containing ``addr``; returns any evicted line.

        Filling a line that is already present refreshes its LRU position
        (and merges the dirty flag) rather than evicting.
        """
        line = self.line_addr(addr)
        index = line & self._set_mask
        cache_set = self._sets[index]
        if cache_set is None:
            self._sets[index] = OrderedDict(((line, dirty),))
            return None
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            cache_set.move_to_end(line)
            return None
        evicted = None
        if len(cache_set) >= self.ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
            evicted = EvictedLine(line_addr=victim_line, dirty=victim_dirty)
        cache_set[line] = dirty
        return evicted

    def contains(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        line = self.line_addr(addr)
        cache_set = self._sets[line & self._set_mask]
        return cache_set is not None and line in cache_set

    def invalidate_all(self) -> None:
        """Drop every line (used between independent simulation regions).

        Rebinds an all-``None`` set list: no per-set objects are built.
        """
        self._sets = [None] * self.num_sets
