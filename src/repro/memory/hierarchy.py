"""Timing-oriented memory hierarchy tying caches, MSHRs, and the bus together.

The hierarchy answers the core's question "if this access issues at cycle
``now``, when does its value arrive — and may it issue at all?".  Structural
refusals (all data-cache ports busy this cycle, MSHR file full, merge-target
overflow) come back as a non-OK :class:`AccessResult` and the core replays
the access on a later cycle, exactly the throttle that bounds memory-level
parallelism in the paper's experiments.

State updates are *eager*: a miss installs its line immediately while the
returned ready cycle carries the timing, which keeps the model single-pass
and deterministic.  The exception is the L1D, whose fills are deferred
until the miss response arrives; with a scheduling kernel attached (see
:meth:`MemoryHierarchy.attach_wheel`) each deferred fill posts an
``EV_MEM_FILL`` wheel event for its arrival cycle instead of being polled
on every access, and the drain runs only once a response is actually due.
Fills are still *applied* at the first data access on or after arrival —
identical observable timing to the polled model, verified by the
golden-equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.bus import MemoryBus
from repro.memory.cache import LINE_BYTES, Cache, CacheStats
from repro.memory.mshr import MSHRFile

#: Mirror of :data:`repro.core.sched.EV_MEM_FILL` (importing it here would
#: cycle: repro.core.core imports this module).  Pinned equal by a test.
_EV_MEM_FILL = 1


@dataclass(slots=True)
class HierarchyParams:
    """Table 1 memory-system configuration.

    Attributes:
        l1i_size / l1d_size: Split 64KB L1 instruction / data caches.
        l1_ways: L1 associativity (2-way).
        l1_latency: L1 hit latency in cycles (3).
        l2_size / l2_ways / l2_latency: Unified 2MB 4-way L2, 12-cycle hits.
        mem_latency: Main-memory access latency (200 cycles).
        line_bytes: Cache line size everywhere (64 bytes).
        dcache_ports: Data-cache ports shared by all loads/stores per cycle.
        dcache_banks: Line-interleaved L1D banks.  1 (the default) models a
            fully-ported cache — the legacy behaviour.  With more banks,
            each bank serves at most ``max(1, dcache_ports // dcache_banks)``
            accesses per cycle, so same-bank accesses conflict even when
            ports remain — and checker re-accesses (see
            ``MemoryHierarchy.checker_probe``) contend with the primary
            path for the same bank slots.
        mshr_entries / mshr_targets: MSHR file bounds (32 entries, 8 targets).
        bus_cycles_per_transfer: Line occupancy of the memory bus.
    """

    l1i_size: int = 64 * 1024
    l1d_size: int = 64 * 1024
    l1_ways: int = 2
    l1_latency: int = 3
    l2_size: int = 2 * 1024 * 1024
    l2_ways: int = 4
    l2_latency: int = 12
    mem_latency: int = 200
    line_bytes: int = LINE_BYTES
    dcache_ports: int = 4
    dcache_banks: int = 1
    mshr_entries: int = 32
    mshr_targets: int = 8
    bus_cycles_per_transfer: int = 4


@dataclass(slots=True)
class AccessResult:
    """Answer to one data access.

    Attributes:
        ok: False when the access could not issue this cycle and must be
            replayed (see ``reason``).
        ready_at: Cycle the value is available (meaningless when not ok).
        level: Hierarchy level that serviced the access: ``"l1"``, ``"l2"``,
            ``"mem"``, or ``"mshr"`` for a hit on an in-flight miss.
        reason: Refusal reason when not ok: ``"port"``, ``"bank"``,
            ``"mshr"``, or ``"mshr_target"``.

    Refusal results are shared module-level constants (one per reason),
    not fresh objects: callers must treat every result as read-only.
    """

    ok: bool
    ready_at: int = 0
    level: str = "l1"
    reason: str | None = None


#: Shared refusal answers: the core replays refused accesses every cycle,
#: so refusals allocate nothing.  Never mutate these.
_REFUSED_PORT = AccessResult(ok=False, reason="port")
_REFUSED_BANK = AccessResult(ok=False, reason="bank")
_REFUSED_MSHR = AccessResult(ok=False, reason="mshr")
_REFUSED_MSHR_TARGET = AccessResult(ok=False, reason="mshr_target")


@dataclass(slots=True)
class HierarchyStats:
    """Aggregate counters the caches/MSHR/bus do not track themselves."""

    port_conflicts: int = 0
    ifetch_misses: int = 0
    accesses: dict[str, int] = field(
        default_factory=lambda: {"l1": 0, "l2": 0, "mem": 0, "mshr": 0}
    )
    # --- banking (sized by MemoryHierarchy; all-zero when dcache_banks=1) ---
    #: Primary accesses refused because their bank was saturated this cycle.
    bank_conflicts: list[int] = field(default_factory=list)
    #: Checker re-access attempts (see ``MemoryHierarchy.checker_probe``).
    checker_probes: int = 0
    #: Checker probes refused at the port level (all ports busy).
    checker_port_conflicts: int = 0
    #: Checker probes refused because their bank was saturated this cycle.
    checker_bank_conflicts: list[int] = field(default_factory=list)


class MemoryHierarchy:
    """Split L1 I/D + unified L2 + bandwidth-limited main memory.

    The data path enforces per-cycle port limits and MSHR bounds; the
    instruction path models miss timing only (fetch is one access per
    cycle per group, so I-cache ports are never the bottleneck here).
    """

    def __init__(self, params: HierarchyParams | None = None):
        self.params = params or HierarchyParams()
        p = self.params
        if p.dcache_banks <= 0:
            raise ValueError(f"dcache_banks must be positive, got {p.dcache_banks}")
        self._nbanks = p.dcache_banks
        # Hot-path copies of the params the data path reads on every access.
        self._dcache_ports = p.dcache_ports
        self._l1_latency = p.l1_latency
        #: Per-bank per-cycle access capacity under line interleaving.
        self._bank_ports = max(1, p.dcache_ports // p.dcache_banks)
        self._bank_cycle = -1
        self._banks_used = [0] * self._nbanks
        self.l1i = Cache(p.l1i_size, p.l1_ways, p.line_bytes, name="l1i")
        self.l1d = Cache(p.l1d_size, p.l1_ways, p.line_bytes, name="l1d")
        self.l2 = Cache(p.l2_size, p.l2_ways, p.line_bytes, name="l2")
        self.mshrs = MSHRFile(entries=p.mshr_entries, targets_per_entry=p.mshr_targets)
        self.bus = MemoryBus(cycles_per_transfer=p.bus_cycles_per_transfer)
        self.stats = self._fresh_stats()
        self._port_cycle = -1
        self._ports_used = 0
        # line -> [ready_at, byte_addr, dirty]; L1D fills are applied only
        # once the miss response arrives, so accesses in the shadow of an
        # outstanding miss merge at the MSHRs instead of hitting early.
        self._pending_fills: dict[int, list] = {}
        # Scheduling-kernel hookup: with a wheel attached, each deferred
        # fill posts an EV_MEM_FILL event and `_fills_armed` flips only
        # when a response is due, replacing the per-access poll.
        self._wheel = None
        self._fills_armed = False

    def attach_wheel(self, wheel) -> None:
        """Route deferred-fill arrivals through ``wheel`` (an
        :class:`~repro.core.sched.EventWheel`) instead of per-access polls.

        The core re-attaches its fresh wheel every run; events posted to a
        previous run's wheel die with it.
        """
        self._wheel = wheel
        self._fills_armed = False

    def fills_due(self) -> None:
        """EV_MEM_FILL delivery: a miss response has arrived.

        Arms the drain; the fill is applied at the next data access, which
        is exactly when the polled model would have applied it (the L1D is
        only observable through accesses).
        """
        self._fills_armed = True

    def _drain_fills(self, now: int) -> None:
        if not self._pending_fills:
            return
        arrived = [line for line, (ready, _, _) in self._pending_fills.items() if ready <= now]
        for line in arrived:
            _, addr, dirty = self._pending_fills.pop(line)
            evicted = self.l1d.fill(addr, dirty=dirty)
            if evicted is not None and evicted.dirty:
                self._fill_l2(evicted.line_addr * self.l1d.line_bytes, now, dirty=True)

    def _fresh_stats(self) -> HierarchyStats:
        stats = HierarchyStats()
        stats.bank_conflicts = [0] * self._nbanks
        stats.checker_bank_conflicts = [0] * self._nbanks
        return stats

    # ------------------------------------------------------------------ ports

    def ports_free(self, now: int) -> int:
        """Data-cache ports still available at cycle ``now``."""
        if now != self._port_cycle:
            return self._dcache_ports
        return self._dcache_ports - self._ports_used

    def _take_port(self, now: int) -> bool:
        if now != self._port_cycle:
            self._port_cycle = now
            self._ports_used = 0
        if self._ports_used >= self._dcache_ports:
            self.stats.port_conflicts += 1
            return False
        self._ports_used += 1
        return True

    # ------------------------------------------------------------------ banks

    def _take_bank_slot(self, addr: int, now: int, checker: bool) -> bool:
        """Claim a per-cycle slot in ``addr``'s (line-interleaved) bank.

        Only called when ``dcache_banks > 1``.  Refusals are counted
        per-bank, attributed to the checker or the primary path.
        """
        if now != self._bank_cycle:
            self._bank_cycle = now
            self._banks_used = [0] * self._nbanks
        bank = (addr // self.params.line_bytes) % self._nbanks
        if self._banks_used[bank] >= self._bank_ports:
            if checker:
                self.stats.checker_bank_conflicts[bank] += 1
            else:
                self.stats.bank_conflicts[bank] += 1
            return False
        self._banks_used[bank] += 1
        return True

    def checker_probe(self, addr: int, now: int) -> bool:
        """One checker re-access attempt at ``addr``; True if it may proceed.

        The core wires this into the :class:`~repro.core.checker.Checker`
        only when banking is modelled (``dcache_banks > 1``).  A successful
        probe consumes a real port and bank slot, so checker traffic
        genuinely contends with the primary path; a refusal stalls the
        in-order check pipeline for the cycle and is counted per bank.
        """
        self.stats.checker_probes += 1
        if not self._take_port(now):
            self.stats.checker_port_conflicts += 1
            return False
        if not self._take_bank_slot(addr, now, checker=True):
            self._ports_used -= 1
            return False
        return True

    # ------------------------------------------------------------- data path

    def access(self, addr: int, now: int, is_store: bool = False) -> AccessResult:
        """Issue a load/store to byte ``addr`` at cycle ``now``.

        Hits cost the L1 latency.  Misses consult the MSHR file: a hit on an
        in-flight miss merges (``level == "mshr"``, still counted as an L1D
        miss); otherwise a fresh MSHR is allocated and the line fetched from
        L2 or memory, installing it into both levels.

        Refusals (``ok=False``) hold no port and leave the L1D hit/miss
        counters untouched, so a replay storm does not inflate the miss
        rate.  An MSHR refusal (``"mshr"``/``"mshr_target"``) does keep its
        bank slot for the cycle: the array was probed before the miss had
        nowhere to go.  Refusals are shared constants (see
        :class:`AccessResult`).
        """
        if self._wheel is None:
            self._drain_fills(now)
        elif self._fills_armed:
            self._drain_fills(now)
            self._fills_armed = False
        # Port claim, inlined from _take_port.
        if now != self._port_cycle:
            self._port_cycle = now
            self._ports_used = 0
        if self._ports_used >= self._dcache_ports:
            self.stats.port_conflicts += 1
            return _REFUSED_PORT
        self._ports_used += 1
        if self._nbanks > 1 and not self._take_bank_slot(addr, now, checker=False):
            # Bank saturated even though a port was free: refund the port
            # (the access never reached the array) and replay next cycle.
            self._ports_used -= 1
            return _REFUSED_BANK
        # L1D probe, inlined from Cache.lookup: the miss is only counted
        # once the MSHRs accept the access.
        l1d = self.l1d
        line = addr >> l1d._line_shift
        cache_set = l1d._sets[line & l1d._set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            if is_store:
                cache_set[line] = True
            l1d.stats.hits += 1
            self.stats.accesses["l1"] += 1
            return AccessResult(True, now + self._l1_latency, "l1")

        # MSHR lookup + request, inlined with a single gated reclaim for
        # the whole access (no in-flight miss can finish within the call).
        mshrs = self.mshrs
        if now >= mshrs._next_ready:
            mshrs._reclaim(now)
        miss = mshrs._misses.get(line)
        if miss is not None:
            if miss.targets >= mshrs.targets_per_entry:
                mshrs.target_stalls += 1
                self._ports_used -= 1
                return _REFUSED_MSHR_TARGET
            miss.targets += 1
            mshrs.merges += 1
            l1d.stats.misses += 1
            if is_store and line in self._pending_fills:
                self._pending_fills[line][2] = True
            self.stats.accesses["mshr"] += 1
            # Merging never beats an L1 hit: data arriving with the fill
            # still crosses the L1 access path.
            return AccessResult(
                True, max(miss.ready_at, now + self._l1_latency), "mshr"
            )
        if len(mshrs._misses) >= mshrs.entries:
            mshrs.full_stalls += 1
            self._ports_used -= 1
            return _REFUSED_MSHR

        l1d.stats.misses += 1
        ready, level = self._fetch_line(addr, now)
        mshrs._allocate(line, ready)
        self._pending_fills[line] = [ready, addr, is_store]
        if self._wheel is not None:
            self._wheel.post(ready, _EV_MEM_FILL, line)
        self.stats.accesses[level] += 1
        return AccessResult(True, ready, level)

    def _fetch_line(self, addr: int, now: int) -> tuple[int, str]:
        """Bring ``addr``'s line from L2 or memory; returns (ready, level)."""
        p = self.params
        if self.l2.lookup(addr):
            return now + p.l1_latency + p.l2_latency, "l2"
        start = self.bus.schedule(now + p.l1_latency + p.l2_latency)
        self._fill_l2(addr, start)
        return start + p.mem_latency, "mem"

    # ------------------------------------------------------ instruction path

    #: Sequential lines brought in behind every fetch-group access.  The
    #: stream buffer is modelled as ideal (prefetches complete before the
    #: demand access that would need them), so only discontinuous fetches —
    #: the first access and branch targets beyond the prefetch distance —
    #: can stall the front end.
    IFETCH_PREFETCH_LINES = 4

    def ifetch(self, pc: int, now: int, prefetch: bool = True) -> AccessResult:
        """Fetch-group access to the I-cache at ``pc``.

        Hits are free from the core's point of view (fetch is pipelined);
        the core stalls only on the returned ready cycle of a miss.
        ``prefetch=False`` skips the stream buffer: the ideal-prefetch
        assumption holds for the demand (correct-path) stream only, so
        wrong-path probes fill their own lines but must not prefetch the
        correct path's future lines for free.
        """
        p = self.params
        if self.l1i.lookup(pc):
            result = AccessResult(ok=True, ready_at=now, level="l1")
        else:
            self.stats.ifetch_misses += 1
            ready, level = self._fetch_line(pc, now)
            self.l1i.fill(pc)
            result = AccessResult(ok=True, ready_at=ready, level=level)
        if not prefetch:
            return result
        for ahead in range(1, self.IFETCH_PREFETCH_LINES + 1):
            next_pc = pc + ahead * p.line_bytes
            if not self.l1i.contains(next_pc):
                if not self.l2.contains(next_pc):
                    start = self.bus.schedule(now)  # prefetches consume bandwidth
                    self._fill_l2(next_pc, start)
                self.l1i.fill(next_pc)
        return result

    def _fill_l2(self, addr: int, now: int, dirty: bool = False) -> None:
        """Install a line into L2, charging the bus for any dirty victim."""
        evicted = self.l2.fill(addr, dirty=dirty)
        if evicted is not None and evicted.dirty:
            self.bus.schedule(now)

    # ----------------------------------------------------------------- admin

    def reset(self) -> None:
        """Drop all cached state and counters (between independent runs)."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.invalidate_all()
            cache.stats = CacheStats()
        self.mshrs.reset()
        self.bus.reset()
        self.stats = self._fresh_stats()
        self._port_cycle = -1
        self._ports_used = 0
        self._bank_cycle = -1
        self._banks_used = [0] * self._nbanks
        self._pending_fills.clear()
        self._fills_armed = False

    def raw_counters(self) -> dict[str, float | list[int]]:
        """The raw (pre-derivation) counters behind :meth:`snapshot`.

        Taken at a warm-start measurement boundary so :meth:`snapshot` can
        later report the *measured window's* traffic as deltas against it
        — the derived rates in a snapshot cannot be subtracted, but the
        counters they are computed from can.
        """
        raw: dict[str, float | list[int]] = {
            "l1d_hits": self.l1d.stats.hits,
            "l1d_misses": self.l1d.stats.misses,
            "l2_hits": self.l2.stats.hits,
            "l2_misses": self.l2.stats.misses,
            "writebacks": self.l1d.stats.writebacks + self.l2.stats.writebacks,
            "mshr_merges": self.mshrs.merges,
            "mshr_full_stalls": self.mshrs.full_stalls,
            "port_conflicts": self.stats.port_conflicts,
            "bus_transfers": self.bus.transfers,
            "bus_queue_delay": self.bus.total_queue_delay,
            "ifetch_misses": self.stats.ifetch_misses,
        }
        if self._nbanks > 1:
            raw["bank_conflicts"] = list(self.stats.bank_conflicts)
            raw["checker_probes"] = self.stats.checker_probes
            raw["checker_port_conflicts"] = self.stats.checker_port_conflicts
            raw["checker_bank_conflicts"] = list(self.stats.checker_bank_conflicts)
        return raw

    def snapshot(
        self, baseline: dict[str, float | list[int]] | None = None
    ) -> dict[str, float]:
        """Flat stats dict for reports.

        Banking keys appear only when ``dcache_banks > 1``: the snapshot is
        embedded (``mem_``-prefixed) in every result row, and legacy
        single-bank rows must stay byte-identical.

        With ``baseline`` (a :meth:`raw_counters` capture), every counter
        and rate describes only the traffic *since* that capture — how a
        warm-start window report excludes its warmup prefix.  The default
        (no baseline) derives the same keys from the same arithmetic as
        always, byte-identically.
        """
        base: dict = baseline if baseline is not None else {}
        l1d_hits = self.l1d.stats.hits - base.get("l1d_hits", 0)
        l1d_misses = self.l1d.stats.misses - base.get("l1d_misses", 0)
        l1d_accesses = l1d_hits + l1d_misses
        l2_hits = self.l2.stats.hits - base.get("l2_hits", 0)
        l2_misses = self.l2.stats.misses - base.get("l2_misses", 0)
        l2_accesses = l2_hits + l2_misses
        transfers = self.bus.transfers - base.get("bus_transfers", 0)
        queue_delay = self.bus.total_queue_delay - base.get("bus_queue_delay", 0)
        data: dict[str, float] = {
            "l1d_miss_rate": l1d_misses / l1d_accesses if l1d_accesses else 0.0,
            "l1d_accesses": l1d_accesses,
            "l2_miss_rate": l2_misses / l2_accesses if l2_accesses else 0.0,
            "writebacks": (
                self.l1d.stats.writebacks
                + self.l2.stats.writebacks
                - base.get("writebacks", 0)
            ),
            "mshr_merges": self.mshrs.merges - base.get("mshr_merges", 0),
            "mshr_full_stalls": self.mshrs.full_stalls - base.get("mshr_full_stalls", 0),
            "port_conflicts": self.stats.port_conflicts - base.get("port_conflicts", 0),
            "bus_transfers": transfers,
            "bus_avg_queue_delay": queue_delay / transfers if transfers else 0.0,
            "ifetch_misses": self.stats.ifetch_misses - base.get("ifetch_misses", 0),
        }
        if self._nbanks > 1:
            stats = self.stats
            zero_banks = [0] * self._nbanks
            bank_base = base.get("bank_conflicts", zero_banks)
            checker_bank_base = base.get("checker_bank_conflicts", zero_banks)
            bank_conflicts = [
                count - prev for count, prev in zip(stats.bank_conflicts, bank_base)
            ]
            checker_bank_conflicts = [
                count - prev
                for count, prev in zip(stats.checker_bank_conflicts, checker_bank_base)
            ]
            data["dcache_banks"] = self._nbanks
            data["bank_conflicts"] = sum(bank_conflicts)
            data["bank_conflicts_per_bank"] = bank_conflicts
            data["checker_probes"] = stats.checker_probes - base.get("checker_probes", 0)
            data["checker_port_conflicts"] = stats.checker_port_conflicts - base.get(
                "checker_port_conflicts", 0
            )
            data["checker_bank_conflicts"] = sum(checker_bank_conflicts)
            data["checker_bank_conflicts_per_bank"] = checker_bank_conflicts
        return data
