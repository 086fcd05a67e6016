"""Memory hierarchy: latencies per level, ports, MSHR bounds, bus charging."""

import random
from dataclasses import asdict, replace

import pytest

from repro.core.sched import EV_MEM_FILL, EventWheel
from repro.memory.hierarchy import AccessResult, HierarchyParams, MemoryHierarchy
from repro.memory.mshr import MSHROutcome

P = HierarchyParams()  # Table 1 defaults
COLD_A = 0x1000_0000
COLD_B = 0x2000_0000

#: Cycle a cold (L2-miss) access issued at cycle 0 completes:
#: L1 + L2 lookup latencies, then a full memory access off an idle bus.
COLD_READY = P.l1_latency + P.l2_latency + P.mem_latency


def test_cold_access_goes_to_memory():
    hierarchy = MemoryHierarchy()
    result = hierarchy.access(COLD_A, now=0)
    assert result.ok and result.level == "mem"
    assert result.ready_at == COLD_READY


def test_access_in_miss_shadow_merges_at_mshrs_with_same_ready_cycle():
    hierarchy = MemoryHierarchy()
    first = hierarchy.access(COLD_A, now=0)
    second = hierarchy.access(COLD_A + 8, now=1)  # same line, still in flight
    assert second.level == "mshr"
    assert second.ready_at == first.ready_at
    assert hierarchy.mshrs.merges == 1


def test_line_hits_in_l1_after_fill_arrives():
    hierarchy = MemoryHierarchy()
    hierarchy.access(COLD_A, now=0)
    later = COLD_READY + 10
    result = hierarchy.access(COLD_A, now=later)
    assert result.level == "l1"
    assert result.ready_at == later + P.l1_latency


def test_l1_eviction_falls_back_to_l2_latency():
    params = HierarchyParams(l1d_size=128, l1_ways=2)  # one-set L1D
    hierarchy = MemoryHierarchy(params)
    t = 0
    for addr in (COLD_A, COLD_A + 64, COLD_A + 128):  # 3 lines, 2 ways
        hierarchy.access(addr, now=t)
        t += 1000  # let each fill land before the next access
    result = hierarchy.access(COLD_A, now=t)  # evicted from L1, still in L2
    assert result.level == "l2"
    assert result.ready_at == t + P.l1_latency + P.l2_latency


def test_ports_exhaust_within_a_cycle_and_recover_next_cycle():
    hierarchy = MemoryHierarchy()
    base = COLD_READY + 50
    hierarchy.access(COLD_A, now=0)
    for i in range(P.dcache_ports):
        assert hierarchy.access(COLD_A, now=base + i * 0).ok  # same cycle hits
    refused = hierarchy.access(COLD_A, now=base)
    assert not refused.ok and refused.reason == "port"
    assert hierarchy.stats.port_conflicts == 1
    assert hierarchy.access(COLD_A, now=base + 1).ok


def test_mshr_file_exhaustion_refuses_without_losing_a_port():
    params = HierarchyParams(mshr_entries=1)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0)
    refused = hierarchy.access(COLD_B, now=0)
    assert not refused.ok and refused.reason == "mshr"
    assert hierarchy.ports_free(0) == P.dcache_ports - 1  # only the NEW miss holds one


def test_mshr_target_overflow_refuses():
    params = HierarchyParams(mshr_targets=1)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0)
    refused = hierarchy.access(COLD_A + 4, now=1)
    assert not refused.ok and refused.reason == "mshr_target"


def test_refused_replays_do_not_inflate_the_miss_rate():
    params = HierarchyParams(mshr_entries=1)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0)
    misses_before = hierarchy.l1d.stats.misses
    for cycle in range(1, 6):
        hierarchy.access(COLD_B, now=cycle)  # refused every cycle
    assert hierarchy.l1d.stats.misses == misses_before


def test_parallel_cold_misses_serialize_on_the_bus():
    hierarchy = MemoryHierarchy()
    first = hierarchy.access(COLD_A, now=0)
    second = hierarchy.access(COLD_B, now=0)
    assert first.ready_at == COLD_READY
    assert second.ready_at == COLD_READY + P.bus_cycles_per_transfer
    assert hierarchy.bus.transfers == 2


def test_store_dirties_line_and_eviction_writes_back_to_l2():
    params = HierarchyParams(l1d_size=128, l1_ways=2)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0, is_store=True)
    t = 1000
    for addr in (COLD_A + 64, COLD_A + 128):  # push the dirty line out
        hierarchy.access(addr, now=t)
        t += 1000
    hierarchy.access(COLD_A + 192, now=t)  # forces drain + another eviction
    assert hierarchy.l1d.stats.writebacks >= 1


def test_ifetch_miss_stalls_but_prefetched_lines_hit():
    hierarchy = MemoryHierarchy()
    pc = 0x0040_0000
    first = hierarchy.ifetch(pc, now=0)
    assert first.level == "mem" and first.ready_at == COLD_READY
    # The stream buffer covered the next IFETCH_PREFETCH_LINES lines.
    for ahead in range(1, MemoryHierarchy.IFETCH_PREFETCH_LINES + 1):
        result = hierarchy.ifetch(pc + ahead * P.line_bytes, now=500 + ahead)
        assert result.level == "l1" and result.ready_at == 500 + ahead


def test_reset_restores_cold_state():
    hierarchy = MemoryHierarchy()
    hierarchy.access(COLD_A, now=0)
    hierarchy.reset()
    assert hierarchy.bus.transfers == 0
    result = hierarchy.access(COLD_A, now=0)
    assert result.level == "mem"


def test_snapshot_exposes_key_counters():
    hierarchy = MemoryHierarchy()
    hierarchy.access(COLD_A, now=0)
    snap = hierarchy.snapshot()
    assert snap["bus_transfers"] == 1
    assert 0.0 <= snap["l1d_miss_rate"] <= 1.0


# ------------------------------------------------------- refusal accounting


def test_mshr_merge_counts_as_an_l1d_miss():
    hierarchy = MemoryHierarchy()
    hierarchy.access(COLD_A, now=0)
    merged = hierarchy.access(COLD_A + 8, now=1)
    assert merged.ok and merged.level == "mshr"
    assert hierarchy.l1d.stats.misses == 2
    assert hierarchy.l1d.stats.hits == 0
    assert hierarchy.snapshot()["l1d_accesses"] == 2


def _banked(**overrides) -> MemoryHierarchy:
    """Two banks of one slot each, so a kept bank slot is observable."""
    return MemoryHierarchy(HierarchyParams(dcache_ports=2, dcache_banks=2, **overrides))


#: Same line interleaving bank as COLD_A under ``_banked`` (two lines on).
SAME_BANK_AS_A = COLD_A + 2 * P.line_bytes


def test_mshr_full_refusal_refunds_the_port_but_keeps_the_bank_slot():
    hierarchy = _banked(mshr_entries=1)
    hierarchy.access(COLD_B, now=0)  # takes the only MSHR
    l1d_before = (hierarchy.l1d.stats.hits, hierarchy.l1d.stats.misses)
    refused = hierarchy.access(COLD_A, now=1)
    assert not refused.ok and refused.reason == "mshr"
    assert (hierarchy.l1d.stats.hits, hierarchy.l1d.stats.misses) == l1d_before
    assert hierarchy.mshrs.full_stalls == 1
    assert hierarchy.mshrs.target_stalls == 0
    assert hierarchy.ports_free(1) == 2  # port refunded
    # ...but COLD_A's bank slot stays taken for the cycle.
    blocked = hierarchy.access(SAME_BANK_AS_A, now=1)
    assert not blocked.ok and blocked.reason == "bank"
    assert sum(hierarchy.stats.bank_conflicts) == 1


def test_mshr_target_refusal_refunds_the_port_but_keeps_the_bank_slot():
    hierarchy = _banked(mshr_targets=1)
    hierarchy.access(COLD_A, now=0)
    l1d_before = (hierarchy.l1d.stats.hits, hierarchy.l1d.stats.misses)
    refused = hierarchy.access(COLD_A + 4, now=1)
    assert not refused.ok and refused.reason == "mshr_target"
    assert (hierarchy.l1d.stats.hits, hierarchy.l1d.stats.misses) == l1d_before
    assert hierarchy.mshrs.target_stalls == 1
    assert hierarchy.mshrs.full_stalls == 0
    assert hierarchy.mshrs.merges == 0
    assert hierarchy.ports_free(1) == 2
    blocked = hierarchy.access(SAME_BANK_AS_A, now=1)
    assert not blocked.ok and blocked.reason == "bank"


def test_refusals_carry_their_reason_and_are_shared_constants():
    hierarchy = _banked(mshr_entries=1)
    hierarchy.access(COLD_B, now=0)
    first = hierarchy.access(COLD_A, now=1)
    again = hierarchy.access(COLD_A, now=2)
    assert (first.ok, first.reason) == (False, "mshr")
    assert again is first  # no allocation per replay
    unbanked = MemoryHierarchy()
    port = [unbanked.access(COLD_A, now=0) for _ in range(P.dcache_ports + 1)][-1]
    assert (port.ok, port.reason) == (False, "port")
    bank = _banked()
    bank.access(COLD_A, now=0)
    refused = bank.access(SAME_BANK_AS_A, now=0)
    assert (refused.ok, refused.reason) == (False, "bank")


# ------------------------------------------------ differential vs reference


def _reference_access(h: MemoryHierarchy, addr: int, now: int, is_store: bool):
    """The data path spelled out on the public Cache/MSHRFile calls: port,
    bank, L1D lookup, then MSHR lookup / outstanding / request, undoing the
    port and the miss count on a refusal."""
    p = h.params
    if h._wheel is None:
        h._drain_fills(now)
    elif h._fills_armed:
        h._drain_fills(now)
        h._fills_armed = False
    if not h._take_port(now):
        return AccessResult(ok=False, reason="port")
    if h._nbanks > 1 and not h._take_bank_slot(addr, now, checker=False):
        h._ports_used -= 1
        return AccessResult(ok=False, reason="bank")
    if h.l1d.lookup(addr, is_store=is_store):
        h.stats.accesses["l1"] += 1
        return AccessResult(ok=True, ready_at=now + p.l1_latency, level="l1")
    line = h.l1d.line_addr(addr)
    in_flight = h.mshrs.lookup(line, now)
    if in_flight is not None:
        outcome, ready = h.mshrs.request(line, now, in_flight)
        if outcome is MSHROutcome.MERGED:
            if is_store and line in h._pending_fills:
                h._pending_fills[line][2] = True
            h.stats.accesses["mshr"] += 1
            return AccessResult(
                ok=True, ready_at=max(ready, now + p.l1_latency), level="mshr"
            )
        h._ports_used -= 1
        h.l1d.stats.misses -= 1
        return AccessResult(ok=False, reason="mshr_target")
    if h.mshrs.outstanding(now) >= h.mshrs.entries:
        h.mshrs.request(line, now, now)
        h._ports_used -= 1
        h.l1d.stats.misses -= 1
        return AccessResult(ok=False, reason="mshr")
    ready, level = h._fetch_line(addr, now)
    h.mshrs.request(line, now, ready)
    h._pending_fills[line] = [ready, addr, is_store]
    if h._wheel is not None:
        h._wheel.post(ready, EV_MEM_FILL, line)
    h.stats.accesses[level] += 1
    return AccessResult(ok=True, ready_at=ready, level=level)


def _observable(h: MemoryHierarchy, now: int) -> dict:
    mshrs = h.mshrs
    return {
        "stats": asdict(h.stats),
        "caches": [asdict(c.stats) for c in (h.l1i, h.l1d, h.l2)],
        "mshr_counters": (
            mshrs.allocations, mshrs.merges, mshrs.full_stalls, mshrs.target_stalls
        ),
        "mshr_outstanding": mshrs.outstanding(now),
        "pending_fills": {k: list(v) for k, v in h._pending_fills.items()},
        "ports_free": h.ports_free(now),
        "bus": (h.bus.transfers, h.bus.total_queue_delay),
        "raw": h.raw_counters(),
    }


@pytest.mark.parametrize("with_wheel", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_access_matches_the_reference_model_on_a_random_stream(seed, with_wheel):
    params = HierarchyParams(
        l1d_size=1024,  # 8 sets x 2 ways: evictions and writebacks
        mem_latency=40,
        dcache_ports=4,
        dcache_banks=4,
        mshr_entries=3,
        mshr_targets=2,
    )
    fast, ref = MemoryHierarchy(params), MemoryHierarchy(replace(params))
    wheels = (EventWheel(), EventWheel()) if with_wheel else (None, None)
    if with_wheel:
        fast.attach_wheel(wheels[0])
        ref.attach_wheel(wheels[1])
    rng = random.Random(seed)
    lines = [COLD_A + i * P.line_bytes for i in range(40)]
    now = 0
    refusals = set()
    for _ in range(600):
        now += 1 if rng.random() < 0.9 else rng.randint(2, 60)
        for h, wheel in zip((fast, ref), wheels):
            if wheel is not None:
                for cycle in range(now - 60, now + 1):
                    if wheel.pop_due(cycle):
                        h.fills_due()
        for _ in range(rng.randint(0, 6)):
            addr = rng.choice(lines) + rng.randrange(0, P.line_bytes, 8)
            is_store = rng.random() < 0.3
            got = fast.access(addr, now, is_store=is_store)
            want = _reference_access(ref, addr, now, is_store)
            assert (got.ok, got.ready_at, got.level, got.reason) == (
                want.ok, want.ready_at, want.level, want.reason
            )
            if not got.ok:
                refusals.add(got.reason)
            assert _observable(fast, now) == _observable(ref, now)
    # The stream really exercised every refusal path.
    assert refusals == {"port", "bank", "mshr", "mshr_target"}
