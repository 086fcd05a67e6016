"""LSQ address indexes stay coherent with the LSQ through every squash path.

The core answers store-to-load forwarding and memory-order-violation
queries from per-address chains of in-flight correct-path stores and loads
instead of scanning the LSQ.  These tests step the core cycle by cycle
through hostile memory-dependence shapes (aliasing stores, wrong paths,
transient faults with checkpoint rollbacks, order violations) and, after
every step, assert that

* the indexes equal a rebuild from ``core._lsq`` (correct-path ops only,
  in seq order), and
* both queries agree with a linear scan of the LSQ, asked for every load
  and every store in flight.
"""

from dataclasses import replace

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.core.dynop import DynOp
from repro.core.params import MemDepParams, RecoveryParams
from repro.isa import MicroOp, OpClass
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.workloads import PRESETS, WrongPathGenerator, generate

NUM_OPS = 1_200


def _scan_forwarding_store(lsq, load):
    """Youngest older correct-path same-address store; None if unissued."""
    for entry in reversed(lsq):
        if entry.seq >= load.seq:
            continue
        if (
            entry.uop.op is OpClass.STORE
            and not entry.wrong_path
            and entry.uop.addr == load.uop.addr
        ):
            return entry if entry.issued_at is not None else None
    return None


def _scan_order_violator(lsq, store):
    """Oldest younger issued same-address load that did not forward from a
    store younger than ``store``."""
    for entry in lsq:
        if entry.seq <= store.seq or entry.wrong_path:
            continue
        if entry.uop.op is not OpClass.LOAD or entry.issued_at is None:
            continue
        if entry.uop.addr != store.uop.addr:
            continue
        fwd = entry.fwd_from
        if fwd is not None and fwd.seq > store.seq:
            continue
        return entry
    return None


def _rebuilt_index(lsq, op_cls):
    index = {}
    for op in lsq:
        if not op.wrong_path and op.uop.op is op_cls:
            index.setdefault(op.uop.addr, []).append(op)
    return index


def _assert_coherent(core: SuperscalarCore) -> None:
    lsq = list(core._lsq)
    assert not any(op.squashed for op in lsq)
    assert [op.seq for op in lsq if not op.wrong_path] == sorted(
        op.seq for op in lsq if not op.wrong_path
    )
    assert core._lsq_stores == _rebuilt_index(lsq, OpClass.STORE)
    assert core._lsq_loads == _rebuilt_index(lsq, OpClass.LOAD)
    for op in lsq:
        if op.wrong_path:
            continue
        if op.uop.op is OpClass.LOAD:
            assert core._forwarding_store(op) is _scan_forwarding_store(lsq, op)
        else:
            assert core._order_violator(op) is _scan_order_violator(lsq, op)


def _step_and_check(core: SuperscalarCore, trace) -> int:
    """Drive the core like ``run`` does, checking after every step."""
    core._trace = trace
    core._reset_run_state()
    steps = 0
    while core._fetch_index < len(trace) or core._window:
        assert core._now <= core._cycle_limit, "deadlock"
        core._step()
        steps += 1
        _assert_coherent(core)
        if core._skip_enabled and not core._ready_heap:
            core._maybe_skip()
    assert not core._lsq_stores and not core._lsq_loads
    return steps


SHAPES = {
    # Aliasing stores, wrong paths, banked D-cache, transient faults
    # rolled back to checkpoints.
    "alias-ckpt": dict(
        alias=0.4,
        seed=1,
        window=64,
        lsq=12,
        banks=4,
        recovery=RecoveryParams(checkpoint_interval=32, checkpoint_overhead=1),
        fault_rate=1e-2,
    ),
    # Heavy aliasing on a tiny LSQ: order violations and full-LSQ stalls.
    "alias-heavy": dict(
        alias=0.8,
        seed=3,
        window=48,
        lsq=8,
        banks=1,
        recovery=RecoveryParams(),
        fault_rate=1e-2,
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_lsq_indexes_match_a_linear_scan_every_cycle(shape):
    cfg = SHAPES[shape]
    profile = replace(PRESETS["memory-bound"], store_alias_fraction=cfg["alias"])
    trace = generate(profile, NUM_OPS, seed=cfg["seed"])
    params = CoreParams(
        window_size=cfg["window"],
        wrong_path_depth=32,
        memdep=MemDepParams(enabled=True, lsq_size=cfg["lsq"], violation_penalty=4),
        recovery=cfg["recovery"],
        checker=CheckerParams(
            enabled=True, fault_rate=cfg["fault_rate"], fault_seed=cfg["seed"] + 3
        ),
    )

    def build():
        return SuperscalarCore(
            params,
            hierarchy=MemoryHierarchy(HierarchyParams(dcache_banks=cfg["banks"])),
            wrong_path_source=WrongPathGenerator(profile, seed=cfg["seed"]).iter_stream,
        )

    stepped = build()
    _step_and_check(stepped, trace)
    stats = stepped.stats
    assert stats.committed == NUM_OPS
    # The shapes really exercised every LSQ-changing path.
    assert stats.loads_forwarded > 0
    assert stats.mem_order_violations > 0
    assert stats.recoveries > 0
    assert stats.wrong_path_squashed > 0
    if cfg["recovery"].checkpoint_interval:
        assert stats.checkpoints_taken > 0
    # Stepping by hand simulates exactly what run() does.
    reference = build().run(trace)
    for name in ("committed", "loads_forwarded", "mem_order_violations", "recoveries"):
        assert getattr(stats, name) == getattr(reference, name)
    assert stepped._now == reference.cycles


def test_load_that_forwarded_from_a_younger_store_is_no_violator():
    """The rule random shapes rarely reach: a load that took its value from
    a store younger than the issuing one saw the closer value."""
    def mem(op_cls, seq, issued=True):
        op = DynOp(MicroOp(op=op_cls, srcs=(), addr=0x80), seq=seq, fetched_at=0)
        op.issued_at = 0 if issued else None
        return op

    core = SuperscalarCore(CoreParams(memdep=MemDepParams(enabled=True)))
    older, younger = mem(OpClass.STORE, 1), mem(OpClass.STORE, 2)
    load = mem(OpClass.LOAD, 3)
    core._lsq.extend((older, younger, load))
    core._lsq_stores[0x80] = [older, younger]
    core._lsq_loads[0x80] = [load]
    assert core._forwarding_store(load) is younger
    load.fwd_from = younger
    assert core._order_violator(older) is None
    assert _scan_order_violator(core._lsq, older) is None
    load.fwd_from = None
    assert core._order_violator(older) is load
    assert core._order_violator(younger) is load
