"""One path from a run's knobs to simulated cores and a result dict.

Every simulation in the package — ``run``, sweeps, campaigns, time
shards and the kernel bench — builds its cores through :func:`build_core`,
which owns the three pieces of run-level assembly:

* the params: predictor mode, wrong-path knobs and seed, and the checker's
  enable/fault-rate/fault-seed layered on a base :class:`CoreParams`
  (:func:`run_params`);
* the :class:`MemoryHierarchy` for the requested D-cache bank count;
* the profile-aware wrong-path source, optionally re-keyed to monolithic
  sequence numbers for a time shard (:class:`OffsetWrongPathSource`).

:func:`run_experiment` is the paper's same-trace comparison: one trace
through an unchecked core and (optionally) a checked core, reduced by
:func:`experiment_result` — the result-dict shape time-sharded runs share.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

import repro.workloads as workloads
from repro.core.core import SuperscalarCore
from repro.core.params import CoreParams
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stats import CoreStats
    from repro.obs import ObsSession
    from repro.obs.tracer import PipelineTracer
    from repro.workloads import WorkloadProfile

#: Single source of truth for the depth default (the CoreParams field).
DEFAULT_WRONG_PATH_DEPTH = CoreParams().wrong_path_depth


class OffsetWrongPathSource:
    """A wrong-path source keyed by *monolithic* branch sequence numbers.

    Wrong-path streams are pure functions of ``(seed, branch pc, branch
    seq)``.  Inside a time shard the core hands this source shard-local
    seqs (its trace starts at 0); adding the shard's fetch offset
    reproduces exactly the stream the monolithic run synthesizes for the
    same dynamic branch.
    """

    def __init__(self, profile: WorkloadProfile, seed: int, offset: int):
        self._generator = workloads.WrongPathGenerator(profile, seed=seed)
        self._offset = offset

    def __call__(self, branch, seq: int, depth: int):
        return self._generator.iter_stream(branch, seq + self._offset, depth)


def run_params(
    base: CoreParams | None = None,
    *,
    seed: int = 0,
    check: bool = False,
    fault_rate: float = 1e-4,
    fault_seed: int | None = None,
    real_predictor: bool = False,
    wrong_path: bool = True,
    wrong_path_depth: int = DEFAULT_WRONG_PATH_DEPTH,
) -> CoreParams:
    """``base`` with one run's knobs layered on top.

    The checker keeps every base knob (slot policy, fault model, …); only
    its enable flag, fault rate and fault seed (default ``seed + 1``) are
    per run.  An unchecked core gets a disabled, rate-0 checker.
    """
    base = base if base is not None else CoreParams()
    if check:
        checker = replace(
            base.checker,
            enabled=True,
            fault_rate=fault_rate,
            fault_seed=seed + 1 if fault_seed is None else fault_seed,
        )
    else:
        checker = replace(base.checker, enabled=False, fault_rate=0.0)
    return replace(
        base,
        use_real_predictor=real_predictor,
        model_wrong_path=wrong_path,
        wrong_path_depth=wrong_path_depth,
        wrong_path_seed=seed,
        checker=checker,
    )


def build_core(
    profile: WorkloadProfile,
    base: CoreParams | None = None,
    *,
    dcache_banks: int = 1,
    wrong_path_offset: int = 0,
    tracer: PipelineTracer | None = None,
    **knobs: Any,
) -> SuperscalarCore:
    """A core for one run of ``profile``'s trace.

    ``knobs`` are :func:`run_params`'s; the wrong-path source shares their
    seed.  Each call builds its own hierarchy (hierarchies hold per-run
    state).  ``wrong_path_offset`` is a time shard's monolithic fetch offset.
    """
    params = run_params(base, **knobs)
    seed = params.wrong_path_seed
    # iter_stream: the core consumes wrong-path streams lazily, so only the
    # prefix fetched before each branch resolves is ever synthesized.
    if wrong_path_offset:
        source = OffsetWrongPathSource(profile, seed, wrong_path_offset)
    else:
        source = workloads.WrongPathGenerator(profile, seed=seed).iter_stream
    return SuperscalarCore(
        params,
        hierarchy=MemoryHierarchy(HierarchyParams(dcache_banks=dcache_banks)),
        wrong_path_source=source,
        tracer=tracer,
    )


def experiment_result(
    profile: WorkloadProfile,
    num_ops: int,
    seed: int,
    wrong_path: bool,
    params: CoreParams,
    unchecked: CoreStats,
    checked: CoreStats | None,
) -> dict:
    """The JSON-serializable result dict of one experiment point.

    ``params`` is recorded via ``CoreParams.to_dict`` (FU counts become
    name-keyed).  A checked run adds the slowdown — None rather than inf at
    a checked IPC of 0, which ``json.dumps`` would emit as non-RFC-8259
    ``Infinity`` — and the coverage of faults that survived to be checked.
    """
    result: dict = {
        "preset": profile.name,
        "ops": num_ops,
        "seed": seed,
        "wrong_path": wrong_path,
        "params": params.to_dict(),
        "unchecked": unchecked.to_dict(),
    }
    if checked is not None:
        result["checked"] = checked.to_dict()
        result["slowdown"] = unchecked.ipc / checked.ipc if checked.ipc else None
        live = checked.faults_injected - checked.faults_squashed
        result["fault_coverage"] = 1.0 if live <= 0 else checked.faults_detected / live
    return result


def run_experiment(
    profile: WorkloadProfile,
    num_ops: int = 20_000,
    seed: int = 0,
    check: bool = True,
    fault_rate: float = 1e-4,
    real_predictor: bool = False,
    wrong_path: bool = True,
    wrong_path_depth: int = DEFAULT_WRONG_PATH_DEPTH,
    params: CoreParams | None = None,
    dcache_banks: int = 1,
    store_alias_fraction: float | None = None,
    obs: ObsSession | None = None,
) -> dict:
    """Run one preset through baseline and (optionally) checked cores.

    Both cores consume the *same* trace, so every difference in the stats
    is attributable to the checker's resource sharing and recoveries.
    Wrong-path streams come from a profile-aware generator so the wasted
    work the checker competes with matches the workload's own op mix.

    Args:
        params: Optional base :class:`CoreParams` (issue width, FU counts,
            checker slot policy, memory-dependence knobs, …).  The explicit
            keyword arguments — predictor mode, wrong-path knobs, and the
            per-run checker enable/fault-rate/seed — are applied on top of
            it; sweeps use this to vary machine shape per grid point.
        dcache_banks: D-cache banks per core (1 = the legacy unbanked
            model; more makes checker loads/stores compete for bank slots).
        store_alias_fraction: When set, overrides the profile's
            ``store_alias_fraction`` (see
            :class:`~repro.workloads.profiles.WorkloadProfile`).
        obs: Optional :class:`~repro.obs.ObsSession`.  When provided, each
            core gets a pipeline tracer (labelled ``unchecked``/``checked``)
            if tracing was requested, runs with the session's telemetry
            interval, and registers its final stats into the session's
            metrics registry.  ``None`` (the default — every sweep and
            golden path) leaves the cores entirely uninstrumented.

    Returns the :func:`experiment_result` dict.
    """
    if store_alias_fraction is not None:
        profile = replace(profile, store_alias_fraction=store_alias_fraction)
    trace = workloads.generate(profile, num_ops, seed=seed)
    if obs is not None and obs.telemetry_interval:
        params = replace(
            params if params is not None else CoreParams(),
            telemetry_interval=obs.telemetry_interval,
        )
    stats: dict[str, CoreStats] = {}
    for mode in ("unchecked", "checked") if check else ("unchecked",):
        core = build_core(
            profile,
            params,
            seed=seed,
            check=mode == "checked",
            fault_rate=fault_rate,
            real_predictor=real_predictor,
            wrong_path=wrong_path,
            wrong_path_depth=wrong_path_depth,
            dcache_banks=dcache_banks,
            tracer=obs.tracer_for(mode) if obs is not None else None,
        )
        stats[mode] = core.run(trace)
        if obs is not None:
            obs.record_telemetry(mode, core.telemetry)
            stats[mode].register_metrics(obs.registry, f"{mode}.")
    return experiment_result(
        profile,
        num_ops,
        seed,
        wrong_path,
        core.params,
        stats["unchecked"],
        stats.get("checked"),
    )
