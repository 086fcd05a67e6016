"""One path from an :class:`Experiment` to simulated cores and a result dict.

An :class:`Experiment` describes one run of the paper's measurement: a
trace of one workload through an unchecked core and (optionally) a
checked core.  Every front end — ``run``, sweeps, campaigns, time shards
and the kernel bench — builds one and hands it here.  Every core is built
by :func:`build_core`, which owns the run-level assembly:

* the params: ``Experiment.params`` plus the per-run fields — the
  wrong-path seed and the checker's enable/fault-rate/fault-seed
  (:func:`run_params`);
* the :class:`MemoryHierarchy` for the requested D-cache bank count;
* the profile-aware wrong-path source, optionally re-keyed to monolithic
  sequence numbers for a time shard (:class:`OffsetWrongPathSource`).

:func:`run_experiment` is the paper's same-trace comparison, reduced by
:func:`experiment_result` — the result-dict shape time-sharded runs share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import repro.workloads as workloads
from repro.core.core import SuperscalarCore
from repro.core.params import CoreParams
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stats import CoreStats
    from repro.obs import ObsSession
    from repro.obs.tracer import PipelineTracer
    from repro.workloads import WorkloadProfile


@dataclass(frozen=True, slots=True)
class Experiment:
    """One run: ``ops`` ops of ``profile``'s trace through the core pair.

    The machine shape — including the wrong-path mode and depth and the
    predictor mode — lives only in ``params``; :func:`run_params` adds the
    per-run fields.  A workload override such as ``store_alias_fraction``
    is applied to ``profile`` (``dataclasses.replace``), which validates it.
    """

    profile: WorkloadProfile
    ops: int = 20_000
    seed: int = 0
    #: Also run the checked core (and report slowdown and coverage).
    check: bool = True
    fault_rate: float = 1e-4
    #: The checked core's fault-injection seed; None means ``seed + 1``.
    fault_seed: int | None = None
    params: CoreParams = field(default_factory=CoreParams)
    #: D-cache banks (1 = the unbanked model; more makes checker loads and
    #: stores compete for bank slots).
    dcache_banks: int = 1

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise ValueError(f"ops must be non-negative, got {self.ops}")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.dcache_banks <= 0:
            raise ValueError(f"dcache_banks must be positive, got {self.dcache_banks}")

    @property
    def checker_seed(self) -> int:
        """The checked core's fault seed (``fault_seed``, else ``seed + 1``)."""
        return self.seed + 1 if self.fault_seed is None else self.fault_seed


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


def run_params(exp: Experiment, checked: bool) -> CoreParams:
    """``exp.params`` with the per-run fields of one of ``exp``'s cores.

    Those are the wrong-path seed (``exp.seed``) and the checker's enable
    flag, fault rate and fault seed; the checker keeps every other base
    knob (slot policy, fault model, …).  An unchecked core gets a
    disabled, rate-0 checker.
    """
    base = exp.params
    if checked:
        checker = replace(
            base.checker,
            enabled=True,
            fault_rate=exp.fault_rate,
            fault_seed=exp.checker_seed,
        )
    else:
        checker = replace(base.checker, enabled=False, fault_rate=0.0)
    return replace(base, wrong_path_seed=exp.seed, checker=checker)


def build_core(
    exp: Experiment,
    checked: bool,
    *,
    wrong_path_offset: int = 0,
    tracer: PipelineTracer | None = None,
) -> SuperscalarCore:
    """A core for one run of ``exp``'s trace (the checked one if ``checked``).

    The wrong-path source shares the run's seed.  Each call builds its own
    hierarchy (hierarchies hold per-run state).  ``wrong_path_offset`` is
    a time shard's monolithic fetch offset.
    """
    # iter_stream: the core consumes wrong-path streams lazily, so only the
    # prefix fetched before each branch resolves is ever synthesized.
    if wrong_path_offset:
        source = OffsetWrongPathSource(exp.profile, exp.seed, wrong_path_offset)
    else:
        source = workloads.WrongPathGenerator(exp.profile, seed=exp.seed).iter_stream
    return SuperscalarCore(
        run_params(exp, checked),
        hierarchy=MemoryHierarchy(HierarchyParams(dcache_banks=exp.dcache_banks)),
        wrong_path_source=source,
        tracer=tracer,
    )


def experiment_result(
    exp: Experiment,
    params: CoreParams,
    unchecked: CoreStats,
    checked: CoreStats | None,
) -> dict:
    """The JSON-serializable result dict of one experiment point.

    ``params`` (the last core's) is recorded via ``CoreParams.to_dict``
    (FU counts become name-keyed).  A checked run adds the slowdown — None
    rather than inf at a checked IPC of 0, which ``json.dumps`` would emit
    as non-RFC-8259 ``Infinity`` — and the coverage of faults that
    survived to be checked.
    """
    result: dict = {
        "preset": exp.profile.name,
        "ops": exp.ops,
        "seed": exp.seed,
        "wrong_path": params.model_wrong_path,
        "params": params.to_dict(),
        "unchecked": unchecked.to_dict(),
    }
    if checked is not None:
        result["checked"] = checked.to_dict()
        result["slowdown"] = unchecked.ipc / checked.ipc if checked.ipc else None
        live = checked.faults_injected - checked.faults_squashed
        result["fault_coverage"] = 1.0 if live <= 0 else checked.faults_detected / live
    return result


def run_experiment(exp: Experiment, obs: ObsSession | None = None) -> dict:
    """Run ``exp`` through the baseline and (optionally) the checked core.

    Both cores consume the *same* trace, so every difference in the stats
    is attributable to the checker's resource sharing and recoveries.
    Wrong-path streams come from a profile-aware generator so the wasted
    work the checker competes with matches the workload's own op mix.

    ``obs`` is an optional :class:`~repro.obs.ObsSession`.  When provided,
    each core gets a pipeline tracer (labelled ``unchecked``/``checked``)
    if tracing was requested, runs with the session's telemetry interval,
    and registers its final stats into the session's metrics registry.
    ``None`` (the default — every sweep and golden path) leaves the cores
    entirely uninstrumented.

    Returns the :func:`experiment_result` dict.
    """
    trace = workloads.generate(exp.profile, exp.ops, seed=exp.seed)
    if obs is not None and obs.telemetry_interval:
        exp = replace(
            exp, params=replace(exp.params, telemetry_interval=obs.telemetry_interval)
        )
    stats: dict[str, CoreStats] = {}
    for mode in ("unchecked", "checked") if exp.check else ("unchecked",):
        core = build_core(
            exp,
            mode == "checked",
            tracer=obs.tracer_for(mode) if obs is not None else None,
        )
        stats[mode] = core.run(trace)
        if obs is not None:
            obs.record_telemetry(mode, core.telemetry)
            stats[mode].register_metrics(obs.registry, f"{mode}.")
    return experiment_result(exp, core.params, stats["unchecked"], stats.get("checked"))
