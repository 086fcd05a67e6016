"""The benchmark's workloads, driven through the simulator's public API.

Two kinds of workload:

* **core** (``bigcore-branchy``, ``memdep-ckpt``): ``instances`` traces,
  each generated from its own seed, are simulated unchecked and then
  checked.  One *timed phase* is generation (trace plus wrong-path source)
  followed by both runs.  The instance seeds are the block
  ``seed * instances + i``, so every benchmark seed owns distinct traces.
* **campaign** (``campaign-mixed``): one :func:`run_campaign` over
  ``presets x fault_models`` into a fresh :class:`ResultsStore`.

``setup`` builds everything a run needs before timing starts (profile,
params, spec, store); it is also what ``setup_probe.py`` times for
``setup_s``.  ``run_*`` functions return their host seconds plus the
simulated results, which the runner checks and reduces to metrics.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class CoreShape:
    """One core workload: machine shape, trace shape and fault rate."""

    preset: str
    window_size: int
    wrong_path_depth: int
    memdep: bool
    dcache_banks: int
    checkpoint_interval: int
    fault_rate: float
    ops: int
    instances: int
    store_alias_fraction: float = 0.0


@dataclass(frozen=True)
class CampaignShape:
    presets: tuple[str, ...]
    fault_models: tuple[str, ...]
    trials: int
    ops: int
    max_workers: int


CORE_SHAPES: dict[str, CoreShape] = {
    # MEEK-style wide window: rename/issue, checker issue and lazy
    # wrong-path synthesis dominate; no LSQ, L1 hits.
    "bigcore-branchy": CoreShape(
        preset="branchy",
        window_size=1024,
        wrong_path_depth=512,
        memdep=False,
        dcache_banks=1,
        checkpoint_interval=0,
        fault_rate=1e-4,
        ops=10_000,
        instances=12,
    ),
    # Memory-bound with aliasing stores: misses, banks, MSHRs, the LSQ
    # scans, checkpoints on every interval and fault rollbacks.
    "memdep-ckpt": CoreShape(
        preset="memory-bound",
        window_size=128,
        wrong_path_depth=64,
        memdep=True,
        dcache_banks=4,
        checkpoint_interval=64,
        fault_rate=1e-3,
        ops=5_000,
        instances=12,
        store_alias_fraction=0.25,
    ),
}

CAMPAIGN_SHAPES: dict[str, CampaignShape] = {
    # Many short checked simulations plus per-point pool dispatch, config
    # hashing and store appends.  Transient trials resolve early; address
    # trials often end in SDC and run to trace end.
    "campaign-mixed": CampaignShape(
        presets=("int-heavy", "branchy"),
        fault_models=("transient", "address"),
        trials=100,
        ops=1_000,
        max_workers=2,
    ),
}

WORKLOADS = (*CORE_SHAPES, *CAMPAIGN_SHAPES)

#: Work counts that must repeat exactly for a seed; ``references.json``
#: records them and a later change may name them in a claim.
EXACT_COUNTS = (
    "core.steps",
    "core.cycles_skipped",
    "core.sched_events",
    "memory.access_calls",
    "experiments.trial_sim_cycles",
)


def import_modules(name: str) -> None:
    """Import every simulator module the workload drives (part of set-up)."""
    import repro.core.core  # noqa: F401
    import repro.memory.hierarchy  # noqa: F401
    import repro.workloads  # noqa: F401

    if name in CAMPAIGN_SHAPES:
        import repro.experiments  # noqa: F401


def setup(name: str, seed: int, workdir: Path, nproc: int) -> "CoreSetup | CampaignSetup":
    """Build the workload's profile, params, spec and store."""
    if name in CORE_SHAPES:
        return setup_core(name, seed)
    return setup_campaign(name, seed, workdir, nproc)


def digest(value: Any) -> str:
    """Short content hash of a JSON-serialisable value."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------- core


@dataclass
class CoreSetup:
    shape: CoreShape
    profile: Any
    unchecked: Any
    checked: list[Any]  #: one CoreParams per instance (own fault seed)
    hierarchy: Any
    seeds: list[int]


@dataclass
class InstanceRun:
    """One timed phase: generation, the unchecked run, the checked run."""

    seconds: float
    unchecked: Any
    checked: Any

    def stats_digest(self) -> str:
        return digest([self.unchecked.to_dict(), self.checked.to_dict()])

    def counts(self) -> dict[str, int]:
        """Exact work counts of both runs (they must repeat run to run)."""
        runs = (self.unchecked, self.checked)
        return {
            "core.steps": sum(s.cycles - s.cycles_skipped for s in runs),
            "core.cycles_skipped": sum(s.cycles_skipped for s in runs),
            "core.sched_events": sum(s.sched_events for s in runs),
        }


def setup_core(name: str, seed: int) -> CoreSetup:
    from repro.core.params import CheckerParams, CoreParams, MemDepParams
    from repro.core.recovery import RecoveryParams
    from repro.memory.hierarchy import HierarchyParams
    from repro.workloads import preset

    shape = CORE_SHAPES[name]
    profile = preset(shape.preset)
    if shape.store_alias_fraction:
        profile = replace(profile, store_alias_fraction=shape.store_alias_fraction)
    seeds = [seed * shape.instances + i for i in range(shape.instances)]

    def params(checker: Any) -> Any:
        return CoreParams(
            window_size=shape.window_size,
            wrong_path_depth=shape.wrong_path_depth,
            checker=checker,
            memdep=MemDepParams(enabled=shape.memdep),
            recovery=RecoveryParams(checkpoint_interval=shape.checkpoint_interval),
        )

    return CoreSetup(
        shape=shape,
        profile=profile,
        unchecked=params(CheckerParams(enabled=False)),
        checked=[
            params(
                CheckerParams(
                    enabled=True, fault_rate=shape.fault_rate, fault_seed=s + 1
                )
            )
            for s in seeds
        ],
        hierarchy=HierarchyParams(dcache_banks=shape.dcache_banks),
        seeds=seeds,
    )


def run_instance(setup: CoreSetup, index: int) -> InstanceRun:
    """Generate instance ``index``'s trace and simulate it in both modes."""
    import repro.workloads as workloads
    from repro.core.core import SuperscalarCore
    from repro.memory.hierarchy import MemoryHierarchy

    seed = setup.seeds[index]
    started = time.perf_counter()
    trace = workloads.generate(setup.profile, setup.shape.ops, seed=seed)
    wrong_path = workloads.WrongPathGenerator(setup.profile, seed=seed).iter_stream
    stats = []
    for params in (setup.unchecked, setup.checked[index]):
        core = SuperscalarCore(
            params,
            hierarchy=MemoryHierarchy(setup.hierarchy),
            wrong_path_source=wrong_path,
        )
        stats.append(core.run(trace))
    return InstanceRun(time.perf_counter() - started, *stats)


def instance_problems(setup: CoreSetup, run: InstanceRun) -> list[str]:
    """Output checks that need no reference."""
    problems = []
    for mode, stats in (("unchecked", run.unchecked), ("checked", run.checked)):
        if stats.committed != setup.shape.ops:
            problems.append(
                f"{mode} committed {stats.committed} of {setup.shape.ops} ops"
            )
    c = run.checked
    if c.faults_detected + c.faults_squashed != c.faults_injected:
        problems.append(
            f"detected {c.faults_detected} + squashed {c.faults_squashed} != "
            f"injected {c.faults_injected}"
        )
    return problems


def core_sim_metrics(runs: list[InstanceRun]) -> dict[str, float]:
    """Simulated end-to-end metrics pooled over the instances."""
    u_committed = sum(r.unchecked.committed for r in runs)
    u_cycles = sum(r.unchecked.cycles for r in runs)
    c_committed = sum(r.checked.committed for r in runs)
    c_cycles = sum(r.checked.cycles for r in runs)
    detected = sum(r.checked.faults_detected for r in runs)
    live = sum(r.checked.faults_injected - r.checked.faults_squashed for r in runs)
    ipc_checked = c_committed / c_cycles
    return {
        "ipc_checked": ipc_checked,
        "checked_slowdown": (u_committed / u_cycles) / ipc_checked,
        "fault_coverage": detected / live if live else 1.0,
    }


# ----------------------------------------------------------------- campaign


@dataclass
class CampaignSetup:
    spec: Any
    store: Any
    workdir: Path
    workers: int
    profiles: dict[str, Any]  #: preset name -> profile, for the unchecked runs


@dataclass
class CampaignRun:
    seconds: float
    summary: Any
    report: dict[str, Any]
    rows: list[dict[str, Any]]
    store_digest: str

    @property
    def simulations(self) -> int:
        return self.summary.calibrations + self.summary.trials_executed

    def counts(self) -> dict[str, int]:
        return {
            "experiments.trial_sim_cycles": sum(
                row["result"]["cycles"]
                for row in self.rows
                if row.get("status") == "ok" and row["config"]["kind"] == "trial"
            )
        }


def setup_campaign(name: str, seed: int, workdir: Path, nproc: int) -> CampaignSetup:
    from repro.experiments import CampaignSpec, ResultsStore
    from repro.workloads import preset

    shape = CAMPAIGN_SHAPES[name]
    spec = CampaignSpec(
        name=f"perfbench-{name}",
        presets=list(shape.presets),
        fault_models=list(shape.fault_models),
        trials=shape.trials,
        ops=shape.ops,
        seed=seed,
    )
    workdir.mkdir(parents=True, exist_ok=True)
    return CampaignSetup(
        spec=spec,
        store=ResultsStore(workdir / "store-0.jsonl"),
        workdir=workdir,
        workers=max(1, min(shape.max_workers, nproc)),
        profiles={p: preset(p) for p in shape.presets},
    )


def run_campaign_pass(setup: CampaignSetup, index: int) -> CampaignRun:
    """One campaign into a fresh store; pass 0 uses the set-up store."""
    from repro.experiments import ResultsStore, aggregate_campaign, run_campaign

    store = setup.store
    if index:
        store = ResultsStore(setup.workdir / f"store-{index}.jsonl")
    started = time.perf_counter()
    summary = run_campaign(setup.spec, store, workers=setup.workers)
    seconds = time.perf_counter() - started
    report = aggregate_campaign(setup.spec, store)
    rows = store.rows()
    store_digest = hashlib.sha256(store.path.read_bytes()).hexdigest()[:16]
    store.path.unlink()
    return CampaignRun(seconds, summary, report, rows, store_digest)


def campaign_problems(setup: CampaignSetup, run: CampaignRun) -> dict[str, list[str]]:
    """Output checks per cell (keyed ``preset/model``) that need no reference."""
    problems: dict[str, list[str]] = {
        f"{p}/{m}": ["missing from the report (calibration failed)"]
        for p, m in setup.spec.cells()
    }
    for cell in run.report["cells"]:
        key = f"{cell['preset']}/{cell['fault_model']}"
        problems[key] = []
        total = sum(cell["outcomes"].values())
        if total != cell["injected"]:
            problems[key].append(f"outcomes sum {total} != injected {cell['injected']}")
        if cell["trials_ok"] != setup.spec.trials:
            problems[key].append(
                f"{cell['trials_ok']} of {setup.spec.trials} trials completed"
            )
    for row in run.rows:
        if row.get("status") != "ok":
            config = row["config"]
            problems[f"{config['preset']}/{config['fault_model']}"].append(
                f"error row: {str(row.get('error', ''))[:200]}"
            )
    return problems


def campaign_sim_metrics(setup: CampaignSetup, run: CampaignRun) -> dict[str, float]:
    """Simulated metrics pooled over the campaign's cells.

    ``checked_slowdown`` needs an unchecked run of each calibration trace;
    the campaign itself runs checked cores only, so those are simulated
    here, outside the timed region.
    """
    from repro.core.core import SuperscalarCore
    from repro.core.params import CoreParams
    from repro.workloads import WrongPathGenerator, generate

    spec = setup.spec
    unchecked_ipc = {}
    for name, profile in setup.profiles.items():
        trace = generate(profile, spec.ops, seed=spec.seed)
        core = SuperscalarCore(
            CoreParams(wrong_path_seed=spec.seed),
            wrong_path_source=WrongPathGenerator(profile, seed=spec.seed).iter_stream,
        )
        stats = core.run(trace)
        unchecked_ipc[name] = (stats.committed, stats.cycles)
    calibrations = [
        row for row in run.rows
        if row.get("status") == "ok" and row["config"]["kind"] == "calibration"
    ]
    c_committed = sum(row["result"]["committed"] for row in calibrations)
    c_cycles = sum(row["result"]["cycles"] for row in calibrations)
    u_committed = sum(unchecked_ipc[row["config"]["preset"]][0] for row in calibrations)
    u_cycles = sum(unchecked_ipc[row["config"]["preset"]][1] for row in calibrations)
    outcomes: dict[str, int] = {}
    for cell in run.report["cells"]:
        for key, count in cell["outcomes"].items():
            outcomes[key] = outcomes.get(key, 0) + count
    live = outcomes["detected"] + outcomes["masked"] + outcomes["sdc"]
    injected = sum(cell["injected"] for cell in run.report["cells"])
    ipc_checked = c_committed / c_cycles
    return {
        "ipc_checked": ipc_checked,
        "checked_slowdown": (u_committed / u_cycles) / ipc_checked,
        "fault_coverage": outcomes["detected"] / live if live else 1.0,
        "sdc_rate": outcomes["sdc"] / injected if injected else 0.0,
    }
