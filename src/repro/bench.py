"""Core wall-clock benchmark: the scheduling kernel vs the scan baseline.

``python -m repro bench`` times :meth:`SuperscalarCore.run` on a branchy
trace (the workload whose wrong-path episodes exercise every kernel path)
and compares against the committed pre-refactor reference in
``benchmarks/baseline_prerefactor.json`` — wall times and full end-of-run
stats captured from the old window-rescan core on the same machine.  Two
claims are verified per configuration and mode:

* **Equivalence** — the kernel core's ``CoreStats.to_dict()`` must be
  *identical* to the scan core's (IPC, detection, faults, memory system —
  every counter).  The kernel is a restructuring, not a remodeling.
* **Speedup** — wall-clock ratio versus the reference timing.  On the
  ``table1`` machine (128-entry window) the kernel wins a constant factor;
  on ``big-core`` (1024-entry window, deep wrong paths — the MEEK-style
  configuration the ROADMAP targets) the scan core's O(window x cycles)
  rescans dominate and the kernel's O(events) schedule is many times
  faster.

Reference wall times are machine-specific; speedups are ratios on the same
machine and transfer across machines far better than absolute throughput.
CI therefore gates on a deliberately loose absolute floor
(``ci_floor_ops_per_sec``) that still catches algorithmic regressions
(re-introducing any per-cycle window scan costs 4-9x).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from dataclasses import replace
from typing import Any, Callable

from repro.core.params import CoreParams, MemDepParams, RecoveryParams
from repro.simulate import Experiment, build_core, run_experiment
from repro.workloads import PRESETS, generate

#: Default committed reference: the repository's ``benchmarks/`` directory,
#: found from this module's location so the gate holds from any CWD.
DEFAULT_REFERENCE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "baseline_prerefactor.json"
)

#: Default output path for the machine-readable result.
DEFAULT_OUTPUT = "BENCH_core.json"

#: The configuration whose checked-mode speedup is the headline number.
HEADLINE_CONFIG = "big-core"

#: Benchmark machine configurations.  ``table1`` is the paper's machine;
#: ``big-core`` scales the window/wrong-path depth to the MEEK-style shape
#: whose simulation cost motivated the kernel; ``memdep`` runs the paper's
#: machine on an aliasing memory-bound workload with the full
#: memory-dependence subsystem (LSQ, store sets, forwarding, violations)
#: and a banked D-cache — the timing cost of those paths; ``checkpoint``
#: is the paper's machine with verified-state checkpointing on, timing the
#: checkpoint/rollback paths in the recovery subsystem; ``ci-smoke`` is
#: a short big-core run for CI; ``sharded`` compares the time-sharded
#: parallel fast mode (``--shards``) against the monolithic run on the
#: big-core shape — wall-clock speedup, merged-stat error, and fault
#: coverage.  Entries default to the branchy preset, no memdep, one bank,
#: zero alias fraction, and no checkpointing when the keys are absent.
BENCH_CONFIGS: dict[str, dict[str, Any]] = {
    "table1": {"ops": 100_000, "window_size": 128, "wrong_path_depth": 64},
    "big-core": {"ops": 100_000, "window_size": 1024, "wrong_path_depth": 512},
    "memdep": {
        "ops": 60_000,
        "window_size": 128,
        "wrong_path_depth": 64,
        "preset": "memory-bound",
        "memdep": True,
        "dcache_banks": 4,
        "store_alias_fraction": 0.25,
    },
    "checkpoint": {
        "ops": 60_000,
        "window_size": 128,
        "wrong_path_depth": 64,
        "checkpoint_interval": 64,
        "checkpoint_overhead": 1,
    },
    "ci-smoke": {"ops": 20_000, "window_size": 1024, "wrong_path_depth": 512},
    "sharded": {
        "ops": 100_000,
        "window_size": 1024,
        "wrong_path_depth": 512,
        "shards": 4,
        "shard_warmup": 5_000,
    },
}

#: Max merged-IPC error (either mode) the sharded fast mode may show
#: against the monolithic run on the ``sharded`` bench config.  The
#: comparison runs fault-free: rate-based fault arrival is schedule-
#: dependent pseudo-randomness a shard cannot (and should not) replay, so
#: its recovery cost is excluded from the accuracy gate; fault *detection*
#: is gated separately (every injected fault must still be caught).
SHARDED_IPC_TOLERANCE = 0.01

#: Wall-clock speedup ``--shards 4`` must achieve over ``--shards 1`` —
#: enforced only when the host actually has that many CPUs.
SHARDED_MIN_SPEEDUP = 2.5


def load_reference(path: str | Path = DEFAULT_REFERENCE) -> dict[str, Any] | None:
    """Load the committed pre-refactor reference, or None if absent."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _shape_experiment(
    shape: dict[str, Any], seed: int, fault_rate: float
) -> Experiment:
    """The checked run one bench shape describes.

    Shapes default to the branchy preset, no memdep, one bank, the
    profile's alias fraction and no checkpointing when the keys are absent.
    """
    profile = PRESETS[shape.get("preset", "branchy")]
    if shape.get("store_alias_fraction"):
        profile = replace(profile, store_alias_fraction=shape["store_alias_fraction"])
    return Experiment(
        profile,
        ops=shape["ops"],
        seed=seed,
        fault_rate=fault_rate,
        params=CoreParams(
            window_size=shape["window_size"],
            wrong_path_depth=shape["wrong_path_depth"],
            memdep=MemDepParams(enabled=bool(shape.get("memdep", False))),
            recovery=RecoveryParams(
                checkpoint_interval=shape.get("checkpoint_interval", 0),
                checkpoint_overhead=shape.get("checkpoint_overhead", 1),
            ),
        ),
        dcache_banks=shape.get("dcache_banks", 1),
    )


def _best_of(repeats: int, run: Callable[[], Any]) -> tuple[float, Any]:
    """Best wall time over ``repeats`` calls of ``run``, and its last result."""
    best = None
    result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _run_sharded_bench(
    shape: dict[str, Any], seed: int, fault_rate: float, repeats: int
) -> dict[str, Any]:
    """The ``sharded`` config: monolithic vs ``--shards 1`` vs ``--shards N``.

    Three claims per run, mirroring the kernel bench's structure:

    * **Identity** — ``--shards 1`` must reproduce the monolithic result
      dict byte-for-byte (it flows through the merge layer, so this pins
      the single-part merge as an exact identity);
    * **Accuracy** — the N-shard merged IPC must be within
      :data:`SHARDED_IPC_TOLERANCE` of the monolithic run in both modes,
      measured fault-free (see the tolerance's docstring for why);
    * **Detection** — with faults on, every injected fault must still be
      detected (coverage 1.0), and the wall-clock speedup over
      ``--shards 1`` must clear :data:`SHARDED_MIN_SPEEDUP` when the host
      has at least N CPUs.
    """
    from repro.parallel import run_sharded_experiment

    shards = shape["shards"]
    warmup = shape["shard_warmup"]
    exp = _shape_experiment(shape, seed, fault_rate)
    fault_free = replace(exp, fault_rate=0.0)
    mono = run_experiment(fault_free)

    def timed(n_shards: int, n_warmup: int) -> tuple[float, dict[str, Any]]:
        return _best_of(
            repeats, lambda: run_sharded_experiment(fault_free, n_shards, n_warmup)
        )

    wall_1, shards_1 = timed(1, 0)
    wall_n, shards_n = timed(shards, warmup)
    coverage_run = run_sharded_experiment(exp, shards, warmup)

    def ipc_error(mode: str) -> float:
        return abs(shards_n[mode]["ipc"] - mono[mode]["ipc"]) / mono[mode]["ipc"]

    error_unchecked = ipc_error("unchecked")
    error_checked = ipc_error("checked")
    host_cpus = os.cpu_count() or 1
    entry: dict[str, Any] = dict(shape)
    entry["host_cpus"] = host_cpus
    entry["ipc_tolerance"] = SHARDED_IPC_TOLERANCE
    entry["min_speedup"] = SHARDED_MIN_SPEEDUP
    entry["speedup_gated"] = host_cpus >= shards
    entry["monolithic"] = {
        "ipc_unchecked": round(mono["unchecked"]["ipc"], 4),
        "ipc_checked": round(mono["checked"]["ipc"], 4),
    }
    entry["shards1"] = {
        "wall_s": round(wall_1, 4),
        "stats_identical": json.dumps(shards_1, sort_keys=True)
        == json.dumps(mono, sort_keys=True),
    }
    entry["sharded"] = {
        "wall_s": round(wall_n, 4),
        "speedup_vs_shards1": round(wall_1 / wall_n, 2),
        "ipc_unchecked": round(shards_n["unchecked"]["ipc"], 4),
        "ipc_checked": round(shards_n["checked"]["ipc"], 4),
        "ipc_error_unchecked": round(error_unchecked, 6),
        "ipc_error_checked": round(error_checked, 6),
        "ipc_error_max": round(max(error_unchecked, error_checked), 6),
        "fault_coverage": coverage_run["fault_coverage"],
        "faults_injected": coverage_run["checked"]["faults_injected"],
        "faults_detected": coverage_run["checked"]["faults_detected"],
    }
    return entry


def sharded_gate_failures(report: dict[str, Any]) -> list[str]:
    """CI gate messages for sharded comparison entries (empty = pass).

    The ``--shards 1`` identity gate rides ``all_stats_identical``; this
    checks the explicitly-approximate claims: merged-IPC error within the
    committed tolerance, no lost fault detections, and — only on hosts
    with enough CPUs to make it meaningful — the wall-clock speedup floor.
    """
    failures: list[str] = []
    for name, entry in report.get("configs", {}).items():
        block = entry.get("sharded")
        if not isinstance(block, dict):
            continue
        tolerance = entry.get("ipc_tolerance", SHARDED_IPC_TOLERANCE)
        if block["ipc_error_max"] > tolerance:
            failures.append(
                f"[{name}] merged-IPC error {block['ipc_error_max']:.4%} vs the "
                f"monolithic run exceeds the {tolerance:.0%} tolerance"
            )
        coverage = block.get("fault_coverage")
        if coverage is not None and coverage < 1.0:
            failures.append(
                f"[{name}] sharded run lost fault detections "
                f"(coverage {coverage:.1%}: {block['faults_detected']} of "
                f"{block['faults_injected']} injected)"
            )
        if entry.get("speedup_gated") and block["speedup_vs_shards1"] < entry.get(
            "min_speedup", SHARDED_MIN_SPEEDUP
        ):
            failures.append(
                f"[{name}] sharded speedup {block['speedup_vs_shards1']:.2f}x over "
                f"--shards 1 is below the {entry['min_speedup']:.1f}x floor on a "
                f"{entry['host_cpus']}-cpu host"
            )
    return failures


def run_bench(
    config_names: list[str],
    seed: int = 0,
    fault_rate: float = 1e-4,
    repeats: int = 2,
    reference: dict[str, Any] | None = None,
    ops_override: int | None = None,
) -> dict[str, Any]:
    """Benchmark the kernel core on ``config_names``; return the report.

    Per config and mode (unchecked / checked) the report carries the best
    wall time over ``repeats`` runs, ops/sec, kernel telemetry, and — when
    the reference has a matching entry (same config name *and* trace
    length) — the speedup versus the scan core plus a strict stats-identity
    verdict.
    """
    ref_configs = (reference or {}).get("configs", {})
    report: dict[str, Any] = {
        "bench": "core-kernel",
        "preset": "branchy",
        "seed": seed,
        "fault_rate": fault_rate,
        "repeats": repeats,
        "reference_kernel": (reference or {}).get("kernel"),
        "reference_commit": (reference or {}).get("captured_at_commit"),
        "configs": {},
    }
    for name in config_names:
        shape = dict(BENCH_CONFIGS[name])
        if ops_override is not None:
            shape["ops"] = ops_override
        if "shards" in shape:
            report["configs"][name] = _run_sharded_bench(
                shape, seed, fault_rate, repeats
            )
            continue
        exp = _shape_experiment(shape, seed, fault_rate)
        ops = exp.ops
        memdep_on = exp.params.memdep.enabled
        ckpt_interval = exp.params.recovery.checkpoint_interval
        trace = generate(exp.profile, ops, seed=seed)
        ref_entry = ref_configs.get(name)
        if ref_entry is not None and ref_entry.get("ops") != ops:
            ref_entry = None  # trace length differs: wall times incomparable
        entry: dict[str, Any] = dict(shape)
        for mode in ("unchecked", "checked"):
            core = build_core(exp, mode == "checked")
            wall, stats = _best_of(repeats, lambda: core.run(trace))
            stats_dict = stats.to_dict()
            mode_report: dict[str, Any] = {
                "wall_s": round(wall, 4),
                "ops_per_sec": round(ops / wall, 1),
                "cycles": stats.cycles,
                "ipc": round(stats.ipc, 4),
                "sched_events": stats.sched_events,
            }
            if mode == "checked":
                mode_report["faults_injected"] = stats.faults_injected
                mode_report["faults_detected"] = stats.faults_detected
                mode_report["mean_detection_latency"] = round(
                    stats.mean_detection_latency, 3
                )
            if memdep_on:
                mode_report["mem_order_violations"] = stats.mem_order_violations
                mode_report["loads_forwarded"] = stats.loads_forwarded
                mode_report["loads_delayed"] = stats.loads_delayed
            if ckpt_interval:
                mode_report["checkpoints_taken"] = stats.checkpoints_taken
                mode_report["checkpoint_overhead_cycles"] = stats.checkpoint_overhead_cycles
                if mode == "checked":
                    mode_report["recovery_stall_cycles"] = stats.recovery_stall_cycles
                    mode_report["mean_rollback_distance"] = round(
                        stats.mean_rollback_distance, 3
                    )
            if ref_entry is not None:
                ref_mode = ref_entry[mode]
                mode_report["baseline_wall_s"] = ref_mode["wall_s"]
                mode_report["speedup"] = round(ref_mode["wall_s"] / wall, 2)
                mode_report["stats_identical"] = stats_dict == ref_mode["stats"]
            entry[mode] = mode_report
        report["configs"][name] = entry
    headline = report["configs"].get(HEADLINE_CONFIG, {}).get("checked", {})
    report["headline_speedup"] = headline.get("speedup")
    report["all_stats_identical"] = all(
        mode_report.get("stats_identical", True)
        for entry in report["configs"].values()
        for mode_report in (entry.get("unchecked"), entry.get("checked"))
        if isinstance(mode_report, dict)
    ) and all(
        entry["shards1"]["stats_identical"]
        for entry in report["configs"].values()
        if isinstance(entry.get("shards1"), dict)
    )
    return report


def format_bench(report: dict[str, Any]) -> str:
    """Human-readable table of one bench report."""
    lines = [
        f"core bench: preset={report['preset']} seed={report['seed']} "
        f"repeats={report['repeats']} (best-of)",
    ]
    for name, entry in report["configs"].items():
        if isinstance(entry.get("sharded"), dict):
            block = entry["sharded"]
            identical = (
                "identical" if entry["shards1"]["stats_identical"] else "DIVERGED"
            )
            lines.append(
                f"  [{name}] ops={entry['ops']} window={entry['window_size']} "
                f"wrong-path-depth={entry['wrong_path_depth']} "
                f"shards={entry['shards']} warmup={entry['shard_warmup']}"
            )
            lines.append(
                f"    shards=1  {entry['shards1']['wall_s']:7.3f}s  "
                f"(stats {identical} to monolithic)"
            )
            gate = "" if entry.get("speedup_gated") else (
                f" [speedup ungated: {entry['host_cpus']} cpu(s)]"
            )
            lines.append(
                f"    shards={entry['shards']}  {block['wall_s']:7.3f}s  "
                f"{block['speedup_vs_shards1']:.2f}x vs shards=1  "
                f"IPC err {block['ipc_error_max']:.3%} "
                f"(tol {entry['ipc_tolerance']:.0%})  "
                f"coverage {block['fault_coverage']:.0%}{gate}"
            )
            continue
        detail = (
            f"  [{name}] ops={entry['ops']} window={entry['window_size']} "
            f"wrong-path-depth={entry['wrong_path_depth']}"
        )
        if "preset" in entry:
            detail += f" preset={entry['preset']}"
        if entry.get("memdep"):
            detail += f" memdep banks={entry.get('dcache_banks', 1)}"
        if entry.get("checkpoint_interval"):
            detail += (
                f" ckpt={entry['checkpoint_interval']}"
                f"/+{entry.get('checkpoint_overhead', 1)}cyc"
            )
        lines.append(detail)
        for mode in ("unchecked", "checked"):
            mode_report = entry[mode]
            line = (
                f"    {mode:9s} {mode_report['wall_s']:7.3f}s "
                f"{mode_report['ops_per_sec']:>9,.0f} ops/s  "
                f"IPC {mode_report['ipc']:.3f}"
            )
            if "speedup" in mode_report:
                identical = "identical" if mode_report["stats_identical"] else "DIVERGED"
                line += (
                    f"  vs scan {mode_report['baseline_wall_s']:.3f}s "
                    f"-> {mode_report['speedup']:.2f}x (stats {identical})"
                )
            lines.append(line)
    if report.get("headline_speedup") is not None:
        lines.append(
            f"  headline ({HEADLINE_CONFIG}, checked): "
            f"{report['headline_speedup']:.2f}x vs pre-refactor scan core"
        )
    return "\n".join(lines)


def write_bench_json(report: dict[str, Any], path: str | Path = DEFAULT_OUTPUT) -> None:
    Path(path).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
