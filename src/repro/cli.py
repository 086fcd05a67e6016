"""Experiment CLI: single runs, parallel sweeps, and paper-style reports.

Argument parsing and printing only; the simulations live in
:mod:`repro.simulate`, :mod:`repro.parallel` and :mod:`repro.experiments`.
Five subcommands:

* ``python -m repro run --preset int-heavy --check`` — one (preset, seed,
  config) point through an unchecked baseline core and (with ``--check``)
  through the same core with the shared-resource checker and fault
  injection enabled; reports IPC, checker slot-steal rate, detection
  coverage and latency, and the checked-vs-unchecked slowdown.
* ``python -m repro sweep --spec grid.toml --workers 4`` — a declarative
  cartesian grid of such points fanned out across worker processes into an
  append-only, resumable JSONL results store (see
  :mod:`repro.experiments`).
* ``python -m repro campaign --spec campaign.toml --workers 4`` — a
  statistical fault-injection campaign: per (preset, fault model) cell,
  one calibration run counts eligible fault sites, then N randomized
  single-fault trials resolve each injected fault to its outcome
  (detected / squashed / masked / SDC / false alarm) and the report
  carries coverage and SDC rates with Wilson confidence intervals (see
  :mod:`repro.experiments.campaign`).
* ``python -m repro report`` — aggregates a results store across seeds
  (mean ± stddev) into the paper's tables, plus CSV and
  ``BENCH_sweep.json`` outputs.
* ``python -m repro bench`` — wall-clock benchmark of the event-driven
  scheduling kernel against the committed pre-refactor (window-rescan)
  reference, verifying stat-identity and writing ``BENCH_core.json`` (see
  :mod:`repro.bench`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Sequence

from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.experiments import ResultsStore, SweepSpec, run_sweep
from repro.faults.models import FAULT_MODELS as _FAULT_MODELS
from repro.isa.opcodes import FUClass
from repro.obs import ObsSession
from repro.obs.telemetry import render_table as render_telemetry_table
from repro.parallel import DEFAULT_SHARD_WARMUP, run_sharded_experiment
from repro.simulate import Experiment, run_experiment
from repro.util import write_json
from repro.workloads import PRESET_NAMES, PRESETS

#: Default results-store path shared by ``sweep`` and ``report`` so the
#: bare two-command flow works without plumbing a path through by hand.
DEFAULT_STORE = "sweep_results.jsonl"


def format_report(result: dict) -> str:
    """Human-readable multi-line summary of one experiment."""
    unchecked = result["unchecked"]
    lines = [
        f"preset={result['preset']} ops={result['ops']} seed={result['seed']}",
        (
            f"  unchecked: IPC {unchecked['ipc']:.3f}  cycles {unchecked['cycles']:.0f}  "
            f"l1d-miss {unchecked['mem_l1d_miss_rate']:.1%}  "
            f"mispredict {unchecked['mispredict_rate']:.1%}"
        ),
    ]
    if result.get("wrong_path") and unchecked["wrong_path_fetched"]:
        lines.append(
            f"  wrong-path: fetched {unchecked['wrong_path_fetched']:.0f} "
            f"({unchecked['wrong_path_fetch_fraction']:.1%} of fetch)  "
            f"issued {unchecked['wrong_path_issued']:.0f}  "
            f"slot-waste {unchecked['wrong_path_slot_rate']:.1%}"
        )
    if "mem_order_violations" in unchecked:
        lines.append(
            f"  memdep:    violations {unchecked['mem_order_violations']:.0f}  "
            f"forwarded {unchecked['loads_forwarded']:.0f}  "
            f"delayed {unchecked['loads_delayed']:.0f}  "
            f"lsq-stalls {unchecked['lsq_full_stalls']:.0f}"
        )
    if "mem_dcache_banks" in unchecked:
        lines.append(
            f"  d-banks:   {unchecked['mem_dcache_banks']:.0f} banks  "
            f"conflicts {unchecked['mem_bank_conflicts']:.0f}"
        )
    if "checked" in result:
        checked = result["checked"]
        lines.append(
            f"  checked:   IPC {checked['ipc']:.3f}  cycles {checked['cycles']:.0f}  "
            f"slot-steal {checked['slot_steal_rate']:.1%}  "
            f"checks {checked['checks_completed']:.0f}"
        )
        if result.get("wrong_path"):
            lines.append(
                f"  contention: wrong-path slot-waste {checked['wrong_path_slot_rate']:.1%} "
                f"competes with checker slot-steal {checked['slot_steal_rate']:.1%} "
                f"(primary {checked['primary_slot_utilization']:.1%})"
            )
        if "mem_checker_probes" in checked:
            lines.append(
                f"  chk-dcache: probes {checked['mem_checker_probes']:.0f}  "
                f"port-conflicts {checked['mem_checker_port_conflicts']:.0f}  "
                f"bank-conflicts {checked['mem_checker_bank_conflicts']:.0f}"
            )
        lines.append(
            f"  faults:    injected {checked['faults_injected']:.0f}  "
            f"detected {checked['faults_detected']:.0f}  "
            f"squashed {checked['faults_squashed']:.0f}  "
            f"coverage {result['fault_coverage']:.1%}  "
            f"det-latency mean {checked['mean_detection_latency']:.1f} "
            f"max {checked['max_detection_latency']:.0f}"
        )
        if "fault_outcomes" in checked:
            outcomes = checked["fault_outcomes"]
            lines.append(
                f"  outcomes:  model={checked['fault_model']}  "
                f"detected {outcomes['detected']:.0f}  "
                f"squashed {outcomes['squashed']:.0f}  "
                f"masked {outcomes['masked']:.0f}  "
                f"sdc {outcomes['sdc']:.0f}  "
                f"false-alarm {outcomes['false_alarm']:.0f}"
            )
        if "checkpoints_taken" in checked:
            lines.append(
                f"  checkpoint: taken {checked['checkpoints_taken']:.0f}  "
                f"overhead {checked['checkpoint_overhead_cycles']:.0f} cyc  "
                f"recovery-stall mean {checked['mean_recovery_stall']:.1f} cyc  "
                f"rollback mean {checked['mean_rollback_distance']:.1f} "
                f"max {checked['max_rollback_distance']:.0f} ops"
            )
        slowdown = result["slowdown"]
        lines.append(
            f"  slowdown:  {slowdown:.3f}x" if slowdown is not None else "  slowdown:  n/a"
        )
    if "sharding" in result:
        sharding = result["sharding"]
        lines.append(
            f"  sharding:  {sharding['shards']} shards  "
            f"warmup {sharding['warmup_ops']} ops/shard  "
            f"workers {sharding['workers']}/{sharding['host_cpus']} cpus  "
            f"wall {sharding['wall_s']:.2f}s  (approximate merge)"
        )
    return "\n".join(lines)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--preset", choices=PRESET_NAMES, default="int-heavy", help="workload scenario"
    )
    group.add_argument(
        "--all-presets", action="store_true", help="run every bundled scenario"
    )
    parser.add_argument("--ops", type=int, default=20_000, help="trace length")
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run the checked core and report slowdown vs. the baseline",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=1e-4,
        help="per-op transient-fault probability in the checked run",
    )
    fault_group = parser.add_argument_group(
        "fault model",
        "which repro.faults model the checked run injects with; the "
        "default transient model is detected by construction, the others "
        "can mask, miss (SDC), or false-alarm and report a per-outcome "
        "taxonomy",
    )
    fault_group.add_argument(
        "--fault-model",
        choices=_FAULT_MODELS,
        default="transient",
        help="fault model for the checked run",
    )
    fault_group.add_argument(
        "--fault-burst",
        type=int,
        default=4,
        metavar="OPS",
        help="consecutive eligible ops corrupted per intermittent trigger",
    )
    fault_group.add_argument(
        "--fault-fu",
        choices=tuple(cls.name for cls in FUClass),
        default="IALU",
        help="FU class the stuck-fu model breaks",
    )
    fault_group.add_argument(
        "--fault-repair-cycles",
        type=int,
        default=200,
        metavar="CYCLES",
        help="cycles until a stuck FU is repaired",
    )
    parser.add_argument(
        "--real-predictor",
        action="store_true",
        help="use the combining predictor instead of trace mispredict flags",
    )
    parser.add_argument(
        "--no-wrong-path",
        action="store_true",
        help="stall fetch at mispredicted branches instead of executing wrong-path work",
    )
    parser.add_argument(
        "--wrong-path-depth",
        type=int,
        default=CoreParams().wrong_path_depth,
        help="max micro-ops fetched down one wrong path before waiting for resolution",
    )
    parser.add_argument(
        "--frontend-depth",
        type=int,
        default=0,
        help=(
            "extra fetch-to-issue pipeline stages (0 = legacy two-stage front "
            "end); deeper front ends widen the branch-resolution window and "
            "so the wrong-path volume per mispredict"
        ),
    )
    parser.add_argument(
        "--memdep",
        action="store_true",
        help=(
            "enable the memory-dependence subsystem: LSQ, store-set "
            "prediction, store-to-load forwarding, and ordering-violation "
            "squash/replay"
        ),
    )
    parser.add_argument(
        "--dcache-banks",
        type=int,
        default=1,
        help=(
            "D-cache banks (1 = unbanked legacy model); with more, checker "
            "loads/stores compete with the primary stream for bank slots"
        ),
    )
    parser.add_argument(
        "--store-alias-fraction",
        type=float,
        default=None,
        metavar="FRAC",
        help=(
            "override the profile's store_alias_fraction: probability each "
            "static store shares an address stream with a later static load"
        ),
    )
    parser.add_argument(
        "--ssit-decay-cycles",
        type=int,
        default=0,
        metavar="CYCLES",
        help=(
            "clear the store-set predictor's tables once per this many "
            "cycles (0 = never, the legacy behavior); requires --memdep"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        metavar="COMMITS",
        help=(
            "take a verified-state checkpoint every COMMITS commits; fault "
            "recovery then rolls back to the nearest checkpoint instead of "
            "paying the flat recovery penalty (0 = legacy flat-penalty mode)"
        ),
    )
    parser.add_argument(
        "--checkpoint-overhead",
        type=int,
        default=1,
        metavar="CYCLES",
        help="fetch-stall cycles charged per checkpoint creation",
    )
    parallel_group = parser.add_argument_group(
        "parallel simulation",
        "time-shard one run across worker processes; --shards 1 (the "
        "default) is the exact monolithic path",
    )
    parallel_group.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "split the op budget into N contiguous windows simulated in "
            "parallel processes and merge the stats; N > 1 is an explicitly "
            "approximate fast mode (cold shard boundaries are absorbed by a "
            "discarded per-shard warm-up)"
        ),
    )
    parallel_group.add_argument(
        "--shard-warmup",
        type=int,
        default=DEFAULT_SHARD_WARMUP,
        metavar="OPS",
        help=(
            "warm-up ops each shard after the first simulates and discards "
            "before its measured window (default %(default)s; only "
            "meaningful with --shards > 1)"
        ),
    )
    parallel_group.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sharded runs (default: one per shard)",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help=(
            "write the full stats+params result dict to this file as JSON "
            "(stdout keeps the text report unless --json is also given)"
        ),
    )
    obs_group = parser.add_argument_group(
        "observability",
        "per-op tracing, interval telemetry, and the metrics registry "
        "(all off by default; the uninstrumented path is bit-identical)",
    )
    obs_group.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "write a Chrome trace_event JSON timeline (open with Perfetto "
            "or chrome://tracing; 1 timestamp unit = 1 cycle)"
        ),
    )
    obs_group.add_argument(
        "--op-trace-out",
        default=None,
        metavar="PATH",
        help="write the per-op lifecycle records as JSONL (one op per line)",
    )
    obs_group.add_argument(
        "--telemetry-interval",
        type=int,
        default=0,
        metavar="CYCLES",
        help=(
            "sample IPC/occupancy/slot-steal/checker-lag telemetry every "
            "CYCLES cycles (0 = off); samples sum exactly to the final stats"
        ),
    )
    obs_group.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write the telemetry time series as JSONL (requires --telemetry-interval)",
    )
    obs_group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the typed metrics registry (counters/gauges/histograms) as JSON",
    )
    obs_group.add_argument(
        "--trace-ops",
        default=None,
        metavar="LO:HI",
        help=(
            "only trace ops whose sequence number falls in [LO, HI) — "
            "wrong-path work follows its spawning branch's seq; either "
            "bound may be omitted (requires --trace-out or --op-trace-out)"
        ),
    )


def _parse_trace_ops(
    text: str, parser: argparse.ArgumentParser
) -> tuple[int, int]:
    """``"LO:HI"`` (either side optional) -> a half-open seq window."""
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        parser.error(f"--trace-ops wants LO:HI, got {text!r}")
    try:
        lo = int(lo_text) if lo_text else 0
        hi = int(hi_text) if hi_text else 2**63
    except ValueError:
        parser.error(f"--trace-ops bounds must be integers, got {text!r}")
    if lo < 0 or hi <= lo:
        parser.error(f"--trace-ops wants 0 <= LO < HI, got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Checked-superscalar experiments: shared-resource concurrent "
            "error detection (Smolens et al., MICRO 2004)."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{run,sweep,campaign,report,bench}"
    )

    run_parser = sub.add_parser(
        "run", help="run one (preset, seed, config) experiment point"
    )
    _add_run_arguments(run_parser)

    sweep_parser = sub.add_parser(
        "sweep",
        help="fan a declarative grid of experiment points out across processes",
    )
    sweep_parser.add_argument(
        "--spec", required=True, help="sweep specification (.toml or .json)"
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    sweep_parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help="append-only JSONL results store (resumable; already-stored points are skipped)",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-point wall-clock budget: a point exceeding it becomes an "
            "error row in the store (retried on the next invocation) instead "
            "of a stuck worker; overrides the spec's timeout_s field"
        ),
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-execute a point that produced an error row up to N times "
            "within this invocation (exponential backoff) before storing "
            "the error; a retry that succeeds stores the normal success "
            "row, byte-identical to a run that never needed it"
        ),
    )
    sweep_parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="initial backoff before the first retry (doubles per attempt)",
    )
    sweep_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "write a Chrome trace_event JSON of runner spans (one slice per "
            "executed point, lanes per worker process; stored rows are "
            "byte-identical with or without it)"
        ),
    )
    sweep_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the sweep summary counters as a metrics-registry JSON",
    )

    campaign_parser = sub.add_parser(
        "campaign",
        help=(
            "statistical fault-injection campaign: randomized single-fault "
            "trials per (preset, fault model) cell with outcome taxonomy "
            "and Wilson confidence intervals"
        ),
    )
    campaign_parser.add_argument(
        "--spec", required=True, help="campaign specification (.toml or .json)"
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    campaign_parser.add_argument(
        "--store",
        default=None,
        help=(
            "append-only JSONL results store (default "
            "campaign_results.jsonl; resumable — stored trials are skipped)"
        ),
    )
    campaign_parser.add_argument(
        "--bench-json",
        default=None,
        help="machine-readable campaign report path (default BENCH_campaign.json)",
    )
    campaign_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-trial wall-clock budget: a trial exceeding it becomes an "
            "error row (retried on the next invocation); overrides the "
            "spec's timeout_s field"
        ),
    )
    campaign_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress lines"
    )
    campaign_parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable campaign report instead of the table",
    )

    report_parser = sub.add_parser(
        "report", help="aggregate a results store into the paper-style tables"
    )
    report_parser.add_argument(
        "--store", default=DEFAULT_STORE, help="JSONL results store to aggregate"
    )
    report_parser.add_argument(
        "--bench-json",
        default="BENCH_sweep.json",
        help="machine-readable aggregate output path",
    )
    report_parser.add_argument(
        "--csv-dir", default=None, help="also write one CSV per table into this directory"
    )
    report_parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable aggregate instead of text tables",
    )
    report_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the aggregate (per-group means, detection-latency p90) "
            "as a metrics-registry JSON"
        ),
    )

    bench_parser = sub.add_parser(
        "bench",
        help=(
            "wall-clock benchmark of the scheduling kernel vs the committed "
            "pre-refactor reference (writes BENCH_core.json)"
        ),
    )
    from repro.bench import BENCH_CONFIGS, DEFAULT_OUTPUT, DEFAULT_REFERENCE

    bench_parser.add_argument(
        "--config",
        choices=(*BENCH_CONFIGS, "all"),
        default="all",
        help=(
            "machine shape to benchmark: table1 (the paper's 128-entry "
            "window), big-core (1024-entry window, deep wrong paths), "
            "memdep (memory-bound aliasing workload with store sets and a "
            "banked D-cache), checkpoint (table1 shape with verified-state "
            "checkpointing on), ci-smoke (short big-core run), sharded "
            "(time-sharded parallel fast mode vs the monolithic run), or "
            "all full-length configs"
        ),
    )
    bench_parser.add_argument(
        "--configs",
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "comma-separated subset of bench configs to run (overrides "
            "--config); e.g. --configs table1,sharded"
        ),
    )
    bench_parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    bench_parser.add_argument(
        "--ops", type=int, default=None, help="override the config's trace length"
    )
    bench_parser.add_argument(
        "--fault-rate", type=float, default=1e-4, help="checked-mode fault rate"
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=2, help="timed runs per point (best-of)"
    )
    bench_parser.add_argument(
        "--reference",
        default=str(DEFAULT_REFERENCE),
        help="committed pre-refactor reference JSON",
    )
    bench_parser.add_argument(
        "--out", default=DEFAULT_OUTPUT, help="machine-readable output path"
    )
    bench_parser.add_argument(
        "--min-ops-per-sec",
        default=None,
        help=(
            "fail if the benchmarked config's checked-mode throughput falls "
            "below this floor (CI regression gate); 'ref' uses the "
            "reference's ci_floor_ops_per_sec"
        ),
    )
    bench_parser.add_argument(
        "--json", action="store_true", help="print the JSON report instead of text"
    )
    return parser


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # Range checks belong to the params classes, WorkloadProfile and
    # Experiment; only the cross-flag rules are the CLI's own.
    if args.ssit_decay_cycles and not args.memdep:
        parser.error("--ssit-decay-cycles requires --memdep")
    if args.telemetry_out and not args.telemetry_interval:
        parser.error("--telemetry-out requires --telemetry-interval")
    if args.shards < 1:
        parser.error(f"--shards must be at least 1, got {args.shards}")
    if args.shard_warmup < 0:
        parser.error(f"--shard-warmup must be non-negative, got {args.shard_warmup}")
    if args.shard_workers is not None and args.shard_workers < 1:
        parser.error(f"--shard-workers must be at least 1, got {args.shard_workers}")
    if args.shards > 1 and args.telemetry_interval:
        parser.error(
            "--telemetry-interval needs one continuous run; it cannot be "
            "combined with --shards > 1"
        )
    trace_ops = None
    if args.trace_ops is not None:
        if not (args.trace_out or args.op_trace_out):
            parser.error("--trace-ops requires --trace-out or --op-trace-out")
        trace_ops = _parse_trace_ops(args.trace_ops, parser)
    obs_requested = bool(
        args.trace_out
        or args.op_trace_out
        or args.telemetry_interval
        or args.metrics_out
    )
    if obs_requested and args.all_presets:
        parser.error(
            "observability outputs trace one experiment; drop --all-presets "
            "or run presets individually"
        )
    names = list(PRESET_NAMES) if args.all_presets else [args.preset]
    profiles = [PRESETS[name] for name in names]
    try:
        if args.store_alias_fraction is not None:
            profiles = [
                replace(profile, store_alias_fraction=args.store_alias_fraction)
                for profile in profiles
            ]
        params = CoreParams(
            frontend_depth=args.frontend_depth,
            model_wrong_path=not args.no_wrong_path,
            wrong_path_depth=args.wrong_path_depth,
            use_real_predictor=args.real_predictor,
            # The model knobs ride the base checker params; the run layers
            # enabled/fault_rate/fault_seed on top, so the model selection
            # survives into the checked core.
            checker=CheckerParams(
                fault_model=args.fault_model,
                fault_burst=args.fault_burst,
                fault_fu=args.fault_fu,
                fault_repair_cycles=args.fault_repair_cycles,
            ),
            memdep=MemDepParams(
                enabled=args.memdep, ssit_decay_cycles=args.ssit_decay_cycles
            ),
            recovery=RecoveryParams(
                checkpoint_interval=args.checkpoint_interval,
                checkpoint_overhead=args.checkpoint_overhead,
            ),
            telemetry_interval=args.telemetry_interval,
        )
        experiments = [
            Experiment(
                profile,
                ops=args.ops,
                seed=args.seed,
                check=args.check,
                fault_rate=args.fault_rate,
                params=params,
                dcache_banks=args.dcache_banks,
            )
            for profile in profiles
        ]
    except ValueError as exc:
        parser.error(str(exc))
    obs = (
        ObsSession(
            trace_out=args.trace_out,
            op_trace_out=args.op_trace_out,
            telemetry_interval=args.telemetry_interval,
            telemetry_out=args.telemetry_out,
            metrics_out=args.metrics_out,
            trace_ops=trace_ops,
        )
        if obs_requested
        else None
    )
    if args.shards > 1:
        results = [
            run_sharded_experiment(
                exp, args.shards, args.shard_warmup, args.shard_workers, obs=obs
            )
            for exp in experiments
        ]
    else:
        results = [run_experiment(exp, obs) for exp in experiments]
    payload = results if args.all_presets else results[0]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n\n".join(format_report(result) for result in results))
        if obs is not None:
            for label, telemetry in obs.telemetries:
                print()
                print(render_telemetry_table(telemetry.samples, label))
    if args.json_out:
        print(f"wrote {write_json(payload, args.json_out)}", file=sys.stderr)
    if obs is not None:
        written = obs.finish(
            metadata={
                "preset": names[0],
                "ops": args.ops,
                "seed": args.seed,
                "check": args.check,
            }
        )
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.workers <= 0:
        parser.error(f"--workers must be positive, got {args.workers}")
    try:
        spec = SweepSpec.load(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        # TypeError covers wrong-shaped documents (a scalar where a list
        # axis or table is expected) that surface from dataclass plumbing.
        parser.error(f"cannot load sweep spec {args.spec!r}: {exc}")
    store = ResultsStore(args.store)

    def progress(done: int, total: int, row: dict) -> None:
        config = row.get("config", {})
        detail = (
            f"slowdown={row['result'].get('slowdown'):.3f}"
            if row.get("status") == "ok" and row["result"].get("slowdown") is not None
            else row.get("status", "?")
        )
        print(
            f"[{done}/{total}] {row.get('status', '?'):5s} "
            f"preset={config.get('preset')} seed={config.get('seed')} "
            f"fault_rate={config.get('fault_rate')} {detail}",
            flush=True,
        )

    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive, got {args.timeout}")
    if args.retries < 0:
        parser.error(f"--retries must be non-negative, got {args.retries}")
    if args.retry_backoff < 0:
        parser.error(f"--retry-backoff must be non-negative, got {args.retry_backoff}")
    obs = (
        ObsSession(trace_out=args.trace_out, metrics_out=args.metrics_out)
        if (args.trace_out or args.metrics_out)
        else None
    )
    summary = run_sweep(
        spec,
        store,
        workers=args.workers,
        progress=None if args.quiet else progress,
        timeout_s=args.timeout,
        spans=obs.span_collector(spec.name or "sweep") if obs is not None else None,
        registry=obs.registry if obs is not None else None,
        retries=args.retries,
        retry_backoff_s=args.retry_backoff,
    )
    retried = f", retried {summary.retried}" if summary.retried else ""
    print(
        f"sweep '{spec.name}': {summary.total} points — "
        f"executed {summary.executed}, cached {summary.cached}, "
        f"errors {summary.errors}{retried} -> {store.path} "
        f"({summary.wall_seconds:.1f}s wall, slowest point "
        f"{summary.slowest_point_s:.1f}s, worker utilization "
        f"{summary.worker_utilization:.0%})"
    )
    if obs is not None:
        for path in obs.finish(
            metadata={"sweep": spec.name, "spec": str(args.spec), "store": str(store.path)}
        ):
            print(f"wrote {path}", file=sys.stderr)
    return 1 if summary.errors else 0


def _cmd_campaign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments.campaign import (
        DEFAULT_CAMPAIGN_JSON,
        DEFAULT_CAMPAIGN_STORE,
        CampaignSpec,
        aggregate_campaign,
        render_campaign_text,
        run_campaign,
    )

    if args.workers <= 0:
        parser.error(f"--workers must be positive, got {args.workers}")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive, got {args.timeout}")
    try:
        spec = CampaignSpec.load(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        parser.error(f"cannot load campaign spec {args.spec!r}: {exc}")
    store = ResultsStore(args.store or DEFAULT_CAMPAIGN_STORE)

    def progress(done: int, total: int, row: dict) -> None:
        config = row.get("config", {})
        print(
            f"[{done}/{total}] {row.get('status', '?'):5s} "
            f"{config.get('kind', '?')} preset={config.get('preset')} "
            f"model={config.get('fault_model')} trial={config.get('trial', '-')}",
            flush=True,
        )

    summary = run_campaign(
        spec,
        store,
        workers=args.workers,
        progress=None if args.quiet else progress,
        timeout_s=args.timeout,
    )
    report = aggregate_campaign(spec, store)
    out = write_json(report, args.bench_json or DEFAULT_CAMPAIGN_JSON)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_campaign_text(report))
        print(
            f"campaign '{spec.name}': {summary.cells} cells, "
            f"{summary.trials_total} trials — executed {summary.trials_executed} "
            f"(+{summary.calibrations} calibrations), cached {summary.cached}, "
            f"errors {summary.errors} -> {store.path} "
            f"({summary.wall_seconds:.1f}s wall)"
        )
        print(f"wrote {out}")
    return 1 if summary.errors else 0


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.experiments import aggregate, render_text, write_csv_tables

    store = ResultsStore(args.store)
    rows = store.ok_rows()
    if not rows:
        print(
            f"no completed runs in {store.path} — run `python -m repro sweep` first",
            file=sys.stderr,
        )
        return 1
    aggregated = aggregate(rows, source=str(store.path))
    write_json(aggregated, args.bench_json)
    if args.csv_dir:
        write_csv_tables(aggregated, args.csv_dir)
    if args.metrics_out:
        from repro.experiments import register_metrics
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        register_metrics(aggregated, registry)
        registry.write(args.metrics_out)
        print(f"wrote {args.metrics_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(aggregated, indent=2, sort_keys=True))
    else:
        print(render_text(aggregated))
        print(f"\nwrote {args.bench_json}", end="")
        print(f" and CSV tables under {args.csv_dir}" if args.csv_dir else "")
    return 0


def _cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.bench import (
        BENCH_CONFIGS,
        format_bench,
        load_reference,
        run_bench,
        sharded_gate_failures,
        write_bench_json,
    )

    if args.repeats <= 0:
        parser.error(f"--repeats must be positive, got {args.repeats}")
    if args.ops is not None and args.ops <= 0:
        parser.error(f"--ops must be positive, got {args.ops}")
    if args.configs is not None:
        config_names = [name.strip() for name in args.configs.split(",") if name.strip()]
        if not config_names:
            parser.error("--configs wants at least one config name")
        unknown = [name for name in config_names if name not in BENCH_CONFIGS]
        if unknown:
            parser.error(
                f"unknown bench config(s) {', '.join(unknown)} — "
                f"choose from {', '.join(BENCH_CONFIGS)}"
            )
    elif args.config == "all":
        # The full-length configs; ci-smoke only runs when named.
        config_names = [name for name in BENCH_CONFIGS if name != "ci-smoke"]
    else:
        config_names = [args.config]
    reference = load_reference(args.reference)
    if reference is None:
        print(f"note: no reference at {args.reference}; reporting timings only")
    report = run_bench(
        config_names,
        seed=args.seed,
        fault_rate=args.fault_rate,
        repeats=args.repeats,
        reference=reference,
        ops_override=args.ops,
    )
    write_bench_json(report, args.out)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_bench(report))
        print(f"wrote {args.out}")
    if not report["all_stats_identical"]:
        print("FAIL: kernel stats diverged from the pre-refactor reference",
              file=sys.stderr)
        return 1
    sharded_failures = sharded_gate_failures(report)
    if sharded_failures:
        for failure in sharded_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    floor = args.min_ops_per_sec
    if floor is not None:
        if floor == "ref":
            floor = (reference or {}).get("ci_floor_ops_per_sec")
            if floor is None:
                parser.error("--min-ops-per-sec=ref but the reference has no "
                             "ci_floor_ops_per_sec")
        try:
            floor = float(floor)
        except ValueError:
            parser.error(f"--min-ops-per-sec must be a number or 'ref', got {floor!r}")
        # The sharded comparison entry carries no timed monolithic modes;
        # the floor gates the per-core kernel configs.
        timed = [
            entry["checked"]["ops_per_sec"]
            for entry in report["configs"].values()
            if isinstance(entry.get("checked"), dict)
        ]
        slowest = min(timed) if timed else float("inf")
        if slowest < floor:
            print(
                f"FAIL: checked-mode throughput {slowest:,.0f} ops/s is below "
                f"the committed floor {floor:,.0f} ops/s",
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "report": _cmd_report,
        "bench": _cmd_bench,
    }[args.command]
    return handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
