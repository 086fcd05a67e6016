"""Same-host simulation-speed benchmark for the SHREC simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bigcore-branchy --seed 0 --seconds 30 --trace 0

Workloads: ``bigcore-branchy``, ``memdep-ckpt``, ``campaign-mixed`` (see
``perfbench/README.md``).  With ``--trace 0`` the run is uninstrumented and
reports the end-to-end metrics; with ``--trace 1`` it makes the same
untraced measurement, then one traced pass whose layer spans give the
per-layer metrics and the tracing overhead.

Every simulated output is checked (stats digests against
``references.json`` where the seed has one, repeat identity, and the
invariants listed in the README).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any check failed and 2 when the
simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 9


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_reference(workload: str, seed: int) -> dict[str, Any] | None:
    try:
        table = json.loads(REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def provenance(workload: str, seed: int, trace: int) -> dict[str, Any]:
    """Who produced a result: commit, dirty flag, host shape, seed."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "git_dirty": bool(status) if sha else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median of several cold set-ups, each in a fresh interpreter."""
    times = []
    for probe in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(workdir / f"probe-{probe}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def compare_counts(
    label: str, counts: dict[str, int], expected: dict[str, int] | None
) -> list[str]:
    """Exact-count mismatches for the keys both sides report."""
    if not expected:
        return []
    return [
        f"{label} {key} = {counts[key]}, expected {expected[key]}"
        for key in sorted(counts.keys() & expected.keys())
        if counts[key] != expected[key]
    ]


# --------------------------------------------------------------------- core


def measure_core(bw, setup, seconds: float, reference, tally: Tally):
    """Cycle through the instances for ``seconds``; every instance runs at
    least once.  Returns the first run of each instance and the per-instance
    timed-phase samples."""
    count = len(setup.seeds)
    samples: list[list[float]] = [[] for _ in range(count)]
    first: list[Any] = [None] * count
    started = time.perf_counter()
    done = 0
    while done < count or time.perf_counter() - started < seconds:
        index = done % count
        done += 1
        label = f"instance {index} (seed {setup.seeds[index]})"
        try:
            run = bw.run_instance(setup, index)
        except Exception:
            tally.record(label, [traceback.format_exc(limit=4)])
            continue
        problems = bw.instance_problems(setup, run)
        stats_digest = run.stats_digest()
        if first[index] is None:
            first[index] = run
            if reference and reference["digests"][index] != stats_digest:
                problems.append(
                    f"stats digest {stats_digest} != reference "
                    f"{reference['digests'][index]}"
                )
        else:
            if stats_digest != first[index].stats_digest():
                problems.append("stats digest differs from the first repetition")
            problems += compare_counts("repeat", run.counts(), first[index].counts())
        tally.record(label, problems)
        samples[index].append(run.seconds)
    return first, samples


def run_core(bw, setup, args, reference, tally: Tally) -> tuple[dict, dict]:
    first, samples = measure_core(bw, setup, args.seconds, reference, tally)
    ok = [i for i, run in enumerate(first) if run is not None]
    if not ok:
        return {}, {}
    ops = setup.shape.ops
    phase_s = sum(statistics.median(samples[i]) for i in ok)
    counts: dict[str, int] = {}
    for i in ok:
        for key, value in first[i].counts().items():
            counts[key] = counts.get(key, 0) + value
    if reference and len(ok) == len(first):
        tally.record("untraced exact counts",
                     compare_counts("untraced", counts, reference["counts"]))
    end_to_end = {
        "sim_ops_per_s": (2 * ops * len(ok) / phase_s, "ops/s"),
        "trials_per_s": (len(ok) / phase_s, "trials/s"),
        **{
            name: (value, "ratio")
            for name, value in bw.core_sim_metrics([first[i] for i in ok]).items()
        },
    }
    extra = {"counts": counts, "instances": len(ok),
             "repetitions": [len(s) for s in samples], "phase_s": phase_s}
    if args.trace:
        extra["layers"] = trace_core(bw, setup, first, phase_s, reference, tally,
                                     counts, args.workload)
    return end_to_end, extra


def trace_core(bw, setup, first, phase_s, reference, tally, counts, label):
    import bench_trace

    log = bench_trace.SpanLog()
    runs = []
    with bench_trace.installed(log):
        for index in range(len(setup.seeds)):
            runs.append(bw.run_instance(setup, index))
    for index, run in enumerate(runs):
        problems = bw.instance_problems(setup, run)
        if first[index] is not None and run.stats_digest() != first[index].stats_digest():
            problems.append("traced stats digest differs from the untraced run")
        tally.record(f"traced instance {index}", problems)
    layers = bench_trace.layer_metrics(log)
    traced_s = sum(run.seconds for run in runs)
    layers["trace_overhead_frac"] = (traced_s / phase_s - 1.0, "ratio")
    check_traced_counts(layers, counts, reference, tally)
    log.write(OUT / f"spans-{label}.json")
    return layers


# ----------------------------------------------------------------- campaign


def run_campaign(bw, setup, args, reference, tally: Tally) -> tuple[dict, dict]:
    started = time.perf_counter()
    runs = []
    first = None
    while not runs or time.perf_counter() - started < args.seconds:
        index = len(runs)
        try:
            run = bw.run_campaign_pass(setup, index)
        except Exception:
            tally.record(f"campaign pass {index}", [traceback.format_exc(limit=4)])
            runs.append(None)
            continue
        runs.append(run)
        shared = []
        if first is None:
            first = run
            if reference and reference["digests"][0] != run.store_digest:
                shared.append(
                    f"store digest {run.store_digest} != reference "
                    f"{reference['digests'][0]}"
                )
        elif run.store_digest != first.store_digest:
            shared.append("store digest differs from the first pass")
        for cell, problems in bw.campaign_problems(setup, run).items():
            tally.record(f"pass {index} cell {cell}", problems + shared)
    if first is None:
        return {}, {}
    done = [run for run in runs if run is not None]
    counts = first.counts()
    if reference:
        tally.record("untraced exact counts",
                     compare_counts("untraced", counts, reference["counts"]))
    sim = bw.campaign_sim_metrics(setup, first)
    end_to_end = {
        "sim_ops_per_s": (
            statistics.median(r.simulations * setup.spec.ops / r.seconds for r in done),
            "ops/s",
        ),
        "trials_per_s": (
            statistics.median(r.summary.trials_executed / r.seconds for r in done),
            "trials/s",
        ),
        "checked_slowdown": (sim["checked_slowdown"], "ratio"),
        "ipc_checked": (sim["ipc_checked"], "ratio"),
        "fault_coverage": (sim["fault_coverage"], "ratio"),
    }
    extra = {
        "counts": counts,
        "passes": len(done),
        "sdc_rate": sim["sdc_rate"],
        "workers": setup.workers,
        "pass_s": [round(r.seconds, 4) for r in done],
    }
    if args.trace:
        pass_s = statistics.median(r.seconds for r in done)
        extra["layers"] = trace_campaign(bw, setup, first, pass_s, len(runs),
                                         reference, tally, counts, args.workload)
    return end_to_end, extra


def trace_campaign(bw, setup, first, pass_s, index, reference, tally, counts,
                   label):
    import bench_trace

    log = bench_trace.SpanLog()
    with bench_trace.installed(log):
        run = bw.run_campaign_pass(setup, index)
    shared = []
    if run.store_digest != first.store_digest:
        shared.append("traced store digest differs from the untraced run")
    layers = bench_trace.layer_metrics(log, workers=setup.workers)
    traced_trials = layers["experiments.trial_samples"][0]
    if traced_trials != run.summary.trials_executed:
        shared.append(f"spans of {traced_trials} of {run.summary.trials_executed} "
                      "trials reached the parent")
    for cell, problems in bw.campaign_problems(setup, run).items():
        tally.record(f"traced cell {cell}", problems + shared)
    layers["trace_overhead_frac"] = (run.seconds / pass_s - 1.0, "ratio")
    check_traced_counts(layers, counts, reference, tally)
    log.write(OUT / f"spans-{label}.json")
    return layers


# ------------------------------------------------------------------- shared


def check_traced_counts(layers, counts, reference, tally: Tally) -> None:
    """Traced exact counts must equal the untraced ones and the reference."""
    traced = {key: int(value) for key, (value, unit) in layers.items()
              if unit == "count"}
    problems = compare_counts("traced", traced, counts)
    if reference:
        problems += compare_counts("traced", traced, reference["counts"])
    tally.record("traced exact counts", problems)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{list(bw.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    reference = load_reference(args.workload, args.seed)
    tally = Tally()
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        bw.import_modules(args.workload)
        setup = bw.setup(args.workload, args.seed, workdir / "run", os.cpu_count() or 1)
        runner = run_core if args.workload in bw.CORE_SHAPES else run_campaign
        end_to_end, extra = runner(bw, setup, args, reference, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    end_to_end["setup_s"] = (setup_s, "s")
    end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    layers = extra.pop("layers", {})
    chosen = layers if args.trace else end_to_end
    correct = tally.failed == 0 and bool(extra)
    record = {
        "provenance": provenance(args.workload, args.seed, args.trace),
        "reference": "checked" if reference else "none for this seed",
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "layers": {k: v for k, (v, _) in layers.items()},
        **extra,
        "problems": tally.problems,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for name, (value, unit) in chosen.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"],
                      "reference": record["reference"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
