"""Regenerate ``references.json``: simulated digests and exact work counts.

For each workload and seed this makes one untraced pass (stats digest of
every instance, or the campaign store digest) and one traced pass (the
exact counts only the spans see, such as ``memory.access_calls``), checks
that both agree, and records the result.  Run it only when a change is
meant to alter simulated results, and say so in the change::

    python3 perfbench/make_references.py --seeds 0-19 --heldout 7919

``--heldout`` seeds get references like the others but are listed apart:
they are for re-checking a claim, not for use while developing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run as bench_run

sys.path.insert(0, str(bench_run.SRC))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def reference_for(workload: str, seed: int) -> dict:
    workdir = bench_run.WORK / f"refs-{workload}-{seed}-{os.getpid()}"
    try:
        setup = bw.setup(workload, seed, workdir, os.cpu_count() or 1)
        log = bench_trace.SpanLog()
        if workload in bw.CORE_SHAPES:
            runs = [bw.run_instance(setup, i) for i in range(len(setup.seeds))]
            with bench_trace.installed(log):
                traced = [bw.run_instance(setup, i) for i in range(len(setup.seeds))]
            digests = [r.stats_digest() for r in runs]
            traced_digests = [r.stats_digest() for r in traced]
            counts: dict[str, int] = {}
            for r in runs:
                for key, value in r.counts().items():
                    counts[key] = counts.get(key, 0) + value
            problems = [p for r in runs for p in bw.instance_problems(setup, r)]
        else:
            first = bw.run_campaign_pass(setup, 0)
            with bench_trace.installed(log):
                second = bw.run_campaign_pass(setup, 1)
            digests = [first.store_digest]
            traced_digests = [second.store_digest]
            counts = first.counts()
            problems = [
                p for ps in bw.campaign_problems(setup, first).values() for p in ps
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    layers = bench_trace.layer_metrics(log)
    traced_counts = {key: int(layers[key][0]) for key in bw.EXACT_COUNTS}
    problems += bench_run.compare_counts("traced", traced_counts, counts)
    if digests != traced_digests:
        problems.append("traced digests differ from untraced")
    if problems:
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    return {"digests": digests, "counts": {**traced_counts, **counts}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--heldout", default="")
    parser.add_argument("--workload", action="append", choices=bw.WORKLOADS)
    args = parser.parse_args()
    heldout = parse_seeds(args.heldout) if args.heldout else []
    try:
        table = json.loads(bench_run.REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        table = {}
    if heldout:
        table["heldout_seeds"] = heldout
    for workload in args.workload or bw.WORKLOADS:
        entries = table.setdefault(workload, {})
        for seed in parse_seeds(args.seeds) + heldout:
            entries[str(seed)] = reference_for(workload, seed)
            print(workload, seed, entries[str(seed)], flush=True)
            bench_run.REFERENCES.write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
