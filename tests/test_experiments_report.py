"""Aggregation and report rendering over sweep rows."""

import json
import statistics

import pytest

from repro.experiments import (
    ResultsStore,
    SweepSpec,
    aggregate,
    render_text,
    run_sweep,
    write_csv_tables,
)
from repro.util import write_json

SPEC = SweepSpec(
    name="report-test",
    presets=["int-heavy", "branchy"],
    seeds=[0, 1, 2],
    ops=300,
    fault_rates=[0.01],
)


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    store = ResultsStore(tmp_path_factory.mktemp("sweep") / "r.jsonl")
    run_sweep(SPEC, store, workers=1)
    return store.ok_rows()


def test_groups_collapse_seeds_per_config(rows):
    aggregated = aggregate(rows)
    assert aggregated["n_groups"] == 2  # one per preset
    assert aggregated["n_rows"] == 6
    presets = [group["config"]["preset"] for group in aggregated["groups"]]
    assert presets == ["branchy", "int-heavy"]  # stable sort order
    for group in aggregated["groups"]:
        assert group["seeds"] == [0, 1, 2]
        assert group["n_seeds"] == 3
        assert "seed" not in group["config"]


def test_mean_and_std_match_statistics_module(rows):
    aggregated = aggregate(rows)
    group = aggregated["groups"][0]
    preset = group["config"]["preset"]
    slowdowns = [
        row["result"]["slowdown"]
        for row in rows
        if row["config"]["preset"] == preset and row["result"]["slowdown"] is not None
    ]
    metric = group["metrics"]["slowdown"]
    assert metric["mean"] == pytest.approx(statistics.fmean(slowdowns))
    assert metric["std"] == pytest.approx(statistics.stdev(slowdowns))
    assert metric["min"] == min(slowdowns) and metric["max"] == max(slowdowns)


def test_detection_latency_distribution_pools_all_samples(rows):
    aggregated = aggregate(rows)
    for group in aggregated["groups"]:
        preset = group["config"]["preset"]
        pooled = sorted(
            latency
            for row in rows
            if row["config"]["preset"] == preset
            for latency in row["result"]["checked"]["detection_latencies"]
        )
        dist = group["detection_latency"]
        assert dist["count"] == len(pooled) > 0
        assert dist["max"] == pooled[-1]
        assert dist["mean"] == pytest.approx(statistics.fmean(pooled))
        assert dist["p50"] <= dist["p90"] <= dist["max"]


def test_text_report_contains_the_three_paper_tables(rows):
    text = render_text(aggregate(rows, source="r.jsonl"))
    assert "Checked-vs-unchecked slowdown" in text
    assert "slot-steal vs fault rate" in text
    assert "Detection-latency distribution" in text
    assert "int-heavy" in text and "branchy" in text
    assert "slowdown_mean" in text


def test_bench_json_is_stable_and_machine_readable(rows, tmp_path):
    aggregated = aggregate(rows, source="r.jsonl")
    path = write_json(aggregated, tmp_path / "BENCH_sweep.json")
    payload = json.loads(path.read_text())
    assert payload == json.loads(json.dumps(aggregated))  # JSON-pure
    assert payload["schema"] == 1
    assert set(payload["tables"]) == {
        "slowdown",
        "slot_steal_vs_fault_rate",
        "detection_latency",
    }
    # Byte-stable: regenerating from the same rows rewrites identically.
    first = path.read_bytes()
    write_json(aggregate(rows, source="r.jsonl"), path)
    assert path.read_bytes() == first


def test_csv_tables_are_written_one_per_table(rows, tmp_path):
    aggregated = aggregate(rows)
    written = write_csv_tables(aggregated, tmp_path / "csv")
    names = sorted(path.name for path in written)
    assert names == ["detection_latency.csv", "slot_steal_vs_fault_rate.csv", "slowdown.csv"]
    slowdown = (tmp_path / "csv" / "slowdown.csv").read_text().splitlines()
    assert slowdown[0].startswith("preset,fault_rate")
    assert len(slowdown) == 1 + aggregated["n_groups"]


def test_aggregate_ignores_malformed_rows(rows):
    noisy = [*rows, {"status": "ok"}, {"status": "ok", "config": {"preset": "x"}}]
    assert aggregate(noisy)["n_groups"] == 2


def test_duplicate_seed_rows_keep_the_latest(rows):
    doctored = json.loads(json.dumps(rows[0]))
    doctored["result"]["slowdown"] = 99.0
    aggregated = aggregate([*rows, doctored])
    preset = doctored["config"]["preset"]
    group = next(
        g for g in aggregated["groups"] if g["config"]["preset"] == preset
    )
    assert group["metrics"]["slowdown"]["max"] == 99.0
    assert group["n_seeds"] == 3  # still three seeds, not four
