"""Sharded runner: window planning, warm-start windows, exactness contract.

The load-bearing claim: ``--shards 1`` is bit-identical to the monolithic
path (gated again, at bench scale, by the ``sharded`` bench config), and
``--shards N`` merges to a complete result whose op accounting reconciles
with the monolithic budget.
"""

import json

import pytest

from repro.cli import main
from repro.simulate import Experiment, run_experiment
from repro.core.core import SuperscalarCore
from repro.core.params import CoreParams
from repro.parallel import plan_shards, run_sharded_experiment
from repro.workloads import PRESETS, generate

BRANCHY = PRESETS["branchy"]


# ------------------------------------------------------------- plan_shards


def test_plan_shards_partitions_the_budget():
    windows = plan_shards(10_001, 4, warmup=2_000)
    assert [w.length for w in windows] == [2501, 2500, 2500, 2500]
    assert windows[0].start == 0
    for prev, curr in zip(windows, windows[1:]):
        assert curr.start == prev.start + prev.length
    assert sum(w.length for w in windows) == 10_001


def test_plan_shards_clips_warmup_to_available_prefix():
    windows = plan_shards(4_000, 4, warmup=2_000)
    assert [w.warmup for w in windows] == [0, 1_000, 2_000, 2_000]
    assert [w.fetch_start for w in windows] == [0, 0, 0, 1_000]


def test_plan_shards_more_shards_than_ops():
    windows = plan_shards(3, 8, warmup=100)
    assert sum(w.length for w in windows) == 3
    assert [w.length for w in windows] == [1, 1, 1, 0, 0, 0, 0, 0]


def test_plan_shards_validates_inputs():
    with pytest.raises(ValueError):
        plan_shards(100, 0, warmup=0)
    with pytest.raises(ValueError):
        plan_shards(100, 2, warmup=-1)
    with pytest.raises(ValueError):
        plan_shards(-5, 2, warmup=0)


# -------------------------------------------------------------- run_window


def test_run_window_zero_warmup_equals_run():
    trace = generate(BRANCHY, 1_500, seed=0)
    params = CoreParams(model_wrong_path=False)
    plain = SuperscalarCore(params).run(trace)
    windowed = SuperscalarCore(params).run_window(trace, warmup_ops=0)
    assert windowed.to_dict() == plain.to_dict()


def test_run_window_measures_only_past_the_boundary():
    trace = generate(BRANCHY, 2_000, seed=0)
    params = CoreParams(model_wrong_path=False)
    stats = SuperscalarCore(params).run_window(trace, warmup_ops=500)
    full = SuperscalarCore(params).run(trace)
    # The boundary is commit-aligned: the warmup loop stops on the first
    # commit batch reaching 500, overshooting by at most commit_width.
    warmup_committed = full.committed - stats.committed
    assert 500 <= warmup_committed <= 500 + params.commit_width
    assert 0 < stats.cycles < full.cycles


# ------------------------------------------------- run_sharded_experiment


def test_shards_1_is_bit_identical_to_monolithic():
    exp = Experiment(BRANCHY, ops=3_000, seed=0, check=True, fault_rate=1e-3)
    mono = run_experiment(exp)
    sharded = run_sharded_experiment(exp, shards=1)
    assert json.dumps(sharded, sort_keys=True) == json.dumps(mono, sort_keys=True)


def test_multi_shard_run_reconciles_the_op_budget():
    result = run_sharded_experiment(
        Experiment(BRANCHY, ops=6_000, seed=0, check=True, fault_rate=0.0),
        shards=3, warmup=500, workers=1
    )
    sharding = result["sharding"]
    assert sharding["shards"] == 3
    assert sharding["retries"] == 0 and sharding["fallbacks"] == 0
    assert [w["start"] for w in sharding["windows"]] == [0, 2_000, 4_000]
    committed = result["unchecked"]["committed"]
    # Each shard's commit-aligned boundary may overshoot its warmup by up
    # to commit_width, shaving that many ops off the measured window.
    overshoot = 3 * CoreParams().commit_width
    assert 6_000 - overshoot <= committed <= 6_000
    assert result["unchecked"]["cycles"] > 0
    assert result["fault_coverage"] == 1.0
    assert "checked" in result and "slowdown" in result


def test_sharded_result_has_run_experiment_shape():
    mono = run_experiment(Experiment(BRANCHY, ops=1_000, seed=1, check=True))
    sharded = run_sharded_experiment(
        Experiment(BRANCHY, ops=1_000, seed=1, check=True),
        shards=2, warmup=100, workers=1
    )
    assert set(sharded) == set(mono) | {"sharding"}
    assert set(sharded["unchecked"]) == set(mono["unchecked"])
    assert set(sharded["checked"]) == set(mono["checked"])
    assert sharded["params"] == mono["params"]


def test_sharded_fault_detection_is_preserved():
    result = run_sharded_experiment(
        Experiment(BRANCHY, ops=8_000, seed=0, check=True, fault_rate=1e-3),
        shards=4, warmup=500, workers=1
    )
    checked = result["checked"]
    assert checked["faults_injected"] > 0
    assert (
        checked["faults_detected"] + checked["faults_squashed"]
        == checked["faults_injected"]
    )
    assert result["fault_coverage"] == 1.0


# ------------------------------------------------------ graceful degradation


def _flaky_execute_shard(fail_first: int = 1):
    """A stand-in for ``_execute_shard`` that fails its first N calls."""
    from repro.parallel import shards as shards_mod

    real = shards_mod._execute_shard
    calls = {"n": 0}

    def flaky(task):
        calls["n"] += 1
        if calls["n"] <= fail_first:
            result = shards_mod._ShardResult(index=task.window.index)
            result.error = "synthetic worker crash"
            return result
        return real(task)

    return flaky


def _run_degraded():
    return run_sharded_experiment(
        Experiment(BRANCHY, ops=1_200, seed=0, check=False),
        shards=2, warmup=100, workers=1
    )


def test_failed_shard_is_retried_and_the_result_is_unchanged(monkeypatch):
    from repro.parallel import shards as shards_mod

    clean = _run_degraded()
    flaky = _flaky_execute_shard(fail_first=1)
    monkeypatch.setattr(shards_mod, "_execute_shard", flaky)
    # Route the retry through the same in-process stand-in instead of a
    # fresh single-worker pool (the production path, minus the fork).
    monkeypatch.setattr(shards_mod, "_retry_shard", lambda task: flaky(task))
    result = _run_degraded()
    assert result["sharding"]["retries"] == 1
    assert result["sharding"]["fallbacks"] == 0
    # Degradation repaired the shard, so the merged stats are exactly the
    # no-failure run's (only wall-clock bookkeeping may differ).
    assert result["unchecked"] == clean["unchecked"]


def test_failed_retry_falls_back_to_in_process_execution(monkeypatch):
    from repro.parallel import shards as shards_mod

    clean = _run_degraded()
    flaky = _flaky_execute_shard(fail_first=1)
    monkeypatch.setattr(shards_mod, "_execute_shard", flaky)

    def broken_retry(task):
        result = shards_mod._ShardResult(index=task.window.index)
        result.error = "retry pool failed — synthetic"
        return result

    monkeypatch.setattr(shards_mod, "_retry_shard", broken_retry)
    result = _run_degraded()
    assert result["sharding"]["retries"] == 1
    assert result["sharding"]["fallbacks"] == 1
    assert result["unchecked"] == clean["unchecked"]


def test_persistent_shard_failure_still_raises(monkeypatch):
    """Degradation never hides a deterministic failure: when the retry and
    the in-process fallback fail too, the run dies loudly as before."""
    from repro.parallel import shards as shards_mod

    def always_broken(task):
        result = shards_mod._ShardResult(index=task.window.index)
        result.error = "synthetic deterministic crash"
        return result

    monkeypatch.setattr(shards_mod, "_execute_shard", always_broken)
    monkeypatch.setattr(shards_mod, "_retry_shard", always_broken)
    with pytest.raises(RuntimeError, match="shard"):
        _run_degraded()


def test_single_shard_runs_skip_the_degradation_pass(monkeypatch):
    """``--shards 1`` must stay bit-identical to the monolithic path, so
    the degradation machinery (and its bookkeeping) never engages."""
    from repro.parallel import shards as shards_mod

    def exploding_retry(task):  # pragma: no cover - must never run
        raise AssertionError("degradation engaged on a single-shard run")

    monkeypatch.setattr(shards_mod, "_retry_shard", exploding_retry)
    result = run_sharded_experiment(Experiment(BRANCHY, ops=1_000, check=False))
    assert "sharding" not in result


# --------------------------------------------------------------------- CLI


def test_cli_sharded_run_reports_sharding(capsys):
    exit_code = main(
        ["run", "--preset", "branchy", "--ops", "2000", "--check",
         "--shards", "2", "--shard-warmup", "200", "--json"]
    )
    assert exit_code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["sharding"]["shards"] == 2
    assert result["sharding"]["warmup_ops"] == 200
    assert len(result["sharding"]["windows"]) == 2


def test_cli_sharded_text_report_mentions_sharding(capsys):
    main(["run", "--preset", "branchy", "--ops", "2000", "--shards", "2"])
    assert "sharding:" in capsys.readouterr().out


def test_cli_rejects_bad_shard_arguments():
    with pytest.raises(SystemExit):
        main(["run", "--shards", "0"])
    with pytest.raises(SystemExit):
        main(["run", "--shards", "2", "--shard-warmup", "-1"])
    with pytest.raises(SystemExit):
        main(["run", "--shards", "2", "--telemetry-interval", "100"])


def test_cli_trace_ops_requires_a_trace_output():
    with pytest.raises(SystemExit):
        main(["run", "--trace-ops", "0:100"])
    with pytest.raises(SystemExit):
        main(["run", "--op-trace-out", "x.jsonl", "--trace-ops", "100:50"])


def test_cli_trace_ops_filters_op_trace(tmp_path, capsys):
    out = tmp_path / "ops.jsonl"
    exit_code = main(
        ["run", "--preset", "int-heavy", "--ops", "1500",
         "--op-trace-out", str(out), "--trace-ops", "200:300"]
    )
    assert exit_code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()][1:]
    assert rows
    assert all(200 <= row["seq"] < 300 for row in rows if not row["wrong_path"])
