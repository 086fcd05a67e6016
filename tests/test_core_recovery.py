"""Recovery subsystem: params plumbing, checkpointing policy, counters."""

import pytest

from repro.core import CheckerParams, CoreParams, RecoveryParams, SuperscalarCore
from repro.core.params import MemDepParams
from repro.workloads import PRESETS, WrongPathGenerator, generate

from dataclasses import replace


# ------------------------------------------------------------------- params


def test_recovery_params_validate():
    with pytest.raises(ValueError):
        RecoveryParams(checkpoint_interval=-1)
    with pytest.raises(ValueError):
        RecoveryParams(checkpoint_overhead=-1)
    with pytest.raises(ValueError):
        RecoveryParams(max_live_checkpoints=0)
    with pytest.raises(ValueError):
        RecoveryParams(restore_penalty=-1)


def test_recovery_params_roundtrip_and_unknown_keys():
    params = RecoveryParams(
        checkpoint_interval=32, checkpoint_overhead=3,
        max_live_checkpoints=4, restore_penalty=5,
    )
    assert RecoveryParams.from_dict(params.to_dict()) == params
    with pytest.raises(ValueError):
        RecoveryParams.from_dict({"checkpoint_interval": 1, "bogus": 2})


def test_core_params_omit_recovery_at_default():
    # Golden safety: the default (flat-penalty) config serializes without
    # any recovery key, so legacy dicts and config hashes are unchanged.
    assert "recovery" not in CoreParams().to_dict()
    data = CoreParams(recovery=RecoveryParams(checkpoint_interval=64)).to_dict()
    assert data["recovery"]["checkpoint_interval"] == 64
    rebuilt = CoreParams.from_dict(data)
    assert rebuilt.recovery.checkpoint_interval == 64


# -------------------------------------------------------------- checkpointing


def _run(interval=0, overhead=1, max_live=8, fault_rate=5e-3, seed=0,
         ops=2_000, preset="int-heavy", **core_kwargs):
    profile = PRESETS[preset]
    trace = generate(profile, ops, seed=seed)
    params = CoreParams(
        recovery=RecoveryParams(
            checkpoint_interval=interval,
            checkpoint_overhead=overhead,
            max_live_checkpoints=max_live,
        ),
        checker=CheckerParams(enabled=True, fault_rate=fault_rate, fault_seed=seed + 1),
        **core_kwargs,
    )
    core = SuperscalarCore(
        params, wrong_path_source=WrongPathGenerator(profile, seed=seed).iter_stream
    )
    return core, core.run(trace)


def test_checkpoints_taken_matches_the_commit_interval():
    core, stats = _run(interval=64, ops=2_000)
    assert stats.committed == 2_000
    # Commits arrive at most commit_width (< interval) per cycle, so each
    # crossed boundary takes exactly one checkpoint.
    assert stats.checkpoints_taken == 2_000 // 64
    assert stats.checkpointing_enabled


def test_checkpoint_overhead_is_charged_per_checkpoint():
    _, cheap = _run(interval=128, overhead=0)
    assert cheap.checkpoint_overhead_cycles == 0
    _, costly = _run(interval=128, overhead=3)
    assert costly.checkpoints_taken > 0
    assert costly.checkpoint_overhead_cycles == 3 * costly.checkpoints_taken
    # Overhead stalls the front end: the run gets slower, never faster.
    assert costly.cycles >= cheap.cycles


def test_rollback_histogram_is_consistent_with_the_recovery_count():
    _, stats = _run(interval=16, fault_rate=1e-2)
    assert stats.recoveries > 0
    assert sum(stats.rollback_distance_hist.values()) == stats.recoveries
    assert stats.rollback_distance_max <= stats.committed
    assert stats.mean_rollback_distance == (
        stats.rollback_distance_sum / stats.recoveries
    )
    # With checkpoints every 16 commits, no rollback replays the whole run.
    assert stats.mean_recovery_stall < stats.cycles


def test_live_checkpoints_stay_bounded():
    core, stats = _run(interval=8, max_live=3, ops=1_000)
    assert stats.checkpoints_taken > 3
    assert core._recovery.live_checkpoints <= 3


def test_per_cause_counters_partition_every_squash():
    profile = replace(PRESETS["memory-bound"], store_alias_fraction=0.6)
    trace = generate(profile, 3_000, seed=7)
    params = CoreParams(
        recovery=RecoveryParams(checkpoint_interval=64),
        memdep=MemDepParams(enabled=True, lsq_size=8),
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=5),
    )
    core = SuperscalarCore(
        params, wrong_path_source=WrongPathGenerator(profile, seed=7).iter_stream
    )
    stats = core.run(trace)
    by_cause = stats.recoveries_by_cause
    assert by_cause["checker_fault"] == stats.recoveries > 0
    assert by_cause["mem_order_violation"] == stats.mem_order_violations > 0
    assert by_cause["branch_mispredict"] > 0
    # Every squashed op (correct-path and wrong-path) lands in exactly one
    # cause bucket.
    assert sum(stats.squashed_by_cause.values()) == (
        stats.squashed + stats.wrong_path_squashed
    )


def test_flat_recovery_emits_no_checkpoint_stats():
    _, stats = _run(interval=0)
    data = stats.to_dict()
    assert "checkpoints_taken" not in data
    assert "recoveries_by_cause" not in data
    assert not stats.checkpointing_enabled
    _, on = _run(interval=64)
    data_on = on.to_dict()
    assert data_on["checkpoints_taken"] == on.checkpoints_taken
    assert set(data_on["recoveries_by_cause"]) == {
        "branch_mispredict", "checker_fault", "mem_order_violation",
    }


def test_denser_checkpoints_cut_recovery_stall_and_raise_overhead():
    """The tradeoff curve ``examples/checkpoint_study.toml`` reproduces:
    shrinking the interval shortens rollbacks monotonically while
    checkpoint-creation overhead grows."""
    intervals = [16, 64, 256, 1024]
    stalls, overheads = [], []
    for interval in intervals:
        totals = [0.0, 0.0, 0]
        for seed in (0, 1, 2):
            _, stats = _run(
                interval=interval, overhead=2, fault_rate=5e-3, seed=seed, ops=4_000
            )
            assert stats.recoveries > 0
            totals[0] += stats.recovery_stall_cycles
            totals[1] += stats.checkpoint_overhead_cycles
            totals[2] += stats.recoveries
        stalls.append(totals[0] / totals[2])
        overheads.append(totals[1])
    assert stalls == sorted(stalls), (intervals, stalls)
    assert overheads == sorted(overheads, reverse=True), (intervals, overheads)


def test_checkpoint_study_spec_loads_and_expands():
    from repro.experiments import SweepSpec

    spec = SweepSpec.load("examples/checkpoint_study.toml")
    points = spec.points()
    assert len(points) == 12  # 4 intervals x 3 seeds
    assert sorted({p.checkpoint_interval for p in points}) == [16, 64, 256, 1024]
    for point in points:
        assert point.config()["checkpoint_interval"] == point.checkpoint_interval
        assert point.experiment().params.recovery.checkpoint_interval == (
            point.checkpoint_interval
        )


def test_checkpoint_interval_zero_points_keep_their_legacy_hash():
    from repro.experiments import RunPoint

    kwargs = dict(
        preset="int-heavy", seed=0, ops=100, fault_rate=1e-4, issue_width=8,
        slot_policy="opportunistic", reserved_slots=2, wrong_path=True,
        wrong_path_depth=64, real_predictor=False, fu_counts=None,
    )
    legacy = RunPoint(**kwargs)
    assert "checkpoint_interval" not in legacy.config()
    # The overhead knob is inert at interval 0 and must not split hashes.
    assert (
        RunPoint(**kwargs, checkpoint_interval=0, checkpoint_overhead=7).config_hash()
        == legacy.config_hash()
    )
    assert (
        RunPoint(**kwargs, checkpoint_interval=32).config_hash()
        != legacy.config_hash()
    )
