"""Injection campaigns: Wilson intervals, determinism, resume, aggregation."""

import json

import pytest

from repro.experiments import (
    CampaignSpec,
    ResultsStore,
    aggregate_campaign,
    execute_campaign_point,
    render_campaign_text,
    run_campaign,
    wilson_interval,
)
from repro.experiments.spec import config_hash

#: Small but real: 1 preset x 2 models, sites guaranteed in 400 ops.
SPEC = CampaignSpec(
    name="campaign-test",
    presets=["int-heavy"],
    fault_models=["address", "checker"],
    trials=6,
    ops=400,
    seed=0,
)


# ----------------------------------------------------------- wilson_interval


def test_wilson_interval_brackets_the_point_estimate():
    lo, hi = wilson_interval(5, 10)
    assert 0.0 < lo < 0.5 < hi < 1.0


def test_wilson_interval_stays_honest_at_the_edges():
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo < 1.0  # never certain from 10 trials
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0.0
    assert wilson_interval(0, 0) == (0.0, 1.0)  # no data: no information


def test_wilson_interval_narrows_with_more_trials():
    narrow = wilson_interval(50, 100)
    wide = wilson_interval(5, 10)
    assert narrow[1] - narrow[0] < wide[1] - wide[0]


def test_wilson_interval_rejects_impossible_counts():
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


# ------------------------------------------------------------- CampaignSpec


def test_spec_validates_axes_and_knobs():
    good = dict(name="x", presets=["int-heavy"], fault_models=["address"])
    CampaignSpec(**good)
    with pytest.raises(ValueError):
        CampaignSpec(**dict(good, presets=["exploded"]))
    with pytest.raises(ValueError):
        CampaignSpec(**dict(good, fault_models=["bit-rot"]))
    with pytest.raises(ValueError):
        CampaignSpec(**dict(good, fault_models=["address", "address"]))
    with pytest.raises(ValueError):
        CampaignSpec(**dict(good, trials=0))
    with pytest.raises(ValueError):
        CampaignSpec(**dict(good, ops=0))


def test_spec_loads_from_toml_and_rejects_unknown_keys(tmp_path):
    spec_file = tmp_path / "c.toml"
    spec_file.write_text(
        '[campaign]\nname = "t"\npresets = ["int-heavy"]\n'
        'fault_models = ["checker"]\ntrials = 3\nops = 200\n'
    )
    spec = CampaignSpec.load(spec_file)
    assert spec.name == "t" and spec.trials == 3
    bad = tmp_path / "bad.toml"
    bad.write_text(
        '[campaign]\nname = "t"\npresets = ["int-heavy"]\n'
        'fault_models = ["checker"]\nbogus = 1\n'
    )
    with pytest.raises(ValueError, match="bogus"):
        CampaignSpec.load(bad)


@pytest.mark.parametrize(
    "knob",
    [{"fault_fu": "BOGUS"}, {"fault_burst": 0}, {"fault_repair_cycles": 0}],
    ids=["fault_fu", "fault_burst", "fault_repair_cycles"],
)
def test_spec_rejects_bad_model_knobs_at_load(knob):
    """A bad knob fails the spec, not every calibration of the campaign."""
    (name,) = knob
    with pytest.raises(ValueError, match=name):
        CampaignSpec(
            name="t", presets=["int-heavy"], fault_models=["stuck-fu"], **knob
        )


def test_trial_configs_are_pure_functions_of_the_spec():
    first = SPEC.trial_config("int-heavy", "address", 3, eligible=97)
    second = SPEC.trial_config("int-heavy", "address", 3, eligible=97)
    assert first == second
    assert 0 <= first["force_fault_index"] < 97
    # Different trials draw different sites/seeds (with high probability —
    # pinned here for these exact inputs).
    other = SPEC.trial_config("int-heavy", "address", 4, eligible=97)
    assert (first["force_fault_index"], first["fault_seed"]) != (
        other["force_fault_index"], other["fault_seed"]
    )


def test_execute_campaign_point_rows_are_deterministic():
    from repro.experiments.runner import ELAPSED_KEY, STARTED_KEY, WORKER_KEY

    config = SPEC.calibration_config("int-heavy", "address")
    first = execute_campaign_point(config)
    second = execute_campaign_point(config)
    for row in (first, second):
        assert row.pop(ELAPSED_KEY) > 0.0
        assert row.pop(STARTED_KEY) > 0.0
        assert row.pop(WORKER_KEY) > 0
    assert first == second
    assert first["status"] == "ok"
    assert first["result"]["eligible"] > 0


# ------------------------------------------------------------- run_campaign


def test_campaign_store_is_byte_identical_across_workers_and_resume(tmp_path):
    serial = ResultsStore(tmp_path / "serial.jsonl")
    summary = run_campaign(SPEC, serial, workers=1)
    cells = len(SPEC.cells())
    assert summary.cells == cells
    assert summary.calibrations == cells
    assert summary.trials_executed == summary.trials_total == cells * SPEC.trials
    assert summary.errors == 0
    parallel = ResultsStore(tmp_path / "parallel.jsonl")
    run_campaign(SPEC, parallel, workers=2)
    assert serial.path.read_bytes() == parallel.path.read_bytes()
    # A completed campaign resumes to a no-op and the store is untouched.
    again = run_campaign(SPEC, serial, workers=1)
    assert again.trials_executed == 0 and again.calibrations == 0
    assert again.cached == cells + cells * SPEC.trials
    assert serial.path.read_bytes() == parallel.path.read_bytes()


def test_interrupted_campaign_resumes_to_the_same_bytes(tmp_path):
    full = ResultsStore(tmp_path / "full.jsonl")
    run_campaign(SPEC, full, workers=1)
    partial = ResultsStore(tmp_path / "partial.jsonl")
    for row in full.rows()[:5]:  # calibrations + a few trials
        partial.append(row)
    summary = run_campaign(SPEC, partial, workers=1)
    assert summary.cached == 5 and summary.trials_executed > 0
    assert partial.path.read_bytes() == full.path.read_bytes()


def test_every_trial_resolves_each_fault_to_exactly_one_outcome(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    run_campaign(SPEC, store, workers=1)
    trial_rows = [
        row for row in store.ok_rows() if row["config"]["kind"] == "trial"
    ]
    assert len(trial_rows) == len(SPEC.cells()) * SPEC.trials
    for row in trial_rows:
        result = row["result"]
        assert result["injected"] >= 1  # the forced site fired
        assert sum(result["outcomes"].values()) == result["injected"]
        assert row["config"]["force_fault_index"] < result["eligible"]


def test_cell_with_no_eligible_sites_is_a_hard_error(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    spec = CampaignSpec(name="empty", presets=["int-heavy"],
                        fault_models=["address"], trials=2, ops=100)
    calib = spec.calibration_config("int-heavy", "address")
    store.append({
        "schema": calib["schema"], "config_hash": config_hash(calib),
        "config": calib, "status": "ok",
        "result": {"eligible": 0, "injected": 0, "outcomes": {},
                   "cycles": 1, "committed": 0, "recoveries": 0},
    })
    with pytest.raises(ValueError, match="no eligible fault sites"):
        run_campaign(spec, store, workers=1)


# -------------------------------------------------------- aggregate + render


def test_address_campaign_measures_coverage_below_one_with_an_interval(tmp_path):
    """The acceptance claim: with silent data-path faults in play the
    checker is no longer a perfect oracle — measured coverage drops below
    100% and the report says how sure it is."""
    store = ResultsStore(tmp_path / "r.jsonl")
    run_campaign(SPEC, store, workers=1)
    report = aggregate_campaign(SPEC, store)
    by_model = {cell["fault_model"]: cell for cell in report["cells"]}
    address = by_model["address"]
    coverage = address["rates"]["coverage"]
    assert coverage["value"] is not None and coverage["value"] < 1.0
    assert 0.0 <= coverage["wilson_lo"] <= coverage["value"]
    assert coverage["value"] <= coverage["wilson_hi"] <= 1.0
    assert address["outcomes"]["sdc"] + address["outcomes"]["masked"] > 0
    sdc = address["rates"]["sdc"]
    assert sdc["wilson_hi"] > sdc["wilson_lo"]
    # Aggregated outcome counts reconcile with the injection totals.
    assert sum(address["outcomes"].values()) == address["injected"]


def test_checker_campaign_with_no_live_faults_renders_na(tmp_path):
    """With a zero primary fault rate every checker-model injection lands
    on a clean op: all false alarms, no live faults, no coverage claim."""
    store = ResultsStore(tmp_path / "r.jsonl")
    run_campaign(SPEC, store, workers=1)
    report = aggregate_campaign(SPEC, store)
    by_model = {cell["fault_model"]: cell for cell in report["cells"]}
    checker = by_model["checker"]
    assert checker["outcomes"]["false_alarm"] == checker["injected"]
    assert checker["rates"]["coverage"]["value"] is None
    text = render_campaign_text(report)
    assert "coverage n/a (no live faults)" in text
    assert "campaign 'campaign-test'" in text


def test_report_is_json_serializable_and_carries_the_interval_fields(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    run_campaign(SPEC, store, workers=1)
    report = aggregate_campaign(SPEC, store)
    blob = json.loads(json.dumps(report))
    assert blob["kind"] == "campaign" and blob["wilson_z"] == 1.96
    for cell in blob["cells"]:
        for rate in cell["rates"].values():
            assert set(rate) == {"value", "n", "wilson_lo", "wilson_hi"}
