"""The ``Experiment`` value: what it validates and what a run records."""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.params import CoreParams
from repro.simulate import Experiment, run_experiment, run_params
from repro.workloads import PRESETS


def test_params_wrong_path_and_predictor_modes_reach_the_result():
    """The params' wrong-path depth, predictor and wrong-path modes are
    what the run records: nothing layers keyword defaults over them."""
    params = CoreParams(
        wrong_path_depth=512, use_real_predictor=True, model_wrong_path=False
    )
    result = run_experiment(Experiment(PRESETS["branchy"], ops=500, params=params))
    assert result["params"]["wrong_path_depth"] == 512
    assert result["params"]["use_real_predictor"] is True
    assert result["params"]["model_wrong_path"] is False
    assert result["wrong_path"] is False


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"ops": -1}, "ops"),
        ({"fault_rate": 1.5}, "fault_rate"),
        ({"fault_rate": -0.1}, "fault_rate"),
        ({"dcache_banks": 0}, "dcache_banks"),
    ],
)
def test_experiment_validates_its_own_fields(overrides, message):
    with pytest.raises(ValueError, match=message):
        Experiment(PRESETS["int-heavy"], **overrides)


def test_run_params_adds_only_the_per_run_fields():
    exp = Experiment(PRESETS["int-heavy"], seed=7, fault_rate=0.25)
    checked = run_params(exp, True)
    assert checked.wrong_path_seed == 7
    assert checked.checker.enabled is True
    assert checked.checker.fault_rate == 0.25
    assert checked.checker.fault_seed == 8  # seed + 1 by default
    assert run_params(replace(exp, fault_seed=99), True).checker.fault_seed == 99
    unchecked = run_params(exp, False)
    assert unchecked.checker.enabled is False
    assert unchecked.checker.fault_rate == 0.0
    # Everything else is the base params, untouched.
    assert replace(checked, wrong_path_seed=0, checker=exp.params.checker) == exp.params


@pytest.mark.parametrize(
    "argv",
    [
        ["--fault-rate", "1.5"],
        ["--ops", "-1"],
        ["--dcache-banks", "0"],
        ["--wrong-path-depth", "0"],
        ["--frontend-depth", "-1"],
        ["--store-alias-fraction", "1.5"],
        ["--telemetry-interval", "-1"],
        ["--checkpoint-overhead", "-1"],
        ["--fault-model", "intermittent", "--fault-burst", "0"],
    ],
)
def test_cli_reports_validation_errors_as_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--ops", "100", *argv])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err
