"""Trace identity: observability must not perturb the simulation.

For every bench machine shape (the same shapes ``python -m repro bench``
times), a run with the tracer attached and telemetry sampling at an
arbitrary interval must produce a ``CoreStats`` identical *field for
field* to the uninstrumented run — observability reads the machine, it
never schedules it.
"""

import pytest

from repro.simulate import Experiment, run_experiment
from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.core.core import SuperscalarCore
from repro.obs import ObsSession
from repro.obs.tracer import PipelineTracer
from repro.workloads import PRESETS, generate

#: Miniature versions of the bench shapes (see repro.bench.BENCH_CONFIGS):
#: the paper's table-1 machine, a big-core window, the memdep shape, and
#: the checkpointing shape.
SHAPES = {
    "table1": dict(window_size=128, wrong_path_depth=64),
    "big-core": dict(window_size=1024, wrong_path_depth=512),
    "memdep": dict(
        window_size=128,
        wrong_path_depth=64,
        memdep=MemDepParams(enabled=True),
    ),
    "checkpoint": dict(
        window_size=128,
        wrong_path_depth=64,
        recovery=RecoveryParams(checkpoint_interval=64),
    ),
}
PRESET_FOR = {"memdep": "memory-bound"}


def _params(shape: str, telemetry_interval: int = 0) -> CoreParams:
    return CoreParams(
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=1),
        telemetry_interval=telemetry_interval,
        **SHAPES[shape],
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("interval", [64, 777])
def test_traced_run_stats_identical_to_untraced(shape, interval):
    preset = PRESETS[PRESET_FOR.get(shape, "branchy")]
    trace = generate(preset, 3000, seed=0)
    baseline = SuperscalarCore(_params(shape)).run(trace)
    instrumented_core = SuperscalarCore(
        _params(shape, telemetry_interval=interval),
        tracer=PipelineTracer("checked"),
    )
    instrumented = instrumented_core.run(trace)
    assert instrumented.to_dict() == baseline.to_dict()
    assert instrumented_core.telemetry is not None
    assert instrumented_core.telemetry.samples


def test_run_experiment_results_identical_with_and_without_obs(tmp_path):
    exp = Experiment(PRESETS["branchy"], ops=2000, seed=0, check=True, fault_rate=1e-3)
    plain = run_experiment(exp)
    obs = ObsSession(trace_out=tmp_path / "trace.json", telemetry_interval=256)
    observed = run_experiment(exp, obs=obs)
    assert observed["unchecked"] == plain["unchecked"]
    assert observed["checked"] == plain["checked"]
    assert observed["slowdown"] == plain["slowdown"]
    assert observed["fault_coverage"] == plain["fault_coverage"]
    # The observed run's params differ ONLY by the telemetry interval.
    observed_params = dict(observed["params"])
    assert observed_params.pop("telemetry_interval") == 256
    assert observed_params == plain["params"]
    # Both cores reported telemetry and got tracers.
    assert [label for label, _ in obs.telemetries] == ["unchecked", "checked"]
    assert len(obs.tracers) == 2
