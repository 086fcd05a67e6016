"""The core's cycle loop: its deadlock, telemetry and warm-up exits."""

import pytest

from repro.core.core import SuperscalarCore
from repro.core.params import CoreParams
from repro.core.sched import DeadlockError
from repro.workloads import PRESETS, generate

TRACE = generate(PRESETS["memory-bound"], 2_000, seed=0)


def test_deadlock_with_telemetry_carries_the_flight_recorder():
    core = SuperscalarCore(CoreParams(telemetry_interval=50))
    with pytest.raises(DeadlockError) as info:
        core.run(TRACE, max_cycles=500)
    message = str(info.value)
    assert "simulation exceeded 500 cycles" in message
    assert "flight recorder (last" in message
    assert info.value.samples
    assert all(row["cycle"] <= 501 for row in info.value.samples)


def test_deadlock_without_telemetry_has_no_samples():
    with pytest.raises(DeadlockError) as info:
        SuperscalarCore().run(TRACE, max_cycles=500)
    assert "flight recorder" not in str(info.value)
    assert not info.value.samples


def test_warmup_that_exceeds_max_cycles_is_a_deadlock():
    core = SuperscalarCore()
    with pytest.raises(DeadlockError, match="simulation exceeded 300 cycles"):
        core.run_window(TRACE, warmup_ops=1_500, max_cycles=300)
    assert core.stats.committed < 1_500  # stopped inside the warm-up


def test_warm_start_window_rejects_telemetry():
    core = SuperscalarCore(CoreParams(telemetry_interval=100))
    with pytest.raises(ValueError, match="warm-start"):
        core.run_window(TRACE, warmup_ops=100)
