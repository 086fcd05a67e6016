"""Kernel bench plumbing: the committed reference and bench shapes."""

import json
from pathlib import Path

from repro.bench import BENCH_CONFIGS, _shape_experiment, load_reference

COMMITTED_REFERENCE = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "baseline_prerefactor.json"
)


def test_default_reference_is_found_from_any_directory(tmp_path, monkeypatch):
    """Without an explicit path the stats-identity gate must still load the
    committed reference; a CWD-relative default silently compared nothing."""
    monkeypatch.chdir(tmp_path)
    reference = load_reference()
    assert reference is not None
    assert reference == json.loads(COMMITTED_REFERENCE.read_text(encoding="utf-8"))


def test_memdep_shape_becomes_one_experiment():
    exp = _shape_experiment(BENCH_CONFIGS["memdep"], seed=3, fault_rate=1e-3)
    assert exp.profile.name == "memory-bound"
    assert exp.profile.store_alias_fraction == 0.25
    assert (exp.ops, exp.seed, exp.fault_rate, exp.check) == (60_000, 3, 1e-3, True)
    assert exp.dcache_banks == 4
    assert exp.params.memdep.enabled is True
    assert exp.params.window_size == 128
    assert exp.params.wrong_path_depth == 64
