"""SweepSpec: loading, grid expansion, hashing, validation."""

import json

import pytest

from repro.experiments import RunPoint, SweepSpec, config_hash

TOML_SPEC = """
[sweep]
name = "demo"
ops = 500
presets = ["int-heavy", "branchy"]
seeds = [0, 1, 2]
fault_rates = [1e-4, 1e-3]
slot_policies = ["opportunistic", "reserved"]
reserved_slots = 2

[[sweep.fu_variants]]
IALU = 8
IMUL = 2
FALU = 2
FMUL = 2

[[sweep.fu_variants]]
IALU = 4
IMUL = 1
FALU = 1
FMUL = 1
"""


def test_toml_spec_expands_full_cartesian_grid(tmp_path):
    path = tmp_path / "demo.toml"
    path.write_text(TOML_SPEC)
    spec = SweepSpec.load(path)
    points = spec.points()
    # 2 presets x 2 fault rates x 2 policies x 2 fu variants x 3 seeds
    assert len(points) == 48
    assert spec.num_points() == 48
    # Seeds innermost: one config's seeds are adjacent, in spec order.
    assert [p.seed for p in points[:3]] == [0, 1, 2]
    assert len({p.config_hash() for p in points}) == 48


def test_json_spec_loads_flat_or_nested(tmp_path):
    flat = {"name": "j", "presets": ["int-heavy"], "seeds": [0], "ops": 100}
    nested = {"sweep": flat}
    for i, document in enumerate((flat, nested)):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(document))
        spec = SweepSpec.load(path)
        assert spec.name == "j"
        assert spec.num_points() == 1


def test_config_hash_is_stable_and_seed_sensitive():
    spec = SweepSpec(name="s", presets=["int-heavy"], seeds=[0, 1], ops=100)
    a, b = spec.points()
    assert a.config_hash() == a.config_hash()
    assert a.config_hash() != b.config_hash()
    # The group key ignores the seed: both seeds aggregate together.
    assert a.group_hash() == b.group_hash()
    assert "seed" not in a.group_config()


def test_fu_variant_key_order_does_not_change_the_hash():
    counts = {"IALU": 4, "IMUL": 1, "FALU": 1, "FMUL": 1}
    reordered = dict(reversed(list(counts.items())))
    def make(variant):
        return SweepSpec(
            name="s", presets=["int-heavy"], seeds=[0], ops=100, fu_variants=[variant]
        ).points()[0]

    assert make(counts).config_hash() == make(reordered).config_hash()


def test_point_roundtrips_through_its_config():
    spec = SweepSpec(
        name="s",
        presets=["branchy"],
        seeds=[5],
        ops=200,
        slot_policies=["reserved"],
        reserved_slots=3,
        fu_variants=[{"IALU": 4, "IMUL": 1, "FALU": 1, "FMUL": 1}],
    )
    point = spec.points()[0]
    rebuilt = RunPoint.from_config(point.config())
    assert rebuilt == point
    assert rebuilt.fu_label() == "falu1-fmul1-ialu4-imul1"
    params = rebuilt.experiment().params
    assert params.issue_width == 8
    assert params.checker.slot_policy == "reserved"
    assert params.checker.reserved_slots == 3


def test_from_config_rejects_bad_schema_and_keys():
    point = SweepSpec(name="s", presets=["int-heavy"], seeds=[0], ops=10).points()[0]
    config = point.config()
    with pytest.raises(ValueError, match="schema"):
        RunPoint.from_config({**config, "schema": 999})
    with pytest.raises(ValueError, match="unknown config keys"):
        RunPoint.from_config({**config, "surprise": 1})
    missing = dict(config)
    del missing["fault_rate"]
    with pytest.raises(ValueError, match="missing config keys"):
        RunPoint.from_config(missing)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"presets": []}, "at least one value"),
        ({"presets": ["nope"]}, "unknown preset"),
        ({"seeds": [0, 0]}, "duplicate"),
        ({"slot_policies": ["greedy"]}, "slot_policy"),
        ({"fault_rates": [2.0]}, "fault_rate"),
        ({"fu_variants": [{"IALU": 8}]}, "every class"),
        ({"fu_variants": [{"IALU": 8, "IMUL": 2, "FALU": 2, "FMUL": 2, "VEC": 1}]},
         "unknown FU classes"),
        ({"slot_policies": ["reserved"], "reserved_slots": 8}, "reserved_slots"),
    ],
)
def test_invalid_specs_fail_loudly(overrides, message):
    base = dict(name="bad", presets=["int-heavy"], seeds=[0], ops=10)
    base.update(overrides)
    with pytest.raises(ValueError, match=message):
        SweepSpec(**base).points()


def test_unknown_spec_keys_are_rejected():
    with pytest.raises(ValueError, match="unknown sweep keys"):
        SweepSpec.from_dict({"name": "x", "presets": ["int-heavy"], "seeds": [0], "opz": 5})


def test_config_hash_ignores_dict_ordering():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


def test_inert_knobs_do_not_change_the_cache_identity():
    def point(**overrides):
        base = dict(name="s", presets=["int-heavy"], seeds=[0], ops=100)
        base.update(overrides)
        return SweepSpec(**base).points()[0]

    # reserved_slots is ignored under the opportunistic policy...
    assert (
        point(reserved_slots=2).config_hash() == point(reserved_slots=5).config_hash()
    )
    # ...but is identity under the reserved policy.
    assert (
        point(slot_policies=["reserved"], reserved_slots=2).config_hash()
        != point(slot_policies=["reserved"], reserved_slots=5).config_hash()
    )
    # wrong_path_depth is ignored when wrong-path modelling is off.
    assert (
        point(wrong_path=[False], wrong_path_depths=[16]).config_hash()
        == point(wrong_path=[False], wrong_path_depths=[64]).config_hash()
    )
    assert (
        point(wrong_path=[True], wrong_path_depths=[16]).config_hash()
        != point(wrong_path=[True], wrong_path_depths=[64]).config_hash()
    )


def test_point_constraints_surface_at_spec_construction():
    # Cross-axis mistakes fail at load time, not mid-sweep: reserved
    # policy whose reservation swallows the whole (narrow) issue stage.
    with pytest.raises(ValueError, match="reserved_slots"):
        SweepSpec(
            name="s",
            presets=["int-heavy"],
            seeds=[0],
            ops=10,
            issue_widths=[2],
            slot_policies=["reserved"],
            reserved_slots=2,
        )


def test_scalar_axis_values_are_a_clean_error():
    with pytest.raises(ValueError, match="must be a list"):
        SweepSpec(name="s", presets=["int-heavy"], seeds=3, ops=10)
    with pytest.raises(ValueError, match="must be a list"):
        SweepSpec(name="s", presets=["int-heavy"], seeds=[0], ops=10, wrong_path=False)


# ------------------------------------------------------------ memdep knobs


def test_default_points_emit_no_memdep_keys_and_legacy_configs_load():
    point = SweepSpec(name="s", presets=["int-heavy"], seeds=[0], ops=100).points()[0]
    config = point.config()
    # Hash stability: configs stored before the memdep axes existed must
    # keep their hashes, so defaults stay invisible in the config dict...
    assert "memdep" not in config
    assert "dcache_banks" not in config
    assert "store_alias_fraction" not in config
    # ...and a legacy row (no memdep keys) round-trips to the same config.
    rebuilt = RunPoint.from_config(config)
    assert rebuilt.config_hash() == point.config_hash()
    assert rebuilt.memdep is False
    assert rebuilt.dcache_banks == 1
    assert rebuilt.store_alias_fraction == 0.0


def test_memdep_point_roundtrips_and_changes_the_hash():
    def point(**overrides):
        base = dict(name="s", presets=["memory-bound"], seeds=[0], ops=100)
        base.update(overrides)
        return SweepSpec(**base).points()[0]

    base = point()
    memdep = point(memdep=[True], dcache_banks=[4], store_alias_fraction=0.3)
    assert memdep.config()["memdep"] is True
    assert memdep.config()["dcache_banks"] == 4
    assert memdep.config()["store_alias_fraction"] == 0.3
    assert memdep.config_hash() != base.config_hash()
    rebuilt = RunPoint.from_config(memdep.config())
    assert rebuilt.config_hash() == memdep.config_hash()
    assert (rebuilt.memdep, rebuilt.dcache_banks, rebuilt.store_alias_fraction) == (
        True,
        4,
        0.3,
    )
    assert rebuilt.experiment().params.memdep.enabled is True


def test_memdep_axis_expands_the_grid():
    spec = SweepSpec(
        name="s",
        presets=["memory-bound"],
        seeds=[0, 1],
        ops=100,
        memdep=[False, True],
        dcache_banks=[1, 4],
    )
    points = spec.points()
    assert len(points) == 8  # 2 memdep x 2 banks x 2 seeds
    assert len({p.config_hash() for p in points}) == 8


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dcache_banks": [0]}, "dcache_banks"),
        ({"store_alias_fraction": 1.5}, "store_alias_fraction"),
    ],
)
def test_memdep_knob_validation(overrides, message):
    base = dict(name="bad", presets=["memory-bound"], seeds=[0], ops=10)
    base.update(overrides)
    with pytest.raises(ValueError, match=message):
        SweepSpec(**base).points()


# ------------------------------------------------------------- fault models


def test_fault_model_axis_expands_and_roundtrips():
    spec = SweepSpec(
        name="s",
        presets=["int-heavy"],
        seeds=[0, 1],
        ops=100,
        fault_models=["transient", "checker"],
    )
    points = spec.points()
    assert len(points) == 4
    assert sorted({p.fault_model for p in points}) == ["checker", "transient"]
    checker_point = next(p for p in points if p.fault_model == "checker")
    config = checker_point.config()
    assert config["fault_model"] == "checker"
    rebuilt = RunPoint.from_config(config)
    assert rebuilt.config_hash() == checker_point.config_hash()
    assert rebuilt.experiment().params.checker.fault_model == "checker"


def test_default_points_emit_no_fault_model_key():
    point = SweepSpec(name="s", presets=["int-heavy"], seeds=[0], ops=100).points()[0]
    config = point.config()
    assert "fault_model" not in config
    rebuilt = RunPoint.from_config(config)
    assert rebuilt.fault_model == "transient"
    assert rebuilt.config_hash() == point.config_hash()


def test_unknown_fault_model_is_rejected():
    with pytest.raises(ValueError, match="fault_model"):
        SweepSpec(
            name="s", presets=["int-heavy"], seeds=[0], ops=100,
            fault_models=["bit-rot"],
        ).points()[0].config()
