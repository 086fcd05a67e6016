"""Golden equivalence: the event-driven kernel reproduces the scan core.

``tests/golden/corestats_golden.json`` pins the complete ``CoreStats``
dictionaries (unchecked and checked, plus slowdown and coverage) that the
*pre-kernel* window-rescan core produced at commit fe5791d for every
preset x seed x slot-policy cell.  The kernel refactor claims to be a pure
restructuring of the per-cycle scans; these tests hold it to that claim
counter by counter — commit cycles, IPC, fault detection and latency,
slot accounting, wrong-path volume, and the memory-system snapshot.
"""

import json
from pathlib import Path

import pytest

from repro.simulate import Experiment, run_experiment
from repro.core.params import CheckerParams, CoreParams
from repro.workloads import PRESETS

GOLDEN_PATH = Path(__file__).parent / "golden" / "corestats_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Fixture shape: 4 presets x 3 seeds x 2 slot policies.
assert len(GOLDEN) == 24


def _case_id(row: dict) -> str:
    return f"{row['preset']}-s{row['seed']}-{row['slot_policy']}"


@pytest.mark.parametrize("row", GOLDEN, ids=_case_id)
def test_kernel_core_matches_pinned_prerefactor_stats(row):
    params = CoreParams(
        checker=CheckerParams(slot_policy=row["slot_policy"], reserved_slots=2)
    )
    result = run_experiment(
        Experiment(
            PRESETS[row["preset"]],
            ops=3000,
            seed=row["seed"],
            check=True,
            fault_rate=1e-3,
            params=params,
        )
    )
    assert result["unchecked"] == row["unchecked"]
    assert result["checked"] == row["checked"]
    assert result["slowdown"] == row["slowdown"]
    assert result["fault_coverage"] == row["fault_coverage"]


def test_golden_fixture_covers_every_preset_seed_and_policy():
    cells = {(row["preset"], row["seed"], row["slot_policy"]) for row in GOLDEN}
    assert cells == {
        (preset, seed, policy)
        for preset in PRESETS
        for seed in (0, 1, 2)
        for policy in ("opportunistic", "reserved")
    }
