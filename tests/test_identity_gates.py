"""Identity gates: refactors must not move any simulated byte.

Each digest below was recorded before the run path was unified behind
``repro.simulate.Experiment`` and must stay fixed across refactors:

* the ``examples/paper_table.toml`` sweep store (24 points), whose rows
  also carry every point's config hash, so ``RunPoint.config()`` is pinned
  too;
* the ``examples/campaign_smoke.toml`` store, at one and two workers;
* the stdout of ``run --ops 3000 --check <mix> --json`` for five knob
  mixes covering memdep/banks/alias/decay, checkpoints, the real
  predictor with a shallow wrong path and a deep front end, an
  intermittent fault model without wrong paths, and ``--shards 1``.

A digest that moves means simulated results changed: that needs its own
change with the reason stated, not a refactor.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import CampaignSpec, ResultsStore, SweepSpec, run_campaign, run_sweep

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

PAPER_TABLE_STORE_SHA = "0854b5eadc6e19cf3328ff53f995b560bd8da695e0468b7fda1a06814471dc30"
CAMPAIGN_SMOKE_STORE_SHA = "224f12aa02d90749e8f7f77ddacaf516fab947dc25a9bf84cbf00d9b04a9af40"

#: ``run --ops 3000 --check <mix> --json`` -> first 16 hex digits of the
#: sha256 of its stdout.
RUN_JSON_DIGESTS = {
    "--preset memory-bound --memdep --dcache-banks 4 --store-alias-fraction 0.25 "
    "--ssit-decay-cycles 500": "161eb5a3beca4a86",
    "--preset branchy --checkpoint-interval 64 --fault-rate 1e-3": "3bf814d3295e6012",
    "--preset branchy --real-predictor --wrong-path-depth 16 --frontend-depth 2":
        "0e4efac1de5a7b3c",
    "--preset int-heavy --no-wrong-path --fault-model intermittent --fault-rate 1e-3":
        "c1db774bd863d61d",
    "--preset branchy --shards 1": "d1efb7c26ba621de",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_paper_table_sweep_store_is_byte_identical(tmp_path):
    store = ResultsStore(tmp_path / "paper_table.jsonl")
    summary = run_sweep(SweepSpec.load(EXAMPLES / "paper_table.toml"), store, workers=2)
    assert summary.errors == 0
    assert _sha256(store.path) == PAPER_TABLE_STORE_SHA


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_smoke_store_is_byte_identical(tmp_path, workers):
    store = ResultsStore(tmp_path / "campaign.jsonl")
    spec = CampaignSpec.load(EXAMPLES / "campaign_smoke.toml")
    summary = run_campaign(spec, store, workers=workers)
    assert summary.errors == 0
    assert _sha256(store.path) == CAMPAIGN_SMOKE_STORE_SHA


@pytest.mark.parametrize("mix", list(RUN_JSON_DIGESTS))
def test_run_json_output_is_byte_identical(mix, capsys):
    assert main(["run", "--ops", "3000", "--check", *mix.split(), "--json"]) == 0
    stdout = capsys.readouterr().out
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]
    assert digest == RUN_JSON_DIGESTS[mix]
