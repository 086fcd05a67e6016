"""Statistical fault-injection campaigns.

A *campaign* measures what a sweep cannot: the checker's actual
detection coverage under fault models that are not detected by
construction.  For each ``(preset, fault model)`` cell it runs

1. one **calibration** run — fault rate 0, no forced fault — whose only
   job is to count the model's *eligible* fault sites along the
   (deterministic) simulation schedule; then
2. ``trials`` randomized **single-fault** runs, each forcing the
   injection at one eligible site chosen uniformly by index, with an
   independent per-trial model seed.

Because the trigger is an *index* into the eligibility stream rather
than an RNG draw, the site choice is a pure function of
``(campaign seed, preset, model, trial)`` — workers share no state and
rows land in a :class:`~repro.experiments.store.ResultsStore` in
submission order, so the store is byte-identical for any ``--workers``
value and across interrupted/resumed invocations, exactly like sweeps.

Each trial resolves every injected fault to one
:class:`~repro.faults.outcomes.FaultOutcome`; the campaign report
aggregates the per-cell outcome counts into coverage / SDC / masking
rates with Wilson score confidence intervals (the standard interval for
binomial proportions at small n) and writes them to
``BENCH_campaign.json``.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.runner import (
    ProgressFn,
    ordered_rows,
    pending_configs,
    point_row,
    strip_transport,
)
from repro.experiments.spec import SCHEMA_VERSION, config_hash, load_spec, spec_from_dict
from repro.experiments.store import ResultsStore

#: z for the 95% Wilson score interval.
WILSON_Z = 1.96

#: Default report output path for ``python -m repro campaign``.
DEFAULT_CAMPAIGN_JSON = "BENCH_campaign.json"

#: Default results-store path for campaigns (kept separate from sweep
#: stores: the row shapes differ).
DEFAULT_CAMPAIGN_STORE = "campaign_results.jsonl"


def wilson_interval(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because campaign cells are
    small (tens of trials): it never leaves [0, 1] and stays honest at
    p near 0 or 1 — exactly where coverage and SDC rates live.
    """
    if successes < 0 or n < successes:
        raise ValueError(f"need 0 <= successes <= n, got {successes}/{n}")
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(slots=True)
class CampaignSpec:
    """One campaign: cells = presets x fault models, ``trials`` each.

    Loadable from TOML/JSON (top-level ``[campaign]`` table or flat
    document), mirroring :class:`~repro.experiments.spec.SweepSpec`.
    The model knobs (``fault_burst``, ``fault_fu``,
    ``fault_repair_cycles``) are scalars applied to every cell whose
    model reads them.
    """

    name: str
    presets: list[str]
    fault_models: list[str]
    trials: int = 50
    seed: int = 0
    ops: int = 20_000
    timeout_s: float | None = None
    fault_burst: int = 4
    fault_fu: str = "IALU"
    fault_repair_cycles: int = 200

    def __post_init__(self) -> None:
        from repro.core.params import CheckerParams
        from repro.workloads import PRESET_NAMES

        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.ops <= 0:
            raise ValueError(f"ops must be positive, got {self.ops}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        for axis in ("presets", "fault_models"):
            values = getattr(self, axis)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{axis} must be a non-empty list, got {values!r}")
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} contains duplicate values")
        for preset_name in self.presets:
            if preset_name not in PRESET_NAMES:
                raise ValueError(
                    f"unknown preset {preset_name!r}; choose from {list(PRESET_NAMES)}"
                )
        # Every cell's checker is built from these knobs, so the checker's
        # own validation rejects a bad model or knob here, at load time,
        # instead of turning every calibration into an error row.
        for model in self.fault_models:
            CheckerParams(
                fault_model=model,
                fault_burst=self.fault_burst,
                fault_fu=self.fault_fu,
                fault_repair_cycles=self.fault_repair_cycles,
            )

    def cells(self) -> list[tuple[str, str]]:
        """(preset, model) pairs in spec order — the campaign's grid."""
        return [(p, m) for p in self.presets for m in self.fault_models]

    def _model_knobs(self, config: dict[str, Any]) -> None:
        """Off-default model knobs, mirroring ``CheckerParams.to_dict``."""
        if self.fault_burst != 4:
            config["fault_burst"] = self.fault_burst
        if self.fault_fu != "IALU":
            config["fault_fu"] = self.fault_fu
        if self.fault_repair_cycles != 200:
            config["fault_repair_cycles"] = self.fault_repair_cycles

    def calibration_config(self, preset: str, model: str) -> dict[str, Any]:
        """The rate-0 run that counts the cell's eligible fault sites."""
        config: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "kind": "calibration",
            "preset": preset,
            "seed": self.seed,
            "ops": self.ops,
            "fault_model": model,
        }
        self._model_knobs(config)
        return config

    def trial_config(
        self, preset: str, model: str, trial: int, eligible: int
    ) -> dict[str, Any]:
        """One single-fault trial, derived purely from (spec, eligible).

        ``random.Random`` with a string seed hashes it (SHA-512), so the
        site index and per-trial model seed are identical in every
        process — the property that keeps campaign stores byte-identical
        across worker counts.
        """
        rng = random.Random(f"{self.seed}:{preset}:{model}:{trial}")
        config = self.calibration_config(preset, model)
        config["kind"] = "trial"
        config["trial"] = trial
        config["force_fault_index"] = rng.randrange(eligible)
        config["fault_seed"] = rng.randrange(2**31)
        return config

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        return spec_from_dict(cls, data, "campaign")

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        return load_spec(cls, path, "campaign")


def execute_campaign_point(
    config: dict[str, Any], timeout_s: float | None = None
) -> dict[str, Any]:
    """Run one calibration or trial into a row (see ``runner.point_row``)."""
    return point_row(config, _simulate_campaign_point, timeout_s)


#: Campaign config keys that are :class:`CheckerParams` fields, carried
#: onto the checked core only when the config holds them.
_CHECKER_KEYS = (
    "fault_model",
    "fault_burst",
    "fault_fu",
    "fault_repair_cycles",
    "force_fault_index",
)


@functools.lru_cache(maxsize=1)
def _campaign_trace(preset_name: str, ops: int, seed: int) -> tuple:
    """The cell's trace, kept for the next point of the same preset.

    Points are submitted cell by cell and every fault model of a preset
    simulates the same trace, so this one-entry, per-process memo makes a
    worker generate each preset's trace about once per phase while the
    dispatch unit stays one point.  A tuple, because every trial shares it.
    ``workloads.generate`` is looked up at call time, so a wrapper
    installed on that module attribute sees every generation.
    """
    import repro.workloads as workloads

    return tuple(workloads.generate(workloads.preset(preset_name), ops, seed=seed))


def _simulate_campaign_point(config: dict[str, Any]) -> dict[str, Any]:
    """Simulate one checked core under the configured fault model.

    Campaigns run the checked core only: the unchecked baseline tells us
    nothing about outcomes, and skipping it halves the per-trial cost.
    Imports are deferred so spawn-method pool workers pay them here.
    """
    import repro.workloads as workloads
    from repro.core.params import CheckerParams, CoreParams
    from repro.faults.outcomes import zero_outcomes
    from repro.simulate import Experiment, build_core

    checker = CheckerParams(**{key: config[key] for key in _CHECKER_KEYS if key in config})
    exp = Experiment(
        workloads.preset(config["preset"]),
        ops=config["ops"],
        seed=config["seed"],
        fault_rate=0.0,
        fault_seed=config.get("fault_seed"),
        params=CoreParams(checker=checker),
    )
    trace = _campaign_trace(config["preset"], exp.ops, exp.seed)
    core = build_core(exp, checked=True)
    stats = core.run(trace)
    if stats.fault_model_enabled:
        outcomes = dict(stats.fault_outcomes)
    else:
        # The transient model carries no outcome tracker (the default
        # path must stay byte-identical); its taxonomy is derivable —
        # detection is by construction, so nothing masks or corrupts.
        outcomes = zero_outcomes()
        outcomes["detected"] = stats.faults_detected
        outcomes["squashed"] = stats.faults_squashed
    return {
        "result": {
            "eligible": core.fault_injector.eligible,
            "injected": stats.faults_injected,
            "outcomes": outcomes,
            "cycles": stats.cycles,
            "committed": stats.committed,
            "recoveries": stats.recoveries,
        }
    }


@dataclass(slots=True)
class CampaignSummary:
    """What one ``run_campaign`` invocation did."""

    cells: int  #: (preset, model) cells in the campaign
    calibrations: int  #: calibration runs executed this invocation
    trials_total: int  #: trials in the full campaign
    trials_executed: int  #: trials actually simulated this invocation
    cached: int  #: calibration+trial points already in the store
    errors: int  #: executed points that produced error rows
    wall_seconds: float = 0.0

    def to_dict(self) -> dict[str, int | float]:
        return {
            "cells": self.cells,
            "calibrations": self.calibrations,
            "trials_total": self.trials_total,
            "trials_executed": self.trials_executed,
            "cached": self.cached,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
        }


def _run_pending(
    configs: list[dict[str, Any]],
    store: ResultsStore,
    workers: int,
    timeout_s: float | None,
    progress: ProgressFn | None,
    counters: dict[str, int],
) -> None:
    """Execute the configs whose hashes the store does not yet cover."""
    pending, cached = pending_configs(configs, store)
    counters["cached"] += cached
    # execute_campaign_point is looked up at call time, so a wrapper
    # installed on this module attribute sees every point.
    for row in ordered_rows(execute_campaign_point, pending, workers, timeout_s):
        strip_transport(row)
        store.append(row)
        counters["executed"] += 1
        if row.get("status") != "ok":
            counters["errors"] += 1
        if progress is not None:
            progress(counters["executed"], len(pending), row)


def _ok_rows_by_hash(store: ResultsStore) -> dict[str, dict[str, Any]]:
    return {
        row["config_hash"]: row
        for row in store.ok_rows()
        if "config_hash" in row
    }


def run_campaign(
    spec: CampaignSpec,
    store: ResultsStore,
    workers: int = 1,
    progress: ProgressFn | None = None,
    timeout_s: float | None = None,
) -> CampaignSummary:
    """Run (or resume) every cell of ``spec`` into ``store``.

    Two phases, each fanned out with ordered ``imap``: calibrations
    first (trial configs depend on their eligible counts), then all
    trials.  Both phases skip points the store already covers, so an
    interrupted campaign resumes where it stopped and a completed one is
    a no-op.

    Raises:
        ValueError: if a calibration finds no eligible fault sites — the
            cell cannot host a forced injection; lengthen the trace or
            drop the model for this preset.
    """
    if timeout_s is None:
        timeout_s = spec.timeout_s
    started = time.perf_counter()
    counters = {"cached": 0, "executed": 0, "errors": 0}
    calib_configs = [spec.calibration_config(p, m) for p, m in spec.cells()]
    _run_pending(calib_configs, store, workers, timeout_s, progress, counters)
    calibrations_executed = counters["executed"]
    by_hash = _ok_rows_by_hash(store)
    trial_configs: list[dict[str, Any]] = []
    for (preset_name, model), config in zip(spec.cells(), calib_configs):
        row = by_hash.get(config_hash(config))
        if row is None:
            continue  # calibration errored; its error row is retried next run
        eligible = row["result"]["eligible"]
        if eligible <= 0:
            raise ValueError(
                f"campaign cell preset={preset_name!r} model={model!r} has no "
                f"eligible fault sites in {spec.ops} ops — lengthen the trace "
                f"or drop the model for this preset"
            )
        trial_configs.extend(
            spec.trial_config(preset_name, model, trial, eligible)
            for trial in range(spec.trials)
        )
    _run_pending(trial_configs, store, workers, timeout_s, progress, counters)
    return CampaignSummary(
        cells=len(spec.cells()),
        calibrations=calibrations_executed,
        trials_total=len(spec.cells()) * spec.trials,
        trials_executed=counters["executed"] - calibrations_executed,
        cached=counters["cached"],
        errors=counters["errors"],
        wall_seconds=round(time.perf_counter() - started, 3),
    )


def _rate_block(successes: int, n: int) -> dict[str, float | int]:
    lo, hi = wilson_interval(successes, n)
    return {
        "value": round(successes / n, 6) if n else None,
        "n": n,
        "wilson_lo": round(lo, 6),
        "wilson_hi": round(hi, 6),
    }


def aggregate_campaign(spec: CampaignSpec, store: ResultsStore) -> dict[str, Any]:
    """Reduce a campaign store into the per-cell outcome/rate report.

    Only rows whose config hashes this spec derives are read, so a store
    shared across campaigns (or holding stale rows) aggregates cleanly.
    Trials that errored are counted, not silently dropped.
    """
    from repro.faults.outcomes import OUTCOME_KEYS, zero_outcomes

    by_hash = _ok_rows_by_hash(store)
    cells: list[dict[str, Any]] = []
    for preset_name, model in spec.cells():
        calib = by_hash.get(
            config_hash(spec.calibration_config(preset_name, model))
        )
        if calib is None:
            continue
        eligible = calib["result"]["eligible"]
        outcomes = zero_outcomes()
        injected = 0
        trials_ok = 0
        for trial in range(spec.trials):
            config = spec.trial_config(preset_name, model, trial, eligible)
            row = by_hash.get(config_hash(config))
            if row is None:
                continue
            trials_ok += 1
            result = row["result"]
            injected += result["injected"]
            for key, count in result["outcomes"].items():
                outcomes[key] = outcomes.get(key, 0) + count
        # Faults that survived to commit-time resolution: everything the
        # recovery path did not flush before it could matter.
        live = outcomes["detected"] + outcomes["masked"] + outcomes["sdc"]
        cells.append(
            {
                "preset": preset_name,
                "fault_model": model,
                "trials": spec.trials,
                "trials_ok": trials_ok,
                "eligible": eligible,
                "injected": injected,
                "outcomes": outcomes,
                "rates": {
                    "coverage": _rate_block(outcomes["detected"], live),
                    "sdc": _rate_block(outcomes["sdc"], live),
                    "masked": _rate_block(outcomes["masked"], live),
                },
            }
        )
    assert all(set(cell["outcomes"]) == set(OUTCOME_KEYS) for cell in cells)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "campaign",
        "name": spec.name,
        "source": str(store.path),
        "trials_per_cell": spec.trials,
        "wilson_z": WILSON_Z,
        "cells": cells,
    }


def render_campaign_text(report: dict[str, Any]) -> str:
    """Human-readable per-cell table of outcome counts and rates."""
    lines = [
        f"campaign '{report['name']}' — {report['trials_per_cell']} trials/cell "
        f"(95% Wilson intervals)"
    ]
    for cell in report["cells"]:
        outcomes = cell["outcomes"]
        coverage = cell["rates"]["coverage"]
        sdc = cell["rates"]["sdc"]
        value = coverage["value"]
        lines.append(
            f"  {cell['preset']:<12s} {cell['fault_model']:<12s} "
            f"injected {cell['injected']:>4d}  "
            f"det {outcomes['detected']:>3d}  sq {outcomes['squashed']:>3d}  "
            f"mask {outcomes['masked']:>3d}  sdc {outcomes['sdc']:>3d}  "
            f"falarm {outcomes['false_alarm']:>3d}  "
            + (
                f"coverage {value:.1%} "
                f"[{coverage['wilson_lo']:.1%}, {coverage['wilson_hi']:.1%}]  "
                f"sdc-rate {sdc['value']:.1%} "
                f"[{sdc['wilson_lo']:.1%}, {sdc['wilson_hi']:.1%}]"
                if value is not None
                else "coverage n/a (no live faults)"
            )
        )
    return "\n".join(lines)
