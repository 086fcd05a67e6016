"""Reproduction of *Efficient Resource Sharing in Concurrent Error
Detecting Superscalar Microarchitectures* (Smolens et al., MICRO 2004).

Subpackages:

* :mod:`repro.isa` — trace micro-op ISA, Table 1 latencies.
* :mod:`repro.branch` — combining predictor (gshare + PAs + meta) and BTB.
* :mod:`repro.memory` — caches, MSHRs, bus, and the timing hierarchy.
* :mod:`repro.core` — the superscalar core and the shared-resource checker.
* :mod:`repro.faults` — typed fault models and the outcome taxonomy.
* :mod:`repro.workloads` — synthetic trace generator and scenario presets.
* :mod:`repro.simulate` — the one path from an ``Experiment`` to simulated cores.
* :mod:`repro.experiments` — sweep grids, fault campaigns, results store
  and paper-style reports.
* :mod:`repro.parallel` — time-sharded single runs.
* :mod:`repro.obs` — tracing, telemetry, metrics and runner spans.

``python -m repro run --preset int-heavy --check`` runs a
checked-vs-unchecked experiment from the command line.
"""

__version__ = "0.1.0"
