"""Time one cold set-up of a workload in a fresh interpreter.

Prints the seconds spent importing the simulator modules the workload
drives and building its profile, params, spec and store.  Interpreter
start-up is not counted.  Run by ``run.py``; usage::

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bench_workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    bench_workloads.import_modules(name)
    bench_workloads.setup(name, seed, workdir, os.cpu_count() or 1)
    print(repr(time.perf_counter() - started))
