"""Cycle-level superscalar core with a shared-resource error-detection mode.

The core reproduces the paper's central mechanism: rather than duplicating
the datapath, retired-but-unverified instructions are re-executed in
program order through the *same* issue slots and functional units the
out-of-order primary stream is already using, consuming only idle
bandwidth.  Detection happens strictly before commit; recovery squashes
younger instructions and replays them from the verified state.
"""

from repro.core.checker import Checker
from repro.core.core import SuperscalarCore
from repro.core.dynop import DynOp
from repro.core.params import CheckerParams, CoreParams
from repro.core.recovery import RecoveryCause, RecoveryManager, RecoveryParams
from repro.core.sched import CheckQueue, DeadlockError, EventWheel, FUPool, ReadyQueue
from repro.core.stats import CoreStats

__all__ = [
    "CheckQueue",
    "Checker",
    "CheckerParams",
    "CoreParams",
    "CoreStats",
    "DeadlockError",
    "DynOp",
    "EventWheel",
    "FUPool",
    "ReadyQueue",
    "RecoveryCause",
    "RecoveryManager",
    "RecoveryParams",
    "SuperscalarCore",
]
