"""Time-sharded parallel simulation of a single trace.

One long run is split into N contiguous op windows, each simulated in its
own process against an exactly-resynthesized stream slice (deterministic
generator fast-forward), then merged back into one result
(:mod:`repro.parallel.merge`).  See :mod:`repro.parallel.shards` for the
exactness/approximation contract.
"""

from repro.parallel.merge import merge_core_stats, merge_memory, merge_reservoirs
from repro.parallel.shards import (
    DEFAULT_SHARD_WARMUP,
    ShardWindow,
    plan_shards,
    run_sharded_experiment,
)
from repro.simulate import OffsetWrongPathSource

__all__ = [
    "DEFAULT_SHARD_WARMUP",
    "OffsetWrongPathSource",
    "ShardWindow",
    "merge_core_stats",
    "merge_memory",
    "merge_reservoirs",
    "plan_shards",
    "run_sharded_experiment",
]
