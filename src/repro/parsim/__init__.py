"""Space-sharded execution of the cycle-accurate LBP simulator.

``ShardedLBP(params, shards=N)`` — or equivalently ``LBP(params,
shards=N)`` — partitions the machine's core line into N contiguous
shards and simulates each shard in its own forked worker process, while
producing *bit-identical* results to the single-process engine: the same
merged event order, the same trace lines, the same statistics, and the
same golden digests.  It is the multi-process reference for the claim
that a run is the same run however it is placed, not a speed-up: it is
slower than the in-process engine on every host measured
(EXPERIMENTS.md P5).  See :mod:`repro.parsim.engine` for the epoch
protocol and DESIGN.md §7 for the determinism argument.
"""

from repro.parsim.engine import EPOCH_WIDTH, ShardedLBP, partition_cores

__all__ = ["EPOCH_WIDTH", "ShardedLBP", "partition_cores"]
