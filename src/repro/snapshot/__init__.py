"""Deterministic snapshot/restore and the content-addressed run cache.

LBP is cycle-deterministic: the whole machine state at any cycle is a
pure function of (program, machine params).  This package turns that
property into infrastructure:

* :mod:`repro.snapshot.snapshot` — bit-exact serialization of a running
  cycle-accurate machine (``LBP.state_dict()``: the run-wide fields plus
  one ``core_state_dict()`` slice per core) into a versioned,
  digest-stamped on-disk format;
  a restored machine continues with the *identical* event trace and cycle
  count as an uninterrupted run.
* :mod:`repro.snapshot.cache` — a content-addressed run cache keyed by
  SHA-256 of (program bytes, machine params, workload inputs, simulator
  version); because runs are deterministic, memoization is exact, and a
  repeated experiment sweep with unchanged inputs is a cache hit.
* :mod:`repro.snapshot.progio` — canonical program-image serialization
  shared by both (the snapshot must be restorable in a fresh process; the
  cache key needs canonical program bytes).

The fast simulator does not support snapshots (its quantum scheduler
holds non-serializable in-flight state); :func:`snapshot` raises a clear
:class:`SnapshotUnsupportedError` for it.
"""

from repro.snapshot.cache import RunCache, default_cache_root
from repro.snapshot.progio import program_bytes, program_from_state, program_state
from repro.snapshot.snapshot import (
    SIM_VERSION,
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotUnsupportedError,
    load_snapshot,
    restore,
    save_snapshot,
    snapshot,
    trace_digest,
)

__all__ = [
    "RunCache",
    "SIM_VERSION",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotUnsupportedError",
    "default_cache_root",
    "load_snapshot",
    "program_bytes",
    "program_from_state",
    "program_state",
    "restore",
    "save_snapshot",
    "snapshot",
    "trace_digest",
]
