"""Bit-exact snapshot/restore of the cycle-accurate LBP simulator.

On-disk format (all integers big-endian)::

    offset  size  field
    0       8     magic  b"LBPSNAP\\x01"
    8       4     snapshot format version (SNAPSHOT_FORMAT_VERSION)
    12      8     body length in bytes
    20      32    SHA-256 digest of the body
    52      ...   body: zlib-compressed canonical JSON payload

The payload carries the simulator version tag, the machine params
(``Params.state_dict()``: ``num_cores`` and ``link_hop_latency``), the
full program image (:mod:`repro.snapshot.progio`) and the machine's
``state_dict()``.  That is the run-wide fields (cycle, the halt/error
election, the code bank, ``stats.cycles``, which observers are attached
and their config) plus one ``core_state_dict()`` slice per core — the
same slices the sharded engine gathers from its workers.  A slice holds
the core (banks, harts, link schedules), its stats counters, its trace,
sanitizer and metrics buffers, and the pending events addressed to it,
each a plain ``(cycle, origin, oseq, dst, kind, args)`` descriptor (see
``repro.machine.processor.EVENT_HANDLERS``).  ``restore`` verifies the
digest, rebuilds the program, constructs a fresh machine and loads the
state; because the machine is deterministic, the restored run continues
with the identical event trace and cycle count as an uninterrupted one
(pinned by ``tests/integration/test_snapshot_roundtrip.py`` against the
golden digests).

Machines with attached MMIO devices are refused: devices are external
objects whose construction the snapshot cannot reproduce.
"""

import base64
import hashlib
import json
import struct
import zlib

from repro.machine.params import Params
from repro.machine.processor import LBP
from repro.machine.trace import render
from repro.snapshot.progio import program_from_state, program_state

#: binary container version; bump on layout changes (2: the params part
#: of the payload holds only the two ``Params`` knobs; 3: the machine
#: state is the run-wide fields plus per-core slices; 4: a trace event
#: holds its args, not its words)
SNAPSHOT_FORMAT_VERSION = 4

#: semantic version of the simulated machine model.  Bump whenever a model
#: change invalidates recorded state — i.e. whenever the golden trace
#: digests (tests/data/golden_traces.json) are intentionally regenerated.
#: Stored in every snapshot and mixed into every cache key.
SIM_VERSION = "lbp-sim-3"

_MAGIC = b"LBPSNAP\x01"
_HEADER = struct.Struct(">IQ")


class SnapshotError(Exception):
    """Malformed, corrupt or incompatible snapshot data."""


class SnapshotUnsupportedError(SnapshotError):
    """The machine cannot be snapshotted (fast simulator, MMIO devices)."""


def trace_digest(events):
    """SHA-256 over the events with their args worded, as the goldens pin."""
    digest = hashlib.sha256()
    for cycle, core, hart, kind, args in events:
        digest.update(repr(
            (cycle, core, hart, kind, render(kind, args))).encode())
    return digest.hexdigest()


# ---- JSON codec with bytes support ------------------------------------------


def _jsonable(value):
    if isinstance(value, (bytes, bytearray)):
        return {"__b64__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _unjsonable(value):
    if isinstance(value, dict):
        if len(value) == 1 and "__b64__" in value:
            return base64.b64decode(value["__b64__"])
        return {key: _unjsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_unjsonable(item) for item in value]
    return value


# ---- public API --------------------------------------------------------------


def snapshot(machine):
    """Serialize a cycle-accurate *machine* to bytes (see module doc)."""
    # the sharded engine (repro.parsim.ShardedLBP) is a façade whose
    # gathered state lives in an ordinary master LBP — snapshot that, so
    # sharded and single-process runs produce interchangeable files
    master = getattr(machine, "master", None)
    if isinstance(master, LBP):
        machine = master
    if not isinstance(machine, LBP):
        raise SnapshotUnsupportedError(
            "only the cycle-accurate LBP simulator supports snapshot/restore; "
            "got %s (the fast simulator's quantum scheduler holds "
            "non-serializable in-flight state)" % type(machine).__name__
        )
    if machine.mmio:
        raise SnapshotUnsupportedError(
            "machine has %d MMIO device port(s) attached; devices are "
            "external objects a snapshot cannot reconstruct — detach them "
            "or snapshot a device-free machine" % len(machine.mmio)
        )
    if machine.program is None:
        raise SnapshotError("machine has no program loaded")
    payload = {
        "format": "lbp-snapshot",
        "snapshot_version": SNAPSHOT_FORMAT_VERSION,
        "sim_version": SIM_VERSION,
        "params": machine.params.state_dict(),
        "program": program_state(machine.program),
        "machine": machine.state_dict(),
    }
    body = zlib.compress(
        json.dumps(_jsonable(payload), sort_keys=True,
                   separators=(",", ":")).encode("utf-8"), 6)
    return (_MAGIC + _HEADER.pack(SNAPSHOT_FORMAT_VERSION, len(body))
            + hashlib.sha256(body).digest() + body)


def _decode(blob):
    if len(blob) < len(_MAGIC) + _HEADER.size + 32:
        raise SnapshotError("snapshot truncated (%d bytes)" % len(blob))
    if blob[: len(_MAGIC)] != _MAGIC:
        raise SnapshotError("bad magic: not an LBP snapshot")
    offset = len(_MAGIC)
    version, body_len = _HEADER.unpack_from(blob, offset)
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            "snapshot format version %d not supported (expected %d)"
            % (version, SNAPSHOT_FORMAT_VERSION)
        )
    offset += _HEADER.size
    digest = blob[offset : offset + 32]
    body = blob[offset + 32 : offset + 32 + body_len]
    if len(body) != body_len:
        raise SnapshotError(
            "snapshot body truncated: %d of %d bytes" % (len(body), body_len))
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError("snapshot digest mismatch: body is corrupt")
    return _unjsonable(json.loads(zlib.decompress(body).decode("utf-8")))


def restore(blob):
    """Rebuild the machine serialized by :func:`snapshot` (fresh instance)."""
    payload = _decode(blob)
    if payload.get("sim_version") != SIM_VERSION:
        raise SnapshotError(
            "snapshot was taken by simulator version %r; this is %r — "
            "deterministic resume across model versions is not defined"
            % (payload.get("sim_version"), SIM_VERSION)
        )
    try:
        params = Params.from_state_dict(payload["params"])
    except ValueError as exc:
        raise SnapshotError("snapshot params: %s" % exc) from None
    program = program_from_state(payload["program"])
    machine = LBP(params)
    machine.load(program, start=False)
    machine.load_state_dict(payload["machine"])
    return machine


def save_snapshot(machine, path):
    """:func:`snapshot` to *path* (atomic: write temp file, then rename)."""
    import os

    blob = snapshot(machine)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)
    return len(blob)


def load_snapshot(path):
    """:func:`restore` from *path*."""
    with open(path, "rb") as handle:
        return restore(handle.read())
