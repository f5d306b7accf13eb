"""Snapshot subsystem units: format, state round-trips, cache keys.

The bit-exactness of a *resumed run* is pinned by the integration suite
(tests/integration/test_snapshot_roundtrip.py against the golden
digests); this file covers the pieces in isolation — the binary
container's failure modes, component ``state_dict`` round-trips, the
canonical program image, and the content-addressed cache's key
sensitivity and byte-identical hit path.
"""

import copy
import functools
import hashlib
import json
import os
import struct
import zlib

import pytest

from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.fastsim import FastLBP
from repro.machine import LBP, MachineError, Params
from repro.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    RunCache,
    SnapshotError,
    SnapshotUnsupportedError,
    load_snapshot,
    program_bytes,
    program_digest,
    program_from_state,
    program_state,
    restore,
    save_snapshot,
    snapshot,
)
from repro.snapshot import cache as snapshot_cache
from repro.workloads import matmul_source

MEMORY_LOOP = """
        .equ ROUNDS, 25
main:   li   t1, ROUNDS
        la   t2, buf
loop:   sw   t1, 0(t2)
        lw   t3, 4(t2)
        add  t3, t3, t1
        sw   t3, 4(t2)
        addi t1, t1, -1
        bnez t1, loop
        ebreak
        .data
buf:    .word 0, 0
"""


def _machine(source=MEMORY_LOOP, cores=2):
    program = assemble(source)
    return LBP(Params(num_cores=cores)).load(program)


def _paused(stop_at_cycle=60):
    """A machine paused mid-run, with loads/stores still in flight."""
    machine = _machine()
    machine.run(max_cycles=100_000, stop_at_cycle=stop_at_cycle)
    assert not machine.halted
    return machine


# ---- binary container --------------------------------------------------------


def test_snapshot_restore_snapshot_is_byte_identical():
    machine = _paused()
    blob = snapshot(machine)
    again = snapshot(restore(blob))
    assert blob == again


def test_restored_machine_state_dict_matches():
    machine = _paused()
    restored = restore(snapshot(machine))
    assert restored is not machine
    assert restored.state_dict() == machine.state_dict()
    assert restored.params.state_dict() == machine.params.state_dict()


VEC_SOURCE = """
#include <det_omp.h>
int v[16];
void main() {
    int t;
    #pragma omp parallel for
    for (t = 0; t < 16; t++)
        v[t] = t * t;
}
"""


def test_state_dict_is_the_gathered_core_slices():
    """A snapshot's machine state is the run-wide fields plus the very
    slices the sharded engine gathers, one per core."""
    program = compile_to_program(VEC_SOURCE, "vec.c")
    machine = LBP(Params(num_cores=4), trace=True, sanitize=True,
                  metrics=64).load(program)
    machine.run(max_cycles=1_000_000, stop_at_cycle=400)
    assert not machine.halted
    state = machine.state_dict()
    assert len(state["cores"]) == 4
    for index in range(4):
        assert state["cores"][index] == machine.core_state_dict(index)
    slices = state["cores"]
    # the run is mid-flight and every observer has something to carry
    assert sum(len(s["events"]) for s in slices) == len(machine._events) > 0
    assert sum(len(s["trace"]) for s in slices) == len(machine.trace) > 0
    assert sum(len(s["sanitize"]) for s in slices) == len(
        machine.sanitizer) > 0
    assert all(s["observe"]["slot"]["samples"] for s in slices)
    assert restore(snapshot(machine)).state_dict() == state


@pytest.mark.parametrize("cores", [1, 4])
def test_load_state_dict_refuses_another_core_count(cores):
    state = _paused().state_dict()
    other = LBP(Params(num_cores=cores)).load(
        assemble(MEMORY_LOOP), start=False)
    with pytest.raises(ValueError,
                       match="state has 2 cores; this machine has %d" % cores):
        other.load_state_dict(state)
    assert other.cycle == 0


#: a snapshot event no run could post: (field, value, why it is refused)
BAD_EVENTS = {
    "kind": (4, "nosuch", "unknown event kind 'nosuch'"),
    "dst_negative": (3, -1, "dst is not core 0"),
    "dst_other_core": (3, 1, "dst is not core 0"),
    "cycle_negative": (0, -5, "cycle is not a non-negative int"),
    "cycle_text": (0, "7", "cycle is not a non-negative int"),
    "origin_negative": (1, -1, "origin is not a non-negative int"),
    "origin_past_last_core": (1, 2, "origin is not a core of this 2-core"),
    "oseq_float": (2, 1.5, "oseq is not a non-negative int"),
}


@pytest.mark.parametrize("backend", [None, "interp"])
@pytest.mark.parametrize("name", sorted(BAD_EVENTS))
def test_a_snapshot_event_no_run_could_post_is_refused(name, backend):
    """Both event loops would otherwise treat it differently (the reference
    one ran a dst of -1 on the last core, the compiled one stopped with an
    IndexError): the restore refuses it, naming the event."""
    field, value, why = BAD_EVENTS[name]
    state = _paused(stop_at_cycle=13).state_dict()  # a load on core 0
    event = state["cores"][0]["events"][0]
    event[field] = value
    machine = LBP(Params(num_cores=2), backend=backend).load(
        assemble(MEMORY_LOOP), start=False)
    with pytest.raises(ValueError) as err:
        machine.load_state_dict(state)
    assert why in str(err.value) and repr(event) in str(err.value)


#: link rows no run could write: (rows, why they are refused)
BAD_LINK_ROWS = {
    "unknown_tag": ([[["r9>m", 0], 3]], "unknown link tag 'r9>m'"),
    "index_negative": ([[["c>r1", -1], 3]], "index -1 outside [0, 2)"),
    "index_past_last_core": ([[["r1>m", 2], 3]], "index 2 outside [0, 2)"),
    "duplicate": ([[["c>r1", 1], 3], [["c>r1", 1], 4]],
                  "a second row for the link"),
}


@pytest.mark.parametrize("name", sorted(BAD_LINK_ROWS))
def test_a_snapshot_link_row_naming_no_link_is_refused(name):
    """Link ports sit in a flat list by tag code and index: a row naming a
    tag or an index this machine does not have (a negative index would
    alias another link) or a link twice is refused, naming the row, before
    the scheduler loads anything."""
    rows, why = BAD_LINK_ROWS[name]
    state = _paused().state_dict()
    links = state["cores"][0]["core"]["links"]
    links["hop_latency"] = 9
    links["links"] = [[["c>r1", 0], 5]] + rows
    machine = _machine()
    before = machine.cores[0].links.state_dict()
    with pytest.raises(ValueError) as err:
        machine.load_state_dict(state)
    assert why in str(err.value) and repr(rows[-1]) in str(err.value)
    assert machine.cores[0].links.state_dict() == before


@functools.lru_cache(maxsize=None)
def _tiled16_at_300():
    """tiled matmul h=16 on 4 cores paused at cycle 300: hart 3 of core 0
    leads a team onto core 1 (its succ is hart 4), whose hart 0 follows
    hart 3 (its pred)."""
    program = compile_to_program(matmul_source("tiled", 16), "tiled.c")
    machine = LBP(Params(num_cores=4)).load(program)
    machine.run(max_cycles=1_000_000, stop_at_cycle=300)
    harts = machine.state_dict()["cores"][0]["core"]["harts"]
    assert (harts[3]["succ"], machine.cores[1].harts[0].pred) == (4, 3)
    return program, machine.state_dict()


#: team links no run could make: (core, hart, field, value, why)
BAD_TEAM_LINKS = {
    "succ_two_cores_on": (0, 3, "succ", 15,
                          "succ 15 is not a hart of core 0 or the next one"),
    "succ_previous_core": (1, 0, "succ", 2,
                           "succ 2 is not a hart of core 1 or the next one"),
    "succ_negative": (0, 3, "succ", -1,
                      "succ -1 is not a hart of core 0 or the next one"),
    "succ_past_last_core": (3, 0, "succ", 16,
                            "succ 16 is not a hart of core 3 or the next"),
    "succ_text": (0, 3, "succ", "4",
                  "succ '4' is not a hart of core 0 or the next one"),
    "pred_next_core": (1, 0, "pred", 8,
                       "pred 8 is not a hart of core 1 or the previous one"),
    "pred_on_core_0_from_nowhere": (0, 1, "pred", -4,
                                    "pred -4 is not a hart of core 0 or"),
    "fork_token_own_core": (0, 0, "fork_tokens", [5, 2],
                            "fork token 2 is not a hart of core 1"),
    "fork_token_past_last_core": (3, 1, "fork_tokens", [16],
                                  "fork token 16 is not a hart of core 4"),
    "re_waiter_short": (0, 1, "re_waiters", [[[0, 0, 1, 0, 7]], [], [], []],
                        "re_waiters descriptor [0, 0, 1, 0, 7] is not"),
    "re_waiter_sender_elsewhere": (
        0, 1, "re_waiters", [[], [[0, 5, 1, 0, 7, 3]], [], []],
        "re_waiters descriptor [0, 5, 1, 0, 7, 3] is not"),
    "re_waiter_target_elsewhere": (
        0, 1, "re_waiters", [[], [], [], [[0, 0, 99, 0, 7, 3]]],
        "re_waiters descriptor [0, 0, 99, 0, 7, 3] is not"),
    "re_waiter_text": (0, 1, "re_waiters", [["sixsix"], [], [], []],
                       "re_waiters descriptor 'sixsix' is not"),
}


@pytest.mark.parametrize("backend", [None, "interp"])
@pytest.mark.parametrize("name", sorted(BAD_TEAM_LINKS))
def test_a_snapshot_team_link_no_run_could_make_is_refused(name, backend):
    """The p_ret commit sends its ending signal to ``succ`` along the
    forward link, a granted token names a hart of the next core, a drained
    result buffer re-posts a parked delivery: a link that is not there
    (a succ two cores on used to stop the run with a router ValueError at
    that commit) is refused at the restore, naming core, hart and field,
    before the core loads anything."""
    core, hart, field, value, why = BAD_TEAM_LINKS[name]
    program, state = _tiled16_at_300()
    state = copy.deepcopy(state)
    state["cores"][core]["core"]["harts"][hart][field] = value
    machine = LBP(Params(num_cores=4), backend=backend).load(
        program, start=False)
    with pytest.raises(ValueError) as err:
        machine.load_state_dict(state)
    assert str(err.value).startswith("core %d hart %d: snapshot " % (
        core, hart)) and why in str(err.value)
    assert machine.cores[core].harts[hart].state_dict()[field] in (
        None, [], [[], [], [], []])


def test_a_snapshot_with_every_team_link_kind_resumes():
    """The check refuses only what no run makes: the paused team loads
    and runs on to the end of the uninterrupted run."""
    program, state = _tiled16_at_300()
    whole = LBP(Params(num_cores=4)).load(program)
    whole.run(max_cycles=1_000_000)
    machine = LBP(Params(num_cores=4)).load(program, start=False)
    machine.load_state_dict(copy.deepcopy(state))
    machine.run(max_cycles=1_000_000)
    assert machine.state_dict() == whole.state_dict()


def test_save_and_load_roundtrip(tmp_path):
    machine = _paused()
    path = str(tmp_path / "pause.lbpsnap")
    size = save_snapshot(machine, path)
    assert os.path.getsize(path) == size
    assert load_snapshot(path).state_dict() == machine.state_dict()


def test_truncated_blob_rejected():
    blob = snapshot(_paused())
    with pytest.raises(SnapshotError, match="truncated"):
        restore(blob[:20])
    with pytest.raises(SnapshotError, match="truncated"):
        restore(blob[:-1])


def test_bad_magic_rejected():
    blob = snapshot(_paused())
    with pytest.raises(SnapshotError, match="magic"):
        restore(b"NOTASNAP" + blob[8:])


def test_unknown_format_version_rejected():
    blob = snapshot(_paused())
    bumped = blob[:8] + bytes([0, 0, 0, 99]) + blob[12:]
    with pytest.raises(SnapshotError, match="version 99"):
        restore(bumped)


def test_corrupt_body_rejected():
    blob = bytearray(snapshot(_paused()))
    blob[-1] ^= 0xFF  # flip one bit of the compressed body
    with pytest.raises(SnapshotError, match="digest mismatch"):
        restore(bytes(blob))


def _forged(edit, version=SNAPSHOT_FORMAT_VERSION):
    """A well-formed blob (valid header and digest) of a real snapshot
    whose payload *edit* changed in place."""
    blob = snapshot(_paused())
    payload = json.loads(zlib.decompress(blob[52:]).decode())
    edit(payload)
    body = zlib.compress(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return (blob[:8] + struct.pack(">IQ", version, len(body))
            + hashlib.sha256(body).digest() + body)


def test_foreign_sim_version_rejected():
    forged = _forged(lambda payload: payload.update(sim_version="lbp-sim-0"))
    with pytest.raises(SnapshotError, match="lbp-sim-0"):
        restore(forged)


def test_format_version_1_rejected():
    """Version 1 carried thirteen params; its files are refused by type."""
    def as_v1(payload):
        payload["snapshot_version"] = 1
        payload["params"].update({"rob_size": 8, "trace_enabled": False,
                                  "max_cycles": 200_000_000})

    with pytest.raises(SnapshotError, match="version 1 not supported"):
        restore(_forged(as_v1, version=1))


def test_format_version_2_rejected():
    """Version 2 spelled the machine whole (one event queue, one trace,
    one stats block beside the cores); its files are refused by type."""
    def as_v2(payload):
        payload["snapshot_version"] = 2
        machine = payload["machine"]
        machine["events"] = [
            event for core in machine["cores"] for event in core["events"]]
        machine["cores"] = [core["core"] for core in machine["cores"]]

    with pytest.raises(SnapshotError, match="version 2 not supported"):
        restore(_forged(as_v2, version=2))


def test_format_version_3_rejected():
    """Version 3 held a trace event's words, not its args; its files are
    refused by type."""
    def as_v3(payload):
        payload["snapshot_version"] = 3

    with pytest.raises(SnapshotError, match="version 3 not supported"):
        restore(_forged(as_v3, version=3))


def test_a_snapshot_with_an_unknown_trace_kind_is_refused():
    forged = _forged(lambda payload: payload["machine"]["trace"].update(
        enabled=True, kinds=["mem_store", "mem_stor"]))
    with pytest.raises(ValueError, match="snapshot trace state: unknown "
                       "trace kind.*mem_stor; the kinds are mem_load_req"):
        restore(forged)


def test_removed_knob_in_params_is_a_snapshot_error():
    forged = _forged(lambda payload: payload["params"].update(rob_size=8))
    with pytest.raises(SnapshotError, match="unknown Params knob.*rob_size"):
        restore(forged)


# ---- refusals ----------------------------------------------------------------


def test_fast_simulator_refused():
    machine = FastLBP(Params(num_cores=2)).load(assemble(MEMORY_LOOP))
    with pytest.raises(SnapshotUnsupportedError, match="fast simulator"):
        snapshot(machine)
    with pytest.raises(NotImplementedError):
        machine.state_dict()


def test_mmio_machine_refused():
    machine = _machine()

    class Device:
        def read(self):
            return 0

    machine.add_device(0x7000_0000, Device())
    with pytest.raises(SnapshotUnsupportedError, match="MMIO"):
        snapshot(machine)


def test_unloaded_machine_refused():
    with pytest.raises(SnapshotError, match="no program"):
        snapshot(LBP(Params(num_cores=1)))


# ---- program image -----------------------------------------------------------


def test_program_state_roundtrip():
    program = assemble(MEMORY_LOOP)
    rebuilt = program_from_state(program_state(program))
    assert program_bytes(rebuilt) == program_bytes(program)
    assert rebuilt.symbols == program.symbols
    addr = sorted(program.instructions)[0]
    original, copy = program.instructions[addr], rebuilt.instructions[addr]
    assert copy.mnemonic == original.mnemonic
    assert copy.spec is original.spec  # re-bound to the live spec table


def test_program_bytes_deterministic():
    assert (program_bytes(assemble(MEMORY_LOOP))
            == program_bytes(assemble(MEMORY_LOOP)))


def test_unknown_mnemonic_rejected():
    state = program_state(assemble(MEMORY_LOOP))
    state["instructions"][0][1] = "frobnicate"
    with pytest.raises(ValueError, match="frobnicate"):
        program_from_state(state)


# ---- cache keys: every component forces a miss -------------------------------


def test_key_sensitivity_per_component(monkeypatch):
    cache = RunCache("/nonexistent-root-never-touched")
    program = assemble(MEMORY_LOOP)
    params = Params(num_cores=2)
    base = cache.key_for(program=program, params=params, inputs={"n": 8})

    # identical material -> identical key (including Program re-assembly)
    assert cache.key_for(program=assemble(MEMORY_LOOP), params=Params(
        num_cores=2), inputs={"n": 8}) == base

    # the program as a Program, its canonical bytes or their digest
    for form in (program_bytes(program), program_digest(program)):
        assert cache.key_for(program=form, params=params,
                             inputs={"n": 8}) == base
    with pytest.raises(ValueError, match="digest"):
        cache.key_for(program="job.c", params=params, inputs={"n": 8})

    # one program byte, given as bytes or as its digest
    blob = bytearray(program_bytes(program))
    blob[-2] ^= 1
    assert cache.key_for(program=bytes(blob), params=params,
                         inputs={"n": 8}) != base
    assert cache.key_for(program=program_digest(bytes(blob)), params=params,
                         inputs={"n": 8}) != base
    # one params knob
    assert cache.key_for(program=program, params=Params(num_cores=4),
                         inputs={"n": 8}) != base
    assert cache.key_for(
        program=program,
        params=Params(num_cores=2, link_hop_latency=99),
        inputs={"n": 8}) != base
    # workload inputs
    assert cache.key_for(program=program, params=params,
                         inputs={"n": 9}) != base
    # simulator version tag
    monkeypatch.setattr(snapshot_cache, "SIM_VERSION", "lbp-sim-999")
    assert cache.key_for(program=program, params=params,
                         inputs={"n": 8}) != base


# ---- cache store -------------------------------------------------------------


def test_put_get_byte_identical(tmp_path):
    cache = RunCache(str(tmp_path))
    value = {"cycles": 123, "rows": [{"v": "base", "ipc": 0.5}]}
    key = cache.key_for(inputs="unit")
    stored = cache.put(key, value)
    assert stored == value
    first = json.dumps(cache.get(key), sort_keys=True)
    second = json.dumps(cache.get(key), sort_keys=True)
    assert first == second == json.dumps({"key": key, "value": value},
                                         sort_keys=True)
    assert cache.hits == 2 and cache.misses == 0


def test_non_json_value_refused(tmp_path):
    cache = RunCache(str(tmp_path))
    key = cache.key_for(inputs="unit")
    assert cache.put(key, object()) is None
    assert cache.put(key, (1, 2)) is None  # tuples don't survive the round-trip
    assert cache.get(key) is None  # nothing was stored
    assert cache.misses == 1


def test_entries_stats_clear(tmp_path):
    cache = RunCache(str(tmp_path))
    for n in range(3):
        cache.put(cache.key_for(inputs=n), {"n": n})
    rows = cache.entries()
    assert len(rows) == 3
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["disk_bytes"] == sum(size for _, size, _ in rows) > 0
    assert cache.clear() == 3
    assert cache.entries() == [] and cache.stats()["entries"] == 0


def test_cache_root_from_environment(monkeypatch, tmp_path):
    from repro.snapshot import default_cache_root

    monkeypatch.setenv("LBP_CACHE_DIR", str(tmp_path / "env-root"))
    assert default_cache_root() == str(tmp_path / "env-root")
    assert RunCache().root == str(tmp_path / "env-root")
    monkeypatch.delenv("LBP_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_root() == str(tmp_path / "xdg" / "lbp-repro")


# ---- sanitizer state ---------------------------------------------------------

RACY_CORPUS = os.path.join(
    os.path.dirname(__file__), "..", "data", "races", "ww_conflict.s")


def _sanitized_racy(stop_at_cycle=None):
    with open(RACY_CORPUS) as f:
        program = assemble(f.read())
    machine = LBP(Params(num_cores=1), sanitize=True).load(program)
    machine.run(max_cycles=100_000, stop_at_cycle=stop_at_cycle)
    return machine


def test_sanitizer_report_survives_snapshot_roundtrip():
    """Pause a sanitized run mid-flight, restore, finish: the resumed
    run must produce byte-for-byte the report of the unbroken run."""
    unbroken = _sanitized_racy()
    assert unbroken.halted
    reference = unbroken.race_report().to_json()
    assert json.loads(reference)["clean"] is False  # a real race survives

    paused = _sanitized_racy(stop_at_cycle=25)
    assert not paused.halted
    resumed = restore(snapshot(paused))
    assert resumed.sanitizer is not None
    assert resumed.sanitizer is not paused.sanitizer
    resumed.run(max_cycles=100_000)
    paused.run(max_cycles=100_000)  # the original finishes too
    assert resumed.race_report().to_json() == reference
    assert paused.race_report().to_json() == reference


def test_sanitizer_observations_in_state_dict():
    machine = _sanitized_racy(stop_at_cycle=25)
    state = machine.state_dict()
    assert state["sanitize"] is not None
    copy = LBP(Params(num_cores=1), sanitize=True).load(machine.program)
    copy.load_state_dict(state)
    assert list(copy.sanitizer.observations()) == list(
        machine.sanitizer.observations())


def test_unsanitized_snapshot_restores_without_sanitizer():
    machine = _paused()
    assert machine.state_dict()["sanitize"] is None
    restored = restore(snapshot(machine))
    assert restored.sanitizer is None
    with pytest.raises(MachineError, match="sanitize"):
        restored.race_report()


# ---- component state dicts ---------------------------------------------------


def test_params_state_roundtrip():
    params = Params(num_cores=4, link_hop_latency=7)
    rebuilt = Params.from_state_dict(params.state_dict())
    assert rebuilt.state_dict() == params.state_dict()


def test_state_dict_is_json_clean():
    """Everything inside machine.state_dict() must serialize via the
    snapshot's JSON codec — no live objects may leak in."""
    from repro.snapshot.snapshot import _jsonable

    machine = _paused()
    json.dumps(_jsonable(machine.state_dict()))  # must not raise


def test_restore_builds_fresh_objects():
    machine = _paused()
    restored = restore(snapshot(machine))
    assert restored.cores[0] is not machine.cores[0]
    assert (restored.cores[0].mem.local.data
            is not machine.cores[0].mem.local.data)
    # shared program identity is rebuilt, not aliased
    assert restored.program is not machine.program
