"""Snapshot/restore bit-exactness against the golden trace digests.

The acceptance bar for the snapshot subsystem: pausing a workload mid
run, serializing the machine, restoring it (in this process or a fresh
one) and running to completion must produce the *identical* event trace
and cycle count as the uninterrupted run — which is itself pinned by
``tests/data/golden_traces.json``.  Any divergence in the serialized
state (a lost in-flight event, a mis-restored ROB entry, a re-seeded
arbitration pointer) shows up as a digest mismatch here.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.asm import assemble
from repro.machine import LBP, Params
from repro.snapshot import load_snapshot, restore, save_snapshot, snapshot
from repro.snapshot.snapshot import trace_digest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import (  # noqa: E402
    GOLDEN_PATH, RE_CONTENTION, golden_program)

MAX_CYCLES = 50_000_000

SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _build(name):
    """(program, cores) for a golden workload, by name."""
    if name == "re_contention_c1":
        return assemble(RE_CONTENTION), 1
    return golden_program(name), 4


def _fresh(name):
    program, cores = _build(name)
    return LBP(Params(num_cores=cores), trace=True).load(program)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _assert_matches_golden(machine, stats, reference):
    assert stats.cycles == reference["cycles"]
    assert stats.retired == reference["retired"]
    assert len(machine.trace.events) == reference["events"]
    assert trace_digest(machine.trace.events) == reference["trace_sha256"]


@pytest.mark.slow
@pytest.mark.parametrize("name", [
    "matmul_base_h16_c4",
    "matmul_tiled_h16_c4",
    "setget_h16_chunk64_c4",
    "re_contention_c1",
])
def test_midrun_snapshot_resume_is_bit_exact(name, golden):
    reference = golden[name]
    machine = _fresh(name)
    pause_at = reference["cycles"] // 2
    machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=pause_at)
    assert not machine.halted and machine.cycle == pause_at

    resumed = restore(snapshot(machine))
    assert resumed is not machine
    stats = resumed.run(max_cycles=MAX_CYCLES)
    _assert_matches_golden(resumed, stats, reference)


@pytest.mark.slow
def test_fresh_process_restore_is_bit_exact(tmp_path, golden):
    """Restore in a brand-new interpreter: nothing may depend on live
    state inherited from the snapshotting process."""
    name = "matmul_base_h16_c4"
    reference = golden[name]
    machine = _fresh(name)
    machine.run(max_cycles=MAX_CYCLES,
                stop_at_cycle=reference["cycles"] // 2)
    path = str(tmp_path / "pause.lbpsnap")
    save_snapshot(machine, path)

    script = (
        "import json, sys\n"
        "from repro.snapshot import load_snapshot\n"
        "from repro.snapshot.snapshot import trace_digest\n"
        "machine = load_snapshot(sys.argv[1])\n"
        "stats = machine.run(max_cycles=%d)\n"
        "print(json.dumps({'cycles': stats.cycles,\n"
        "                  'retired': stats.retired,\n"
        "                  'events': len(machine.trace.events),\n"
        "                  'trace_sha256': trace_digest("
        "machine.trace.events)}))\n" % MAX_CYCLES
    )
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    output = subprocess.run(
        [sys.executable, "-c", script, path], env=env, check=True,
        capture_output=True, text=True).stdout
    result = json.loads(output)
    assert result == {key: reference[key] for key in result}


@pytest.mark.slow
def test_periodic_snapshots_each_resume_bit_exact(golden):
    """--snapshot-every semantics: every periodic checkpoint of one run
    is a valid resume point producing the golden trace."""
    name = "re_contention_c1"
    reference = golden[name]
    machine = _fresh(name)
    blobs = []
    machine.run(max_cycles=MAX_CYCLES, snapshot_every=200,
                snapshot_callback=lambda m: blobs.append(snapshot(m)))
    assert machine.halted
    assert [json.loads(__import__("zlib").decompress(b[52:]))["machine"]["cycle"]
            for b in blobs] == [200, 400, 600]
    for blob in blobs:
        resumed = restore(blob)
        stats = resumed.run(max_cycles=MAX_CYCLES)
        _assert_matches_golden(resumed, stats, reference)


@pytest.mark.slow
def test_cli_pause_and_resume_matches_uninterrupted(tmp_path, capsys):
    from repro.cli import main as cli_main

    source = tmp_path / "contention.s"
    source.write_text(RE_CONTENTION)
    snap = str(tmp_path / "pause.lbpsnap")

    assert cli_main(["run", str(source), "--cores", "1"]) == 0
    uninterrupted = capsys.readouterr().out
    assert cli_main(["run", str(source), "--cores", "1",
                     "--stop-at-cycle", "300", "--snapshot-out", snap]) == 0
    paused = capsys.readouterr().out
    assert "paused   : cycle 300" in paused
    assert cli_main(["run", "--resume", snap]) == 0
    resumed = capsys.readouterr().out

    def stat_lines(text):
        return [line for line in text.splitlines()
                if line.startswith(("halt", "cycles", "retired", "IPC",
                                    "memory", "teams"))]

    assert stat_lines(resumed) == stat_lines(uninterrupted)
