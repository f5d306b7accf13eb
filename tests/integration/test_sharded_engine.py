"""Bit-exactness of the space-sharded cycle-accurate engine.

The contract (DESIGN.md "Space-sharded cycle-accurate engine"): a run
under ``LBP(shards=N)`` produces the *identical* observable machine to
the single-process run — the same merged event order and trace digest,
the same statistics, the same final ``state_dict()``, and the same
outcome (halt / pause / error / deadlock / cycle-limit) at the same
cycle.  Snapshots taken under any shard count restore under any other.

These tests pin that contract against the golden workloads of
``tests/parity.py`` and against the error paths.
"""

import os
import signal
import threading
import time

import pytest

from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.machine.processor import DeadlockError, MachineError
from repro.parsim import ShardedLBP
from repro.snapshot import restore, snapshot
from repro.snapshot.snapshot import trace_digest
from repro.workloads.setget import setget_source, verify_setget

from parity import GOLDENS, measure

MAX_CYCLES = 50_000_000


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_sharded_runs_match_golden_digests(name, shards, golden):
    """Acceptance bar: sharded digests equal tests/data/golden_traces.json.

    ``re_contention_c1`` has a single core, so any shard request coerces
    to one shard and takes the in-process path — included to pin that
    degenerate behaviour too.
    """
    assert measure(name, shards=shards) == golden[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", ["matmul_base_h16_c4", "re_contention_c1"])
def test_golden_digests_reference_sharded(name, golden):
    """The façade forwards the selector: shard workers tick the reference
    too."""
    assert measure(name, shards=2, backend="interp") == golden[name]


def _setget_machine(shards=None, trace=True):
    program = compile_to_program(setget_source(16, 64), "setget.c")
    machine = LBP(Params(num_cores=4), trace=trace,
                  shards=shards).load(program)
    return machine, program


def test_pause_snapshot_resume_across_shard_counts():
    """Pause under shards=2; the snapshot resumes bit-identically under
    shards=1 (plain restore) and loaded into a shards=4 machine."""
    reference, _ = _setget_machine()
    reference.run(max_cycles=MAX_CYCLES)
    want_digest = trace_digest(reference.trace.events)
    want_state = reference.state_dict()

    paused, _ = _setget_machine(shards=2)
    paused.run(max_cycles=MAX_CYCLES, stop_at_cycle=5000)
    assert not paused.halted and paused.cycle == 5000
    blob = snapshot(paused)

    # also: pausing sharded is bit-identical to pausing in-process
    seq_paused, _ = _setget_machine()
    seq_paused.run(max_cycles=MAX_CYCLES, stop_at_cycle=5000)
    assert snapshot(seq_paused) == blob

    resumed = restore(blob)  # a plain LBP: shards=1 resume
    resumed.run(max_cycles=MAX_CYCLES)
    assert trace_digest(resumed.trace.events) == want_digest
    assert resumed.state_dict() == want_state

    # the snapshot supplies the shape and the program, not the caller
    source = restore(blob)
    resharded = LBP(source.params, shards=4).load(source.program,
                                                  start=False)
    resharded.load_state_dict(source.state_dict())
    resharded.run(max_cycles=MAX_CYCLES)
    assert trace_digest(resharded.trace.events) == want_digest
    assert resharded.state_dict() == want_state
    verify_setget(resharded, 16, 64)


def test_periodic_snapshots_identical_to_sequential():
    cycles = {}
    blobs = {}
    for shards in (None, 2):
        machine, _ = _setget_machine(shards=shards)
        taken = []
        payloads = []

        def take(m, taken=taken, payloads=payloads):
            taken.append(m.cycle)
            payloads.append(snapshot(m))

        machine.run(max_cycles=MAX_CYCLES, snapshot_every=3000,
                    snapshot_callback=take)
        cycles[shards] = taken
        blobs[shards] = payloads
    assert cycles[None] == cycles[2] and cycles[None]
    assert blobs[None] == blobs[2]


def test_cycle_limit_parity():
    messages = {}
    final_cycle = {}
    for shards in (None, 2):
        machine, _ = _setget_machine(shards=shards, trace=False)
        with pytest.raises(MachineError) as err:
            machine.run(max_cycles=4000)
        messages[shards] = str(err.value)
        final_cycle[shards] = machine.cycle
    assert messages[None] == messages[2]
    assert "cycle limit exceeded (4000)" in messages[None]
    assert final_cycle[None] == final_cycle[2]


ERROR_PROGRAM = """
main:
    li   t0, 0x100
    jr   t0
"""

DEADLOCK_PROGRAM = """
main:
    p_lwre t1, 0
    ebreak
"""


@pytest.mark.parametrize("source,exc", [
    (ERROR_PROGRAM, MachineError),
    (DEADLOCK_PROGRAM, DeadlockError),
])
def test_error_and_deadlock_parity(source, exc):
    """Errors and deadlocks surface with the sequential run's exact
    message and cycle, no matter which shard raised them."""
    outcomes = {}
    for shards in (None, 2):
        machine = LBP(Params(num_cores=4), shards=shards)
        machine.load(assemble(source))
        with pytest.raises(exc) as err:
            machine.run(max_cycles=MAX_CYCLES)
        outcomes[shards] = (str(err.value), machine.cycle)
    assert outcomes[None] == outcomes[2]


def test_fast_forward_engages_and_is_invisible():
    """The widened epochs actually fire and change nothing observable.

    Under the 2-cycle conservative lookahead an *active* shard always
    publishes ``cycle + EPOCH_WIDTH``, so widening only happens in
    globally quiet windows (every shard idle with only far-future
    events in flight) — rare but real; the end-of-run drain reaches it.
    The digest equality doubles as the horizon-edge proof: every event
    posted at the last cycle before a horizon merges at the widened
    barrier exactly where the sequential engine handles it.
    """
    machine, _ = _setget_machine(shards=2)
    machine.run(max_cycles=MAX_CYCLES)
    stats = machine.transport_stats
    assert stats["epochs"] > 0
    assert stats["ff_epochs"] >= 1, "fast-forward never engaged"
    assert stats["ff_cycles"] >= stats["ff_epochs"]
    reference, _ = _setget_machine()
    reference.run(max_cycles=MAX_CYCLES)
    assert (trace_digest(machine.trace.events)
            == trace_digest(reference.trace.events))
    assert snapshot(machine) == snapshot(reference)


def test_stop_at_cycle_lands_exactly_despite_fast_forward():
    """A pause target inside a widened (or idle) window must not be
    overshot: the barrier clips to ``stop_at_cycle`` before widening.

    Pins the repaired latent bug where the old post-barrier idle jump
    could sail past a pause/snapshot point during a quiet window.
    """
    reference, _ = _setget_machine()
    reference.run(max_cycles=MAX_CYCLES)
    halt_cycle = reference.cycle
    # the machine's final cycles drain through the quiet window where
    # widening fires — stop just short of the halt
    for stop in (halt_cycle - 1, halt_cycle - 3):
        seq, _ = _setget_machine()
        seq.run(max_cycles=MAX_CYCLES, stop_at_cycle=stop)
        shd, _ = _setget_machine(shards=2)
        shd.run(max_cycles=MAX_CYCLES, stop_at_cycle=stop)
        assert shd.cycle == seq.cycle == stop
        assert snapshot(shd) == snapshot(seq)


def test_snapshot_cadence_unchanged_by_shard_count():
    """Periodic snapshot barriers land mid-run (including inside quiet
    windows) at identical cycles with identical bytes on every shard
    count."""
    want = None
    for shards in (None, 2, 4):
        machine, _ = _setget_machine(shards=shards)
        taken = []

        def take(m, taken=taken):
            taken.append((m.cycle, snapshot(m)))

        machine.run(max_cycles=MAX_CYCLES, snapshot_every=1777,
                    snapshot_callback=take)
        assert taken, "no snapshots fired"
        if want is None:
            want = taken
        else:
            assert taken == want, shards


DELAYED_ERROR_PROGRAM = """
main:
    li   t0, 200
spin:
    addi t0, t0, -1
    bne  t0, zero, spin
    li   t0, 0x100
    jr   t0
"""


def test_error_election_with_idle_unbounded_peers():
    """An error raised while every other shard is idle with *unbounded*
    horizons (no heap events, no outbox) elects symmetrically at the
    sequential cycle — the ``None`` horizons must not widen past the
    erroring shard's barrier."""
    outcomes = {}
    for shards in (None, 2, 4):
        machine = LBP(Params(num_cores=4), shards=shards)
        machine.load(assemble(DELAYED_ERROR_PROGRAM))
        with pytest.raises(MachineError) as err:
            machine.run(max_cycles=MAX_CYCLES)
        outcomes[shards] = (str(err.value), machine.cycle)
    assert outcomes[None] == outcomes[2] == outcomes[4]


def test_shard_count_coerced_to_core_count():
    machine, _ = _setget_machine(shards=64)
    assert isinstance(machine, ShardedLBP)
    assert machine.shards == 4  # never more than one core per shard


@pytest.mark.parametrize("bad", [0, -3, 2.7, 1.0, "2", "auto", True])
@pytest.mark.parametrize("build", [LBP, ShardedLBP])
def test_shard_count_is_validated_not_coerced(build, bad):
    """A float, a string or a bool is not a shard count, even one that
    compares equal to 1 and would route to the in-process machine."""
    with pytest.raises(ValueError, match="positive integer"):
        build(Params(num_cores=4), shards=bad)


def _child_pids():
    """Pids of this process's children, zombies included (from /proc)."""
    own = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                # the command, in parentheses, may hold spaces
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # gone since the listing
            continue
        if int(fields[1]) == own:
            found.add(int(entry))
    return found


SPIN_PROGRAM = """
main:
    li   t0, 0x7fffffff
spin:
    addi t0, t0, -1
    bne  t0, zero, spin
    ebreak
"""


def test_killed_worker_is_a_typed_clean_failure():
    """SIGKILL one shard worker mid-run: the run ends in MachineError
    promptly, leaves no child process and no open fd behind, and the next
    sharded run in this process is correct."""
    children = _child_pids()
    open_fds = len(os.listdir("/proc/self/fd"))
    killed_at = []

    def kill_one_worker():
        os.kill(max(_child_pids() - children), signal.SIGKILL)
        killed_at.append(time.monotonic())

    machine = LBP(Params(num_cores=4), shards=2).load(assemble(SPIN_PROGRAM))
    timer = threading.Timer(0.5, kill_one_worker)
    timer.start()
    try:
        with pytest.raises(MachineError, match="worker crashed"):
            # a timer that misses ends in "cycle limit", not in a hang
            machine.run(max_cycles=2_000_000)
        raised_at = time.monotonic()
    finally:
        timer.cancel()
        timer.join()
    assert killed_at, "the run ended before the timer fired"
    assert raised_at - killed_at[0] < 5.0
    assert _child_pids() == children
    assert len(os.listdir("/proc/self/fd")) == open_fds

    reference, _ = _setget_machine(trace=False)
    reference.run(max_cycles=MAX_CYCLES)
    again, _ = _setget_machine(shards=2, trace=False)
    again.run(max_cycles=MAX_CYCLES)
    assert again.halted and again.cycle == reference.cycle
    assert _child_pids() == children


def test_sharded_engine_refuses_mmio_devices():
    machine = LBP(Params(num_cores=4), shards=2)
    with pytest.raises(MachineError):
        machine.add_device(0x4000_0000, object())
