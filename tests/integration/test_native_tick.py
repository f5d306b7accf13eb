"""The compiled tick and cycle window as C: what parity tests cannot see.

``test_reference_parity.py`` holds ``machine/_tick.c`` and
``machine/_window.h`` to the reference tick and loop bit for bit.  This
file checks the rest of the contract a CPython extension has: it
balances every reference, errors cross the boundary as the exceptions
the reference raises, what a test replaces (a tick, an event handler) is
what runs, a host that cannot build it falls back (once, loudly), two
processes may build it at the same time, and a rebuild leaves no dead
binary behind.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings

import pytest

import repro
from repro import memmap
from repro.asm import assemble
from repro.machine import LBP, MachineError, Params, native, processor
from repro.machine.core import Core
from repro.machine.hart import Entry
from repro.machine.memory import Bank, Port
from repro.machine.reference import ReferenceCore
from repro.observe import Metrics

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import GOLDEN_PATH, measure  # noqa: E402
from test_snapshot_roundtrip import (  # noqa: E402
    _assert_matches_golden, _build, _fresh)

compiled = pytest.mark.skipif(
    native.load() is None, reason="no compiled tick: " + native.status()[1])


#: hart 0 forks one hart on the next core (p_fn: token request at decode,
#: CV writes over the forward link), which reads a word of the code bank
#: (an access only the Python schedule_load spells), stores a flag and
#: joins back
FORK_JOIN = """
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0, t0
    p_fn t6
    la   t1, rp
    p_swcv t6, t1, 0
    p_swcv t6, t0, 4
    p_merge t0, t0, t6
    p_syncm
    la   a0, child
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4
    la   t2, flag
    li   t3, 1
    sw   t3, 0(t2)
    p_ret
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret
child:
    lw  t4, 0(zero)
    li  t3, 21
    mul t3, t3, t3
    p_ret
.data
flag: .word 0
"""


REMOTE_BANK = memmap.GLOBAL_BASE + memmap.GLOBAL_BANK_SIZE

#: core 0 stores to and loads from core 1's shared bank in a loop: every
#: access a remote request, bank operation and reply or ack
REMOTE_HEAVY = """
main:
    li   a0, %d
    li   t1, 40
loop:
    sw   t1, 0(a0)
    lw   t2, 0(a0)
    sh   t2, 6(a0)
    lb   t3, 6(a0)
    addi a0, a0, 8
    addi t1, t1, -1
    bnez t1, loop
    ebreak
""" % REMOTE_BANK


def _run(source, backend=None, cores=2, **engine):
    machine = LBP(Params(num_cores=cores), backend=backend,
                  **engine).load(assemble(source))
    return machine, machine.run(max_cycles=100_000)


# ---- reference counts ----------------------------------------------------------


#: the ways a run reaches the C: plain and metered (memory accesses
#: native), and the three that send every access back to Python
ENGINES = ({}, {"metrics": True}, {"trace": True}, {"sanitize": True},
           {"shards": 2})


def _assert_no_leak(once, runs, slack):
    """Call ``once(run)`` *runs* times: past the warm-up, the counts of
    None, True and False stay within *slack* and no object accumulates."""
    singletons = (None, True, False)
    counts = objects = None
    for run in range(1, runs + 1):
        once(run)
        gc.collect()
        if run == runs // 2:
            counts = [sys.getrefcount(obj) for obj in singletons]
            objects = len(gc.get_objects())
    for before, obj in zip(counts, singletons):
        assert abs(sys.getrefcount(obj) - before) <= slack, obj
    assert len(gc.get_objects()) <= objects


@compiled
def test_twenty_runs_leak_no_reference_and_no_object():
    """None, True and False are written into slots thousands of times per
    run; before 3.12 each is an ordinary counted object, so one missing
    INCREF frees a singleton and one missing DECREF leaks per tick."""
    def once(run):
        engine = ENGINES[run % len(ENGINES)]
        machine = LBP(Params(num_cores=2), **engine).load(assemble(FORK_JOIN))
        stats = machine.run(max_cycles=100_000)
        assert stats.forks == 1 and stats.retired > 20
        parked, bound = native.load().parked_entries()
        assert 0 < parked <= bound
        machine = LBP(Params(num_cores=2), **engine).load(
            assemble(REMOTE_HEAVY))
        stats = machine.run(max_cycles=100_000)
        assert stats.remote_accesses == 160 and stats.retired > 200

    _assert_no_leak(once, runs=20, slack=50)


# ---- recycled entries, shared boxes: none of it observable --------------------------


def _fields(entry):
    return {name: getattr(entry, name) for name in Entry.__slots__}


def _in_flight(machine):
    return sum(len(hart.rob) for core in machine.cores for hart in core.harts)


@compiled
def test_an_entry_python_still_holds_is_never_recycled(monkeypatch):
    """commit parks a retired ``Entry`` for rename only while the tick
    holds the last reference.  One that ``_commit_p_ret`` stashed, and one
    read out of ``hart.rob`` before it committed, stay what they were
    while the run goes on renaming into the parked ones."""
    stashed = []
    inner = Core._commit_p_ret

    def stash(core, hart, head):
        stashed.append((head, _fields(head)))
        return inner(core, hart, head)

    monkeypatch.setattr(Core, "_commit_p_ret", stash)
    machine = LBP(Params(num_cores=2)).load(assemble(FORK_JOIN))
    hart = machine.cores[0].harts[0]
    while not hart.rob:
        machine.run(max_cycles=100_000, stop_at_cycle=machine.cycle + 1)
    held = hart.rob[0]
    while hart.rob and hart.rob[0] is held:
        machine.run(max_cycles=100_000, stop_at_cycle=machine.cycle + 1)
    committed = _fields(held)
    assert committed["done"] is True and committed["issued"] is True
    retired = machine.stats.retired
    machine.run(max_cycles=100_000)
    assert machine.stats.retired > retired + 20 and len(stashed) >= 3
    assert _fields(held) == committed
    for head, fields in stashed:
        assert fields["ret_action"] is not None
        assert _fields(head) == fields
    assert len({id(head) for head, _ in stashed} | {id(held)}) \
        == len(stashed) + 1
    # and the others were parked: the run ended with its pipeline drained
    assert native.load().parked_entries()[0] > 0


@compiled
def test_two_machines_taking_turns_end_on_their_golden_digests():
    """The parked entries are one pool per process and the window boxes
    ``cycle + 1`` once per call: two machines advanced alternately share
    the first and never the second, and neither run can tell."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    strides = {"matmul_tiled_h16_c4": 997, "re_contention_c1": 13}
    machines = {name: _fresh(name) for name in strides}
    turns = 0
    while not all(machine.halted for machine in machines.values()):
        for name, machine in machines.items():
            if not machine.halted:
                machine.run(max_cycles=50_000_000,
                            stop_at_cycle=machine.cycle + strides[name])
                turns += 1
    assert turns > 40
    for name, machine in machines.items():
        _assert_matches_golden(machine, machine.stats, golden[name])


@compiled
def test_the_parked_entries_never_exceed_their_bound():
    """Pause enough machines mid-run that more entries are in flight than
    the pool may hold, then finish them: all but the few a halt leaves in a
    ROB retire, and the pool stops at its bound."""
    tick = native.load()
    bound = tick.parked_entries()[1]
    program, cores = _build("matmul_tiled_h16_c4")
    machines = []
    while sum(map(_in_flight, machines)) <= bound + 20:
        machine = LBP(Params(num_cores=cores)).load(program)
        machine.run(max_cycles=50_000_000, stop_at_cycle=3000)
        machines.append(machine)
        assert len(machines) < 40
    cycles = {machine.run(max_cycles=50_000_000).cycles
              for machine in machines}
    assert len(cycles) == 1
    assert tick.parked_entries() == (bound, bound)


# ---- errors cross the boundary ---------------------------------------------------

BAD_FETCH = """
main:
    li t1, 0x1000
    jr t1
"""

ECALL = """
main:
    ecall
"""


@compiled
@pytest.mark.parametrize("source", [BAD_FETCH, ECALL])
def test_machine_errors_equal_the_reference(source):
    outcomes = {}
    for backend in ("soa", "interp"):
        machine = LBP(Params(num_cores=1), backend=backend).load(
            assemble(source))
        with pytest.raises(MachineError) as err:
            machine.run(max_cycles=10_000)
        outcomes[backend] = (str(err.value), machine.cycle,
                             machine.state_dict())
    assert outcomes["soa"] == outcomes["interp"]


@compiled
def test_state_fetched_from_a_non_code_address_restores_like_the_reference():
    """``lowered_at`` builds the fault path's ebreak through the one
    ``LoweredInstr`` constructor, so its decode-time objects exist on a
    restored fetch buffer too.  The error put aside, that ebreak goes
    through rename and commit the same on both ticks."""
    faulted = LBP(Params(num_cores=1)).load(assemble(BAD_FETCH))
    with pytest.raises(MachineError, match="non-code address 0x1000"):
        faulted.run(max_cycles=10_000)
    state = faulted.state_dict()
    assert state["cores"][0]["harts"][0]["fetch_buf"] == 0x1000
    outcomes = {}
    for backend in ("soa", "interp"):
        machine = LBP(Params(num_cores=1), backend=backend).load(
            assemble(BAD_FETCH))
        machine.load_state_dict(state)
        pc, low = machine.cores[0].harts[0].fetch_buf
        assert (pc, low.mnemonic, low.fetch_pair) == (0x1000, "ebreak",
                                                      (0x1000, low))
        assert machine.state_dict() == state
        with pytest.raises(MachineError) as err:
            machine.run(max_cycles=10_000)
        assert str(err.value) == state["error"]
        machine._error = machine._error_key = None
        machine.run(max_cycles=10_000)
        assert machine.halt_reason == "ebreak"
        outcomes[backend] = (machine.cycle, machine.state_dict())
    assert outcomes["soa"] == outcomes["interp"]


class Boom(Exception):
    pass


@compiled
@pytest.mark.parametrize("method", ["_execute", "_commit_p_ret"])
def test_an_exception_in_a_callback_propagates(monkeypatch, method):
    """``Core._execute`` / ``_commit_p_ret`` are calls back into Python:
    what they raise comes out of ``run()``, under either tick, and the
    machine is left usable enough to be inspected."""
    def boom(*args):
        raise Boom(method)

    monkeypatch.setattr(Core, method, boom)
    for backend in ("soa", "interp"):
        machine = LBP(Params(num_cores=2), backend=backend).load(
            assemble(FORK_JOIN))
        with pytest.raises(Boom, match=method):
            machine.run(max_cycles=100_000)
        assert machine.state_dict()["cycle"] >= 0


#: where Python runs under the window: an event handler, the idle-span
#: settlement of a gated core an event wakes (metered runs), the metrics
#: object, and schedule_load for an access the native path declines
RAISERS = {
    "handler": lambda patch, boom: patch.setitem(
        processor.EVENT_HANDLERS, "fork_req", boom),
    "native_kind_handler": lambda patch, boom: patch.setitem(
        processor.EVENT_HANDLERS, "load_done", boom),
    "settle_idle": lambda patch, boom: patch.setattr(
        Core, "settle_idle", boom),
    "metrics.idle": lambda patch, boom: patch.setattr(Metrics, "idle", boom),
    "schedule_load": lambda patch, boom: patch.setattr(
        LBP, "schedule_load", boom),
}


@compiled
@pytest.mark.parametrize("where", sorted(RAISERS))
def test_an_exception_under_the_window_propagates_and_leaks_nothing(
        monkeypatch, where):
    def boom(*args):
        raise Boom(where)

    def once(run):
        # (FORK_JOIN's code-bank load goes through schedule_load on every
        # path)
        machine = LBP(Params(num_cores=2), metrics=True,
                      backend="soa" if run % 4 else "interp").load(
                          assemble(FORK_JOIN))
        RAISERS[where](monkeypatch, boom)
        with pytest.raises(Boom, match=where):
            machine.run(max_cycles=100_000)
        monkeypatch.undo()
        assert machine.state_dict()["cycle"] >= 0

    # a raise-and-catch round trip moves None's count by a few on the pure
    # Python path too; a reference dropped per tick or per event would move
    # it by thousands
    _assert_no_leak(once, runs=12, slack=100)


@compiled
def test_state_the_window_cannot_read_is_an_exception_not_a_crash():
    def machine():
        return LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))

    broken = machine()
    broken._events = None
    with pytest.raises(TypeError, match="compiled window"):
        broken.run(max_cycles=100)
    broken = machine()
    broken._events = [("load_done",)]
    with pytest.raises(TypeError, match="compiled tick"):
        broken.run(max_cycles=100)
    broken = machine()
    broken._active_cores = 5  # run() resets it: call the window itself
    with pytest.raises(TypeError, match="compiled tick"):
        broken._simulate(0, 10, broken.cores)
    broken = machine()
    del broken._halt_at
    with pytest.raises(AttributeError, match="_halt_at"):
        broken.run(max_cycles=100)
    broken = machine()
    broken.cores[0].mem.local_port.next_free = "soon"
    with pytest.raises(TypeError):
        broken.run(max_cycles=100)
    broken = machine()
    broken.cores[0].mem.local.data = b"frozen"
    with pytest.raises(TypeError, match="compiled tick"):
        broken.run(max_cycles=100)
    with pytest.raises(TypeError):
        broken._simulate(0, 10, tuple(broken.cores))
    with pytest.raises(TypeError):
        LBP._simulate(object(), 0, 10, [])
    # the link scheduler a remote request reserves its path on
    remote = LBP(Params(num_cores=2)).load(assemble(REMOTE_HEAVY))
    remote.cores[0].links._links = [("c>r1", 0)]
    with pytest.raises(TypeError, match="compiled tick"):
        remote.run(max_cycles=1000)
    remote = LBP(Params(num_cores=2)).load(assemble(REMOTE_HEAVY))
    port = remote.cores[0].links._links[("c>r1", 0)] = Port()
    port.next_free = "soon"
    with pytest.raises(TypeError):
        remote.run(max_cycles=1000)
    # nothing above left the machine class in a bad way
    assert machine().run(max_cycles=1000).retired == 6


# ---- what a test replaces is what runs -------------------------------------------

STACK_TRAFFIC = """
main:
    li  t1, 77
    sw  t1, -4(sp)
    lw  t2, -4(sp)
    sw  t2, -8(sp)
    lw  t3, -8(sp)
    ebreak
"""


def _count_calls(monkeypatch, owner, name, item=False, calls=None):
    calls = [] if calls is None else calls
    inner = owner[name] if item else getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return inner(*args)

    if item:
        monkeypatch.setitem(owner, name, counted)
    else:
        monkeypatch.setattr(owner, name, counted)
    return calls


@compiled
def test_private_bank_accesses_stay_in_c_unless_observed(monkeypatch):
    """Untraced, unsanitized, no device: the issue, the post and the three
    event kinds of a stack access run no Python at all.  Traced or
    sanitized, every one of them is the Python spelling."""
    issued = _count_calls(monkeypatch, LBP, "schedule_load")
    _count_calls(monkeypatch, LBP, "schedule_store", calls=issued)
    posted = _count_calls(monkeypatch, LBP, "post")
    handled = _count_calls(monkeypatch, LBP, "hart_by_gid")
    states = []
    for engine in ({}, {"sanitize": True}, {"backend": "interp"}):
        del issued[:], posted[:], handled[:]
        machine = LBP(Params(num_cores=1), **engine).load(
            assemble(STACK_TRAFFIC))
        stats = machine.run(max_cycles=1000)
        assert (machine.cores[0].harts[0].regs[28], stats.retired) == (77, 6)
        if engine:
            assert (len(issued), len(posted), len(handled)) == (4, 6, 6)
            machine.sanitizer = None
        else:
            assert issued == posted == handled == []
        states.append(machine.state_dict())
    assert states[0] == states[1] == states[2]


REMOTE_TRAFFIC = """
main:
    li  t0, %d
    li  t1, 77
    sw  t1, 0(t0)
    lw  t2, 0(t0)
    sw  t2, 4(t0)
    lw  t3, 4(t0)
    ebreak
""" % REMOTE_BANK


@compiled
def test_remote_accesses_stay_in_c_unless_observed(monkeypatch):
    """Plain or metered, the issue of a remote load or store, its request,
    bank operation and reply or ack run no Python handler and post nothing
    from Python.  Traced or sanitized, every one is the Python spelling:
    two loads and two stores, three posts and one hart lookup each."""
    issued = _count_calls(monkeypatch, LBP, "schedule_load")
    _count_calls(monkeypatch, LBP, "schedule_store", calls=issued)
    posted = _count_calls(monkeypatch, LBP, "post")
    handled = _count_calls(monkeypatch, LBP, "hart_by_gid")
    states = []
    for engine in ({}, {"metrics": True}, {"trace": True},
                   {"sanitize": True}, {"backend": "interp"}):
        del issued[:], posted[:], handled[:]
        machine = LBP(Params(num_cores=2), **engine).load(
            assemble(REMOTE_TRAFFIC))
        stats = machine.run(max_cycles=1000)
        assert (machine.cores[0].harts[0].regs[28], stats.retired) == (77, 7)
        assert stats.remote_accesses == 4
        if "trace" in engine or "sanitize" in engine or "backend" in engine:
            assert (len(issued), len(posted), len(handled)) == (4, 12, 4)
        else:
            assert issued == posted == handled == []
        state = machine.state_dict()
        for observer in ("trace", "sanitize", "observe"):
            del state[observer]
        states.append(state)
    assert all(state == states[0] for state in states)


@compiled
def test_a_replaced_handler_and_a_replaced_tick_are_what_runs(monkeypatch):
    plain = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    plain.run(max_cycles=1000)
    done = _count_calls(monkeypatch, processor.EVENT_HANDLERS, "load_done",
                        item=True)
    ticks = _count_calls(monkeypatch, Core, "tick")
    machine = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    machine.run(max_cycles=1000)
    assert len(done) == 2 and len(ticks) > 10
    assert machine.state_dict() == plain.state_dict()
    monkeypatch.undo()
    # and the tick stays callable on its own, outside any window
    machine = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    assert Core.tick(machine.cores[0]) is True
    assert machine.cores[0].harts[0].fetch_buf is not None


@compiled
def test_state_the_tick_cannot_read_is_an_exception_not_a_crash():
    machine = LBP(Params(num_cores=1)).load(assemble(ECALL))
    machine.cores[0].harts[0].rob = None
    with pytest.raises(TypeError, match="compiled tick"):
        machine.run(max_cycles=100)
    machine = LBP(Params(num_cores=1)).load(assemble(ECALL))
    del machine.cores[0].harts[0].fetch_ok
    with pytest.raises(AttributeError, match="compiled tick"):
        machine.run(max_cycles=100)
    with pytest.raises(TypeError):
        Core.tick(object())


# ---- a host that cannot build it ---------------------------------------------------


def _no_compiler(monkeypatch, tmp_path):
    def no_compiler(target):
        raise OSError("no C compiler in this test")

    monkeypatch.setattr(native, "_build_dirs", lambda: (str(tmp_path),))
    monkeypatch.setattr(native, "_compile", no_compiler)
    return "no C compiler in this test"


def _miscompiled_window(monkeypatch, tmp_path):
    """The binary builds and loads, but its machine run differs from the
    reference loop's (here: a reference loop that miscounts)."""
    inner = LBP._reference_simulate

    def off_by_one(self, cycle, barrier, cores):
        self.stats.harts[0][0].retired += 1
        return inner(self, cycle, barrier, cores)

    monkeypatch.setattr(LBP, "_reference_simulate", off_by_one)
    return "smoke run"


def _miscompiled_remote_path(monkeypatch, tmp_path):
    """Only the remote load of the smoke run differs (here: the reference's
    shared banks read one more than their bytes, which the native
    bank_read reads directly): the remote access is compared, not merely
    run."""
    inner = Bank.read

    def off_by_one(bank, addr, width):
        value = inner(bank, addr, width)
        return value + 1 if bank.name.startswith("shared") else value

    monkeypatch.setattr(Bank, "read", off_by_one)
    return "smoke run"


@pytest.mark.parametrize("fault", [
    _no_compiler, pytest.param(_miscompiled_window, marks=compiled),
    pytest.param(_miscompiled_remote_path, marks=compiled)])
def test_fallback_builds_reference_cores_and_warns_once(
        monkeypatch, tmp_path, fault):
    """No compiler (here: a compile step that fails) is a supported
    platform, and so is a compiler whose output does not survive the
    smoke run: one RuntimeWarning per process names the reason, every
    machine is built on the reference tick, the digests hold."""
    before = native.status()[0]
    reason = fault(monkeypatch, tmp_path)
    native._load.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert native.load() is None
            monkeypatch.undo()
            machines = [LBP(Params(num_cores=2)) for _ in range(3)]
            assert native.status()[0] == "reference"
            assert reason in native.status()[1]
            with open(GOLDEN_PATH) as handle:
                golden = json.load(handle)
            for name in ("re_contention_c1", "stencil_h8_c2"):
                assert measure(name) == golden[name]
        assert all(type(core) is ReferenceCore
                   for machine in machines for core in machine.cores)
        assert all(machine._simulate.__func__ is LBP._reference_simulate
                   for machine in machines)
        told = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(told) == 1
        assert reason in str(told[0].message)
    finally:
        monkeypatch.undo()
        native._load.cache_clear()  # the next load() finds the real one
    assert native.status()[0] == before


# ---- two processes build it at once ------------------------------------------------

RACER = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.asm import assemble
from repro.machine import LBP, Params, native
assert native.status()[0] == "native", native.status()
assert native.status()[1].startswith(sys.argv[1]), native.status()
machine = LBP(Params(num_cores=1)).load(assemble(
    "main:\\n    li t1, 40\\nloop:\\n    addi t1, t1, -1\\n"
    "    bnez t1, loop\\n    ebreak\\n"))
print(machine.run().cycles)
"""


@compiled
def test_two_processes_racing_to_build_both_run(tmp_path):
    """A temp copy of the package with an empty build directory (never the
    checkout's): both importers may compile, each renames a whole file
    into place, both load a working extension."""
    root = tmp_path / "src"
    shutil.copytree(
        os.path.dirname(os.path.abspath(repro.__file__)), root / "repro",
        ignore=shutil.ignore_patterns("_native", "__pycache__"))
    racers = [
        subprocess.Popen([sys.executable, "-c", RACER, str(root)],
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
        for _ in range(2)]
    outputs = [racer.communicate(timeout=120) for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0], outputs
    cycles = {int(out) for out, _ in outputs}
    assert len(cycles) == 1 and cycles.pop() > 100
    built = os.listdir(root / "repro" / "machine" / "_native")
    assert len(built) == 1 and not built[0].endswith(".partial")


@compiled
def test_a_build_sweeps_dead_binaries_and_every_source_is_in_the_digest(
        tmp_path):
    """Same temp copy.  A build unlinks the binaries of other digests for
    this Python (and only those); touching the included header -- not
    ``_tick.c`` -- changes the digest, so a stale binary is never loaded."""
    root = tmp_path / "src"
    machine_dir = root / "repro" / "machine"
    shutil.copytree(
        os.path.dirname(os.path.abspath(repro.__file__)), root / "repro",
        ignore=shutil.ignore_patterns("_native", "__pycache__"))
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    dead = "_tick-%s%s" % ("0" * 16, suffix)
    other_python = "_tick-%s.cpython-27-other.so" % ("0" * 16)
    os.mkdir(machine_dir / "_native")
    for name in (dead, other_python):
        (machine_dir / "_native" / name).write_bytes(b"not a binary")

    def build():
        done = subprocess.run(
            [sys.executable, "-c", RACER, str(root)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=120)
        assert done.returncode == 0, done.stderr
        names = set(os.listdir(machine_dir / "_native"))
        assert other_python in names and dead not in names
        (ours,) = names - {other_python}
        return ours

    first = build()
    assert build() == first  # found, not rebuilt
    with open(machine_dir / "_window.h", "a") as handle:
        handle.write("/* edited */\n")
    assert build() != first
