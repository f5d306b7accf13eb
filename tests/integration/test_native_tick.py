"""The compiled tick and cycle window as C: what parity tests cannot see.

The parity harness (``tests/parity.py``) holds ``machine/_tick.c`` and
``machine/_window.h`` to the reference tick and loop bit for bit.  This
file checks the rest of the contract a CPython extension has: it
balances every reference, errors cross the boundary as the exceptions
the reference raises, what a test replaces (a tick, an event handler) is
what runs, a host that cannot build it falls back (once, loudly), two
processes may build it at the same time, and a rebuild leaves no dead
binary behind.
"""

import collections
import gc
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
from repro.machine import (
    LBP, MachineError, Params, memory, native, processor, router)
from repro.machine.core import Core
from repro.machine.hart import Entry
from repro.machine.memory import Bank, Port
from repro.machine.reference import ReferenceCore
from repro.observe import Metrics
from repro.snapshot import restore, snapshot

from helpers import compiled, devices_in_python
import parity
from parity import (
    BAD_FETCH, ECALL, FORK_JOIN, REMOTE_HEAVY,
    STACK_TRAFFIC, TEAM_KINDS, TEAM_TRAFFIC, fields, in_flight, measure,
    program, well_formed_heap)

#: the directory the ``repro`` package is in, for subprocesses
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# ---- reference counts ----------------------------------------------------------


#: the ways a run reaches the C: each observer and each engine of the
#: parity harness
WAYS = list(parity.OBSERVERS.values()) + [
    lambda engine=engine: engine.kwargs for engine in parity.ENGINES.values()]


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
        engine = WAYS[run % len(WAYS)]()
        machine = LBP(Params(num_cores=2), **engine).load(assemble(FORK_JOIN))
        stats = machine.run(max_cycles=100_000)
        assert stats.forks == 1 and stats.retired > 20
        machine = LBP(Params(num_cores=2), **engine).load(
            assemble(REMOTE_HEAVY))
        stats = machine.run(max_cycles=100_000)
        assert stats.remote_accesses == 160 and stats.retired > 200

    _assert_no_leak(once, runs=20, slack=50)


# ---- entries made when Python looks, shared boxes: none of it observable ------------


@compiled
def test_an_entry_python_still_holds_is_never_recycled(monkeypatch):
    """An in-flight instruction gets its ``Entry`` only where Python can
    see it, and the tick never reuses one.  One that ``_commit_p_ret``
    stashed (called for every p_ret of a machine whose devices are in a
    DeviceTable), and one read out of ``hart.rob`` before it committed,
    stay what they were while the run goes on."""
    stashed = []
    inner = Core._commit_p_ret

    def stash(core, hart, head):
        stashed.append((head, fields(head)))
        return inner(core, hart, head)

    monkeypatch.setattr(Core, "_commit_p_ret", stash)
    machine = devices_in_python(LBP(Params(num_cores=2)).load(
        assemble(FORK_JOIN)))
    hart = machine.cores[0].harts[0]
    while not hart.rob:
        machine.run(max_cycles=100_000, stop_at_cycle=machine.cycle + 1)
    held = hart.rob[0]
    while hart.rob and hart.rob[0] is held:
        machine.run(max_cycles=100_000, stop_at_cycle=machine.cycle + 1)
    committed = fields(held)
    assert committed["done"] is True and committed["issued"] is True
    retired = machine.stats.retired
    machine.run(max_cycles=100_000)
    assert machine.stats.retired > retired + 20 and len(stashed) >= 3
    assert fields(held) == committed
    for head, stashed_fields in stashed:
        assert stashed_fields["ret_action"] is not None
        assert fields(head) == stashed_fields
    assert len({id(head) for head, _ in stashed} | {id(held)}) \
        == len(stashed) + 1


@compiled
def test_two_machines_taking_turns_end_on_their_golden_digests(golden):
    """The window keeps its decode records and boxes of ``cycle + 1`` per
    call, its rings per view: two machines advanced alternately share none
    of them, and neither run can tell."""
    strides = {"matmul_tiled_h16_c4": 997, "re_contention_c1": 13}
    machines = {name: parity.machine(name, ("traced",), "native")
                for name in strides}
    turns = 0
    while not all(machine.halted for machine in machines.values()):
        for name, machine in machines.items():
            if not machine.halted:
                machine.run(max_cycles=50_000_000,
                            stop_at_cycle=machine.cycle + strides[name])
                turns += 1
    assert turns > 40
    for name, machine in machines.items():
        assert parity.summary(machine) == golden[name]


def _entries_alive():
    gc.collect()
    return sum(type(obj) is Entry for obj in gc.get_objects())


@compiled
def test_an_entry_lives_only_where_python_can_see_it():
    """Paused mid-run, every in-flight instruction is an Entry in its hart's
    ROB and the window kept none besides; finished, the Entries left are
    the ones the halt left in a ROB.  (Made per pause, freed at commit:
    nothing is parked or pooled.)"""
    before = _entries_alive()
    machines = []
    for pause in (1000, 2000, 3000):
        machine = LBP(Params(num_cores=4)).load(program("matmul_tiled_h16_c4"))
        machine.run(max_cycles=50_000_000, stop_at_cycle=pause)
        machines.append(machine)
    flying = [len(in_flight(machine)) for machine in machines]
    assert sum(flying) > 20
    assert _entries_alive() - before == sum(flying)
    cycles = {machine.run(max_cycles=50_000_000).cycles
              for machine in machines}
    assert len(cycles) == 1
    assert _entries_alive() - before == sum(
        len(in_flight(machine)) for machine in machines)


def _hold_args(machine):
    """Give every pending event of *machine* args of its own: an equal new
    tuple, which the caller holds (the list returned) and nothing else
    does."""
    held = []
    for i, (cycle, origin, oseq, dst, kind, args) in enumerate(
            machine._events):
        held.append(tuple(list(args)))
        machine._events[i] = (cycle, origin, oseq, dst, kind, held[-1])
    return held


def _assert_only_held(held, machine):
    """Each held args tuple is referenced by the list, the loop, the call
    -- and by the pending events that still carry it, no one else."""
    for args in held:
        pending = sum(event[5] is args for event in machine._events)
        assert sys.getrefcount(args) == 3 + pending, args


@compiled
@pytest.mark.parametrize("pause,kinds", [
    (300, {"store_write", "rreq_cv", "rack_cv"}),
    (2000, {"load_read", "load_done"})])
def test_the_window_drops_each_event_args_reference_once(pause, kinds):
    """Reference probe: pause tiled16, give each pending event args only
    the probe holds -- at cycle 300 a CV write's request and ack posted in
    C, at 2000 own-bank loads -- and run to the end.  The window moved each
    in, handled it (a rreq_cv re-posts its args as the rack_cv's) and let
    go of it exactly once: a reference too many or too few shows here."""
    machine = LBP(Params(num_cores=4)).load(program("tiled16"))
    machine.run(max_cycles=1_000_000, stop_at_cycle=pause)
    assert {event[4] for event in machine._events} == kinds
    held = _hold_args(machine)
    machine.run(max_cycles=1_000_000)
    assert machine.halt_reason == "exit"
    _assert_only_held(held, machine)


@compiled
def test_an_exception_in_a_team_handler_hands_back_well_formed_events():
    """A CV write's request reaches a core whose local port cannot be read:
    the TypeError comes out of the compiled handler (and out of the
    reference one), the window hands back the events it held as a heap of
    tuples -- the reference loop's -- and holds none of their args."""
    left = []
    for backend in (None, "interp"):
        machine = LBP(Params(num_cores=2), backend=backend).load(
            assemble(TEAM_TRAFFIC))
        while not any(event[4] == "rreq_cv" for event in machine._events):
            machine.run(max_cycles=10_000, stop_at_cycle=machine.cycle + 1)
        held = _hold_args(machine)
        machine.cores[1].mem.local_port.next_free = "soon"
        with pytest.raises(TypeError):
            machine.run(max_cycles=10_000)
        assert well_formed_heap(machine._events)
        assert "rreq_cv" not in {event[4] for event in machine._events}
        _assert_only_held(held, machine)
        left.append(sorted(machine._events))
    assert left[0] == left[1]


@compiled
def test_the_window_spells_every_event_kind():
    assert sorted(native.load().native_kinds()) \
        == sorted(processor.EVENT_HANDLERS)


# ---- errors cross the boundary ---------------------------------------------------


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
    assert state["cores"][0]["core"]["harts"][0]["fetch_buf"] == 0x1000
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
    """``Core._execute`` / ``_commit_p_ret`` are calls back into Python (on
    a machine whose devices are in a DeviceTable, at every site): what
    they raise comes out of ``run()``, under either tick, and the machine
    is left usable enough to be inspected."""
    def boom(*args):
        raise Boom(method)

    monkeypatch.setattr(Core, method, boom)
    for backend in ("soa", "interp"):
        machine = devices_in_python(LBP(
            Params(num_cores=2), backend=backend).load(assemble(FORK_JOIN)))
        with pytest.raises(Boom, match=method):
            machine.run(max_cycles=100_000)
        assert machine.state_dict()["cycle"] >= 0


#: where Python runs under the window, and the machine that reaches it: an
#: event handler (a machine whose devices are in a DeviceTable calls every
#: one: ``None`` in place of its engine), a window edge's ``_emit`` (a
#: metered run's one call into observe/), and schedule_access for an access
#: the native path declines (FORK_JOIN's code-bank load)
RAISERS = {
    "handler": (None, lambda patch, boom: patch.setitem(
        processor.EVENT_HANDLERS, "fork_req", boom)),
    "native_kind_handler": (None, lambda patch, boom:
                            patch.setitem(processor.EVENT_HANDLERS,
                                          "load_done", boom)),
    "metrics._emit": ({"metrics": 16}, lambda patch, boom: patch.setattr(
        Metrics, "_emit", boom)),
    "schedule_access": ({}, lambda patch, boom: patch.setattr(
        LBP, "schedule_access", boom)),
}


@compiled
@pytest.mark.parametrize("where", sorted(RAISERS))
def test_an_exception_under_the_window_propagates_and_leaks_nothing(
        monkeypatch, where):
    def boom(*args):
        raise Boom(where)

    left = {}
    engine, patch = RAISERS[where]
    in_python = engine is None
    engine = dict({"metrics": True}, **(engine or {}))

    def once(run):
        backend = "soa" if run % 4 else "interp"
        machine = LBP(Params(num_cores=2), backend=backend,
                      **engine).load(assemble(FORK_JOIN))
        if in_python:
            devices_in_python(machine)
        patch(monkeypatch, boom)
        with pytest.raises(Boom, match=where):
            machine.run(max_cycles=100_000)
        monkeypatch.undo()
        assert machine.state_dict()["cycle"] >= 0
        # the window handed back what it held when the raise went through
        # it: the events the reference loop is left with, as tuples
        assert well_formed_heap(machine._events)
        assert left.setdefault(backend, sorted(machine._events)) \
            == sorted(machine._events)

    # a raise-and-catch round trip moves None's count by a few on the pure
    # Python path too; a reference dropped per tick or per event would move
    # it by thousands
    _assert_no_leak(once, runs=12, slack=100)
    assert left["soa"] == left["interp"]


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
    remote.cores[0].links._links = {("c>r1", 0): Port()}
    with pytest.raises(TypeError, match="compiled tick"):
        remote.run(max_cycles=1000)
    remote = LBP(Params(num_cores=2)).load(assemble(REMOTE_HEAVY))
    remote.cores[0].links._links[0] = {0: Port()}  # c>r1's row
    with pytest.raises(TypeError, match="list of link ports"):
        remote.run(max_cycles=1000)
    remote = LBP(Params(num_cores=2)).load(assemble(REMOTE_HEAVY))
    remote.cores[0].links.port(("c>r1", 0)).next_free = "soon"
    with pytest.raises(TypeError):
        remote.run(max_cycles=1000)
    # nothing above left the machine class in a bad way
    assert machine().run(max_cycles=1000).retired == 6


# ---- what runs in C, and what a test replaces -----------------------------------

def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


#: the Python spelling of a memory access and of the team protocol: the
#: tick's call-back sites (core.py, processor.py) and the handlers of the
#: team kinds
SPELLING = frozenset(
    {"schedule_access", "post", "hart_by_gid", "_execute", "_commit_p_ret",
     "alloc_free_hart", "send_fork_req"}
    | {processor.EVENT_HANDLERS[kind].__name__ for kind in TEAM_KINDS})
TEAM_PYTHON = SPELLING - {"schedule_access", "post", "hart_by_gid"}


def _python_calls(machine):
    """Run *machine*; the calls it made into SPELLING, by name."""
    files = {Core._execute.__code__.co_filename,
             LBP.send_fork_req.__code__.co_filename}
    calls = collections.Counter()

    def profile(frame, event, _arg):
        code = frame.f_code
        if (event == "call" and code.co_name in SPELLING
                and code.co_filename in files):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        machine.run(max_cycles=10_000)
    finally:
        sys.setprofile(None)
    return calls


@compiled
@pytest.mark.parametrize("name,reference", [
    # the issue, the posts and the three event kinds of four stack accesses
    ("stack_traffic", {"schedule_access": 4, "post": 6, "hart_by_gid": 6}),
    # two remote loads and two remote stores: their requests, bank
    # operations and replies or acks, three posts and one lookup each
    ("remote_traffic", {"schedule_access": 4, "post": 12, "hart_by_gid": 4}),
    # a team's forks on this core and the next, its CV writes both ways,
    # its result message, starts, p_ret commits and join
    ("team_traffic", dict.fromkeys(TEAM_PYTHON, True))])
def test_accesses_and_team_messages_stay_in_c_unless_observed(
        name, reference):
    """No device: plain, traced, sanitized or metered, the run makes no
    call to the Python spelling (the window records what the observers
    see).  The reference tick makes every step a call into it.  (The
    parity harness holds the runs' states to each other.)"""
    for observer in ("untraced", "traced", "sanitized", "metered"):
        assert not _python_calls(parity.machine(name, (observer,), "native"))
    calls = _python_calls(parity.machine(name, ("untraced",), "interp"))
    assert {key: calls[key] if count is not True else calls[key] > 0
            for key, count in reference.items()} == reference


@compiled
def test_events_read_back_from_a_snapshot_stay_in_c(monkeypatch):
    """A snapshot file gives back each kind as an equal string, not the
    interned one the window compares first: its events still run in C."""
    whole = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    whole.run(max_cycles=1000)
    paused = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    paused.run(max_cycles=1000, stop_at_cycle=7)
    resumed = restore(snapshot(paused))
    kinds = [event[4] for event in resumed._events]
    assert kinds == ["load_read", "load_done"]
    assert all(kind is not sys.intern(kind) for kind in kinds)
    handled = _count_calls(monkeypatch, LBP, "hart_by_gid")
    resumed.run(max_cycles=1000)
    assert handled == []
    assert resumed.state_dict() == whole.state_dict()


@compiled
def test_a_replaced_tick_is_what_runs(monkeypatch):
    """``Core.tick`` is the one name the window looks up: a replaced one is
    called for every tick (the parking tests count ticks through it)."""
    plain = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    plain.run(max_cycles=1000)
    ticks = _count_calls(monkeypatch, Core, "tick")
    machine = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    machine.run(max_cycles=1000)
    assert len(ticks) > 10
    assert machine.state_dict() == plain.state_dict()
    monkeypatch.undo()
    # and the tick stays callable on its own, outside any window
    machine = LBP(Params(num_cores=1)).load(assemble(STACK_TRAFFIC))
    assert Core.tick(machine.cores[0]) is True
    assert machine.cores[0].harts[0].fetch_buf is not None


def _metrics_calls(backend):
    """Calls into observe/metrics.py made from outside it during a metered
    run of the served job (matmul base, h=16, on 4 cores), and every
    ``_emit``: a Counter of ``(function, caller)``.  Returns it and the
    machine."""
    machine = LBP(Params(num_cores=4), metrics=True,
                  backend=backend).load(program("base16"))
    here = Metrics.stall.__code__.co_filename
    calls = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == here:
            caller = frame.f_back.f_code
            if caller.co_filename != here:
                calls[frame.f_code.co_name, caller.co_name] += 1
            elif frame.f_code.co_name == "_emit":
                calls["_emit", "Metrics." + caller.co_name] += 1

    sys.setprofile(profile)
    try:
        machine.run()
    finally:
        sys.setprofile(None)
    return calls, machine


@compiled
def test_a_metered_run_calls_python_only_at_window_edges():
    """The compiled kernel makes every charge of a metered run itself, the
    etas of the CV writes to the next core included: Python is called only
    to close a window (``roll`` from a busy tick, ``_emit`` from an idle
    span).  The reference tick calls every hook."""
    calls, machine = _metrics_calls("soa")
    rows = sum(len(slot.samples) for slot in machine.metrics.slots)
    # every window closed is one _emit, from roll or from the C
    assert rows == sum(n for (name, _caller), n in calls.items()
                       if name == "_emit") > 0
    assert {caller for (name, caller) in calls
            if name in ("roll", "_emit")} \
        <= {"run", "_settle_idle", "Metrics.roll"}
    # no stall, _classify, idle, nor an eta of a remote access or CV write
    assert {name for name, _caller in calls} == {"roll", "_emit"}

    reference, _ = _metrics_calls("interp")
    by_name = collections.Counter()
    for (name, _caller), n in reference.items():
        by_name[name] += n
    assert (by_name["stall"], by_name["remote_issue"],
            by_name["remote_done"], by_name["idle"]) == (852, 3282, 3282, 643)


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


# ---- banks: zeroed memory, mapped in when touched -----------------------------------


def _banks(machine):
    return [machine.code_bank] + [
        bank for core in machine.cores
        for bank in (core.mem.local, core.mem.shared)]


def _subprocess(script, *flags, **env):
    """stdout of *script* run by this Python with *flags*, the package and
    the parity harness importable, *env* set; it must exit 0."""
    path = os.pathsep.join((SRC, os.path.dirname(parity.__file__)))
    done = subprocess.run(
        [sys.executable] + list(flags) + ["-c", script],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, **env))
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-2000:]
    return done.stdout.decode()


@compiled
def test_a_fresh_machine_has_every_bank_zeroed_at_its_configured_size():
    assert memory.zeroed is native.load().zeroed
    machine = LBP(Params(num_cores=4))
    sizes = {bank.name: len(bank.data) for bank in _banks(machine)}
    assert sizes == dict(
        code=memmap.CODE_SIZE,
        **{"local%d" % i: memmap.LOCAL_SIZE for i in range(4)},
        **{"shared%d" % i: memmap.GLOBAL_BANK_SIZE for i in range(4)})
    for bank in _banks(machine):
        assert type(bank.data) is bytearray
        assert bank.data.count(0) == len(bank.data), bank.name


RESIDENT = """
import gc, os
from repro.machine import LBP, Params, native
assert native.status()[0] == "native", native.status()

def resident():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = resident()
grown = 0
for _ in range(3):
    machine = LBP(Params(num_cores=64))
    grown = max(grown, resident() - before)
    del machine
    gc.collect()
print(grown)
"""


@compiled
@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="resident set size is read from /proc")
def test_building_a_machine_touches_no_bank_page():
    """A 64-core machine has 129 banks, 65 MiB of them: zero-filling them
    when the machine is built made 68 MB resident.  A calloc'd bank is
    mapped in when touched only until the C library, having freed a large
    block, serves the next ones from its heap and clears them there (8.5
    MB a build); built, freed and built again, the whole machine stays
    under 4 MiB."""
    grown = int(_subprocess(RESIDENT))
    assert grown < 4 * 2**20, grown


DEBUG_ALLOCATOR = """
import ctypes, gc
from repro.machine import LBP, Params, memory, native
assert native.status()[0] == "native", native.status()
assert memory.zeroed is native.load().zeroed

machine = LBP(Params(num_cores=2))
banks = [machine.code_bank] + [
    bank for core in machine.cores for bank in (core.mem.local, core.mem.shared)]
for bank in banks:
    data, size = bank.data, len(bank.data)
    bank.write(bank.base + 8, 0xDEADBEEF, 4)
    assert bank.read(bank.base + 8, 4) == 0xDEADBEEF
    data[16:20] = b"abcd"
    state = bank.state_dict()
    data.extend(b"xyz" * 1000)
    del data[:3000]
    assert len(data) == size and data.endswith(b"xyz")
    bank.load_state_dict(state)
    assert bytes(data) == state["data"]
    data[:] = b""
del machine, banks, bank, data
gc.collect()
for size in (0, 1, 4097, 1 << 20):
    data = native.load().zeroed(size)
    if size:  # the trailing NUL, read where the debug allocator pads
        start = ctypes.c_char.from_buffer(data)
        assert ctypes.string_at(ctypes.addressof(start) + size, 1) == b"\\0"
        del start
    data += b"x"
    del data
from parity import load_golden, measure
assert measure("re_contention_c1") == load_golden()["re_contention_c1"]
print("ok")
"""


@compiled
def test_banks_survive_the_debug_allocator():
    """Every bank's buffer must belong to the allocator domain CPython
    resizes and frees it with: under ``PYTHONMALLOC=debug`` a mismatch or a
    buffer overrun aborts the process, and a missing trailing NUL reads as
    the allocator's pad byte."""
    out = _subprocess(DEBUG_ALLOCATOR, "-X", "dev", PYTHONMALLOC="debug")
    assert out.strip() == "ok"


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


def _miscoded_link_tags(monkeypatch, tmp_path):
    """The router numbers two link tags the other way round from the
    compiled window: a path reserved in C would book the wrong ports."""
    tags = list(router.LINK_TAGS)
    tags[0], tags[1] = tags[1], tags[0]
    monkeypatch.setattr(router, "LINK_TAGS", tuple(tags))
    return "router.LINK_TAGS and LINK_SHIFTS are not the window's link table"


def _misleveled_link_tags(monkeypatch, tmp_path):
    """The router sizes an r1 group's links as an r2 group's: a row the
    compiled window made would be another length than Python's."""
    shifts = list(router.LINK_SHIFTS)
    shifts[2] = 4
    monkeypatch.setattr(router, "LINK_SHIFTS", tuple(shifts))
    return "router.LINK_TAGS and LINK_SHIFTS are not the window's link table"


def _with_zeroed(monkeypatch, zeroed):
    """The binary loads, but its bank allocator is *zeroed*."""
    inner = native._import

    def patched(path):
        module = inner(path)
        module.zeroed = zeroed
        return module

    monkeypatch.setattr(native, "_import", patched)
    return "smoke call: zeroed"


def _broken_zeroed(monkeypatch, tmp_path):
    """An allocator whose memory is not zero."""
    return _with_zeroed(monkeypatch, lambda size: bytearray(b"\x01" * size))


def _raising_zeroed(monkeypatch, tmp_path):
    def no_memory(size):
        raise MemoryError(size)

    return _with_zeroed(monkeypatch, no_memory)


@pytest.mark.parametrize("fault", [
    _no_compiler, pytest.param(_miscompiled_window, marks=compiled),
    pytest.param(_miscompiled_remote_path, marks=compiled),
    pytest.param(_miscoded_link_tags, marks=compiled),
    pytest.param(_misleveled_link_tags, marks=compiled),
    pytest.param(_broken_zeroed, marks=compiled),
    pytest.param(_raising_zeroed, marks=compiled)])
def test_fallback_builds_reference_cores_and_warns_once(
        monkeypatch, tmp_path, fault, golden):
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
            assert memory.zeroed is bytearray  # banks are memset ones
            assert native.status()[0] == "reference"
            assert reason in native.status()[1]
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
    assert (memory.zeroed is bytearray) == (before == "reference")


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


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    """A temp copy of the package without a build directory (never the
    checkout's), shared by the two build tests: the race empties it and
    builds into it, the sweep then finds that build."""
    root = tmp_path_factory.mktemp("package") / "src"
    shutil.copytree(
        os.path.dirname(os.path.abspath(repro.__file__)), root / "repro",
        ignore=shutil.ignore_patterns("_native", "__pycache__"))
    return root


def _run_racer(root):
    """One RACER process on the copy at *root*: its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", RACER, str(root)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@compiled
def test_two_processes_racing_to_build_both_run(package_copy):
    """Both importers may compile, each renames a whole file into place,
    both load a working extension."""
    root = package_copy
    shutil.rmtree(root / "repro" / "machine" / "_native", ignore_errors=True)
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
        package_copy):
    """The same copy, its binary built by the race (here if that test did
    not run).  A build unlinks the binaries of other digests for this
    Python (and only those); touching the included header -- not
    ``_tick.c`` -- changes the digest, so a stale binary is never
    loaded."""
    machine_dir = package_copy / "repro" / "machine"
    built = machine_dir / "_native"
    if not os.path.exists(built):
        _run_racer(package_copy)
    (first,) = os.listdir(built)
    stamp = os.stat(built / first).st_mtime_ns
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    dead = "_tick-%s%s" % ("0" * 16, suffix)
    other_python = "_tick-%s.cpython-27-other.so" % ("0" * 16)
    (built / other_python).write_bytes(b"not a binary")

    def build():
        _run_racer(package_copy)
        names = set(os.listdir(built))
        assert other_python in names and dead not in names
        (ours,) = names - {other_python}
        return ours

    assert build() == first  # found, not rebuilt
    assert os.stat(built / first).st_mtime_ns == stamp
    (built / dead).write_bytes(b"not a binary")
    with open(machine_dir / "_window.h", "a") as handle:
        handle.write("/* edited */\n")
    assert build() != first


@compiled
def test_two_coverage_builds_leave_one_set_of_notes(monkeypatch, tmp_path):
    """A ``--coverage`` build (the gcov leg's) names its notes after the
    binary, not the temporary name it is written under, and stamps them
    from that name: a rebuild overwrites them with the same bytes, instead
    of leaving a ``.gcno`` per build, and a binary loaded before the
    rebuild still matches them."""
    monkeypatch.setattr(native, "_FLAGS",
                        ("-O0", "--coverage", "-shared", "-fPIC"))
    target = tmp_path / ("_tick-%s%s" % (
        "c" * 16, sysconfig.get_config_var("EXT_SUFFIX")))
    notes = []
    for _ in range(2):
        native._compile(str(target))
        notes.append((tmp_path / (target.name + "-_tick.gcno")).read_bytes())
    assert sorted(os.listdir(tmp_path)) == [
        target.name, target.name + "-_tick.gcno"]
    assert notes[0] == notes[1]
