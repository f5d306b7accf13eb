"""The core view: typed while C runs, the slots whenever Python can look.

While ``LBP._simulate``, ``Core.tick`` or ``Core.settle_idle`` runs, the
scalars of each core, its harts, their HartStats and the core's
CoreCounters live in a C struct (``machine/_tick.c``, "the core view").
It is flushed to the slots before every call into Python and loaded again
after one.  These tests run machines whose devices are in a table the
window does not read (``helpers.DeviceTable``), on which every load, store
and X_PAR message is a call into ``Core._execute`` where the reference
tick makes it, wrap that method in Python, and look at the state from
inside those calls.  They also probe the references the window
holds at its ways out: pending events' args at a barrier, a halt and an
error, and the last domain it published as ``machine._origin``.
"""

import hashlib
import sys

import pytest

from repro.asm import assemble
from repro.isa.spec import InstrClass
from repro.machine import LBP, MachineError, Params
from repro.machine.core import Core
from repro.machine.hart import ResultBuffer
from repro.machine.memory import CoreMemory

from helpers import compiled, devices_in_python
import parity
from parity import LOCAL_LOOP, STORES_IN_FLIGHT

#: the parity harness's rows these tests run
PROGRAMS = ("tiled16", "team_traffic")


def _row(name):
    return parity.program(name), parity.CORPUS[name].cores


#: the classes the compiled tick hands to ``Core._execute`` on a machine
#: whose devices are in a DeviceTable: what the reference tick hands it too (it also hands it every
#: other class, which the compiled tick issues itself)
CALLED = frozenset(int(cls) for cls in (
    InstrClass.LOAD, InstrClass.STORE, InstrClass.P_LWCV, InstrClass.P_FC,
    InstrClass.P_FN, InstrClass.P_SWCV, InstrClass.P_SWRE, InstrClass.P_LWRE,
    InstrClass.P_JAL, InstrClass.P_JALR))


def _wrap_execute(monkeypatch, before_call):
    """``Core._execute`` (so also ReferenceCore's) as a Python wrapper that
    runs ``before_call(core, hart)`` first for a load, a store or an X_PAR
    message: on a machine whose devices are in a DeviceTable each is a call
    into Python under either tick."""
    inner = Core._execute

    def wrapped(core, hart, entry):
        low = entry.low
        if low.cls in CALLED and not (
                low.cls == InstrClass.P_JALR and low.rd == 0):
            before_call(core, hart)
        return inner(core, hart, entry)

    monkeypatch.setattr(Core, "_execute", wrapped)


def _digest(machine):
    """What ``core_state_dict(i)`` says of every core, hashed: without the
    pending events (while a call runs the window holds them in its own
    heap; the pause tests compare them), and with each bank's bytes left
    out by _ports_only."""
    states = []
    for index in range(len(machine.cores)):
        state = machine.core_state_dict(index)
        del state["events"]
        states.append(state)
    return hashlib.sha256(repr(states).encode()).hexdigest()


def _ports_only(monkeypatch):
    """CoreMemory.state_dict without the banks: a copy of each per call
    would make every call cost megabytes."""
    monkeypatch.setattr(CoreMemory, "state_dict", lambda mem: (
        mem.local_port.next_free, mem.shared_local_port.next_free,
        mem.shared_router_port.next_free))


@compiled
@pytest.mark.parametrize("name", PROGRAMS)
def test_every_call_into_python_sees_the_state_the_reference_does(
        monkeypatch, name):
    """At every fourth call into Python (every call costs tiled16 8 s),
    all cores' state is what the reference loop and tick show there."""
    program, cores = _row(name)
    _ports_only(monkeypatch)
    seen = {}
    for backend in ("soa", "interp"):
        machine = devices_in_python(LBP(Params(num_cores=cores),
                                    backend=backend).load(program))
        calls, digests = [0], []
        seen[backend] = digests

        def record(core, hart):
            calls[0] += 1
            if calls[0] % 4 == 1:
                digests.append(_digest(machine))

        _wrap_execute(monkeypatch, record)
        machine.run(max_cycles=1_000_000)
        monkeypatch.undo()
        _ports_only(monkeypatch)
        assert machine.halt_reason in ("exit", "ebreak")
    assert len(seen["soa"]) > 2
    assert seen["soa"] == seen["interp"]


@compiled
@pytest.mark.parametrize("name", PROGRAMS)
def test_what_python_writes_in_a_call_is_what_c_reads_after_it(
        monkeypatch, name):
    """The wrapper counts one more load per call on the hart's HartStats and
    parks nothing (``sleep_until`` = now): the C, which counts loads and
    stores in its view, must take both up after the call."""
    program, cores = _row(name)
    outcomes = []
    for backend in ("soa", "interp"):
        machine = devices_in_python(LBP(Params(num_cores=cores),
                                    backend=backend).load(program))

        def write(core, hart):
            hart.stats.loads += 1
            core.sleep_until = machine.cycle

        _wrap_execute(monkeypatch, write)
        stats = machine.run(max_cycles=1_000_000)
        monkeypatch.undo()
        outcomes.append((machine.cycle, stats.state_dict(),
                         machine.state_dict()))
    assert outcomes[0] == outcomes[1]


def _copy_rb(hart):
    new = ResultBuffer(hart)
    for name in ("busy", "tag", "reg", "value", "ready_at", "entry"):
        setattr(new, name, getattr(hart.rb, name))
    return new


@compiled
@pytest.mark.parametrize("backend", ["soa", "interp"])
def test_objects_replaced_in_a_call_leave_no_reference_behind(
        monkeypatch, backend):
    """Every 50th call swaps the calling hart's ``rob``, ``it``,
    ``rename``, ``regs`` and ``rb`` for equal new objects.  Nothing
    changes, and afterwards each object is held by exactly whom it should
    be: the view borrowed the old ones and kept no reference past the
    call."""
    program, cores = _row("tiled16")
    plain = devices_in_python(LBP(Params(num_cores=cores),
                                    backend=backend).load(program))
    plain.run(max_cycles=1_000_000)
    machine = devices_in_python(LBP(Params(num_cores=cores),
                                    backend=backend).load(program))
    calls, old, new = [0], [], []
    names = ("rob", "it", "rename", "regs", "rb")

    def swap(core, hart):
        calls[0] += 1
        if calls[0] % 50:
            return
        replacements = (list(hart.rob), list(hart.it), list(hart.rename),
                        list(hart.regs), _copy_rb(hart))
        for field, value in zip(names, replacements):
            old.append(getattr(hart, field))
            new.append((hart, field, value))
            setattr(hart, field, value)

    _wrap_execute(monkeypatch, swap)
    machine.run(max_cycles=1_000_000)
    monkeypatch.undo()
    assert len(old) > 50
    assert machine.state_dict() == plain.state_dict()
    harts = [hart for core in machine.cores for hart in core.harts]
    holders = {}  # id -> (object, how many hart fields hold it)
    for obj in old + [value for hart, field, value in new]:
        holders[id(obj)] = (obj, sum(getattr(hart, field) is obj
                                     for hart in harts for field in names))
    for obj, fields in holders.values():
        # old and new (a swapped-in object may be swapped out later), the
        # harts, the pair in holders, the loop's name, the argument
        expected = (sum(item is obj for item in old)
                    + sum(value is obj for hart, field, value in new)
                    + fields + 3)
        count = sys.getrefcount(obj)
        assert count == expected, obj


# ---- references at the window's ways out --------------------------------------


def _assert_args_owned_by_their_events(machine):
    """Each pending event's args tuple is held by its event and nothing
    else: one reference from the tuple, one from the call."""
    assert machine._events
    for event in machine._events:
        count = sys.getrefcount(event[5])
        assert count == 2, event


@compiled
def test_events_written_back_at_a_barrier_own_their_args():
    program, cores = _row("tiled16")
    machine = LBP(Params(num_cores=cores)).load(program)
    machine.run(max_cycles=1_000_000, stop_at_cycle=2000)
    _assert_args_owned_by_their_events(machine)


def _stores_in_flight(stop):
    return LBP(Params(num_cores=8)).load(assemble(STORES_IN_FLIGHT % stop))


@compiled
def test_events_written_back_at_a_halt_own_their_args():
    machine = _stores_in_flight("ebreak")
    machine.run(max_cycles=10_000)
    assert machine.halt_reason == "ebreak"
    _assert_args_owned_by_their_events(machine)


@compiled
def test_events_written_back_at_an_error_own_their_args():
    # a jump to a non-code address: the fetch stage records the error
    machine = _stores_in_flight(parity.JUMP_TO_DATA)
    with pytest.raises(MachineError, match="0x1000|4096"):
        machine.run(max_cycles=10_000)
    _assert_args_owned_by_their_events(machine)


class Index(int):
    """A core index the probe can count references to (small ints are
    shared by the whole interpreter).  Only the Python handlers take an
    int subclass for an index, so the machine below stays on one core's
    own banks."""


def _count(item, obj):
    if item is obj:
        return 1
    if type(item) in (tuple, list):
        return sum(_count(inner, obj) for inner in item)
    return 0


def _held_by_state(machine, obj):
    """How many references to *obj* the pending events, the fork queues and
    the halt and error keys hold: args carry core indexes, and the key of
    an event Python posted, of a halt or of an error its origin."""
    return _count([machine._events, machine._halt_key, machine._error_key]
                  + [core.fork_queue for core in machine.cores], obj)


@compiled
@pytest.mark.parametrize("stop", ["ebreak", "ecall"])
def test_the_published_domain_is_the_only_reference_left(stop):
    """``machine._origin`` is the last domain the window ran, the object it
    held while the call ran (``w->origin``): after a pause and at the end
    or an error, the core's index is held by the core, ``_origin``, what
    the machine's state holds, and nothing the window kept."""
    machine = LBP(Params(num_cores=1)).load(assemble(LOCAL_LOOP % stop))
    index = machine.cores[0].index = Index(0)
    before = sys.getrefcount(index)  # the name, the argument, the core
    machine.run(max_cycles=10_000, stop_at_cycle=40)
    count = sys.getrefcount(index)  # (before an assert's temporaries)
    published = machine._origin is index
    assert published and count == before + 1 + _held_by_state(
        machine, index)
    if stop == "ecall":
        with pytest.raises(MachineError, match="ecall"):
            machine.run(max_cycles=10_000)
    else:
        machine.run(max_cycles=10_000)
        assert machine.halt_reason == "ebreak"
    count = sys.getrefcount(index)
    published = machine._origin is index
    assert published and count == before + 1 + _held_by_state(
        machine, index)
