"""Typed events and port cursors: invisible to Python.

While ``LBP._simulate`` runs, an event the compiled window posts holds
its args as C data, and each Port it reserves has a cursor of its own
(``machine/_window.h``, "events at rest" and "the memory view").  A tuple
is made only where an event leaves C -- the write-back to
``machine._events``, the call into a Python handler, a shard worker's
``_outbox`` -- and a cursor is stored back before every call into Python.
These tests hold what Python then sees to the reference tick
(``backend="interp"``), which makes every tuple and every reservation in
Python: the pending events at each pause, type for type, the snapshot
bytes, the args a replaced handler gets, the error a malformed event
raises, and a Port as Python code reserves it between the window's own
reservations.
"""

import json
import os
import sys

import pytest

from repro import memmap
from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.machine import LBP, Params, native, processor
from repro.machine.memory import Port
from repro.snapshot import snapshot
from repro.workloads import matmul_source

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from helpers import TEAM_TRAFFIC  # noqa: E402
from test_trace_golden import (  # noqa: E402
    GOLDEN_PATH, golden_program, measure)

BACKENDS = ("soa", "interp")

compiled = pytest.mark.skipif(
    native.load() is None, reason="no compiled tick: " + native.status()[1])


def _typed(value):
    """*value* with the type of every leaf beside it."""
    if isinstance(value, tuple):
        return tuple(_typed(item) for item in value)
    return (type(value).__name__, value)


def _tiled16():
    return compile_to_program(matmul_source("tiled", 16), "tiled.c"), 4


def _stencil():
    return golden_program("stencil_h8_c2"), 2


#: each sweep: its program and cores, and how many cycles apart it pauses
SWEEPS = {"tiled16": (_tiled16, 89), "stencil": (_stencil, 53)}
#: every how many pauses the snapshots are compared (each one is ~0.1 s)
SNAPSHOT_EVERY = 10


@compiled
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_pause_hands_back_the_reference_events(name):
    """Pause both loops every few cycles: each time, ``machine._events``
    holds the reference loop's tuples, element for element and type for
    type (bank references stay tuples, ints exact ints, a parked flag a
    bool), and the two machines snapshot to the same bytes."""
    make, stride = SWEEPS[name]
    program, cores = make()
    machines = [LBP(Params(num_cores=cores), backend=backend).load(program)
                for backend in BACKENDS]
    cycle = pending = pauses = 0
    kinds = set()
    while not all(machine.halted for machine in machines):
        cycle += stride
        pauses += 1
        assert cycle < 200_000
        seen = []
        for machine in machines:
            machine.run(max_cycles=200_000, stop_at_cycle=cycle)
            seen.append((machine.cycle,
                         [_typed(event) for event in sorted(machine._events)]))
        assert seen[0] == seen[1], cycle
        if pauses % SNAPSHOT_EVERY == 0 and not machines[0].halted:
            assert snapshot(machines[0]) == snapshot(machines[1]), cycle
        pending += len(seen[0][1])
        kinds.update(event[4][1] for event in seen[0][1])
    assert pending > 100
    assert {"load_read", "load_done", "store_write"} <= kinds
    assert machines[0].state_dict() == machines[1].state_dict()


#: loads and stores to the core's own banks and to the other core's
#: shared bank, sign-extended and not
REMOTE_TRAFFIC = """
main:
    li   a0, %d
    li   t1, -3
    sw   t1, 0(a0)
    sh   t1, 4(a0)
    sb   t1, 6(a0)
    lw   t2, 0(a0)
    lh   t3, 4(a0)
    lbu  t4, 6(a0)
    lb   t5, 6(a0)
    sw   t5, -4(sp)
    lh   t6, -4(sp)
    lhu  t6, -4(sp)
    ebreak
""" % memmap.global_bank_base(1)

#: the kinds the test replaces: each also reaches its handler posted by a
#: kind that stays compiled, or by the issue in C
REPLACED = ("load_read", "store_write", "bank_read", "rrep_load",
            "rack_store", "cv_apply", "rack_cv", "re_deliver", "re_ack",
            "fork_grant", "start_pc", "ending_signal")


@compiled
@pytest.mark.parametrize("source", [REMOTE_TRAFFIC, TEAM_TRAFFIC],
                         ids=["memory", "team"])
def test_a_replaced_handler_gets_the_reference_args(monkeypatch, source):
    """Half the kinds replaced by recording wrappers: the compiled window
    calls each with the args tuple the reference loop's post made, at the
    same cycle, and the runs end alike."""
    seen = {}
    for backend in BACKENDS:
        calls = seen[backend] = []
        with monkeypatch.context() as patch:
            for kind in REPLACED:
                def wrapper(machine, *args, kind=kind,
                            inner=processor.EVENT_HANDLERS[kind]):
                    calls.append((machine.cycle, kind, _typed(args)))
                    return inner(machine, *args)
                patch.setitem(processor.EVENT_HANDLERS, kind, wrapper)
            machine = LBP(Params(num_cores=2), backend=backend).load(
                assemble(source))
            stats = machine.run(max_cycles=100_000)
        calls.append((stats.cycles, stats.retired, machine.state_dict()))
    assert len(seen["soa"]) > 6
    assert seen["soa"] == seen["interp"]


#: a long run of loads and stores on the core's own banks
STACK_LOOP = """
main:
    li   t0, 400
loop:
    sw   t0, -4(sp)
    lw   t1, -4(sp)
    addi t0, t0, -1
    bnez t0, loop
    ebreak
"""

#: each malformed event Python posts: a kind the window spells, its args of
#: the wrong arity or holding something else than its kind's shape says
MALFORMED = {
    "arity": ("load_done", (1, 2)),
    "float gid": ("load_done", (2.0,)),
    "str addr": ("store_write",
                 (("local", 0), "0x40000000", 7, 4, 0, 0, 1)),
    "bank ref": ("load_read", (("stack", 0), 0x40000000, 4, "lw", 9, 0, 0)),
    "mnemonic": ("load_read", (("local", 0), 0x40000000, 4, ["lw"], 9, 0,
                               0)),
}


@compiled
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_event_raises_the_reference_error(name):
    """An event that is not of its kind's shape is the Python handler's,
    which words the error: the same exception, with the same message, at
    the same cycle under both loops."""
    kind, args = MALFORMED[name]
    outcome = {}
    for backend in BACKENDS:
        machine = LBP(Params(num_cores=1), backend=backend).load(
            assemble(STACK_LOOP))
        machine.run(max_cycles=100_000, stop_at_cycle=60)
        machine.post(0, machine.cycle + 5, kind, args)
        with pytest.raises(Exception) as raised:
            machine.run(max_cycles=100_000)
        outcome[backend] = (type(raised.value), str(raised.value),
                            machine.cycle, sorted(machine._events))
    assert outcome["soa"] == outcome["interp"]


#: stores and loads through the stack port, and through the same port to a
#: device mapped in the local bank (those are Python's: Core._execute)
DEVICE_ADDR = memmap.LOCAL_BASE + 0x100
DEVICE_TRAFFIC = """
main:
    li   a0, %d
    li   t0, 6
loop:
    sw   t0, -4(sp)
    sw   t0, 0(a0)
    lw   t1, -4(sp)
    lw   t2, 0(a0)
    lw   t3, -4(sp)
    addi t0, t0, -1
    bnez t0, loop
    ebreak
""" % DEVICE_ADDR


class _Latch:
    """A device word: what was last written."""

    def __init__(self):
        self.value = 0

    def read(self, cycle):
        return self.value

    def write(self, cycle, value):
        self.value = value


@compiled
def test_python_reserves_the_port_the_window_left(monkeypatch):
    """The device accesses reserve the stack port in Python, between the
    window's own reservations of it: each sees the cursor the window left
    (the reference loop's ``next_free``), and a cursor pushed further in
    Python holds up the window's next access as it does the reference
    loop's."""
    seen = {}
    inner = Port.reserve
    for backend in BACKENDS:
        log = seen[backend] = []

        def reserve(port, earliest, log=log):
            caller = sys._getframe(1).f_locals
            if caller.get("addr") != DEVICE_ADDR:
                return inner(port, earliest)
            log.append((machine.cycle, port.next_free, earliest))
            slot = inner(port, earliest)
            port.next_free += 5  # the window must wait for it
            return slot

        monkeypatch.setattr(Port, "reserve", reserve)
        machine = LBP(Params(num_cores=1), backend=backend).load(
            assemble(DEVICE_TRAFFIC))
        machine.add_device(DEVICE_ADDR, _Latch())
        stats = machine.run(max_cycles=100_000)
        log.append((stats.cycles, stats.retired, machine.state_dict()))
    assert len(seen["soa"]) == 13
    # (each device access follows a stack access the window reserved)
    assert all(next_free > 0 for _cycle, next_free, _earliest
               in seen["soa"][:-1])
    assert seen["soa"] == seen["interp"]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@compiled
@pytest.mark.parametrize("name", ["matmul_tiled_h16_c4", "sort_h8_c2"])
def test_two_shards_match_the_golden_digests(name, golden):
    assert measure(name, shards=2) == golden[name]


@compiled
def test_an_untraced_two_shard_run_equals_one_process():
    """Untraced, the workers' windows post the remote accesses' events in
    C: those for another worker's cores leave through ``_outbox`` as the
    tuples the one-process run's posts make."""
    program = golden_program("sort_h8_c2")
    runs = []
    for shards in (None, 2):
        machine = LBP(Params(num_cores=2), shards=shards).load(program)
        stats = machine.run(max_cycles=1_000_000)
        runs.append((stats.cycles, stats.retired, stats.remote_accesses,
                     machine.state_dict()))
    assert runs[0][2] > 0
    assert runs[0] == runs[1]
