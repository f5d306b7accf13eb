"""Typed events and port cursors, where a test replaces what Python runs.

While ``LBP._simulate`` runs, an event the compiled window posts holds
its args as C data, and each Port it reserves has a cursor of its own
(``machine/_window.h``, "events at rest" and "the memory view").  A tuple
is made only where an event leaves C and a cursor is stored back before
every call into Python.  The parity harness (``tests/parity.py``) holds
the pending events at each pause, the snapshot bytes and the errors of
malformed events to the reference tick (``backend="interp"``); these
tests hold it to the reference where a replaced handler or a replaced
``Port.reserve`` looks: the args the handler gets, and the cursor Python
reserves between the window's own reservations.
"""

import sys

import pytest

from repro import memmap
from repro.asm import assemble
from repro.machine import LBP, Params, processor
from repro.machine.memory import Port

from helpers import compiled
from parity import (
    DEVICE_ADDR, DEVICE_TRAFFIC, MIXED_TRAFFIC, TEAM_TRAFFIC, Latch, typed)

BACKENDS = ("soa", "interp")

#: the kinds whose compiled spelling declines a device's word -- the bank
#: operation, on the owner's side -- each with the position of the address
#: in its args
DECLINED = {"load_read": 1, "store_write": 1, "bank_read": 3,
            "bank_write": 1, "cv_write": 1, "cv_apply": 1}

#: each source and the words mapped as devices: the remote word (its store
#: and load are issued in Python, their bank operations posted in C), the
#: CV word 0 of hart 1 (a CV write on the core) and of hart 4 (over the
#: forward link)
DEVICE_WORDS = {
    "memory": (MIXED_TRAFFIC, (memmap.global_bank_base(1),)),
    "team": (TEAM_TRAFFIC, (memmap.hart_cv_base(1), memmap.hart_cv_base(0))),
}

#: each source's (kind, device word) pairs that reach a wrapped handler
REACHED = {
    "memory": {("bank_write", memmap.global_bank_base(1)),
               ("bank_read", memmap.global_bank_base(1))},
    "team": {("load_read", memmap.hart_cv_base(1)),
             ("load_read", memmap.hart_cv_base(0)),
             ("cv_write", memmap.hart_cv_base(1)),
             ("cv_apply", memmap.hart_cv_base(0))},
}


@compiled
@pytest.mark.parametrize("name", sorted(DEVICE_WORDS))
def test_a_replaced_handler_gets_the_reference_args(monkeypatch, name):
    """The kinds whose bank operation declines a device replaced by
    recording wrappers: the compiled window calls each for an event at a
    device word, whose args tuple the post in C made, with the tuple the
    reference loop's post made, at the same cycle, and the runs end
    alike.  Each run reaches exactly its source's (kind, word) pairs."""
    source, words = DEVICE_WORDS[name]
    seen = {}
    for backend in BACKENDS:
        calls = seen[backend] = []
        reached = set()
        with monkeypatch.context() as patch:
            for kind, at in DECLINED.items():
                def wrapper(machine, *args, kind=kind, at=at,
                            inner=processor.EVENT_HANDLERS[kind]):
                    if args[at] in words:
                        reached.add((kind, args[at]))
                        calls.append((machine.cycle, kind, typed(args)))
                    return inner(machine, *args)
                patch.setitem(processor.EVENT_HANDLERS, kind, wrapper)
            machine = LBP(Params(num_cores=2), backend=backend).load(
                assemble(source))
            for addr in words:
                machine.add_device(addr, Latch())
            stats = machine.run(max_cycles=100_000)
        assert reached == REACHED[name], backend
        calls.append((stats.cycles, stats.retired, machine.state_dict()))
    assert seen["soa"] == seen["interp"]


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
        machine.add_device(DEVICE_ADDR, Latch())
        stats = machine.run(max_cycles=100_000)
        log.append((stats.cycles, stats.retired, machine.state_dict()))
    assert len(seen["soa"]) == 13
    # (each device access follows a stack access the window reserved)
    assert all(next_free > 0 for _cycle, next_free, _earliest
               in seen["soa"][:-1])
    assert seen["soa"] == seen["interp"]
