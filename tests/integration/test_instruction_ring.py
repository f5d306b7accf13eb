"""The instruction ring: typed while C runs, Entry objects when Python looks.

While ``LBP._simulate`` or ``Core.tick`` runs, each hart's in-flight
instructions, writeback buffer, registers and rename table live in its
view's ring (``machine/_tick.c``, "the instruction ring"); ``Hart.rob`` /
``it``, the ``Entry`` objects, the ``ResultBuffer`` and ``regs`` /
``rename`` are their at-rest form.  These tests look at that form where
Python can: at pauses, inside calls into Python (``Core._execute``
wrapped, on a machine whose devices are in a ``helpers.DeviceTable``), and after Python changed it -- and hold
both ticks to the same outcome.
"""

import os
import sys

import pytest

from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.isa.spec import InstrClass
from repro.machine import LBP, MachineError, Params, native
from repro.machine.core import Core
from repro.machine.hart import Entry
from repro.workloads import matmul_source

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from helpers import TEAM_TRAFFIC, devices_in_python  # noqa: E402

compiled = pytest.mark.skipif(
    native.load() is None, reason="no compiled tick: " + native.status()[1])

BACKENDS = ("soa", "interp")


def _fields(entry):
    """An Entry's fields (its instruction by mnemonic: each machine has
    its own LoweredInstr objects)"""
    fields = {name: getattr(entry, name) for name in Entry.__slots__}
    fields["low"] = entry.low.mnemonic
    return fields


def _in_flight(machine):
    return {(hart.gid, entry.tag): entry
            for core in machine.cores for hart in core.harts
            for entry in hart.rob}


@compiled
def test_an_entry_python_holds_is_the_entry_until_it_commits():
    """Paused every cycle: an Entry read out of ``hart.rob`` is the same
    object at every pause while its instruction is in flight, a
    ``ret_action`` keeps its identity from the pause it is first seen on,
    and once committed the Entry holds what the reference tick leaves in
    its own."""
    seen = {}
    for backend in BACKENDS:
        machine = LBP(Params(num_cores=2), backend=backend).load(
            assemble(TEAM_TRAFFIC))
        held, actions = {}, {}
        while not machine.halted:
            machine.run(max_cycles=100_000, stop_at_cycle=machine.cycle + 1)
            for key, entry in _in_flight(machine).items():
                assert held.setdefault(key, entry) is entry, key
                if entry.ret_action is not None:
                    assert actions.setdefault(key, entry.ret_action) \
                        is entry.ret_action, key
        for key, action in actions.items():
            assert held[key].ret_action is action, key
        seen[backend] = {key: _fields(entry) for key, entry in held.items()}
    assert len(seen["soa"]) > 60 and seen["soa"] == seen["interp"]


#: stack traffic around a multiply and an add chain on x5 (t0): on a traced
#: machine each load and store is a call into ``Core._execute``
REGISTER_TRAFFIC = """
main:
    li   t1, 120
    li   t0, 1
    li   a0, 0
loop:
    add  t0, t0, t1
    mul  a1, t0, t1
    sw   a1, -4(sp)
    lw   a2, -4(sp)
    add  a0, a0, a2
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""


MEMORY = (int(InstrClass.LOAD), int(InstrClass.STORE))


def _outcome(machine):
    try:
        stats = machine.run(max_cycles=200_000)
    except MachineError as exc:
        return ("error", str(exc), machine.cycle, machine.state_dict())
    return (machine.halt_reason, machine.cycle, stats.state_dict(),
            machine.state_dict())


@compiled
def test_what_python_writes_in_a_call_is_what_the_ring_reads(monkeypatch):
    """A wrapped ``Core._execute`` writes, at its calls on a machine whose
    devices are in a DeviceTable, a waiting entry's ``val0`` / ``wait0`` / ``nwaits``, the
    buffer's ``ready_at``, ``regs[5]`` and ``rename[5]``: the compiled tick
    reads them back after the call, so both ticks end alike."""
    outcomes = []
    inner = Core._execute
    for backend in BACKENDS:
        machine = devices_in_python(LBP(
            Params(num_cores=1), backend=backend).load(
                assemble(REGISTER_TRAFFIC)))
        calls = [0]

        def wrapped(core, hart, entry):
            # (the reference tick calls it for every class, the compiled
            # one for loads and stores here: both count those)
            if entry.low.cls not in MEMORY:
                return inner(core, hart, entry)
            calls[0] += 1
            if calls[0] % 3 == 0:
                for waiter in hart.it:
                    if waiter.wait0 is not None:
                        waiter.val0, waiter.wait0 = 3, None
                        waiter.nwaits -= 1
                        hart.n_ready += waiter.nwaits == 0
                        break
            if calls[0] % 5 == 0 and hart.rb.busy \
                    and hart.rb.value is not None:
                hart.rb.ready_at += 2
            if calls[0] % 7 == 0:
                hart.regs[5] = (hart.regs[5] + 7) & 0xFFFFFFFF
                hart.rename[5] = None
            return inner(core, hart, entry)

        monkeypatch.setattr(Core, "_execute", wrapped)
        outcomes.append(_outcome(machine))
        monkeypatch.undo()
        assert calls[0] > 100
    assert outcomes[0][0] == "ebreak" and outcomes[0] == outcomes[1]


@compiled
def test_a_rob_filled_past_rob_size_stalls_rename_alike():
    """Twelve in flight while ``_rob_size`` says so (the ring grows past
    its eight), then back to eight: rename waits until the ROB drains below
    it, on both ticks alike."""
    program = compile_to_program(matmul_source("tiled", 16), "tiled.c")
    outcomes, longest = [], {}
    for backend in BACKENDS:
        machine = LBP(Params(num_cores=4), backend=backend).load(program)
        machine.run(max_cycles=1_000_000, stop_at_cycle=500)
        for core in machine.cores:
            core._rob_size = 12
        while machine.cycle < 1500:
            machine.run(max_cycles=1_000_000, stop_at_cycle=machine.cycle + 1)
            longest[backend] = max(
                [longest.get(backend, 0)]
                + [len(hart.rob) for core in machine.cores
                   for hart in core.harts])
        for core in machine.cores:
            core._rob_size = 8
        outcomes.append(_outcome(machine))
    assert longest["soa"] > 8 and longest == {
        backend: longest["soa"] for backend in BACKENDS}
    assert outcomes[0][0] == "exit" and outcomes[0] == outcomes[1]


@compiled
@pytest.mark.parametrize("alone", [False, True])
def test_an_instruction_table_item_not_an_entry_is_a_type_error(alone):
    """``it`` is read into the ring: anything but an Entry of the ROB there
    is the compiled tick's TypeError, from the window and from a tick
    called on its own."""
    for bad in (5, Entry(1, None, 0, None, None, None, None, 0)):
        machine = LBP(Params(num_cores=1)).load(assemble(REGISTER_TRAFFIC))
        machine.run(max_cycles=10_000, stop_at_cycle=20)
        hart = next(hart for hart in machine.cores[0].harts if hart.rob)
        hart.it.append(bad)
        with pytest.raises(TypeError, match="compiled tick"):
            if alone:
                machine.cores[0].tick()
            else:
                machine.run(max_cycles=10_000)
