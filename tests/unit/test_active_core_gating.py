"""Active-core gating: the run loop only ticks cores with runnable work.

The gating set must be invisible to the model: cores wake through
``Hart.start`` (the single idle→runnable transition) and are always
iterated in fixed core-index order, so arbitration, event sequencing and
traces match the old all-cores-every-cycle loop exactly (the golden
trace tests pin that globally; here we probe the mechanism directly).
"""

import pytest

from repro.asm import assemble
from repro.machine import LBP, Params
from repro.machine.processor import MachineError

#: a woken hart issues one shared-memory store, then spins forever
STORE_AND_SPIN = """
main:
    lui  t1, 0x80000
    sw   zero, 0(t1)
spin:
    j    spin
"""

#: trivial single-hart program: count down, then halt
COUNTDOWN = """
main:
    li   t1, 50
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""


def test_only_core_zero_active_after_load():
    machine = LBP(Params(num_cores=4)).load(assemble(COUNTDOWN))
    assert [core.active for core in machine.cores] == [True, False, False, False]
    assert machine._num_active == 1


def test_idle_cores_are_skipped_and_counted():
    machine = LBP(Params(num_cores=4)).load(assemble(COUNTDOWN))
    stats = machine.run(max_cycles=100_000)
    # cores 1-3 never run: every one of their core-cycles was skipped
    assert stats.skipped_core_cycles >= 3 * stats.cycles - 3
    assert "skipped_core_cycles" in stats.summary()
    # the single-core run itself is unaffected by the machine's width
    alone = LBP(Params(num_cores=1)).load(assemble(COUNTDOWN))
    assert alone.run(max_cycles=100_000).cycles == stats.cycles


def test_simultaneous_wakeups_tick_in_core_index_order():
    """Cores woken by same-cycle events arbitrate by core index.

    The wake events fire in *reverse* core order (core 2's event is
    scheduled first, so it runs first); the run loop must still tick
    core 1 before core 2 on every subsequent cycle, which shows up as
    core 1's store request preceding core 2's in the trace.
    """
    machine = LBP(Params(num_cores=4), trace=True).load(
        assemble(STORE_AND_SPIN), start=False)
    entry = machine.program.entry
    wake_cycle = 5

    for core_index in (2, 1):  # deliberately reversed
        hart = machine.cores[core_index].harts[0]
        hart.reserved = True  # make the hart a valid start_pc target
        machine.post(core_index, wake_cycle, "start_pc", (hart.gid, entry))

    with pytest.raises(MachineError):  # the spin loops hit the limit
        machine.run(max_cycles=300)

    stores = [(cycle, core) for cycle, core, hart, kind, payload
              in machine.trace.events if kind == "mem_store_req"]
    assert len(stores) == 2, machine.trace.events
    # identical pipelines started the same cycle: both stores issue at
    # the same cycle, and the trace orders them core 1 first
    assert stores[0][0] == stores[1][0]
    assert [core for _, core in stores] == [1, 2]
    # nothing ran before the wake event
    assert all(cycle >= wake_cycle for cycle, _ in stores)


def test_waking_an_active_core_does_not_double_count():
    machine = LBP(Params(num_cores=4)).load(assemble(COUNTDOWN))
    core = machine.cores[0]
    assert core.active and machine._num_active == 1
    core.activate()  # idempotent
    assert machine._num_active == 1
