"""Core scheduling: gated / parked / ticking (DESIGN.md, "Core scheduling").

The cycle loop pays only for cores that can change state: a *gated* core
is not visited at all and its idle cycles are charged lazily, in bulk; a
*parked* core (busy, but no stage can fire before a known cycle) costs
one compare.  None of it may be observable — the reference tick
(``backend="interp"``), which never parks, and a machine stepped one
cycle at a time, which settles every cycle, are the references.
"""

import random

import pytest

from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.machine import LBP, DeadlockError, Params, native
from repro.machine.core import Core
from repro.machine.hart import NEVER
from repro.machine.reference import ReferenceCore
from repro.observe import Metrics
from repro.workloads import ServingWorkload, SortWorkload, StencilWorkload

MAX_CYCLES = 5_000_000

#: parking is the compiled tick's: on a host that could not build it every
#: machine runs the reference tick, which never parks
parks = pytest.mark.skipif(native.status()[0] != "native",
                           reason="no compiled tick: " + native.status()[1])

SCENARIOS = {
    "stencil_c16": (lambda: StencilWorkload(64, width=2, steps=1, seed=5), 16),
    "sort_c16": (lambda: SortWorkload(64, chunk=1, seed=5), 16),
    "serving_c4": (lambda: ServingWorkload(cores=4, num_requests=8, seed=5), 4),
}


@pytest.fixture(scope="module")
def programs():
    built = {}
    for name, (factory, cores) in SCENARIOS.items():
        built[name] = (compile_to_program(factory().source, name + ".c"),
                       cores)
    return built


def _machine(program, cores, **engine):
    return LBP(Params(num_cores=cores), **engine).load(program)


@pytest.fixture
def tick_counter(monkeypatch):
    """Count the ticks of one core class; returns the list of
    ``(cycle, core index, tick's return value)`` it appends to."""
    def install(cls):
        calls = []
        inner = cls.tick

        def tick(core):
            busy = inner(core)
            calls.append((core.machine.cycle, core.index, busy))
            return busy

        monkeypatch.setattr(cls, "tick", tick)
        return calls

    return install


# ---- (a) lazy idle accounting ------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lazy_skipped_cycles_equal_a_cycle_by_cycle_shadow_count(
        name, programs):
    """A core is skipped in cycle c iff it is gated both before and after
    it (a wakeup makes it tick in c; a core that gates off in c ticked)."""
    program, cores = programs[name]
    whole = _machine(program, cores)
    whole.run(max_cycles=MAX_CYCLES)

    stepped = _machine(program, cores)
    shadow = [0] * cores
    cycle = 0
    while not stepped.halted:
        before = [core.active for core in stepped.cores]
        cycle += 1
        stepped.run(max_cycles=MAX_CYCLES, stop_at_cycle=cycle)
        for index, core in enumerate(stepped.cores):
            if not before[index] and not core.active:
                shadow[index] += 1
    skipped = [c.skipped_cycles for c in whole.stats.per_core]
    assert skipped == shadow
    assert min(skipped) > 0  # every core was gated for a while
    assert stepped.state_dict() == whole.state_dict()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_paused_state_does_not_depend_on_earlier_pauses(name, programs):
    program, cores = programs[name]
    rng = random.Random(name)
    total = _machine(program, cores).run(max_cycles=MAX_CYCLES).cycles
    stop = rng.randrange(total // 4, total)
    direct = _machine(program, cores)
    direct.run(max_cycles=MAX_CYCLES, stop_at_cycle=stop)
    hopped = _machine(program, cores)
    for pause in sorted(rng.sample(range(1, stop), 12)):
        hopped.run(max_cycles=MAX_CYCLES, stop_at_cycle=pause)
    hopped.run(max_cycles=MAX_CYCLES, stop_at_cycle=stop)
    assert hopped.cycle == direct.cycle == stop
    assert hopped.state_dict() == direct.state_dict()
    for machine in (direct, hopped):
        for core in machine.cores:
            assert "idle_since" not in core.state_dict()
            assert "sleep_until" not in core.state_dict()


# ---- (b) metered windows of a gated core that takes link_wait ----------------

#: Core 1 never runs a hart, but its handlers reserve its backward line
#: twice in one cycle: the p_swcv ack (issued at c, arrives c + 3) and the
#: p_fn grant (decoded at c + 1, arrives c + 3) — the second reservation
#: queues, so link_wait is charged to a *gated* core, in whatever
#: sampling window is open there.  (Remote loads/stores cannot do this:
#: they reach an idle owner's links through one FIFO bank port.)
GATED_LINK_WAIT = """
main:
    li   t6, 4              # hart 0 of core 1
    li   t2, 3
round:
    li   t3, 40             # spread the rounds over sampling windows
delay:
    addi t3, t3, -1
    bnez t3, delay
    p_swcv t6, t2, 0
    p_fn t5
    addi t2, t2, -1
    bnez t2, round
    li   t0, -1
    p_ret
"""


@pytest.mark.parametrize("backend", ["soa", "interp"])
def test_metered_windows_survive_pauses_when_a_gated_core_is_charged(backend):
    program = assemble(GATED_LINK_WAIT)
    whole = _machine(program, 2, metrics=64, backend=backend)
    whole.run(max_cycles=MAX_CYCLES)
    paused = _machine(program, 2, metrics=64, backend=backend)
    cycle = 0
    while not paused.halted:
        cycle += 97
        paused.run(max_cycles=MAX_CYCLES, stop_at_cycle=cycle)
    report = whole.metrics_report()
    assert paused.metrics_report() == report
    assert paused.state_dict() == whole.state_dict()
    # the scenario is the one the docstring promises: core 1 stayed gated
    # from cycle 0 and still took one queued reservation per round, each
    # in the window the handler ran in (not the one its idle span began in)
    assert whole.stats.per_core[1].skipped_cycles == whole.stats.cycles
    rows = whole.metrics.core_rows(1, whole.stats.cycles)
    charged = [row[0] for row in rows if row[5]]
    assert len(charged) == 3 and charged[0] > 0
    assert report["link_wait_per_core"][1] == 3


@parks
def test_a_link_observer_other_than_the_machines_metrics_is_refused():
    """A link scheduler's observer is the machine's metrics (LBP binds
    both); the compiled window charges link_wait to that one, so it
    refuses a scheduler that observes another rather than charge it."""
    machine = _machine(assemble(GATED_LINK_WAIT), 2, metrics=64)
    machine.cores[1].links.observe(Metrics(64), 1)
    with pytest.raises(TypeError, match="other than machine.metrics"):
        machine.run(max_cycles=MAX_CYCLES)


# ---- (c) parking -------------------------------------------------------------


@parks
def test_serving_parks_most_ticks_and_matches_the_interpreter(
        programs, tick_counter):
    program, cores = programs["serving_c4"]
    interp_ticks = tick_counter(ReferenceCore)
    reference = _machine(program, cores, trace=True, backend="interp")
    total = reference.run(max_cycles=MAX_CYCLES).cycles
    never_parks = len(interp_ticks)

    soa_ticks = tick_counter(Core)
    machine = _machine(program, cores, trace=True, backend="soa")
    machine.run(max_cycles=MAX_CYCLES)
    assert len(soa_ticks) < never_parks // 2
    assert machine.trace.events == reference.trace.events
    assert machine.stats.state_dict() == reference.stats.state_dict()

    for stop in (total // 5, total // 2, total - 50):
        states = {}
        for backend in ("interp", "soa"):
            paused = _machine(program, cores, trace=True, backend=backend)
            paused.run(max_cycles=MAX_CYCLES, stop_at_cycle=stop)
            states[backend] = paused.state_dict()
        assert states["soa"] == states["interp"]


DIV_WAIT = """
main:
    li   t0, 1000
    li   t1, 7
    div  t2, t0, t1
    addi t3, t2, 1
    ebreak
"""


@parks
def test_lone_hart_waiting_on_a_div_parks_and_wakes_on_the_exact_cycle(
        tick_counter):
    program = assemble(DIV_WAIT)
    reference = _machine(program, 1, backend="interp")
    reference.run(max_cycles=MAX_CYCLES)

    ticks = tick_counter(Core)
    sleeps = {}
    machine = _machine(program, 1, backend="soa")
    core = machine.cores[0]
    cycle = 0
    while not machine.halted:
        # one cycle at a time: sleep_until is readable after each tick
        cycle += 1
        before = len(ticks)
        machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=cycle)
        if len(ticks) > before:
            sleeps[cycle - 1] = core.sleep_until
    assert machine.state_dict() == reference.state_dict()
    assert core.harts[0].regs[28] == 1000 // 7 + 1  # t3

    # run it again without the pauses: the div's latency is one gap
    del ticks[:]
    machine = _machine(program, 1, backend="soa")
    machine.run(max_cycles=MAX_CYCLES)
    assert machine.state_dict() == reference.state_dict()
    cycles = [cycle for cycle, _, _ in ticks]
    gaps = [(a, b) for a, b in zip(cycles, cycles[1:]) if b > a + 1]
    assert len(gaps) == 1
    parked_at, woke_at = gaps[0]
    # ... which ends on the cycle the divider's result becomes drainable
    # (read off the interpreter, paused before that cycle runs) ...
    reference = _machine(program, 1, backend="interp")
    reference.run(max_cycles=MAX_CYCLES, stop_at_cycle=woke_at)
    rb = reference.cores[0].harts[0].rb
    assert rb.busy and rb.ready_at == woke_at
    assert woke_at - parked_at > 4
    # ... announced by the parking tick; the wakeup tick fires (it drains
    # the result), so it does not park again
    assert sleeps[parked_at] == woke_at
    assert sleeps[woke_at] == 0


DEADLOCK = """
main:
    p_lwre t1, 0
    ebreak
"""


@parks
def test_parked_forever_still_deadlocks_with_the_reference_message(
        tick_counter):
    outcomes = {}
    ticks = tick_counter(Core)
    for backend in ("interp", "soa"):
        machine = _machine(assemble(DEADLOCK), 2, backend=backend)
        with pytest.raises(DeadlockError) as err:
            machine.run(max_cycles=MAX_CYCLES)
        outcomes[backend] = (str(err.value), machine.cycle,
                             machine.stats.state_dict())
    assert outcomes["soa"] == outcomes["interp"]
    assert outcomes["soa"][0].startswith("deadlock at cycle 4096:")
    # fetch, decode, a fruitless issue scan — then parked with no timer
    assert len(ticks) < 10
    assert machine.cores[0].sleep_until == NEVER
    assert machine.cores[0].active


# ---- (d) metered runs never park ---------------------------------------------


@parks
def test_metered_soa_ticks_every_busy_core_cycle(programs, tick_counter):
    program, cores = programs["serving_c4"]
    plain = _machine(program, cores, trace=True, backend="soa")
    plain.run(max_cycles=MAX_CYCLES)
    reference = _machine(program, cores, trace=True, metrics=True,
                         backend="interp")
    reference.run(max_cycles=MAX_CYCLES)

    ticks = tick_counter(Core)
    metered = _machine(program, cores, trace=True, metrics=True,
                       backend="soa")
    stats = metered.run(max_cycles=MAX_CYCLES)
    report = metered.metrics_report()
    busy_core_cycles = cores * stats.cycles - report["stalls"]["gated_idle"]
    assert sum(1 for _, _, busy in ticks if busy) == busy_core_cycles
    assert all(core.sleep_until == 0 for core in metered.cores)
    assert report == reference.metrics_report()
    assert metered.trace.events == plain.trace.events
    assert metered.stats.state_dict() == plain.stats.state_dict()
