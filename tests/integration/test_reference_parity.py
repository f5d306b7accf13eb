"""The production core is bit-exact against the reference tick.

``Core.tick`` is the compiled tick (``machine/_tick.c``), built for
speed: scoreboard gates, gated stage scans, inline issue, parking of
stalled cores.  None of that may be observable.  ``LBP(backend="interp")``
swaps in ``repro.machine.reference.ReferenceCore`` — the same state, the
same instruction semantics, and a Python tick that re-derives every
eligibility predicate from architectural state — and every golden digest
in ``tests/data/golden_traces.json`` must reproduce bit-exactly under
both: alone, space-sharded, under the race sanitizer, under stall
metrics, and with serialized state moving between the two mid-run.

The production *path* is more than the tick: ``LBP._simulate`` is the
compiled cycle window (``machine/_window.h``), which also issues and
completes loads and stores -- to the core's own banks and, across the
router tree, to another core's shared bank -- and records what the
trace and the sanitizer observe of them.  ``backend="interp"`` swaps all
of it for the Python ``_simulate``, ``schedule_access`` and handlers.
The golden digests are traced, on that path; the untraced tests at the
bottom hold it to the same standard without a trace.
"""

import gc
import json
import os
import random
import sys
import types

import pytest

from repro import memmap
from repro.asm import assemble
from repro.cli import main as cli_main
from repro.compiler import compile_to_program
from repro.machine import LBP, MachineError, Params, native
from repro.machine.core import Core
from repro.machine.io import Actuator, ScriptedInput, attach_input, attach_output
from repro.machine.reference import ReferenceCore
from repro.snapshot import snapshot, trace_digest
from repro.workloads import (
    HistogramWorkload,
    ReductionWorkload,
    ServingWorkload,
    SortWorkload,
    StencilWorkload,
    matmul_source,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import (  # noqa: E402
    GOLDEN_PATH,
    RE_CONTENTION,
    SCENARIOS,
    WORKLOADS,
    golden_program,
    measure,
)
from test_snapshot_roundtrip import _build  # noqa: E402
from helpers import TEAM_KINDS, TEAM_TRAFFIC  # noqa: E402

MAX_CYCLES = 50_000_000


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


# ---- the comparison has two sides ---------------------------------------------


def test_default_core_runs_the_native_tick():
    """Everything below compares ``backend="soa"`` with the reference; on
    a host where the extension did not build, both would *be* the
    reference and the suite would pass by comparing it with itself.  (CI's
    no-compiler job deselects this test by name: ``-k "not native"``.)"""
    assert native.status()[0] == "native", native.status()[1]
    # a C method descriptor bound to the class: no Python frame per tick
    assert type(Core.tick) is type(list.append)
    assert Core.tick.__objclass__ is Core
    assert ReferenceCore.tick is not Core.tick
    # and the idle settlement: a machine of ReferenceCores runs no C
    assert type(Core.settle_idle) is type(list.append)
    assert type(ReferenceCore.settle_idle) is types.FunctionType
    assert ReferenceCore.settle_idle is not Core.settle_idle
    assert all(type(core) is Core for core in LBP(Params(num_cores=2)).cores)
    # the cycle loop too; the reference machine carries the Python one
    assert type(LBP._simulate) is type(list.append)
    assert LBP._simulate.__objclass__ is LBP
    oracle = LBP(Params(num_cores=1), backend="interp")
    assert oracle._simulate.__func__ is LBP._reference_simulate
    assert "_simulate" not in vars(LBP(Params(num_cores=1)))


# ---- golden digests ----------------------------------------------------------


@pytest.mark.parametrize("backend", ["soa", "interp"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_digests_under_both_cores(name, backend, golden):
    assert measure(name, backend=backend) == golden[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", ["matmul_base_h16_c4", "re_contention_c1"])
def test_golden_digests_reference_sharded(name, golden):
    """The façade forwards the selector: shard workers tick the
    reference too (the production core sharded is
    ``test_sharded_engine.test_sharded_runs_match_golden_digests``)."""
    assert measure(name, shards=2, backend="interp") == golden[name]


# ---- observers stay zero-perturbation ----------------------------------------


def _run_observed(name, backend, sanitize=False, metrics=None):
    program, cores = _build(name)
    machine = LBP(Params(num_cores=cores), trace=True,
                  sanitize=sanitize, metrics=metrics, backend=backend)
    machine.load(program)
    stats = machine.run(max_cycles=MAX_CYCLES)
    return machine, stats


@pytest.mark.parametrize("name", ["matmul_base_h16_c4", "re_contention_c1"])
def test_sanitized_run_is_bit_exact_and_clean(name, golden):
    machine, stats = _run_observed(name, "soa", sanitize=True)
    reference = golden[name]
    assert stats.cycles == reference["cycles"]
    assert trace_digest(machine.trace.events) == reference["trace_sha256"]
    assert machine.race_report().races == []


def test_metered_run_is_bit_exact_and_reports_match(golden):
    name = "matmul_base_h16_c4"
    reference = golden[name]
    reports = {}
    for backend in ("soa", "interp"):
        machine, stats = _run_observed(name, backend, metrics=4096)
        assert stats.cycles == reference["cycles"]
        assert trace_digest(machine.trace.events) == reference["trace_sha256"]
        reports[backend] = machine.metrics_report()
    assert reports["soa"] == reports["interp"]


# ---- one state layout: serialized state moves between the cores --------------


@pytest.mark.parametrize("save_on,resume_on", [
    ("interp", "soa"),
    ("soa", "interp"),
])
def test_state_resumes_on_the_other_core(save_on, resume_on, golden):
    """Pause under one core, load the state into the other: the completed
    trace must still match the golden digest of the uninterrupted run."""
    name = "matmul_base_h16_c4"
    reference = golden[name]
    program, cores = _build(name)
    params = Params(num_cores=cores)
    machine = LBP(params, trace=True, backend=save_on).load(program)
    machine.run(max_cycles=MAX_CYCLES,
                stop_at_cycle=reference["cycles"] // 2)
    assert not machine.halted

    resumed = LBP(params, backend=resume_on).load(program, start=False)
    resumed.load_state_dict(machine.state_dict())
    stats = resumed.run(max_cycles=MAX_CYCLES)
    assert stats.cycles == reference["cycles"]
    assert stats.retired == reference["retired"]
    assert trace_digest(resumed.trace.events) == reference["trace_sha256"]


def test_paused_state_and_snapshot_bytes_are_core_invariant():
    """Mid-run serialized state is byte-identical whichever tick produced
    it — the snapshot format has one dialect."""
    name = "re_contention_c1"
    machines = {}
    for backend in ("interp", "soa"):
        program, cores = _build(name)
        machine = LBP(Params(num_cores=cores), trace=True,
                      backend=backend).load(program)
        machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=300)
        machines[backend] = machine
    assert machines["interp"].state_dict() == machines["soa"].state_dict()
    assert snapshot(machines["interp"]) == snapshot(machines["soa"])


# ---- the reference is an oracle: it reads no derived gate --------------------

def _oracle_program(name):
    if name == "serving_c4":
        workload = ServingWorkload(cores=4, num_requests=8, seed=5)
        return compile_to_program(workload.source, name + ".c"), 4
    return golden_program(name), SCENARIOS[name][1]


@pytest.mark.parametrize("name", ["serving_c4", "stencil_h8_c2"])
def test_reference_ignores_scribbled_gates(name, golden):
    """Step the reference in small strides and overwrite every derived
    gate with garbage at each pause: nothing it decides may move.  Fails
    the day the reference tick starts trusting what it is the oracle
    for."""
    program, cores = _oracle_program(name)
    params = Params(num_cores=cores)
    whole = LBP(params, trace=True).load(program)
    whole_stats = whole.run(max_cycles=MAX_CYCLES)
    if name in golden:
        assert trace_digest(whole.trace.events) == golden[name]["trace_sha256"]

    rng = random.Random(name)
    scribbled = LBP(params, trace=True, backend="interp").load(program)
    assert all(type(core) is ReferenceCore for core in scribbled.cores)
    pauses = 0
    while not scribbled.halted:
        for core in scribbled.cores:
            core._wb_wake = rng.choice((0, 1 << 40, float("inf")))
            for hart in core.harts:
                hart.fetch_ok = rng.random() < 0.5
                hart.n_ready = rng.choice((0, 1, 7))
        stats = scribbled.run(max_cycles=MAX_CYCLES,
                              stop_at_cycle=scribbled.cycle + rng.randint(1, 9))
        pauses += 1
    assert pauses > whole_stats.cycles // 9
    assert trace_digest(scribbled.trace.events) == trace_digest(
        whole.trace.events)
    assert stats.state_dict() == whole_stats.state_dict()
    assert scribbled.state_dict() == whole.state_dict()


# ---- one selector, for tests only --------------------------------------------


def test_backend_selects_the_core_class():
    # without the extension every machine is built on the reference
    default = Core if native.load() is not None else ReferenceCore
    assert type(LBP(Params(num_cores=1)).cores[0]) is default
    assert type(LBP(Params(num_cores=1), backend="soa").cores[0]) is default
    assert type(LBP(Params(num_cores=1),
                    backend="interp").cores[0]) is ReferenceCore
    with pytest.raises(ValueError, match="unknown backend"):
        LBP(Params(num_cores=1), backend="simd")


#: ``run()`` arguments neither loop could read as a cycle count the same way
#: (the compiled one reads int64s; a float or a bool is not one)
BAD_CYCLE_ARGS = [("stop_at_cycle", 100.5), ("stop_at_cycle", True),
                  ("max_cycles", 1e6), ("max_cycles", False),
                  ("snapshot_every", 2500.5), ("snapshot_every", "10")]


@pytest.mark.parametrize("backend", ["soa", "interp"])
@pytest.mark.parametrize("argument,value", BAD_CYCLE_ARGS)
def test_cycle_arguments_are_checked_before_anything_runs(
        backend, argument, value):
    machine = LBP(Params(num_cores=1), backend=backend).load(
        assemble(LOCAL_ACCESSES))
    machine.cores[0].sleep_until = 5  # run() would reset it first
    before = machine.state_dict()
    arguments = {argument: value, "snapshot_callback": lambda machine: None}
    with pytest.raises(TypeError) as raised:
        machine.run(**arguments)
    assert str(raised.value) == "%s must be None or an int, got %r" % (
        argument, value)
    assert machine.cores[0].sleep_until == 5
    assert machine.state_dict() == before


@pytest.mark.parametrize("engine", [{"backend": "soa"}, {"backend": "interp"},
                                    {"shards": 2}])
@pytest.mark.parametrize("every", [0, -1, -100])
def test_a_snapshot_period_below_one_is_refused_before_anything_runs(
        engine, every):
    """A period below one cycle never reaches the next snapshot (the
    sharded loop spun at cycle 0): every engine refuses it, and nothing
    has run or changed."""
    machine = LBP(Params(num_cores=2), **engine).load(
        assemble(LOCAL_ACCESSES))
    machine.run(max_cycles=10_000, stop_at_cycle=7)
    before = machine.state_dict()
    called = []
    with pytest.raises(ValueError) as raised:
        machine.run(snapshot_every=every, snapshot_callback=called.append)
    assert str(raised.value) == (
        "snapshot_every must be None or an int >= 1, got %r" % (every,))
    assert not called and machine.cycle == 7
    assert machine.state_dict() == before


def test_cli_has_no_backend_option(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("main:\n    ebreak\n")
    with pytest.raises(SystemExit) as err:
        cli_main(["run", str(source), "--backend", "interp"])
    assert err.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


# ---- the memory access (untraced: the compiled issue and handlers) -----------


def _untraced_golden(name, **engine):
    if name == "re_contention_c1":
        program, cores = assemble(RE_CONTENTION), 1
    else:
        program, cores = golden_program(name), SCENARIOS.get(name, (0, 4))[1]
    return LBP(Params(num_cores=cores), **engine).load(program)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_runs_equal_the_reference(name, golden):
    """Every golden program untraced, plain and metered: the remote
    accesses and their six event kinds on the compiled path (metered: with
    the metrics hooks called from C) against the whole Python path."""
    for metrics in (None, 512):
        runs = {}
        for backend in ("soa", "interp"):
            machine = _untraced_golden(name, backend=backend, metrics=metrics)
            stats = machine.run(max_cycles=MAX_CYCLES)
            assert stats.cycles == golden[name]["cycles"]
            assert stats.remote_accesses == golden[name]["remote"]
            runs[backend] = (machine.state_dict(), stats.state_dict(),
                             machine.metrics_report() if metrics else None)
        assert runs["soa"] == runs["interp"]


#: stores and loads of every width to the stack and to the core's own
#: shared bank, back to back, so ports queue and events overlap; -3 makes
#: lb / lh sign-extend and lbu / lhu not
LOCAL_ACCESSES = """
main:
    la   a0, cell
    li   t1, -3
    sw   t1, -4(sp)
    lw   t2, -4(sp)
    sw   t1, 0(a0)
    lh   t3, 0(a0)
    sh   t2, 6(a0)
    lb   t4, 7(a0)
    lbu  t5, 7(a0)
    lhu  t6, 6(a0)
    sb   t4, -8(sp)
    lw   a1, 4(a0)
    lw   a2, -8(sp)
    ebreak
.data
cell: .word 0, 0
"""

LOCAL_KINDS = {"load_read", "load_done", "store_write"}


def _untraced(source, backend, cores=1, **engine):
    return LBP(Params(num_cores=cores), backend=backend,
               **engine).load(assemble(source))


def test_local_accesses_are_bit_exact_untraced():
    machines = {}
    for backend in ("soa", "interp"):
        machine = _untraced(LOCAL_ACCESSES, backend)
        stats = machine.run(max_cycles=10_000)
        assert stats.local_accesses == 7 and stats.retired > 12
        machines[backend] = machine
    regs = machines["soa"].cores[0].harts[0].regs
    assert regs[7] == 0xFFFFFFFD and regs[28] == 0xFFFFFFFD      # lw, lh
    assert regs[29] == 0xFFFFFFFF and regs[30] == 0xFF            # lb, lbu
    assert regs[31] == 0xFFFD and regs[11] == 0xFFFD0000          # lhu, lw
    assert regs[12] == 0xFF                                       # sb + lw
    assert machines["soa"].state_dict() == machines["interp"].state_dict()
    assert snapshot(machines["soa"]) == snapshot(machines["interp"])


@pytest.mark.parametrize("save_on,resume_on", [
    ("soa", "interp"),
    ("interp", "soa"),
])
def test_pending_local_events_resume_on_the_other_loop(save_on, resume_on):
    """Pause where the queue holds a load_read, a load_done and a
    store_write -- posted by the C issue path when *save_on* is the
    production core -- and finish under the other loop's handlers.  By
    then instructions have retired and others are in flight: on the
    production core those sit in ``Entry`` objects commit parked and
    rename took back, with timers that share one ``cycle + 1`` int, and
    the snapshot bytes must not tell."""
    whole = _untraced(LOCAL_ACCESSES, "interp")
    whole.run(max_cycles=10_000)

    paused = {}
    for backend in ("soa", "interp"):
        machine = _untraced(LOCAL_ACCESSES, backend)
        for cycle in range(1, whole.cycle):
            machine.run(max_cycles=10_000, stop_at_cycle=cycle)
            if ({event[4] for event in machine._events} >= LOCAL_KINDS
                    and machine.stats.retired >= 4
                    and machine.cores[0].harts[0].rob):
                break
        else:
            pytest.fail("no cycle with all three kinds pending")
        assert all(type(event) is tuple and type(event[5]) is tuple
                   for event in machine._events)
        paused[backend] = machine
    assert paused["soa"].state_dict() == paused["interp"].state_dict()
    assert snapshot(paused["soa"]) == snapshot(paused["interp"])

    resumed = _untraced(LOCAL_ACCESSES, resume_on)
    resumed.load_state_dict(paused[save_on].state_dict())
    resumed.run(max_cycles=10_000)
    assert resumed.state_dict() == whole.state_dict()
    assert snapshot(resumed) == snapshot(whole)


REMOTE_BANK = memmap.GLOBAL_BASE + memmap.GLOBAL_BANK_SIZE

#: back-to-back stores of every width from core 0 into core 1's shared
#: bank, read back: requests, bank writes and acks overlap on the tree
REMOTE_STORES = """
main:
    li   a0, %d
    li   t1, -3
    sw   t1, 0(a0)
    sh   t1, 4(a0)
    sb   t1, 6(a0)
    sw   t1, 8(a0)
    sw   a0, 12(a0)
    lw   t2, 0(a0)
    lh   t3, 4(a0)
    lbu  t4, 6(a0)
    lw   t5, 12(a0)
    ebreak
""" % REMOTE_BANK

def _well_formed_heap(events):
    """``machine._events`` at rest: (cycle, origin, oseq, dst, kind, args)
    tuples with tuple args, in ``heapq`` order."""
    return (all(type(event) is tuple and len(event) == 6
                and type(event[5]) is tuple for event in events)
            and all(events[(i - 1) // 2] < events[i]
                    for i in range(1, len(events))))


@pytest.mark.parametrize("source,cores", [(LOCAL_ACCESSES, 1),
                                          (REMOTE_STORES, 2),
                                          (TEAM_TRAFFIC, 2)],
                         ids=["local", "remote", "team"])
def test_every_pause_leaves_the_same_pending_events(source, cores):
    """Step both loops one cycle at a time, so the compiled window returns
    at every cycle boundary the run has: each time, it has handed back
    the very events the reference loop holds, as well-formed tuples -- a
    team's messages of every kind among them."""
    machines = [_untraced(source, backend, cores)
                for backend in ("soa", "interp")]
    cycle = pending = 0
    kinds = set()
    while not all(machine.halted for machine in machines):
        cycle += 1
        assert cycle < 10_000
        seen = []
        for machine in machines:
            machine.run(max_cycles=10_000, stop_at_cycle=cycle)
            assert _well_formed_heap(machine._events), cycle
            seen.append((machine.cycle, sorted(machine._events)))
        assert seen[0] == seen[1], cycle
        pending += len(seen[0][1])
        kinds.update(event[4] for event in seen[0][1])
    assert pending > 20
    assert source is not TEAM_TRAFFIC or kinds >= TEAM_KINDS
    assert machines[0].state_dict() == machines[1].state_dict()


#: each program, its cores, and the remote kinds paused with in flight
REMOTE_PAUSES = {
    "loads": (lambda: golden_program("sort_h8_c2"), 2,
              {"rreq_load", "bank_read", "rrep_load"}),
    "stores": (lambda: assemble(REMOTE_STORES), 2,
               {"rreq_store", "bank_write", "rack_store"}),
}


@pytest.mark.parametrize("save_on,resume_on", [
    ("soa", "interp"),
    ("interp", "soa"),
])
def test_pending_remote_events_resume_on_the_other_loop(save_on, resume_on):
    """Pause where a remote access's three event kinds are all in flight
    -- posted from C across the router tree when *save_on* is the
    production core -- and finish under the other loop: state and snapshot
    bytes equal at the pause, and the resumed run equals a whole one."""
    for name, (build, cores, kinds) in sorted(REMOTE_PAUSES.items()):
        program = build()
        whole = LBP(Params(num_cores=cores), backend="interp").load(program)
        whole.run(max_cycles=MAX_CYCLES)
        probe = LBP(Params(num_cores=cores), backend="interp").load(program)
        while not kinds <= {event[4] for event in probe._events}:
            assert probe.cycle < whole.cycle, name
            probe.run(max_cycles=MAX_CYCLES, stop_at_cycle=probe.cycle + 1)
        paused = {}
        for backend in ("soa", "interp"):
            machine = LBP(Params(num_cores=cores),
                          backend=backend).load(program)
            machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=probe.cycle)
            assert {event[4] for event in machine._events} >= kinds
            assert all(type(event) is tuple and type(event[5]) is tuple
                       for event in machine._events)
            paused[backend] = machine
        assert paused["soa"].state_dict() == paused["interp"].state_dict()
        assert snapshot(paused["soa"]) == snapshot(paused["interp"])

        resumed = LBP(Params(num_cores=cores),
                      backend=resume_on).load(program, start=False)
        resumed.load_state_dict(paused[save_on].state_dict())
        resumed.run(max_cycles=MAX_CYCLES)
        assert resumed.state_dict() == whole.state_dict(), name
        assert snapshot(resumed) == snapshot(whole), name
        if name == "stores":
            regs = whole.cores[0].harts[0].regs
            assert regs[7] == 0xFFFFFFFD and regs[28] == 0xFFFFFFFD  # lw, lh
            assert regs[29] == 0xFD and regs[30] == REMOTE_BANK      # lbu, lw


#: core 0 of a two-chip machine stores to and loads from a bank behind
#: each router level: r1 (core 1), r2 (core 5), r3 (core 17), r4 (core 65)
EVERY_LEVEL = """
main:
    li   a0, %d
    li   a1, %d
    li   a2, %d
    li   a3, %d
    li   t1, 77
    sw   t1, 0(a0)
    sw   t1, 0(a1)
    sw   t1, 0(a2)
    sw   t1, 0(a3)
    lw   t2, 0(a0)
    lw   t3, 0(a1)
    lw   t4, 0(a2)
    lw   t5, 0(a3)
    add  t6, t2, t3
    add  t6, t6, t4
    add  t6, t6, t5
    ebreak
""" % tuple(memmap.global_bank_base(core) for core in (1, 5, 17, 65))


def test_remote_paths_through_every_router_level_equal_the_reference():
    """Request and reply paths up to r4 and back, each link port found,
    made (its tag's row too, as long) and reserved as the Python router
    does.  One link is booked ahead, so the
    request behind it waits and the metered leg charges ``link_wait``
    from C.  (State compared without the 66 banks' bytes.)"""
    program = assemble(EVERY_LEVEL)
    for metrics in (None, 64):
        runs = {}
        for backend in ("soa", "interp"):
            machine = LBP(Params(num_cores=66), backend=backend,
                          metrics=metrics).load(program)
            machine.cores[0].links.port(("r1>r2", 0)).next_free = 40
            stats = machine.run(max_cycles=10_000)
            assert stats.remote_accesses == 8
            assert machine.cores[0].harts[0].regs[31] == 4 * 77
            runs[backend] = (
                machine.cycle, stats.state_dict(),
                [(core.links.state_dict(),
                  [row and len(row) for row in core.links._links],
                  core.mem.shared_router_port.next_free, core._seq)
                 for core in machine.cores],
                machine.cores[0].harts[0].state_dict(),
                machine.metrics_report() if metrics else None)
            del machine
            gc.collect()
        assert runs["soa"] == runs["interp"]
        if metrics:
            assert runs["soa"][4]["link_wait"] > 0


DEVICE_BASE = memmap.GLOBAL_BASE + memmap.IO_REQUEST_OFFSET

#: the edges of the native path: each but remote_lb_lh is one access that
#: the window hands to the Python schedule_access / handler
#: (on the issuing side, or at the owner's bank); remote_lb_lh sign-extends
#: in the native bank_read.  The remote_* programs run on two cores.
SLOW_ACCESSES = {
    "device": """
main:
    li   a0, %d
poll:
    lw   t1, 0(a0)
    beqz t1, poll
    lw   t2, 4(a0)
    sw   t2, 12(a0)
    ebreak
""" % DEVICE_BASE,
    "code_bank": """
main:
    lw   t1, 0(zero)
    lw   t2, 4(zero)
    ebreak
""",
    "local_out_of_range": """
main:
    li   a0, %d
    lw   t1, 0(a0)
    ebreak
""" % (memmap.LOCAL_BASE + memmap.LOCAL_SIZE - 2),
    "store_out_of_range": """
main:
    li   a0, %d
    sw   a0, 0(a0)
    ebreak
""" % (memmap.GLOBAL_BASE + memmap.GLOBAL_BANK_SIZE - 1),
    "unmapped": """
main:
    li   a0, 0x50000000
    lw   t1, 0(a0)
    ebreak
""",
    "remote_unmapped": """
main:
    li   a0, %d
    sw   a0, 0(a0)
    ebreak
""" % (memmap.GLOBAL_BASE + 8 * memmap.GLOBAL_BANK_SIZE),
    # hart 0 forks a hart on core 1 (p_fn), which polls the device in core
    # 0's bank and answers it, while hart 0 runs `child` and joins
    "remote_device": """
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
    li   a1, %d
poll:
    lw   t1, 0(a1)
    beqz t1, poll
    lw   t2, 4(a1)
    sw   t2, 12(a1)
    p_ret
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret
child:
    p_ret
""" % DEVICE_BASE,
    "remote_out_of_range": """
main:
    li   a0, %d
    lw   t1, 0(a0)
    ebreak
""" % (REMOTE_BANK + memmap.GLOBAL_BANK_SIZE - 2),
    "remote_lb_lh": """
main:
    li   a0, %d
    li   t1, -3
    sw   t1, 0(a0)
    lb   t2, 0(a0)
    lh   t3, 2(a0)
    lbu  t4, 1(a0)
    lhu  t5, 0(a0)
    ebreak
""" % REMOTE_BANK,
}


@pytest.mark.parametrize("name", sorted(SLOW_ACCESSES))
def test_accesses_the_native_path_declines_equal_the_reference(name):
    outcomes = {}
    for backend in ("soa", "interp"):
        machine = _untraced(SLOW_ACCESSES[name], backend,
                            cores=2 if name.startswith("remote") else 1)
        sensor = attach_input(machine, DEVICE_BASE,
                              ScriptedInput([(40, 1234)]))
        motor = attach_output(machine, DEVICE_BASE + 8, Actuator())
        try:
            machine.run(max_cycles=10_000)
            error = None
        except MachineError as exc:
            error = str(exc)
        state = machine.state_dict()
        outcomes[backend] = (error, machine.cycle, sensor.consumed_at,
                             motor.writes, state)
    assert outcomes["soa"] == outcomes["interp"]
    error = outcomes["soa"][0]
    regs = outcomes["soa"][4]["cores"][0]["core"]["harts"][0]["regs"]
    if name in ("device", "remote_device"):
        assert error is None and outcomes["soa"][3][0][1] == 1234
    elif name == "code_bank":
        assert error is None
        assert regs[6] != 0 and regs[7] != 0  # the program's own words
    elif name == "remote_lb_lh":
        assert error is None
        assert regs[7] == 0xFFFFFFFD and regs[28] == 0xFFFFFFFF  # lb, lh
        assert regs[29] == 0xFF and regs[30] == 0xFFFD           # lbu, lhu
    elif "out_of_range" in name:
        assert "outside bank" in error
    else:
        assert "unmapped address" in error


def test_untraced_sharded_run_equals_the_reference(golden):
    """Two shard workers on the compiled path -- ``_owned`` is a set there,
    so every native ``post`` takes the owned-or-outbox rule -- against the
    unsharded reference, untraced."""
    name = "matmul_tiled_h16_c4"
    program, cores = _build(name)
    runs = {}
    for key, engine in (("sharded", {"shards": 2}),
                        ("reference", {"backend": "interp"})):
        machine = LBP(Params(num_cores=cores), **engine).load(program)
        stats = machine.run(max_cycles=MAX_CYCLES)
        assert stats.cycles == golden[name]["cycles"]
        assert stats.retired == golden[name]["retired"]
        assert stats.local_accesses == golden[name]["local"]
        runs[key] = machine.state_dict()
    assert runs["sharded"] == runs["reference"]


def test_untraced_sharded_remote_posts_equal_the_reference(golden):
    """One core per shard: every remote request, bank reply and store ack
    the C posts crosses to the other worker's outbox."""
    name = "stencil_h8_c2"
    runs = {}
    for key, engine in (("sharded", {"shards": 2}),
                        ("reference", {"backend": "interp"})):
        machine = _untraced_golden(name, **engine)
        stats = machine.run(max_cycles=MAX_CYCLES)
        assert stats.cycles == golden[name]["cycles"]
        assert stats.remote_accesses == golden[name]["remote"] > 0
        runs[key] = machine.state_dict()
    assert runs["sharded"] == runs["reference"]


# ---- the metrics charges (metered: made in C, the hooks the reference) ------

#: the five programs of the irregular benchmark workload, as bench/ builds
#: them (seed 1), and the dense one and the served job
METERED = {
    "stencil": (lambda: StencilWorkload(64, width=8, steps=2, seed=1), 16),
    "sort": (lambda: SortWorkload(64, chunk=4, seed=1), 16),
    "histogram": (lambda: HistogramWorkload(64, chunk=16, bins=16, seed=1),
                  16),
    "reduction": (lambda: ReductionWorkload(64, chunk=32, seed=1), 16),
    "serving": (lambda: ServingWorkload(cores=4, num_requests=24, seed=1), 4),
    "tiled16": (lambda: matmul_source("tiled", 16), 4),
    "base16": (lambda: matmul_source("base", 16), 4),
}


@pytest.mark.parametrize("name", sorted(METERED))
def test_metered_charges_equal_the_reference(name):
    """Interval 64, so windows close inside idle spans as well as at busy
    ticks: the stall classifier, the gated-idle charges (one cycle, and
    settled spans split at the edges), the remote etas and their pops, all
    made by the compiled kernel, against the Python hooks."""
    build, cores = METERED[name]
    made = build()
    source = made if isinstance(made, str) else made.source
    program = compile_to_program(source, name + ".c")
    runs = {}
    for backend in ("soa", "interp"):
        machine = LBP(Params(num_cores=cores), metrics=64,
                      backend=backend).load(program)
        machine.run(max_cycles=MAX_CYCLES)
        if not isinstance(made, str):
            made.verify(machine, program)
        runs[backend] = (machine.metrics_report(), machine.state_dict())
        del machine
        gc.collect()
    assert runs["soa"] == runs["interp"]
    report = runs["soa"][0]
    assert report["accounted"] is True
    assert len(report["windows"]) > 10
    assert report["stalls"]["gated_idle"] > 0
    assert report["remote_accesses"] > 0


def test_every_metered_pause_leaves_the_same_state():
    """Metered, stepped one cycle at a time: at every pause both backends
    hold the same state, the in-flight remote etas included."""
    machines = [_untraced(REMOTE_STORES, backend, 2, metrics=4)
                for backend in ("soa", "interp")]
    cycle = in_flight = 0
    while not all(machine.halted for machine in machines):
        cycle += 1
        assert cycle < 10_000
        states = []
        for machine in machines:
            machine.run(max_cycles=10_000, stop_at_cycle=cycle)
            states.append(machine.state_dict())
        assert states[0] == states[1], cycle
        in_flight += sum(
            len(etas)
            for core in states[0]["cores"]
            for _gid, etas in core["observe"]["slot"]["remote_inflight"])
    assert in_flight > 20
    assert (machines[0].metrics_report() == machines[1].metrics_report())
