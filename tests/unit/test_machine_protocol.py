"""The X_PAR team protocol on the cycle-accurate machine.

Covers the four p_ret ending cases, fork placement (p_fc/p_fn), the CV
transfer handshake, result-buffer synchronisation (p_swre/p_lwre), the
ordered-release barrier, two branches only hand-built teams reach (a
queued p_fn request, a join that arrives before its wait), and the
machine's deterministic traps.  (The parity harness, ``tests/parity.py``,
holds the refused team messages and the branches to the reference tick.)
"""

import pytest

from repro.asm import assemble
from repro.machine import LBP, DeadlockError, MachineError, Params
from repro.machine.trace import KINDS, Trace
from repro.snapshot import load_snapshot, save_snapshot

from parity import TEAM_BRANCHES, team


def _run(source, cores=1, max_cycles=100_000, trace=False):
    program = assemble(source)
    machine = LBP(Params(num_cores=cores), trace=trace).load(program)
    stats = machine.run(max_cycles=max_cycles)
    return program, machine, stats


FORK_PROTOCOL = team("%(fork)s", """
    la   t2, forked_flag
    li   t3, 1
    sw   t3, 0(t2)
    p_ret                     # case 4: joins back""", "child", """
    la  t2, child_flag
    li  t3, 1
    sw  t3, 0(t2)
    p_ret                     # case 2: the join hart waits
.data
forked_flag: .word 0
child_flag:  .word 0
""")


def test_fork_on_current_core():
    program, machine, stats = _run(FORK_PROTOCOL % {"fork": "p_fc"})
    assert machine.halt_reason == "exit"
    assert machine.read_word(program.symbol("forked_flag")) == 1
    assert machine.read_word(program.symbol("child_flag")) == 1
    assert stats.forks == 1 and stats.joins == 1


def test_fork_on_next_core():
    program, machine, stats = _run(FORK_PROTOCOL % {"fork": "p_fn"}, cores=2)
    assert machine.halt_reason == "exit"
    assert machine.read_word(program.symbol("forked_flag")) == 1
    # the forked hart ran on core 1
    assert machine.stats.harts[1][0].retired > 0


def test_p_fn_past_last_core_traps():
    source = FORK_PROTOCOL % {"fork": "p_fn"}
    program = assemble(source)
    machine = LBP(Params(num_cores=1)).load(program)
    with pytest.raises(MachineError, match="last core"):
        machine.run(max_cycles=100_000)


def test_exit_requires_minus_one():
    # p_ret with ra=0, t0=stamped-own-id → case 2 (wait): deadlock, not exit
    source = """
main:
    li ra, 0
    p_set t0, zero
    p_ret
"""
    program = assemble(source)
    machine = LBP(Params(num_cores=1)).load(program)
    with pytest.raises(DeadlockError):
        machine.run(max_cycles=10_000)


def test_swre_lwre_synchronise_asynchronous_harts():
    """p_lwre blocks in the instruction table until the p_swre data lands."""
    source = """
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0, t0
    p_fc t6
    la   t1, rp
    p_swcv t6, t1, 0
    p_swcv t6, t0, 4
    p_merge t0, t0, t6
    p_syncm
    la   a0, consumer
    p_jalr ra, t0, a0
    # ---- producer hart (hart 1): wastes time, then sends ----
    p_lwcv ra, 0
    p_lwcv t0, 4
    li   t2, 200
spin:
    addi t2, t2, -1
    bnez t2, spin
    li   t3, 777
    li   t4, 0          # target hart 0
    p_swre t4, t3, 2    # result buffer #2 of hart 0
    p_ret
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret
consumer:
    p_lwre t1, 2        # waits for the producer's value
    la   t2, got
    sw   t1, 0(t2)
    p_ret
.data
got: .word 0
"""
    program, machine, stats = _run(source, max_cycles=200_000)
    assert machine.read_word(program.symbol("got")) == 777


def test_swre_to_later_core_traps():
    source = """
main:
    li t1, 7          # hart 7 lives on core 1 — later than core 0
    li t2, 5
    p_swre t1, t2, 0
    ebreak
"""
    program = assemble(source)
    machine = LBP(Params(num_cores=2)).load(program)
    with pytest.raises(MachineError, match="later core"):
        machine.run(max_cycles=10_000)


def test_cv_write_lands_before_forked_start():
    """p_syncm before p_jalr guarantees the CV values are visible."""
    program, machine, _ = _run(FORK_PROTOCOL % {"fork": "p_fc"}, trace=True)
    trace = machine.trace.events
    cv_writes = [e for e in trace if e[3] == "cv_write"]
    starts = [e for e in trace if e[3] == "start"]
    assert cv_writes and starts
    assert max(e[0] for e in cv_writes) < min(e[0] for e in starts)


def test_ending_signal_orders_release():
    """Team members commit their p_ret in referential order."""
    program, machine, _ = _run(FORK_PROTOCOL % {"fork": "p_fc"}, trace=True)
    rets = [e for e in machine.trace.events if e[3] == "p_ret"]
    # hart 0's (wait) commits before hart 1's (join); the final exit follows
    kinds = [(hart, kind) for _cyc, _core, hart, _k, kind in rets]
    assert kinds == [(0, "wait"), (1, "join"), (0, "exit")]
    signals = [e for e in machine.trace.events if e[3] == "ending_signal"]
    assert len(signals) == 1


@pytest.mark.parametrize("backend", [None, "interp"])
@pytest.mark.parametrize("gid", [-1, 2 * 4])
def test_a_hart_id_outside_the_machine_is_no_hart(backend, gid):
    """Below 0 or past the last core (2 cores of 4 harts): an error, never
    a hart Python's negative indexing finds on the last core."""
    message = "cycle 0: hart id %d does not exist" % gid
    machine = LBP(Params(num_cores=2), backend=backend)
    assert machine._valid_gid(gid) is False
    assert machine._error == message
    machine = LBP(Params(num_cores=2), backend=backend)
    assert machine.hart_by_gid(gid) is machine.cores[0].harts[0]
    assert machine._error == message


@pytest.mark.parametrize("name", sorted(TEAM_BRANCHES))
def test_team_branch_is_reached(name):
    """Stepped one cycle at a time, the run passes through its branch."""
    cores, source, reached = TEAM_BRANCHES[name]
    machine = LBP(Params(num_cores=cores)).load(assemble(source))
    seen = False
    while not machine.halted:
        machine.run(stop_at_cycle=machine.cycle + 1, max_cycles=100_000)
        seen = seen or reached(machine)
    assert seen and machine.halt_reason == "ebreak"


@pytest.mark.parametrize("name", sorted(TEAM_BRANCHES))
def test_team_branch_orders_what_the_program_orders(name):
    """`data` crosses the branch's edge (no race); the planted pair on
    `shared` has none between its stores (exactly that race)."""
    cores, source, _ = TEAM_BRANCHES[name]
    program = assemble(source)
    machine = LBP(Params(num_cores=cores), sanitize=True).load(program)
    machine.run(max_cycles=100_000)
    report = machine.race_report()
    assert len(report) == 1 and report.blocked == 0, report.format()
    race = report.races[0]
    assert race.addr == program.symbol("shared")
    assert {race.a["pc"], race.b["pc"]} == {program.symbol("race_a"),
                                            program.symbol("race_b")}


def test_fetch_from_bad_address_traps():
    source = """
main:
    li t1, 0x1000
    jr t1
"""
    program = assemble(source)
    machine = LBP(Params(num_cores=1)).load(program)
    with pytest.raises(MachineError, match="non-code"):
        machine.run(max_cycles=10_000)


def test_unmapped_global_access_traps():
    source = """
main:
    li t1, 0x90000000
    lw t2, 0(t1)
    ebreak
"""
    program = assemble(source)
    machine = LBP(Params(num_cores=1)).load(program)
    with pytest.raises(MachineError, match="unmapped|outside"):
        machine.run(max_cycles=10_000)


def test_deadlock_reported_with_state():
    source = """
main:
    p_lwre t1, 0     # nobody ever sends
    ebreak
"""
    program = assemble(source)
    machine = LBP(Params(num_cores=1)).load(program)
    with pytest.raises(DeadlockError, match="hart 0"):
        machine.run(max_cycles=10_000)


def test_ecall_rejected():
    program = assemble("main: ecall")
    machine = LBP(Params(num_cores=1)).load(program)
    with pytest.raises(MachineError, match="ecall"):
        machine.run(max_cycles=10_000)


def test_p_jal_parallel_direct_call():
    """p_jal: call the function at the label, start the forked hart at
    pc+4 (figure 5's direct variant of the fork protocol)."""
    source = """
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0, t0
    p_fc t6
    la   t1, rp
    p_swcv t6, t1, 0
    p_swcv t6, t0, 4
    p_merge t0, t0, t6
    p_syncm
    p_jal ra, t0, child     # direct parallel call
    # ---- forked hart resumes here ----
    p_lwcv ra, 0
    p_lwcv t0, 4
    la   t2, side
    li   t3, 21
    sw   t3, 0(t2)
    p_ret
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret
child:
    la  t2, primary
    li  t3, 12
    sw  t3, 0(t2)
    p_ret
.data
primary: .word 0
side:    .word 0
"""
    program, machine, stats = _run(source)
    assert machine.halt_reason == "exit"
    assert machine.read_word(program.symbol("primary")) == 12
    assert machine.read_word(program.symbol("side")) == 21


def test_hart_reuse_after_team_ends():
    """Two successive teams reuse the same harts deterministically."""
    source = FORK_PROTOCOL % {"fork": "p_fc"}
    program, machine, stats = _run(source)
    first_cycles = stats.cycles
    program2, machine2, stats2 = _run(source)
    assert stats2.cycles == first_cycles  # full determinism, incl. reuse


#: one row per trace kind (and one per bank class): the args a site
#: records, and the line a trace prints for them
TRACE_LINES = [
    ("mem_load_req", (0x1A0C0, 27),
     "at cycle 467171, core 55, hart 2: mem_load_req "
     "addr 0x1a0c0 bank shared13"),
    ("mem_load_req", (0x40003FB4, 6),
     "at cycle 467171, core 55, hart 2: mem_load_req "
     "addr 0x40003fb4 bank local3"),
    ("mem_load_req", (0x100, -1),
     "at cycle 467171, core 55, hart 2: mem_load_req addr 0x100 bank code"),
    ("mem_store_req", (0x80000234, 0),
     "at cycle 467171, core 55, hart 2: mem_store_req "
     "addr 0x80000234 bank local0"),
    ("mem_load", (0x40003FB4, 0),
     "at cycle 467171, core 55, hart 2: mem_load addr 0x40003fb4 -> 0x0"),
    ("mem_store", (0x80000234, 0xFFFFFFFF),
     "at cycle 467171, core 55, hart 2: mem_store "
     "addr 0x80000234 <- 0xffffffff"),
    ("cv_write", (5, 8, 0x2A),
     "at cycle 467171, core 55, hart 2: cv_write hart 5 off 8 <- 0x2a"),
    ("re_send", (4, 1, 7),
     "at cycle 467171, core 55, hart 2: re_send hart 4 buf 1 <- 0x7"),
    ("fork", (1,),
     "at cycle 467171, core 55, hart 2: fork allocate hart 1"),
    ("start", (0x10C,),
     "at cycle 467171, core 55, hart 2: start pc 0x10c"),
    ("ending_signal", (6,),
     "at cycle 467171, core 55, hart 2: ending_signal to hart 6"),
    ("join", (0x2A0,),
     "at cycle 467171, core 55, hart 2: join resume 0x2a0"),
    ("p_ret", "exit",
     "at cycle 467171, core 55, hart 2: p_ret exit"),
]


@pytest.mark.parametrize("kind, args, line", TRACE_LINES,
                         ids=["%s-%d" % (row[0], n)
                              for n, row in enumerate(TRACE_LINES)])
def test_trace_formatting(kind, args, line):
    trace = Trace(enabled=True)
    trace.record(467171, 55, 2, kind, args)
    assert trace.formatted() == [line]
    assert trace.of_kind(kind) == [(467171, 55, 2, kind, args)]


def test_every_trace_kind_has_a_formatting_row():
    assert sorted({row[0] for row in TRACE_LINES}) == sorted(KINDS)


def test_an_unknown_trace_kind_is_refused():
    with pytest.raises(ValueError, match="unknown trace kind.*mem_stor; "
                       "the kinds are mem_load_req, .*, p_ret"):
        Trace(enabled=True, kinds=["mem_store", "mem_stor"])


def test_a_traced_run_resumes_with_the_same_events(tmp_path):
    """Pause, save, load, resume: the trace equals the uninterrupted
    run's, type for type (every args a tuple of ints, p_ret's a str)."""
    program = assemble(FORK_PROTOCOL % {"fork": "p_fc"})
    whole = LBP(Params(num_cores=1), trace=True).load(program)
    whole.run(max_cycles=100_000)
    first_p_ret = whole.trace.of_kind("p_ret")[0][0]
    paused = LBP(Params(num_cores=1), trace=True).load(program)
    paused.run(max_cycles=100_000, stop_at_cycle=first_p_ret + 1)
    assert {"mem_store", "p_ret", "fork"} <= {
        event[3] for event in paused.trace.events}
    path = str(tmp_path / "paused.lbpsnap")
    save_snapshot(paused, path)
    resumed = load_snapshot(path)
    resumed.run(max_cycles=100_000)

    def typed(events):
        return [(event, [type(field) for field in event[:4]],
                 type(event[4]), [type(arg) for arg in event[4]])
                for event in events]

    assert len(resumed.trace.events) > len(paused.trace.events)
    assert typed(resumed.trace.events) == typed(whole.trace.events)
    assert {type(event[4]) for event in whole.trace.events} == {tuple, str}
