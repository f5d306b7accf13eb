"""The X_PAR team protocol on the cycle-accurate machine.

Covers the four p_ret ending cases, fork placement (p_fc/p_fn), the CV
transfer handshake, result-buffer synchronisation (p_swre/p_lwre), the
ordered-release barrier, two branches only hand-built teams reach (a
queued p_fn request, a join that arrives before its wait), and the
machine's deterministic traps.
"""

import pytest

from repro.asm import assemble
from repro.machine import LBP, DeadlockError, MachineError, Params
from repro.machine.trace import Trace


def _run(source, cores=1, max_cycles=100_000, trace=False):
    program = assemble(source)
    machine = LBP(Params(num_cores=cores), trace=trace).load(program)
    stats = machine.run(max_cycles=max_cycles)
    return program, machine, stats


FORK_PROTOCOL = """
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0, t0
    %(fork)s t6
    la   t1, rp
    p_swcv t6, t1, 0
    p_swcv t6, t0, 4
    p_merge t0, t0, t6
    p_syncm
    la   a0, child
    p_jalr ra, t0, a0
    # forked hart starts here
    p_lwcv ra, 0
    p_lwcv t0, 4
    la   t2, forked_flag
    li   t3, 1
    sw   t3, 0(t2)
    p_ret                     # case 4: joins back
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret                     # case 1: exit
child:
    la  t2, child_flag
    li  t3, 1
    sw  t3, 0(t2)
    p_ret                     # case 2: the join hart waits
.data
forked_flag: .word 0
child_flag:  .word 0
"""


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


#: team messages the machine refuses: (cores, program, the exact error)
PROTOCOL_ERRORS = {
    "p_swcv_past_next_core": (3, """
main:
    li   t6, 8            # hart 8 lives on core 2
    li   t1, 5
    p_swcv t6, t1, 0
    ebreak
""", "forward link only reaches the next core (0 -> 2)"),
    "p_jal_past_next_core": (3, """
main:
    li   t0, 8
    p_jal ra, t0, child
    ebreak
child:
    ebreak
""", "forward link only reaches the next core (0 -> 2)"),
    "p_jal_to_unallocated_hart": (1, """
main:
    li   t0, 1            # hart 1 was never forked
    p_jal ra, t0, child
    ebreak
child:
    li   t1, 50
spin:
    addi t1, t1, -1
    bnez t1, spin
    ebreak
""", "start pc sent to hart 1 which was not allocated"),
    "p_swre_to_missing_hart": (1, """
main:
    li   t1, 99
    li   t2, 5
    p_swre t1, t2, 0
    ebreak
""", "hart id 99 does not exist"),
    "p_swcv_to_missing_hart": (1, """
main:
    li   t6, 99
    li   t1, 5
    p_swcv t6, t1, 0
    ebreak
""", "hart id 99 does not exist"),
    "join_to_later_core": (2, """
main:
    li   ra, 4            # nonzero: a join, not an end
    li   t0, 0x40000      # join hart 4, on core 1
    p_ret
""", "join from hart 0 to a later core (hart 4)"),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_ERRORS))
def test_team_protocol_errors_are_the_same_on_both_ticks(name):
    """Each message is worded once, in processor.py: the compiled tick and
    the reference one stop at the same cycle with the same text."""
    cores, source, message = PROTOCOL_ERRORS[name]
    seen = []
    for backend in (None, "interp"):
        machine = LBP(Params(num_cores=cores), backend=backend).load(
            assemble(source))
        with pytest.raises(MachineError) as err:
            machine.run(max_cycles=10_000)
        assert str(err.value) == "cycle %d: %s" % (machine.cycle, message)
        seen.append((str(err.value), machine.cycle))
    assert seen[0] == seen[1]


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


#: hand-built teams for protocol branches no compiled program reaches:
#: name -> (cores, program, the branch as a predicate on a paused machine).
#: Each writes `data` before an edge and reads it after (ordered), and
#: plants one unordered write-write pair on `shared` (race_a, race_b).
TEAM_BRANCHES = {
    # the join reaches its hart before that hart's waiting p_ret: the
    # ordered release cannot prevent it when the joiner is the waiter's
    # *predecessor*, here after a one-member team of its own has already
    # sent the ending signal (so the join is the only edge left)
    "join_before_its_wait": (1, """
main:
    p_fc t6                   # hart 1, hart 0's successor
    p_jal ra, t6, h0          # hart 0 -> h0, hart 1 starts below
    la   t2, shared
    li   t3, 1
race_b:
    sw   t3, 0(t2)
    li   t1, 200
spin:
    addi t1, t1, -1
    bnez t1, spin
    li   ra, 0
    li   t0, 0x10000          # join hart 1 = itself: wait
    p_ret                     # the join is already pending
resume:
    la   t2, data
    lw   t3, 0(t2)
    la   t2, got
    sw   t3, 0(t2)
    ebreak
h0:
    la   ra, h0b
    li   t0, 0                # join hart 0 = itself: a one-member team
    p_ret                     # signals hart 1, resumes at h0b
h0b:
    la   t2, data
    li   t3, 42
    sw   t3, 0(t2)
    la   t2, shared
    li   t3, 2
race_a:
    sw   t3, 0(t2)
    la   ra, resume
    li   t0, 0x10000          # join hart 1
    p_ret                     # no predecessor left: the join goes now
.data
data:   .word 0
got:    .word 0
shared: .word 0
""", lambda m: m.hart_by_gid(1).pending_join is not None),
    # a p_fn request queued at a core with no free hart, granted when a
    # later p_ret frees one
    "p_fn_queued_until_a_p_ret": (2, """
main:
    p_fc s0                   # hart 1 will ask core 1 for a hart
    p_jal ra, s0, h0
    j    requester
h0:
    p_fn s1                   # harts 4..7: core 1 is full
    p_fn s2
    p_fn s3
    p_fn s4
    p_jal ra, s1, h0a
    j    orphan               # hart 4
h0a:
    p_jal ra, s2, h0b
    j    park
h0b:
    p_jal ra, s3, h0c
    j    park
h0c:
    p_jal ra, s4, h0d
    j    leaver               # hart 7, hart 0's successor by now
h0d:
    li   t1, 300
spin0:
    addi t1, t1, -1
    bnez t1, spin0
    li   ra, 0
    li   t0, 0
    p_ret                     # end: the ending signal releases hart 7
leaver:
    li   ra, 0
    li   t0, 0
    p_ret                     # end: frees hart 7, granted to the queue
orphan:
    la   t2, shared
    li   t3, 1
race_a:
    sw   t3, 0(t2)
park:
    li   ra, 0
    li   t0, 0
    p_ret                     # no ending signal ever comes: stays busy
requester:
    la   t2, data
    li   t3, 42
    sw   t3, 0(t2)
    li   t1, 40
spin1:
    addi t1, t1, -1
    bnez t1, spin1
    p_fn s5                   # core 1 has no free hart: queued
    p_jal ra, s5, park
    la   t2, data             # the granted hart
    lw   t3, 0(t2)
    la   t2, got
    sw   t3, 0(t2)
    la   t2, shared
    li   t3, 2
race_b:
    sw   t3, 0(t2)
    ebreak
.data
data:   .word 0
got:    .word 0
shared: .word 0
""", lambda m: bool(m.cores[1].fork_queue)),
}


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
def test_team_branch_is_the_same_on_both_ticks(name):
    cores, source, _ = TEAM_BRANCHES[name]
    program = assemble(source)
    runs = []
    for backend in (None, "interp"):
        machine = LBP(Params(num_cores=cores), backend=backend,
                      trace=True).load(program)
        machine.run(max_cycles=100_000)
        assert machine.halt_reason == "ebreak"
        assert machine.read_word(program.symbol("got")) == 42
        runs.append((machine.trace.events, machine.state_dict()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


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


def test_trace_formatting():
    trace = Trace(enabled=True)
    trace.record(467171, 55, 2, "mem_load_req", "addr 0x1a0c0 bank shared13")
    lines = trace.formatted()
    assert lines == ["at cycle 467171, core 55, hart 2: mem_load_req "
                     "addr 0x1a0c0 bank shared13"]
    assert len(trace.of_kind("mem_load_req")) == 1
