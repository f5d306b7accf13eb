"""The X_PAR team protocol on the cycle-accurate machine.

Covers the four p_ret ending cases, fork placement (p_fc/p_fn), the CV
transfer handshake, result-buffer synchronisation (p_swre/p_lwre), the
ordered-release barrier, and the machine's deterministic traps.
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
