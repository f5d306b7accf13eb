"""Ablation A1 — §5.2: multithreading hides latency; ≥2 harts fill a core.

LBP has no branch predictor: a hart is suspended after every fetch until
its next pc is known, so a single hart cannot exceed ~0.5 IPC.  The
paper's design point is that the pipeline bubbles are filled by the other
harts of the same application: with 2+ active harts the core approaches
its 1-IPC peak.

We run an arithmetic team of n = 1..4 members on one core and chart IPC.
"""

from repro.asm import assemble
from repro.detomp import runtime_asm, start_stub_asm, worker_asm
from repro.detomp.runtime import omp_globals_asm
from repro.eval import run_experiments
from repro.machine import LBP, Params

_BODY = """
__omp_body_0:
    li t1, 2000
    li t2, 0
body_loop:
    addi t2, t2, 1
    addi t2, t2, 2
    addi t2, t2, 3
    addi t2, t2, 4
    addi t1, t1, -1
    bnez t1, body_loop
    ret
"""


def _team_program(members):
    source = start_stub_asm() + """
main:
    addi sp, sp, -16
    sw ra, 0(sp)
    la a0, __omp_worker_0
    li a1, 0
    li a2, %d
    jal LBP_parallel_start
    lw ra, 0(sp)
    addi sp, sp, 16
    ret
""" % members + _BODY + worker_asm("__omp_worker_0", "__omp_body_0") \
        + runtime_asm() + omp_globals_asm()
    return assemble(source, "harts%d.s" % members)


def _ipc(members):
    machine = LBP(Params(num_cores=1)).load(_team_program(members))
    stats = machine.run(max_cycles=10_000_000)
    return stats.ipc


def test_multithreading_fills_the_pipeline():
    curve = run_experiments(
        [(members, _ipc, (members,)) for members in (1, 2, 3, 4)])
    print()
    for members, value in curve.items():
        print("  %d active hart(s): IPC %.3f  %s"
              % (members, value, "#" * int(40 * value)))

    # one hart alone is fetch-bound near 0.5 IPC
    assert curve[1] < 0.62, curve
    # two harts roughly double it; four saturate the 1-IPC core
    assert curve[2] > 1.55 * curve[1], curve
    assert curve[4] > 0.9, curve
    # monotone non-decreasing
    assert curve[1] < curve[2] <= curve[3] + 0.05 <= curve[4] + 0.1, curve
