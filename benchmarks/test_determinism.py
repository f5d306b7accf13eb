"""Experiment E4 — claim (1): LBP runs are cycle-by-cycle deterministic.

Repeated runs of the same Deterministic OpenMP program on the same LBP
machine produce *identical full event traces* — every fork, memory
request, link transfer, join and p_ret happens at the same cycle on the
same core and hart ("at cycle 467171, core 55, hart 2 sends a memory
request..." holds for any run).

The classic-SMP baseline makes the contrast: the same logical work under
an interrupt-driven OS scheduler produces a different timeline on every
run (seed), even though the results are the same — which is exactly why
the paper's Xeon measurements needed 1000 runs and a minimum.
"""

from repro.baselines import ClassicSMP
from repro.compiler import compile_to_program
from repro.eval import run_experiments
from repro.machine import LBP, Params
from repro.workloads.matmul import matmul_source, verify_matmul

H = 16
CORES = 4


def _traced_run():
    program = compile_to_program(matmul_source("base", H), "mm.c")
    machine = LBP(Params(num_cores=CORES), trace=True).load(program)
    stats = machine.run(max_cycles=10_000_000)
    verify_matmul(machine, program, "base", H)
    return stats, machine.trace.events


def test_lbp_cycle_determinism():
    # the two repeats run in separate worker processes through the
    # parallel runner — determinism must hold across process boundaries
    results = run_experiments(
        [("run_a", _traced_run), ("run_b", _traced_run)], jobs=2)
    (stats_a, trace_a) = results["run_a"]
    (stats_b, trace_b) = results["run_b"]
    print()
    print("run A: %d cycles, %d retired, %d trace events"
          % (stats_a.cycles, stats_a.retired, len(trace_a)))
    print("run B: %d cycles, %d retired, %d trace events"
          % (stats_b.cycles, stats_b.retired, len(trace_b)))
    assert stats_a.cycles == stats_b.cycles
    assert stats_a.retired == stats_b.retired
    assert trace_a == trace_b, "event traces differ between identical runs"
    print("traces identical, event for event (cycle determinism)")


def test_classic_smp_is_not_repeatable():
    # the same 16 tasks of ~30k instructions each, 8 runs
    tasks = [30_000] * 16
    model = ClassicSMP(num_cores=CORES, seed=100)
    lowest, average, highest = model.run_many(tasks, 8)
    print()
    print("classic SMP, 8 runs of the same work: min=%d avg=%.0f max=%d"
          % (lowest, average, highest))
    assert highest > lowest, "OS-scheduled runs should differ run to run"
    spread = (highest - lowest) / lowest
    assert spread > 0.005, spread

    # but the model itself is seed-deterministic (it is a simulation)
    again = ClassicSMP(num_cores=CORES, seed=100).run_tasks(tasks)
    first = ClassicSMP(num_cores=CORES, seed=100).run_tasks(tasks)
    assert again.cycles == first.cycles
