"""Experiment E5 — claim (2): the overhead to parallelize a run is low.

We compare the retired-instruction count of the parallel base matmul
(team creation, CV transfers, join chain) against the same computation in
a plain sequential loop, and also report the speedup the parallel version
achieves.  The paper's accounting at h=16: 16722 retired parallel vs
14336 for the bare inner loops — the team machinery costs a few percent.
"""

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.workloads.matmul import (
    matmul_sequential_source,
    matmul_source,
    verify_matmul,
)

H = 16
CORES = 4


def _run(source, cores):
    program = compile_to_program(source, "mm.c")
    machine = LBP(Params(num_cores=cores)).load(program)
    stats = machine.run(max_cycles=50_000_000)
    return program, machine, stats


def test_parallelization_overhead():
    _prog_s, _m_s, seq = _run(matmul_sequential_source(H), CORES)
    prog_p, m_p, par = _run(matmul_source("base", H), CORES)
    verify_matmul(m_p, prog_p, "base", H)
    overhead = par.retired / seq.retired - 1.0
    speedup = seq.cycles / par.cycles
    print()
    print("sequential: %7d retired, %7d cycles" % (seq.retired, seq.cycles))
    print("parallel  : %7d retired, %7d cycles" % (par.retired, par.cycles))
    print("overhead  : %+5.1f%% retired instructions" % (100 * overhead))
    print("speedup   : %.2fx on %d cores / %d harts" % (speedup, CORES, 4 * CORES))

    # the team machinery costs little (paper: ~2.4k instr on 16.7k, ~14%;
    # at h=16 one fork per member is amortised over 128 MACs each)
    assert 0.0 <= overhead < 0.15, overhead
    # and parallelism pays: at 16 harts the run is many times faster
    assert speedup > 4.0, speedup


def test_metrics_overhead():
    """Telemetry is zero-perturbation in simulated time: the metered run's
    cycle count and retired count are identical to the unmetered run, and
    the stall breakdown accounts for every non-retiring stage-cycle.
    (What it costs in host time is ``observe.metrics_overhead`` in
    ``bench/``: a ratio of two wall times taken here would rise whenever
    the unmetered tick got faster.)"""
    from repro.eval.figures import run_matmul_experiment

    bare = run_matmul_experiment("base", H, CORES)
    metered = run_matmul_experiment("base", H, CORES, metrics=True)

    # zero perturbation: the simulated machine is unaware of the observer
    assert metered["cycles"] == bare["cycles"]
    assert metered["retired"] == bare["retired"]
    # accounting identity: every non-retiring stage-cycle is attributed
    stage_cycles = CORES * metered["cycles"]
    assert metered["retired"] + metered["stall_cycles"] == stage_cycles

    print()
    top = sorted(metered["stalls"].items(), key=lambda kv: -kv[1])[:3]
    for reason, count in top:
        print("  stall %-18s %8d (%.1f%% of stage-cycles)"
              % (reason, count, 100.0 * count / stage_cycles))
