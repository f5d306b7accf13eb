"""Serving workload: throughput/latency curves and the E-series
determinism contrast.

Per core count (1, 2, 4): run the deterministic request/response server
at a fixed seeded request schedule, self-check every response against
the Python reference, recover the dispatch-to-completion latency of each
request from the trace, and report p50/p99/max latency plus throughput
(requests per kilocycle) — all in simulated cycles, so the curve is the
same on every host.

Then the baseline contrast (EXPERIMENTS.md, E-series): the same logical
tasks — the per-hart retired instruction counts of the LBP run — timed
on the ClassicSMP model (seeded OS-scheduling nondeterminism: a
min/avg/max *spread*) and on the Deterministic Consistency model
(quantum barriers + deterministic write-buffer merge: one repeatable
number, like LBP itself).
"""

import pytest

from repro.baselines import ClassicSMP, DetCon
from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.workloads.serving import ServingWorkload

CORE_COUNTS = (1, 2, 4)
REQUESTS = 48
SEED = 11
MAX_CYCLES = 50_000_000

#: ClassicSMP timeslice for the contrast: server task slices retire a
#: few thousand instructions each, so the default 10k-cycle slice would
#: never preempt them (and hide the scheduling spread this experiment
#: exists to show)
CLASSIC_TIMESLICE = 300


def _run_serving(cores, requests=REQUESTS, seed=SEED):
    workload = ServingWorkload(cores=cores, num_requests=requests, seed=seed)
    program = compile_to_program(workload.source, "serving%d.c" % cores)
    machine = LBP(Params(num_cores=cores), trace=True).load(program)
    stats = machine.run(max_cycles=MAX_CYCLES)
    assert machine.halted
    workload.verify(machine, program)
    return workload, machine, program, stats


@pytest.mark.parametrize("cores", CORE_COUNTS)
def test_serving_throughput_latency_curve(cores):
    workload, machine, program, stats = _run_serving(cores)
    summary = workload.latency_summary(machine, program, stats)
    assert summary["requests"] == REQUESTS
    assert 0 < summary["lat_p50"] <= summary["lat_p99"] <= summary["lat_max"]
    assert summary["throughput_rpkc"] > 0
    print("\n%d core(s): %d cycles, %s" % (cores, stats.cycles, summary))


def test_serving_curve_is_run_to_run_identical():
    """The curve itself is an LBP determinism claim: same seed, same
    cycle count and latency percentiles, every run."""
    first = _run_serving(2)
    second = _run_serving(2)
    assert first[3].cycles == second[3].cycles
    assert (first[0].latency_summary(first[1], first[2], first[3])
            == second[0].latency_summary(second[1], second[2], second[3]))


def test_serving_lbp_vs_classic_vs_detcon():
    """E-series contrast on the serving tasks: LBP and DC each produce
    one repeatable cycle count; ClassicSMP produces a seed spread."""
    workload, machine, program, stats = _run_serving(2)
    counts = [h.retired for core in stats.harts for h in core if h.retired]
    assert len(counts) == workload.harts  # every worker + the controller ran

    classic = ClassicSMP(2, timeslice=CLASSIC_TIMESLICE)
    c_min, c_avg, c_max = classic.run_many(counts, runs=12)
    assert c_min < c_max  # a real spread: timing is schedule-dependent

    detcon = DetCon(2)
    d_min, d_avg, d_max = detcon.run_many(counts, runs=12)
    assert d_min == d_max  # DC, like LBP, is repeatable by construction

    print("\nLBP %d cycles; classic SMP min=%d avg=%.0f max=%d; DC %d"
          % (stats.cycles, c_min, c_avg, c_max, d_min))
