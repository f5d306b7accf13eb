"""Cycle determinism at trace granularity (quick versions of E4)."""

from repro.compiler import compile_to_program
from repro.fastsim import FastLBP
from repro.machine import LBP, Params
from repro.workloads.setget import setget_source


def _trace_run(source_text, cores):
    program = compile_to_program(source_text, "t.c")
    machine = LBP(Params(num_cores=cores), trace=True).load(program)
    stats = machine.run(max_cycles=20_000_000)
    return stats, machine.trace.events


def test_identical_traces_across_runs():
    source = setget_source(8, 16)
    stats_a, trace_a = _trace_run(source, 2)
    stats_b, trace_b = _trace_run(source, 2)
    assert stats_a.cycles == stats_b.cycles
    assert trace_a == trace_b
    assert len(trace_a) > 50  # the comparison is not vacuous


def test_trace_includes_paper_style_events():
    source = setget_source(8, 16)
    _stats, trace = _trace_run(source, 2)
    kinds = {event[3] for event in trace}
    assert {"fork", "start", "cv_write", "p_ret", "join",
            "mem_load_req", "mem_store"} <= kinds


def test_determinism_holds_on_fast_simulator():
    program = compile_to_program(setget_source(8, 16), "t.c")
    runs = []
    for _ in range(2):
        machine = FastLBP(Params(num_cores=2)).load(
            compile_to_program(setget_source(8, 16), "t.c"))
        stats = machine.run(max_cycles=20_000_000)
        runs.append((stats.cycles, stats.retired))
    assert runs[0] == runs[1]


def test_different_programs_different_traces():
    """Sanity: the trace actually reflects the computation."""
    _s1, trace_small = _trace_run(setget_source(8, 8), 2)
    _s2, trace_large = _trace_run(setget_source(8, 32), 2)
    assert trace_small != trace_large
