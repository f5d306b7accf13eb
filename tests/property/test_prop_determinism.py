"""Property: every randomly shaped team program is cycle-deterministic.

Hypothesis generates random parallel workloads (team size, per-member
work mix, shared-memory access patterns); each one must produce identical
full event traces on two runs, and correct per-member results.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.workloads import (
    HistogramWorkload, ReductionWorkload, ServingWorkload, SortWorkload,
    StencilWorkload)


@st.composite
def team_programs(draw):
    members = draw(st.integers(2, 12))
    work = draw(st.integers(1, 20))
    mix = draw(st.sampled_from(["alu", "mem", "mul", "mixed"]))
    if mix == "alu":
        body = "acc += t + i;"
    elif mix == "mem":
        body = "scratch[t] = acc; acc += scratch[t] + 1;"
    elif mix == "mul":
        body = "acc += (t + 1) * i;"
    else:
        body = "scratch[t] += i; acc += scratch[t] * t;"
    source = """
#include <det_omp.h>
int scratch[16];
int results[16];
void main() {
    int t;
    #pragma omp parallel for
    for (t = 0; t < %(members)d; t++) {
        int i;
        int acc = 0;
        for (i = 0; i < %(work)d; i++) {
            %(body)s
        }
        results[t] = acc;
    }
}
""" % {"members": members, "work": work, "body": body}
    return source, members, work, mix


def _reference(members, work, mix):
    scratch = [0] * 16
    results = [0] * 16
    for t in range(members):
        acc = 0
        for i in range(work):
            if mix == "alu":
                acc += t + i
            elif mix == "mem":
                scratch[t] = acc
                acc += scratch[t] + 1
            elif mix == "mul":
                acc += (t + 1) * i
            else:
                scratch[t] += i
                acc += scratch[t] * t
        results[t] = acc
    return results[:members]


@given(team_programs())
@settings(max_examples=25, deadline=None)
def test_random_team_programs_deterministic_and_correct(case):
    source, members, work, mix = case
    traces = []
    for _ in range(2):
        program = compile_to_program(source, "team.c")
        machine = LBP(Params(num_cores=3), trace=True).load(program)
        machine.run(max_cycles=5_000_000)
        traces.append((machine.stats.cycles, list(machine.trace.events)))
        base = program.symbol("results")
        got = [machine.read_word(base + 4 * t) for t in range(members)]
        expected = [v & 0xFFFFFFFF for v in _reference(members, work, mix)]
        assert got == expected, (mix, members, work)
    assert traces[0] == traces[1]


# ---- scheduling is backend-invisible at every pause ---------------------------
# The SoA backend parks stalled cores and both backends charge gated
# cores lazily; the interpreter never parks, so equal state at arbitrary
# pause points shows that neither shortcut ever skips a cycle that
# mattered (extends test_reference_parity's paused-state invariance test
# beyond one program and one pause).

_FAMILIES = {
    "serving": lambda size, seed: (
        ServingWorkload(cores=2, num_requests=2 + size, seed=seed), 2),
    "sort": lambda size, seed: (
        SortWorkload(8 << (size % 2), chunk=2, seed=seed), 4),
    "stencil": lambda size, seed: (
        StencilWorkload(8 + 4 * (size % 3), width=2, steps=1 + size % 2,
                        seed=seed), 4),
    "reduction": lambda size, seed: (
        ReductionWorkload(8 << (size % 2), chunk=4 + size, seed=seed), 4),
    "histogram": lambda size, seed: (
        HistogramWorkload(8, chunk=4 + 2 * size, bins=4, seed=seed), 2),
}


@given(family=st.sampled_from(sorted(_FAMILIES)), size=st.integers(0, 3),
       seed=st.integers(0, 1000),
       pauses=st.lists(st.integers(1, 6000), min_size=1, max_size=4))
@settings(max_examples=12, deadline=None)
def test_paused_state_is_backend_invariant(family, size, seed, pauses):
    workload, cores = _FAMILIES[family](size, seed)
    program = compile_to_program(workload.source, family + ".c")
    machines = [
        LBP(Params(num_cores=cores), trace=True,
            backend=backend).load(program)
        for backend in ("interp", "soa")
    ]
    for stop in sorted(pauses):
        for machine in machines:
            machine.run(max_cycles=5_000_000, stop_at_cycle=stop)
        assert machines[0].state_dict() == machines[1].state_dict(), stop
    for machine in machines:
        machine.run(max_cycles=5_000_000)
        workload.verify(machine, program)
    assert machines[0].state_dict() == machines[1].state_dict()
