"""The hart-activity timeline renderer (the observable figure 3)."""

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.machine.timeline import build_lanes, render

_SOURCE = """
#include <det_omp.h>
int v[8];
void main() {
    int t;
    #pragma omp parallel for
    for (t = 0; t < 8; t++)
        v[t] = t;
}
"""


def _traced_machine():
    program = compile_to_program(_SOURCE, "tl.c")
    machine = LBP(Params(num_cores=2), trace=True).load(program)
    machine.run(max_cycles=1_000_000)
    return machine


def test_lanes_cover_all_member_executions():
    machine = _traced_machine()
    lanes, last = build_lanes(machine.trace.events, machine.params.num_harts)
    # 8 member executions + the creator's post-join resume; tiny bodies
    # allow hart-slot reuse, so executions — not lanes — are counted
    executions = sum(len(lane.intervals) for lane in lanes)
    assert executions == 9
    assert last > 0


def test_diagonal_expansion_order():
    """Member k starts after member k-1 — the figure-3 diagonal."""
    machine = _traced_machine()
    starts = [e[0] for e in machine.trace.events if e[3] == "start"]
    assert starts == sorted(starts)
    assert len(starts) == 7      # 7 forked members (hart 0 boots)


def test_render_shape_and_legend():
    machine = _traced_machine()
    lines = render(machine.trace.events, machine.params.num_harts, width=60)
    assert lines[0].startswith("cycles 0..")
    body = lines[1:]
    assert 7 <= len(body) <= 8   # hart-slot reuse can fold two members
    assert body[0].startswith("hart   0")
    # the boot hart shows boot, wait-for-join, join and exit marks
    assert "F" in body[0] and "X" in body[0]
    # forked members show start and end
    assert all("s" in line and "E" in line for line in body[1:])
    # all rows equal width
    assert len({len(line) for line in body}) == 1


def test_render_empty_trace():
    lines = render([], 8)
    assert lines[0].startswith("cycles 0..0")
    # only the boot lane appears (its F mark)
    assert len(lines) == 2
