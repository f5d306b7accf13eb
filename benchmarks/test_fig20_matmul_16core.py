"""Figure 20 — the five matmul versions on a 16-core / 64-hart LBP.

Cycle-accurate simulation at h=64.  Default work scale is 1/2 — raised
from 1/4 by the hot-path overhaul (active-core gating + pre-lowered
decode), which bought back enough wall clock to double the default work
(set ``LBP_BENCH_SCALE=1`` for the full paper size); the scale shrinks
the columns each thread computes, not the placement or team structure.

Shape asserted (paper §7):
* copy beats base by a clear margin (paper: 16%) — copying the X line to
  the local stack removes repeated remote reads;
* base loses IPC against copy (paper: 12.7 against >15).

Finding recorded with the optimising back end (EXPERIMENTS.md C1, E2): the
paper's "copy stays near peak" (IPC >= 13) does not hold on optimised
code.  With an 8-instruction inner loop the 64 harts ask bank 0 for a
word every other instruction and its one port, not the pipeline, sets the
pace: base 4.4 IPC, copy 8.3 (half the remote reads, twice the IPC), while
the three placement-aware versions run at 14.6-14.7 of 16.  The old
15.2/15.7 were the non-optimising compiler's filler instructions hiding
the port.  The paper's relation stays in this file as a strict ``xfail``,
so a bank model that serves the demand turns it back into a plain test;
the port-bound numbers themselves are not asserted.
"""

import pytest
from conftest import bench_scale

from repro.eval import PAPER_FIG20, format_rows, run_matmul_figure

H = 64
CORES = 16


@pytest.fixture(scope="module")
def rows():
    scale = bench_scale(2)
    rows = run_matmul_figure(H, CORES, scale)
    print()
    print(format_rows(
        rows, PAPER_FIG20,
        "Figure 20 — 16-core LBP (64 harts), h=64, scale=1/%d" % scale))
    return rows


def test_fig20_matmul_16core(rows):
    cycles = {v: rows[v]["cycles"] for v in rows}
    ipc = {v: rows[v]["ipc"] for v in rows}

    # copy beats base by a clear margin (the paper's headline: 16%)
    assert cycles["copy"] < 0.95 * cycles["base"], cycles

    # peak is 16; base loses IPC against copy
    assert all(value <= 16.0 + 1e-9 for value in ipc.values()), ipc
    assert ipc["copy"] > ipc["base"], ipc

    # copy retires slightly more than base (paper: +1.5%)
    overhead = rows["copy"]["retired"] / rows["base"]["retired"] - 1.0
    assert 0.0 < overhead < 0.05, overhead


@pytest.mark.xfail(strict=True, reason="EXPERIMENTS.md E2: bank 0's single "
                   "port, not the pipeline, paces copy on optimised code")
def test_fig20_copy_stays_near_peak(rows):
    assert rows["copy"]["ipc"] >= 13.0, rows["copy"]
