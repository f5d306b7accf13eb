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
paper's "copy stays near peak" (this file asserted IPC >= 13) does not
hold on optimised code.  With an 8-instruction inner loop the 64 harts ask
bank 0 for a word every other instruction and its one port, not the
pipeline, sets the pace: base 4.4 IPC, copy 8.3 (half the remote reads,
twice the IPC), while the three placement-aware versions run at 14.6-14.7
of 16.  The old 15.2/15.7 were the non-optimising compiler's filler
instructions hiding the port.  What is asserted now is the relation that
survives, with the paper's numbers kept in the table.
"""

from conftest import bench_scale

from repro.eval import PAPER_FIG20, format_rows, run_matmul_figure

H = 64
CORES = 16


def test_fig20_matmul_16core():
    scale = bench_scale(2)
    rows = run_matmul_figure(H, CORES, scale)
    print()
    print(format_rows(
        rows, PAPER_FIG20,
        "Figure 20 — 16-core LBP (64 harts), h=64, scale=1/%d" % scale))

    cycles = {v: rows[v]["cycles"] for v in rows}
    ipc = {v: rows[v]["ipc"] for v in rows}

    # copy beats base by a clear margin (the paper's headline: 16%)
    assert cycles["copy"] < 0.95 * cycles["base"], cycles

    # peak is 16; the placement-aware versions run close to it, and copy's
    # IPC is well above base's (module docstring: not the paper's >= 13)
    assert all(value <= 16.0 + 1e-9 for value in ipc.values()), ipc
    assert max(ipc.values()) >= 13.0, ipc
    assert ipc["copy"] > 1.5 * ipc["base"], ipc

    # copy retires slightly more than base (paper: +1.5%)
    overhead = rows["copy"]["retired"] / rows["base"]["retired"] - 1.0
    assert 0.0 < overhead < 0.05, overhead
