"""Figure 20 — the five matmul versions on a 16-core / 64-hart LBP.

Cycle-accurate simulation at h=64.  Default work scale is 1/2 — raised
from 1/4 by the hot-path overhaul (active-core gating + pre-lowered
decode), which bought back enough wall clock to double the default work
(set ``LBP_BENCH_SCALE=1`` for the full paper size); the scale shrinks
the columns each thread computes, not the placement or team structure.

Shape asserted (paper §7):
* copy is the fastest version and beats base by a clear margin
  (paper: 16%) — copying the X line to the local stack removes repeated
  remote reads;
* base loses IPC (paper: 12.7) while copy stays near peak (paper: >15).
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

    # peak is 16; the best versions run close to it
    assert all(value <= 16.0 + 1e-9 for value in ipc.values()), ipc
    assert ipc["copy"] >= 13.0, ipc

    # copy's instruction overhead over base is moderate (paper: ~1.5%;
    # ours is higher — a non-optimising compiler — but still small)
    overhead = rows["copy"]["retired"] / rows["base"]["retired"] - 1.0
    assert -0.2 < overhead < 0.2, overhead
