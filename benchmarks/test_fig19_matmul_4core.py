"""Figure 19 — the five matmul versions on a 4-core / 16-hart LBP.

Full paper scale (h=16: X 16×8 · Y 8×16) on the cycle-accurate simulator.

Shape asserted (paper §7):
* base is the fastest version, about twice as fast as tiled;
* tiled has the highest IPC, close to the peak of 4;
* every version verifies (Z = h/2 everywhere).
"""

from repro.eval import PAPER_FIG19, format_rows, run_matmul_figure

H = 16
CORES = 4


def test_fig19_matmul_4core():
    rows = run_matmul_figure(H, CORES)
    print()
    print(format_rows(rows, PAPER_FIG19,
                      "Figure 19 — 4-core LBP (16 harts), h=16, full scale"))

    cycles = {v: rows[v]["cycles"] for v in rows}
    ipc = {v: rows[v]["ipc"] for v in rows}

    # base (or its copy variant) wins at 4 cores; tiled is clearly slower
    fastest = min(cycles, key=cycles.get)
    assert fastest in ("base", "copy"), cycles
    assert cycles["tiled"] > 1.3 * cycles[fastest], cycles

    # the machine runs close to its 4-IPC peak with 16 active harts
    assert all(value <= 4.0 + 1e-9 for value in ipc.values()), ipc
    assert ipc["tiled"] >= 3.5, ipc

    # tiling pays extra control instructions (paper: +23% at 64 cores)
    assert rows["tiled"]["retired"] > rows["base"]["retired"]
