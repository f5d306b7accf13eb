"""Ablation A2 — §5.3: interconnect sizing and the value of placement.

We sweep the per-hop link latency of the r1/r2/r3 tree on the 16-core
machine and re-run the base (all data in bank 0, remote-heavy) and d+c
(distributed + copied, placement-aware) matmul versions.

Finding recorded with the optimising back end (EXPERIMENTS.md C1, A2):
"a slower interconnect hurts the placement-unaware version much more" was
true of the non-optimising compiler's code (base +10%, d+c +2% from 1 to
4 cycles per hop) and is not of optimised code.  Base is then bound by
the *throughput* of bank 0's port — 64 harts keep it busy whatever the
round trip costs — so latency barely shows (+4%), while d+c, which is
not saturated, pays each longer round trip (+11%).  What placement buys
is the level, not the slope: d+c needs 0.63-0.68x base's cycles at every
latency.  Both relations are asserted as measured.
"""

from conftest import bench_scale

from repro.compiler import compile_to_program
from repro.eval import run_experiments
from repro.machine import LBP, Params
from repro.workloads.matmul import matmul_source, verify_matmul

H = 64
CORES = 16


def _run(version, hop_latency, scale):
    program = compile_to_program(matmul_source(version, H, scale=scale), "mm.c")
    params = Params(num_cores=CORES, link_hop_latency=hop_latency)
    machine = LBP(params).load(program)
    stats = machine.run(max_cycles=100_000_000)
    verify_matmul(machine, program, version, H, scale=scale)
    return stats.cycles


def test_router_latency_sweep():
    scale = bench_scale(8)
    hops = (1, 2, 4)
    versions = ("base", "d+c")

    points = run_experiments([
        ("%s/hop%d" % (version, hop), _run, (version, hop, scale))
        for version in versions for hop in hops
    ])
    results = {
        version: [points["%s/hop%d" % (version, hop)] for hop in hops]
        for version in versions
    }
    print()
    print("16-core machine, link hop latency swept over", list(hops))
    for version, cycles in results.items():
        print("  %-5s cycles   :" % version, cycles)

    base = results["base"]
    dandc = results["d+c"]
    # slower links cost both versions cycles
    assert base[0] < base[1] < base[2], base
    assert dandc[0] < dandc[1] < dandc[2], dandc
    base_penalty = base[-1] / base[0]
    dandc_penalty = dandc[-1] / dandc[0]
    print("  base penalty %.2fx vs d+c penalty %.2fx" % (base_penalty, dandc_penalty))
    # placement wins at every latency, by a wide margin
    assert all(d < 0.75 * b for b, d in zip(base, dandc)), results
    # module docstring: base is port-bound, so latency costs it *less*
    assert 1.0 < base_penalty < dandc_penalty < 1.25, results
