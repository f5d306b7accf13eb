"""Experiment E7 — figure 4: aligned placement makes every data access local.

The set and get teams are placed identically, the chunks live in the
processing core's own bank, and the hardware barrier orders the phases.
As the data grows, local accesses grow with it while remote accesses stay
at zero — there is nothing to keep coherent and nothing to flush.
"""

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.workloads.setget import setget_source, verify_setget

H = 16
CORES = 4


def _run(chunk):
    program = compile_to_program(setget_source(H, chunk), "setget.c")
    machine = LBP(Params(num_cores=CORES)).load(program)
    stats = machine.run(max_cycles=50_000_000)
    verify_setget(machine, H, chunk)
    return stats


def test_setget_all_accesses_local():
    stats = _run(64)
    print()
    print("chunk=64 : %6d local, %d remote accesses, %d cycles"
          % (stats.local_accesses, stats.remote_accesses, stats.cycles))
    assert stats.remote_accesses == 0
    assert stats.local_accesses > 0


def test_setget_locality_scales():
    results = {}
    for chunk in (16, 64, 256):
        stats = _run(chunk)
        results[chunk] = (stats.local_accesses, stats.remote_accesses,
                          stats.cycles)
    print()
    for chunk, (local, remote, cycles) in results.items():
        print("chunk=%-4d: %6d local, %d remote, %d cycles"
              % (chunk, local, remote, cycles))
    # data traffic scales, interconnect traffic does not
    assert results[256][0] > results[64][0] > results[16][0]
    assert all(remote == 0 for _loc, remote, _cyc in results.values())
    # the barrier is correct at every size (verify_setget ran inside _run)
