"""Differential fuzzing: four executions of one random program agree.

Hypothesis generates small race-free Deterministic-OpenMP programs
(random team size, work mix, read-only cross-bank traffic, optional
serial reduction).  Each program is compiled once and executed four
ways:

* the functional fast simulator (``FastLBP``),
* the cycle-accurate interpreter backend with the race detector
  attached (``LBP(sanitize=True, backend="interp")``),
* the SoA execution backend (``LBP(backend="soa")``), and
* the space-sharded cycle engine running SoA cores
  (``shards=2, backend="soa"``), fuzzing the epoch protocol (pipe
  frames, fast-forward horizons) against random cross-shard traffic
  shapes.

All four must agree on every global memory word and on the boot hart's
final register file; the three cycle-accurate runs must agree on cycle
count and on the *full event trace* digest — which simultaneously fuzzes
the claim that sanitize=True is observation-only and that the SoA
backend's restructured tick is unobservable, since the sanitized
interpreter run's trace must match both SoA traces bit for bit.  The
detector must also come out clean on every generated program (they are
race-free by construction), fuzzing the happens-before machinery for
false positives across random fork/join shapes.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_to_program
from repro.fastsim import FastLBP
from repro.machine import LBP, Params
from repro.workloads import (HistogramWorkload, ReductionWorkload,
                             ServingWorkload, SortWorkload, StencilWorkload)

CORES = 4
MASK = 0xFFFFFFFF

#: per-member loop bodies and their Python references
#: (name, C body, fn(state, t, i) -> new acc)
BODIES = {
    "alu": ("acc += t + i;",
            lambda s, t, i: (s["acc"] + t + i) & MASK),
    "mul": ("acc += (t + 1) * i;",
            lambda s, t, i: (s["acc"] + (t + 1) * i) & MASK),
    "own": ("scratch[t] += i; acc += scratch[t];",
            None),  # handled in _reference (mutates scratch)
    "ro":  ("acc += init[(t + i) & 15];",
            None),
    "mix": ("scratch[t] = acc + i; acc += scratch[t] ^ t;",
            None),
}


@st.composite
def programs(draw):
    members = draw(st.integers(2, 8))
    work = draw(st.integers(1, 10))
    mix = draw(st.sampled_from(sorted(BODIES)))
    init = draw(st.lists(st.integers(-100, 100), min_size=16, max_size=16))
    reduce_after = draw(st.booleans())
    body = BODIES[mix][0]
    tail = ""
    if reduce_after:
        tail = ("    for (t = 0; t < %d; t++)\n"
                "        total += results[t];\n" % members)
    source = """
#include <det_omp.h>
int init[16] = {%(init)s};
int scratch[16];
int results[16];
int total;
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
%(tail)s}
""" % {"init": ", ".join(str(v) for v in init), "members": members,
       "work": work, "body": body, "tail": tail}
    return source, members, work, mix, init, reduce_after


def _reference(members, work, mix, init):
    init = [v & MASK for v in init]
    scratch = [0] * 16
    results = [0] * 16
    for t in range(members):
        acc = 0
        for i in range(work):
            if mix == "own":
                scratch[t] = (scratch[t] + i) & MASK
                acc = (acc + scratch[t]) & MASK
            elif mix == "ro":
                acc = (acc + init[(t + i) & 15]) & MASK
            elif mix == "mix":
                scratch[t] = (acc + i) & MASK
                acc = (acc + (scratch[t] ^ t)) & MASK
            else:
                acc = BODIES[mix][1]({"acc": acc}, t, i)
        results[t] = acc
    total = 0
    for t in range(members):
        total = (total + results[t]) & MASK
    return init, scratch, results, total


def _digest(events):
    h = hashlib.sha256()
    for event in events:
        h.update(repr(event).encode())
    return h.hexdigest()


def _globals(machine, program, members):
    out = {}
    for name, count in (("init", 16), ("scratch", 16), ("results", 16),
                        ("total", 1)):
        base = program.symbol(name)
        out[name] = [machine.read_word(base + 4 * i) for i in range(count)]
    return out


@given(programs())
@settings(max_examples=15, deadline=None)
def test_four_engines_agree(case):
    source, members, work, mix, init, reduce_after = case
    program = compile_to_program(source, "diff.c")

    fast = FastLBP(Params(num_cores=CORES)).load(program)
    fast.run(max_cycles=5_000_000)

    cycle = LBP(Params(num_cores=CORES), trace=True,
                sanitize=True, backend="interp").load(program)
    cycle_stats = cycle.run(max_cycles=5_000_000)

    soa = LBP(Params(num_cores=CORES), trace=True,
              backend="soa").load(program)
    soa_stats = soa.run(max_cycles=5_000_000)

    sharded = LBP(Params(num_cores=CORES), trace=True,
                  shards=2, backend="soa").load(program)
    sharded_stats = sharded.run(max_cycles=5_000_000)

    # 1. all four engines computed the same memory image
    mem = _globals(cycle, program, members)
    assert _globals(fast, program, members) == mem
    assert _globals(soa, program, members) == mem
    assert _globals(sharded, program, members) == mem

    # 2. ... and the right one
    ref_init, ref_scratch, ref_results, ref_total = _reference(
        members, work, mix, init)
    assert mem["init"] == ref_init
    assert mem["scratch"] == ref_scratch
    assert mem["results"][:members] == ref_results[:members]
    if reduce_after:
        assert mem["total"] == [ref_total]

    # 3. the boot hart retired to the same architectural register state
    assert cycle.cores[0].harts[0].regs == fast.harts[0].regs
    assert soa.cores[0].harts[0].regs == fast.harts[0].regs

    # 4. the three cycle-accurate runs are bit-exact — same cycle count,
    #    same full event trace — even though one carried the race
    #    detector (observation must not perturb the machine) and two ran
    #    the restructured SoA tick (unobservable by construction)
    digest = _digest(cycle.trace.events)
    assert cycle_stats.cycles == soa_stats.cycles == sharded_stats.cycles
    assert cycle_stats.retired == soa_stats.retired == sharded_stats.retired
    assert _digest(soa.trace.events) == digest
    assert _digest(sharded.trace.events) == digest

    # 5. generated programs are race-free by construction; the detector
    #    must agree (no false positives on random fork/join shapes)
    report = cycle.race_report()
    assert report.clean, report.format()
    assert report.blocked == 0


@st.composite
def scenario_workloads(draw):
    """A random member of the scenario-diversity families at a random
    (small) size and data seed: serving request mixes, sort/reduction
    trees, stencil neighbour exchanges, histogram private counters."""
    family = draw(st.sampled_from(
        ["serving", "sort", "stencil", "reduction", "histogram"]))
    seed = draw(st.integers(0, 1 << 16))
    if family == "serving":
        cores = draw(st.sampled_from([1, 2]))
        requests = draw(st.integers(4, 10))
        return ServingWorkload(cores=cores, num_requests=requests,
                               seed=seed), cores
    h = draw(st.sampled_from([2, 4, 8]))
    cores = (h + 3) // 4
    if family == "sort":
        return SortWorkload(h, chunk=draw(st.integers(2, 6)),
                            seed=seed), cores
    if family == "stencil":
        return StencilWorkload(h, width=draw(st.integers(3, 8)),
                               steps=draw(st.integers(1, 4)),
                               seed=seed), cores
    if family == "reduction":
        return ReductionWorkload(h, chunk=draw(st.integers(2, 8)),
                                 seed=seed), cores
    bins = draw(st.sampled_from([2, 4, 8]))
    # the merge phase runs one thread per *bin*, so the machine must
    # have harts for max(h, bins) team members
    return HistogramWorkload(h, chunk=draw(st.integers(2, 8)),
                             bins=bins, seed=seed), (max(h, bins) + 3) // 4


@given(scenario_workloads())
@settings(max_examples=10, deadline=None)
def test_scenario_families_agree_across_engines(case):
    """Differential check over the scenario families: the functional
    fast simulator, the sanitized cycle interpreter and the sharded SoA
    engine must all pass the workload's own self-check against its
    Python reference, the two cycle runs must be trace-bit-exact, and
    the detector must come out clean (modulo each workload's declared
    polling protocol)."""
    workload, cores = case
    program = compile_to_program(workload.source, "scenario.c")

    fast = FastLBP(Params(num_cores=cores)).load(program)
    fast.run(max_cycles=5_000_000)
    workload.verify(fast, program)

    cycle = LBP(Params(num_cores=cores), trace=True,
                sanitize=True, backend="interp").load(program)
    cycle_stats = cycle.run(max_cycles=5_000_000)
    workload.verify(cycle, program)

    sharded = LBP(Params(num_cores=cores), trace=True,
                  shards=2 if cores > 1 else None,
                  backend="soa").load(program)
    sharded_stats = sharded.run(max_cycles=5_000_000)
    workload.verify(sharded, program)

    assert cycle_stats.cycles == sharded_stats.cycles
    assert cycle_stats.retired == sharded_stats.retired
    assert _digest(cycle.trace.events) == _digest(sharded.trace.events)

    sync = getattr(workload, "race_sync", None)
    if sync is not None:
        sync = [(program.symbol(sym), words * 4) for sym, words in sync]
    report = cycle.race_report(sync=sync)
    assert report.clean, report.format()
    assert report.blocked == 0
