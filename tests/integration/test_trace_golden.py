"""Golden trace-equality regression for the cycle-accurate simulator.

The hot-path work (active-core gating, pre-lowered decode, the re-send
wakeup) must be *bit-exact*: the same programs produce the same cycle
counts and the same full event traces as the pre-optimisation simulator.
``tests/data/golden_traces.json`` records reference digests captured from
the original all-cores-every-cycle implementation; these tests re-run the
workloads and compare.

The digests guard the *machine*, not the compiler: the eight workloads
that start as DetC run from the assembly checked in under
``tests/data/golden_asm/`` (written once by ``regen_golden.py --asm``), so
a codegen change cannot move them and a digest that moves is a machine
change.  What the compiler produces is checked at the result level
(``test_opt_differential.py``) and tracked as counts
(``tests/data/codegen_counts.json``).

Regenerate (only when an intentional model change invalidates them) with
``PYTHONPATH=src:tests python tests/data/regen_golden.py``.
"""

import collections
import json
import os
import sys

import pytest

from repro.asm import assemble
from repro.machine import LBP, Params
from repro.machine.trace import Trace
from repro.snapshot import trace_digest
from repro.workloads.matmul import matmul_source, verify_matmul
from repro.workloads.setget import setget_source, verify_setget
from repro.workloads import (HistogramWorkload, ReductionWorkload,
                             ServingWorkload, SortWorkload, StencilWorkload)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_traces.json")
GOLDEN_ASM_DIR = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_asm")


def golden_program(name):
    """The checked-in assembly of a compiled golden workload, assembled."""
    with open(os.path.join(GOLDEN_ASM_DIR, name + ".s")) as handle:
        return assemble(handle.read(), name + ".s")

#: one producer floods result-buffer slot 0 of hart 0 while the consumer
#: drains it slowly — the second and third p_swre find the slot occupied
#: and sit in the flow-control queue (formerly: the every-cycle retry).
RE_CONTENTION = """
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0, t0
    p_fc t6
    la   t1, rp
    p_swcv t6, t1, 0
    p_swcv t6, t0, 4
    p_merge t0, t0, t6
    p_syncm
    la   a0, consumer
    p_jalr ra, t0, a0
    # ---- producer hart: three back-to-back sends into slot 0 ----
    p_lwcv ra, 0
    p_lwcv t0, 4
    li   t4, 0
    li   t3, 111
    p_swre t4, t3, 0
    li   t3, 222
    p_swre t4, t3, 0
    li   t3, 333
    p_swre t4, t3, 0
    p_ret
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret
consumer:
    li   t5, 60
d1: addi t5, t5, -1
    bnez t5, d1
    p_lwre t1, 0
    li   t5, 60
d2: addi t5, t5, -1
    bnez t5, d2
    p_lwre t2, 0
    p_lwre t3, 0
    add  t1, t1, t2
    add  t1, t1, t3
    la   t2, got
    sw   t1, 0(t2)
    p_ret
.data
got: .word 0
"""


def _run_traced(program, cores, shards=None, **engine):
    machine = LBP(Params(num_cores=cores), trace=True,
                  shards=shards, **engine).load(program)
    stats = machine.run(max_cycles=50_000_000)
    return machine, stats


def run_matmul_workload(version, shards=None, **engine):
    program = golden_program("matmul_%s_h16_c4" % version)
    machine, stats = _run_traced(program, 4, shards, **engine)
    verify_matmul(machine, program, version, 16)
    return machine, stats


def run_setget_workload(shards=None, **engine):
    program = golden_program("setget_h16_chunk64_c4")
    machine, stats = _run_traced(program, 4, shards, **engine)
    verify_setget(machine, 16, 64)
    return machine, stats


def run_re_contention_workload(shards=None, **engine):
    program = assemble(RE_CONTENTION)
    machine, stats = _run_traced(program, 1, shards, **engine)
    assert machine.read_word(program.symbol("got")) == 111 + 222 + 333
    return machine, stats


#: scenario-diversity families: self-checking workload objects (see
#: ``repro.workloads``) pinned at tiny, fast configurations.  Each entry
#: is ``(factory, cores)``; the runner threads arbitrary engine knobs
#: (backend / sanitize / metrics) through so the conformance tier
#: (``test_workload_conformance.py``) can sweep its matrix against the
#: same golden digests.
SCENARIOS = {
    "serving_r12_c2":
        (lambda: ServingWorkload(cores=2, num_requests=12, seed=7), 2),
    "sort_h8_c2": (lambda: SortWorkload(8, chunk=8, seed=3), 2),
    "stencil_h8_c2": (lambda: StencilWorkload(8, width=8, steps=4, seed=3), 2),
    "reduction_h8_c2": (lambda: ReductionWorkload(8, chunk=16, seed=3), 2),
    "histogram_h8_c2":
        (lambda: HistogramWorkload(8, chunk=16, bins=8, seed=3), 2),
}


def run_scenario_workload(name, shards=None, **engine):
    factory, cores = SCENARIOS[name]
    workload = factory()
    program = golden_program(name)
    machine, stats = _run_traced(program, cores, shards, **engine)
    workload.verify(machine, program)
    return machine, stats


def _scenario_runner(name):
    return lambda shards=None, **engine: run_scenario_workload(
        name, shards, **engine)


WORKLOADS = {
    "matmul_base_h16_c4":
        lambda shards=None, **engine: run_matmul_workload(
            "base", shards, **engine),
    "matmul_tiled_h16_c4":
        lambda shards=None, **engine: run_matmul_workload(
            "tiled", shards, **engine),
    "setget_h16_chunk64_c4": run_setget_workload,
    "re_contention_c1": run_re_contention_workload,
}
WORKLOADS.update({name: _scenario_runner(name) for name in SCENARIOS})

#: DetC source of every golden workload that starts as C — what
#: ``regen_golden.py --asm`` compiles into ``golden_asm/<name>.s``
GOLDEN_SOURCES = {
    "matmul_base_h16_c4": lambda: matmul_source("base", 16),
    "matmul_tiled_h16_c4": lambda: matmul_source("tiled", 16),
    "setget_h16_chunk64_c4": lambda: setget_source(16, 64),
}
GOLDEN_SOURCES.update({
    name: (lambda factory=factory: factory().source)
    for name, (factory, _cores) in SCENARIOS.items()})


def measure(name, shards=None, **engine):
    """Result summary of one golden workload (optionally space-sharded or
    on the reference core — every engine must reproduce the golden
    digests bit-exactly)."""
    machine, stats = WORKLOADS[name](shards=shards, **engine)
    return {
        "cycles": stats.cycles,
        "retired": stats.retired,
        "events": len(machine.trace.events),
        "trace_sha256": trace_digest(machine.trace.events),
        "local": stats.local_accesses,
        "remote": stats.remote_accesses,
        "forks": stats.forks,
        "joins": stats.joins,
        "re_messages": stats.re_messages,
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_matches_golden_reference(name, golden):
    assert name in golden, "no golden reference for %s; run regen_golden.py" % name
    assert measure(name) == golden[name]


# ---- an untraced run formats nothing -----------------------------------------

#: the functions that call ``trace.record``: eleven in processor.py, two
#: in core.py; all but ``_commit_p_ret`` build an args tuple
TRACE_SITES = {
    "_ev_load_read", "_ev_store_write", "_ev_cv_write", "_ev_rrep_load",
    "_ev_rack_store", "_ev_rack_cv", "_ev_re_ack", "_ev_start_pc",
    "_ev_ending_signal", "_ev_join", "schedule_access", "_fork",
    "_commit_p_ret",
}


class SiteTrace(Trace):
    """Counts entries into ``record`` by calling function."""

    def __init__(self, enabled):
        super().__init__(enabled)
        self.sites = collections.Counter()

    def record(self, *args, **kwargs):
        self.sites[sys._getframe(1).f_code.co_name] += 1
        super().record(*args, **kwargs)


def test_untraced_run_enters_no_trace_site():
    """Each site tests ``trace.enabled`` *before* it builds its args:
    with the trace off, ``record`` is never entered — so nothing was
    built for it — and with it on, the same programs reach all 13."""
    programs = [(golden_program("matmul_base_h16_c4"), 4),
                (assemble(RE_CONTENTION), 1)]
    outcomes = {}
    for enabled in (True, False):
        reached = collections.Counter()
        stats = []
        for program, cores in programs:
            trace = SiteTrace(enabled)
            machine = LBP(Params(num_cores=cores), trace=trace).load(program)
            stats.append(machine.run(max_cycles=50_000_000).state_dict())
            reached.update(trace.sites)
        outcomes[enabled] = (reached, stats)
    assert set(outcomes[True][0]) == TRACE_SITES
    assert not outcomes[False][0]
    assert outcomes[False][1] == outcomes[True][1]
