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
import sys

import pytest

from repro.machine import LBP, Params
from repro.machine.trace import Trace
from repro.workloads.matmul import matmul_source
from repro.workloads.setget import setget_source

# GOLDEN_ASM_DIR, GOLDEN_PATH and measure are tests/data/regen_golden.py's
from parity import (  # noqa: F401
    GOLDEN_ASM_DIR, GOLDEN_PATH, GOLDENS, SCENARIOS, measure, outcome,
    program)

#: the golden workloads (``tests/parity.py`` rows), by name
WORKLOADS = GOLDENS

#: DetC source of every golden workload that starts as C -- what
#: ``regen_golden.py --asm`` compiles into ``golden_asm/<name>.s``
GOLDEN_SOURCES = {
    "matmul_base_h16_c4": lambda: matmul_source("base", 16),
    "matmul_tiled_h16_c4": lambda: matmul_source("tiled", 16),
    "setget_h16_chunk64_c4": lambda: setget_source(16, 64),
}
GOLDEN_SOURCES.update({
    name: (lambda factory=factory: factory().source)
    for name, (factory, _cores) in SCENARIOS.items()})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_matches_golden_reference(name, golden):
    """The native traced run (the parity harness's, shared with it)."""
    assert name in golden, "no golden reference for %s; run regen_golden.py" % name
    assert outcome(name, "traced", "native")["summary"] == golden[name]


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
    built for it — and with it on, the same programs reach all 13.  (The
    Python spelling's sites: the reference tick's.  ``LBP(trace=)`` takes
    no subclass, and the compiled window appends without ``record``.)"""
    programs = [(program("matmul_base_h16_c4"), 4),
                (program("re_contention_c1"), 1)]
    outcomes = {}
    for enabled in (True, False):
        reached = collections.Counter()
        stats = []
        for built, cores in programs:
            trace = SiteTrace(enabled)
            machine = LBP(Params(num_cores=cores), backend="interp")
            machine.trace = trace
            machine.load(built)
            stats.append(machine.run(max_cycles=50_000_000).state_dict())
            reached.update(trace.sites)
        outcomes[enabled] = (reached, stats)
    assert set(outcomes[True][0]) == TRACE_SITES
    assert not outcomes[False][0]
    assert outcomes[False][1] == outcomes[True][1]
