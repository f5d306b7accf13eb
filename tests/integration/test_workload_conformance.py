"""Golden conformance tier for the scenario-diversity workloads.

Every workload in ``test_trace_golden.SCENARIOS`` (serving, sort,
stencil, reduction, histogram) must reproduce its pinned golden trace
digest **bit-exactly** under the full engine matrix:

    {interp, soa} x {shards 1, 2} x {sanitize on, off} x {metrics on, off}

— sixteen configurations per workload.  The cycle engines are supposed
to be observationally equivalent: the SoA backend is a data-layout
change, sharding is a space partition of the same schedule, and both the
race sanitizer and the metrics sampler are observation-only hooks.  Any
config that perturbs a cycle count or an event payload is a conformance
bug, and this tier pins all of them to the single digest recorded in
``tests/data/golden_traces.json``.

The serving workload additionally gets a snapshot/resume check: pausing
mid request burst, serializing, restoring and running to completion must
match the uninterrupted golden digest byte for byte (and still pass the
workload's own response self-check).
"""

import itertools
import json
import os
import sys

import pytest

from repro.machine import LBP, Params
from repro.snapshot import restore, snapshot, trace_digest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import (  # noqa: E402
    GOLDEN_PATH, SCENARIOS, golden_program, run_scenario_workload)

MAX_CYCLES = 50_000_000

#: the full conformance matrix: (backend, shards, sanitize, metrics)
MATRIX = list(itertools.product(
    ("interp", "soa"), (1, 2), (False, True), (None, 512)))


def _config_id(config):
    backend, shards, sanitize, metrics = config
    return "%s-sh%d-%s-%s" % (
        backend, shards,
        "sanitize" if sanitize else "plain",
        "metrics" if metrics else "nometrics")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.slow
@pytest.mark.parametrize("config", MATRIX, ids=_config_id)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_conforms_across_engine_matrix(name, config, golden):
    backend, shards, sanitize, metrics = config
    reference = golden[name]
    machine, stats = run_scenario_workload(
        name, shards=shards, backend=backend,
        sanitize=sanitize, metrics=metrics)
    observed = {
        "cycles": stats.cycles,
        "retired": stats.retired,
        "events": len(machine.trace.events),
        "trace_sha256": trace_digest(machine.trace.events),
    }
    assert observed == {key: reference[key] for key in observed}


@pytest.mark.slow
def test_serving_snapshot_resume_mid_burst_is_bit_exact(golden):
    """Pause the server while requests are still in flight, serialize,
    restore, run out — the trace must be byte-identical to the golden
    uninterrupted run and the responses must still self-check."""
    reference = golden["serving_r12_c2"]
    factory, cores = SCENARIOS["serving_r12_c2"]
    workload = factory()
    program = golden_program("serving_r12_c2")
    machine = LBP(Params(num_cores=cores), trace=True).load(program)

    pause_at = reference["cycles"] // 2
    machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=pause_at)
    assert not machine.halted and machine.cycle == pause_at
    # mid-burst, for real: some requests issued, not all answered yet
    issued = program.symbol("issued")
    dispatched = sum(
        1 for r in range(workload.num_requests)
        if machine.read_word(issued + 4 * r) != 0)
    assert 0 < dispatched <= workload.num_requests

    resumed = restore(snapshot(machine))
    assert resumed is not machine
    stats = resumed.run(max_cycles=MAX_CYCLES)
    assert stats.cycles == reference["cycles"]
    assert stats.retired == reference["retired"]
    assert len(resumed.trace.events) == reference["events"]
    assert trace_digest(resumed.trace.events) == reference["trace_sha256"]
    workload.verify(resumed, program)
