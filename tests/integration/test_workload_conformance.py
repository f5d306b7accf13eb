"""Golden conformance tier for the scenario-diversity workloads.

Every workload in ``parity.SCENARIOS`` (serving, sort,
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

import pytest

from repro.snapshot import restore, snapshot

from parity import SCENARIOS, machine as fresh, measure, summary

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


@pytest.mark.slow
@pytest.mark.parametrize("config", MATRIX, ids=_config_id)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_conforms_across_engine_matrix(name, config, golden):
    backend, shards, sanitize, metrics = config
    assert measure(name, shards=shards, backend=backend, sanitize=sanitize,
                   metrics=metrics) == golden[name]


@pytest.mark.slow
def test_serving_snapshot_resume_mid_burst_is_bit_exact(golden):
    """Pause the server while requests are still in flight, serialize,
    restore, run out — the trace must be byte-identical to the golden
    uninterrupted run and the responses must still self-check."""
    reference = golden["serving_r12_c2"]
    workload = SCENARIOS["serving_r12_c2"][0]()
    machine = fresh("serving_r12_c2", ("traced",), "native")
    program = machine.program

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
    resumed.run(max_cycles=MAX_CYCLES)
    assert summary(resumed) == reference
    workload.verify(resumed, program)
