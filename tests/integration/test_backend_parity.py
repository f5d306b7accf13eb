"""The SoA execution backend is bit-exact against the interpreter.

``backend="soa"`` (see ``repro.machine.soa``) restructures the per-cycle
loop around packed scoreboard state, gated stage scans and parking of
stalled cores.  None of that may be observable: every golden digest in
``tests/data/golden_traces.json`` must reproduce bit-exactly under the
SoA backend — alone, space-sharded, under the race sanitizer, under
stall metrics, and through cross-backend snapshot round trips.
"""

import json
import os
import sys

import pytest

from repro.machine import LBP, Params
from repro.snapshot import restore, snapshot
import repro.machine.processor as processor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import (  # noqa: E402
    GOLDEN_PATH,
    WORKLOADS,
    measure,
    trace_digest,
)
from test_snapshot_roundtrip import _build  # noqa: E402

MAX_CYCLES = 50_000_000


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture
def force_backend(monkeypatch):
    def force(backend):
        monkeypatch.setattr(processor, "DEFAULT_BACKEND", backend)

    return force


# ---- golden digests ----------------------------------------------------------


@pytest.mark.parametrize("backend", ["soa", "interp"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_digests_per_backend(name, backend, golden, force_backend):
    force_backend(backend)
    assert measure(name) == golden[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", ["matmul_base_h16_c4", "re_contention_c1"])
def test_golden_digests_soa_sharded(name, golden, force_backend):
    force_backend("soa")
    assert measure(name, shards=2) == golden[name]


# ---- observers stay zero-perturbation under soa ------------------------------


def _run_observed(name, backend, sanitize=False, metrics=None):
    program, cores = _build(name)
    machine = LBP(Params(num_cores=cores, trace_enabled=True),
                  sanitize=sanitize, metrics=metrics, backend=backend)
    machine.load(program)
    stats = machine.run(max_cycles=MAX_CYCLES)
    return machine, stats


@pytest.mark.parametrize("name", ["matmul_base_h16_c4", "re_contention_c1"])
def test_sanitized_soa_is_bit_exact_and_clean(name, golden):
    machine, stats = _run_observed(name, "soa", sanitize=True)
    reference = golden[name]
    assert stats.cycles == reference["cycles"]
    assert trace_digest(machine.trace.events) == reference["trace_sha256"]
    assert machine.race_report().races == []


def test_metered_soa_is_bit_exact_and_matches_interp(golden):
    name = "matmul_base_h16_c4"
    reference = golden[name]
    reports = {}
    for backend in ("soa", "interp"):
        machine, stats = _run_observed(name, backend, metrics=4096)
        assert stats.cycles == reference["cycles"]
        assert trace_digest(machine.trace.events) == reference["trace_sha256"]
        reports[backend] = machine.metrics_report()
    assert reports["soa"] == reports["interp"]


# ---- snapshots are backend-neutral -------------------------------------------


@pytest.mark.parametrize("save_on,resume_on", [
    ("interp", "soa"),
    ("soa", "interp"),
])
def test_snapshot_round_trip_across_backends(save_on, resume_on, golden):
    """Pause under one backend, resume under the other: the completed
    trace must still match the golden digest of the uninterrupted run."""
    name = "matmul_base_h16_c4"
    reference = golden[name]
    program, cores = _build(name)
    machine = LBP(Params(num_cores=cores, trace_enabled=True),
                  backend=save_on).load(program)
    machine.run(max_cycles=MAX_CYCLES,
                stop_at_cycle=reference["cycles"] // 2)
    assert not machine.halted

    resumed = restore(snapshot(machine), backend=resume_on)
    assert resumed.backend == resume_on
    stats = resumed.run(max_cycles=MAX_CYCLES)
    assert stats.cycles == reference["cycles"]
    assert stats.retired == reference["retired"]
    assert trace_digest(resumed.trace.events) == reference["trace_sha256"]


def test_state_dict_is_backend_invariant():
    """Mid-run serialized state is byte-identical whichever backend
    produced it — the snapshot format has no SoA dialect."""
    name = "re_contention_c1"
    states = {}
    for backend in ("interp", "soa"):
        program, cores = _build(name)
        machine = LBP(Params(num_cores=cores, trace_enabled=True),
                      backend=backend).load(program)
        machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=300)
        states[backend] = machine.state_dict()
    assert states["interp"] == states["soa"]


# ---- backend selection -------------------------------------------------------


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown backend"):
        LBP(Params(num_cores=1), backend="simd")


def test_default_backend_is_soa():
    assert LBP(Params(num_cores=1)).backend == "soa"
