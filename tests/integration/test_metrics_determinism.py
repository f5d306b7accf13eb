"""Determinism of the telemetry layer (DESIGN.md §9).

Four contracts:

1. **Zero perturbation** — turning metrics on changes *nothing* the
   machine can see: the golden trace digests of ``test_trace_golden``
   are reproduced bit-exactly under stall attribution.
2. **Repeat-run identity** — two metered runs of the same program
   produce byte-identical reports.
3. **Shard invariance** — ``shards=1`` and ``shards=4`` produce
   byte-identical metric state and reports (the observer slots are
   space-partitioned exactly like the architectural state).
4. **Snapshot composition** — pausing mid-run, snapshotting, restoring
   and finishing yields the same report (same windows, same stalls) as
   the uninterrupted run.
"""

import json
import os
import sys

import pytest

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.observe import build_report, report_json
from repro.snapshot import restore, snapshot
from repro.workloads.matmul import matmul_source, verify_matmul

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import (  # noqa: E402
    GOLDEN_PATH, golden_program, trace_digest)

INTERVAL = 512


def _metered_run(version="base", shards=None, interval=INTERVAL, trace=False):
    program = golden_program("matmul_%s_h16_c4" % version)
    machine = LBP(Params(num_cores=4), trace=trace,
                  shards=shards, metrics=interval).load(program)
    machine.run(max_cycles=50_000_000)
    verify_matmul(machine, program, version, 16)
    return machine


def _report_bytes(machine):
    return report_json(build_report(machine), compact=True)


@pytest.mark.parametrize("name, version", [
    ("matmul_base_h16_c4", "base"),
    ("matmul_tiled_h16_c4", "tiled"),
])
def test_metrics_do_not_perturb_golden_digests(name, version):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    machine = _metered_run(version, trace=True)
    assert machine.stats.cycles == golden[name]["cycles"]
    assert machine.stats.retired == golden[name]["retired"]
    assert trace_digest(machine.trace.events) == golden[name]["trace_sha256"]


def test_repeat_runs_are_byte_identical():
    assert _report_bytes(_metered_run()) == _report_bytes(_metered_run())


def test_shards_are_byte_identical():
    one = _metered_run(shards=1)
    four = _metered_run(shards=4)
    assert _report_bytes(one) == _report_bytes(four)
    dump = lambda m: json.dumps(m.metrics.state_dict(), sort_keys=True)
    assert dump(one) == dump(four)


def test_snapshot_resume_preserves_the_series():
    program = compile_to_program(matmul_source("base", 16), "mm.c")
    straight = LBP(Params(num_cores=4), metrics=INTERVAL).load(program)
    straight.run(max_cycles=50_000_000)

    paused = LBP(Params(num_cores=4), metrics=INTERVAL).load(program)
    paused.run(stop_at_cycle=5000)
    assert not paused.halted
    resumed = restore(snapshot(paused))
    assert resumed.metrics is not None
    assert resumed.metrics.interval == INTERVAL
    resumed.run(max_cycles=50_000_000)

    assert resumed.stats.cycles == straight.stats.cycles
    assert _report_bytes(resumed) == _report_bytes(straight)


def test_unmetered_snapshot_stays_unmetered():
    program = compile_to_program(matmul_source("base", 16), "mm.c")
    machine = LBP(Params(num_cores=4)).load(program)
    machine.run(stop_at_cycle=5000)
    resumed = restore(snapshot(machine))
    assert resumed.metrics is None
    resumed.run(max_cycles=50_000_000)
    assert resumed.halted
