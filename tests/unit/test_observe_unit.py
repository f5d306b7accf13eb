"""Unit coverage for the zero-perturbation telemetry layer.

The observer's contract (DESIGN.md §9): every stage-cycle of every core
is charged exactly once — to a retirement or to exactly one stall
reason — so ``retired + sum(stalls) == num_cores * cycles`` on any run;
windows partition the totals; exporters are pure functions of the
machine; and the simulators that cannot observe refuse loudly.
"""

import json

import pytest

from repro.compiler import compile_to_program
from repro.fastsim import FastLBP
from repro.machine import LBP, Params
from repro.machine.processor import MachineError
from repro.observe import (
    STALL_REASONS,
    CoreTelemetry,
    Metrics,
    build_report,
    chrome_trace,
    report_json,
    stall_table,
    validate_chrome_trace,
    windows_csv,
)

_SOURCE = """
#include <det_omp.h>
int v[%(n)d];
void main() {
    int t;
    #pragma omp parallel for
    for (t = 0; t < %(n)d; t++)
        v[t] = t * t;
}
"""


def _run(num_cores, interval=64, trace=False, members=8):
    # the team must fit the machine: one core offers 3 forkable harts
    # beside the boot hart, so clamp the loop to the hart budget
    program = compile_to_program(_SOURCE % {"n": members}, "obs.c")
    machine = LBP(Params(num_cores=num_cores), trace=trace,
                  metrics=interval).load(program)
    machine.run(max_cycles=1_000_000)
    return machine


@pytest.fixture(scope="module")
def metered():
    return _run(2, trace=True)


# ---- taxonomy ---------------------------------------------------------------


def test_stall_reasons_are_fixed_and_distinct():
    assert len(STALL_REASONS) == len(set(STALL_REASONS)) == 11
    # the tuple is the on-disk slot layout — appending is fine, reordering
    # or renaming breaks old snapshots; pin the current names
    assert STALL_REASONS[0] == "fetch_starved"
    assert STALL_REASONS[-1] == "gated_idle"


# ---- accounting identity ----------------------------------------------------


@pytest.mark.parametrize("num_cores", [1, 4])
def test_accounting_identity(num_cores):
    machine = _run(num_cores, members=3 if num_cores == 1 else 8)
    report = build_report(machine)
    assert report["accounted"] is True
    assert report["stage_cycles"] == num_cores * report["cycles"]
    assert report["retired"] + report["stall_cycles"] == report["stage_cycles"]
    # per-core slots sum to the global totals
    per_core = report["stalls_per_core"]
    assert len(per_core) == num_cores
    for i, reason in enumerate(STALL_REASONS):
        assert sum(core[i] for core in per_core) == report["stalls"][reason]


def test_windows_partition_the_totals(metered):
    report = build_report(metered)
    windows = report["windows"]
    assert windows, "expected at least one closed/partial window"
    assert sum(w["retired"] for w in windows) == report["retired"]
    assert sum(w["local"] for w in windows) == report["local_accesses"]
    assert sum(w["remote"] for w in windows) == report["remote_accesses"]
    for reason in STALL_REASONS:
        assert sum(w["stalls"][reason] for w in windows) \
            == report["stalls"][reason]
    # windows tile [0, cycles] in order without gaps
    assert windows[0]["start"] == 0
    for prev, cur in zip(windows, windows[1:]):
        assert cur["start"] == prev["end"]


def test_classification_sanity(metered):
    report = build_report(metered)
    # a forked parallel region leaves gated cores idle at boot and tail
    assert report["stalls"]["gated_idle"] > 0
    # something retired and the machine was not always stalled
    assert 0 < report["retired"] < report["stage_cycles"]


# ---- serialization ----------------------------------------------------------


def test_core_telemetry_state_survives_json():
    slot = CoreTelemetry(4)
    slot.stalls[3] = 7
    slot.remote_inflight[12] = [100, 140]
    slot.samples.append([0, 5, 2, 1, 0, 0, [0] * len(STALL_REASONS)])
    wire = json.loads(json.dumps(slot.state_dict()))
    clone = CoreTelemetry(4)
    clone.load_state_dict(wire)
    assert clone.state_dict() == slot.state_dict()


def test_metrics_state_roundtrip(metered):
    state = json.loads(json.dumps(metered.metrics.state_dict()))
    clone = Metrics(interval=state["interval"])
    clone.load_state_dict(state)
    assert clone.state_dict() == metered.metrics.state_dict()


# ---- exporters --------------------------------------------------------------


def test_report_json_is_stable(metered):
    a = report_json(build_report(metered), compact=True)
    b = report_json(build_report(metered), compact=True)
    assert a == b
    assert json.loads(a)["accounted"] is True


def test_stall_table_shows_identity(metered):
    text = "\n".join(stall_table(build_report(metered)))
    assert "identity holds" in text
    assert "retired" in text


def test_windows_csv_shape(metered):
    report = build_report(metered)
    lines = windows_csv(report).strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["window", "start", "end"]
    assert header[-len(STALL_REASONS):] == list(STALL_REASONS)
    assert len(lines) == 1 + len(report["windows"])
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_chrome_trace_validates(metered):
    data = chrome_trace(metered)
    assert validate_chrome_trace(data) == []
    events = data["traceEvents"]
    # one named thread track per hart lane that saw activity
    threads = [e for e in events
               if e["ph"] == "M" and e["name"] == "thread_name"]
    assert threads, "expected per-hart thread tracks"
    # counter tracks live in their own process row
    assert any(e["ph"] == "C" for e in events)


def test_validate_chrome_trace_rejects_bad_events():
    ok = {"traceEvents": [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": "core 0"}},
        {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0, "dur": 2},
    ]}
    assert validate_chrome_trace(ok) == []
    assert validate_chrome_trace({"nope": []})
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0,
                          "ts": 0}]})
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                          "ts": 0}]})  # missing dur
    assert validate_chrome_trace(
        {"traceEvents": [
            {"ph": "i", "name": "a", "pid": 0, "tid": 0, "ts": 9, "s": "t"},
            {"ph": "i", "name": "b", "pid": 0, "tid": 0, "ts": 3, "s": "t"},
        ]})  # ts must be monotonic per track


# ---- refusals ---------------------------------------------------------------


def test_fast_simulator_refuses_metrics():
    with pytest.raises(NotImplementedError):
        FastLBP(Params(num_cores=1), metrics=True)


def test_metrics_report_requires_metrics():
    program = compile_to_program(_SOURCE % {"n": 3}, "obs.c")
    machine = LBP(Params(num_cores=1)).load(program)
    machine.run(max_cycles=1_000_000)
    with pytest.raises(MachineError):
        machine.metrics_report()
