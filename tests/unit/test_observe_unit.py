"""Unit coverage for the zero-perturbation telemetry layer.

The observer's contract (DESIGN.md §9): every stage-cycle of every core
is charged exactly once — to a retirement or to exactly one stall
reason — so ``retired + sum(stalls) == num_cores * cycles`` on any run;
windows partition the totals; exporters are pure functions of the
machine; and the simulators that cannot observe refuse loudly.
"""

import json
import re

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


def test_only_none_and_false_mean_no_metrics():
    """``metrics=0`` used to build an unmetered machine (the shorthand
    was tested for truthiness); an int is a window interval."""
    with pytest.raises(ValueError, match="interval must be >= 1, got 0"):
        LBP(Params(num_cores=1), metrics=0)
    for off in (None, False):
        assert LBP(Params(num_cores=1), metrics=off).metrics is None
    assert LBP(Params(num_cores=1), metrics=True).metrics.interval == 4096
    assert LBP(Params(num_cores=1), metrics=7).metrics.interval == 7


@pytest.mark.parametrize("given, error", [
    (2.5, TypeError),
    ("8", TypeError),
    (-0.5, TypeError),
    (None, TypeError),
    (0, ValueError),
    (-64, ValueError),
])
def test_a_metrics_interval_is_an_int_of_at_least_one(given, error):
    """No rounding and no parsing: anything but an int >= 1 is refused,
    naming the value given."""
    with pytest.raises(error, match=r"got %s$" % re.escape(repr(given))):
        Metrics(interval=given)
    if given is not None:
        with pytest.raises(error, match=r"got %s$" % re.escape(repr(given))):
            LBP(Params(num_cores=1), metrics=given)


@pytest.mark.parametrize("given", [True, False])
def test_a_bool_is_no_metrics_interval(given):
    """``metrics=True`` means the default interval; ``interval=True`` is
    not an interval of 1."""
    with pytest.raises(TypeError, match="got %r$" % given):
        Metrics(interval=given)


@pytest.mark.parametrize("given, interval", [(True, 4096), (1, 1), (9, 9)])
def test_what_metrics_accepts(given, interval):
    assert LBP(Params(num_cores=1), metrics=given).metrics.interval == interval
    metrics = Metrics(interval)
    assert LBP(Params(num_cores=1), metrics=metrics).metrics is metrics


@pytest.mark.parametrize("backend", [None, "interp"])
def test_a_metrics_subclass_is_refused(backend):
    """The compiled kernel makes a Metrics' charges itself and would not
    call a subclass's overrides: both backends refuse one, naming it."""
    class Counting(Metrics):
        __slots__ = ()

    with pytest.raises(TypeError, match="subclass Counting$"):
        LBP(Params(num_cores=1), metrics=Counting(), backend=backend)


def test_one_metrics_observes_one_machine():
    """Shared by two machines, one Metrics would sum both runs (or index
    past its slots on a larger machine): the second bind refuses."""
    metrics = Metrics(64)
    machine = LBP(Params(num_cores=4), metrics=metrics)
    for cores in (4, 8):
        with pytest.raises(ValueError, match="another machine"):
            LBP(Params(num_cores=cores), metrics=metrics)
    # binding the one it observes again is fine (load_state_dict does)
    assert metrics.bind(machine) is metrics
    assert machine.metrics is metrics


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
    """Per-core slices (the snapshot's spelling) rebuild every slot."""
    metrics = metered.metrics
    clone = LBP(Params(num_cores=2), metrics=metrics.interval).metrics
    for index in range(2):
        wire = json.loads(json.dumps(metrics.domain_state_dict(index)))
        clone.load_domain_state_dict(index, wire)
    assert clone.edges == metrics.edges
    assert ([clone.domain_state_dict(i) for i in range(2)]
            == [metrics.domain_state_dict(i) for i in range(2)])


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
