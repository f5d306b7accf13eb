"""Unit tests for the span/trace subsystem, the Prometheus renderer
and the crash flight recorder (PR 10).

Everything here is process-local: span mechanics (context propagation
by value, ring bounding, drain/absorb), the cycles<->wall clock anchor
and the merged Perfetto export, exposition-text rendering plus the
validator's negative space, and flight-dump round-trips.  The live
serving-stack half lives in tests/integration/test_serve_trace.py.
"""

import json

import pytest

from repro.observe import prom
from repro.observe.perfetto import (
    _SERVICE_PID_BASE,
    chrome_trace,
    merged_chrome_trace,
    shared_clock_errors,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observe.spans import (
    FlightRecorder,
    Span,
    SpanRecorder,
    clock_anchor,
    mint_trace_id,
    read_flight_dump,
)


# ---- spans -------------------------------------------------------------------


def test_mint_trace_id_shape_and_uniqueness():
    ids = {mint_trace_id() for _ in range(256)}
    assert len(ids) == 256
    for tid in ids:
        assert len(tid) == 16
        int(tid, 16)  # hex


def test_root_span_then_child_then_record():
    rec = SpanRecorder()
    root = rec.start("admission", tags={"tenant": "t"})
    child = rec.start("cache_probe", parent=root)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    child.finish(key="abc")
    root.finish(outcome="queued")
    records = rec.records()
    assert [r["name"] for r in records] == ["cache_probe", "admission"]
    probe, admission = records
    assert probe["tags"] == {"key": "abc"}
    assert admission["tags"] == {"tenant": "t", "outcome": "queued"}
    assert probe["end_s"] >= probe["start_s"]
    # records are plain JSON-able dicts — that's the pipe contract
    json.dumps(records)


def test_propagation_by_value_tuple_crosses_recorders():
    """A (trace_id, span_id) tuple — not the Span object — is what a
    forked worker receives; a fresh recorder chains onto it."""
    parent_rec = SpanRecorder()
    admission = parent_rec.start("admission")
    ctx = admission.ctx
    assert ctx == (admission.trace_id, admission.span_id)

    worker_rec = SpanRecorder()  # a different process, conceptually
    execute = worker_rec.start("execute", parent=tuple(ctx))
    assert execute.trace_id == admission.trace_id
    assert execute.parent_id == admission.span_id


def test_finish_is_idempotent():
    rec = SpanRecorder()
    span = rec.start("x")
    span.finish()
    first_end = span.end_s
    span.finish(extra="ignored")
    assert span.end_s == first_end
    assert len(rec) == 1
    assert "extra" not in rec.records()[0]["tags"]


def test_context_manager_tags_errors():
    rec = SpanRecorder()
    with pytest.raises(RuntimeError):
        with rec.span("risky"):
            raise RuntimeError("boom")
    (record,) = rec.records()
    assert record["end_s"] is not None
    assert record["tags"]["error"] == "RuntimeError: boom"


def test_ring_bounds_memory_and_counts_drops():
    rec = SpanRecorder(capacity=4)
    for index in range(10):
        rec.start("s%d" % index).finish()
    assert len(rec) == 4
    assert rec.dropped == 6
    assert rec.started == 10
    # the ring keeps the *last* capacity spans
    assert [r["name"] for r in rec.records()] == ["s6", "s7", "s8", "s9"]


def test_drain_empties_absorb_merges():
    source = SpanRecorder()
    source.start("a").finish()
    source.start("b").finish()
    payload = source.drain()
    assert len(payload) == 2 and len(source) == 0

    sink = SpanRecorder()
    sink.start("own").finish()
    sink.absorb(payload)
    assert [r["name"] for r in sink.records()] == ["own", "a", "b"]


def test_span_start_parent_none_honours_trace_id():
    rec = SpanRecorder()
    span = rec.start("root", trace_id="feedfacefeedface")
    assert span.trace_id == "feedfacefeedface"
    assert span.parent_id is None


def test_clock_anchor_shape():
    anchor = clock_anchor(12.5, 0.25, 1000)
    assert anchor == {"start_s": 12.5, "wall_s": 0.25, "cycles": 1000}
    assert clock_anchor(0.0, 0.0, 0)["cycles"] == 0


# ---- flight recorder ---------------------------------------------------------


def test_flight_ring_keeps_last_events_and_spills(tmp_path):
    recorder = FlightRecorder(capacity=8)
    for index in range(20):
        recorder.note("tick", index=index)
    events = recorder.events()
    assert len(events) == 8
    assert [event["index"] for event in events] == list(range(12, 20))
    assert events[-1]["seq"] == 20

    path = recorder.spill(str(tmp_path), "unit test crash")
    assert path is not None and path.endswith(".jsonl")
    header, dumped = read_flight_dump(path)
    assert header["flight"] == 1
    assert header["reason"] == "unit test crash"
    assert header["events"] == 8
    assert [event["index"] for event in dumped] == list(range(12, 20))


def test_flight_spill_disabled_and_never_raises(tmp_path):
    recorder = FlightRecorder()
    recorder.note("x")
    assert recorder.spill(None, "disabled") is None
    assert recorder.spill("", "disabled") is None
    # an unwritable destination is swallowed, not raised — crash paths
    # must not crash harder because the dump failed
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("occupied")
    assert recorder.spill(str(blocked), "bad dir") is None
    assert recorder.spilled == []


def test_read_flight_dump_rejects_non_dumps(tmp_path):
    path = tmp_path / "not-a-dump.jsonl"
    path.write_text('{"hello": 1}\n')
    with pytest.raises(ValueError):
        read_flight_dump(str(path))


# ---- prometheus rendering + validation ---------------------------------------


def test_histogram_observe_and_cumulative_samples():
    histogram = prom.Histogram(buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        histogram.observe(value)
    rows = histogram.samples("lat")
    by_name = {}
    for name, labels, value in rows:
        by_name.setdefault(name, []).append((labels, value))
    buckets = {labels["le"]: value for labels, value in by_name["lat_bucket"]}
    assert buckets == {"0.1": 1, "1.0": 3, "+Inf": 4}
    assert by_name["lat_count"] == [({}, 4)]
    (_, total), = by_name["lat_sum"]
    assert total == pytest.approx(6.05)


def test_render_and_validate_round_trip():
    histogram = prom.Histogram()
    histogram.observe(0.003)
    histogram.observe(2.0)
    text = prom.render([
        prom.family("repro_jobs_total", "counter", "jobs by event",
                    [({"event": "submitted"}, 3), ({"event": "hits"}, 1)]),
        prom.family("repro_queue_depth", "gauge", "queued jobs",
                    [(None, 0)]),
        prom.family("repro_http_request_seconds", "histogram", "latency",
                    histogram.samples("repro_http_request_seconds")),
    ])
    parsed = prom.validate_prometheus_text(text)
    assert parsed["types"] == {
        "repro_jobs_total": "counter",
        "repro_queue_depth": "gauge",
        "repro_http_request_seconds": "histogram",
    }
    samples = parsed["samples"]
    assert ({"event": "submitted"}, 3.0) in samples["repro_jobs_total"]
    count = samples["repro_http_request_seconds_count"]
    assert count == [({}, 2.0)]


def test_render_escapes_label_values():
    text = prom.render([prom.family(
        "m", "gauge", "with \"quotes\" and \\slashes",
        [({"path": 'a"b\\c'}, 1)])])
    prom.validate_prometheus_text(text)
    assert 'path="a\\"b\\\\c"' in text


@pytest.mark.parametrize("mutate, message", [
    (lambda text: text.rstrip("\n"), "end with a newline"),
    (lambda text: text.replace("# TYPE repro_up gauge\n", ""),
     "no preceding TYPE"),
    (lambda text: text.replace("repro_up 1", "repro_up one"),
     "malformed sample"),
    (lambda text: text + "# TYPE repro_up gauge\n", "duplicate TYPE"),
])
def test_validator_rejects_structural_violations(mutate, message):
    good = "# HELP repro_up up\n# TYPE repro_up gauge\nrepro_up 1\n"
    prom.validate_prometheus_text(good)
    with pytest.raises(ValueError, match=message):
        prom.validate_prometheus_text(mutate(good))


def test_validator_rejects_type_after_samples():
    text = ("# TYPE a gauge\na 1\n"
            "b 2\n# TYPE b gauge\n")
    with pytest.raises(ValueError, match="no preceding TYPE"):
        prom.validate_prometheus_text(text)


def test_validator_rejects_broken_histograms():
    no_inf = ("# TYPE h histogram\n"
              'h_bucket{le="1.0"} 1\nh_sum 1\nh_count 1\n')
    with pytest.raises(ValueError, match=r"missing \+Inf"):
        prom.validate_prometheus_text(no_inf)

    not_cumulative = ("# TYPE h histogram\n"
                      'h_bucket{le="1.0"} 5\nh_bucket{le="+Inf"} 3\n'
                      "h_sum 1\nh_count 3\n")
    with pytest.raises(ValueError, match="not cumulative"):
        prom.validate_prometheus_text(not_cumulative)

    inf_vs_count = ("# TYPE h histogram\n"
                    'h_bucket{le="1.0"} 1\nh_bucket{le="+Inf"} 3\n'
                    "h_sum 1\nh_count 4\n")
    with pytest.raises(ValueError, match="!= _count"):
        prom.validate_prometheus_text(inf_vs_count)

    missing_sum = ("# TYPE h histogram\n"
                   'h_bucket{le="+Inf"} 1\nh_count 1\n')
    with pytest.raises(ValueError, match="missing _sum or _count"):
        prom.validate_prometheus_text(missing_sum)


# ---- merged perfetto export --------------------------------------------------


def _run_machine():
    from repro.asm import assemble
    from repro.machine import LBP, Params

    source = """
main:
    li   t1, 50
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""
    machine = LBP(Params(num_cores=2), trace=True).load(
        assemble(source, "spans.s"))
    machine.run()
    return machine


def _traced_run():
    """A real run wrapped in an admission->execute->run span chain, the
    same shape the serving stack records, plus its clock anchor."""
    import time

    rec = SpanRecorder()
    admission = rec.start("admission")
    execute = rec.start("execute", parent=admission)
    run = rec.start("run", parent=execute)
    start = time.monotonic()
    machine = _run_machine()
    run.finish(cycles=machine.cycle)
    clock = clock_anchor(start, max(run.end_s - start, 1e-6), machine.cycle)
    execute.finish()
    admission.finish()
    return machine, rec.records(), clock


def test_merged_trace_validates_and_shares_the_clock():
    machine, spans, clock = _traced_run()
    data = merged_chrome_trace(machine, spans, clock)
    assert validate_chrome_trace(data) == []
    assert shared_clock_errors(data) == []
    other = data["otherData"]
    assert other["merged"] is True and other["spans"] == 3
    assert other["clock"]["cycles"] == machine.cycle
    assert other["num_cores"] == 2
    names = {event.get("name") for event in data["traceEvents"]
             if event.get("cat") == "service"}
    assert names == {"admission", "execute", "run"}
    # service tracks live above the pid base; core tracks below it
    pids = {event["pid"] for event in data["traceEvents"]}
    assert any(pid >= _SERVICE_PID_BASE for pid in pids)
    assert any(pid < _SERVICE_PID_BASE for pid in pids)


def test_shared_clock_errors_catches_an_escaping_event():
    machine, spans, clock = _traced_run()
    data = merged_chrome_trace(machine, spans, clock)
    run = next(event for event in data["traceEvents"]
               if event.get("cat") == "service" and event["name"] == "run")
    escaped = {"ph": "X", "name": "active", "cat": "hart", "pid": 0,
               "tid": 0, "ts": run["ts"] + run["dur"] + 1000.0, "dur": 5.0}
    data["traceEvents"].append(escaped)
    errors = shared_clock_errors(data)
    assert len(errors) == 1 and "escapes every run span" in errors[0]


def test_merged_trace_without_run_span_fails_the_clock_check():
    machine, spans, clock = _traced_run()
    spans = [record for record in spans if record["name"] != "run"]
    data = merged_chrome_trace(machine, spans, clock)
    assert shared_clock_errors(data) == [
        "merged trace has no service 'run' span"]


def test_spans_only_merged_trace_no_machine():
    _, spans, _ = _traced_run()
    data = merged_chrome_trace(None, spans, None)
    assert validate_chrome_trace(data) == []
    assert data["otherData"]["clock"] is None
    assert "num_cores" not in data["otherData"]
    assert all(event["pid"] >= _SERVICE_PID_BASE
               for event in data["traceEvents"])


def test_legacy_chrome_trace_untouched_by_span_plumbing(tmp_path):
    """write_chrome_trace(machine, path) — the PR 5 CI surface — must be
    byte-for-byte the plain chrome_trace export when spans/clock are
    absent."""
    machine = _run_machine()
    path = tmp_path / "legacy.json"
    write_chrome_trace(machine, str(path))
    on_disk = json.loads(path.read_text())
    direct = json.loads(json.dumps(chrome_trace(machine)))
    assert on_disk == direct
    assert "merged" not in on_disk["otherData"]


def test_write_merged_trace_to_disk(tmp_path):
    machine, spans, clock = _traced_run()
    path = tmp_path / "merged.json"
    count = write_chrome_trace(machine, str(path), spans=spans, clock=clock)
    data = json.loads(path.read_text())
    assert len(data["traceEvents"]) == count
    assert shared_clock_errors(data) == []


# ---- zeroed transport stats (satellite: shards=1 schema) ---------------------


def test_zeroed_transport_stats_matches_sharded_schema():
    from repro.parsim.engine import zeroed_transport_stats

    zeroed = zeroed_transport_stats()
    assert zeroed["shards"] == 1
    assert zeroed["epochs"] == 0 and zeroed["epoch_wait_s"] == 0.0
    assert zeroed["ff_epochs"] == 0 and zeroed["ff_cycles"] == 0
    assert zeroed["per_shard"] == []


def test_transport_table_renders_empty_for_zeroed_stats():
    from repro.observe.export import transport_table
    from repro.parsim.engine import zeroed_transport_stats

    assert transport_table(None) == []
    assert transport_table(zeroed_transport_stats()) == []
