"""End-to-end tests of the serving stack's observability (PR 10).

A real daemon with tracing on: admission spans minted per submission,
the created job's context propagated by value into the forked worker
(execute/compile/run spans, shard epoch spans), everything merged back
into the server's ring and served on ``/v1/trace``.  The headline
contracts under test:

* N coalesced submissions of one key are N admission traces pointing at
  ONE execution trace;
* served values are bit-exact with tracing on, across shard counts
  (observation-only);
* ``/metrics`` is structurally valid Prometheus text under load;
* a SIGKILLed worker leaves a flight-recorder ``.jsonl`` dump;
* service spans and core timelines land in one validated Perfetto file
  on a shared clock.
"""

import glob
import json
import os
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor

from repro.observe.perfetto import (
    merged_chrome_trace,
    shared_clock_errors,
    validate_chrome_trace,
)
from repro.observe.prom import validate_prometheus_text
from repro.observe.spans import FLIGHT_ENV, flight, read_flight_dump
from repro.serve import ServeClient, ServeConfig, ServerThread

SHORT_ASM = """
main:
    li   t1, 40
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""

MEDIUM_ASM = """
main:
    li   t1, 300000
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""

LONG_ASM = """
main:
    li   t1, 30000000
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""


def _job(source=SHORT_ASM, cores=2, inputs=None, **extra):
    record = {"source": source, "filename": "job.s",
              "params": {"num_cores": cores}, "inputs": inputs}
    record.update(extra)
    return record


def _serve(tmp_path, **overrides):
    options = {"unix_path": str(tmp_path / "serve.sock"),
               "cache_root": str(tmp_path / "cache"), "workers": 2}
    options.update(overrides)
    return ServerThread(ServeConfig(**options))


def _client(handle):
    return ServeClient(unix_path=handle.config.unix_path)


def _trace_snapshot(client):
    status, payload = client.request("GET", "/v1/trace")
    assert status == 200
    return payload


def _by_name(spans, name):
    return [record for record in spans if record["name"] == name]


def _get_raw(unix_path, path):
    """One raw GET, returning (status, headers, text) — for the non-JSON
    ``/metrics`` endpoint the JSON client can't parse."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(unix_path)
    try:
        sock.sendall(("GET %s HTTP/1.1\r\nHost: repro-serve\r\n"
                      "Connection: close\r\n\r\n" % path).encode())
        reader = sock.makefile("rb")
        status = int(reader.readline().split()[1])
        headers = {}
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        body = (reader.read(int(length)) if length is not None
                else reader.read())
        return status, headers, body.decode()
    finally:
        sock.close()


# ---- correlated traces -------------------------------------------------------


def test_100_coalesced_admissions_reference_one_execution_trace(tmp_path):
    """The N:1 span contract: 100 concurrent submissions of one key are
    100 single-span admission traces (unique trace ids), all pointing at
    the ONE execution trace that served them."""
    with _serve(tmp_path) as handle:
        client = _client(handle)

        def submit(_):
            return client.submit_one(_job(MEDIUM_ASM), tenant="crowd")

        with ThreadPoolExecutor(max_workers=32) as pool:
            records = list(pool.map(submit, range(100)))
        spans = _trace_snapshot(client)["spans"]

    assert len(records) == 100
    admissions = _by_name(spans, "admission")
    assert len(admissions) == 100
    # every connection minted its own trace — no collisions, no reuse
    assert len({record["trace_id"] for record in admissions}) == 100

    executes = _by_name(spans, "execute")
    assert len(executes) == 1, "one key executed more than once"
    (execute,) = executes

    queued = [a for a in admissions if a["tags"].get("outcome") == "queued"]
    coalesced = [a for a in admissions
                 if a["tags"].get("outcome") == "coalesced"]
    hits = [a for a in admissions if a["tags"].get("outcome") == "hit"]
    assert len(queued) == 1
    assert len(queued) + len(coalesced) + len(hits) == 100
    assert coalesced, "a 1-s run under 100 submitters must coalesce"

    # the worker's execute span chains onto the creating admission...
    (creator,) = queued
    assert execute["trace_id"] == creator["trace_id"]
    assert execute["parent_id"] == creator["span_id"]
    # ...and every coalesced admission names that execution trace
    for record in coalesced:
        assert record["tags"]["execution_trace"] == creator["trace_id"]

    # the worker-side children stayed in the execution trace
    for name in ("compile", "run"):
        (child,) = _by_name(spans, name)
        assert child["trace_id"] == creator["trace_id"]
        assert child["parent_id"] == execute["span_id"]
    (run,) = _by_name(spans, "run")
    assert run["start_s"] >= execute["start_s"]
    assert run["end_s"] <= execute["end_s"]


def test_job_records_carry_unique_trace_ids(tmp_path):
    with _serve(tmp_path) as handle:
        client = _client(handle)
        ids = [client.submit_one(_job(inputs=index))["id"]
               for index in range(6)]
        described = [client.job(job_id) for job_id in ids]
    trace_ids = [record["trace_id"] for record in described]
    assert len(set(trace_ids)) == 6
    for trace_id in trace_ids:
        assert len(trace_id) == 16
        int(trace_id, 16)


# ---- observation-only: served values unchanged -------------------------------


def test_values_bit_exact_with_tracing_across_shards(tmp_path):
    """The conformance claim for tracing: the daemon (always
    traced) at shards 1 and 2, and the same job run in this process with
    no span context anywhere, produce one value.  Distinct ``inputs``
    per config force two real executions (inputs key the cache but never
    reach the machine)."""
    results = {}
    with _serve(tmp_path) as handle:
        client = _client(handle)
        for shards in (1, 2):
            record = client.submit_one(
                _job(cores=4, inputs="shards-%d" % shards, shards=shards))
            assert record["status"] == "done"
            results[("traced", shards)] = record["value"]
        spans = _trace_snapshot(client)["spans"]

    from repro.asm import assemble
    from repro.machine import LBP, Params
    from repro.serve.worker import job_value

    machine = LBP(Params(num_cores=4)).load(assemble(SHORT_ASM, "job.s"))
    results["untraced"] = job_value(machine, machine.run())

    assert len({json.dumps(value, sort_keys=True)
                for value in results.values()}) == 1, \
        "tracing or sharding perturbed the result"

    # the sharded runs really were traced down to the epoch barrier
    epoch_waits = _by_name(spans, "epoch_wait")
    assert epoch_waits, "sharded executions recorded no epoch spans"
    assert {record["tags"]["shard"] for record in epoch_waits} == {0, 1}
    coordinates = _by_name(spans, "shard_coordinate")
    assert {record["tags"]["shards"] for record in coordinates} == {2}
    for record in epoch_waits:
        assert record["name"] == "epoch_wait"
        # epoch spans belong to the execution traces, not their own
        assert record["trace_id"] in {e["trace_id"]
                                      for e in _by_name(spans, "execute")}
    sends = _by_name(spans, "epoch_send")
    recvs = _by_name(spans, "epoch_recv")
    wait_ids = {record["span_id"] for record in epoch_waits}
    for record in sends + recvs:
        assert record["parent_id"] in wait_ids


# ---- /metrics ----------------------------------------------------------------


def test_metrics_endpoint_is_valid_prometheus_under_load(tmp_path):
    with _serve(tmp_path) as handle:
        client = _client(handle)
        client.submit_one(_job())                     # miss -> execute
        client.submit_one(_job())                     # hit
        client.submit_one(_job(inputs="other"))       # second execution
        status, headers, text = _get_raw(handle.config.unix_path, "/metrics")

    assert status == 200
    assert headers["content-type"].startswith("text/plain; version=0.0.4")
    parsed = validate_prometheus_text(text)

    assert parsed["types"]["repro_jobs_total"] == "counter"
    assert parsed["types"]["repro_http_request_seconds"] == "histogram"
    assert parsed["types"]["repro_job_execute_seconds"] == "histogram"
    jobs = {labels["event"]: value
            for labels, value in parsed["samples"]["repro_jobs_total"]}
    assert jobs["submitted"] == 3.0
    assert jobs["executed"] == 2.0 and jobs["completed"] == 2.0
    assert jobs["hits"] == 1.0
    (_, execute_count), = parsed["samples"]["repro_job_execute_seconds_count"]
    assert execute_count == 2.0
    (_, http_count), = parsed["samples"]["repro_http_request_seconds_count"]
    assert http_count >= 3.0
    # tracing is not a mode: the span counters are always exported
    (_, started), = parsed["samples"]["repro_spans_recorded_total"]
    assert started >= 3.0


# ---- crash flight recorder ---------------------------------------------------


def _sigkill_job(*_args, progress=None):
    """Stands in for execute_job: die the way an OOM-killed worker dies —
    no exception, no report, just gone."""
    flight().note("about_to_die")
    os.kill(os.getpid(), signal.SIGKILL)


def test_worker_sigkill_produces_a_flight_dump(tmp_path, monkeypatch):
    flight_dir = str(tmp_path / "flight")
    # pre-set the env var monkeypatch-style so the server's own export of
    # the same value is restored (removed) on test teardown
    monkeypatch.setenv(FLIGHT_ENV, flight_dir)
    monkeypatch.setattr("repro.serve.server.execute_job", _sigkill_job)
    with _serve(tmp_path, flight_dir=flight_dir, retries=0) as handle:
        client = _client(handle)
        record = client.submit_one(_job())
    assert record["status"] == "failed"
    assert "worker died" in record["error"]

    dumps = sorted(glob.glob(os.path.join(flight_dir, "flight-*.jsonl")))
    assert dumps, "a dead worker must leave a flight dump"
    header, events = read_flight_dump(dumps[0])
    assert header["flight"] == 1
    assert "worker died" in header["reason"]
    kinds = [event["kind"] for event in events]
    # the server's ring tells the story up to the death
    assert "admit" in kinds and "execute" in kinds
    assert kinds[-1] == "worker_died"
    sequences = [event["seq"] for event in events]
    assert sequences == sorted(sequences)


# ---- merged Perfetto: one file, one clock ------------------------------------


def test_merged_perfetto_service_spans_plus_core_timelines(tmp_path):
    """The acceptance headline: spans from a *served* job and the core
    timelines of that job's machine land in one valid Perfetto file, and
    the shared-clock claim holds (every core event inside the run span).

    Determinism is what makes the machine half recoverable: replaying
    the served program locally IS the same run, cycle for cycle, so the
    worker's clock anchor places the replay's events correctly."""
    with _serve(tmp_path) as handle:
        client = _client(handle)
        record = client.submit_one(_job(MEDIUM_ASM))
        assert record["status"] == "done"
        snapshot = _trace_snapshot(client)

    spans, clock = snapshot["spans"], snapshot["clock"]
    assert clock is not None and clock["cycles"] == record["value"]["cycles"]

    from repro.asm import assemble
    from repro.machine import LBP, Params
    from repro.machine.trace import Trace

    machine = LBP(Params(num_cores=2),
                  trace=Trace(True, kinds=("start", "join", "p_ret", "fork",
                                           "ending_signal"))).load(
        assemble(MEDIUM_ASM, "job.s"))
    machine.run()
    assert machine.stats.cycles == clock["cycles"]  # the replay IS the run

    data = merged_chrome_trace(machine, spans, clock)
    assert validate_chrome_trace(data) == []
    assert shared_clock_errors(data) == []
    service_names = {event["name"] for event in data["traceEvents"]
                     if event.get("cat") == "service"}
    assert {"admission", "execute", "compile", "run"} <= service_names
    assert data["otherData"]["cycles"] == clock["cycles"]

    from repro.observe.perfetto import write_chrome_trace

    out = tmp_path / "merged.json"
    write_chrome_trace(machine, str(out), spans=spans, clock=clock)
    on_disk = json.loads(out.read_text())
    assert on_disk["otherData"]["merged"] is True
    assert shared_clock_errors(on_disk) == []


def test_serve_trace_out_writes_spans_file_on_drain(tmp_path):
    trace_out = tmp_path / "service-trace.json"
    with _serve(tmp_path, trace_out=str(trace_out)) as handle:
        client = _client(handle)
        client.submit_one(_job())
        assert not trace_out.exists()  # written on drain, not per job
    data = json.loads(trace_out.read_text())
    assert validate_chrome_trace(data) == []
    assert data["otherData"]["merged"] is True
    assert data["otherData"]["spans"] > 0


# ---- CLI surfaces ------------------------------------------------------------


def test_cli_submit_stream_timeout_prints_terminal_summary(tmp_path, capsys):
    """Satellite contract: a streamed job that times out ends with an
    explicit status line and a nonzero exit — never a silent NDJSON
    end."""
    from repro.cli import main as cli_main

    source = tmp_path / "long.s"
    source.write_text(LONG_ASM)
    with _serve(tmp_path, job_timeout=0.4, retries=0,
                progress_every=200_000) as handle:
        rc = cli_main(["submit", str(source), "--unix",
                       handle.config.unix_path, "--cores", "2", "--stream"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "status   : failed" in captured.out
    assert "timeout" in captured.err


def test_cli_submit_stream_recovers_when_stream_ends_silently(
        tmp_path, capsys, monkeypatch):
    """The regression this PR fixes: a stream that ends without a
    terminal event (daemon drained, connection dropped) must recover the
    job's real fate via a status query instead of reporting nothing."""
    from repro.cli import main as cli_main

    def silent_stream(self, job_id):
        # stand in for a dropped connection: wait out the run, then
        # end the stream having yielded no terminal event
        while self.job(job_id)["state"] not in ("done", "failed",
                                                "cancelled"):
            time.sleep(0.02)
        return iter(())

    monkeypatch.setattr(ServeClient, "stream", silent_stream)
    source = tmp_path / "short.s"
    source.write_text(SHORT_ASM)
    with _serve(tmp_path) as handle:
        rc = cli_main(["submit", str(source), "--unix",
                       handle.config.unix_path, "--cores", "2", "--stream"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "status   : done" in captured.out
    assert "cycles   :" in captured.out


def test_cli_run_spans_writes_merged_perfetto(tmp_path, capsys):
    from repro.cli import main as cli_main

    source = tmp_path / "traced.s"
    source.write_text(SHORT_ASM)
    out = tmp_path / "merged.json"
    rc = cli_main(["run", str(source), "--cores", "2", "--spans",
                   "--perfetto", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "spans    :" in captured.out
    data = json.loads(out.read_text())
    assert validate_chrome_trace(data) == []
    assert data["otherData"]["merged"] is True
    assert shared_clock_errors(data) == []
