"""End-to-end tests of the simulation-job service.

A real daemon on a background thread (unix socket), real blocking
clients on worker threads — the same stack `repro serve`/`repro submit`
use.  The headline contract under test: N concurrent submissions of one
key cost exactly one simulation, and every submitter receives the
byte-identical canonical value (Deterministic Consistency makes the
dedupe invisible).
"""

import json
import logging
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.compiler import build_program
from repro.machine import LBP, Params, native
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread
from repro.serve.worker import job_value
from repro.snapshot.cache import RunCache

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


def _job(source=SHORT_ASM, cores=2, inputs=None):
    return {"source": source, "filename": "job.s",
            "params": {"num_cores": cores}, "inputs": inputs}


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _serve(tmp_path, **overrides):
    options = {"unix_path": str(tmp_path / "serve.sock"),
               "cache_root": str(tmp_path / "cache"), "workers": 2}
    options.update(overrides)
    return ServerThread(ServeConfig(**options))


def _client(handle):
    return ServeClient(unix_path=handle.config.unix_path)


def test_single_flight_100_concurrent_identical_jobs(tmp_path):
    """100 concurrent submissions of one key: exactly one simulation,
    100 byte-identical answers."""
    with _serve(tmp_path) as handle:
        client = _client(handle)

        def submit(_):
            return client.submit_one(_job(), tenant="crowd")

        with ThreadPoolExecutor(max_workers=32) as pool:
            records = list(pool.map(submit, range(100)))
        stats = client.stats()
    assert len(records) == 100
    assert len({record["key"] for record in records}) == 1
    # every record carries the result, however the submission resolved
    payloads = {_canonical(record["value"]) for record in records}
    assert len(payloads) == 1
    # the simulation ran exactly once; everyone else coalesced or hit
    jobs = stats["jobs"]
    assert jobs["executed"] == 1 and jobs["completed"] == 1
    assert jobs["submitted"] == 100
    assert jobs["hits"] + jobs["coalesced"] == 99
    assert jobs["failed"] == 0 and jobs["cancelled"] == 0
    # ... on the tick this host could build, and /stats says which
    assert stats["machine"] == dict(zip(("tick", "detail"), native.status()))


def test_hit_after_completion_and_cache_shared_with_run_program(tmp_path):
    """What the daemon stored is nothing service-specific: the entry
    under ``key_for(program, params, inputs)`` is the canonical JSON of
    ``job_value`` from the same run made in this process (the check
    ``bench/served.py`` makes after every serve workload)."""
    with _serve(tmp_path) as handle:
        client = _client(handle)
        first = client.submit_one(_job())
        assert first["status"] == "done"
        second = client.submit_one(_job())
        assert second["status"] == "hit"
        assert _canonical(first["value"]) == _canonical(second["value"])
        cache_root = handle.config.cache_root

    program = build_program(SHORT_ASM, "job.s")
    params = Params(num_cores=2)
    machine = LBP(params).load(program)
    expected = _canonical(job_value(machine, machine.run()))

    cache = RunCache(cache_root)
    key = cache.key_for(program=program, params=params, inputs=None)
    assert key == first["key"]
    assert _canonical(cache.get(key)["value"]) == expected
    assert _canonical(first["value"]) == expected


def test_progress_streaming_then_terminal(tmp_path):
    with _serve(tmp_path, progress_every=100_000) as handle:
        client = _client(handle)
        record = client.submit_one(_job(MEDIUM_ASM), wait=False)
        assert record["status"] == "queued"
        events = list(client.stream(record["id"]))
    progress = [e for e in events if e["kind"] == "progress"]
    assert progress, "a multi-M-cycle run must stream progress"
    for event in progress:
        assert event["cycle"] > 0
        assert "ipc" in event and "top_stall" in event
    assert [e["kind"] for e in events[-1:]] == ["done"]
    assert events[-1]["value"]["cycles"] > 500_000


def test_wait_false_then_poll_status(tmp_path):
    with _serve(tmp_path) as handle:
        client = _client(handle)
        record = client.submit_one(_job(), wait=False)
        assert record["status"] == "queued"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.job(record["id"])
            if status["state"] == "done":
                break
            time.sleep(0.05)
        assert status["state"] == "done"
        assert status["value"]["cycles"] > 0


def test_quota_meters_executions_not_hits(tmp_path):
    with _serve(tmp_path, default_quota=(0, 2)) as handle:
        client = _client(handle)
        client.submit_one(_job(inputs="a"), tenant="meterme")
        client.submit_one(_job(inputs="b"), tenant="meterme")
        # third *execution* exceeds the burst-2 hard allowance
        with pytest.raises(ServeError) as excinfo:
            client.submit_one(_job(inputs="c"), tenant="meterme")
        assert excinfo.value.status == 429
        # hits are free: replaying a stored key charges nothing
        replay = client.submit_one(_job(inputs="a"), tenant="meterme")
        assert replay["status"] == "hit"
        # a different tenant has its own bucket
        other = client.submit_one(_job(inputs="c"), tenant="other")
        assert other["status"] == "done"


def test_cancel_queued_job(tmp_path):
    with _serve(tmp_path, workers=1) as handle:
        client = _client(handle)
        running = client.submit_one(_job(LONG_ASM, inputs="hog"), wait=False)
        queued = client.submit_one(_job(LONG_ASM, inputs="victim"),
                                   wait=False)
        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] == "cancelled"
        # cancel is idempotent and the running job is unaffected
        assert client.cancel(queued["id"])["state"] == "cancelled"
        assert client.job(running["id"])["state"] in ("queued", "running",
                                                      "done")
        client.cancel(running["id"])  # release the worker for drain


def test_cancel_running_job(tmp_path):
    with _serve(tmp_path, workers=1) as handle:
        client = _client(handle)
        record = client.submit_one(_job(LONG_ASM, inputs="runner"),
                                   wait=False)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.job(record["id"])["state"] == "running":
                break
            time.sleep(0.02)
        client.cancel(record["id"])
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = client.job(record["id"])
            if status["state"] != "running":
                break
            time.sleep(0.05)
        assert status["state"] == "cancelled"
        assert client.stats()["jobs"]["cancelled"] == 1


def test_batch_mixes_hits_rejections_and_new_work(tmp_path):
    with _serve(tmp_path) as handle:
        client = _client(handle)
        client.submit_one(_job(inputs="warm"))
        records = client.submit([
            _job(inputs="warm"),                      # hit
            _job(inputs="cold"),                      # new execution
            {"source": "int main( {", "filename": "job.c"},  # bad program
        ])
    assert records[0]["status"] == "hit"
    assert records[1]["status"] == "done"
    assert records[2]["status"] == "rejected"
    assert records[2]["code"] == 400
    assert "bad program" in records[2]["error"]


def test_drain_finishes_accepted_work(tmp_path):
    handle = _serve(tmp_path).start()
    client = _client(handle)
    records = [client.submit_one(_job(inputs=n), wait=False)
               for n in range(3)]
    handle.stop()  # graceful: the three accepted jobs must complete
    server = handle.server
    assert server.table.counters["completed"] == 3
    for record in records:
        job = server.table.get(record["id"])
        assert job.state == "done" and job.value["cycles"] > 0
    # and the results were durably cached for the next process
    cache = RunCache(handle.config.cache_root)
    assert cache.stats()["entries"] == 3


def test_draining_server_rejects_new_submissions(tmp_path):
    with _serve(tmp_path) as handle:
        client = _client(handle)
        handle.server.draining = True
        with pytest.raises(ServeError) as excinfo:
            client.submit([_job()])
        assert excinfo.value.status == 503
        handle.server.draining = False  # let the context exit drain cleanly


def test_stream_of_finished_job_replays_terminal(tmp_path):
    with _serve(tmp_path) as handle:
        client = _client(handle)
        record = client.submit_one(_job())
        done = client.job(record["id"]) if "id" in record else None
        if done is not None:
            events = list(client.stream(record["id"]))
            assert events[-1]["kind"] == "done"
            assert _canonical(events[-1]["value"]) == _canonical(
                record["value"])


def test_unknown_endpoints_and_jobs(tmp_path):
    with _serve(tmp_path) as handle:
        client = _client(handle)
        assert client.healthz() == {"draining": False, "ok": True}
        with pytest.raises(ServeError) as excinfo:
            client.job("j-999")
        assert excinfo.value.status == 404
        status, _body = client.request("GET", "/nowhere")
        assert status == 404


def _raw_exchange(unix_path, data):
    """Send *data* as it is; everything the daemon answers until it
    closes (or resets: it may close with bytes of ours still unread)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(unix_path)
    answer = b""
    try:
        sock.sendall(data)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            answer += chunk
    except ConnectionError:
        pass
    finally:
        sock.close()
    return answer


def _post(body, head=b"", target=b"/v1/jobs"):
    return (b"POST " + target + b" HTTP/1.1\r\nConnection: close\r\n" + head
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


@pytest.mark.parametrize("request_bytes, status", [
    (_post(b"[]", target=b"/v1/jobs?wait=0"), 400),
    (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    # over asyncio's own 64 KiB reader limit, and between that and ours
    (b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n", 431),
    (b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 17000 + b"\r\n\r\n", 431),
    (b"GET /stats\r\n", 400),
    (_post(json.dumps({"jobs": [_job()], "priority": ["x"]}).encode()), 400),
    (_post(json.dumps({"jobs": [_job()], "tenant": {"a": 1}}).encode()), 400),
    (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
], ids=["list-body", "length-abc", "length-negative", "header-70k",
        "header-17k", "no-version", "priority-not-a-string",
        "tenant-not-a-string", "length-too-large"])
def test_malformed_request_gets_a_status_and_the_daemon_lives(
        tmp_path, caplog, request_bytes, status):
    """Outside input that used to raise out of the connection callback
    (a dropped connection, a traceback in the log): each is answered
    with its status, and the next connection is served."""
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        with _serve(tmp_path) as handle:
            answer = _raw_exchange(handle.config.unix_path, request_bytes)
            assert _client(handle).healthz() == {"draining": False,
                                                 "ok": True}
            assert handle.server.stats()["jobs"]["submitted"] == 0
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[:2] == [b"HTTP/1.1",
                                                  b"%d" % status]
    assert "error" in json.loads(body)
    assert not caplog.records, [r.getMessage() for r in caplog.records]


def test_handler_bug_is_one_500_not_a_dead_daemon(tmp_path, monkeypatch):
    """Whatever else a handler raises costs that one connection: a 500,
    a note in the flight recorder, and the next request is answered."""
    from repro.observe.spans import flight

    with _serve(tmp_path) as handle:
        client = _client(handle)

        def broken():
            raise RuntimeError("boom")

        monkeypatch.setitem(handle.server._documents, "/stats", broken)
        status, body = client.request("GET", "/stats")
        assert status == 500 and "boom" in body["error"]
        assert client.healthz()["ok"] is True
    assert any(event["kind"] == "http_500" for event in flight().events())
