"""Unit tests for the serving layer's pure parts.

Covers the pieces that don't need a running daemon: token-bucket quota
accounting (injected clock, no sleeping), job specs and their content
keys (``RunCache.key_for`` of the built program — anyone who can build
it can look the entry up), the single-flight job table, priority
ordering, the bounded worker pool's timeout/cancel/error behavior, and
the whole service through the socket-free ``SimServer.handle``.
"""

import asyncio
import concurrent.futures
import json
import threading
import time

import pytest

from repro.machine import Params
from repro.observe.prom import validate_prometheus_text
from repro.serve import jobs as serve_jobs
from repro.serve.jobs import (
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    JobSpec,
    JobTable,
    compiled_program,
)
from repro.serve.pool import (
    PoolCancelled,
    PoolTaskError,
    PoolTimeout,
    WorkerPool,
)
from repro.serve.quota import QuotaExceeded, QuotaManager, TokenBucket
from repro.serve.server import _METRICS, ServeConfig, SimServer
from repro.snapshot import progio
from repro.snapshot.cache import RunCache

ASM = """
main:
    li   t1, 10
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""

C_SOURCE = """
int v[4];
void main() {
    v[1] = 7;
}
"""


# ---- quota ------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_token_bucket_spend_and_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=4, clock=clock)
    assert bucket.take(4) == 0.0       # full burst available up front
    retry = bucket.take(1)
    assert retry == pytest.approx(0.5)  # 1 token at 2/s is half a second out
    clock.now += 0.5
    assert bucket.take(1) == 0.0        # continuously refilled
    clock.now += 100.0
    assert bucket.peek() == pytest.approx(4.0)  # capped at burst


def test_token_bucket_hard_allowance_and_impossible_requests():
    bucket = TokenBucket(rate=0, burst=2, clock=FakeClock())
    assert bucket.take() == 0.0 and bucket.take() == 0.0
    assert bucket.take() == float("inf")      # rate 0: never refills
    refilling = TokenBucket(rate=1, burst=2, clock=FakeClock())
    assert refilling.take(3) == float("inf")  # larger than burst: never


def test_token_bucket_rejects_bad_config():
    with pytest.raises(ValueError):
        TokenBucket(rate=1, burst=0)
    with pytest.raises(ValueError):
        TokenBucket(rate=-1, burst=1)


def test_quota_manager_charges_only_listed_or_defaulted_tenants():
    clock = FakeClock()
    quotas = QuotaManager({"alice": (0, 2), "bob": {"rate": 1, "burst": 1}},
                          clock=clock)
    quotas.charge("alice")
    quotas.charge("alice")
    with pytest.raises(QuotaExceeded) as excinfo:
        quotas.charge("alice")
    assert excinfo.value.tenant == "alice"
    assert excinfo.value.retry_after_s == float("inf")
    for _ in range(10):
        quotas.charge("mallory")  # not listed, no default: unmetered
    quotas.charge("bob")
    with pytest.raises(QuotaExceeded) as excinfo:
        quotas.charge("bob")
    assert excinfo.value.retry_after_s == pytest.approx(1.0)
    assert quotas.snapshot() == {"alice": 0.0, "bob": 0.0}


def test_quota_manager_default_allowance():
    quotas = QuotaManager(default=(0, 1), clock=FakeClock())
    quotas.charge("anyone")
    with pytest.raises(QuotaExceeded):
        quotas.charge("anyone")
    quotas.charge("someone-else")  # distinct tenant, distinct bucket


@pytest.mark.parametrize("limits, default, why", [
    (None, (1, 0), "burst must be > 0"),
    (None, (-1, 2), "rate must be >= 0"),
    (None, (float("nan"), 2), "rate must be >= 0"),
    (None, ("abc", "abc"), "is not a rate and a burst"),
    ([1, 2], None, "quotas must map tenant names"),
    ({"t1": {"rate": 1}}, None, "tenant 't1': .* is not a rate and a burst"),
    ({"t1": [1, 2, 3]}, None, "tenant 't1': .* is not a rate and a burst"),
    ({"t1": {"rate": 1, "burst": 0}}, None, "tenant 't1': burst must be"),
])
def test_quota_manager_refuses_a_bad_spec_when_built(limits, default, why):
    """A bad spec used to pass here and fail every job of its tenants
    with an HTTP 500, when the first charge built the bucket."""
    with pytest.raises(ValueError, match=why):
        QuotaManager(limits, default=default)


# ---- job specs and keying ---------------------------------------------------


def test_jobspec_wire_validation():
    spec = JobSpec.from_wire({"source": ASM, "filename": "job.s",
                              "params": {"num_cores": 2}})
    assert spec.machine_params().num_cores == 2
    with pytest.raises(ValueError):
        JobSpec.from_wire({"source": ASM, "bogus": 1})
    with pytest.raises(ValueError):
        JobSpec.from_wire({"source": ""})
    with pytest.raises(ValueError):
        JobSpec.from_wire("not an object")
    with pytest.raises(ValueError):
        JobSpec(ASM, filename="../escape.s")


def _refused_at_admission(tmp_path, **fields):
    """Submit one job carrying ``fields`` to a fresh server whose default
    quota allows one job; check it is a 400 that charged no quota and
    reached no queue, and return its record."""
    server = SimServer(ServeConfig(unix_path=str(tmp_path / "unused.sock"),
                                   cache_root=str(tmp_path / "cache"),
                                   default_quota=(0, 1)))
    status, body = _run(server._submit_batch(
        {"jobs": [dict(fields, source=ASM, filename="job.s")]}))
    assert status == 400
    (record,) = body["jobs"]
    assert record["status"] == "rejected" and record["code"] == 400
    stats = server.stats()
    assert stats["jobs"]["submitted"] == 0 and stats["jobs"]["misses"] == 0
    assert stats["quota"] == {}  # nobody was charged, no bucket was made
    assert not server._heap and not server.table.inflight
    return record


@pytest.mark.parametrize("bad", ["abc", -5, 0, True, 2.5])
def test_bad_counts_are_rejected_before_quota_or_fork(tmp_path, bad):
    """A non-int (JSON ``true`` included) or non-positive ``max_cycles``
    is a 400 at admission — not a quota charge, a fork and a TypeError
    from inside the simulator."""
    with pytest.raises(ValueError, match="'max_cycles' must be a positive"):
        JobSpec.from_wire({"source": ASM, "filename": "job.s",
                           "max_cycles": bad})
    record = _refused_at_admission(tmp_path, max_cycles=bad)
    assert "max_cycles" in record["error"]


@pytest.mark.parametrize("params", [
    {"num_cores": True}, {"num_cores": "4"}, {"num_cores": 0},
    {"link_hop_latency": 0}, {"link_hop_latency": 2.5},
    # knobs no more: constants of the model, or gone
    {"alu_latency": "x"}, {"rob_size": 0}, {"num_result_buffers": 0},
    {"trace_enabled": "yes"}, [1, 2],
])
def test_bad_params_are_rejected_before_quota_or_fork(tmp_path, params):
    """``params`` is outside input that reaches ``Params`` (and, through
    it, the compiled tick): a bad knob value or an unknown knob is a 400
    at admission, not a charged, forked job that dies — or never ends —
    in the worker."""
    record = _refused_at_admission(tmp_path, params=params)
    assert not record["error"].startswith("bad program")
    knob = next(iter(params)) if isinstance(params, dict) else "params"
    assert knob in record["error"]


@pytest.mark.parametrize("knob", [
    "rob_sise", "trace_enabled", "max_cycles", "rob_size"])
def test_unknown_params_knob_is_named_not_blamed_on_the_program(tmp_path,
                                                                 knob):
    """A misspelled or removed knob is the request's mistake, named as
    such: not a ``bad program: TypeError`` from ``Params.__init__``."""
    server = SimServer(ServeConfig(unix_path=str(tmp_path / "unused.sock"),
                                   cache_root=str(tmp_path / "cache")))
    status, body = _run(server._submit_batch(
        {"jobs": [{"source": ASM, "filename": "job.s",
                   "params": {"num_cores": 2, knob: 4}}]}))
    assert status == 400
    (record,) = body["jobs"]
    assert record["error"] == "unknown Params knob(s): %s" % knob


def test_backend_is_an_unknown_job_field():
    with pytest.raises(ValueError, match="unknown job field.*backend"):
        JobSpec.from_wire({"source": ASM, "filename": "job.s",
                           "backend": "soa"})


@pytest.mark.parametrize("field, value", [("backend", "soa"), ("shards", 2)])
def test_selector_field_is_refused_before_quota_or_fork(tmp_path, field,
                                                        value):
    """Neither engine selector is a job field."""
    record = _refused_at_admission(tmp_path, **{field: value})
    assert record["error"] == "unknown job field(s): %s" % field


def test_jobspec_key_matches_run_cache_keying(tmp_path):
    """A serve job's key is ``RunCache.key_for`` of the same work — that
    is the contract that makes the service a cache front-end rather than
    a second cache."""
    cache = RunCache(str(tmp_path))
    spec = JobSpec(ASM, filename="job.s", params={"num_cores": 2},
                   inputs={"n": 64})
    expected = cache.key_for(program=compiled_program(ASM, "job.s"),
                             params=Params(num_cores=2), inputs={"n": 64})
    assert spec.cache_key(cache) == expected


def test_jobspec_max_cycles_not_in_key(tmp_path):
    cache = RunCache(str(tmp_path))
    bounded = JobSpec(ASM, filename="job.s", max_cycles=1000)
    unbounded = JobSpec(ASM, filename="job.s")
    assert bounded.cache_key(cache) == unbounded.cache_key(cache)


def test_jobspec_key_sensitivity(tmp_path):
    cache = RunCache(str(tmp_path))
    base = JobSpec(ASM, filename="job.s", params={"num_cores": 2})
    keys = {
        base.cache_key(cache),
        JobSpec(ASM.replace("li   t1, 10", "li   t1, 11"), filename="job.s",
                params={"num_cores": 2}).cache_key(cache),
        JobSpec(ASM, filename="job.s",
                params={"num_cores": 4}).cache_key(cache),
        JobSpec(ASM, filename="job.s", params={"num_cores": 2},
                inputs="other").cache_key(cache),
    }
    assert len(keys) == 4  # program, params and inputs all key
    # a source change that lowers to identical program bytes does NOT
    # change the key: identity is the program, not its spelling
    commented = JobSpec(ASM + "# comment\n", filename="job.s",
                        params={"num_cores": 2})
    assert commented.cache_key(cache) == base.cache_key(cache)


def test_compiled_program_memoized():
    first = compiled_program(ASM, "job.s")
    assert compiled_program(ASM, "job.s") is first


@pytest.mark.parametrize("source, filename", [(C_SOURCE, "job.c"),
                                              (ASM, "job.s")],
                         ids=["c", "s"])
def test_a_warm_key_serializes_no_program(tmp_path, monkeypatch, source,
                                          filename):
    """The memo holds each program's digest: keying one source 100 times,
    whatever its inputs and params, serializes the program once, and
    every key is the one ``key_for`` gives the Program itself."""
    monkeypatch.setattr(serve_jobs, "_program_memo", {})
    calls = []
    real_program_bytes = progio.program_bytes

    def counting(program):
        calls.append(program)
        return real_program_bytes(program)

    monkeypatch.setattr(progio, "program_bytes", counting)
    cache = RunCache(str(tmp_path))
    shapes = [({"num_cores": cores}, inputs)
              for cores in (2, 4) for inputs in (None, {"n": 8}, "x", [1])]
    work = [shapes[n % len(shapes)] for n in range(100)]
    keys = [JobSpec(source, filename=filename, params=params,
                    inputs=inputs).cache_key(cache)
            for params, inputs in work]
    assert len(calls) == 1
    program = compiled_program(source, filename)
    for (params, inputs), key in zip(work, keys):
        assert key == cache.key_for(program=program,
                                    params=Params(**params), inputs=inputs)
    assert len(set(keys)) == len(shapes)


# ---- single-flight table ----------------------------------------------------


def _spec():
    return JobSpec(ASM, filename="job.s")


def _run(coro):
    return asyncio.run(coro)


def test_single_flight_admission():
    async def scenario():
        table = JobTable()
        job, created = table.admit(_spec(), "k1", "t", DEFAULT_PRIORITY)
        assert created and job.coalesced == 0
        again, created = table.admit(_spec(), "k1", "t", DEFAULT_PRIORITY)
        assert not created and again is job and job.coalesced == 1
        other, created = table.admit(_spec(), "k2", "t", DEFAULT_PRIORITY)
        assert created and other is not job
        assert table.counters["submitted"] == 3
        assert table.counters["coalesced"] == 1
        # after finish, the key is re-admittable as a fresh job
        job.resolve({"v": 1})
        table.finish(job)
        fresh, created = table.admit(_spec(), "k1", "t", DEFAULT_PRIORITY)
        assert created and fresh is not job
        # history still resolves the finished job by id
        assert table.get(job.id) is job

    _run(scenario())


def test_history_never_evicts_live_jobs():
    async def scenario():
        table = JobTable(history=2)
        live = [table.admit(_spec(), "k%d" % n, "t", DEFAULT_PRIORITY)[0]
                for n in range(4)]
        # over capacity, but none are done: all must remain addressable
        assert all(table.get(job.id) is job for job in live)
        for job in live:
            job.resolve({})
            table.finish(job)
        table.admit(_spec(), "k-new", "t", DEFAULT_PRIORITY)
        assert table.get(live[0].id) is None  # done jobs age out now

    _run(scenario())


def test_priority_sort_key_ordering():
    async def scenario():
        table = JobTable()
        batch = table.admit(_spec(), "k1", "t", "batch")[0]
        interactive = table.admit(_spec(), "k2", "t", "interactive")[0]
        bulk = table.admit(_spec(), "k3", "t", "bulk")[0]
        batch2 = table.admit(_spec(), "k4", "t", "batch")[0]
        ordered = sorted([batch, interactive, bulk, batch2],
                         key=lambda job: job.sort_key)
        # class first, admission order within a class
        assert ordered == [interactive, batch, batch2, bulk]
        assert set(PRIORITY_CLASSES) == {"interactive", "batch", "bulk"}

    _run(scenario())


# ---- worker pool ------------------------------------------------------------


def _slow(duration, result="late", progress=None):
    if progress is not None:
        progress({"stage": "started"})
    time.sleep(duration)
    return result


def _boom():
    raise RuntimeError("deterministic failure")


def test_pool_runs_and_streams_progress():
    async def scenario():
        pool = WorkerPool(workers=1)
        seen = []
        value = await pool.run(_slow, args=(0.0, "done"),
                               on_progress=seen.append)
        assert value == "done"
        await asyncio.sleep(0.05)  # progress is relayed via call_soon
        assert seen == [{"stage": "started"}]

    _run(scenario())


def test_pool_runs_workers_children_at_once():
    """The pool's own threads drive its children: a one-thread default
    executor must not serialise two jobs on a two-worker pool."""
    async def scenario():
        asyncio.get_running_loop().set_default_executor(
            concurrent.futures.ThreadPoolExecutor(max_workers=1))
        pool = WorkerPool(workers=2)
        started = time.monotonic()
        values = await asyncio.gather(pool.run(_slow, args=(1.0, "a")),
                                      pool.run(_slow, args=(1.0, "b")))
        elapsed = time.monotonic() - started
        assert values == ["a", "b"]
        assert elapsed < 1.7, elapsed
        pool.shutdown()

    _run(scenario())


def test_pool_timeout_retries_then_raises():
    async def scenario():
        pool = WorkerPool(workers=1, timeout=0.3, retries=1)
        with pytest.raises(PoolTimeout):
            await pool.run(_slow, args=(30.0,))
        snap = pool.snapshot()
        assert snap["timeouts"] == 2      # both attempts hit the deadline
        assert snap["retries_spent"] == 1

    _run(scenario())


def _hang_once(marker):
    """Hang past any deadline on the first call, return on the retry."""
    import os

    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("seen")
        time.sleep(60)
    return "recovered"


def test_pool_timeout_retry_recovers(tmp_path):
    async def scenario():
        pool = WorkerPool(workers=1, timeout=2.0, retries=1)
        attempts = []
        value = await pool.run(_hang_once, args=(str(tmp_path / "marker"),),
                               on_attempt=lambda: attempts.append(1))
        assert value == "recovered"
        assert len(attempts) == 2
        snap = pool.snapshot()
        assert snap["timeouts"] == 1 and snap["retries_spent"] == 1
        pool.shutdown()

    _run(scenario())


def test_pool_shutdown_joins_driver_threads():
    async def scenario():
        pool = WorkerPool(workers=2)
        await asyncio.gather(pool.run(_slow, args=(0.0, "a")),
                             pool.run(_slow, args=(0.0, "b")))
        drivers = [thread for thread in threading.enumerate()
                   if thread.name.startswith("repro-pool")]
        assert drivers  # the pool's own threads drove the children
        pool.shutdown()
        assert not any(thread.is_alive() for thread in drivers)

    _run(scenario())


def test_pool_task_error_not_retried():
    async def scenario():
        pool = WorkerPool(workers=1, retries=3)
        with pytest.raises(PoolTaskError) as excinfo:
            await pool.run(_boom)
        assert "deterministic failure" in str(excinfo.value)
        # deterministic errors spend no retries: they would only recur
        assert pool.snapshot()["retries_spent"] == 0

    _run(scenario())


def test_pool_cancellation():
    async def scenario():
        pool = WorkerPool(workers=1)
        flag = threading.Event()
        flag.set()  # pre-cancelled: the attempt must die at the first slice
        with pytest.raises(PoolCancelled):
            await pool.run(_slow, args=(30.0,), cancel_event=flag)

    _run(scenario())


def test_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        WorkerPool(workers=0)


@pytest.mark.parametrize("timeout", [0, -1])
def test_pool_rejects_a_timeout_that_is_not_positive(timeout):
    """``timeout=-1`` failed every job as timed out on every attempt."""
    with pytest.raises(ValueError, match="timeout must be > 0"):
        WorkerPool(workers=1, timeout=timeout)


def test_pool_rejects_a_negative_retry_count():
    """``retries=-1`` left no attempt at all: ``run`` returned None
    without forking, and the server cached that None as the value."""
    with pytest.raises(ValueError, match="retries"):
        WorkerPool(workers=1, retries=-1)


@pytest.mark.parametrize("every", [0, -3, 2.5, True])
def test_config_rejects_a_progress_period_no_run_takes(tmp_path, every):
    """Each one failed every job at run time (``0`` ran with the default
    period instead): the config refuses it up front."""
    with pytest.raises(ValueError, match="progress_every"):
        ServeConfig(unix_path=str(tmp_path / "unused.sock"),
                    progress_every=every)


# ---- the service, socket-free -----------------------------------------------


def _server(tmp_path, **overrides):
    """A daemon that was never started: no listener, no worker loop, so
    an admitted job stays queued — ``handle`` is all there is."""
    options = {"unix_path": str(tmp_path / "unused.sock"),
               "cache_root": str(tmp_path / "cache")}
    options.update(overrides)
    return SimServer(ServeConfig(**options))


def _wire_job(inputs=None, source=ASM, filename="job.s"):
    return {"source": source, "filename": filename,
            "params": {"num_cores": 2}, "inputs": inputs}


def _submit(server, jobs, query=None, **batch):
    body = json.dumps(dict(batch, jobs=jobs)).encode()
    return _run(server.handle("POST", "/v1/jobs", query or {"wait": "0"},
                              body))


def test_handle_404_and_405(tmp_path):
    server = _server(tmp_path)
    for path in ("/nowhere", "/v1", "/v1/jobs/", "/v1/jobs/j-1/bogus"):
        status, body = _run(server.handle("GET", path))
        assert status == 404 and "no such endpoint" in body["error"]
    status, body = _run(server.handle("GET", "/v1/jobs/j-999"))
    assert status == 404 and body == {"error": "no such job: j-999"}
    for method, path in (("GET", "/v1/jobs"), ("POST", "/stats"),
                         ("POST", "/metrics"), ("DELETE", "/healthz"),
                         ("POST", "/v1/jobs/j-1"),
                         ("POST", "/v1/jobs/j-1/stream"),
                         ("GET", "/v1/jobs/j-1/cancel")):
        status, body = _run(server.handle(method, path))
        assert status == 405, (method, path)
        assert body == {"error": "unsupported: %s %s" % (method, path)}


def test_handle_read_only_documents(tmp_path):
    server = _server(tmp_path)
    assert _run(server.handle("GET", "/healthz")) == (
        200, {"ok": True, "draining": False})
    status, trace = _run(server.handle("GET", "/v1/trace"))
    assert status == 200
    assert trace == {"spans": [], "clock": None, "dropped": 0}
    status, text = _run(server.handle("GET", "/metrics"))
    assert status == 200 and isinstance(text, str)
    validate_prometheus_text(text)


def test_handle_503_while_draining_but_still_answers_reads(tmp_path):
    server = _server(tmp_path)
    server.draining = True
    assert _submit(server, [_wire_job()]) == (503, {"error": "draining"})
    assert _run(server.handle("GET", "/stats"))[1]["draining"] is True
    assert not server.table.inflight


@pytest.mark.parametrize("body, fragment", [
    (b"{", "not valid JSON"),
    (b"[]", "must be a JSON object"),
    (b"{}", "'jobs' must be a non-empty list"),
    (b'{"jobs": [{"source": "x"}], "tenant": {}}', "'tenant' must be"),
    (b'{"jobs": [{"source": "x"}], "priority": [1]}', "unknown priority"),
    (b'{"jobs": [{"source": "x"}], "priority": "asap"}', "unknown priority"),
])
def test_handle_400_for_a_bad_batch(tmp_path, body, fragment):
    server = _server(tmp_path)
    status, answer = _run(server.handle("POST", "/v1/jobs", {"wait": "0"},
                                        body))
    assert status == 400 and fragment in answer["error"]
    assert server.stats()["jobs"]["submitted"] == 0


def test_handle_429_when_the_whole_batch_is_over_quota(tmp_path):
    server = _server(tmp_path, default_quota=(0, 1))
    status, body = _submit(server, [_wire_job("first")], tenant="t")
    assert status == 200 and body["jobs"][0]["status"] == "queued"
    status, body = _submit(server, [_wire_job("second")], tenant="t")
    assert status == 429
    (record,) = body["jobs"]
    assert record["status"] == "rejected" and record["code"] == 429
    # coalescing onto the running key is free, as a hit would be
    status, body = _submit(server, [_wire_job("first")], tenant="t")
    assert status == 200 and body["jobs"][0]["status"] == "coalesced"


def test_handle_mixed_batch(tmp_path):
    server = _server(tmp_path)
    warm = JobSpec.from_wire(_wire_job("warm"))
    server.cache.put(warm.cache_key(server.cache), {"cycles": 7})
    status, body = _submit(server, [
        _wire_job("warm"),                                  # hit
        _wire_job("cold"),                                  # new execution
        _wire_job("cold"),                                  # coalesced
        _wire_job(source="int main( {", filename="job.c"),  # bad program
        {"source": ASM, "bogus": 1},                        # bad field
    ])
    assert status == 200  # not every record was rejected
    hit, queued, coalesced, bad_program, bad_field = body["jobs"]
    assert hit["status"] == "hit" and hit["value"] == {"cycles": 7}
    assert queued["status"] == "queued"
    assert coalesced["status"] == "coalesced"
    assert coalesced["id"] == queued["id"] and coalesced["key"] == queued["key"]
    assert bad_program["status"] == "rejected" and bad_program["code"] == 400
    assert "bad program" in bad_program["error"]
    assert bad_field["code"] == 400 and "bogus" in bad_field["error"]
    jobs = server.stats()["jobs"]
    assert (jobs["submitted"], jobs["hits"], jobs["misses"],
            jobs["coalesced"]) == (3, 1, 2, 1)
    # every admission was traced, the two rejected ones included
    outcomes = sorted(record["tags"]["outcome"]
                      for record in server.spans.records()
                      if record["name"] == "admission")
    assert outcomes == ["coalesced", "hit", "queued", "rejected", "rejected"]


@pytest.mark.parametrize("entry_for", [
    lambda key: [1, 2],
    lambda key: "str",
    lambda key: {"key": "x"},
    lambda key: {"key": key[::-1], "value": {"cycles": 7}},
    lambda key: {"key": key, "cycles": 7},
], ids=["list", "str", "no-value", "other-key", "own-key-no-value"])
def test_a_malformed_cache_entry_is_a_miss_that_re_executes(tmp_path,
                                                           entry_for):
    """An entry file holding anything but this key's ``{"key", "value"}``
    dict is a miss: the job executes, answers 200 with the run's value,
    and its ``put`` overwrites the entry, so the next submit is a hit."""
    server = _server(tmp_path, workers=1)
    key = JobSpec.from_wire(_wire_job("malformed")).cache_key(server.cache)
    path = tmp_path / "cache" / "objects" / key[:2] / (key + ".json")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(entry_for(key)))
    body = json.dumps({"jobs": [_wire_job("malformed")]}).encode()

    async def scenario():
        await server.start()
        try:
            first = await server.handle("POST", "/v1/jobs", {"wait": "1"},
                                        body)
            second = await server.handle("POST", "/v1/jobs", {"wait": "1"},
                                         body)
        finally:
            await server.drain()
        return first, second

    (status, answer), (again_status, again) = _run(scenario())
    assert status == 200
    (record,) = answer["jobs"]
    assert record["status"] == "done" and record["key"] == key
    assert record["value"]["cycles"] > 0
    assert again_status == 200
    assert again["jobs"] == [{"key": key, "status": "hit",
                              "value": record["value"]}]
    jobs = server.stats()["jobs"]
    assert (jobs["executed"], jobs["misses"], jobs["hits"]) == (1, 1, 1)
    assert json.loads(path.read_text()) == {"key": key,
                                            "value": record["value"]}


def test_handle_cancel_of_a_queued_job_and_its_stream(tmp_path):
    server = _server(tmp_path)
    _, body = _submit(server, [_wire_job("victim")])
    job_id = body["jobs"][0]["id"]
    status, described = _run(server.handle("GET", "/v1/jobs/" + job_id))
    assert status == 200 and described["state"] == "queued"
    assert described["trace_id"] and "value" not in described
    status, cancelled = _run(server.handle("POST",
                                           "/v1/jobs/%s/cancel" % job_id))
    assert status == 200 and cancelled["state"] == "cancelled"
    assert cancelled["error"] == "cancelled"
    # idempotent, counted once, and the key is admittable again
    assert _run(server.handle("POST", "/v1/jobs/%s/cancel" % job_id)) == (
        200, cancelled)
    assert server.stats()["jobs"]["cancelled"] == 1
    assert not server.table.inflight

    async def stream():
        status, events = await server.handle(
            "GET", "/v1/jobs/%s/stream" % job_id)
        return status, [event async for event in events]

    assert _run(stream()) == (200, [{"kind": "cancelled", "id": job_id,
                                     "key": cancelled["key"],
                                     "error": "cancelled"}])


def test_stats_and_metrics_agree_on_every_exported_number(tmp_path):
    """One table, two renderings: each row of ``_METRICS`` names a leaf
    of ``/stats`` and a family of ``/metrics``; the numbers are equal."""
    server = _server(tmp_path)
    warm = JobSpec.from_wire(_wire_job("warm"))
    server.cache.put(warm.cache_key(server.cache), {"cycles": 7})
    _submit(server, [_wire_job("warm"), _wire_job("a"), _wire_job("a"),
                     _wire_job("b"), {"source": ""}])
    _, stats = _run(server.handle("GET", "/stats"))
    _, text = _run(server.handle("GET", "/metrics"))
    parsed = validate_prometheus_text(text)

    compared = 0
    for path, family, kind, _help in _METRICS:
        assert parsed["types"][family] == kind
        if kind == "histogram":
            continue
        leaf = stats
        for part in path.split("."):
            leaf = leaf[part]
        samples = parsed["samples"][family]
        if isinstance(leaf, dict):
            assert ({labels["event"]: value for labels, value in samples}
                    == {name: float(count) for name, count in leaf.items()})
            compared += len(leaf)
        else:
            assert samples == [({}, float(leaf))]
            compared += 1
    assert compared == 9 + 10
    assert len(parsed["types"]) == len(_METRICS)
    # the run left something to compare: not every leaf is zero
    assert stats["jobs"]["submitted"] == 4 and stats["queue"]["depth"] == 2
    assert stats["cache"]["disk_bytes"] > 0 and stats["spans"]["recorded"] > 5
