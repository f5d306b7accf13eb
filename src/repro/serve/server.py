"""`repro serve`: the asyncio simulation-job daemon.

One event loop owns everything light — accepting connections (TCP and/or
unix socket, same handler), parsing HTTP, keying jobs, cache lookups,
the priority queue — and forks everything heavy onto the bounded worker
pool.  The request path for one submitted job::

    parse -> JobSpec -> content key -> cache.get
        hit  ............................. answer now, nothing simulates
        miss, key in flight ............. coalesce onto the running Job
        miss, new key ................... charge quota, enqueue by priority

Misses execute exactly once per key (single-flight); every submitter of
that key — in the same batch, on other connections, before or after the
run started — receives the one canonical value, byte-identical because
responses are canonical JSON of the cached object.  Determinism makes
the dedupe safe: there is no interleaving of requests under which a
second execution could have answered differently.

Endpoints (JSON in, sorted-key JSON out)::

    GET  /healthz                     liveness
    GET  /stats                       cache/jobs/pool/quota counters
    GET  /metrics                     Prometheus text exposition
    GET  /v1/trace                    drained span records + clock anchor
    POST /v1/jobs                     submit a batch; ?/body "wait" blocks
    GET  /v1/jobs/<id>                job status (+ value when done)
    GET  /v1/jobs/<id>/stream         NDJSON progress events, then terminal
    POST /v1/jobs/<id>/cancel         cancel a queued or running job

Observability (PR 10): every submission mints a trace at admission
(:meth:`SimServer._submit_one`: ``admission`` span, ``cache_probe`` /
``quota`` children, coalesced admissions tagged with the executing
job's trace); a created job's context travels by value into the forked
worker (:mod:`repro.serve.worker`), whose spans come back over the
progress pipe and are absorbed here before stream fan-out.  All of it
is observation-only (results, cache bytes and golden digests are those
of an untraced in-process run) and always on: the daemon has no
untraced mode to test or keep in step (DESIGN.md §14.1).

Shutdown is a graceful drain: listeners close first (no new work), the
queue runs dry, in-flight responses are written, then the workers stop
and the cache is final-swept (and the span buffer is written to
``--trace-out`` when configured).
"""

import asyncio
import heapq
import json
import threading
import time

from repro.serve.jobs import (
    CANCELLED,
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    QUEUED,
    RUNNING,
    JobSpec,
    JobTable,
)
from repro.machine import native
from repro.observe import prom
from repro.observe.spans import SpanRecorder, flight
from repro.serve.http import Head, HttpError, encode_response, json_line
from repro.serve.pool import PoolCancelled, PoolTaskError, PoolTimeout, WorkerPool
from repro.serve.quota import QuotaExceeded, QuotaManager
from repro.serve.worker import execute_job
from repro.snapshot.cache import RunCache

__all__ = ["ServeConfig", "ServerThread", "SimServer"]

#: puts between incremental cache-gc sweeps (when a byte budget is set)
_GC_EVERY_PUTS = 32

#: the job counters, in the order /metrics lists them
_JOB_EVENTS = ("submitted", "hits", "misses", "coalesced", "executed",
               "completed", "failed", "cancelled", "job_timeouts")

#: all of ``/metrics``, declared once as (path into the ``/stats`` dict,
#: family, kind, help); a path that names a dict is one sample per key,
#: labelled ``event``, and a histogram's names the server's attribute.
#: A number is exported by putting it into ``stats()`` and a row here.
_METRICS = (
    ("jobs", "repro_jobs_total", "counter",
     "Job admissions by outcome event"),
    ("queue.depth", "repro_queue_depth", "gauge",
     "Jobs admitted and waiting for a pool worker"),
    ("queue.running", "repro_jobs_running", "gauge",
     "Jobs currently executing in forked workers"),
    ("pool.workers", "repro_pool_workers", "gauge",
     "Configured worker pool size"),
    ("pool.timeouts", "repro_pool_timeouts_total", "counter",
     "Execution attempts that blew their deadline"),
    ("pool.retries_spent", "repro_pool_retries_total", "counter",
     "Execution attempts retried after a timeout"),
    ("cache.entries", "repro_cache_entries", "gauge",
     "Run-cache entries on disk"),
    ("cache.disk_bytes", "repro_cache_disk_bytes", "gauge",
     "Run-cache on-disk footprint"),
    ("uptime_s", "repro_uptime_seconds", "gauge",
     "Seconds since the daemon started"),
    ("spans.recorded", "repro_spans_recorded_total", "counter",
     "Spans started in the server process"),
    ("spans.dropped", "repro_spans_dropped_total", "counter",
     "Span records evicted from the bounded ring"),
    ("http_seconds", "repro_http_request_seconds", "histogram",
     "HTTP request latency"),
    ("execute_seconds", "repro_job_execute_seconds", "histogram",
     "Forked execution wall time (admission to result)"),
)


class ServeConfig:
    """Everything `repro serve` can be told from the CLI or a test."""

    def __init__(self, host="127.0.0.1", port=None, unix_path=None,
                 workers=2, cache_root=None, max_cache_bytes=None,
                 max_cache_age_s=None, job_timeout=None, retries=1,
                 progress_every=None, quotas=None, default_quota=None,
                 trace_out=None, flight_dir=None):
        if port is None and unix_path is None:
            raise ValueError("serve needs a TCP port and/or a unix socket")
        # every job's run would refuse it (a bool is an int to isinstance)
        if progress_every is not None and (
                type(progress_every) is not int or progress_every < 1):
            raise ValueError("progress_every must be None or an int >= 1, "
                             "got %r" % (progress_every,))
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.workers = workers
        self.cache_root = cache_root
        self.max_cache_bytes = max_cache_bytes
        self.max_cache_age_s = max_cache_age_s
        self.job_timeout = job_timeout
        self.retries = retries
        self.progress_every = progress_every
        self.quotas = quotas
        self.default_quota = default_quota
        #: write the drained span buffer here (Perfetto JSON) on drain
        self.trace_out = trace_out
        #: arm the crash flight recorder: dumps land in this directory
        self.flight_dir = flight_dir


class SimServer:
    """The daemon: listeners + scheduler + pool around one RunCache."""

    def __init__(self, config):
        self.config = config
        self.cache = RunCache(config.cache_root)
        self.table = JobTable()
        self.quotas = QuotaManager(config.quotas, default=config.default_quota)
        self.pool = WorkerPool(config.workers, timeout=config.job_timeout,
                               retries=config.retries)
        self._heap = []
        self._queue_event = asyncio.Event()
        self._worker_tasks = []
        self._servers = []
        self.draining = False
        self.started_at = None
        self.bound_port = None
        self._puts_since_gc = 0
        #: service spans (admission and everything the workers ship back)
        self.spans = SpanRecorder(capacity=16384)
        #: the newest cycles↔wall clock anchor a worker reported — what
        #: ties core timelines into the merged Perfetto view
        self.last_clock = None
        #: request/execution latency histograms for /metrics
        self.http_seconds = prom.Histogram()
        self.execute_seconds = prom.Histogram()
        #: the GET endpoints that only read state
        self._documents = {
            "/healthz": lambda: {"ok": True, "draining": self.draining},
            "/stats": self.stats,
            "/metrics": self.metrics_text,
            "/v1/trace": lambda: {"spans": self.spans.records(),
                                  "clock": self.last_clock,
                                  "dropped": self.spans.dropped},
        }

    # ---- lifecycle ----------------------------------------------------------

    async def start(self):
        self.started_at = time.monotonic()
        for _ in range(self.config.workers):
            self._worker_tasks.append(
                asyncio.create_task(self._worker_loop()))
        if self.config.unix_path:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path))
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port)
            self.bound_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    async def drain(self):
        """Graceful shutdown: refuse new work, finish accepted work."""
        self.draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._queue_event.set()  # wake idle workers so they can exit
        await asyncio.gather(*self._worker_tasks)
        self.pool.shutdown()
        self._final_gc()
        if self.config.trace_out:
            from repro.observe.perfetto import write_chrome_trace

            write_chrome_trace(None, self.config.trace_out,
                               spans=self.spans.records(),
                               clock=self.last_clock)

    def _final_gc(self):
        if (self.config.max_cache_bytes is not None
                or self.config.max_cache_age_s is not None):
            self.cache.gc(max_bytes=self.config.max_cache_bytes,
                          max_age_s=self.config.max_cache_age_s)

    # ---- scheduling ---------------------------------------------------------

    async def _worker_loop(self):
        while True:
            job = await self._next_job()
            if job is None:
                return
            await self._execute(job)

    async def _next_job(self):
        while True:
            while self._heap:
                _, _, job = heapq.heappop(self._heap)
                if job.done.is_set():
                    continue  # cancelled while queued
                return job
            if self.draining:
                return None
            self._queue_event.clear()
            # re-check under the cleared event: a submit between the heap
            # scan and clear() would otherwise be slept through
            if self._heap:
                continue
            await self._queue_event.wait()

    async def _execute(self, job):
        job.state = RUNNING
        spec = job.spec
        self.table.counters["executed"] += 1
        flight().note("execute", job=job.id, key=job.key[:16],
                      tenant=job.tenant)

        def on_attempt():
            job.attempts += 1

        def on_progress(event):
            # span payloads ride the same pipe as progress but are
            # server-internal: absorb them BEFORE stream fan-out (a
            # non-progress kind would terminate client NDJSON streams)
            if event.get("kind") == "spans":
                self.spans.absorb(event.get("spans") or ())
                if event.get("clock"):
                    self.last_clock = event["clock"]
                return
            job.publish(event)

        started = time.monotonic()
        try:
            value = await self.pool.run(
                execute_job,
                args=(spec.source, spec.filename, spec.params,
                      spec.max_cycles, self.config.progress_every,
                      job.trace_ctx),
                on_progress=on_progress, on_attempt=on_attempt,
                cancel_event=job.cancel_event)
        except PoolCancelled:
            self.table.counters["cancelled"] += 1
            job.fail("cancelled", state=CANCELLED)
        except PoolTimeout as exc:
            self.table.counters["job_timeouts"] += 1
            job.fail("timeout: %s" % exc)
        except PoolTaskError as exc:
            self.table.counters["failed"] += 1
            if exc.worker_died:
                # the child left no report — spill the server's own
                # view so the crash is debuggable
                flight().note("worker_died", job=job.id, error=str(exc))
                flight().spill(self.config.flight_dir,
                               "worker died executing %s" % job.id)
            job.fail(str(exc))
        except Exception as exc:  # defensive: a worker bug must not kill the loop
            self.table.counters["failed"] += 1
            job.fail("internal: %r" % (exc,))
        else:
            try:
                canonical = self.cache.put(job.key, value)
            except OSError as exc:
                # the run succeeded; the cache only memoises it, so a full
                # or read-only cache root costs the next submitter a miss
                flight().note("cache_put_failed", job=job.id, error=str(exc))
                canonical = None
            self.table.counters["completed"] += 1
            job.resolve(canonical if canonical is not None else value)
            self._maybe_gc()
        finally:
            self.execute_seconds.observe(time.monotonic() - started)
            flight().note("job_" + job.state, job=job.id)
            self.table.finish(job)

    def _maybe_gc(self):
        if self.config.max_cache_bytes is None:
            return
        self._puts_since_gc += 1
        if self._puts_since_gc >= _GC_EVERY_PUTS:
            self._puts_since_gc = 0
            self.cache.gc(max_bytes=self.config.max_cache_bytes,
                          max_age_s=self.config.max_cache_age_s)

    # ---- submission ---------------------------------------------------------

    def _submit_one(self, payload, tenant, priority):
        """The single-flight decision for one job; returns a wire record.

        Every submission mints its own trace: the ``admission`` root
        span covers keying through the scheduling decision, with
        ``cache_probe`` (and, for new executions, ``quota``) children.
        A *created* job adopts its admission's trace — the worker-side
        ``execute`` span chains onto it; a *coalesced* admission stays
        its own one-span trace, tagged ``execution_trace`` with the
        running job's trace id so the N:1 fan-in is recoverable.
        """
        spans = self.spans
        admission = spans.start("admission",
                                tags={"tenant": tenant, "priority": priority})
        try:
            try:
                spec = JobSpec.from_wire(payload)
                key = spec.cache_key(self.cache)
            except ValueError as exc:  # a field or a Params knob, by name
                raise HttpError(400, str(exc))
            except Exception as exc:  # compile/assemble error: client's fault
                raise HttpError(400, "bad program: %s: %s"
                                % (type(exc).__name__, exc))
            with spans.span("cache_probe", parent=admission, key=key[:16]):
                entry = self.cache.get(key)
            if entry is not None:
                self.table.counters["submitted"] += 1
                self.table.counters["hits"] += 1
                admission.finish(outcome="hit", key=key[:16])
                return {"key": key, "status": "hit", "value": entry["value"]}
            self.table.counters["misses"] += 1
            if key not in self.table.inflight:
                # charging precedes admission: a rejected job leaves no trace
                try:
                    with spans.span("quota", parent=admission, tenant=tenant):
                        self.quotas.charge(tenant)
                except QuotaExceeded as exc:
                    raise HttpError(429, str(exc))
            job, created = self.table.admit(spec, key, tenant, priority,
                                            trace_ctx=admission.ctx)
            admission.tags["job"] = job.id
            if created:
                flight().note("admit", job=job.id, key=key[:16],
                              tenant=tenant)
                heapq.heappush(self._heap, (*job.sort_key, job))
                self._queue_event.set()
                admission.finish(outcome="queued")
            else:
                # the N:1 coalesce edge: this admission's trace
                # points at the one execution trace serving it
                admission.finish(outcome="coalesced",
                                 execution_trace=job.trace_id)
            return {"key": key, "id": job.id,
                    "status": "queued" if created else "coalesced"}
        finally:
            # a no-op once an outcome above has closed the span
            admission.finish(outcome="rejected")

    async def _submit_batch(self, body, wait=None):
        """``POST /v1/jobs``; *wait*, the query string's, beats the body's."""
        if not isinstance(body, dict):
            raise HttpError(400, "body must be a JSON object")
        jobs = body.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise HttpError(400, "'jobs' must be a non-empty list")
        tenant = body.get("tenant", "anonymous")
        if not isinstance(tenant, str):
            raise HttpError(400, "'tenant' must be a string")
        priority = body.get("priority", DEFAULT_PRIORITY)
        if not isinstance(priority, str) or priority not in PRIORITY_CLASSES:
            raise HttpError(400, "unknown priority %r (one of %s)"
                            % (priority, "/".join(sorted(PRIORITY_CLASSES))))
        if wait is None:
            wait = bool(body.get("wait", True))
        records = []
        for payload in jobs:
            try:
                records.append(self._submit_one(payload, tenant, priority))
            except HttpError as exc:
                records.append({"status": "rejected", "code": exc.status,
                                "error": str(exc)})
        if wait:
            pending = {record["id"] for record in records if "id" in record}
            await asyncio.gather(*(self.table.get(job_id).done.wait()
                                   for job_id in pending))
            for record in records:
                if "id" in record:
                    record.update(self.table.get(record["id"])
                                  .outcome("status"))
        rejected = [r for r in records if r.get("status") == "rejected"]
        status = 200
        if rejected and len(rejected) == len(records):
            status = max(r["code"] for r in rejected)
        return status, {"jobs": records}

    # ---- introspection ------------------------------------------------------

    def stats(self):
        """``GET /stats``; ``/metrics`` is :data:`_METRICS` read out of it."""
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3)
            if self.started_at is not None else 0.0,
            "draining": self.draining,
            "queue": {"depth": self.table.depth(),
                      "running": self.table.running()},
            "jobs": {name: self.table.counters[name] for name in _JOB_EVENTS},
            "pool": self.pool.snapshot(),
            "cache": self.cache.stats(),
            "quota": self.quotas.snapshot(),
            "spans": {"recorded": self.spans.started,
                      "dropped": self.spans.dropped},
            "machine": dict(zip(("tick", "detail"), native.status())),
        }

    def metrics_text(self):
        """The Prometheus text exposition for ``GET /metrics``.

        Assembled fresh per scrape from counters the server already
        keeps — rendering reads state, never mutates it, so a scrape
        can't perturb a running job.
        """
        stats = self.stats()
        families = []
        for path, name, kind, help_text in _METRICS:
            if kind == "histogram":
                samples = getattr(self, path).samples(name)
            else:
                value = stats
                for part in path.split("."):
                    value = value[part]
                samples = ([({"event": event}, count)
                            for event, count in value.items()]
                           if isinstance(value, dict) else [(None, value)])
            families.append(prom.family(name, kind, help_text, samples))
        return prom.render(families)

    # ---- the service, socket-free -------------------------------------------

    async def handle(self, method, path, query=None, body=b""):
        """Answer one request: ``(status, payload)``.

        *payload* is a JSON value, Prometheus text (a ``str``), or — for
        a job's progress stream — an async iterator of NDJSON events.
        Nothing here touches a socket: tests call this directly, and the
        connection loop below is the one caller that frames the answer.
        """
        try:
            return await self._route(method, path, query or {}, body)
        except HttpError as exc:
            return exc.status, {"error": str(exc)}

    async def _route(self, method, path, query, body):
        job_id, _, action = (path[len("/v1/jobs/"):].partition("/")
                             if path.startswith("/v1/jobs/") else ("", "", ""))
        if path in self._documents or (job_id and action in ("", "stream")):
            allowed = "GET"
        elif path == "/v1/jobs" or (job_id and action == "cancel"):
            allowed = "POST"
        else:
            raise HttpError(404, "no such endpoint: %s %s" % (method, path))
        if method != allowed:
            raise HttpError(405, "unsupported: %s %s" % (method, path))
        if path in self._documents:
            return 200, self._documents[path]()
        if not job_id:
            if self.draining:
                raise HttpError(503, "draining")
            try:
                batch = json.loads(body or b"{}")
            except ValueError:
                raise HttpError(400, "body is not valid JSON")
            wait = query.get("wait")
            return await self._submit_batch(
                batch, None if wait is None else wait not in ("0", "false"))
        job = self.table.get(job_id)
        if job is None:
            raise HttpError(404, "no such job: %s" % job_id)
        if action == "stream":
            return 200, self._events(job)
        if action == "cancel":
            self._cancel(job)
        return 200, job.describe()

    def _cancel(self, job):
        if job.done.is_set():
            return
        job.cancel_event.set()
        if job.state == QUEUED:
            # the heap entry is skipped on pop once done is set
            self.table.counters["cancelled"] += 1
            job.fail("cancelled", state=CANCELLED)
            self.table.finish(job)

    @staticmethod
    async def _events(job):
        """A job's NDJSON stream: the latest progress, then every event
        published until the terminal one (a finished job, from history
        too, replays its own)."""
        if job.progress is not None:
            yield job.progress
        if job.done.is_set():
            yield job.terminal_event()
            return
        queue = asyncio.Queue()
        job.subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                yield event
                if event.get("kind") != "progress":
                    return
        finally:
            job.subscribers.remove(queue)

    # ---- the connection loop: the only reader and writer of a socket --------

    async def _handle_connection(self, reader, writer):
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            # the peer went away, or loop shutdown cancelled a lingering
            # keep-alive connection: dropped either way, so close quietly
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _serve_one(self, reader, writer):
        """One request in, one answer out; False when the connection ends."""
        try:
            line = await reader.readline()
            if not line:
                return False  # the peer closed between requests
            head = Head()
            head.feed(line)
            # now, so that a bare "GET /stats" is answered, not waited on
            method, path, query = head.request()
            while not head.feed(await reader.readline()):
                pass
            body = await reader.readexactly(head.length or 0)
        except ValueError:
            # readline's (nothing else here raises one): asyncio's own
            # 64 KiB line limit, ahead of http.MAX_LINE
            return await self._respond(
                writer, 431, {"error": "header line too long"}, False)
        except HttpError as exc:
            # refused by the framing: where the next request would start
            # in the byte stream is unknown, so answer and close
            return await self._respond(writer, exc.status,
                                       {"error": str(exc)}, False)
        keep_alive = head.keep_alive
        started = time.monotonic()
        try:
            try:
                status, payload = await self.handle(method, path, query, body)
            except Exception as exc:  # a handler bug costs one connection
                flight().note("http_500", error=repr(exc))
                status, payload = 500, {"error": "internal: %r" % (exc,)}
                keep_alive = False
            return await self._respond(writer, status, payload, keep_alive)
        finally:
            self.http_seconds.observe(time.monotonic() - started)

    @staticmethod
    async def _respond(writer, status, payload, keep_alive):
        """Frame and send one answer; True when the connection stays."""
        if not hasattr(payload, "__aiter__"):
            writer.write(encode_response(status, payload, keep_alive))
            await writer.drain()
            return keep_alive
        writer.write(encode_response(status, None))
        try:
            async for event in payload:
                writer.write(json_line(event))
                await writer.drain()
        finally:
            await payload.aclose()
        return False  # close-delimited


class ServerThread:
    """A SimServer on a background thread — embedding for tests/benches.

    Usage::

        with ServerThread(ServeConfig(unix_path=sock)) as handle:
            client = ServeClient(unix_path=sock)
            ...

    ``stop(drain=True)`` (or context exit) drains gracefully on the
    server's own loop and joins the thread.
    """

    def __init__(self, config):
        self.config = config
        self.server = None
        self.loop = None
        self._ready = threading.Event()
        self._failure = None
        self._stop_requested = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")

    def start(self, timeout=10.0):
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread failed to become ready")
        if self._failure is not None:
            raise RuntimeError("serve thread failed: %s" % self._failure)
        return self

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self._failure = exc
            self._ready.set()

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        self.server = SimServer(self.config)
        self._stop_requested = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_requested.wait()
        await self.server.drain()

    def stop(self, timeout=60.0):
        if self.loop is not None and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not drain in %gs" % timeout)

    @property
    def port(self):
        return self.server.bound_port if self.server else None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
