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
(``admission`` span, ``cache_probe``/``quota`` children); a created
job's trace context travels by value into the forked worker, where
``execute``/``compile``/``run`` spans — and, sharded, per-epoch
wait/send/recv spans from the shard processes — are recorded and shipped
back over the existing progress pipe as one ``{"kind": "spans"}``
payload, intercepted here before stream fan-out.  Coalesced admissions
are their own one-span traces tagged with the executing job's trace id.
All of it is observation-only: results, cache bytes and golden digests
are identical with tracing on or off.

Shutdown is a graceful drain: listeners close first (no new work), the
queue runs dry, in-flight responses are written, then the workers stop
and the cache is final-swept (and the span buffer is written to
``--trace-out`` when configured).
"""

import asyncio
import heapq
import json
import os
import threading
import time
import urllib.parse

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
from repro.observe.spans import FLIGHT_ENV, SpanRecorder, flight
from repro.serve.pool import PoolCancelled, PoolTaskError, PoolTimeout, WorkerPool
from repro.serve.quota import QuotaExceeded, QuotaManager
from repro.serve.worker import execute_job
from repro.snapshot.cache import RunCache

__all__ = ["ServeConfig", "ServerThread", "SimServer"]

_MAX_HEADER_LINE = 16 * 1024
_MAX_BODY = 32 * 1024 * 1024
#: puts between incremental cache-gc sweeps (when a byte budget is set)
_GC_EVERY_PUTS = 32


class ServeConfig:
    """Everything `repro serve` can be told from the CLI or a test."""

    def __init__(self, host="127.0.0.1", port=None, unix_path=None,
                 workers=2, cache_root=None, max_cache_bytes=None,
                 max_cache_age_s=None, job_timeout=None, retries=1,
                 progress_every=None, quotas=None, default_quota=None,
                 history=1024, trace=True, trace_out=None, flight_dir=None):
        if port is None and unix_path is None:
            raise ValueError("serve needs a TCP port and/or a unix socket")
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
        self.history = history
        #: span recording on the request path (off = spans-free hot path)
        self.trace = trace
        #: write the drained span buffer here (Perfetto JSON) on drain
        self.trace_out = trace_out
        #: arm the crash flight recorder: dumps land in this directory
        self.flight_dir = flight_dir


class _HttpError(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message}


class SimServer:
    """The daemon: listeners + scheduler + pool around one RunCache."""

    def __init__(self, config):
        self.config = config
        self.cache = RunCache(config.cache_root)
        self.table = JobTable(history=config.history)
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
        self.spans = SpanRecorder(capacity=16384) if config.trace else None
        #: the newest cycles↔wall clock anchor a worker reported — what
        #: ties core timelines into the merged Perfetto view
        self.last_clock = None
        #: request/execution latency histograms for /metrics
        self.http_seconds = prom.Histogram()
        self.execute_seconds = prom.Histogram()
        if config.flight_dir:
            # exported so forked workers (and their shard children)
            # inherit the spill destination through fork
            os.environ[FLIGHT_ENV] = config.flight_dir

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
        self._final_gc()
        if self.config.trace_out and self.spans is not None:
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
                if self.spans is not None:
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
                      spec.shards, job.trace_ctx),
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
                # the child's flight ring died with it — spill the
                # server's own view so the crash is debuggable
                flight().note("worker_died", job=job.id, error=str(exc))
                flight().spill(self.config.flight_dir,
                               "worker died executing %s" % job.id)
            job.fail(str(exc))
        except Exception as exc:  # defensive: a worker bug must not kill the loop
            self.table.counters["failed"] += 1
            job.fail("internal: %r" % (exc,))
        else:
            canonical = self.cache.put(job.key, value, extra={"via": "serve"})
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
        admission = None
        if spans is not None:
            admission = spans.start("admission",
                                    tags={"tenant": tenant,
                                          "priority": priority})
        try:
            spec = JobSpec.from_wire(payload)
            try:
                key = spec.cache_key(self.cache)
            except ValueError:
                raise
            except Exception as exc:  # compile/assemble error: client's fault
                raise _HttpError(400, "bad program: %s: %s"
                                 % (type(exc).__name__, exc))
            if spans is not None:
                with spans.span("cache_probe", parent=admission,
                                key=key[:16]):
                    entry = self.cache.get(key)
            else:
                entry = self.cache.get(key)
            if entry is not None:
                self.table.counters["submitted"] += 1
                self.table.counters["hits"] += 1
                if admission is not None:
                    admission.finish(outcome="hit", key=key[:16])
                    admission = None
                return {"key": key, "status": "hit", "value": entry["value"]}
            self.table.counters["misses"] += 1
            if key not in self.table.inflight:
                # charging precedes admission: a rejected job leaves no trace
                try:
                    if spans is not None:
                        with spans.span("quota", parent=admission,
                                        tenant=tenant):
                            self.quotas.charge(tenant)
                    else:
                        self.quotas.charge(tenant)
                except QuotaExceeded as exc:
                    raise _HttpError(429, str(exc))
            job, created = self.table.admit(spec, key, tenant, priority)
            if created:
                if admission is not None:
                    job.trace_id = admission.trace_id
                    job.trace_ctx = admission.ctx
                flight().note("admit", job=job.id, key=key[:16],
                              tenant=tenant)
                heapq.heappush(self._heap, (*job.sort_key, job))
                self._queue_event.set()
            if admission is not None:
                admission.tags["job"] = job.id
                if created:
                    admission.finish(outcome="queued")
                else:
                    # the N:1 coalesce edge: this admission's trace
                    # points at the one execution trace serving it
                    admission.finish(outcome="coalesced",
                                     execution_trace=job.trace_id)
                admission = None
            return {"key": key, "id": job.id,
                    "status": "queued" if created else "coalesced"}
        finally:
            if admission is not None:
                admission.finish(outcome="rejected")

    async def _submit_batch(self, body):
        if not isinstance(body, dict):
            raise _HttpError(400, "body must be a JSON object")
        jobs = body.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise _HttpError(400, "'jobs' must be a non-empty list")
        tenant = body.get("tenant", "anonymous")
        priority = body.get("priority", DEFAULT_PRIORITY)
        if priority not in PRIORITY_CLASSES:
            raise _HttpError(400, "unknown priority %r (one of %s)"
                             % (priority, "/".join(sorted(PRIORITY_CLASSES))))
        wait = bool(body.get("wait", True))
        records = []
        for payload in jobs:
            try:
                records.append(self._submit_one(payload, tenant, priority))
            except _HttpError as exc:
                records.append({"status": "rejected", "code": exc.status,
                                "error": exc.payload["error"]})
            except ValueError as exc:
                records.append({"status": "rejected", "code": 400,
                                "error": str(exc)})
        if wait:
            pending = {record["id"] for record in records if "id" in record}
            await asyncio.gather(*(self.table.get(job_id).done.wait()
                                   for job_id in pending))
            for record in records:
                job_id = record.get("id")
                if job_id is None:
                    continue
                job = self.table.get(job_id)
                record["status"] = job.state
                if job.value is not None:
                    record["value"] = job.value
                if job.error is not None:
                    record["error"] = job.error
        rejected = [r for r in records if r.get("status") == "rejected"]
        status = 200
        if rejected and len(rejected) == len(records):
            status = max(r["code"] for r in rejected)
        return status, {"jobs": records}

    # ---- introspection ------------------------------------------------------

    def stats(self):
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3)
            if self.started_at is not None else None,
            "draining": self.draining,
            "queue": {"depth": self.table.depth(),
                      "running": self.table.running()},
            "jobs": {name: self.table.counters[name]
                     for name in ("submitted", "hits", "misses", "coalesced",
                                  "executed", "completed", "failed",
                                  "cancelled", "job_timeouts")},
            "pool": self.pool.snapshot(),
            "cache": self.cache.stats(),
            "quota": self.quotas.snapshot(),
            "machine": dict(zip(("tick", "detail"), native.status())),
        }

    def metrics_text(self):
        """The Prometheus text exposition for ``GET /metrics``.

        Assembled fresh per scrape from counters the server already
        keeps — rendering reads state, never mutates it, so a scrape
        can't perturb a running job.
        """
        counters = self.table.counters
        pool = self.pool.snapshot()
        cache = self.cache.stats()
        uptime = (time.monotonic() - self.started_at
                  if self.started_at is not None else 0.0)
        families = [
            prom.family(
                "repro_jobs_total", "counter",
                "Job admissions by outcome event",
                [({"event": name}, counters[name])
                 for name in ("submitted", "hits", "misses", "coalesced",
                              "executed", "completed", "failed",
                              "cancelled", "job_timeouts")]),
            prom.family(
                "repro_queue_depth", "gauge",
                "Jobs admitted and waiting for a pool worker",
                [(None, self.table.depth())]),
            prom.family(
                "repro_jobs_running", "gauge",
                "Jobs currently executing in forked workers",
                [(None, self.table.running())]),
            prom.family(
                "repro_pool_workers", "gauge",
                "Configured worker pool size",
                [(None, pool["workers"])]),
            prom.family(
                "repro_pool_busy", "gauge",
                "Pool workers currently occupied",
                [(None, pool["busy"])]),
            prom.family(
                "repro_pool_timeouts_total", "counter",
                "Execution attempts that blew their deadline",
                [(None, pool["timeouts"])]),
            prom.family(
                "repro_pool_retries_total", "counter",
                "Execution attempts retried after a timeout",
                [(None, pool["retries_spent"])]),
            prom.family(
                "repro_cache_entries", "gauge",
                "Run-cache entries on disk",
                [(None, cache["entries"])]),
            prom.family(
                "repro_cache_disk_bytes", "gauge",
                "Run-cache on-disk footprint (entries + snapshots)",
                [(None, cache["disk_bytes"])]),
            prom.family(
                "repro_uptime_seconds", "gauge",
                "Seconds since the daemon started",
                [(None, round(uptime, 3))]),
            prom.family(
                "repro_http_request_seconds", "histogram",
                "HTTP request latency",
                self.http_seconds.samples("repro_http_request_seconds")),
            prom.family(
                "repro_job_execute_seconds", "histogram",
                "Forked execution wall time (admission to result)",
                self.execute_seconds.samples("repro_job_execute_seconds")),
        ]
        if self.spans is not None:
            families.append(prom.family(
                "repro_spans_recorded_total", "counter",
                "Spans started in the server process",
                [(None, self.spans.started)]))
            families.append(prom.family(
                "repro_spans_dropped_total", "counter",
                "Span records evicted from the bounded ring",
                [(None, self.spans.dropped)]))
        return prom.render(families)

    # ---- the HTTP surface ---------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # loop shutdown cancels lingering keep-alive connections; the
            # peer is being dropped anyway, so close quietly
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        if len(line) > _MAX_HEADER_LINE:
            raise ConnectionError("request line too long")
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise ConnectionError("malformed request line")
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_HEADER_LINE:
                raise ConnectionError("header too long")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY:
            raise ConnectionError("body too large")
        body = await reader.readexactly(length) if length else b""
        split = urllib.parse.urlsplit(target)
        query = {name: values[-1] for name, values
                 in urllib.parse.parse_qs(split.query).items()}
        return {"method": method.upper(), "path": split.path,
                "query": query, "headers": headers, "body": body}

    @staticmethod
    def _write_json(writer, status, payload, keep_alive=True):
        body = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Status")
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n\r\n"
                % (status, reason, len(body),
                   "keep-alive" if keep_alive else "close"))
        writer.write(head.encode("latin-1") + body)

    @staticmethod
    def _write_text(writer, status, text, keep_alive=True,
                    content_type="text/plain; version=0.0.4; charset=utf-8"):
        body = text.encode()
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n\r\n"
                % (status, "OK" if status == 200 else "Status", content_type,
                   len(body), "keep-alive" if keep_alive else "close"))
        writer.write(head.encode("latin-1") + body)

    async def _dispatch(self, request, writer):
        method, path = request["method"], request["path"]
        keep_alive = request["headers"].get("connection", "").lower() != "close"
        started = time.monotonic()
        try:
            return await self._route(request, writer, keep_alive)
        finally:
            self.http_seconds.observe(time.monotonic() - started)

    async def _route(self, request, writer, keep_alive):
        method, path = request["method"], request["path"]
        try:
            if path == "/healthz" and method == "GET":
                self._write_json(writer, 200, {"ok": True,
                                               "draining": self.draining},
                                 keep_alive)
            elif path == "/stats" and method == "GET":
                self._write_json(writer, 200, self.stats(), keep_alive)
            elif path == "/metrics" and method == "GET":
                self._write_text(writer, 200, self.metrics_text(), keep_alive)
            elif path == "/v1/trace" and method == "GET":
                if self.spans is None:
                    raise _HttpError(404, "tracing is disabled")
                self._write_json(writer, 200,
                                 {"spans": self.spans.records(),
                                  "clock": self.last_clock,
                                  "dropped": self.spans.dropped},
                                 keep_alive)
            elif path == "/v1/jobs" and method == "POST":
                if self.draining:
                    raise _HttpError(503, "draining")
                try:
                    body = json.loads(request["body"] or b"{}")
                except ValueError:
                    raise _HttpError(400, "body is not valid JSON")
                if "wait" in request["query"]:
                    body["wait"] = request["query"]["wait"] not in ("0", "false")
                status, payload = await self._submit_batch(body)
                self._write_json(writer, status, payload, keep_alive)
            elif path.startswith("/v1/jobs/"):
                return await self._dispatch_job(request, writer, keep_alive)
            else:
                raise _HttpError(404, "no such endpoint: %s %s"
                                 % (method, path))
        except _HttpError as exc:
            self._write_json(writer, exc.status, exc.payload, keep_alive)
        await writer.drain()
        return keep_alive

    async def _dispatch_job(self, request, writer, keep_alive):
        method, path = request["method"], request["path"]
        parts = path.split("/")  # ['', 'v1', 'jobs', '<id>', maybe-action]
        job_id = parts[3] if len(parts) > 3 else ""
        job = self.table.get(job_id)
        if job is None:
            raise _HttpError(404, "no such job: %s" % (job_id or "?"))
        action = parts[4] if len(parts) > 4 else None
        if action is None and method == "GET":
            self._write_json(writer, 200, job.describe(), keep_alive)
        elif action == "cancel" and method == "POST":
            self._cancel(job)
            self._write_json(writer, 200, job.describe(), keep_alive)
        elif action == "stream" and method == "GET":
            await self._stream(job, writer)
            return False  # close-delimited response
        else:
            raise _HttpError(405, "unsupported: %s %s" % (method, path))
        await writer.drain()
        return keep_alive

    def _cancel(self, job):
        if job.done.is_set():
            return
        job.cancel_event.set()
        if job.state == QUEUED:
            # the heap entry is skipped on pop once done is set
            self.table.counters["cancelled"] += 1
            job.fail("cancelled", state=CANCELLED)
            self.table.finish(job)

    async def _stream(self, job, writer):
        """NDJSON progress stream: close-delimited, ends on the terminal
        event (works on already-finished jobs from history too)."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")

        def send(event):
            writer.write((json.dumps(event, sort_keys=True,
                                     separators=(",", ":")) + "\n").encode())

        if job.done.is_set():
            if job.progress is not None:
                send(job.progress)
            send(self._terminal_event(job))
            await writer.drain()
            return
        queue = asyncio.Queue()
        job.subscribers.append(queue)
        try:
            if job.progress is not None:
                send(job.progress)
                await writer.drain()
            while True:
                event = await queue.get()
                send(event)
                await writer.drain()
                if event.get("kind") != "progress":
                    return
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)

    @staticmethod
    def _terminal_event(job):
        event = {"kind": job.state, "id": job.id, "key": job.key}
        if job.value is not None:
            event["value"] = job.value
        if job.error is not None:
            event["error"] = job.error
        return event


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
