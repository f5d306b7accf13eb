"""Asyncio load generator for the simulation-job service.

Drives thousands of submissions through persistent (keep-alive)
connections, times every request, and summarizes latency percentiles
per request class — the hit/miss split is the one that matters, because
the whole design claims hits are nearly free while misses pay for a
simulation.

The generator is deliberately independent of the server internals: it
speaks the same HTTP the outside world would, so the measured latency
includes parsing, keying, cache lookup and scheduling — everything but
the client's own network stack.
"""

import asyncio
import collections
import json
import math
import time

from repro.serve.http import Head, encode_request

__all__ = ["percentile", "run_load", "summarize"]


def percentile(samples, q):
    """Nearest-rank percentile of an unsorted sample list (q in 0..100)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


async def _open(address):
    if address.get("unix_path"):
        return await asyncio.open_unix_connection(address["unix_path"])
    return await asyncio.open_connection(address.get("host", "127.0.0.1"),
                                         address["port"])


async def _read_response(reader):
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    head = Head()
    while not head.feed(line):
        line = await reader.readline()
    body = await reader.readexactly(head.length or 0)
    return head.status(), json.loads(body) if body else None


async def _connection_worker(address, queue, samples):
    """One keep-alive connection draining submissions off the shared queue."""
    reader, writer = await _open(address)
    try:
        while True:
            try:
                item = queue.popleft()
            except IndexError:
                return
            body = {"jobs": [item["job"]], "wait": True}
            if item.get("tenant") is not None:
                body["tenant"] = item["tenant"]
            if item.get("priority") is not None:
                body["priority"] = item["priority"]
            t0 = time.perf_counter()
            writer.write(encode_request("POST", "/v1/jobs", body))
            await writer.drain()
            status, payload = await _read_response(reader)
            latency = time.perf_counter() - t0
            record = (payload or {}).get("jobs", [{}])[0]
            samples.append({
                "kind": item.get("kind", "request"),
                "latency_s": latency,
                "http_status": status,
                "status": record.get("status"),
                "key": record.get("key"),
                # canonical bytes of the result — the byte-identity probe
                "value_bytes": json.dumps(record.get("value"),
                                          sort_keys=True,
                                          separators=(",", ":"))
                if "value" in record else None,
            })
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def _run(address, plan, concurrency):
    queue = collections.deque(plan)
    samples = []
    workers = [asyncio.create_task(_connection_worker(address, queue, samples))
               for _ in range(min(concurrency, max(1, len(plan))))]
    await asyncio.gather(*workers)
    return samples


def run_load(address, plan, concurrency=64):
    """Execute *plan* against *address*; returns the raw sample list.

    *address* is ``{"unix_path": ...}`` or ``{"host":..., "port":...}``;
    *plan* items are ``{"kind": label, "job": <wire jobspec>, "tenant":
    ..., "priority": ...}``.  *concurrency* connections drain the plan
    in parallel, each waiting synchronously per request (so at most
    *concurrency* submissions are in flight at once).
    """
    return asyncio.run(_run(address, list(plan), concurrency))


def summarize(samples, wall_s=None):
    """Latency percentiles and error counts per request class.

    Returns ``{kind: {count, errors, p50_ms, p95_ms, p99_ms, mean_ms}}``
    plus an overall ``_total`` row carrying throughput when *wall_s* is
    given.
    """
    by_kind = collections.defaultdict(list)
    errors = collections.Counter()
    for sample in samples:
        by_kind[sample["kind"]].append(sample["latency_s"])
        if sample["http_status"] >= 400 or sample["status"] in (
                "rejected", "failed", "cancelled"):
            errors[sample["kind"]] += 1
    summary = {}
    for kind, latencies in sorted(by_kind.items()):
        summary[kind] = {
            "count": len(latencies),
            "errors": errors[kind],
            "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
            "p95_ms": round(percentile(latencies, 95) * 1e3, 3),
            "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
            "mean_ms": round(sum(latencies) / len(latencies) * 1e3, 3),
        }
    total = [s["latency_s"] for s in samples]
    summary["_total"] = {
        "count": len(total),
        "errors": sum(errors.values()),
        "p50_ms": round(percentile(total, 50) * 1e3, 3) if total else None,
        "p95_ms": round(percentile(total, 95) * 1e3, 3) if total else None,
        "p99_ms": round(percentile(total, 99) * 1e3, 3) if total else None,
    }
    if wall_s:
        summary["_total"]["wall_s"] = round(wall_s, 3)
        summary["_total"]["jobs_per_s"] = round(len(total) / wall_s, 1)
    return summary
