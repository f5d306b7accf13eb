"""Load test for `repro serve`: hits and misses under concurrent fire.

The serving claim (DESIGN.md §11): over a warm cache, answering a job is
a key derivation plus a disk read — milliseconds — while a miss pays one
simulation, exactly one, however many clients ask for it concurrently.
This benchmark drives a real daemon (unix socket, the production stack)
with a thousand-odd mixed submissions, sent from a pool of threads
through :class:`~repro.serve.ServeClient` (the client ``repro submit``
uses: one connection per request), and verifies the claim three ways
(in counts and bytes; the latency of a hit and of a miss is the
``serve_hit`` / ``serve_miss`` workloads' job in ``bench/``):

* **single-flight** — executions counted by the server equal the number
  of *unique* keys submitted, never the number of submissions;
* **byte-identity** — every response for one key carries byte-identical
  canonical JSON;
* **clean drain** — stopping the daemon after the storm leaves no queued,
  running or in-flight job behind.

``LBP_SERVE_LOAD_JOBS`` scales the storm (CI smoke uses 200; the default
1000 satisfies the acceptance bar).
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

from repro.serve import ServeClient, ServeConfig, ServerThread

#: storm size (mixed phase); env override for CI smoke runs
TOTAL_JOBS = int(os.environ.get("LBP_SERVE_LOAD_JOBS", "1000"))
WARM_KEYS = 16          # distinct keys prewarmed, then hammered as hits
COLD_KEYS = 24          # distinct keys first seen mid-storm (the misses)
HIT_SHARE = 0.7         # of the mixed storm
STORM_CONNECTIONS = 100  # client threads, one connection per request
PROBE_CONNECTIONS = 8   # low-concurrency phase: hits only, no queueing

ASM = """
main:
    li   t1, 40
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""


def _job(inputs):
    return {"source": ASM, "filename": "job.s",
            "params": {"num_cores": 2}, "inputs": inputs}


def _submit_all(client, jobs, concurrency):
    """Submit *jobs* from *concurrency* threads; returns the records in
    order.  A non-2xx answer raises :class:`~repro.serve.ServeError`."""
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(client.submit_one, jobs))


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _plan_mixed(total):
    """Deterministic interleave: ~HIT_SHARE warm keys, the rest cold.

    Cold submissions cycle over COLD_KEYS unique keys, so most cold keys
    are submitted several times concurrently — the single-flight path,
    not just the miss path, is under load.
    """
    return [_job(["warm", n % WARM_KEYS]) if n % 10 < HIT_SHARE * 10
            else _job(["cold", n % COLD_KEYS])
            for n in range(total)]


def test_serve_load_single_flight_byte_identity_and_drain(tmp_path):
    config = ServeConfig(unix_path=str(tmp_path / "serve.sock"),
                         cache_root=str(tmp_path / "cache"), workers=2)
    client = ServeClient(unix_path=config.unix_path)
    with ServerThread(config) as handle:
        # phase 0 — prewarm: one execution per warm key
        _submit_all(client, [_job(["warm", n]) for n in range(WARM_KEYS)],
                    concurrency=4)

        # phase 1 — warm hits at low concurrency
        probe = [_job(["warm", n % WARM_KEYS])
                 for n in range(20 * PROBE_CONNECTIONS)]
        probe_records = _submit_all(client, probe,
                                    concurrency=PROBE_CONNECTIONS)

        # phase 2 — the mixed storm
        storm_records = _submit_all(client, _plan_mixed(TOTAL_JOBS),
                                    concurrency=STORM_CONNECTIONS)

        stats = handle.server.stats()
        handle.stop()  # clean drain is part of the acceptance criteria
        after = handle.server.stats()

    # ---- single-flight: executions == unique keys, full stop --------------
    jobs = stats["jobs"]
    assert jobs["executed"] == WARM_KEYS + COLD_KEYS
    assert jobs["completed"] == jobs["executed"]
    assert jobs["failed"] == 0 and jobs["job_timeouts"] == 0

    # ---- every answer for a key is byte-identical --------------------------
    assert len(storm_records) == TOTAL_JOBS
    by_key = {}
    for record in probe_records + storm_records:
        assert record["status"] in ("hit", "done"), record
        assert "value" in record, "every submission returns the value"
        by_key.setdefault(record["key"], set()).add(
            _canonical(record["value"]))
    assert len(by_key) == WARM_KEYS + COLD_KEYS
    divergent = {key for key, blobs in by_key.items() if len(blobs) != 1}
    assert not divergent, "keys with non-identical payloads: %s" % divergent

    # ---- drain was clean ----------------------------------------------------
    assert after["draining"] is True
    assert after["queue"] == {"depth": 0, "running": 0}
    assert handle.server.table.inflight == {}

    print("\nserve load: %d jobs from %d threads, %d executed, "
          "%d hits, %d coalesced"
          % (TOTAL_JOBS, STORM_CONNECTIONS, jobs["executed"], jobs["hits"],
             jobs["coalesced"]))
