"""Load test for `repro serve`: hits and misses under concurrent fire.

The serving claim (DESIGN.md §11): over a warm cache, answering a job is
a key derivation plus a disk read — milliseconds — while a miss pays one
simulation, exactly one, however many clients ask for it concurrently.
This benchmark drives a real daemon (unix socket, the production stack)
with a thousand-odd mixed submissions and verifies the claim three ways
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

import os

from repro.serve import ServeConfig, ServerThread
from repro.serve.loadgen import run_load

#: storm size (mixed phase); env override for CI smoke runs
TOTAL_JOBS = int(os.environ.get("LBP_SERVE_LOAD_JOBS", "1000"))
WARM_KEYS = 16          # distinct keys prewarmed, then hammered as hits
COLD_KEYS = 24          # distinct keys first seen mid-storm (the misses)
HIT_SHARE = 0.7         # of the mixed storm
STORM_CONNECTIONS = 100
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


def _plan_mixed(total):
    """Deterministic interleave: ~HIT_SHARE warm keys, the rest cold.

    Cold submissions cycle over COLD_KEYS unique keys, so most cold keys
    are submitted several times concurrently — the single-flight path,
    not just the miss path, is under load.
    """
    hits = int(total * HIT_SHARE)
    plan = []
    for n in range(total):
        if n % 10 < HIT_SHARE * 10:
            plan.append({"kind": "hit",
                         "job": _job(["warm", n % WARM_KEYS])})
        else:
            plan.append({"kind": "miss",
                         "job": _job(["cold", n % COLD_KEYS])})
    return plan, hits


def test_serve_load_hit_miss_percentiles(tmp_path):
    config = ServeConfig(unix_path=str(tmp_path / "serve.sock"),
                         cache_root=str(tmp_path / "cache"), workers=2)
    address = {"unix_path": config.unix_path}
    with ServerThread(config) as handle:
        # phase 0 — prewarm: one execution per warm key
        prewarm = [{"kind": "prewarm", "job": _job(["warm", n])}
                   for n in range(WARM_KEYS)]
        run_load(address, prewarm, concurrency=4)

        # phase 1 — warm hits at low concurrency
        probe = [{"kind": "hit", "job": _job(["warm", n % WARM_KEYS])}
                 for n in range(20 * PROBE_CONNECTIONS)]
        probe_samples = run_load(address, probe,
                                 concurrency=PROBE_CONNECTIONS)

        # phase 2 — the mixed storm
        plan, _ = _plan_mixed(TOTAL_JOBS)
        storm_samples = run_load(address, plan,
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
    samples = probe_samples + storm_samples
    assert len(storm_samples) == TOTAL_JOBS
    by_key = {}
    for sample in samples:
        assert sample["http_status"] == 200, sample
        assert sample["status"] in ("hit", "done"), sample
        assert sample["value_bytes"], "every submission returns the value"
        by_key.setdefault(sample["key"], set()).add(sample["value_bytes"])
    assert len(by_key) == WARM_KEYS + COLD_KEYS
    divergent = {key for key, blobs in by_key.items() if len(blobs) != 1}
    assert not divergent, "keys with non-identical payloads: %s" % divergent

    # ---- drain was clean ----------------------------------------------------
    assert after["draining"] is True
    assert after["queue"] == {"depth": 0, "running": 0}
    assert handle.server.table.inflight == {}

    print("\nserve load: %d jobs over %d connections, %d executed, "
          "%d hits, %d coalesced"
          % (TOTAL_JOBS, STORM_CONNECTIONS, jobs["executed"], jobs["hits"],
             jobs["coalesced"]))
