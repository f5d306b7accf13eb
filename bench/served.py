"""The serve workloads: a ``repro serve`` subprocess under a closed loop.

One connection, one request in flight, one CPU (see ``pin_to_one_cpu``), so a
latency is service time and not queueing.  ``serve_miss`` submits a fresh key every time (key, fork, compile
memo, simulate, ``RunCache.put``); ``serve_hit`` cycles through HIT_KEYS
cached keys (HTTP framing, keying, ``RunCache.get``).  Coalescing and two
connections are probes of the traced run, not end-to-end metrics.

Set-up is what a user waits for before the service answers: daemon spawn,
readiness, one first job; for the hit workload also filling the cache.
"""

import json
import os
import random
import time

from daemon import Daemon
from spans import span
from sim import TRACED, Built, simulate
from workloads import HIT_BLOCK, HIT_KEYS, JOB, job_payload


def pin_to_one_cpu():
    """Pin this process, and so every daemon and worker it starts, to its
    first usable CPU.  With one request in flight client, daemon and worker
    take turns anyway; what a second CPU adds is a cross-CPU wake-up per
    hand-over, whose cost on this VM follows the neighbours, not the code:
    normalised hit latency spread 0.16 over ten runs unpinned, 0.03 pinned."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Session:
    """A live daemon, one connection to it, and the checks on its answers."""

    def __init__(self, run, workdir):
        self.run = run
        self.source, _ = JOB[0].make(run.seed)
        self.cores = JOB[0].cores
        self.daemon = Daemon(os.path.join(run.tmp, workdir), run.src_dir)
        run.daemons.append(self.daemon)
        self.daemon.start()
        self.conn = self.daemon.connect()
        #: canonical JSON of the one value every key of this job maps to
        self.value = None
        self.seen = set()
        self.executed = 0
        self.hits = 0
        self._fresh = 0

    def payload(self, tag):
        return job_payload(self.source, self.cores,
                           {"seed": self.run.seed, "tag": tag})

    def fresh_tag(self):
        self._fresh += 1
        return "fresh-%d" % self._fresh

    def raw_submit(self, tag, conn=None):
        """One request, nothing else (safe on a thread of its own);
        returns (latency, HTTP status, body)."""
        payload = self.payload(tag)
        start = time.perf_counter()
        status, body = (conn or self.conn).request("POST", "/v1/jobs",
                                                   payload)
        return time.perf_counter() - start, status, body

    def account(self, tag, status, body, expect):
        """Count one answered request and check it: anything but a 200
        with status *expect* ("done": executed for this request or for one
        it was coalesced onto; "hit": served from the cache) and the job's
        one value is a failed operation."""
        self.run.attempted += 1
        if expect == "hit":
            self.hits += 1
        elif tag not in self.seen:
            self.seen.add(tag)
            self.executed += 1
        record = body["jobs"][0] if status == 200 else {}
        if record.get("status") != expect:
            self.run.fail("job %r: HTTP %s, status %r, wanted %r"
                          % (tag, status, record.get("status"), expect))
            return
        value = json.dumps(record.get("value"), sort_keys=True)
        if self.value is None:
            self.value = value
        elif value != self.value:
            self.run.fail("job %r: value differs from the first one" % tag)

    def submit(self, tag):
        """Submit, account, return the latency: a tag seen before must hit,
        a new one must execute."""
        expect = "hit" if tag in self.seen else "done"
        latency, status, body = self.raw_submit(tag)
        self.account(tag, status, body, expect)
        return latency

    def check_counters(self):
        """``/stats`` must agree with what this client saw."""
        status, stats = self.conn.request("GET", "/stats")
        jobs = stats["jobs"] if status == 200 else {}
        want = {"executed": self.executed, "hits": self.hits, "failed": 0,
                "job_timeouts": 0}
        got = {name: jobs.get(name) for name in want}
        if got != want:
            self.run.fail("/stats says %r, the client counted %r"
                          % (got, want))
        return stats if status == 200 else None

    def close(self):
        """Drain the daemon; a dirty exit is a failure.  Returns the drain
        time."""
        self.conn.close()
        drain_s, problems = self.daemon.stop()
        self.run.daemons.remove(self.daemon)
        for problem in problems:
            self.run.fail(problem)
        return drain_s


def set_up(run, mode):
    pin_to_one_cpu()
    session = Session(run, "d")
    for key in range(HIT_KEYS if mode == "hit" else 1):
        session.submit("key-%d" % key)
    return session


def run_window(run, session, mode):
    """Blocks of requests until the window is used up; with a recorder
    attached every other block is traced (see sim.run_window)."""
    rng = random.Random(run.seed)
    deadline = time.perf_counter() + run.window_s
    blocks = 0
    min_blocks = 2 if run.recorder is not None else 1
    while blocks < min_blocks or time.perf_counter() < deadline:
        recorder = run.recorder if blocks % 2 else None
        if run.recorder is not None:
            run.recorder.rep = blocks
        latencies = []
        for _ in range(1 if mode == "miss" else HIT_BLOCK):
            with span(recorder, "serve.request"):
                if mode == "miss":
                    latency = session.submit(session.fresh_tag())
                else:
                    latency = session.submit(
                        "key-%d" % rng.randrange(HIT_KEYS))
            latencies.append(latency)
        if recorder is None:
            run.latencies.extend(latencies)
        run.window.record(mode + (TRACED if recorder else ""),
                          sum(latencies), count=len(latencies))
        blocks += 1


def reference_value(built):
    """The job run in this process: the value the daemon must have served
    (canonical JSON of ``repro.serve.worker.job_value``) and its stats."""
    from repro.serve.worker import job_value

    machine, stats = simulate(built)
    built.verify(machine, built.program)
    return json.dumps(job_value(machine, stats), sort_keys=True), stats


def finish(run, session):
    """After the window: counters, the in-process reference, the drain."""
    session.check_counters()
    built = Built(JOB[0], run.seed)
    run.built = [built]
    value, stats = reference_value(built)
    run.sim_stats[built.name] = stats
    if session.value is not None and session.value != value:
        run.fail("the served value differs from the same job run in-process")
    session.close()
