"""Job model for the simulation service: specs, keying, single-flight.

A *job* is one (program, params, inputs) simulation request.  Its
identity is the run cache's content key — SHA-256 over canonical program
bytes, machine parameters, workload inputs and the simulator version —
so two tenants submitting the same work, in the same request or hours
apart, name the same object.  That identity drives the two serving
tricks:

* **cache hit** — the key is already stored: answer from disk, nothing
  simulates;
* **single-flight** — the key is already *executing*: attach the new
  request to the in-flight :class:`Job` instead of scheduling a second
  simulation.  N identical concurrent requests cost one run, and every
  waiter receives the byte-identical canonical value.

Determinism is what makes both legal (the Deterministic Consistency
argument): any interleaving of requests yields the same value per key,
so coalescing and memoizing are unobservable to clients.
"""

import asyncio
import collections
import hashlib
import threading

from repro.compiler import build_program
from repro.machine import Params
from repro.snapshot.progio import program_digest

__all__ = ["Job", "JobSpec", "JobTable", "PRIORITY_CLASSES",
           "compiled_program"]

#: scheduling classes, best first; ties break by admission order
PRIORITY_CLASSES = {"interactive": 0, "batch": 1, "bulk": 2}
DEFAULT_PRIORITY = "batch"

#: job lifecycle states
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")


#: (sha256 of source, filename) -> (Program, its program_digest)
_program_memo = {}
_program_memo_lock = threading.Lock()
_PROGRAM_MEMO_CAP = 256


def _compiled(source, filename):
    """``(program, digest)`` for one job source, each computed once.

    The memo fill is the one place the serve layer serializes a program:
    the digest (:func:`repro.snapshot.progio.program_digest`, the key's
    program component) is taken here, beside the compile, and a warm
    request reuses both.  The digest, not the canonical bytes, is kept:
    64 characters per entry however large the program's data segments.
    """
    memo_key = (hashlib.sha256(source.encode()).hexdigest(), filename)
    with _program_memo_lock:
        compiled = _program_memo.get(memo_key)
    if compiled is not None:
        return compiled
    program = build_program(source, filename)
    compiled = (program, program_digest(program))
    with _program_memo_lock:
        if len(_program_memo) >= _PROGRAM_MEMO_CAP:
            _program_memo.clear()  # tiny programs; rebuild on demand
        _program_memo[memo_key] = compiled
    return compiled


def compiled_program(source, filename):
    """Memoized :func:`repro.compiler.build_program`.

    Serving a warm hit must not pay a compile: the memo makes repeat
    compiling a dict lookup, and it holds each program's digest too, so
    :meth:`JobSpec.cache_key` does not serialize the program again.
    Forked workers inherit the memo, so a miss whose key was just
    computed in the parent re-uses the parent's Program object without
    recompiling either.
    """
    return _compiled(source, filename)[0]


class JobSpec:
    """One validated simulation request.

    Wire shape (all but ``source`` optional)::

        {"source": "...", "filename": "job.c", "params": {"num_cores": 4},
         "inputs": <any JSON>, "max_cycles": 500000000}

    ``params`` holds the two :class:`repro.machine.Params` knobs,
    ``num_cores`` and ``link_hop_latency`` (any other key is a 400);
    ``inputs`` is the free-form workload-input component of the cache
    key; ``max_cycles`` is the run's one cycle budget (default
    ``processor.MAX_CYCLES``) and does *not* participate in the key (a
    successful run's value is independent of its cycle budget).
    """

    __slots__ = ("source", "filename", "params", "inputs", "max_cycles")

    def __init__(self, source, filename="job.c", params=None, inputs=None,
                 max_cycles=None):
        if not isinstance(source, str) or not source:
            raise ValueError("job needs a non-empty 'source' string")
        if not isinstance(filename, str) or "/" in filename:
            raise ValueError("'filename' must be a plain name (suffix "
                             "selects .c compile vs .s assemble)")
        if params is not None and not isinstance(params, dict):
            raise ValueError("'params' must be an object of Params knobs")
        self.source = source
        self.filename = filename
        self.params = dict(params or {})
        self.inputs = inputs
        # bool is an int subclass: JSON true must not pass as 1
        if max_cycles is not None and (type(max_cycles) is not int
                                       or max_cycles < 1):
            raise ValueError("'max_cycles' must be a positive integer")
        self.max_cycles = max_cycles

    @classmethod
    def from_wire(cls, payload):
        if not isinstance(payload, dict):
            raise ValueError("each job must be a JSON object")
        unknown = set(payload) - {"source", "filename", "params", "inputs",
                                  "max_cycles"}
        if unknown:
            raise ValueError("unknown job field(s): %s"
                             % ", ".join(sorted(unknown)))
        return cls(payload.get("source"),
                   filename=payload.get("filename", "job.c"),
                   params=payload.get("params"),
                   inputs=payload.get("inputs"),
                   max_cycles=payload.get("max_cycles"))

    def machine_params(self):
        """The Params object this spec describes (validates the knobs)."""
        return Params.from_state_dict(self.params)

    def cache_key(self, cache):
        """The run-cache content key for this spec: ``key_for`` of the
        same (program, params, inputs) an in-process caller would pass,
        so anyone who can build the program can look the entry up.

        The program goes in as the digest the compile memo holds, so a
        warm key costs a memo lookup, not a serialization of the program;
        the key is the one ``key_for(program=<Program>)`` gives."""
        params = self.machine_params()  # a bad knob is not a bad program
        digest = _compiled(self.source, self.filename)[1]
        return cache.key_for(program=digest, params=params,
                             inputs=self.inputs)


class Job:
    """One scheduled execution plus everyone waiting on it."""

    __slots__ = ("id", "key", "spec", "tenant", "priority", "state",
                 "value", "error", "progress", "attempts", "coalesced",
                 "done", "cancel_event", "subscribers", "seq", "trace_id",
                 "trace_ctx")

    def __init__(self, job_id, key, spec, tenant, priority, seq,
                 trace_ctx=None):
        self.id = job_id
        self.key = key
        self.spec = spec
        self.tenant = tenant
        self.priority = priority
        self.seq = seq
        self.state = QUEUED
        self.value = None
        self.error = None
        self.progress = None
        self.attempts = 0
        self.coalesced = 0
        self.done = asyncio.Event()
        #: checked by the pool's driver thread between poll slices — a
        #: plain threading.Event so cancellation crosses the loop/thread
        #: boundary without asyncio cancel semantics
        self.cancel_event = threading.Event()
        self.subscribers = []
        #: the creating admission's ``(trace_id, span_id)`` context,
        #: propagated by value into the forked worker, and its trace id —
        #: the *execution* trace all coalesced admissions reference
        #: (observability only; never part of the cache key or the
        #: result value)
        self.trace_ctx = trace_ctx
        self.trace_id = trace_ctx[0] if trace_ctx else None

    @property
    def sort_key(self):
        rank = PRIORITY_CLASSES.get(self.priority,
                                    PRIORITY_CLASSES[DEFAULT_PRIORITY])
        return (rank, self.seq)

    def publish(self, event):
        """Fan one progress/terminal event out to every stream subscriber."""
        if event.get("kind") == "progress":
            self.progress = event
        for queue in list(self.subscribers):
            queue.put_nowait(event)

    def resolve(self, value):
        self.state = DONE
        self.value = value
        self.publish(self.terminal_event())
        self.done.set()

    def fail(self, error, state=FAILED):
        self.state = state
        self.error = error
        self.publish(self.terminal_event())
        self.done.set()

    def outcome(self, state_key):
        """State under *state_key*, plus the value or the error once
        there is one: the part that status records (``state``), batch
        answers (``status``) and terminal events (``kind``) share."""
        record = {state_key: self.state}
        if self.value is not None:
            record["value"] = self.value
        if self.error is not None:
            record["error"] = self.error
        return record

    def terminal_event(self):
        """What a finished job's stream ends with."""
        return {"id": self.id, "key": self.key, **self.outcome("kind")}

    def describe(self):
        """The wire status record for ``GET /v1/jobs/<id>``."""
        record = {"id": self.id, "key": self.key, "tenant": self.tenant,
                  "priority": self.priority, "attempts": self.attempts,
                  "coalesced": self.coalesced, **self.outcome("state")}
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.progress is not None:
            record["progress"] = self.progress
        return record


class JobTable:
    """In-flight jobs by key (single-flight) + a bounded job history.

    The table is the dedupe point: :meth:`admit` returns the existing
    in-flight job for a key when there is one (a *coalesced* admission)
    and mints a new one otherwise.  Completed jobs move to a
    fixed-capacity history so late status/stream requests still resolve.
    """

    def __init__(self, history=1024):
        self.inflight = {}
        self.jobs = collections.OrderedDict()
        self.history = history
        self._next_id = 0
        self.counters = collections.Counter()

    def get(self, job_id):
        return self.jobs.get(job_id)

    def admit(self, spec, key, tenant, priority, trace_ctx=None):
        """(job, created): the single-flight decision for one submission;
        a created job adopts *trace_ctx*, the admission span's context."""
        self.counters["submitted"] += 1
        job = self.inflight.get(key)
        if job is not None:
            job.coalesced += 1
            self.counters["coalesced"] += 1
            return job, False
        self._next_id += 1
        job = Job("j-%d" % self._next_id, key, spec, tenant, priority,
                  seq=self._next_id, trace_ctx=trace_ctx)
        self.inflight[key] = job
        self.jobs[job.id] = job
        while len(self.jobs) > self.history:
            oldest_id, oldest = next(iter(self.jobs.items()))
            if not oldest.done.is_set():
                break  # never forget a live job, whatever the cap
            del self.jobs[oldest_id]
        return job, True

    def finish(self, job):
        """Drop *job* from the in-flight index (it keeps its history slot).

        From this point a new submission of the same key is a fresh
        admission — it will hit the cache instead of coalescing.
        """
        if self.inflight.get(job.key) is job:
            del self.inflight[job.key]

    def depth(self):
        return sum(1 for job in self.inflight.values()
                   if job.state == QUEUED)

    def running(self):
        return sum(1 for job in self.inflight.values()
                   if job.state == RUNNING)
