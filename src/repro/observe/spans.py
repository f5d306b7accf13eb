"""Lightweight spans, trace propagation by value, and the flight recorder.

This is the service-plane half of ``repro.observe``: PR 5's stall
attribution answers "where did the *machine* spend its cycles"; spans
answer "where did a *request* spend its wall-clock" — admission, quota,
cache probe, fork, compile, run, response — as one correlated trace
across every process a job touches.

Three design rules keep it safe next to the deterministic simulator:

* **observation only** — spans read the wall clock and nothing else;
  span state never enters ``state_dict``, cache keys or cached values,
  so golden digests are unchanged with tracing on;
* **propagation by value** — a trace context is a plain
  ``(trace_id, span_id)`` tuple handed through ordinary function
  arguments (task specs, fork args, run kwargs).  Nothing is ambient,
  so forked workers need no shared registry;
* **optional only on the command line** — ``repro run --spans`` is the
  one caller that may record or not.  The serve daemon has no off
  position: it always records (DESIGN.md §14.1 says why).

Clocks: all span timestamps are ``time.monotonic()`` seconds.  On the
platforms this repo targets ``CLOCK_MONOTONIC`` is system-wide, so
timestamps taken in a forked worker are directly comparable to the
parent's — the merged trace needs no skew correction between
processes.  Mapping *simulated cycles* onto that wall clock (so PR 5
core timelines and service spans share one Perfetto axis) uses a
:func:`clock_anchor` taken around the run; see
:func:`repro.observe.perfetto.chrome_trace`.

The flight recorder is the crash half: a per-process ring of the last N
structured events that costs nothing until something dies, then spills
to a ``.jsonl`` dump so a SIGKILLed worker fleet is debuggable
post-mortem.
"""

import collections
import json
import os
import time

__all__ = [
    "FlightRecorder",
    "Span",
    "SpanRecorder",
    "clock_anchor",
    "flight",
    "flight_dir",
    "mint_trace_id",
]

#: default ring capacity: enough for every span of a serving burst
DEFAULT_CAPACITY = 4096

#: flight-recorder ring: the last N structured events per process
FLIGHT_CAPACITY = 256

#: environment variable naming where the sharded engine's coordinator
#: spills on a shard crash; set by hand (``repro serve --flight-dir``
#: configures the daemon directly and exports nothing)
FLIGHT_ENV = "LBP_FLIGHT_DIR"


def mint_trace_id():
    """A fresh 16-hex trace (or span) id.

    Random, not sequential: ids must be unique across concurrent
    connections and forked processes with no coordination.  Randomness
    here is legal because ids never enter a deterministic surface.
    """
    return os.urandom(8).hex()


class Span:
    """One timed operation inside a trace.

    Spans are mutable while open and become plain dict records on
    :meth:`finish`; the record — not the object — is what crosses
    process boundaries.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_s",
                 "end_s", "tags", "_recorder")

    def __init__(self, recorder, name, trace_id, parent_id, tags):
        self.trace_id = trace_id
        self.span_id = mint_trace_id()
        self.parent_id = parent_id
        self.name = name
        self.start_s = time.monotonic()
        self.end_s = None
        self.tags = dict(tags) if tags else {}
        self._recorder = recorder

    @property
    def ctx(self):
        """The by-value propagation context: ``(trace_id, span_id)``."""
        return (self.trace_id, self.span_id)

    def tag(self, **tags):
        self.tags.update(tags)
        return self

    def finish(self, **tags):
        """Close the span and commit its record to the recorder's ring."""
        if self.end_s is not None:
            return self
        if tags:
            self.tags.update(tags)
        self.end_s = time.monotonic()
        self._recorder._commit(self)
        return self

    def to_record(self):
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": os.getpid(),
            "tags": self.tags,
        }


class _SpanContext:
    """``with recorder.span(...)`` support without closures on hot paths."""

    __slots__ = ("_span",)

    def __init__(self, span):
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, exc_type, exc, _tb):
        if exc_type is not None:
            self._span.tags["error"] = "%s: %s" % (exc_type.__name__, exc)
        self._span.finish()
        return False


class SpanRecorder:
    """A per-process ring buffer of finished span records.

    The ring bounds memory on long runs (a daemon serving millions of
    requests keeps the *last* ``capacity`` spans), and :meth:`drain`
    empties it — the drained list is what rides a forked worker's
    progress pipe back to the daemon.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self._ring = collections.deque(maxlen=capacity)
        self.dropped = 0
        self.started = 0

    def start(self, name, parent=None, trace_id=None, tags=None):
        """Open a span.

        *parent* is a :class:`Span`, a ``(trace_id, span_id)`` context
        tuple, or None (a new root: *trace_id* or a freshly minted one).
        """
        if parent is not None:
            if isinstance(parent, Span):
                trace_id, parent_id = parent.trace_id, parent.span_id
            else:
                trace_id, parent_id = parent[0], parent[1]
        else:
            parent_id = None
            if trace_id is None:
                trace_id = mint_trace_id()
        self.started += 1
        return Span(self, name, trace_id, parent_id, tags)

    def span(self, name, parent=None, trace_id=None, **tags):
        """Context-manager form: ``with recorder.span("compile", ctx): ...``"""
        return _SpanContext(self.start(name, parent=parent,
                                       trace_id=trace_id, tags=tags))

    def _commit(self, span):
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(span.to_record())

    def absorb(self, records):
        """Merge span records drained from another process's recorder."""
        for record in records:
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(record)

    def records(self):
        """The finished records, oldest first (ring left intact)."""
        return list(self._ring)

    def drain(self):
        """Return and clear the finished records — the pipe payload."""
        records = list(self._ring)
        self._ring.clear()
        return records

    def __len__(self):
        return len(self._ring)


def clock_anchor(start_s, wall_s, cycles):
    """The cycles↔wall mapping for one simulation run.

    Taken around ``machine.run()``: the run started at monotonic
    *start_s*, lasted *wall_s* seconds, and simulated *cycles* cycles.
    :func:`repro.observe.perfetto.chrome_trace` uses it to place PR 5
    core timelines (cycle-stamped) on the same axis as service spans
    (wall-stamped): cycle ``c`` maps to ``start_s + c * wall_s/cycles``.
    The mapping is an affine presentation choice, not a measurement —
    it preserves order and containment (every cycle lands inside the
    run span), which is exactly what the merged view needs.
    """
    return {
        "start_s": start_s,
        "wall_s": wall_s,
        "cycles": int(cycles) if cycles else 0,
    }


# ---- flight recorder ---------------------------------------------------------


class FlightRecorder:
    """The last N structured events of this process, spillable on crash.

    ``note()`` is cheap enough to leave in per-epoch and per-job paths:
    one dict append into a bounded deque.  Nothing touches the disk
    until :meth:`spill`, which writes one self-describing ``.jsonl``
    dump (header line, then the events oldest-first).
    """

    def __init__(self, capacity=FLIGHT_CAPACITY):
        self.pid = os.getpid()
        self._ring = collections.deque(maxlen=capacity)
        self._seq = 0
        self.spilled = []

    def note(self, kind, **fields):
        self._seq += 1
        event = {"seq": self._seq, "t_mono": time.monotonic(),
                 "kind": kind}
        if fields:
            event.update(fields)
        self._ring.append(event)

    def events(self):
        return list(self._ring)

    def spill(self, directory, reason):
        """Write the ring to ``<directory>/flight-<pid>-<seq>.jsonl``.

        Returns the dump path (None when *directory* is falsy — the
        recorder is armed but spilling is disabled).  Never raises: a
        crash path must not crash harder because the dump failed.
        """
        if not directory:
            return None
        try:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory, "flight-%d-%d.jsonl" % (self.pid, self._seq))
            with open(path, "w") as handle:
                header = {"flight": 1, "pid": self.pid, "reason": reason,
                          "events": len(self._ring),
                          "wall": time.strftime("%Y-%m-%d %H:%M:%S")}
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                for event in self._ring:
                    handle.write(json.dumps(event, sort_keys=True,
                                            default=repr) + "\n")
            self.spilled.append(path)
            return path
        except OSError:
            return None


_flight = None


def flight():
    """The per-process flight recorder (fork-safe: a child whose pid
    differs from the recorder's gets a fresh ring, not the parent's)."""
    global _flight
    if _flight is None or _flight.pid != os.getpid():
        _flight = FlightRecorder()
    return _flight


def flight_dir():
    """Where the sharded engine's crash dumps go: the ``LBP_FLIGHT_DIR``
    environment variable, or None — armed-but-disabled."""
    return os.environ.get(FLIGHT_ENV) or None


def read_flight_dump(path):
    """Parse one flight dump back into ``(header, events)``."""
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if not lines or lines[0].get("flight") != 1:
        raise ValueError("%s is not a flight-recorder dump" % path)
    return lines[0], lines[1:]
