"""Spans around the benchmark's own calls into each layer.

The recorder lives in the benchmark, not in the program: a span is opened in
``bench/`` code around a call into a public function (``compile_c``,
``LBP.load``, ``LBP.run``, an HTTP request...), kept in memory, and written
out once when the run ends.  End-to-end metrics are never taken with a
recorder attached; the traced window alternates traced and untraced
operations so that the cost of recording is itself measured.
"""

import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "rep")

    def __init__(self, name, start, parent, rep):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rep = rep


class _Open:
    """Context manager closing one span."""

    __slots__ = ("recorder", "index")

    def __init__(self, recorder, index):
        self.recorder = recorder
        self.index = index

    def __enter__(self):
        return self.index

    def __exit__(self, *exc_info):
        recorder = self.recorder
        recorder.spans[self.index].end = time.perf_counter()
        recorder._stack.pop()
        return False


class Recorder:
    """In-memory span list; one per traced run, single-threaded use."""

    def __init__(self):
        self.spans = []
        self._stack = []
        #: operation number stamped on every span (set by the workload loop)
        self.rep = 0

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.rep))
        self._stack.append(index)
        return _Open(self, index)

    def self_times(self):
        """{name: (count, total seconds, self seconds)}; a span's self time
        is its duration minus the part its child spans cover."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                child_s[span.parent] += span.end - span.start
        table = {}
        for index, span in enumerate(self.spans):
            if span.end is None:
                continue
            duration = span.end - span.start
            count, total, own = table.get(span.name, (0, 0.0, 0.0))
            table[span.name] = (count + 1, total + duration,
                                own + duration - child_s[index])
        return table

    def table_text(self):
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = ["%-22s %7s %12s %12s" % ("span", "count", "total ms",
                                           "self ms")]
        for name, (count, total, own) in rows:
            lines.append("%-22s %7d %12.3f %12.3f"
                         % (name, count, 1e3 * total, 1e3 * own))
        return "\n".join(lines)

    def write(self, path):
        records = [{"name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "rep": s.rep} for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"clock": "perf_counter seconds", "spans": records},
                      handle)


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NO_SPAN = _NoSpan()


def span(recorder, name):
    """``with span(recorder, name):`` — a no-op when *recorder* is None, so
    traced and untraced operations run the same code."""
    if recorder is None:
        return _NO_SPAN
    return recorder.span(name)
