"""The forked worker's half of the job service: run one simulation.

:func:`execute_job` is the module-level callable the pool forks for each
cache miss.  It rebuilds the program (usually a memo hit inherited
through fork from the parent that just keyed the request), runs the
cycle-accurate machine, and returns :func:`job_value` of it — the one
spelling of a cached result, which ``bench/`` and the tests rebuild
in-process to check what the daemon served::

    {"summary": {...}, "cycles": N, "retired": N}

When the caller wires a *progress* channel (see
:class:`repro.eval.runner.ForkedTask`'s ``progress_arg``), the run is
metered (zero-perturbation — PR 5's guarantee is that metrics never
change results) and a compact progress payload is emitted at the same
safe point periodic snapshots use: cycle count, retired, IPC so far and
the dominant stall reason.

The worker always records its spans (execute, compile, run) plus a
cycles↔wall clock anchor, and ships them up the same
progress pipe as one ``{"kind": "spans"}`` payload just before
returning.  *trace_ctx* — the admission span's ``(trace_id, span_id)``,
propagated by value through the fork — is what they chain onto; without
one ``execute`` is the root of a trace of its own.  The server
intercepts that payload before stream fan-out, so clients never see it.
Spans read clocks and nothing else: the result value and every cached
byte are those of an untraced run.
"""

import time

from repro.machine import LBP, Params
from repro.observe.spans import SpanRecorder, clock_anchor
from repro.serve.jobs import compiled_program

__all__ = ["execute_job", "job_progress", "job_value"]

#: default cycles between progress emissions
DEFAULT_PROGRESS_EVERY = 100_000


def job_progress(machine):
    """One compact progress payload from a live, metered machine."""
    cycle = machine.cycle
    retired = machine.stats.retired
    payload = {
        "kind": "progress",
        "cycle": cycle,
        "retired": retired,
        "ipc": round(retired / cycle, 4) if cycle else 0.0,
    }
    if machine.metrics is not None:
        from repro.observe.export import build_report

        report = build_report(machine)
        if report["stall_cycles"]:
            top = max(report["stalls"].items(), key=lambda kv: (kv[1], kv[0]))
            payload["top_stall"] = top[0]
            payload["top_stall_cycles"] = top[1]
    return payload


def job_value(machine, stats):
    """The canonical result value: what the cache stores under a job's
    key and every submitter of that key receives."""
    return {
        "summary": stats.summary(),
        "cycles": stats.cycles,
        "retired": stats.retired,
    }


def execute_job(source, filename, params, max_cycles=None,
                progress_every=None, trace_ctx=None,
                progress=None):
    """Run one job to completion; returns the canonical result value.

    *progress* (injected by the pool) receives :func:`job_progress`
    payloads roughly every *progress_every* cycles; passing it implies a
    metered run so the payloads carry IPC and the top stall reason.
    *trace_ctx* links this execution into the admission's trace.
    """
    spans = SpanRecorder()
    execute_span = spans.start("execute", parent=trace_ctx)
    with spans.span("compile", parent=execute_span, filename=filename):
        program = compiled_program(source, filename)

    metered = progress is not None
    machine = LBP(Params.from_state_dict(params),
                  metrics=True if metered else None).load(program)
    run_kwargs = {}
    if max_cycles is not None:
        run_kwargs["max_cycles"] = max_cycles
    if metered:
        every = progress_every or DEFAULT_PROGRESS_EVERY
        run_kwargs["snapshot_every"] = every
        run_kwargs["snapshot_callback"] = lambda m: progress(job_progress(m))
    run_span = spans.start("run", parent=execute_span)
    run_start = time.monotonic()
    try:
        stats = machine.run(**run_kwargs)
    finally:
        run_span.finish(cycles=machine.cycle)
    value = job_value(machine, stats)
    execute_span.finish(cycles=value["cycles"], retired=value["retired"])
    if progress is not None:
        # anchor on stats.cycles — the count chrome_trace reports — so
        # the served clock and a deterministic replay agree exactly
        clock = clock_anchor(run_start, max(run_span.end_s - run_start, 0.0),
                             stats.cycles)
        progress({"kind": "spans", "spans": spans.drain(),
                  "clock": clock, "dropped": spans.dropped})
    return value
