"""Chrome trace-event JSON export, loadable in ui.perfetto.dev.

Layout: one *process* per core, one *thread track* per hart (built from
the team-protocol trace events via ``machine/timeline.py``'s lanes), and
one extra "metrics" process carrying counter tracks (IPC, active harts,
memory mix, stall-reason mix) sampled from the windowed metrics.

The exporter emits events lane by lane in ascending hart order with each
lane's events in cycle order, so the output is deterministic and every
track's timestamps are monotonic — the two properties
:func:`validate_chrome_trace` checks (and CI enforces on the uploaded
artifact).  Timestamps are simulated cycles, presented as microseconds
(the trace-event format has no unitless time).
"""

import json

from repro.machine.timeline import build_lanes
from repro.observe.export import build_report
from repro.observe.metrics import STALL_REASONS

#: instant-event names per timeline mark character
_MARK_NAMES = {
    "F": "boot",
    "s": "start",
    "E": "end",
    "J": "join",
    "W": "wait",
    "X": "exit",
    "f": "fork",
}


def chrome_trace(machine):
    """Build the trace-event dict for a finished machine (trace enabled)."""
    params = machine.params
    hpc = params.harts_per_core
    events = machine.trace.events
    lanes, last = build_lanes(events, params.num_harts)
    out = []
    seen_cores = []
    for lane in lanes:
        if not lane.intervals and not lane.marks:
            continue
        core = lane.gid // hpc
        if core not in seen_cores:
            seen_cores.append(core)
            out.append({
                "ph": "M", "name": "process_name", "pid": core, "tid": 0,
                "args": {"name": "core %d" % core},
            })
        out.append({
            "ph": "M", "name": "thread_name", "pid": core, "tid": lane.gid,
            "args": {"name": "hart %d" % lane.gid},
        })
        track = []
        for begin, end in lane.intervals:
            track.append((begin, 0, {
                "ph": "X", "name": "active", "cat": "hart",
                "pid": core, "tid": lane.gid,
                "ts": begin, "dur": max(end - begin, 1),
            }))
        for cycle, char in lane.marks:
            track.append((cycle, 1, {
                "ph": "i", "s": "t",
                "name": _MARK_NAMES.get(char, char),
                "cat": "team", "pid": core, "tid": lane.gid, "ts": cycle,
            }))
        track.sort(key=lambda item: (item[0], item[1]))
        out.extend(item[2] for item in track)
    if machine.metrics is not None:
        out.extend(_counter_events(machine, pid=params.num_cores))
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.observe",
            "cycles": machine.stats.cycles or last,
            "num_cores": params.num_cores,
            "harts_per_core": hpc,
        },
    }


def _counter_events(machine, pid):
    """Counter tracks from the windowed metrics, one process for all."""
    report = build_report(machine)
    out = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": "metrics (interval %d)" % report["interval"]},
    }]
    for row in report["windows"]:
        ts = row["start"]
        out.append({"ph": "C", "name": "ipc", "pid": pid, "tid": 0,
                    "ts": ts, "args": {"ipc": row["ipc"]}})
        out.append({"ph": "C", "name": "active_harts", "pid": pid, "tid": 0,
                    "ts": ts, "args": {"harts": row["active_harts"]}})
        out.append({"ph": "C", "name": "memory_mix", "pid": pid, "tid": 0,
                    "ts": ts,
                    "args": {"local": row["local"], "remote": row["remote"]}})
        out.append({"ph": "C", "name": "stalls", "pid": pid, "tid": 0,
                    "ts": ts,
                    "args": {name: row["stalls"][name]
                             for name in STALL_REASONS}})
    return out


#: pid offset for service-span processes in a merged trace, so real OS
#: pids can never collide with core pids 0..num_cores (metrics track)
_SERVICE_PID_BASE = 100000


def _span_events(spans, t0):
    """Chrome events for service span records, one process per OS pid.

    Timestamps are ``(start_s - t0)`` seconds presented as microseconds;
    *t0* is the merged trace's origin (the earliest instant anywhere in
    the file), so span tracks and anchored core timelines share an axis.
    """
    out = []
    seen_pids = []
    by_pid = {}
    for record in spans:
        if record.get("end_s") is None:
            continue
        by_pid.setdefault(record.get("pid", 0), []).append(record)
    for os_pid in sorted(by_pid):
        pid = _SERVICE_PID_BASE + os_pid
        if os_pid not in seen_pids:
            seen_pids.append(os_pid)
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": "service pid %d" % os_pid},
            })
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
                "args": {"name": "spans"},
            })
        track = []
        for record in by_pid[os_pid]:
            ts = (record["start_s"] - t0) * 1e6
            dur = max((record["end_s"] - record["start_s"]) * 1e6, 0.001)
            args = {"trace_id": record["trace_id"],
                    "span_id": record["span_id"]}
            if record.get("parent_id"):
                args["parent_id"] = record["parent_id"]
            for key, value in (record.get("tags") or {}).items():
                args[str(key)] = value
            track.append((ts, -dur, {
                "ph": "X", "name": record["name"], "cat": "service",
                "pid": pid, "tid": 0, "ts": round(ts, 3),
                "dur": round(dur, 3), "args": args,
            }))
        # sort by start, longest-first on ties, so containment nests
        track.sort(key=lambda item: (item[0], item[1]))
        out.extend(item[2] for item in track)
    return out


def merged_chrome_trace(machine, spans, clock=None):
    """One Perfetto file holding service spans AND the core timelines.

    *spans* are span records (``SpanRecorder`` dicts); *clock* is the
    :func:`repro.observe.spans.clock_anchor` of the machine's run, used
    to place cycle-stamped core events on the spans' wall-clock axis:
    cycle ``c`` lands at ``anchor + c * wall/cycles`` — an affine map
    that preserves order and containment, so every core event falls
    inside the "run" span that produced it.  Without *clock* (or a
    machine) the file holds the spans alone.

    The merged file is a superset presentation: the core half is the
    ordinary :func:`chrome_trace` output with remapped timestamps, the
    service half is span tracks per OS pid.
    """
    finished = [r for r in spans if r.get("end_s") is not None]
    t0 = min((r["start_s"] for r in finished), default=None)
    if clock is not None:
        t0 = clock["start_s"] if t0 is None else min(t0, clock["start_s"])
    if t0 is None:
        t0 = 0.0
    out = list(_span_events(finished, t0))
    core = None
    if machine is not None and clock is not None:
        core = chrome_trace(machine)
        offset_us = (clock["start_s"] - t0) * 1e6
        scale = (clock["wall_s"] / clock["cycles"]) if clock["cycles"] else 0.0
        scale_us = scale * 1e6
        for event in core["traceEvents"]:
            if "ts" in event:
                event["ts"] = round(offset_us + event["ts"] * scale_us, 3)
            if "dur" in event:
                event["dur"] = round(max(event["dur"] * scale_us, 0.001), 3)
        out.extend(core["traceEvents"])
    data = {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.observe",
            "merged": True,
            "spans": len(finished),
            "clock": dict(clock) if clock is not None else None,
        },
    }
    if core is not None:
        for key in ("cycles", "num_cores", "harts_per_core"):
            data["otherData"][key] = core["otherData"][key]
    return data


def shared_clock_errors(data):
    """Check the merged file's shared-clock claim; [] means it holds.

    Every core/metrics event (pid below the service base) must land
    inside some service "run" span's [ts, ts+dur] interval — the affine
    cycle→wall map is anchored to the run, so containment is exactly
    what "shared clock" means in the merged view.
    """
    errors = []
    runs = [event for event in data.get("traceEvents", ())
            if event.get("cat") == "service" and event.get("name") == "run"]
    if not runs:
        return ["merged trace has no service 'run' span"]
    epsilon = 0.5  # µs of rounding slack
    intervals = [(event["ts"] - epsilon,
                  event["ts"] + event.get("dur", 0) + epsilon)
                 for event in runs]
    for position, event in enumerate(data["traceEvents"]):
        if event.get("ph") == "M" or "ts" not in event:
            continue
        if event.get("pid", 0) >= _SERVICE_PID_BASE:
            continue
        ts = event["ts"]
        end = ts + event.get("dur", 0)
        if not any(lo <= ts and end <= hi for lo, hi in intervals):
            errors.append(
                "traceEvents[%d]: core event %r at ts=%r escapes every "
                "run span" % (position, event.get("name"), ts))
    return errors


def validate_chrome_trace(data):
    """Schema check; returns a list of error strings (empty = valid).

    Checks the required keys per event phase and that timestamps are
    monotonically non-decreasing within each (pid, tid) track — exactly
    what the exporter guarantees and the CI observe job enforces.
    """
    errors = []
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["top level must be a dict with a 'traceEvents' list"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    last_ts = {}
    for position, event in enumerate(events):
        where = "traceEvents[%d]" % position
        if not isinstance(event, dict):
            errors.append("%s: not an object" % where)
            continue
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                errors.append("%s: missing required key %r" % (where, key))
        ph = event.get("ph")
        if ph not in ("M", "X", "i", "C", "B", "E"):
            errors.append("%s: unknown phase %r" % (where, ph))
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append("%s: 'ts' must be a non-negative number" % where)
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    "%s: 'X' events need a non-negative 'dur'" % where)
        track = (event.get("pid"), event.get("tid"))
        previous = last_ts.get(track)
        if previous is not None and ts < previous:
            errors.append(
                "%s: ts %r goes backward on track pid=%r tid=%r (last %r)"
                % (where, ts, track[0], track[1], previous))
        else:
            last_ts[track] = ts
    return errors


def write_chrome_trace(machine, path, spans=None, clock=None):
    """Export, validate and write; returns the number of trace events.

    Without *spans*/*clock* this is the PR 5 core-timeline export,
    byte-for-byte.  With them it writes the merged service+core file
    (see :func:`merged_chrome_trace`); *machine* may then be None for a
    spans-only file.
    """
    if spans is None and clock is None:
        data = chrome_trace(machine)
    else:
        data = merged_chrome_trace(machine, spans or [], clock)
    errors = validate_chrome_trace(data)
    if errors:
        raise ValueError(
            "exported trace fails its own schema: " + "; ".join(errors[:5]))
    with open(path, "w") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return len(data["traceEvents"])
