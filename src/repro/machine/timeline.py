"""ASCII timeline of hart activity — the paper's figure 3, observed.

Builds, from a machine's event trace, one lane per hart showing when it
was started (fork/join), what protocol events it emitted, and when it
ended.  Useful both for debugging team protocols and for *seeing* the
diagonal team-expansion pattern of Deterministic OpenMP:

    hart  0 F======================================JR=====X
    hart  1  s====E
    hart  2   s====E
    ...

Legend: ``F`` boot/fork origin, ``s`` started, ``E`` ended, ``J`` join
received, ``R`` resumed, ``X`` exit.
"""

from repro import memmap

#: the trace kinds a lane is built from: all :func:`build_lanes` reads,
#: and all ``repro run --perfetto`` records unless ``--trace`` asks for more
LANE_KINDS = ("start", "join", "p_ret", "fork")


class HartLane:
    __slots__ = ("gid", "intervals", "marks")

    def __init__(self, gid):
        self.gid = gid
        self.intervals = []   # (begin, end) activity spans
        self.marks = []       # (cycle, char)


def build_lanes(trace_events, num_harts):
    """Derive per-hart activity lanes from a trace event list."""
    lanes = [HartLane(gid) for gid in range(num_harts)]
    open_since = {}

    def gid_of(core, hart):
        return core * memmap.HARTS_PER_CORE + hart

    open_since[0] = 0  # the boot hart runs from cycle 0
    lanes[0].marks.append((0, "F"))

    for cycle, core, hart, kind, args in trace_events:
        gid = gid_of(core, hart)
        if kind == "start":
            open_since.setdefault(gid, cycle)
            lanes[gid].marks.append((cycle, "s"))
        elif kind == "join":
            lanes[gid].marks.append((cycle, "J"))
            open_since.setdefault(gid, cycle)
        elif kind == "p_ret":
            begin = open_since.pop(gid, cycle)
            lanes[gid].intervals.append((begin, cycle))
            lanes[gid].marks.append(
                (cycle, {"exit": "X", "wait": "W", "end": "E",
                         "join": "E"}.get(args, "E")))
        elif kind == "fork":
            lanes[gid].marks.append((cycle, "f"))
    last = max((e[0] for e in trace_events), default=0)
    for gid, begin in open_since.items():
        lanes[gid].intervals.append((begin, last))
    return lanes, last


def render(trace_events, num_harts, width=72):
    """Render the timeline as text lines."""
    lanes, last = build_lanes(trace_events, num_harts)
    span = max(last, 1)
    scale = (width - 1) / span

    def col(cycle):
        return min(width - 1, int(cycle * scale))

    lines = ["cycles 0..%d, one column ~ %.0f cycles" % (last, 1 / scale if scale else 0)]
    for lane in lanes:
        if not lane.intervals and not lane.marks:
            continue
        row = [" "] * width
        for begin, end in lane.intervals:
            for position in range(col(begin), col(end) + 1):
                row[position] = "="
        for cycle, char in lane.marks:
            row[col(cycle)] = char
        lines.append("hart %3d |%s|" % (lane.gid, "".join(row)))
    return lines


def print_timeline(machine, width=72):
    """Convenience: render a finished machine's trace (must be enabled)."""
    for line in render(machine.trace.events, machine.params.num_harts, width):
        print(line)
