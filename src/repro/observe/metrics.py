"""Zero-perturbation telemetry: stall attribution + windowed sampling.

Observation discipline (the PR-4 sanitizer argument, applied again):
every hook in this module only *reads* simulator state and only *writes*
telemetry-owned per-core slots.  No hook posts an event, reserves a port
or link slot, advances a sequence counter, or touches rename/ROB/stat
state — so enabling metrics cannot move a single simulated event, and
golden trace digests are bit-exact with telemetry on or off.

Accounting model: each core offers one commit slot per cycle, so a run of
C cycles on N cores has N*C *stage-cycles*.  Every (core, cycle) pair is
charged exactly once — either a retirement (already counted by
``HartStats.retired``) or one stall reason from :data:`STALL_REASONS` —
which yields the closed identity::

    sum(stall cycles) + retired  ==  num_cores * cycles

Partitionability: all counters live in per-core :class:`CoreTelemetry`
slots (the ``CoreCounters`` pattern from ``machine/stats.py``), each
written only by its owning domain, so the space-sharded engine gathers
telemetry by concatenation and shards=1 vs N reports are byte-identical.
"""

from repro.machine.core import _ORDER
from repro.machine.router import reply_path, request_path

# re-derive the instruction-class ints the classifier dispatches on (the
# same pre-bound-int trick machine/core.py uses)
from repro.isa.spec import InstrClass as _C

_LOAD = int(_C.LOAD)
_STORE = int(_C.STORE)
_P_FC = int(_C.P_FC)
_P_FN = int(_C.P_FN)
_P_SWCV = int(_C.P_SWCV)
_P_LWCV = int(_C.P_LWCV)
_P_SWRE = int(_C.P_SWRE)
_P_LWRE = int(_C.P_LWRE)
_P_SYNCM = int(_C.P_SYNCM)

#: the stall taxonomy (DESIGN.md §9); order is the on-disk layout of the
#: per-core counter vectors — append, never reorder
STALL_REASONS = (
    "fetch_starved",      # no hart of the core holds a decoded instruction
    "operand_wait",       # commit head still waits for producer values
    "issue_wait",         # head ready but lost arbitration / wb buffer busy
    "exec_wait",          # issued, executing (multi-cycle ALU latency)
    "local_mem_wait",     # waiting on a local/own-bank access
    "remote_mem_wait",    # remote access within its uncontended latency
    "router_backpressure",  # remote access past its uncontended latency
    "re_line_wait",       # p_lwre empty / p_swre slot-occupied parking
    "fork_wait",          # p_fc/p_fn waiting for a free hart / fork token
    "barrier_wait",       # p_ret ordered-release: predecessor not done
    "gated_idle",         # core gated off (no pipeline work at all)
)

NUM_REASONS = len(STALL_REASONS)

_FETCH_STARVED = STALL_REASONS.index("fetch_starved")
_OPERAND_WAIT = STALL_REASONS.index("operand_wait")
_ISSUE_WAIT = STALL_REASONS.index("issue_wait")
_EXEC_WAIT = STALL_REASONS.index("exec_wait")
_LOCAL_MEM_WAIT = STALL_REASONS.index("local_mem_wait")
_REMOTE_MEM_WAIT = STALL_REASONS.index("remote_mem_wait")
_ROUTER_BACKPRESSURE = STALL_REASONS.index("router_backpressure")
_RE_LINE_WAIT = STALL_REASONS.index("re_line_wait")
_FORK_WAIT = STALL_REASONS.index("fork_wait")
_BARRIER_WAIT = STALL_REASONS.index("barrier_wait")
_GATED_IDLE = STALL_REASONS.index("gated_idle")

#: default sampling window, in cycles
DEFAULT_INTERVAL = 4096


class CoreTelemetry:
    """One core's telemetry slot — written only by its owning domain."""

    __slots__ = (
        "stalls", "link_wait", "remote_inflight",
        "base_retired", "base_local", "base_remote", "base_link_wait",
        "base_stalls", "samples",
    )

    def __init__(self, harts_per_core):
        #: cumulative stall cycles, indexed like STALL_REASONS
        self.stalls = [0] * NUM_REASONS
        #: cumulative link-reservation delay cycles (router queueing seen
        #: by paths this core initiated; informational, not a stage-cycle)
        self.link_wait = 0
        #: {gid: [uncontended completion eta, ...]} for in-flight remote
        #: accesses — the remote_mem_wait / router_backpressure split
        self.remote_inflight = {}
        # window-base snapshots (deltas against these build each sample)
        self.base_retired = [0] * harts_per_core
        self.base_local = 0
        self.base_remote = 0
        self.base_link_wait = 0
        self.base_stalls = [0] * NUM_REASONS
        #: closed windows: [window, retired, active_harts, local, remote,
        #: link_wait, [stall deltas]] rows, appended in window order
        self.samples = []

    def state_dict(self):
        """JSON-safe (lists + string-free int keys as pairs) plain data."""
        return {
            "stalls": list(self.stalls),
            "link_wait": self.link_wait,
            "remote_inflight": [
                [gid, list(etas)]
                for gid, etas in sorted(self.remote_inflight.items())
            ],
            "base_retired": list(self.base_retired),
            "base_local": self.base_local,
            "base_remote": self.base_remote,
            "base_link_wait": self.base_link_wait,
            "base_stalls": list(self.base_stalls),
            "samples": [
                [row[0], row[1], row[2], row[3], row[4], row[5], list(row[6])]
                for row in self.samples
            ],
        }

    def load_state_dict(self, state):
        self.stalls = list(state["stalls"])
        self.link_wait = state["link_wait"]
        self.remote_inflight = {
            gid: list(etas) for gid, etas in state["remote_inflight"]
        }
        self.base_retired = list(state["base_retired"])
        self.base_local = state["base_local"]
        self.base_remote = state["base_remote"]
        self.base_link_wait = state["base_link_wait"]
        self.base_stalls = list(state["base_stalls"])
        self.samples = [
            [row[0], row[1], row[2], row[3], row[4], row[5], list(row[6])]
            for row in state["samples"]
        ]


class Metrics:
    """Stall attribution + windowed sampler for one machine.

    Construct with ``LBP(params, metrics=Metrics(interval=K))`` (or
    ``metrics=True`` / ``metrics=K`` for the shorthand forms); read the
    results with :meth:`repro.machine.LBP.metrics_report`.
    """

    def __init__(self, interval=DEFAULT_INTERVAL):
        interval = int(interval)
        if interval < 1:
            raise ValueError("metrics interval must be >= 1, got %d" % interval)
        self.interval = interval
        self._machine = None
        self._slots = []
        #: next window edge per core, read on the tick hot path (a plain
        #: list lookup gates the roll call)
        self.edges = []
        self._rtt = {}

    # ---- lifecycle ----------------------------------------------------------

    def bind(self, machine):
        """Attach to *machine* (called by LBP.__init__ / load_state_dict)."""
        self._machine = machine
        num_cores = machine.params.num_cores
        if not self._slots:
            hpc = machine.params.harts_per_core
            self._slots = [CoreTelemetry(hpc) for _ in range(num_cores)]
            self.edges = [self.interval] * num_cores
        return self

    @property
    def slots(self):
        return self._slots

    # ---- snapshot/restore ----------------------------------------------------

    def state_dict(self):
        return {
            "interval": self.interval,
            "edges": list(self.edges),
            "slots": [slot.state_dict() for slot in self._slots],
        }

    def load_state_dict(self, state):
        self.interval = state["interval"]
        self.edges = list(state["edges"])
        hpc = self._machine.params.harts_per_core if self._machine else 4
        self._slots = []
        for slot_state in state["slots"]:
            slot = CoreTelemetry(hpc)
            slot.load_state_dict(slot_state)
            self._slots.append(slot)

    def domain_state_dict(self, index):
        """One core's slice (shard gathering)."""
        return {
            "edge": self.edges[index],
            "slot": self._slots[index].state_dict(),
        }

    def load_domain_state_dict(self, index, state):
        self.edges[index] = state["edge"]
        self._slots[index].load_state_dict(state["slot"])

    # ---- window sampling -----------------------------------------------------

    def _emit(self, index, slot, edge):
        """Close the window ending at *edge* for core *index*."""
        stats = self._machine.stats
        harts = stats.harts[index]
        counters = stats.per_core[index]
        base = slot.base_retired
        retired = [h.retired for h in harts]
        deltas = [now - before for now, before in zip(retired, base)]
        stall_deltas = [
            now - before for now, before in zip(slot.stalls, slot.base_stalls)
        ]
        slot.samples.append([
            edge // self.interval - 1,
            sum(deltas),
            sum(1 for d in deltas if d),
            counters.local_accesses - slot.base_local,
            counters.remote_accesses - slot.base_remote,
            slot.link_wait - slot.base_link_wait,
            stall_deltas,
        ])
        slot.base_retired = retired
        slot.base_local = counters.local_accesses
        slot.base_remote = counters.remote_accesses
        slot.base_link_wait = slot.link_wait
        slot.base_stalls = list(slot.stalls)

    def roll(self, index, cycle):
        """Close every window ending at or before *cycle* (exclusive of
        the charges *cycle* itself is about to make)."""
        edges = self.edges
        interval = self.interval
        slot = self._slots[index]
        edge = edges[index]
        while edge <= cycle:
            self._emit(index, slot, edge)
            edge += interval
        edges[index] = edge

    def _partial_row(self, index, up_to):
        """The still-open trailing window at cycle *up_to* (not recorded:
        report-time only, so reporting never mutates telemetry state)."""
        slot = self._slots[index]
        edge = self.edges[index]
        begin = edge - self.interval
        if up_to <= begin:
            return None
        stats = self._machine.stats
        base = slot.base_retired
        deltas = [
            h.retired - before
            for h, before in zip(stats.harts[index], base)
        ]
        counters = stats.per_core[index]
        return [
            edge // self.interval - 1,
            sum(deltas),
            sum(1 for d in deltas if d),
            counters.local_accesses - slot.base_local,
            counters.remote_accesses - slot.base_remote,
            slot.link_wait - slot.base_link_wait,
            [
                now - before
                for now, before in zip(slot.stalls, slot.base_stalls)
            ],
        ]

    def core_rows(self, index, up_to):
        """Closed windows plus the trailing partial one, for core *index*."""
        rows = list(self._slots[index].samples)
        partial = self._partial_row(index, up_to)
        if partial is not None:
            rows.append(partial)
        return rows

    # ---- charge hooks (observation only) -------------------------------------

    def idle(self, index, cycle, delta):
        """Charge *delta* gated-idle cycles starting at *cycle*.

        Splits the bulk charge at window edges, so a fast-forwarded span
        produces the same samples whether it was skipped in one hop, in
        epoch-clipped chunks (the sharded engine), or cycle by cycle.
        """
        interval = self.interval
        edges = self.edges
        slot = self._slots[index]
        stalls = slot.stalls
        end = cycle + delta
        edge = edges[index]
        while edge <= end:
            if edge > cycle:
                stalls[_GATED_IDLE] += edge - cycle
                cycle = edge
            self._emit(index, slot, edge)
            edge += interval
            edges[index] = edge
        if end > cycle:
            stalls[_GATED_IDLE] += end - cycle

    def stall(self, core, cycle):
        """Charge the one non-retiring stage-cycle of *core* at *cycle*."""
        slot = self._slots[core.index]
        slot.stalls[self._classify(core, cycle, slot)] += 1

    def link_wait(self, index, delay):
        """Router queueing: a path reservation by core *index* was pushed
        *delay* cycles past its uncontended arrival."""
        self._slots[index].link_wait += delay

    def remote_issue(self, index, gid, now, owner):
        """Hart *gid* issued a remote access; *owner* is the destination
        core (None = the forward-link CV write to the next core)."""
        if owner is None:
            params = self._machine.params
            eta = now + 2 * params.link_hop_latency + params.cv_write_latency + 1
        else:
            eta = now + self._remote_rtt(index, owner)
        fifos = self._slots[index].remote_inflight
        fifo = fifos.get(gid)
        if fifo is None:
            fifos[gid] = [eta]
        else:
            fifo.append(eta)

    def remote_done(self, index, gid):
        """The oldest in-flight remote access of hart *gid* completed."""
        fifo = self._slots[index].remote_inflight.get(gid)
        if fifo:
            # tolerate an empty FIFO: a machine resumed from a snapshot
            # taken without metrics has untracked in-flight accesses
            fifo.pop(0)

    def _remote_rtt(self, src, owner):
        """Uncontended round-trip latency src -> owner's bank -> src."""
        rtt = self._rtt.get((src, owner))
        if rtt is None:
            params = self._machine.params
            hops = len(request_path(src, owner)) + len(reply_path(src, owner))
            rtt = hops * params.link_hop_latency + params.bank_access_latency + 1
            self._rtt[(src, owner)] = rtt
        return rtt

    # ---- the classifier ------------------------------------------------------

    def _mem_reason(self, slot, hart, cycle):
        fifo = slot.remote_inflight.get(hart.gid)
        if fifo:
            # past the uncontended eta means contention held it up
            return _ROUTER_BACKPRESSURE if cycle >= fifo[0] else _REMOTE_MEM_WAIT
        return _LOCAL_MEM_WAIT

    def _classify(self, core, cycle, slot):
        """One reason for a busy core that did not commit this cycle.

        The representative is the first hart, in this cycle's commit
        scan order, that holds a ROB head — the instruction the commit
        stage actually looked at and rejected.
        """
        rep = None
        for h in _ORDER[core._rr_commit]:
            hart = core.harts[h]
            if hart.rob:
                rep = hart
                break
        if rep is None:
            return _FETCH_STARVED
        head = rep.rob[0]
        if head.ret_action is not None and head.done:
            # p_ret held at the ordered-release barrier: predecessor's
            # ending signal pending, or own stores still in flight
            if rep.pred is not None and not rep.pred_done:
                return _BARRIER_WAIT
            if rep.outstanding_mem:
                return self._mem_reason(slot, rep, cycle)
            return _BARRIER_WAIT
        entry = None
        for candidate in rep.it:
            if candidate is head:
                entry = candidate
                break
        cls = head.low.cls
        if entry is not None:
            # head not yet issued
            if entry.nwaits:
                return _OPERAND_WAIT
            if cls == _P_LWRE:
                return _RE_LINE_WAIT
            if cls == _P_FC or cls == _P_FN:
                return _FORK_WAIT
            if (cls == _LOAD or cls == _STORE or cls == _P_LWCV
                    or cls == _P_SWCV or cls == _P_SYNCM):
                return self._mem_reason(slot, rep, cycle)
            return _ISSUE_WAIT
        # issued; completion in flight
        if cls == _LOAD or cls == _STORE or cls == _P_LWCV or cls == _P_SWCV:
            return self._mem_reason(slot, rep, cycle)
        if cls == _P_SWRE:
            return _RE_LINE_WAIT
        return _EXEC_WAIT
