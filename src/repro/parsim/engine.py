"""The space-sharded cycle-accurate engine.

Model
-----

The core line is split into contiguous shards; one forked worker process
per shard runs the ordinary event-descriptor machine
(:mod:`repro.machine.processor`) over its own cores, banks, ports and
egress link cursors.  Workers advance in lock-step **epochs** of
:data:`EPOCH_WIDTH` cycles and exchange cross-shard event descriptors at
every epoch boundary over a full mesh of pipes.

Why the epoch width is safe (conservative lookahead): every cross-core
interaction is an event posted for at least two cycles in the future —
a remote memory request crosses >= 2 router links (1 cycle each), the
forward/backward neighbour lines add one hop plus one delivery cycle,
continuation-value writes add ``cv_write_latency`` on top of the hop,
and the ``re_ack`` / halt broadcasts use fixed >= 2-cycle latencies.  So
while a worker simulates cycles ``[E, E+2)``, no peer can post an event
it would need before cycle ``E+2`` — the next barrier.  The engine
asserts this invariant on every message it ships.

Determinism: event keys ``(cycle, origin, oseq, dst, kind, args)`` are
computed from the *posting domain's* own counter, so they are identical
no matter which process runs the posting core; each worker's event heap
pops in exactly the order the single-process heap would pop the same
subset, and the merged trace (per-domain buffers, merged by ``(cycle,
domain)``) is byte-identical by construction.  Halts, errors, deadlock
and cycle-limit decisions are reduced to min-key form, exchanged in the
per-epoch status record, and re-decided *identically* by every worker —
there is no coordinator making scheduling choices.

Message batch format (one frame per peer per barrier)::

    (status, events)
    status = (cycle, halt_key, halt_reason, error_key, error,
              active_cores, heap_min, heap_size, outbox_min,
              outbox_count, retired, seq_sum, horizon)
    events = [(cycle, origin, oseq, dst, kind, args), ...]

frames are ``marshal`` payloads behind a 4-byte big-endian length on the
mesh pipe; the epoch's events ship as the raw heap tuples in one payload
per (peer, epoch) — ``marshal`` round-trips nested tuples exactly, so the
receiver pushes them onto its heap without any per-message re-encoding.

Epoch fast-forward: each status publishes a *horizon* — the earliest
cycle at which any cross-shard event that shard might emit could land
(and the earliest a halt/error election it might raise could take
effect).  An active shard can act one lookahead out, so it publishes
``cycle + EPOCH_WIDTH``; a fully idle shard acts no earlier than its
next pending event ``e``, and every consequence of handling ``e`` — a
send, a woken core's first tick, a halt — lands at ``>= e +
EPOCH_WIDTH``.  The merged horizon minimum therefore bounds, from below,
the first cycle at which *new* cross-shard influence can appear, and
every worker (computing the identical minimum from the identical merged
statuses) widens its next epoch to exactly that cycle — skipping the
intervening barriers entirely, with no coordinator and no change to the
min-key elections.  An event landing exactly on the horizon is merged by
the barrier *at* the horizon, before any worker simulates that cycle.

Snapshots: at a snapshot trigger (and at every run-ending decision) the
workers ship ``core_state_dict()`` slices of their owned domains to the
parent, which loads them into its master machine — a plain
:class:`~repro.machine.processor.LBP` — so an ``.lbpsnap`` written from
a sharded run is indistinguishable from a single-process one and can be
resumed under any shard count.
"""

import contextlib
import heapq
import marshal
import os
import select
import struct
import time

from repro.machine.processor import (
    HALT_LATENCY,
    MAX_CYCLES,
    DeadlockError,
    LBP,
    MachineError,
    check_shards,
)

#: conservative lookahead, in cycles: the minimum latency of any
#: cross-core interaction (see the module docstring for the derivation).
#: Workers simulate epochs of this width between barriers.
EPOCH_WIDTH = 2

# a halt would otherwise take effect before the barrier that merges it
assert HALT_LATENCY >= EPOCH_WIDTH

#: livelock/progress probe period, matching the sequential run loop
_PROGRESS_PERIOD = 4096

_FRAME = struct.Struct(">I")


def choose_transport():
    # the pipe mesh is the only transport; bench/run.py's context line asks
    return "pipe"


def partition_cores(num_cores, shards):
    """Contiguous, balanced shard ranges: ``[(start, stop), ...]``.

    The first ``num_cores % shards`` shards take one extra core, so a
    16-core machine under 4 shards yields (0,4) (4,8) (8,12) (12,16).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1, got %d" % shards)
    if shards > num_cores:
        raise ValueError(
            "cannot cut %d core(s) into %d shard(s)" % (num_cores, shards))
    base, extra = divmod(num_cores, shards)
    bounds = []
    start = 0
    for shard in range(shards):
        stop = start + base + (1 if shard < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# ---- framed marshal transport ------------------------------------------------


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send_blob(fd, blob):
    _write_all(fd, _FRAME.pack(len(blob)) + blob)


def _send(fd, payload):
    _send_blob(fd, marshal.dumps(payload))


def _read_exact(fd, size):
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError("peer closed the pipe mid-frame")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _recv(fd):
    (size,) = _FRAME.unpack(_read_exact(fd, _FRAME.size))
    return marshal.loads(_read_exact(fd, size))


# ---- worker ------------------------------------------------------------------


class _Worker:
    """One shard's run loop (executes in the forked child)."""

    def __init__(self, machine, shard, bounds, peer_send, peer_recv,
                 to_parent, from_parent, span_ctx=None):
        self.machine = machine
        self.shard = shard
        self.bounds = bounds
        self.owned = list(range(*bounds[shard]))
        self.cores = [machine.cores[index] for index in self.owned]
        #: core index -> owning shard, for routing outbox messages
        self.owner_of = {}
        for index, (start, stop) in enumerate(bounds):
            for core in range(start, stop):
                self.owner_of[core] = index
        self.peers = [s for s in range(len(bounds)) if s != shard]
        self.peer_send = peer_send    # {shard: write fd}
        self.peer_recv = peer_recv    # {shard: read fd}
        self.to_parent = to_parent
        self.from_parent = from_parent
        # merged-at-last-barrier global view (progress/livelock probe)
        self.global_mark = None
        self.global_events = 0
        #: merged min of the horizons every shard published at the last
        #: barrier: no cross-shard event can land, and no halt/error
        #: election can take effect, before this cycle — so the next
        #: epoch may widen to it.  None until the first merge (and when
        #: nothing anywhere bounds the future: all-idle, empty heaps).
        self.ff_barrier = None
        # transport/scheduling telemetry (wall-clock; lives outside the
        # deterministic machine state — see ShardedLBP.transport_stats)
        self.epochs = 0
        self.ff_epochs = 0
        self.ff_cycles = 0
        self.epoch_wait_s = 0.0
        # optional span recording (observability only — the ring keeps
        # the *last* N epoch spans; drained over the final gather frame
        # and merged by the coordinator).  None keeps the barrier path
        # span-free: the disabled cost is one attribute test per epoch.
        self.span_ctx = span_ctx
        if span_ctx is not None:
            from repro.observe.spans import SpanRecorder

            self.spans = SpanRecorder()
        else:
            self.spans = None

    # -- pieces ---------------------------------------------------------------

    def _barrier(self, cycle):
        """Exchange outbox + status with every peer; merge; return stats.

        Returns ``(global_active, global_next)`` where *global_next* is
        the earliest pending activity (event delivery) anywhere, or None.
        """
        t0 = time.perf_counter()
        spans = self.spans
        if spans is not None:
            wait_span = spans.start("epoch_wait", parent=self.span_ctx,
                                    tags={"shard": self.shard,
                                          "cycle": cycle})
            send_span = spans.start("epoch_send", parent=wait_span,
                                    tags={"shard": self.shard})
        machine = self.machine
        outbox = machine._outbox
        machine._outbox = []
        for event in outbox:
            # lookahead invariant: nothing ships that a peer already needed
            assert event[0] >= cycle, (event, cycle)
        status = self._status(cycle, outbox)
        statuses = [None] * len(self.bounds)
        statuses[self.shard] = status
        # the no-traffic frame is identical for every peer: marshal once
        empty = None
        for peer in self.peers:
            # one serialized payload per (peer, epoch): the raw event
            # tuples go straight into the frame (marshal preserves
            # nested tuples), so per-event conversion cost is zero
            batch = [
                event for event in outbox
                if self.owner_of[event[3]] == peer
            ]
            if batch:
                blob = marshal.dumps((status, batch))
            else:
                if empty is None:
                    empty = marshal.dumps((status, []))
                blob = empty
            _send_blob(self.peer_send[peer], blob)
        if spans is not None:
            send_span.finish(events=len(outbox))
            recv_span = spans.start("epoch_recv", parent=wait_span,
                                    tags={"shard": self.shard})
        events = machine._events
        heappush = heapq.heappush
        for peer in self.peers:
            peer_status, batch = _recv(self.peer_recv[peer])
            statuses[peer] = peer_status
            for event in batch:
                heappush(events, event)
        if spans is not None:
            recv_span.finish()
        merged = self._merge(statuses)
        self.epochs += 1
        self.epoch_wait_s += time.perf_counter() - t0
        if spans is not None:
            wait_span.finish()
        return merged

    def _status(self, cycle, outbox):
        machine = self.machine
        events = machine._events
        heap_min = events[0][0] if events else None
        outbox_min = min(ev[0] for ev in outbox) if outbox else None
        retired = sum(
            h.retired for i in self.owned for h in machine.stats.harts[i])
        seq_sum = sum(machine.cores[i]._seq for i in self.owned)
        # the horizon this shard promises: the earliest cycle at which
        # any cross-shard event it might emit could *land* at a peer (and
        # the earliest a halt/error it might raise could take effect).
        # An active core can act next cycle, so the promise is only the
        # conservative lookahead; a fully idle shard acts no earlier
        # than its next pending event, and anything that handling event
        # triggers — a send, a woken core's first tick, a halt — lands
        # EPOCH_WIDTH after it.  None means "I promise nothing ever"
        # (idle, empty heap, empty outbox): an unbounded horizon.
        if machine._num_active > 0:
            horizon = cycle + EPOCH_WIDTH
        else:
            local_next = heap_min
            if outbox_min is not None and (local_next is None
                                           or outbox_min < local_next):
                local_next = outbox_min
            horizon = None if local_next is None else local_next + EPOCH_WIDTH
        return (
            cycle,
            None if machine._halt_key is None else list(machine._halt_key),
            machine.halt_reason,
            None if machine._error_key is None else list(machine._error_key),
            machine._error,
            machine._num_active,
            heap_min,
            len(events),
            outbox_min,
            len(outbox),
            retired,
            seq_sum,
            horizon,
        )

    def _merge(self, statuses):
        """Fold the statuses into this worker's machine — identically
        recomputed by every worker, so all global decisions agree."""
        machine = self.machine
        halt_best = None
        error_best = None
        active = 0
        nxt = None
        pending = 0
        retired = 0
        seq_sum = 0
        ff = None
        for status in statuses:
            (cycle, halt_key, halt_reason, error_key, error, num_active,
             heap_min, heap_size, outbox_min, outbox_count,
             st_retired, st_seq, horizon) = status
            if horizon is not None and (ff is None or horizon < ff):
                ff = horizon
            if halt_key is not None:
                key = tuple(halt_key)
                if halt_best is None or key < halt_best[0]:
                    halt_best = (key, halt_reason)
            if error_key is not None:
                key = tuple(error_key)
                if error_best is None or key < error_best[0]:
                    error_best = (key, error)
            active += num_active
            for candidate in (heap_min, outbox_min):
                if candidate is not None and (nxt is None or candidate < nxt):
                    nxt = candidate
            pending += heap_size + outbox_count
            retired += st_retired
            seq_sum += st_seq
        if halt_best is not None:
            machine._halt_key = halt_best[0]
            machine._halt_at = halt_best[0][0]
            machine.halt_reason = halt_best[1]
        if error_best is not None:
            machine._error_key = error_best[0]
            machine._error = error_best[1]
        self.global_mark = (retired, seq_sum)
        self.global_events = pending
        # the published-horizon minimum (None == every horizon was
        # unbounded).  If any shard still has active cores its horizon
        # is only one lookahead out, so this degenerates to the plain
        # EPOCH_WIDTH epoch; only when the whole machine is event-bound
        # can the next epoch widen.
        self.ff_barrier = ff
        return active, nxt

    def _transport_stats(self):
        """Wall-clock transport/scheduling telemetry for this shard.

        Deliberately *not* part of any machine state or report: wall
        times are nondeterministic, and the deterministic surfaces
        (stats, metrics reports, snapshots) must stay byte-identical
        across shard counts.  This rides the final gather frame only,
        surfacing as ``ShardedLBP.transport_stats``.
        """
        return {
            "shard": self.shard,
            "epochs": self.epochs,
            "ff_epochs": self.ff_epochs,
            "ff_cycles": self.ff_cycles,
            "epoch_wait_s": round(self.epoch_wait_s, 6),
        }

    def _gather_payload(self, cycle):
        machine = self.machine
        # the slices carry per-core idle counters, charged lazily: close
        # the gated cores' spans up to *cycle* (the next to simulate)
        machine._settle_idle(self.cores, cycle)
        return {
            "cores": [
                [index, machine.core_state_dict(index)]
                for index in self.owned
            ],
            "halt_key": (None if machine._halt_key is None
                         else list(machine._halt_key)),
            "halt_reason": machine.halt_reason,
            "error_key": (None if machine._error_key is None
                          else list(machine._error_key)),
            "error": machine._error,
        }

    # -- the loop --------------------------------------------------------------

    def run(self, max_cycles, stop_at_cycle, snapshot_every, want_snapshots,
            profile=False):
        # *max_cycles* arrives resolved: the coordinator applied the default
        with _profiled(profile, "shard 0 profile"):
            outcome, cycle = self._loop(
                max_cycles, stop_at_cycle, snapshot_every, want_snapshots)
        payload = self._gather_payload(cycle)
        payload["transport"] = self._transport_stats()
        if self.spans is not None:
            payload["spans"] = self.spans.drain()
        _send(self.to_parent,
              ("final", outcome, self.machine.cycle, payload))

    def _loop(self, limit, stop_at_cycle, snapshot_every, want_snapshots):
        machine = self.machine
        owned = self.owned
        machine._owned = set(owned)
        machine._outbox = []
        machine._events = [
            event for event in machine._events if event[3] in machine._owned]
        heapq.heapify(machine._events)
        cores = self.cores
        machine._num_active = sum(1 for core in cores if core.active)
        machine._reset_scheduling(cores)
        cycle = machine.cycle
        progress_mark = (0, 0)
        next_progress = _PROGRESS_PERIOD
        next_snapshot = None
        if snapshot_every is not None and want_snapshots:
            next_snapshot = cycle + snapshot_every

        while True:
            # -- top of epoch: symmetric decisions (identical in every
            # worker — all inputs were merged at the last barrier)
            if machine._halt_at is not None and cycle >= machine._halt_at:
                machine.cycle = machine._halt_at - 1
                machine.halted = True
                return "halt", cycle
            if stop_at_cycle is not None and cycle >= stop_at_cycle:
                machine.cycle = cycle
                return "pause", cycle
            if next_snapshot is not None and cycle >= next_snapshot:
                machine.cycle = cycle
                _send(self.to_parent,
                      ("snapshot", None, cycle, self._gather_payload(cycle)))
                if _recv(self.from_parent) != "ack":
                    raise EOFError("parent abandoned the snapshot barrier")
                next_snapshot = cycle + snapshot_every
            if cycle >= next_progress:
                if (self.global_mark is not None
                        and self.global_mark == progress_mark
                        and self.global_events == 0
                        and machine._halt_at is None):
                    machine.cycle = cycle
                    return "deadlock", cycle
                if self.global_mark is not None:
                    progress_mark = self.global_mark
                next_progress = cycle + _PROGRESS_PERIOD
            if cycle > limit:
                machine.cycle = cycle
                return "limit", cycle

            # -- simulate one epoch.  The width is EPOCH_WIDTH unless
            # the horizons merged at the last barrier prove that no
            # cross-shard event can land (and no halt/error election can
            # take effect) before a later cycle — then the epoch widens
            # to that horizon: provably-safe fast-forward, no barriers
            # in between.  Clips keep pause, snapshot and limit
            # decisions on the exact sequential cycle.
            barrier = cycle + EPOCH_WIDTH
            if self.ff_barrier is not None:
                if self.ff_barrier > barrier:
                    barrier = self.ff_barrier
            elif self.global_mark is not None and machine._halt_at is not None:
                # every horizon was unbounded: the whole machine is idle
                # with empty heaps, so the pending halt is the only
                # future — fast-forward straight to it
                if machine._halt_at > barrier:
                    barrier = machine._halt_at
            if stop_at_cycle is not None and stop_at_cycle < barrier:
                barrier = stop_at_cycle
            if next_snapshot is not None and next_snapshot < barrier:
                barrier = next_snapshot
            if limit + 1 < barrier:
                barrier = limit + 1
            if barrier > cycle + EPOCH_WIDTH:
                self.ff_epochs += 1
                self.ff_cycles += barrier - cycle - EPOCH_WIDTH
            # the sequential engine's cycle loop, over the owned cores (it
            # stops short of the barrier at a halt or a recorded error)
            cycle = machine._simulate(cycle, barrier, cores)

            # -- barrier: ship the epoch's cross-shard traffic, merge
            # coordination state, and take the symmetric global decisions
            active, global_next = self._barrier(cycle)
            if machine._error is not None:
                machine.cycle = machine._error_key[0]
                return "error", cycle
            if (active == 0 and global_next is None
                    and machine._halt_at is None):
                machine.cycle = cycle
                return "deadlock", cycle
            # (no explicit idle jump here: when active == 0 the merged
            # horizons already widen the next epoch to global_next +
            # EPOCH_WIDTH, and the cycle loop hops the gap in one step)
            machine.cycle = cycle


def _worker_main(machine, shard, bounds, peer_send, peer_recv,
                 to_parent, from_parent, run_kwargs, profile, span_ctx=None):
    worker = _Worker(machine, shard, bounds, peer_send, peer_recv,
                     to_parent, from_parent, span_ctx=span_ctx)
    worker.run(profile=profile, **run_kwargs)


@contextlib.contextmanager
def _profiled(enabled, title):
    """Run the block under cProfile and print its top-20 table (the
    ``repro run --profile --shards N`` path); a no-op unless *enabled*."""
    if not enabled:
        yield
        return
    import cProfile
    import pstats
    import sys

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        print("--- %s (top 20 by cumulative time) ---" % title)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        sys.stdout.flush()


# ---- parent-side coordinator -------------------------------------------------


def zeroed_transport_stats():
    """The ``transport_stats`` schema with every counter at zero.

    Published by degenerate (in-process, shards<=1) runs so consumers —
    ``observe.transport_table``, BENCH recorders — read one shape
    unconditionally instead of guarding on existence.
    """
    return {
        "shards": 1,
        "epoch_wait_s": 0.0,
        "epochs": 0,
        "ff_epochs": 0,
        "ff_cycles": 0,
        "per_shard": [],
    }


class ShardedLBP:
    """Space-sharded façade over a master :class:`LBP` machine.

    Same construction/run interface as ``LBP``; ``run`` forks one worker
    per shard, and every observable result — stats, trace, memory,
    snapshots — is gathered back into the master machine, which behaves
    exactly as if it had simulated the run by itself.
    """

    def __init__(self, params=None, trace=None, shards=None, master=None,
                 sanitize=False, metrics=None, backend=None):
        if shards is None:
            raise ValueError("ShardedLBP requires an explicit shard count")
        check_shards(shards)
        if master is not None:
            self.master = master
        else:
            self.master = LBP(params, trace=trace, sanitize=sanitize,
                              metrics=metrics, backend=backend)
        #: effective shard count: never more than one core per shard
        self.shards = min(shards, self.master.params.num_cores)
        #: per-shard wall-clock transport/scheduling telemetry from the
        #: last sharded run (nondeterministic by nature, so it lives
        #: here, outside every deterministic surface)
        self.transport_stats = None
        #: optional tracing: callers set ``span_ctx`` to a
        #: ``(trace_id, span_id)`` tuple before run(); the shard workers
        #: then record per-epoch wait/send/recv spans, merged back here
        #: as ``span_records`` (plain dicts, never machine state)
        self.span_ctx = None
        self.span_records = None
        #: when set, shard 0's worker — or this process, when the run
        #: turns out in-process — runs under cProfile and prints its
        #: top-20 table (``repro run --profile --shards N``)
        self.profile_shard_zero = False

    # -- façade ---------------------------------------------------------------

    def __getattr__(self, name):
        """Everything else — params, stats, trace, cores, cycle, halted,
        memory access, reports, state_dict … — is the master's: the
        gathered shard-local results make it behave exactly as if it had
        simulated the run by itself."""
        if name == "master":
            # a half-built instance (constructor raised, unpickling):
            # fail plainly instead of recursing through self.master
            raise AttributeError(name)
        return getattr(self.master, name)

    def load(self, program, start=True):
        self.master.load(program, start=start)
        return self

    def add_device(self, addr, device):
        raise MachineError(
            "the sharded engine cannot host MMIO devices: a device is an "
            "external object living in the parent process, invisible to "
            "the shard workers — run with shards=1 to attach devices"
        )

    # -- run -------------------------------------------------------------------

    def run(self, max_cycles=None, stop_at_cycle=None,
            snapshot_every=None, snapshot_callback=None):
        master = self.master
        if (self.shards <= 1
                or master.halted
                or (stop_at_cycle is not None
                    and master.cycle >= stop_at_cycle)):
            # degenerate cases: the in-process loop is the sharded run.
            # Publish a zeroed stats object with the sharded schema so
            # observe.transport_table and BENCH consumers never need an
            # existence check (no epochs were exchanged, so every
            # transport counter is honestly zero).
            self.transport_stats = zeroed_transport_stats()
            with _profiled(self.profile_shard_zero, "profile"):
                return master.run(
                    max_cycles=max_cycles, stop_at_cycle=stop_at_cycle,
                    snapshot_every=snapshot_every,
                    snapshot_callback=snapshot_callback)
        if master.mmio:
            raise MachineError(
                "the sharded engine cannot simulate machines with MMIO "
                "devices attached (%d present)" % len(master.mmio))
        return _Coordinator(self).run(
            max_cycles, stop_at_cycle, snapshot_every, snapshot_callback)


class _Coordinator:
    """Forks the workers, services gathers, applies them to the master."""

    def __init__(self, sharded):
        self.sharded = sharded
        self.master = sharded.master
        self.bounds = partition_cores(
            self.master.params.num_cores, sharded.shards)
        self.pids = []
        self.up = {}      # shard -> read fd (worker -> parent)
        self.down = {}    # shard -> write fd (parent -> worker)
        self.span_ctx = sharded.span_ctx
        self._spans = None
        self._span = None
        if self.span_ctx is not None:
            from repro.observe.spans import SpanRecorder

            self._spans = SpanRecorder()

    def run(self, max_cycles, stop_at_cycle, snapshot_every,
            snapshot_callback):
        master = self.master
        shards = len(self.bounds)
        self.limit = max_cycles if max_cycles is not None else MAX_CYCLES
        run_kwargs = {
            "max_cycles": self.limit,
            "stop_at_cycle": stop_at_cycle,
            "snapshot_every": snapshot_every,
            "want_snapshots": snapshot_callback is not None,
        }
        if self._spans is not None:
            self._span = self._spans.start(
                "shard_coordinate", parent=tuple(self.span_ctx),
                tags={"shards": shards})

        # full mesh: mesh[i][j] = (read, write) pipe carrying i -> j
        mesh = {
            i: {j: os.pipe() for j in range(shards) if j != i}
            for i in range(shards)
        }
        parent_up = {s: os.pipe() for s in range(shards)}
        parent_down = {s: os.pipe() for s in range(shards)}

        try:
            for shard in range(shards):
                pid = os.fork()
                if pid == 0:
                    self._child(shard, mesh, parent_up, parent_down,
                                run_kwargs)
                    os._exit(0)  # unreachable; _child always exits
                self.pids.append(pid)
            # parent keeps only its ends
            for i in mesh:
                for _, (r, w) in mesh[i].items():
                    os.close(r)
                    os.close(w)
            for shard in range(shards):
                r, w = parent_up[shard]
                os.close(w)
                self.up[shard] = r
                r, w = parent_down[shard]
                os.close(r)
                self.down[shard] = w

            return self._serve(snapshot_callback, stop_at_cycle)
        finally:
            if self._span is not None:
                self._span.finish()
                records = self.sharded.span_records or []
                records.extend(self._spans.drain())
                self.sharded.span_records = records
            self._cleanup()

    def _child(self, shard, mesh, parent_up, parent_down, run_kwargs):
        status = 1
        to_parent = None
        try:
            peer_send = {}
            peer_recv = {}
            for i in mesh:
                for j, (r, w) in mesh[i].items():
                    if i == shard:
                        os.close(r)
                        peer_send[j] = w
                    elif j == shard:
                        os.close(w)
                        peer_recv[i] = r
                    else:
                        os.close(r)
                        os.close(w)
            for s, (r, w) in parent_up.items():
                os.close(r)
                if s == shard:
                    to_parent = w
                else:
                    os.close(w)
            for s, (r, w) in parent_down.items():
                os.close(w)
                if s == shard:
                    from_parent = r
                else:
                    os.close(r)
            profile = self.sharded.profile_shard_zero and shard == 0
            span_ctx = self._span.ctx if self._span is not None else None
            _worker_main(self.master, shard, self.bounds, peer_send,
                         peer_recv, to_parent, from_parent, run_kwargs,
                         profile, span_ctx=span_ctx)
            status = 0
        except BaseException:
            import traceback

            traceback.print_exc()
            # flight recorder: a crashing shard spills its own last-N
            # event ring before electing the crash frame (a SIGKILLed
            # sibling can't — the coordinator spills for the fleet)
            from repro.observe.spans import flight, flight_dir

            flight().note("shard_crash", shard=shard)
            flight().spill(flight_dir(), "shard %d crashed" % shard)
            if to_parent is not None:
                try:
                    _send(to_parent, ("crash", shard, None, None))
                except OSError:
                    pass
        finally:
            os._exit(status)

    def _gather_round(self):
        """One frame from every worker, gathered concurrently.

        ``select()`` across the up-pipes rather than reading them in
        shard order: a crashed worker must be noticed even while its
        peers are stuck mid-epoch.  On the first crash frame (or EOF)
        every worker is killed before the failure is raised to the
        caller.
        """
        frames = {}
        pending = dict(self.up)
        while pending:
            ready, _, _ = select.select(list(pending.values()), [], [])
            for shard in sorted(pending):
                if pending[shard] not in ready:
                    continue
                frame = _recv_or_fail(pending.pop(shard))
                if frame[0] == "crash":
                    # crash-frame election: spill the coordinator's own
                    # flight ring (the dead worker's ring died with it)
                    from repro.observe.spans import flight, flight_dir

                    flight().note("crash_frame", shard=frame[1],
                                  shards=len(self.bounds))
                    flight().spill(
                        flight_dir(),
                        "shard crash frame (shard=%r)" % (frame[1],))
                    self._kill_workers()
                    raise MachineError(
                        "sharded worker crashed (see the worker's "
                        "traceback on stderr)")
                frames[shard] = frame
        return [frames[shard] for shard in sorted(frames)]

    def _kill_workers(self):
        for pid in self.pids:
            try:
                os.kill(pid, 9)
            except OSError:
                pass

    def _serve(self, snapshot_callback, stop_at_cycle):
        """Read gather rounds until the run ends; apply; decide outcome."""
        while True:
            frames = self._gather_round()
            kinds = {frame[0] for frame in frames}
            if len(kinds) != 1:
                raise MachineError(
                    "sharded workers desynchronised: %r" % sorted(kinds))
            kind, outcome, cycle = frames[0][:3]
            self._apply(frames)
            if kind == "snapshot":
                self.master.cycle = cycle
                snapshot_callback(self.sharded)
                for s in sorted(self.down):
                    _send(self.down[s], "ack")
                continue
            return self._finish(outcome, cycle, stop_at_cycle)

    def _apply(self, frames):
        """Load the gathered shard slices into the master machine."""
        master = self.master
        master._events = []
        shard_stats = []
        shard_spans = []
        for frame in frames:
            payload = frame[3]
            if "transport" in payload:
                shard_stats.append(payload["transport"])
            shard_spans.extend(payload.get("spans") or ())
        if shard_spans:
            records = self.sharded.span_records or []
            records.extend(shard_spans)
            self.sharded.span_records = records
        if shard_stats:
            self.sharded.transport_stats = {
                "shards": len(self.bounds),
                "epoch_wait_s": round(
                    sum(s["epoch_wait_s"] for s in shard_stats), 6),
                "epochs": max(s["epochs"] for s in shard_stats),
                "ff_epochs": max(s["ff_epochs"] for s in shard_stats),
                "ff_cycles": max(s["ff_cycles"] for s in shard_stats),
                "per_shard": shard_stats,
            }
        for frame in frames:
            payload = frame[3]
            for index, state in payload["cores"]:
                master.load_core_state_dict(index, state)
            master._halt_key = (
                None if payload["halt_key"] is None
                else tuple(payload["halt_key"]))
            master._halt_at = (
                None if master._halt_key is None else master._halt_key[0])
            master.halt_reason = payload["halt_reason"]
            master._error_key = (
                None if payload["error_key"] is None
                else tuple(payload["error_key"]))
            master._error = payload["error"]

    def _finish(self, outcome, cycle, stop_at_cycle):
        master = self.master
        stats = master.stats
        for pid in self.pids:
            os.waitpid(pid, 0)
        self.pids = []
        if outcome == "halt":
            master.cycle = master._halt_at - 1
            master.halted = True
            stats.cycles = max(stats.cycles, master._halt_at)
            return stats
        if outcome == "pause":
            master.cycle = cycle
            stats.cycles = max(stats.cycles, cycle)
            return stats
        if outcome == "error":
            master.cycle = cycle
            raise MachineError(master._error)
        if outcome == "limit":
            master.cycle = cycle
            raise MachineError(
                "cycle limit exceeded (%d); likely livelock" % self.limit)
        if outcome == "deadlock":
            master.cycle = cycle
            raise DeadlockError(master._deadlock_dump())
        raise MachineError("unknown sharded outcome %r" % (outcome,))

    def _cleanup(self):
        for fd in list(self.up.values()) + list(self.down.values()):
            try:
                os.close(fd)
            except OSError:
                pass
        self.up = {}
        self.down = {}
        for pid in self.pids:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
            try:
                os.waitpid(pid, 0)
            except OSError:
                pass
        self.pids = []


def _recv_or_fail(fd):
    try:
        return _recv(fd)
    except EOFError:
        return ("crash", None, None, None)
