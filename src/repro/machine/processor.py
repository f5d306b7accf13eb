"""The LBP machine: cores, interconnect, event queue, simulation loop.

Determinism: the simulation is single-threaded per domain; every queue is
ordered by (cycle, origin domain, origin sequence); stage arbitration uses
fixed rotating priorities; link and port bandwidth is allocated by
monotonic reservation cursors.  Two runs of the same program on the same
data produce identical cycle-by-cycle event traces — the property the
paper's claim (1) is about, and which `benchmarks/test_determinism.py`
checks.

Partitionability (the space-sharded engine, ``repro.parsim``): every
piece of mutable state belongs to exactly one *domain* — core *i* owns
its pipeline, harts, banks, ports, egress link cursors, event-sequence
and rename-tag counters, and its slice of the statistics and the trace.
Events are addressed ``(cycle, origin, oseq, dst, kind, args)``: the key
``(cycle, origin, oseq)`` is unique and computed only from origin-domain
state, so the merged event order is independent of how domains are
distributed over worker processes.  Cross-domain interactions travel as
events with ≥ 2 cycles of latency (the neighbour links, the backward
line, and the r1/r2/r3 router paths all carry at least one reserved hop
plus delivery) — the *lookahead* that lets workers simulate 2-cycle
epochs independently and exchange messages only at epoch barriers.
"""

import heapq

from repro import memmap
from repro.isa.semantics import load_value
from repro.machine import native
from repro.machine.core import Core
from repro.machine.lowered import LoweredInstr, lower_program
from repro.machine.memory import Bank
from repro.machine.params import Params
from repro.machine.router import (
    backward_links,
    forward_links,
    reply_path,
    request_path,
)
from repro.machine.stats import MachineStats
from repro.machine.trace import Trace

#: p_swre completion acks ride a virtual credit wire back to the sender
#: (no physical forward path exists for arbitrary core distances)
RE_ACK_LATENCY = 2
#: a halt decision (exit/ebreak committed at cycle t) reaches every
#: domain at t + HALT_LATENCY — never inside the epoch that produced it
HALT_LATENCY = 2
#: the cycle budget of a run that names none: ``LBP.run``, the sharded
#: engine and ``repro run --max-cycles`` all default to it
MAX_CYCLES = 200_000_000


class MachineError(Exception):
    """A machine-level trap: bad address, bad fork, cycle limit..."""


class DeadlockError(MachineError):
    """No hart can make progress and no event is pending."""


# ---- scheduled-event handlers ------------------------------------------------
#
# The event queue holds (cycle, origin, oseq, dst, kind, args) tuples —
# *no closures* — so that in-flight events survive snapshot/restore
# (repro.snapshot): the args of every kind are plain ints/strings/tuples
# and each handler below re-resolves the objects it touches from those.
# Handlers run with the machine as first argument when their cycle is
# reached, and only ever mutate state of the *dst* domain (plus posts of
# follow-up events) — the invariant the sharded engine depends on.


def _normalize_args(args):
    """Event args after a JSON round-trip: lists back to tuples."""
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


def _resolve_bank(machine, bank_ref):
    """The Bank named by a ('local'|'shared'|'code', core) reference."""
    kind, index = bank_ref
    if kind == "code":
        return machine.code_bank
    mem = machine.cores[index].mem
    return mem.local if kind == "local" else mem.shared


def _rob_by_tag(hart, tag):
    for rob_entry in hart.rob:
        if rob_entry.tag == tag:
            return rob_entry
    raise AssertionError("tag %d not in ROB of hart %d" % (tag, hart.gid))


# ---- intra-domain kinds (requester-local accesses) ---------------------------
# (``core_index`` rides in load_read / store_write only to be traced; the
# arg tuples are the snapshot format's, so it stays)


def _ev_load_read(machine, bank_ref, addr, width, mnemonic, t_done,
                  core_index, hart_gid):
    """Bank-side read of a local load; fills the hart's result buffer."""
    hart = machine.hart_by_gid(hart_gid)
    device = machine.mmio.get(addr)
    if device is not None:
        raw = device.read(machine.cycle) & 0xFFFFFFFF
    else:
        try:
            raw = _resolve_bank(machine, bank_ref).read(addr, width)
        except IndexError as exc:
            machine.error(str(exc))
            raw = 0
    hart.rb.fill(load_value(mnemonic, raw), t_done)
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, core_index, hart.index, "mem_load",
            "addr 0x%x -> 0x%x" % (addr, hart.rb.value),
        )


def _ev_load_done(machine, hart_gid):
    machine.hart_by_gid(hart_gid).outstanding_mem -= 1


def _ev_store_write(machine, bank_ref, addr, value, width,
                    core_index, hart_gid, tag):
    hart = machine.hart_by_gid(hart_gid)
    device = machine.mmio.get(addr)
    if device is not None:
        device.write(machine.cycle, value & 0xFFFFFFFF)
    else:
        try:
            _resolve_bank(machine, bank_ref).write(addr, value, width)
        except IndexError as exc:
            machine.error(str(exc))
    hart.outstanding_mem -= 1
    _rob_by_tag(hart, tag).done = True
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, core_index, hart.index, "mem_store",
            "addr 0x%x <- 0x%x" % (addr, value & 0xFFFFFFFF),
        )


def _ev_cv_write(machine, target_core_index, addr, value,
                 core_index, hart_gid, target_gid, offset, tag):
    """Same-core p_swcv: bank write and sender completion in one event."""
    machine.cores[target_core_index].mem.local.write(addr, value, 4)
    hart = machine.hart_by_gid(hart_gid)
    hart.outstanding_mem -= 1
    _rob_by_tag(hart, tag).done = True
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, core_index, hart.index, "cv_write",
            "hart %d off %d <- 0x%x"
            % (target_gid, offset, value & 0xFFFFFFFF),
        )


# ---- remote shared-memory protocol (request / bank op / reply) ---------------


def _ev_rreq_load(machine, src, hart_gid, owner, addr, width, mnemonic):
    """A load request arrives at the owning core's router port."""
    owner_core = machine.cores[owner]
    t_bank = owner_core.mem.shared_router_port.reserve(
        machine.cycle + machine.params.bank_access_latency)
    t_back = owner_core.links.reserve_path(reply_path(src, owner), t_bank)
    machine.post(owner, t_bank, "bank_read",
                 (src, hart_gid, owner, addr, width, mnemonic, t_back + 1))


def _ev_bank_read(machine, src, hart_gid, owner, addr, width, mnemonic,
                  t_done):
    device = machine.mmio.get(addr)
    if device is not None:
        raw = device.read(machine.cycle) & 0xFFFFFFFF
    else:
        try:
            raw = machine.cores[owner].mem.shared.read(addr, width)
        except IndexError as exc:
            machine.error(str(exc))
            raw = 0
    machine.post(src, t_done, "rrep_load",
                 (src, hart_gid, addr, load_value(mnemonic, raw)))


def _ev_rrep_load(machine, src, hart_gid, addr, value):
    hart = machine.hart_by_gid(hart_gid)
    hart.rb.fill(value, machine.cycle)
    hart.outstanding_mem -= 1
    if machine.metrics is not None:
        machine.metrics.remote_done(src, hart_gid)
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, src, hart.index, "mem_load",
            "addr 0x%x -> 0x%x" % (addr, hart.rb.value),
        )


def _ev_rreq_store(machine, src, hart_gid, owner, addr, value, width, tag):
    owner_core = machine.cores[owner]
    t_bank = owner_core.mem.shared_router_port.reserve(
        machine.cycle + machine.params.bank_access_latency)
    t_ack = owner_core.links.reserve_path(reply_path(src, owner), t_bank) + 1
    machine.post(owner, t_bank, "bank_write", (owner, addr, value, width))
    machine.post(src, t_ack, "rack_store", (src, hart_gid, addr, value, tag))


def _ev_bank_write(machine, owner, addr, value, width):
    device = machine.mmio.get(addr)
    if device is not None:
        device.write(machine.cycle, value & 0xFFFFFFFF)
        return
    try:
        machine.cores[owner].mem.shared.write(addr, value, width)
    except IndexError as exc:
        machine.error(str(exc))


def _ev_rack_store(machine, src, hart_gid, addr, value, tag):
    hart = machine.hart_by_gid(hart_gid)
    hart.outstanding_mem -= 1
    if machine.metrics is not None:
        machine.metrics.remote_done(src, hart_gid)
    _rob_by_tag(hart, tag).done = True
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, src, hart.index, "mem_store",
            "addr 0x%x <- 0x%x" % (addr, value & 0xFFFFFFFF),
        )


# ---- cross-core continuation-value writes (p_swcv over the forward link) -----


def _ev_rreq_cv(machine, src, hart_gid, target_gid, offset, value, tag):
    hpc = machine.params.harts_per_core
    target_core = machine.cores[target_gid // hpc]
    t_bank = target_core.mem.local_port.reserve(machine.cycle)
    addr = memmap.hart_cv_base(target_gid % hpc) + offset
    machine.post(target_core.index, t_bank, "cv_apply",
                 (target_core.index, addr, value))
    t_ack = target_core.links.reserve_path(
        backward_links(target_core.index, src), t_bank) + 1
    machine.post(src, t_ack, "rack_cv",
                 (src, hart_gid, target_gid, offset, value, tag))


def _ev_cv_apply(machine, core_index, addr, value):
    machine.cores[core_index].mem.local.write(addr, value, 4)


def _ev_rack_cv(machine, src, hart_gid, target_gid, offset, value, tag):
    hart = machine.hart_by_gid(hart_gid)
    hart.outstanding_mem -= 1
    if machine.metrics is not None:
        machine.metrics.remote_done(src, hart_gid)
    _rob_by_tag(hart, tag).done = True
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, src, hart.index, "cv_write",
            "hart %d off %d <- 0x%x"
            % (target_gid, offset, value & 0xFFFFFFFF),
        )


# ---- backward-line result messages (p_swre) ----------------------------------


def _ev_re_deliver(machine, core_index, hart_gid, target_gid, slot, value,
                   tag, parked):
    """p_swre arrival at the target's result buffer (see schedule_re_send)."""
    target = machine.hart_by_gid(target_gid)
    if target.re_buffers[slot] is not None:
        desc = (core_index, hart_gid, target_gid, slot, value, tag)
        waiters = target.re_waiters[slot]
        if parked:
            # a fresh arrival won the drained slot first: keep this
            # delivery at the head (it is the oldest)
            waiters.insert(0, desc)
        else:
            waiters.append(desc)
        return
    target.re_buffers[slot] = value & 0xFFFFFFFF
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            target.core.index,
            (machine.cycle, "refill", target_gid, slot, hart_gid))
    machine.post(core_index, machine.cycle + RE_ACK_LATENCY, "re_ack",
                 (core_index, hart_gid, target_gid, slot, value, tag))


def _ev_re_ack(machine, core_index, hart_gid, target_gid, slot, value, tag):
    hart = machine.hart_by_gid(hart_gid)
    _rob_by_tag(hart, tag).done = True
    machine.stats.per_core[core_index].re_messages += 1
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, core_index, hart.index, "re_send",
            "hart %d buf %d <- 0x%x" % (target_gid, slot, value & 0xFFFFFFFF),
        )


# ---- fork token protocol (p_fn over the forward link) ------------------------


def _ev_fork_req(machine, target_core_index, src_core_index, parent_gid):
    """A p_fn hart-allocation request arrives at the next core."""
    core = machine.cores[target_core_index]
    if not core.fork_queue:
        child = core.alloc_free_hart()
        if child is not None:
            machine.grant_fork(core, child, src_core_index, parent_gid)
            return
    core.fork_queue.append((src_core_index, parent_gid))


def _ev_fork_grant(machine, parent_gid, child_gid):
    machine.hart_by_gid(parent_gid).fork_tokens.append(child_gid)


# ---- team lifecycle messages -------------------------------------------------


def _ev_start_pc(machine, target_gid, pc):
    target = machine.hart_by_gid(target_gid)
    if not target.reserved:
        machine.error(
            "start pc sent to hart %d which was not allocated" % target_gid
        )
        return
    target.start(pc, machine.cycle)
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, target.core.index, target.index, "start",
            "pc 0x%x" % pc,
        )
    if machine.sanitizer is not None:
        # threshold: every instruction this hart decodes from here on
        # gets a rename tag greater than the core's current counter
        machine.sanitizer.record(
            target.core.index,
            (machine.cycle, "start", target_gid, target.core._tag))


def _ev_ending_signal(machine, core_index, hart_index, succ_gid):
    succ = machine.hart_by_gid(succ_gid)
    succ.pred_done = True
    if machine.trace.enabled:
        # the line names the *sender* core but is recorded by the
        # receiving domain — the explicit domain keeps shard buffers
        # disjoint
        machine.trace.record(
            machine.cycle, core_index, hart_index, "ending_signal",
            "to hart %d" % succ_gid, domain=succ.core.index,
        )


def _ev_join(machine, target_gid, addr):
    target = machine.hart_by_gid(target_gid)
    if machine.trace.enabled:
        machine.trace.record(
            machine.cycle, target.core.index, target.index, "join",
            "resume 0x%x" % addr,
        )
    if target.waiting_join:
        target.start(addr, machine.cycle)
        if machine.sanitizer is not None:
            machine.sanitizer.record(
                target.core.index,
                (machine.cycle, "jstart", target_gid, target.core._tag))
    else:
        target.pending_join = addr


#: event kind -> handler; the kinds (and their arg tuples) are the on-disk
#: vocabulary of the snapshot format — extend, never repurpose
EVENT_HANDLERS = {
    "load_read": _ev_load_read,
    "load_done": _ev_load_done,
    "store_write": _ev_store_write,
    "cv_write": _ev_cv_write,
    "rreq_load": _ev_rreq_load,
    "bank_read": _ev_bank_read,
    "rrep_load": _ev_rrep_load,
    "rreq_store": _ev_rreq_store,
    "bank_write": _ev_bank_write,
    "rack_store": _ev_rack_store,
    "rreq_cv": _ev_rreq_cv,
    "cv_apply": _ev_cv_apply,
    "rack_cv": _ev_rack_cv,
    "re_deliver": _ev_re_deliver,
    "re_ack": _ev_re_ack,
    "fork_req": _ev_fork_req,
    "fork_grant": _ev_fork_grant,
    "start_pc": _ev_start_pc,
    "ending_signal": _ev_ending_signal,
    "join": _ev_join,
}


def resolve_backend(backend):
    """Normalise ``LBP(backend=)``: "soa" (None; the production core,
    machine/core.py with the compiled tick) or "interp" (the tests'
    oracle tick, machine/reference.py)."""
    if backend is None:
        backend = "soa"
    if backend not in ("soa", "interp"):
        raise ValueError(
            "unknown backend %r (expected 'soa' or 'interp')" % (backend,))
    return backend


def check_shards(shards):
    """``shards`` is None (in-process) or a positive ``int`` — not a
    bool, float or string that compares equal to one."""
    if shards is not None and (type(shards) is not int or shards < 1):
        raise ValueError(
            "shards must be a positive integer, got %r" % (shards,))
    return shards


class LBP:
    """One simulated LBP processor instance.

    ``LBP(params, shards=N)`` with N > 1 constructs the space-sharded
    engine (:class:`repro.parsim.ShardedLBP`) instead — same program
    interface, bit-identical results, N worker processes.

    ``backend="interp"`` swaps in the reference tick
    (repro.machine.reference) — bit-identical traces, stats and
    snapshots, only slower; the tests use it as their oracle and nothing
    else selects it.

    Observers are constructor arguments, each with a shorthand:
    ``trace=True`` records every event kind (a :class:`Trace` selects
    kinds), ``metrics=True`` attaches a default ``Metrics()``,
    ``sanitize=True`` the race detector.
    """

    def __new__(cls, params=None, trace=None, shards=None, sanitize=False,
                metrics=None, backend=None):
        if cls is LBP and check_shards(shards) not in (None, 1):
            from repro.parsim import ShardedLBP

            return ShardedLBP(params, trace=trace, shards=shards,
                              sanitize=sanitize, metrics=metrics,
                              backend=backend)
        return super().__new__(cls)

    def __init__(self, params=None, trace=None, shards=None, sanitize=False,
                 metrics=None, backend=None):
        self.params = params or Params()
        self.stats = MachineStats(self.params.num_cores)
        # a type test, not truthiness: an empty Trace is falsy (len() == 0)
        self.trace = trace if isinstance(trace, Trace) else Trace(bool(trace))
        #: referential-order race detector (observation only; the hooks
        #: never post events or reserve ports, so traces stay bit-exact)
        if sanitize:
            from repro.sanitize import Sanitizer

            self.sanitizer = Sanitizer()
        else:
            self.sanitizer = None
        #: stall attribution + windowed sampler (observation only, like
        #: the sanitizer: telemetry never perturbs the simulation)
        self.metrics = None
        #: number of cores whose ``active`` gating flag is set; kept in
        #: lockstep with the flags by Core.activate and the cycle loop
        self._num_active = 0
        #: the cycle loop's cores with the flag set, in core-index order;
        #: None when stale (a core woke or gated off since it was built)
        self._active_cores = None
        if resolve_backend(backend) == "interp" or native.load() is None:
            # the oracle was asked for, or this host could not build the
            # compiled tick (native.load said why, once): the whole
            # Python path, reference tick under the reference loop
            from repro.machine.reference import ReferenceCore as core_cls
            self._simulate = self._reference_simulate
        else:
            core_cls = Core
        self.cores = [core_cls(i, self) for i in range(self.params.num_cores)]
        if metrics:
            from repro.observe import Metrics

            if isinstance(metrics, Metrics):
                self._attach_metrics(metrics)
            elif metrics is True:
                self._attach_metrics(Metrics())
            else:
                self._attach_metrics(Metrics(interval=int(metrics)))
        self.code = {}
        #: {pc: LoweredInstr} built at load time (machine/lowered.py)
        self.lowered = {}
        self.code_bank = Bank(memmap.CODE_BASE, memmap.CODE_SIZE, "code")
        self.mmio = {}
        self.cycle = 0
        self.halted = False
        self.halt_reason = None
        self._halt_at = None
        self._halt_key = None
        self._events = []
        self._error = None
        self._error_key = None
        #: domain currently executing (event handler's dst, or the core
        #: being ticked) — the origin stamped on posted events
        self._origin = 0
        #: sharded-engine hooks: when _owned is a set, posts to other
        #: domains are diverted to _outbox instead of the local heap
        self._owned = None
        self._outbox = []
        self.program = None

    # ---- construction ------------------------------------------------------

    def load(self, program, start=True):
        """Load a :class:`~repro.asm.program.Program` and start hart 0."""
        self.program = program
        self.code = program.instructions
        self.lowered = lower_program(self.code, self.params)
        for seg in program.code_segments():
            self.code_bank.load_image(seg.base - memmap.CODE_BASE, seg.data)
        for seg in program.data_segments():
            if seg.bank >= self.params.num_cores:
                raise MachineError(
                    "data bank %d does not exist on a %d-core machine"
                    % (seg.bank, self.params.num_cores)
                )
            bank = self.cores[seg.bank].mem.shared
            bank.load_image(seg.base - bank.base, seg.data)
        if start:
            boot = self.cores[0].harts[0]
            boot.regs[2] = memmap.hart_initial_sp(0)
            boot.start(program.entry, -1)
        return self

    def add_device(self, addr, device):
        """Map a device at global address *addr* (word-granular MMIO)."""
        self.mmio[addr] = device

    def _attach_metrics(self, metrics):
        """Bind (or unbind, with None) the telemetry object: the machine
        attribute the tick hot path reads, plus each core's link-scheduler
        observer (router backpressure attribution)."""
        self.metrics = metrics
        if metrics is not None:
            metrics.bind(self)
        for core in self.cores:
            core.links.observe(metrics, core.index)

    # ---- snapshot/restore ----------------------------------------------------

    def state_dict(self):
        """Complete machine state as plain data (see repro.snapshot).

        Excludes the program image inputs (code/lowered are rebuilt by
        :meth:`load`) and MMIO devices (externally attached; the snapshot
        layer refuses machines with devices).
        """
        return {
            "cycle": self.cycle,
            "halted": self.halted,
            "halt_reason": self.halt_reason,
            "halt_at": self._halt_at,
            "halt_key": None if self._halt_key is None else list(self._halt_key),
            "error": self._error,
            "error_key": None if self._error_key is None else list(self._error_key),
            "events": [
                [cycle, origin, oseq, dst, kind, list(args)]
                for cycle, origin, oseq, dst, kind, args in sorted(self._events)
            ],
            "code_bank": self.code_bank.state_dict(),
            "stats": self.stats.state_dict(),
            "trace": self.trace.state_dict(),
            "sanitize": (None if self.sanitizer is None
                         else self.sanitizer.state_dict()),
            "observe": (None if self.metrics is None
                        else self.metrics.state_dict()),
            "cores": [core.state_dict() for core in self.cores],
        }

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` state onto a machine that has the
        same params and the same program already loaded (start=False)."""
        self.cycle = state["cycle"]
        self.halted = state["halted"]
        self.halt_reason = state["halt_reason"]
        self._halt_at = state["halt_at"]
        self._halt_key = (
            None if state["halt_key"] is None else tuple(state["halt_key"]))
        self._error = state["error"]
        self._error_key = (
            None if state["error_key"] is None else tuple(state["error_key"]))
        self._events = [
            (cycle, origin, oseq, dst, kind, _normalize_args(args))
            for cycle, origin, oseq, dst, kind, args in state["events"]
        ]
        heapq.heapify(self._events)
        for event in self._events:
            if event[4] not in EVENT_HANDLERS:
                raise ValueError(
                    "unknown event kind %r in snapshot" % (event[4],))
        self.code_bank.load_state_dict(state["code_bank"])
        self.stats.load_state_dict(state["stats"])
        self.trace.load_state_dict(state["trace"])
        san_state = state.get("sanitize")
        if san_state is not None:
            from repro.sanitize import Sanitizer

            self.sanitizer = Sanitizer()
            self.sanitizer.load_state_dict(san_state)
        else:
            # the observation history starts at cycle 0; a machine resumed
            # from an unsanitized snapshot cannot be sanitized mid-run
            self.sanitizer = None
        obs_state = state.get("observe")
        if obs_state is not None:
            from repro.observe import Metrics

            if self.metrics is None:
                self._attach_metrics(Metrics())
            self.metrics.load_state_dict(obs_state)
        else:
            # same rule as the sanitizer: the charge history starts at
            # cycle 0, so an unmetered snapshot resumes unmetered
            self._attach_metrics(None)
        for core, core_state in zip(self.cores, state["cores"]):
            core.load_state_dict(core_state)
        self._num_active = sum(1 for core in self.cores if core.active)

    def core_state_dict(self, index):
        """One domain's full slice: core + stats counters + trace buffer +
        pending events addressed to it (shard gathering)."""
        return {
            "core": self.cores[index].state_dict(),
            "stats": self.stats.core_state_dict(index),
            "trace": self.trace.domain_state_dict(index),
            "sanitize": (None if self.sanitizer is None
                         else self.sanitizer.domain_state_dict(index)),
            "observe": (None if self.metrics is None
                        else self.metrics.domain_state_dict(index)),
            "events": [
                [cycle, origin, oseq, dst, kind, list(args)]
                for cycle, origin, oseq, dst, kind, args in sorted(self._events)
                if dst == index
            ],
        }

    def load_core_state_dict(self, index, state):
        self.cores[index].load_state_dict(state["core"])
        self.stats.load_core_state_dict(index, state["stats"])
        self.trace.load_domain_state_dict(index, state["trace"])
        san_state = state.get("sanitize")
        if self.sanitizer is not None and san_state is not None:
            self.sanitizer.load_domain_state_dict(index, san_state)
        obs_state = state.get("observe")
        if self.metrics is not None and obs_state is not None:
            self.metrics.load_domain_state_dict(index, obs_state)
        self._events = [
            event for event in self._events if event[3] != index
        ]
        self._events.extend(
            (cycle, origin, oseq, dst, kind, _normalize_args(args))
            for cycle, origin, oseq, dst, kind, args in state["events"]
        )
        heapq.heapify(self._events)
        self._num_active = sum(1 for core in self.cores if core.active)

    # ---- small services used by cores ---------------------------------------

    def core_after(self, core):
        index = core.index + 1
        return self.cores[index] if index < len(self.cores) else None

    def hart_by_gid(self, gid):
        core_index, hart_index = divmod(gid, self.params.harts_per_core)
        if core_index >= len(self.cores):
            self.error("hart id %d does not exist" % gid)
            return self.cores[0].harts[0]
        return self.cores[core_index].harts[hart_index]

    def _valid_gid(self, gid):
        if gid // self.params.harts_per_core >= len(self.cores):
            self.error("hart id %d does not exist" % gid)
            return False
        return True

    def post(self, dst, cycle, kind, args):
        """Enqueue event *kind* for domain *dst* (see EVENT_HANDLERS).

        The key (cycle, origin, oseq) is computed from the posting
        domain's own counter, so it is identical no matter which worker
        process runs the origin domain.
        """
        core = self.cores[self._origin]
        core._seq += 1
        event = (cycle, core.index, core._seq, dst, kind, args)
        if self._owned is not None and dst not in self._owned:
            self._outbox.append(event)
        else:
            heapq.heappush(self._events, event)

    def halt(self, reason):
        """Commit-side exit/ebreak: the machine stops HALT_LATENCY later.

        The delay gives every domain (in any sharding) the same final
        cycle; the first call wins, which equals the minimum
        (cycle, domain) since commits are visited in that order.
        """
        key = (self.cycle + HALT_LATENCY, self._origin)
        if self._halt_key is None or key < self._halt_key:
            self._halt_key = key
            self._halt_at = key[0]
            self.halt_reason = reason

    def error(self, message):
        key = (self.cycle, self._origin)
        if self._error_key is None or key < self._error_key:
            self._error_key = key
            self._error = "cycle %d: %s" % (self.cycle, message)

    def fetch_instruction(self, pc, hart):
        low = self.lowered.get(pc)
        if low is None:
            self.error(
                "hart %d fetches from non-code address 0x%x" % (hart.gid, pc)
            )
            low = self.lowered_at(pc)
        return low

    def lowered_at(self, pc):
        """The lowered instruction at *pc*, or the fault-path ebreak.

        The fallback mirrors :meth:`fetch_instruction` without recording
        an error — state restore uses it to rebuild pipeline entries that
        were fetched from a non-code address (the machine is already on
        its way to a MachineError when that state exists)."""
        low = self.lowered.get(pc)
        if low is None:
            from repro.isa.instruction import Instruction
            from repro.isa.spec import INSTR_SPECS

            low = LoweredInstr(
                Instruction("ebreak", spec=INSTR_SPECS["ebreak"]),
                self.params, pc)
        return low

    def cv_address(self, hart, offset):
        return memmap.hart_cv_base(hart.index) + offset

    # ---- memory accesses -----------------------------------------------------

    def schedule_load(self, core, hart, entry, low, addr):
        width = low.width
        now = self.cycle
        params = self.params
        if memmap.is_local(addr):
            t_bank = core.mem.local_port.reserve(now + params.local_mem_latency)
            bank, bank_ref = core.mem.local, ("local", core.index)
            remote = False
        elif memmap.is_code(addr):
            t_bank = now + params.local_mem_latency
            bank, bank_ref = self.code_bank, ("code", 0)
            remote = False
        else:
            owner = memmap.owner_core_of(addr, params.num_cores)
            if owner is None:
                self.error("access to unmapped address 0x%x" % addr)
                owner = core.index
            if owner == core.index:
                t_bank = core.mem.shared_local_port.reserve(
                    now + params.local_mem_latency)
                bank, bank_ref = core.mem.shared, ("shared", owner)
                self.stats.per_core[core.index].local_accesses += 1
                remote = False
            else:
                bank = self.cores[owner].mem.shared
                self.stats.per_core[core.index].remote_accesses += 1
                remote = True
        hart.rb.occupy(entry)
        hart.outstanding_mem += 1
        if self.trace.enabled:
            self.trace.record(
                now, core.index, hart.index, "mem_load_req",
                "addr 0x%x bank %s" % (addr, bank.name),
            )
        if (self.sanitizer is not None and addr >= memmap.GLOBAL_BASE
                and addr not in self.mmio):
            self.sanitizer.record(
                core.index,
                (now, "acc", hart.gid, entry.tag, addr, width, 0, entry.pc))
        if remote:
            if self.metrics is not None:
                self.metrics.remote_issue(core.index, hart.gid, now, owner)
            t_up = core.links.reserve_path(request_path(core.index, owner), now)
            self.post(owner, t_up, "rreq_load",
                      (core.index, hart.gid, owner, addr, width, low.mnemonic))
        else:
            t_done = t_bank + 1
            self.post(core.index, t_bank, "load_read",
                      (bank_ref, addr, width, low.mnemonic, t_done,
                       core.index, hart.gid))
            self.post(core.index, t_done, "load_done", (hart.gid,))

    def schedule_store(self, core, hart, entry, low, addr, value):
        width = low.width
        now = self.cycle
        params = self.params
        if memmap.is_local(addr):
            t_bank = core.mem.local_port.reserve(now + params.local_mem_latency)
            bank, bank_ref = core.mem.local, ("local", core.index)
            remote = False
        elif memmap.is_code(addr):
            t_bank = now + params.local_mem_latency
            bank, bank_ref = self.code_bank, ("code", 0)
            remote = False
        else:
            owner = memmap.owner_core_of(addr, params.num_cores)
            if owner is None:
                self.error("access to unmapped address 0x%x" % addr)
                owner = core.index
            if owner == core.index:
                t_bank = core.mem.shared_local_port.reserve(
                    now + params.local_mem_latency)
                bank, bank_ref = core.mem.shared, ("shared", owner)
                self.stats.per_core[core.index].local_accesses += 1
                remote = False
            else:
                bank = self.cores[owner].mem.shared
                self.stats.per_core[core.index].remote_accesses += 1
                remote = True
        hart.outstanding_mem += 1
        if self.trace.enabled:
            self.trace.record(
                now, core.index, hart.index, "mem_store_req",
                "addr 0x%x bank %s" % (addr, bank.name),
            )
        if (self.sanitizer is not None and addr >= memmap.GLOBAL_BASE
                and addr not in self.mmio):
            self.sanitizer.record(
                core.index,
                (now, "acc", hart.gid, entry.tag, addr, width, 1, entry.pc))
        if remote:
            if self.metrics is not None:
                self.metrics.remote_issue(core.index, hart.gid, now, owner)
            t_up = core.links.reserve_path(request_path(core.index, owner), now)
            self.post(owner, t_up, "rreq_store",
                      (core.index, hart.gid, owner, addr, value, width,
                       entry.tag))
        else:
            self.post(core.index, t_bank, "store_write",
                      (bank_ref, addr, value, width,
                       core.index, hart.gid, entry.tag))

    # ---- X_PAR messages -------------------------------------------------------

    def schedule_cv_write(self, core, hart, entry, target_gid, offset, value):
        """p_swcv: write into the allocated hart's CV area (forward link)."""
        if not self._valid_gid(target_gid):
            return
        target_core_index = target_gid // self.params.harts_per_core
        now = self.cycle
        if self.sanitizer is not None:
            self.sanitizer.record(
                core.index,
                (now, "swcv", hart.gid, entry.tag, target_gid, offset))
        if target_core_index == core.index:
            t_bank = core.mem.local_port.reserve(
                now + self.params.cv_write_latency)
            addr = memmap.hart_cv_base(
                target_gid % self.params.harts_per_core) + offset
            hart.outstanding_mem += 1
            self.post(core.index, t_bank, "cv_write",
                      (core.index, addr, value,
                       core.index, hart.gid, target_gid, offset, entry.tag))
        elif target_core_index == core.index + 1:
            if self.metrics is not None:
                self.metrics.remote_issue(core.index, hart.gid, now, None)
            t_link = core.links.reserve_path(
                forward_links(core.index, target_core_index), now)
            hart.outstanding_mem += 1
            self.post(target_core_index,
                      t_link + self.params.cv_write_latency, "rreq_cv",
                      (core.index, hart.gid, target_gid, offset, value,
                       entry.tag))
        else:
            self.error(
                "forward link only reaches the next core (%d -> %d)"
                % (core.index, target_core_index))

    def schedule_re_send(self, core, hart, entry, target_gid, index, value):
        """p_swre: send a result backward to a prior hart's result buffer.

        Flow control: a delivery that finds the slot occupied *parks* in
        the target hart's per-slot waiter queue and is re-scheduled when
        the consumer drains the slot (:meth:`wake_re_waiters`).  The
        sender's p_swre completes when the delivery ack returns.
        """
        if not self._valid_gid(target_gid):
            return
        target_core_index = target_gid // self.params.harts_per_core
        if target_core_index > core.index:
            self.error(
                "p_swre from hart %d to a later core (hart %d)"
                % (hart.gid, target_gid)
            )
            return
        links = backward_links(core.index, target_core_index)
        t_arrive = core.links.reserve_path(links, self.cycle) + 1
        slot = index % self.params.num_result_buffers
        if self.sanitizer is not None:
            self.sanitizer.record(
                core.index,
                (self.cycle, "swre", hart.gid, entry.tag, target_gid, slot))
        self.post(target_core_index, t_arrive, "re_deliver",
                  (core.index, hart.gid, target_gid, slot, value,
                   entry.tag, False))

    def wake_re_waiters(self, target, slot=None):
        """Re-schedule the oldest parked p_swre delivery for a drained slot.

        Called by the consumer side (p_lwre execute) with the drained
        *slot*, and on hart re-allocation (reserve_for_fork resets every
        slot) with ``slot=None`` — both run in the target's own domain.
        """
        slots = range(len(target.re_waiters)) if slot is None else (slot,)
        for index in slots:
            waiters = target.re_waiters[index]
            if waiters:
                desc = waiters.pop(0)
                self.post(target.core.index, self.cycle + 1, "re_deliver",
                          tuple(desc) + (True,))

    # ---- fork token protocol ---------------------------------------------------

    def send_fork_req(self, core, hart):
        """p_fn at decode: ask the next core for a hart (token on grant)."""
        target = self.core_after(core)
        if target is None:
            # teams only expand along the line of cores (paper §5.1); a
            # fork past the last core can never succeed
            self.error(
                "p_fn on the last core (hart %d): "
                "no next core to fork on" % hart.gid)
            return
        t = core.links.reserve_path(
            forward_links(core.index, target.index), self.cycle)
        self.post(target.index, t + 1, "fork_req",
                  (target.index, core.index, hart.gid))

    def grant_fork(self, core, child, src_core_index, parent_gid):
        """Allocate *child* on *core* for the requesting parent hart."""
        child.reserve_for_fork(parent_gid)
        self.wake_re_waiters(child)
        t = core.links.reserve_path(
            backward_links(core.index, src_core_index), self.cycle) + 1
        self.post(src_core_index, t, "fork_grant", (parent_gid, child.gid))

    # ---- team lifecycle messages ----------------------------------------------

    def send_start_pc(self, core, hart, target_gid, pc):
        """p_jal/p_jalr: start the allocated hart at *pc* (forward link)."""
        if not self._valid_gid(target_gid):
            return
        target_core_index = target_gid // self.params.harts_per_core
        if target_core_index == core.index:
            links = []
        elif target_core_index == core.index + 1:
            links = forward_links(core.index, target_core_index)
        else:
            self.error(
                "forward link only reaches the next core (%d -> %d)"
                % (core.index, target_core_index))
            return
        t = core.links.reserve_path(links, self.cycle) if links else self.cycle
        self.post(target_core_index, t + 1, "start_pc", (target_gid, pc))

    def send_ending_signal(self, core, hart, succ_gid):
        """The ordered-release chain between team members."""
        succ_core_index = succ_gid // self.params.harts_per_core
        if succ_core_index == core.index:
            links = []
        else:
            links = forward_links(core.index, succ_core_index)
        t = core.links.reserve_path(links, self.cycle) if links else self.cycle
        self.post(succ_core_index, t + 1, "ending_signal",
                  (core.index, hart.index, succ_gid))

    def send_join(self, core, hart, join_gid, addr):
        """p_ret case 4: the join address travels the backward line."""
        if not self._valid_gid(join_gid):
            return
        target_core_index = join_gid // self.params.harts_per_core
        if target_core_index > core.index:
            self.error(
                "join from hart %d to a later core (hart %d)" % (hart.gid, join_gid)
            )
            return
        links = backward_links(core.index, target_core_index)
        t = core.links.reserve_path(links, self.cycle) + 1
        self.post(target_core_index, t, "join", (join_gid, addr))

    # ---- the simulation loop ---------------------------------------------------

    def run(self, max_cycles=None, stop_at_cycle=None,
            snapshot_every=None, snapshot_callback=None):
        """Run until exit/ebreak; returns :class:`MachineStats`.

        Raises :class:`DeadlockError` when nothing can ever progress and
        :class:`MachineError` on traps or when *max_cycles* (default
        :data:`MAX_CYCLES`) is exceeded.

        *stop_at_cycle* pauses the simulation (without halting the
        machine) at the first cycle >= the given value — before that
        cycle's events and pipeline stages run — so the machine can be
        snapshotted and later resumed by calling :meth:`run` again; the
        continuation is cycle-for-cycle identical to an uninterrupted
        run.  *snapshot_every* / *snapshot_callback* invoke
        ``snapshot_callback(machine)`` at the same safe point every
        *snapshot_every* cycles.
        """
        limit = max_cycles if max_cycles is not None else MAX_CYCLES
        events = self._events
        cores = self.cores
        stats = self.stats
        progress_mark = (0, 0)
        next_progress_check = 4096
        cycle = self.cycle
        next_snapshot = None
        if snapshot_every is not None and snapshot_callback is not None:
            next_snapshot = cycle + snapshot_every
        self._reset_scheduling(cores)
        try:
            while not self.halted:
                if self._halt_at is not None and cycle >= self._halt_at:
                    # machine.cycle stays the last *simulated* cycle index
                    self.cycle = self._halt_at - 1
                    self.halted = True
                    break
                if stop_at_cycle is not None and cycle >= stop_at_cycle:
                    self.cycle = cycle
                    stats.cycles = max(stats.cycles, cycle)
                    return stats
                if next_snapshot is not None and cycle >= next_snapshot:
                    self.cycle = cycle
                    self._settle_idle(cores, cycle)
                    snapshot_callback(self)
                    next_snapshot = cycle + snapshot_every
                if cycle >= next_progress_check:
                    mark = (stats.retired, sum(core._seq for core in cores))
                    if (mark == progress_mark and not events
                            and self._halt_at is None):
                        raise DeadlockError(self._deadlock_dump())
                    progress_mark = mark
                    next_progress_check = cycle + 4096
                if cycle > limit:
                    raise MachineError(
                        "cycle limit exceeded (%d); likely livelock" % limit
                    )
                # the next cycle at which one of the tests above can fire
                barrier = min(next_progress_check, limit + 1)
                if stop_at_cycle is not None and stop_at_cycle < barrier:
                    barrier = stop_at_cycle
                if next_snapshot is not None and next_snapshot < barrier:
                    barrier = next_snapshot
                # (a snapshot_every <= 0 means "every cycle", as it always did)
                cycle = self._simulate(cycle, max(barrier, cycle + 1), cores)
                if self._error is not None:
                    raise MachineError(self._error)
                if (self._num_active == 0 and not events
                        and self._halt_at is None):
                    # every core quiescent, nothing in flight: it went
                    # dead right after the last simulated cycle
                    cycle = self.cycle + 1
                    raise DeadlockError(self._deadlock_dump())
                self.cycle = cycle
        finally:
            # state leaves the loop: close every gated core's idle span
            self._settle_idle(cores, cycle)
        if self._halt_at is not None:
            stats.cycles = max(stats.cycles, self._halt_at)
        else:
            stats.cycles = max(stats.cycles, self.cycle)
        return stats

    def _reset_scheduling(self, cores):
        """Entering a cycle loop over *cores*: reset the derived
        scheduling state no snapshot carries — nobody parked, gated
        cores idle (and uncharged) from now on, active list stale."""
        self._active_cores = None
        for core in cores:
            core.sleep_until = 0
            core.idle_since = self.cycle

    def _settle_idle(self, cores, cycle):
        """Charge every gated core of *cores* its idle cycles up to
        *cycle* (exclusive) — called wherever state leaves the loop."""
        for core in cores:
            if not core.active:
                core.settle_idle(cycle)

    def _simulate(self, cycle, barrier, cores):
        """Simulate cycles [*cycle*, *barrier*) on *cores*; returns the
        next cycle to simulate.

        The one cycle loop, shared by :meth:`run` (every core) and the
        sharded engine's workers (their owned cores, one epoch per
        call).  Returns early — before *barrier* — only at a pending
        halt's cycle or right after the cycle that recorded an error.
        This is the reference spelling: machine/native.py binds the
        compiled one (machine/_window.h) over the name when it can.

        Per-cycle cost follows the cores that can change state: gated
        cores are not visited at all (their idle cycles are charged
        lazily, see :meth:`Core.settle_idle`), parked ones cost one
        compare, and while every core is gated the loop hops straight
        to the next event.  Ticking stays in fixed core-index order so
        arbitration, event seqs and traces equal the all-cores loop.
        """
        events = self._events
        all_cores = self.cores
        metered = self.metrics is not None
        heappop = heapq.heappop
        handlers = EVENT_HANDLERS
        while cycle < barrier:
            halt_at = self._halt_at
            if halt_at is not None and cycle >= halt_at:
                break
            if self._num_active == 0:
                # every core is quiescent: hop to the next event, the
                # pending halt or the barrier, whichever comes first
                target = barrier
                if events and events[0][0] < target:
                    target = events[0][0]
                if halt_at is not None and halt_at < target:
                    target = halt_at
                if target > cycle:
                    cycle = target
                    continue
            # handlers, ticks and Core.activate read machine.cycle as "now"
            self.cycle = cycle
            while events and events[0][0] <= cycle:
                event = heappop(events)
                self._origin = dst = event[3]
                core = all_cores[dst]
                # the handler may change what this domain's stages see
                core.sleep_until = 0
                if metered and not core.active:
                    # it may also charge link_wait to a gated core's
                    # current window: close the idle span up to now first
                    core.settle_idle(cycle)
                handlers[event[4]](self, *event[5])
            active = self._active_cores
            if active is None:
                active = self._active_cores = [
                    core for core in cores if core.active]
            for core in active:
                if core.sleep_until <= cycle:
                    self._origin = core.index
                    if not core.tick():
                        core.active = False
                        core.idle_since = cycle + 1
                        self._num_active -= 1
                        self._active_cores = None
            cycle += 1
            if self._error is not None:
                break
        return cycle

    _reference_simulate = _simulate

    def _deadlock_dump(self):
        lines = ["deadlock at cycle %d:" % self.cycle]
        for core in self.cores:
            for hart in core.harts:
                if hart.waiting_join or hart.reserved or not hart.is_idle():
                    lines.append(
                        "  hart %d: pc=%r waiting_join=%r reserved=%r it=%d rob=%d"
                        % (
                            hart.gid, hart.pc, hart.waiting_join,
                            hart.reserved, len(hart.it), len(hart.rob),
                        )
                    )
        return "\n".join(lines)

    # ---- race detection -------------------------------------------------------

    def race_report(self, sync=None):
        """Analyze the recorded observations (``sanitize=True`` runs only).

        *sync* is an optional iterable of ``(base, size)`` byte ranges to
        treat as synchronization cells (release/acquire, like the
        paper's §6 request words) in addition to any ranges already
        declared on the sanitizer; returns a
        :class:`repro.sanitize.RaceReport`.
        """
        if self.sanitizer is None:
            raise MachineError(
                "race_report() needs a machine constructed with "
                "LBP(sanitize=True)")
        return self.sanitizer.analyze(self.program, self.params, sync=sync)

    # ---- telemetry ------------------------------------------------------------

    def metrics_report(self):
        """The stall-attribution + windowed-metrics report dict
        (``metrics=...`` runs only; see repro.observe.build_report)."""
        if self.metrics is None:
            raise MachineError(
                "metrics_report() needs a machine constructed with "
                "LBP(metrics=...)")
        from repro.observe import build_report

        return build_report(self)

    # ---- debugging / inspection --------------------------------------------------

    def read_word(self, addr):
        """Read a data word directly (for tests and result extraction)."""
        if memmap.is_local(addr):
            raise MachineError("local addresses are per-core; use read_local")
        owner = memmap.owner_core_of(addr, self.params.num_cores)
        if owner is None:
            raise MachineError("unmapped address 0x%x" % addr)
        return self.cores[owner].mem.shared.read(addr, 4)

    def write_word(self, addr, value):
        owner = memmap.owner_core_of(addr, self.params.num_cores)
        if owner is None:
            raise MachineError("unmapped address 0x%x" % addr)
        self.cores[owner].mem.shared.write(addr, value, 4)

    def read_local(self, core_index, addr):
        return self.cores[core_index].mem.local.read(addr, 4)
