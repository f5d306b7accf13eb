"""One LBP core: four harts moved by a five-stage out-of-order pipeline.

Stage contract (paper §5.2): **each stage selects one eligible hart per
cycle** — one fetch, one decode/rename, one issue, one writeback, one
commit — with deterministic rotating priority.  There is no branch
predictor: a hart is suspended after every fetch until its next pc is
known (at decode for straight-line code and direct jumps, at issue for
branches and indirect jumps), so multithreading — not speculation — fills
the pipeline.

The stages work on :class:`~repro.machine.lowered.LoweredInstr` records
(pre-extracted class, operands, callables) so the per-cycle loop never
re-chases ``Instruction``/spec attributes; see ``machine/lowered.py``.

:meth:`Core.tick` is the production tick; ``machine/reference.py`` keeps
a small, slow tick over the same state as the oracle the tests compare
it against (``LBP(backend="interp")``).  How the production tick is
built for speed, none of which may be observable:

* **Stage gating.**  The per-stage eligibility predicates are hoisted
  out of the stage scans into flat per-hart / per-core scoreboard fields
  maintained at the state-transition sites: ``Hart.fetch_ok`` (the
  five-term fetch predicate collapsed to one flag), ``Hart.n_ready``
  (count of operand-ready waiting instructions, gating the issue scan)
  and ``Core._wb_wake`` (a lower bound on the next cycle a filled
  writeback buffer can drain, gating the writeback scan).  A stage whose
  gate is closed is skipped without touching any hart.

* **Table-dispatched semantics.**  Decode and issue switch on the
  precomputed ``LoweredInstr.dec_kind`` / ``issue_kind`` ints, and the
  execute tail dispatches through :data:`EXEC_TABLE` (class → handler);
  the four hot classes (ALU/MULDIV, load, store, branch) stay inline.

* **Parking.**  A tick in which no stage fires cannot have changed
  anything, and nothing will change until a timer the core owns expires
  (a filled writeback buffer's ``ready_at``, a fetch-ready hart's
  ``fetch_ready_at`` — the only stage predicates that read the cycle)
  or an event addressed to this domain runs.  Such a tick records that
  expiry in ``sleep_until`` and the cycle loop skips the core — still
  ``active`` — until then; event dispatch clears it (DESIGN.md, "Core
  scheduling").  Never with metrics attached: the stall classifier
  charges every busy cycle.
"""

from repro.isa.semantics import MASK32, join_hart, p_merge_value, p_set_value
from repro.isa.spec import InstrClass
from repro.machine.hart import Entry, Hart
from repro.machine.memory import CoreMemory
from repro.machine.router import LinkScheduler

_C = InstrClass

# pre-bound int values of the InstrClass members (LoweredInstr.cls is a
# plain int so the dispatch below compares ints, not enum members)
_ALU = int(_C.ALU)
_MULDIV = int(_C.MULDIV)
_LOAD = int(_C.LOAD)
_STORE = int(_C.STORE)
_BRANCH = int(_C.BRANCH)
_JAL = int(_C.JAL)
_JALR = int(_C.JALR)
_LUI = int(_C.LUI)
_AUIPC = int(_C.AUIPC)
_SYSTEM = int(_C.SYSTEM)
_FENCE = int(_C.FENCE)
_P_FC = int(_C.P_FC)
_P_FN = int(_C.P_FN)
_P_SWCV = int(_C.P_SWCV)
_P_LWCV = int(_C.P_LWCV)
_P_SWRE = int(_C.P_SWRE)
_P_LWRE = int(_C.P_LWRE)
_P_JAL = int(_C.P_JAL)
_P_JALR = int(_C.P_JALR)
_P_SET = int(_C.P_SET)
_P_MERGE = int(_C.P_MERGE)
_P_SYNCM = int(_C.P_SYNCM)

# hart scan orders by rotating-priority start index: _ORDER[start] is the
# deterministic probe sequence (start, start+1, ... mod 4)
_ORDER = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))

_INF = float("inf")


# ---- execute tail: table-dispatched cold instruction classes ----------------
# Hot classes (ALU/MULDIV, load, store, branch) stay inline in
# Core._execute; everything else dispatches through EXEC_TABLE.


def _exec_lui(core, hart, entry, low):
    core._finish_at(hart, entry, (low.imm << 12) & MASK32,
                    core.machine.cycle + 1)


def _exec_auipc(core, hart, entry, low):
    core._finish_at(hart, entry, (entry.pc + (low.imm << 12)) & MASK32,
                    core.machine.cycle + 1)


def _exec_jal(core, hart, entry, low):
    core._finish_at(hart, entry, entry.pc + 4, core.machine.cycle + 1)


def _exec_jalr(core, hart, entry, low):
    core._resolve_pc(hart, (entry.val0 + low.imm) & 0xFFFFFFFE)
    core._finish_at(hart, entry, entry.pc + 4, core.machine.cycle + 1)


def _exec_nop(core, hart, entry, low):
    entry.done = True


def _exec_p_set(core, hart, entry, low):
    value = p_set_value(entry.val0, core.index, hart.index)
    core._finish_at(hart, entry, value, core.machine.cycle + 1)


def _exec_p_merge(core, hart, entry, low):
    core._finish_at(hart, entry, p_merge_value(entry.val0, entry.val1),
                    core.machine.cycle + 1)


def _exec_p_fc(core, hart, entry, low):
    machine = core.machine
    now = machine.cycle
    target = core.alloc_free_hart()
    target.reserve_for_fork(hart.gid)
    hart.succ = target.gid
    machine.wake_re_waiters(target)
    hart.stats.forks += 1
    machine.stats.per_core[core.index].forks += 1
    machine.trace.record(now, core.index, hart.index, "fork",
                         "allocate hart %d" % target.gid)
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            core.index, (now, "fork", hart.gid, entry.tag, target.gid))
    core._finish_at(hart, entry, target.gid, now + 1)


def _exec_p_fn(core, hart, entry, low):
    machine = core.machine
    now = machine.cycle
    # the hart was granted by the next core (fork token protocol,
    # requested at decode); consume the oldest token
    target_gid = hart.fork_tokens.pop(0)
    hart.succ = target_gid
    hart.stats.forks += 1
    machine.stats.per_core[core.index].forks += 1
    machine.trace.record(now, core.index, hart.index, "fork",
                         "allocate hart %d" % target_gid)
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            core.index, (now, "fork", hart.gid, entry.tag, target_gid))
    core._finish_at(hart, entry, target_gid, now + 1)


def _exec_p_swcv(core, hart, entry, low):
    core.machine.schedule_cv_write(
        core, hart, entry, entry.val0 & 0xFFFF, low.imm, entry.val1)


def _exec_p_lwcv(core, hart, entry, low):
    machine = core.machine
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            core.index,
            (machine.cycle, "lwcv", hart.gid, entry.tag, low.imm))
    addr = machine.cv_address(hart, low.imm)
    machine.schedule_load(core, hart, entry, low, addr)


def _exec_p_swre(core, hart, entry, low):
    core.machine.schedule_re_send(
        core, hart, entry, entry.val0 & 0xFFFF, low.imm, entry.val1)


def _exec_p_lwre(core, hart, entry, low):
    machine = core.machine
    now = machine.cycle
    slot = low.re_slot
    value = hart.re_buffers[slot]
    hart.re_buffers[slot] = None
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            core.index, (now, "lwre", hart.gid, entry.tag, slot))
    machine.wake_re_waiters(hart, slot)
    core._finish_at(hart, entry, value, now + 1)


def _exec_p_jal(core, hart, entry, low):
    # next pc already resolved at decode; send pc+4, clear rd
    machine = core.machine
    now = machine.cycle
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            core.index,
            (now, "jsend", hart.gid, entry.tag, entry.val0 & 0xFFFF))
    machine.send_start_pc(core, hart, entry.val0 & 0xFFFF, entry.pc + 4)
    core._finish_at(hart, entry, 0, now + 1)


def _exec_p_jalr(core, hart, entry, low):
    machine = core.machine
    now = machine.cycle
    if low.rd == 0:
        core._execute_p_ret(hart, entry)
    else:
        if machine.sanitizer is not None:
            machine.sanitizer.record(
                core.index,
                (now, "jsend", hart.gid, entry.tag, entry.val0 & 0xFFFF))
        machine.send_start_pc(core, hart, entry.val0 & 0xFFFF, entry.pc + 4)
        core._resolve_pc(hart, entry.val1 & 0xFFFFFFFE)
        core._finish_at(hart, entry, 0, now + 1)


def _exec_p_syncm(core, hart, entry, low):
    hart.syncm_block = False
    hart._refresh_fetch_ok()
    entry.done = True


#: instruction class -> execute handler, for every class the inline hot
#: chain does not cover (``Core._execute``)
EXEC_TABLE = {
    _LUI: _exec_lui,
    _AUIPC: _exec_auipc,
    _JAL: _exec_jal,
    _JALR: _exec_jalr,
    _SYSTEM: _exec_nop,
    _FENCE: _exec_nop,
    _P_SET: _exec_p_set,
    _P_MERGE: _exec_p_merge,
    _P_FC: _exec_p_fc,
    _P_FN: _exec_p_fn,
    _P_SWCV: _exec_p_swcv,
    _P_LWCV: _exec_p_lwcv,
    _P_SWRE: _exec_p_swre,
    _P_LWRE: _exec_p_lwre,
    _P_JAL: _exec_p_jal,
    _P_JALR: _exec_p_jalr,
    _P_SYNCM: _exec_p_syncm,
}


class Core:
    """One core: pipeline stages, four harts, three banks."""

    __slots__ = (
        "index", "machine", "mem", "harts", "active", "idle_since",
        "sleep_until", "links", "fork_queue", "_seq", "_tag",
        "_rr_fetch", "_rr_rename", "_rr_issue", "_rr_wb", "_rr_commit",
        "_rob_size", "_wb_wake",
    )

    def __init__(self, index, machine):
        self.index = index
        self.machine = machine
        params = machine.params
        self.mem = CoreMemory(index, params)
        self.harts = [
            Hart(self, h, params.num_result_buffers,
                 machine.stats.harts[index][h])
            for h in range(params.harts_per_core)
        ]
        #: gating flag: False while no hart of this core can do pipeline
        #: work; maintained by Hart.start / the run loop (processor.py)
        self.active = False
        #: first gated-off cycle not yet charged to ``skipped_cycles`` /
        #: the gated_idle stall (see settle_idle).  Derived state, like
        #: sleep_until: never serialised, reset whenever a run loop starts
        self.idle_since = 0
        #: parking: the run loop skips this (active) core while
        #: ``sleep_until > cycle``; set by a tick that fired no stage to
        #: the core's next timer expiry, cleared by any event addressed
        #: to this domain.  The reference tick never parks: there it
        #: stays 0
        self.sleep_until = 0
        #: egress link cursors: every path this core *initiates* (requests,
        #: replies, forward/backward messages) reserves hops here, so link
        #: scheduling state is domain-local and shard-partitionable
        self.links = LinkScheduler(params.link_hop_latency)
        #: pending p_fn hart-allocation requests ((src core, parent gid)
        #: FIFO) granted as harts of this core free up
        self.fork_queue = []
        #: per-domain event sequence — with the core index it forms the
        #: partition-independent event key (see processor.post)
        self._seq = 0
        #: per-domain rename-tag counter (tags only need to be unique
        #: within a hart's lifetime, so a per-core counter suffices)
        self._tag = 0
        # rotating-priority pointers, one per stage
        self._rr_fetch = 0
        self._rr_rename = 0
        self._rr_issue = 0
        self._rr_wb = 0
        self._rr_commit = 0
        self._rob_size = params.rob_size
        #: no filled writeback buffer can drain before this cycle (inf
        #: when none is filled) — the writeback stage's skip gate.  A
        #: lower bound, not the exact minimum: a stale-low gate costs
        #: one fruitless scan, which then re-derives it
        self._wb_wake = _INF

    # ---- gating ------------------------------------------------------------

    def activate(self):
        """Mark this core runnable (idempotent; called on hart wakeup)."""
        if not self.active:
            machine = self.machine
            self.settle_idle(machine.cycle)
            self.active = True
            machine._num_active += 1
            machine._active_cores = None  # the run loop rebuilds its list

    def settle_idle(self, now):
        """Charge the gated-off cycles [idle_since, now) in one step.

        A gated core costs the run loop nothing per cycle; its idle span
        is closed here — on wakeup, before an event handler charges
        telemetry in this domain, and wherever state leaves the loop
        (``Metrics.idle`` splits the span at window edges, so the
        samples equal the cycle-by-cycle charge).
        """
        delta = now - self.idle_since
        if delta > 0:
            machine = self.machine
            machine.stats.per_core[self.index].skipped_cycles += delta
            if machine.metrics is not None:
                machine.metrics.idle(self.index, self.idle_since, delta)
            self.idle_since = now

    # ---- snapshot/restore --------------------------------------------------

    def state_dict(self):
        return {
            "active": self.active,
            "seq": self._seq,
            "tag": self._tag,
            "rr": [self._rr_fetch, self._rr_rename, self._rr_issue,
                   self._rr_wb, self._rr_commit],
            "links": self.links.state_dict(),
            "fork_queue": [list(entry) for entry in self.fork_queue],
            "mem": self.mem.state_dict(),
            "harts": [hart.state_dict() for hart in self.harts],
        }

    def load_state_dict(self, state):
        self.active = state["active"]
        self.idle_since = self.machine.cycle
        self.sleep_until = 0
        self._seq = state["seq"]
        self._tag = state["tag"]
        (self._rr_fetch, self._rr_rename, self._rr_issue,
         self._rr_wb, self._rr_commit) = state["rr"]
        self.links.load_state_dict(state["links"])
        self.fork_queue = [tuple(entry) for entry in state["fork_queue"]]
        self.mem.load_state_dict(state["mem"])
        for hart, hart_state in zip(self.harts, state["harts"]):
            hart.load_state_dict(hart_state)
        wake = _INF
        for hart in self.harts:
            rb = hart.rb
            if rb.busy and rb.value is not None and rb.ready_at < wake:
                wake = rb.ready_at
        self._wb_wake = wake

    # ---- hart selection ----------------------------------------------------

    def alloc_free_hart(self):
        """Lowest-numbered free hart, or None (deterministic)."""
        for hart in self.harts:
            if hart.is_free():
                return hart
        return None

    # ---- issue / execute ---------------------------------------------------

    def _finish_at(self, hart, entry, value, ready_at):
        """Route a register result through the writeback buffer."""
        if entry.low.writes:
            hart.rb.occupy(entry)
            hart.rb.fill(value, ready_at)
        else:
            entry.done = True

    def _resolve_pc(self, hart, target):
        hart.pc = target & MASK32
        hart.awaiting_nextpc = False
        hart.fetch_ready_at = self.machine.cycle + 1
        hart.fetch_ok = (not hart.syncm_block and hart.fetch_buf is None
                         and not hart.reserved)

    def _execute(self, hart, entry):
        machine = self.machine
        now = machine.cycle
        low = entry.low
        cls = low.cls

        if cls == _LOAD:
            addr = (entry.val0 + low.imm) & MASK32
            machine.schedule_load(self, hart, entry, low, addr)
            hart.stats.loads += 1
        elif cls == _STORE:
            addr = (entry.val0 + low.imm) & MASK32
            machine.schedule_store(self, hart, entry, low, addr, entry.val1)
            hart.stats.stores += 1
        elif cls == _BRANCH:
            taken = low.op(entry.val0, entry.val1)
            self._resolve_pc(
                hart, entry.pc + low.imm if taken else entry.pc + 4)
            entry.done = True
        elif cls == _ALU or cls == _MULDIV:
            # the reference tick's path; tick() below handles these
            # inline in its issue stage
            a = entry.val0
            b = entry.val1 if low.nreads == 2 else low.imm
            self._finish_at(hart, entry, low.op(a, b), now + low.latency)
        else:
            EXEC_TABLE[cls](self, hart, entry, low)

    def _execute_p_ret(self, hart, entry):
        """p_ret = p_jalr zero, ra, t0: decide the ending case (paper §4)."""
        ra = entry.val0
        t0 = entry.val1
        if ra == 0:
            if t0 == 0xFFFFFFFF:
                action = ("exit", None, None)
            elif join_hart(t0) == hart.gid:
                action = ("wait", None, None)
            else:
                action = ("end", None, None)
        else:
            action = ("join", join_hart(t0), ra)
        entry.ret_action = action
        entry.done = True
        # no further fetch on this hart until a join or a new fork
        hart.pc = None
        hart.awaiting_nextpc = False
        hart.fetch_ok = False

    def _commit_p_ret(self, hart, head):
        machine = self.machine
        now = machine.cycle
        kind, join_gid, join_addr = head.ret_action
        machine.trace.record(now, self.index, hart.index, "p_ret", kind)
        sanitizer = machine.sanitizer
        if sanitizer is not None:
            # receive the predecessor's signal *before* sending ours so
            # the ordered-release chain accumulates transitively
            if hart.pred is not None:
                sanitizer.record(
                    self.index, (now, "pred", hart.gid, head.tag))
            if hart.succ is not None:
                sanitizer.record(
                    self.index, (now, "esig", hart.gid, head.tag, hart.succ))
        # consume the predecessor link, propagate the ending signal
        hart.pred = None
        hart.pred_done = False
        if hart.succ is not None:
            machine.send_ending_signal(self, hart, hart.succ)
            hart.succ = None
        if kind == "exit":
            machine.halt("exit")
        elif kind == "wait":
            hart.pc = None
            hart.waiting_join = True
            if hart.pending_join is not None:
                addr = hart.pending_join
                hart.pending_join = None
                if sanitizer is not None:
                    sanitizer.record(
                        self.index, (now, "jrecv", hart.gid, head.tag))
                hart.start(addr, now)
        elif kind == "end":
            hart.end()
        elif kind == "join":
            hart.end()
            machine.stats.per_core[self.index].joins += 1
            if join_gid == hart.gid:
                # single-member team: the last member is the join hart —
                # resume directly at the join address
                hart.start(join_addr, now)
            else:
                if sanitizer is not None:
                    sanitizer.record(
                        self.index,
                        (now, "jretsend", hart.gid, head.tag, join_gid))
                machine.send_join(self, hart, join_gid, join_addr)
        else:
            raise AssertionError(kind)
        # a hart may just have become free: grant the oldest queued p_fn
        # request (after the restart cases above, so a self-resuming hart
        # is never stolen)
        if self.fork_queue:
            child = self.alloc_free_hart()
            if child is not None:
                src_core_index, parent_gid = self.fork_queue.pop(0)
                machine.grant_fork(self, child, src_core_index, parent_gid)

    # ---- per-cycle ----------------------------------------------------------

    def tick(self):
        """Run the five stages for one cycle (commit-side first).

        All five stages are inlined here — this method runs once per
        active core per simulated cycle and would otherwise spend most
        of its time on Python call overhead.  Each stage block selects
        at most one hart by deterministic rotating priority.
        Stage-for-stage identical to ``ReferenceCore.tick``: same
        arbitration, same single-hart-per-stage selection, same
        metrics/sanitizer call sites — only the eligibility probing is
        restructured around the hoisted scoreboard flags (see the module
        doc).  A stage that fires implies the core held work, so the
        unmetered tick tests "any work at all?" only when nothing fired,
        and then either gates off or parks (sets ``sleep_until``).

        Returns True when any hart had pipeline work; False means the
        core is quiescent and the run loop may gate it off until a
        wakeup (``Hart.start``) re-activates it.
        """
        harts = self.harts
        machine = self.machine
        metrics = machine.metrics
        cycle = machine.cycle
        if metrics is not None:
            # metered: the reference tick's order, so the idle / roll
            # charges land exactly where it makes them
            for hart in harts:
                if (hart.pc is not None or hart.rob
                        or hart.fetch_buf is not None):
                    break
            else:
                metrics.idle(self.index, cycle, 1)
                return False
            if cycle >= metrics.edges[self.index]:
                metrics.roll(self.index, cycle)
        committed = False
        fired = False
        order = _ORDER

        # ---- commit ----
        for h in order[self._rr_commit]:
            hart = harts[h]
            rob = hart.rob
            if not rob:
                continue
            head = rob[0]
            if not head.done:
                continue
            if head.ret_action is not None:
                if hart.pred is not None and not hart.pred_done:
                    continue
                if hart.outstanding_mem != 0:
                    continue
            self._rr_commit = (h + 1) & 3
            rob.pop(0)
            hart.stats.retired += 1
            committed = True
            low = head.low
            if low.trap:
                if low.trap == 1:
                    machine.halt("ebreak")
                else:
                    machine.error("ecall is not supported on bare-metal LBP")
            elif head.ret_action is not None:
                self._commit_p_ret(hart, head)
            break

        # ---- writeback (gated on the earliest filled ready_at) ----
        if self._wb_wake <= cycle:
            wake = _INF
            for h in order[self._rr_wb]:
                hart = harts[h]
                rb = hart.rb
                if not rb.busy or rb.value is None:
                    continue
                if rb.ready_at <= cycle:
                    self._rr_wb = (h + 1) & 3
                    tag = rb.tag
                    value = rb.value
                    reg = rb.reg
                    rename = hart.rename
                    if reg != 0 and rename[reg] == tag:
                        hart.regs[reg] = value
                        rename[reg] = None
                    for waiter in hart.it:
                        hit = False
                        if waiter.wait0 == tag:
                            waiter.wait0 = None
                            waiter.val0 = value
                            waiter.nwaits -= 1
                            hit = True
                        if waiter.wait1 == tag:
                            waiter.wait1 = None
                            waiter.val1 = value
                            waiter.nwaits -= 1
                            hit = True
                        if hit and waiter.nwaits == 0:
                            hart.n_ready += 1
                    rb.entry.done = True
                    rb.busy = False
                    rb.tag = None
                    rb.value = None
                    rb.entry = None
                    # one drain per cycle: the next is no earlier than
                    # cycle + 1 (cheaper than the exact minimum over the
                    # other harts on the ~90% of saturated ticks that
                    # drain; a low gate only costs one scan)
                    wake = cycle + 1
                    fired = True
                    break
                if rb.ready_at < wake:
                    wake = rb.ready_at
            # exact when the scan drained nothing (the gate was stale)
            self._wb_wake = wake

        # ---- issue (gated on any operand-ready waiting instruction) ----
        for h in order[self._rr_issue]:
            hart = harts[h]
            if not hart.n_ready:
                continue
            it = hart.it
            entry = None
            older_store_pending = False
            rb_busy = hart.rb.busy
            for candidate in it:
                if candidate.nwaits == 0:
                    low = candidate.low
                    if low.writes and rb_busy:
                        pass
                    else:
                        kind = low.issue_kind
                        if kind == 0:
                            entry = candidate
                            break
                        elif kind == 1:
                            if not older_store_pending:
                                entry = candidate
                                break
                        elif kind == 2:
                            if hart.re_buffers[low.re_slot] is not None:
                                entry = candidate
                                break
                        elif kind == 3:
                            if self.alloc_free_hart() is not None:
                                entry = candidate
                                break
                        elif kind == 4:
                            if hart.fork_tokens:
                                entry = candidate
                                break
                        else:  # p_syncm
                            if (candidate is it[0]
                                    and hart.outstanding_mem == 0):
                                entry = candidate
                                break
                if candidate.low.store_like:
                    older_store_pending = True
            if entry is None:
                continue
            self._rr_issue = (h + 1) & 3
            it.remove(entry)
            hart.n_ready -= 1
            entry.issued = True
            low = entry.low
            cls = low.cls
            if cls <= _MULDIV:  # ALU (0) or MULDIV (1): the hot path
                a = entry.val0
                b = entry.val1 if low.nreads == 2 else low.imm
                if low.writes:
                    rb = hart.rb
                    rb.busy = True
                    rb.tag = entry.tag
                    rb.reg = low.rd
                    rb.value = low.op(a, b) & MASK32
                    ready_at = cycle + low.latency
                    rb.ready_at = ready_at
                    rb.entry = entry
                    if ready_at < self._wb_wake:
                        self._wb_wake = ready_at
                else:
                    low.op(a, b)  # rd == x0: result discarded
                    entry.done = True
            else:
                self._execute(hart, entry)
            fired = True
            break

        # ---- decode / rename ----
        rob_size = self._rob_size
        for h in order[self._rr_rename]:
            hart = harts[h]
            fetch_buf = hart.fetch_buf
            if fetch_buf is None or len(hart.rob) >= rob_size:
                continue
            self._rr_rename = (h + 1) & 3
            pc, low = fetch_buf
            hart.fetch_buf = None
            tag = self._tag + 1
            self._tag = tag

            nwaits = 0
            val0 = val1 = wait0 = wait1 = None
            rename = hart.rename
            nreads = low.nreads
            if nreads:
                reg = low.r1
                if reg == 0:
                    val0 = 0
                else:
                    wait0 = rename[reg]
                    if wait0 is None:
                        val0 = hart.regs[reg]
                    else:
                        nwaits = 1
                if nreads == 2:
                    reg = low.r2
                    if reg == 0:
                        val1 = 0
                    else:
                        wait1 = rename[reg]
                        if wait1 is None:
                            val1 = hart.regs[reg]
                        else:
                            nwaits += 1
            entry = Entry(tag, low, pc, val0, val1, wait0, wait1, nwaits)
            hart.it.append(entry)
            hart.rob.append(entry)
            if nwaits == 0:
                hart.n_ready += 1
            if low.writes:
                rename[low.rd] = tag
            dec = low.dec_kind
            if dec == 5:  # p_fn: fall through + request the fork token
                machine.send_fork_req(self, hart)

            # next-pc determination (fetch resumes when it is known)
            if dec == 0 or dec == 5:
                hart.pc = pc + 4
                hart.awaiting_nextpc = False
                hart.fetch_ready_at = cycle + 1
                hart.fetch_ok = not hart.syncm_block
            elif dec == 2:
                pass  # resolved at issue; hart stays suspended
            elif dec == 1:
                hart.pc = (pc + low.imm) & MASK32
                hart.awaiting_nextpc = False
                hart.fetch_ready_at = cycle + 1
                hart.fetch_ok = not hart.syncm_block
            elif dec == 3:
                hart.pc = None  # halts (ebreak) / traps (ecall) at commit
                hart.awaiting_nextpc = False
            else:  # dec == 4, p_syncm: fall through, block further fetch
                hart.pc = pc + 4
                hart.awaiting_nextpc = False
                hart.fetch_ready_at = cycle + 1
                hart.syncm_block = True
            fired = True
            break

        # ---- fetch (gated on the collapsed predicate) ----
        for h in order[self._rr_fetch]:
            hart = harts[h]
            if hart.fetch_ok and cycle >= hart.fetch_ready_at:
                self._rr_fetch = (h + 1) & 3
                pc = hart.pc
                low = machine.lowered.get(pc)
                if low is None:  # non-code address: the slow error path
                    low = machine.fetch_instruction(pc, hart)
                hart.fetch_buf = (pc, low)
                hart.awaiting_nextpc = True  # suspended until next pc known
                hart.fetch_ok = False
                fired = True
                break
        if metrics is not None:
            if not committed:
                metrics.stall(self, cycle)
        elif not (fired or committed):
            # No stage fired, so this core's state is frozen until one
            # of its two cycle-reading predicates turns true — a filled
            # writeback buffer's ready_at, a fetch-ready hart's
            # fetch_ready_at, both > cycle or a stage had fired — or an
            # event addressed to this domain runs (dispatch clears
            # sleep_until): gate off when no hart holds work, else park.
            wake = self._wb_wake
            busy = False
            for hart in harts:
                if hart.fetch_ok:
                    busy = True
                    if hart.fetch_ready_at < wake:
                        wake = hart.fetch_ready_at
                elif (hart.pc is not None or hart.rob
                        or hart.fetch_buf is not None):
                    busy = True
            if not busy:
                return False
            self.sleep_until = wake
        return True
