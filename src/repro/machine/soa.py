"""Struct-of-arrays execution backend: the same machine, restructured.

``LBP(backend="soa")`` swaps :class:`~repro.machine.core.Core` for
:class:`SoACore` — a drop-in core whose per-cycle loop is restructured
for speed while staying **bit-exact** with the interpreter backend (the
golden trace digests, snapshot bytes and differential fuzzer all pin
this; see ``tests/integration/test_backend_parity.py``).

What changes (and why it cannot change behaviour):

* **Merged instruction-window entries.** The interpreter allocates an
  ``ITEntry`` + ``ROBEntry`` pair plus two operand lists per
  instruction.  Here one :class:`SoAEntry` plays both roles
  (``entry.rob`` is the entry itself) and the operand lists are
  scalarised into ``val0/val1/wait0/wait1`` slots — RV32 instructions
  read at most two sources.  Everything that walks the window —
  the event handlers' ``_rob_by_tag``, the metrics classifier's
  ``candidate.rob is head``, the writeback buffer's ``rb.rob`` — sees
  the same object graph it saw before.

* **Struct-of-arrays stage gating.**  The per-stage eligibility
  predicates are hoisted out of the stage scans into flat per-hart /
  per-core scoreboard fields maintained at the state-transition sites:
  ``fetch_ok`` (the five-term fetch predicate collapsed to one flag),
  ``n_ready`` (count of operand-ready waiting instructions, gating the
  issue scan) and ``_wb_wake`` (a lower bound on the next cycle a
  filled writeback buffer can drain, gating the writeback scan).  A
  stage whose gate is closed is skipped without touching any hart.

* **Table-dispatched semantics.**  Decode and issue switch on the
  precomputed ``LoweredInstr.dec_kind`` / ``issue_kind`` ints, and the
  execute tail dispatches through :data:`EXEC_TABLE` (class → handler)
  instead of a long if-chain; the four hot classes (ALU/MULDIV, load,
  store, branch) stay inline.

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
from repro.machine.core import Core, _ORDER
from repro.machine.hart import Hart, ResultBuffer
from repro.isa.spec import InstrClass

_C = InstrClass
_ALU = int(_C.ALU)
_MULDIV = int(_C.MULDIV)
_LOAD = int(_C.LOAD)
_STORE = int(_C.STORE)
_BRANCH = int(_C.BRANCH)
_JALR = int(_C.JALR)
_LUI = int(_C.LUI)
_AUIPC = int(_C.AUIPC)
_JAL = int(_C.JAL)
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

_INF = float("inf")


class SoAEntry(object):
    """One in-flight instruction: IT entry and ROB slot merged.

    The interpreter's split ``ITEntry``/``ROBEntry`` pair is collapsed
    into a single object; ``rob`` resolves to the entry itself so every
    cross-reference in the shared machinery (``entry.rob.done``,
    ``rb.rob``, ``candidate.rob is head``) keeps working.  ``vals`` /
    ``waits`` reconstruct the interpreter's operand lists so the base
    ``Hart.state_dict`` serialises identical snapshot bytes.
    """

    __slots__ = ("tag", "low", "pc", "val0", "val1", "wait0", "wait1",
                 "nwaits", "issued", "done", "ret_action")

    def __init__(self, tag, low, pc, val0, val1, wait0, wait1, nwaits):
        self.tag = tag
        self.low = low
        self.pc = pc
        self.val0 = val0
        self.val1 = val1
        self.wait0 = wait0
        self.wait1 = wait1
        self.nwaits = nwaits
        self.issued = False
        self.done = False
        self.ret_action = None

    @property
    def rob(self):
        return self

    @property
    def vals(self):
        nreads = self.low.nreads
        if nreads == 0:
            return []
        if nreads == 1:
            return [self.val0]
        return [self.val0, self.val1]

    @property
    def waits(self):
        nreads = self.low.nreads
        if nreads == 0:
            return []
        if nreads == 1:
            return [self.wait0]
        return [self.wait0, self.wait1]

    def sources_ready(self):
        return self.nwaits == 0


class SoAResultBuffer(ResultBuffer):
    """Writeback buffer that maintains the owning core's wb gate."""

    __slots__ = ("hart",)

    def __init__(self, hart):
        ResultBuffer.__init__(self)
        self.hart = hart

    def fill(self, value, ready_at):
        self.value = value & MASK32
        self.ready_at = ready_at
        core = self.hart.core
        if ready_at < core._wb_wake:
            core._wb_wake = ready_at


class SoAHart(Hart):
    """Hart with the hoisted scoreboard flags.

    ``fetch_ok`` is the fetch stage's five-term predicate collapsed to
    one bool, re-derived at every site that mutates a term; ``n_ready``
    counts waiting instructions with all operands present and gates the
    issue scan.  Both are derived state — snapshots neither carry nor
    need them (``load_state_dict`` recomputes).
    """

    __slots__ = ("fetch_ok", "n_ready")

    def __init__(self, core, index, num_result_buffers, stats):
        Hart.__init__(self, core, index, num_result_buffers, stats)
        self.rb = SoAResultBuffer(self)
        self.fetch_ok = False
        self.n_ready = 0

    def _refresh_fetch_ok(self):
        self.fetch_ok = (
            self.pc is not None
            and not self.awaiting_nextpc
            and not self.syncm_block
            and self.fetch_buf is None
            and not self.reserved
        )

    def start(self, pc, cycle):
        Hart.start(self, pc, cycle)
        self.fetch_ok = self.fetch_buf is None

    def end(self):
        Hart.end(self)
        self.fetch_ok = False

    def reserve_for_fork(self, parent_gid):
        Hart.reserve_for_fork(self, parent_gid)
        self.fetch_ok = False

    def load_state_dict(self, state):
        machine = self.core.machine
        lowered = machine.lowered_at
        self.regs = list(state["regs"])
        self.rename = list(state["rename"])
        self.pc = state["pc"]
        self.awaiting_nextpc = state["awaiting_nextpc"]
        self.fetch_ready_at = state["fetch_ready_at"]
        self.syncm_block = state["syncm_block"]
        fetch_pc = state["fetch_buf"]
        self.fetch_buf = None if fetch_pc is None else (
            fetch_pc, lowered(fetch_pc))
        # rebuild merged entries: the snapshot's "rob" list carries every
        # in-flight instruction, its "it" list the unissued subset (both
        # in program order); join them by tag
        it_by_tag = {e["tag"]: e for e in state["it"]}
        self.rob = rob = []
        self.it = it = []
        entry_by_tag = {}
        for entry_state in state["rob"]:
            tag = entry_state["tag"]
            pc = entry_state["pc"]
            it_state = it_by_tag.get(tag)
            if it_state is not None:
                vals = it_state["vals"]
                waits = it_state["waits"]
                val0 = vals[0] if vals else None
                val1 = vals[1] if len(vals) == 2 else None
                wait0 = waits[0] if waits else None
                wait1 = waits[1] if len(waits) == 2 else None
                nwaits = sum(1 for wait in waits if wait is not None)
                entry = SoAEntry(tag, lowered(pc), pc,
                                 val0, val1, wait0, wait1, nwaits)
                entry.issued = it_state["issued"]
                it.append(entry)
            else:
                entry = SoAEntry(tag, lowered(pc), pc,
                                 None, None, None, None, 0)
                entry.issued = True
            entry.done = entry_state["done"]
            if entry_state["ret_action"] is not None:
                entry.ret_action = tuple(entry_state["ret_action"])
            rob.append(entry)
            entry_by_tag[tag] = entry
        rb_state = state["rb"]
        rb = self.rb
        rb.busy = rb_state["busy"]
        rb.tag = rb_state["tag"]
        rb.reg = rb_state["reg"]
        rb.value = rb_state["value"]
        rb.ready_at = rb_state["ready_at"]
        rb.rob = entry_by_tag[rb.tag] if rb.busy else None
        self.re_buffers = list(state["re_buffers"])
        self.re_waiters = [
            [tuple(desc) for desc in waiters]
            for waiters in state["re_waiters"]
        ]
        self.outstanding_mem = state["outstanding_mem"]
        self.reserved = state["reserved"]
        self.waiting_join = state["waiting_join"]
        self.pending_join = state["pending_join"]
        self.pred = state["pred"]
        self.pred_done = state["pred_done"]
        self.succ = state["succ"]
        self.fork_tokens = list(state["fork_tokens"])
        self.n_ready = sum(1 for e in it if e.nwaits == 0)
        self._refresh_fetch_ok()


# ---- execute tail: table-dispatched cold instruction classes ----------------
# Hot classes (ALU/MULDIV, load, store, branch) stay inline in
# SoACore._execute; everything else dispatches through EXEC_TABLE.


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
#: chain does not cover (``SoACore._execute``)
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


class SoACore(Core):
    """Drop-in :class:`Core` with the restructured per-cycle loop."""

    __slots__ = ("_wb_wake",)

    hart_cls = SoAHart

    def __init__(self, index, machine):
        Core.__init__(self, index, machine)
        #: no filled writeback buffer can drain before this cycle (inf
        #: when none is filled) — the writeback stage's skip gate.  A
        #: lower bound, not the exact minimum: a stale-low gate costs
        #: one fruitless scan, which then re-derives it
        self._wb_wake = _INF

    # ---- snapshot/restore ---------------------------------------------------

    def load_state_dict(self, state):
        Core.load_state_dict(self, state)
        self._recompute_wb_wake()

    def _recompute_wb_wake(self):
        wake = _INF
        for hart in self.harts:
            rb = hart.rb
            if rb.busy and rb.value is not None and rb.ready_at < wake:
                wake = rb.ready_at
        self._wb_wake = wake

    # ---- issue / execute ----------------------------------------------------

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
            # reached only via load_state_dict-resumed edge paths; the
            # tick's issue stage handles ALU inline
            a = entry.val0
            b = entry.val1 if low.nreads == 2 else low.imm
            self._finish_at(hart, entry, low.op(a, b), now + low.latency)
        else:
            EXEC_TABLE[cls](self, hart, entry, low)

    def _execute_p_ret(self, hart, entry):
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

    # ---- per-cycle ----------------------------------------------------------

    def tick(self):
        """The interpreter tick, with gated stage scans (see module doc).

        Stage-for-stage identical to ``Core.tick``: same rotating
        arbitration, same single-hart-per-stage selection, same
        metrics/sanitizer call sites — only the eligibility probing is
        restructured around the hoisted scoreboard flags.  A stage that
        fires implies the core held work, so the unmetered tick tests
        "any work at all?" only when nothing fired, and then either
        gates off (returns False) or parks (sets ``sleep_until``).
        """
        harts = self.harts
        machine = self.machine
        metrics = machine.metrics
        cycle = machine.cycle
        if metrics is not None:
            # metered: the interpreter's order, so the idle / roll
            # charges land exactly where its tick makes them
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
                    rb.rob.done = True
                    rb.busy = False
                    rb.tag = None
                    rb.value = None
                    rb.rob = None
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
                    rb.rob = entry
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
            entry = SoAEntry(tag, low, pc, val0, val1, wait0, wait1, nwaits)
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
