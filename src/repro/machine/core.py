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

``Core.tick`` is the compiled tick, ``machine/_tick.c``: one C function
over the state defined here and in ``machine/hart.py``, bound to the
class by ``machine/native.py`` when it could build and load it (how it
is built for speed — stage gating, inline issue, parking — is written up
at the top of that file); so is ``Core.settle_idle``, the idle settlement
(``machine/_window.h``).
``machine/reference.py`` keeps a small, slow tick and settlement over the
same state:
the oracle the tests compare the compiled one against
(``LBP(backend="interp")``), and the only tick on a host without a C
compiler.  Everything the stages need *from the machine* — loads,
stores, the X_PAR classes, the p_ret commit — is the Python below, which
both ticks call.
"""

from repro.isa.semantics import MASK32, join_hart, p_merge_value, p_set_value
from repro.isa.spec import InstrClass
from repro.machine.hart import NEVER, Hart
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
# deterministic probe sequence (start, start+1, ... mod 4) — for the
# reference tick and the stall classifier (observe/metrics.py); the
# compiled tick computes (start + k) & 3
_ORDER = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))


# ---- execute tail: table-dispatched cold instruction classes ----------------
# Hot classes (ALU/MULDIV, load, store, branch) stay inline in
# Core._execute; everything else dispatches through EXEC_TABLE.  The
# compiled tick issues lui, auipc and jal itself, so those three handlers
# serve the reference tick only.


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


def _fork(core, hart, entry, target_gid):
    """The tail p_fc and p_fn share: hart *target_gid* is the successor."""
    machine = core.machine
    now = machine.cycle
    hart.succ = target_gid
    hart.stats.forks += 1
    machine.stats.per_core[core.index].forks += 1
    if machine.trace.enabled:
        machine.trace.record(now, core.index, hart.index, "fork",
                             (target_gid,))
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            core.index, (now, "fork", hart.gid, entry.tag, target_gid))
    core._finish_at(hart, entry, target_gid, now + 1)


def _exec_p_fc(core, hart, entry, low):
    target = core.alloc_free_hart()
    target.reserve_for_fork(hart.gid)
    core.machine.wake_re_waiters(target)
    _fork(core, hart, entry, target.gid)


def _exec_p_fn(core, hart, entry, low):
    # the hart was granted by the next core (fork token protocol,
    # requested at decode); consume the oldest token
    _fork(core, hart, entry, hart.fork_tokens.pop(0))


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
    machine.schedule_access(core, hart, entry, low, addr)


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


def _send_start_pc(core, hart, entry):
    """p_jal / p_jalr: the allocated hart (rs1's low half) starts at pc+4."""
    machine = core.machine
    if machine.sanitizer is not None:
        machine.sanitizer.record(
            core.index,
            (machine.cycle, "jsend", hart.gid, entry.tag, entry.val0 & 0xFFFF))
    machine.send_start_pc(core, hart, entry.val0 & 0xFFFF, entry.pc + 4)


def _exec_p_jal(core, hart, entry, low):
    # next pc already resolved at decode; send pc+4, clear rd
    _send_start_pc(core, hart, entry)
    core._finish_at(hart, entry, 0, core.machine.cycle + 1)


def _exec_p_jalr(core, hart, entry, low):
    if low.rd == 0:
        core._execute_p_ret(hart, entry)
    else:
        _send_start_pc(core, hart, entry)
        core._resolve_pc(hart, entry.val1 & 0xFFFFFFFE)
        core._finish_at(hart, entry, 0, core.machine.cycle + 1)


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
        self.links = LinkScheduler(params.link_hop_latency, params.num_cores)
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
        #: no filled writeback buffer can drain before this cycle (NEVER
        #: when none is filled) — the writeback stage's skip gate.  A
        #: lower bound, not the exact minimum: a stale-low gate costs
        #: one fruitless scan, which then re-derives it
        self._wb_wake = NEVER

    # ---- gating ------------------------------------------------------------

    def activate(self):
        """Mark this core runnable (idempotent; called on hart wakeup)."""
        if not self.active:
            machine = self.machine
            self.settle_idle(machine.cycle)
            self.active = True
            machine._num_active += 1
            machine._active_cores = None  # the run loop rebuilds its list

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
        wake = NEVER
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
            machine.schedule_access(self, hart, entry, low, addr)
            hart.stats.loads += 1
        elif cls == _STORE:
            addr = (entry.val0 + low.imm) & MASK32
            machine.schedule_access(self, hart, entry, low, addr, entry.val1)
            hart.stats.stores += 1
        elif cls == _BRANCH:
            taken = low.op(entry.val0, entry.val1)
            self._resolve_pc(
                hart, entry.pc + low.imm if taken else entry.pc + 4)
            entry.done = True
        elif cls == _ALU or cls == _MULDIV:
            # this arm and the branch one above are the reference tick's
            # path; the compiled tick issues both itself (_tick.c)
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
        if machine.trace.enabled:
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
