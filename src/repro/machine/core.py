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
"""

from repro.isa.semantics import join_hart, p_merge_value, p_set_value
from repro.isa.spec import InstrClass
from repro.machine.hart import Hart, ITEntry, ROBEntry
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


class Core:
    """One core: pipeline stages, four harts, three banks."""

    __slots__ = (
        "index", "machine", "mem", "harts", "active", "idle_since",
        "sleep_until", "links", "fork_queue", "_seq", "_tag",
        "_rr_fetch", "_rr_rename", "_rr_issue", "_rr_wb", "_rr_commit",
        "_rob_size",
    )

    #: hart factory — the SoA backend (machine/soa.py) overrides this so
    #: SoACore builds SoAHart instances through the shared __init__
    hart_cls = Hart

    def __init__(self, index, machine):
        self.index = index
        self.machine = machine
        params = machine.params
        self.mem = CoreMemory(index, params)
        hart_cls = self.hart_cls
        self.harts = [
            hart_cls(self, h, params.num_result_buffers,
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
        #: to this domain.  Only the SoA tick parks; here it stays 0
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

    # ---- hart selection ----------------------------------------------------

    def alloc_free_hart(self):
        """Lowest-numbered free hart, or None (deterministic)."""
        for hart in self.harts:
            if hart.is_free():
                return hart
        return None

    # ---- issue / execute ---------------------------------------------------

    def _rob_entry(self, hart, tag):
        for rob_entry in hart.rob:
            if rob_entry.tag == tag:
                return rob_entry
        raise AssertionError("tag %d not in ROB of hart %d" % (tag, hart.gid))

    def _finish_at(self, hart, entry, value, ready_at):
        """Route a register result through the writeback buffer."""
        if entry.low.writes:
            hart.rb.occupy(entry.tag, entry.low.rd, entry.rob)
            hart.rb.fill(value, ready_at)
        else:
            entry.rob.done = True

    def _resolve_pc(self, hart, target):
        hart.pc = target & 0xFFFFFFFF
        hart.awaiting_nextpc = False
        hart.fetch_ready_at = self.machine.cycle + 1

    def _execute(self, hart, entry):
        machine = self.machine
        now = machine.cycle
        low = entry.low
        cls = low.cls
        vals = entry.vals

        if cls == _ALU or cls == _MULDIV:
            # the single hottest path: compute and route the result
            # through the writeback buffer with _finish_at inlined
            a = vals[0]
            b = vals[1] if len(vals) == 2 else low.imm
            value = low.op(a, b)
            if low.writes:
                rb = hart.rb
                rb.busy = True
                rb.tag = entry.tag
                rb.reg = low.rd
                rb.value = value & 0xFFFFFFFF
                rb.ready_at = now + low.latency
                rb.rob = entry.rob
            else:
                entry.rob.done = True
        elif cls == _LUI:
            self._finish_at(hart, entry, (low.imm << 12) & 0xFFFFFFFF, now + 1)
        elif cls == _AUIPC:
            self._finish_at(hart, entry, (entry.pc + (low.imm << 12)) & 0xFFFFFFFF, now + 1)
        elif cls == _JAL:
            self._finish_at(hart, entry, entry.pc + 4, now + 1)
        elif cls == _JALR:
            self._resolve_pc(hart, (vals[0] + low.imm) & 0xFFFFFFFE)
            self._finish_at(hart, entry, entry.pc + 4, now + 1)
        elif cls == _BRANCH:
            taken = low.op(vals[0], vals[1])
            self._resolve_pc(hart, entry.pc + low.imm if taken else entry.pc + 4)
            entry.rob.done = True
        elif cls == _LOAD:
            addr = (vals[0] + low.imm) & 0xFFFFFFFF
            machine.schedule_load(self, hart, entry, low, addr)
            hart.stats.loads += 1
        elif cls == _STORE:
            addr = (vals[0] + low.imm) & 0xFFFFFFFF
            machine.schedule_store(self, hart, entry, low, addr, vals[1])
            hart.stats.stores += 1
        elif cls == _SYSTEM or cls == _FENCE:
            entry.rob.done = True
        elif cls == _P_SET:
            value = p_set_value(vals[0], self.index, hart.index)
            self._finish_at(hart, entry, value, now + 1)
        elif cls == _P_MERGE:
            self._finish_at(hart, entry, p_merge_value(vals[0], vals[1]), now + 1)
        elif cls == _P_FC:
            target = self.alloc_free_hart()
            target.reserve_for_fork(hart.gid)
            hart.succ = target.gid
            machine.wake_re_waiters(target)
            hart.stats.forks += 1
            machine.stats.per_core[self.index].forks += 1
            machine.trace.record(now, self.index, hart.index, "fork",
                                 "allocate hart %d" % target.gid)
            if machine.sanitizer is not None:
                machine.sanitizer.record(
                    self.index,
                    (now, "fork", hart.gid, entry.tag, target.gid))
            self._finish_at(hart, entry, target.gid, now + 1)
        elif cls == _P_FN:
            # the hart was granted by the next core (fork token protocol,
            # requested at decode); consume the oldest token
            target_gid = hart.fork_tokens.pop(0)
            hart.succ = target_gid
            hart.stats.forks += 1
            machine.stats.per_core[self.index].forks += 1
            machine.trace.record(now, self.index, hart.index, "fork",
                                 "allocate hart %d" % target_gid)
            if machine.sanitizer is not None:
                machine.sanitizer.record(
                    self.index,
                    (now, "fork", hart.gid, entry.tag, target_gid))
            self._finish_at(hart, entry, target_gid, now + 1)
        elif cls == _P_SWCV:
            machine.schedule_cv_write(
                self, hart, entry, vals[0] & 0xFFFF, low.imm, vals[1])
        elif cls == _P_LWCV:
            if machine.sanitizer is not None:
                machine.sanitizer.record(
                    self.index, (now, "lwcv", hart.gid, entry.tag, low.imm))
            addr = machine.cv_address(hart, low.imm)
            machine.schedule_load(self, hart, entry, low, addr)
        elif cls == _P_SWRE:
            machine.schedule_re_send(
                self, hart, entry, vals[0] & 0xFFFF, low.imm, vals[1])
        elif cls == _P_LWRE:
            slot = low.re_slot
            value = hart.re_buffers[slot]
            hart.re_buffers[slot] = None
            if machine.sanitizer is not None:
                machine.sanitizer.record(
                    self.index, (now, "lwre", hart.gid, entry.tag, slot))
            machine.wake_re_waiters(hart, slot)
            self._finish_at(hart, entry, value, now + 1)
        elif cls == _P_JAL:
            # next pc already resolved at decode; send pc+4, clear rd
            if machine.sanitizer is not None:
                machine.sanitizer.record(
                    self.index,
                    (now, "jsend", hart.gid, entry.tag, vals[0] & 0xFFFF))
            machine.send_start_pc(self, hart, vals[0] & 0xFFFF, entry.pc + 4)
            self._finish_at(hart, entry, 0, now + 1)
        elif cls == _P_JALR:
            if low.rd == 0:
                self._execute_p_ret(hart, entry)
            else:
                if machine.sanitizer is not None:
                    machine.sanitizer.record(
                        self.index,
                        (now, "jsend", hart.gid, entry.tag, vals[0] & 0xFFFF))
                machine.send_start_pc(self, hart, vals[0] & 0xFFFF, entry.pc + 4)
                self._resolve_pc(hart, vals[1] & 0xFFFFFFFE)
                self._finish_at(hart, entry, 0, now + 1)
        elif cls == _P_SYNCM:
            hart.syncm_block = False
            entry.rob.done = True
        else:
            raise AssertionError("unhandled instruction class %r" % (cls,))

    def _execute_p_ret(self, hart, entry):
        """p_ret = p_jalr zero, ra, t0: decide the ending case (paper §4)."""
        ra, t0 = entry.vals
        if ra == 0:
            if t0 == 0xFFFFFFFF:
                action = ("exit", None, None)
            elif join_hart(t0) == hart.gid:
                action = ("wait", None, None)
            else:
                action = ("end", None, None)
        else:
            action = ("join", join_hart(t0), ra)
        rob_entry = entry.rob
        rob_entry.ret_action = action
        rob_entry.done = True
        # no further fetch on this hart until a join or a new fork
        hart.pc = None
        hart.awaiting_nextpc = False

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

    # ---- per-cycle ---------------------------------------------------------

    def tick(self):
        """Run the five stages for one cycle (commit-side first).

        All five stages are inlined here — this method runs once per
        active core per simulated cycle and used to spend most of its
        time on Python call overhead.  Each stage block selects at most
        one hart by deterministic rotating priority, exactly as the
        former ``stage_*`` methods did.

        Returns True when any hart had pipeline work; False means the
        core is quiescent and the run loop may gate it off until a
        wakeup (``Hart.start``) re-activates it.
        """
        harts = self.harts
        busy = False
        for hart in harts:
            if hart.pc is not None or hart.rob or hart.fetch_buf is not None:
                busy = True
                break
        machine = self.machine
        metrics = machine.metrics
        if not busy:
            if metrics is not None:
                # the run loop gates this core off from the next cycle on;
                # this cycle's stage slot is the first gated-idle charge
                metrics.idle(self.index, machine.cycle, 1)
            return False
        cycle = machine.cycle
        if metrics is not None and cycle >= metrics.edges[self.index]:
            # close finished sampling windows before this cycle's charges
            metrics.roll(self.index, cycle)
        committed = False

        # ---- commit ----
        for h in _ORDER[self._rr_commit]:
            hart = harts[h]
            rob = hart.rob
            if not rob:
                continue
            head = rob[0]
            if not head.done:
                continue
            if head.ret_action is not None:
                # the ordered-release barrier: wait for the predecessor's
                # ending-hart signal (if this hart was forked and the
                # link is still pending), and for our own memory writes
                # to be visible
                if hart.pred is not None and not hart.pred_done:
                    continue
                if hart.outstanding_mem != 0:
                    continue
            self._rr_commit = (h + 1) & 3
            rob.pop(0)
            hart.stats.retired += 1
            committed = True
            low = head.low
            if low.is_ebreak:
                machine.halt("ebreak")
            elif low.is_ecall:
                machine.error("ecall is not supported on bare-metal LBP")
            elif head.ret_action is not None:
                self._commit_p_ret(hart, head)
            break

        # ---- writeback ----
        for h in _ORDER[self._rr_wb]:
            hart = harts[h]
            rb = hart.rb
            if rb.busy and rb.value is not None and rb.ready_at <= cycle:
                self._rr_wb = (h + 1) & 3
                # Hart.writeback inlined: latest-rename register update
                # plus the broadcast to waiting instruction-table entries
                tag = rb.tag
                value = rb.value
                reg = rb.reg
                rename = hart.rename
                if reg != 0 and rename[reg] == tag:
                    hart.regs[reg] = value
                    rename[reg] = None
                for waiter in hart.it:
                    waits = waiter.waits
                    if tag in waits:
                        for slot, wait in enumerate(waits):
                            if wait == tag:
                                waits[slot] = None
                                waiter.vals[slot] = value
                                waiter.nwaits -= 1
                rb.rob.done = True
                rb.busy = False
                rb.tag = None
                rb.value = None
                rb.rob = None
                break

        # ---- issue (oldest ready entry of the first eligible hart) ----
        for h in _ORDER[self._rr_issue]:
            hart = harts[h]
            it = hart.it
            if not it:
                continue
            entry = None
            older_store_pending = False
            rb_busy = hart.rb.busy
            for candidate in it:
                ready = candidate.nwaits == 0
                if ready:
                    low = candidate.low
                    cls = low.cls
                    if low.writes and rb_busy:
                        ready = False
                    elif cls == _LOAD or cls == _P_LWCV:
                        # LBP has no load/store queue; the minimal
                        # disambiguation we model is: a load waits for
                        # all older stores of its hart to have issued
                        # (port FIFO then orders same-bank accesses)
                        ready = not older_store_pending
                    elif cls == _P_LWRE:
                        ready = hart.re_buffers[low.re_slot] is not None
                    elif cls == _P_FC:
                        ready = self.alloc_free_hart() is not None
                    elif cls == _P_FN:
                        # issue only once the next core granted a hart
                        # (request posted at decode; last-core errors are
                        # raised there)
                        ready = bool(hart.fork_tokens)
                    elif cls == _P_SYNCM:
                        ready = candidate is it[0] and hart.outstanding_mem == 0
                if ready:
                    entry = candidate
                    break
                cls = candidate.low.cls
                if cls == _STORE or cls == _P_SWCV:
                    older_store_pending = True
            if entry is None:
                continue
            self._rr_issue = (h + 1) & 3
            it.remove(entry)
            entry.issued = True
            low = entry.low
            cls = low.cls
            if cls == _ALU or cls == _MULDIV:
                # the hottest execute path, inlined (mirrors _execute)
                vals = entry.vals
                a = vals[0]
                b = vals[1] if len(vals) == 2 else low.imm
                value = low.op(a, b)
                if low.writes:
                    rb = hart.rb
                    rb.busy = True
                    rb.tag = entry.tag
                    rb.reg = low.rd
                    rb.value = value & 0xFFFFFFFF
                    rb.ready_at = cycle + low.latency
                    rb.rob = entry.rob
                else:
                    entry.rob.done = True
            else:
                self._execute(hart, entry)
            break

        # ---- decode / rename ----
        rob_size = self._rob_size
        for h in _ORDER[self._rr_rename]:
            hart = harts[h]
            fetch_buf = hart.fetch_buf
            if fetch_buf is None or len(hart.rob) >= rob_size:
                continue
            self._rr_rename = (h + 1) & 3
            pc, low = fetch_buf
            hart.fetch_buf = None
            tag = self._tag + 1
            self._tag = tag

            vals, waits = [], []
            regs = hart.regs
            rename = hart.rename
            for reg in low.reads:
                if reg == 0:
                    vals.append(0)
                    waits.append(None)
                else:
                    producer = rename[reg]
                    if producer is None:
                        vals.append(regs[reg])
                        waits.append(None)
                    else:
                        vals.append(None)
                        waits.append(producer)

            rob_entry = ROBEntry(tag, low, pc)
            hart.it.append(ITEntry(tag, low, pc, vals, waits, rob_entry))
            hart.rob.append(rob_entry)
            if low.writes:
                rename[low.rd] = tag
            if low.cls == _P_FN:
                machine.send_fork_req(self, hart)

            # next-pc determination (fetch resumes when it is known)
            cls = low.cls
            if cls == _BRANCH or cls == _JALR or cls == _P_JALR:
                pass  # resolved at issue; hart stays suspended
            elif cls == _JAL or cls == _P_JAL:
                hart.pc = (pc + low.imm) & 0xFFFFFFFF
                hart.awaiting_nextpc = False
                hart.fetch_ready_at = cycle + 1
            elif cls == _SYSTEM:
                hart.pc = None  # halts (ebreak) or traps (ecall) at commit
                hart.awaiting_nextpc = False
            else:
                hart.pc = pc + 4
                hart.awaiting_nextpc = False
                hart.fetch_ready_at = cycle + 1
                if cls == _P_SYNCM:
                    hart.syncm_block = True
            break

        # ---- fetch ----
        for h in _ORDER[self._rr_fetch]:
            hart = harts[h]
            pc = hart.pc
            if (
                pc is not None
                and not hart.awaiting_nextpc
                and not hart.syncm_block
                and hart.fetch_buf is None
                and not hart.reserved
                and cycle >= hart.fetch_ready_at
            ):
                self._rr_fetch = (h + 1) & 3
                low = machine.lowered.get(pc)
                if low is None:  # non-code address: the slow error path
                    low = machine.fetch_instruction(pc, hart)
                hart.fetch_buf = (pc, low)
                hart.awaiting_nextpc = True  # suspended until next pc known
                break
        if metrics is not None and not committed:
            metrics.stall(self, cycle)
        return True

    def any_activity_possible(self):
        """Cheap liveness check for deadlock detection.

        Harts that are merely waiting (for a join, or reserved awaiting a
        start pc) are passive: they only progress through events, so they
        do not count as activity by themselves.
        """
        return any(not hart.is_idle() for hart in self.harts)
