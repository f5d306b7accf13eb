"""The reference tick: the five pipeline stages, written to be read.

``LBP(backend="interp")`` builds :class:`ReferenceCore`, which shares
every piece of state and every instruction semantic with the production
:class:`~repro.machine.core.Core` and replaces only ``tick()`` and
``settle_idle()``, the two methods that are compiled there: a machine of
ReferenceCores runs no compiled function.  It is
the oracle of the parity and scheduling tests, so it must not trust what
they check: each cycle it derives every stage's eligibility from
architectural state alone — the full fetch predicate, a scan of the
instruction table for operand-ready entries, a scan of the writeback
buffers for an expired timer — never from the scoreboard gates the
production tick maintains, and it never parks.  Shared code may go on
writing those gates underneath it; ``load_state_dict`` recomputes them,
so state moves between the two cores freely.  Readable beats fast here.
"""

from repro.isa.semantics import MASK32
from repro.machine.core import _ORDER, Core
from repro.machine.hart import Entry
from repro.machine.lowered import (
    DEC_JAL, DEC_PFN, DEC_SUSPEND, DEC_SYNCM, DEC_SYSTEM,
    ISS_FC, ISS_FN, ISS_LOAD, ISS_LWRE, ISS_PLAIN,
)


class ReferenceCore(Core):
    """:class:`Core` with the tick spelled out stage by stage."""

    __slots__ = ()

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

    def tick(self):
        """Run the five stages for one cycle (commit-side first).

        Each stage selects at most one hart, probing from its rotating-
        priority pointer, and advances the pointer past the hart it
        served.  Returns False when no hart holds pipeline work (the run
        loop then gates the core off until ``Hart.start`` wakes it).
        """
        harts = self.harts
        machine = self.machine
        metrics = machine.metrics
        cycle = machine.cycle
        if not any(hart.pc is not None or hart.rob or hart.fetch_buf is not None
                   for hart in harts):
            if metrics is not None:
                # the run loop gates this core off from the next cycle on;
                # this cycle's stage slot is the first gated-idle charge
                metrics.idle(self.index, cycle, 1)
            return False
        if metrics is not None and cycle >= metrics.edges[self.index]:
            # close finished sampling windows before this cycle's charges
            metrics.roll(self.index, cycle)
        committed = False

        # ---- commit: the oldest instruction of a hart, once done ----
        for h in _ORDER[self._rr_commit]:
            hart = harts[h]
            if not hart.rob or not hart.rob[0].done:
                continue
            head = hart.rob[0]
            if head.ret_action is not None and (
                    (hart.pred is not None and not hart.pred_done)
                    or hart.outstanding_mem != 0):
                # the ordered-release barrier: a p_ret waits for the
                # predecessor's ending-hart signal (if this hart was
                # forked and the link is still pending), and for our own
                # memory writes to be visible
                continue
            self._rr_commit = (h + 1) & 3
            hart.rob.pop(0)
            hart.stats.retired += 1
            committed = True
            if head.low.trap == 1:
                machine.halt("ebreak")
            elif head.low.trap == 2:
                machine.error("ecall is not supported on bare-metal LBP")
            elif head.ret_action is not None:
                self._commit_p_ret(hart, head)
            break

        # ---- writeback: drain one filled buffer whose latency elapsed ----
        for h in _ORDER[self._rr_wb]:
            hart = harts[h]
            rb = hart.rb
            if not (rb.busy and rb.value is not None and rb.ready_at <= cycle):
                continue
            self._rr_wb = (h + 1) & 3
            # The architectural register is updated only when this
            # producer is still the *latest* rename of the register; an
            # older producer that writes back after a newer one (possible
            # with out-of-order issue) must not clobber the newer value.
            # Its value still reaches the consumers that captured its
            # tag, via the broadcast below.
            if rb.reg != 0 and hart.rename[rb.reg] == rb.tag:
                hart.regs[rb.reg] = rb.value
                hart.rename[rb.reg] = None
            for waiter in hart.it:
                if waiter.wait0 == rb.tag:
                    waiter.wait0, waiter.val0 = None, rb.value
                    waiter.nwaits -= 1
                if waiter.wait1 == rb.tag:
                    waiter.wait1, waiter.val1 = None, rb.value
                    waiter.nwaits -= 1
            rb.entry.done = True
            rb.busy = False
            rb.tag = rb.value = rb.entry = None
            break

        # ---- issue: the oldest ready entry of the first eligible hart ----
        for h in _ORDER[self._rr_issue]:
            hart = harts[h]
            entry = None
            older_store_pending = False
            for candidate in hart.it:
                low = candidate.low
                kind = low.issue_kind
                if candidate.nwaits or (low.writes and hart.rb.busy):
                    ready = False  # a source or the writeback buffer is owed
                elif kind == ISS_PLAIN:
                    ready = True
                elif kind == ISS_LOAD:
                    # LBP has no load/store queue; the minimal
                    # disambiguation we model is: a load waits for all
                    # older stores of its hart to have issued (port FIFO
                    # then orders same-bank accesses)
                    ready = not older_store_pending
                elif kind == ISS_LWRE:
                    ready = hart.re_buffers[low.re_slot] is not None
                elif kind == ISS_FC:
                    ready = self.alloc_free_hart() is not None
                elif kind == ISS_FN:
                    # issue only once the next core granted a hart
                    # (request posted at decode; last-core errors are
                    # raised there)
                    ready = bool(hart.fork_tokens)
                else:  # ISS_SYNCM
                    ready = (candidate is hart.it[0]
                             and hart.outstanding_mem == 0)
                if ready:
                    entry = candidate
                    break
                if low.store_like:
                    older_store_pending = True
            if entry is None:
                continue
            self._rr_issue = (h + 1) & 3
            hart.it.remove(entry)
            entry.issued = True
            self._execute(hart, entry)
            break

        # ---- decode / rename: fetch buffer -> instruction table + ROB ----
        for h in _ORDER[self._rr_rename]:
            hart = harts[h]
            if hart.fetch_buf is None or len(hart.rob) >= self._rob_size:
                continue
            self._rr_rename = (h + 1) & 3
            pc, low = hart.fetch_buf
            hart.fetch_buf = None
            self._tag += 1
            # each source is x0, a committed value, or a producer's tag
            vals = [None, None]
            waits = [None, None]
            for slot, reg in enumerate((low.r1, low.r2)[:low.nreads]):
                if reg == 0:
                    vals[slot] = 0
                elif hart.rename[reg] is None:
                    vals[slot] = hart.regs[reg]
                else:
                    waits[slot] = hart.rename[reg]
            entry = Entry(self._tag, low, pc, vals[0], vals[1],
                          waits[0], waits[1], 2 - waits.count(None))
            hart.it.append(entry)
            hart.rob.append(entry)
            if low.writes:
                hart.rename[low.rd] = self._tag
            dec = low.dec_kind
            if dec == DEC_PFN:
                machine.send_fork_req(self, hart)
            # next-pc determination (fetch resumes when it is known)
            if dec == DEC_SUSPEND:
                pass  # resolved at issue; hart stays suspended
            elif dec == DEC_SYSTEM:
                hart.pc = None  # halts (ebreak) or traps (ecall) at commit
                hart.awaiting_nextpc = False
            else:
                hart.pc = (pc + low.imm) & MASK32 if dec == DEC_JAL else pc + 4
                hart.awaiting_nextpc = False
                hart.fetch_ready_at = cycle + 1
                if dec == DEC_SYNCM:
                    hart.syncm_block = True
            break

        # ---- fetch: one hart whose next pc is known ----
        for h in _ORDER[self._rr_fetch]:
            hart = harts[h]
            if (
                hart.pc is not None
                and not hart.awaiting_nextpc
                and not hart.syncm_block
                and hart.fetch_buf is None
                and not hart.reserved
                and cycle >= hart.fetch_ready_at
            ):
                self._rr_fetch = (h + 1) & 3
                low = machine.fetch_instruction(hart.pc, hart)
                hart.fetch_buf = (hart.pc, low)
                hart.awaiting_nextpc = True  # suspended until next pc known
                break
        if metrics is not None and not committed:
            metrics.stall(self, cycle)
        return True
