"""Per-hart microarchitectural state.

A hart (hardware thread, RISC-V terminology) owns: a pc (which may be
*empty* — a free hart), a one-entry fetch buffer, a rename table over a
per-hart register file, an instruction table (the out-of-order waiting
station), a reorder buffer committing in order, the single writeback
result buffer that serialises multicycle results, and the numbered
``p_swre``/``p_lwre`` result buffers.

The hart also carries the team-protocol links (predecessor/successor used
by the ordered ``p_ret`` commit chain) and the fork reservation flag.
"""

from repro import memmap

#: "no cycle": the value of a timer gate (``Core._wb_wake``,
#: ``Core.sleep_until``) that nothing is due to open.  An int beyond any
#: reachable cycle rather than ``float("inf")``, so that the compiled
#: tick reads every gate as an ``int64``
NEVER = 1 << 62


class Entry:
    """One in-flight instruction, from rename to commit.

    A single record plays both roles of the paper's pipeline: it sits in
    the hart's instruction table (``Hart.it``) until it issues and in
    the reorder buffer (``Hart.rob``) until it commits.  RV32
    instructions read at most two sources, so the operands are two
    scalar slots: ``valN`` holds source N's value once known, ``waitN``
    the rename tag of its producer until then (None when the value is
    present or the instruction has no such source).
    """

    __slots__ = ("tag", "low", "pc", "val0", "val1", "wait0", "wait1",
                 "nwaits", "issued", "done", "ret_action")

    def __init__(self, tag, low, pc, val0, val1, wait0, wait1, nwaits):
        self.tag = tag
        #: the :class:`~repro.machine.lowered.LoweredInstr` at this pc
        self.low = low
        #: program location (lets snapshot/restore re-bind ``low``)
        self.pc = pc
        self.val0 = val0
        self.val1 = val1
        self.wait0 = wait0
        self.wait1 = wait1
        #: count of outstanding producers — the issue stage's O(1)
        #: readiness check; kept in sync by the writeback broadcast
        self.nwaits = nwaits
        self.issued = False
        self.done = False
        #: for p_ret: ("exit"|"wait"|"end"|"join", join_hart, join_addr)
        self.ret_action = None


class ResultBuffer:
    """The hart's single writeback buffer (one in-flight result)."""

    __slots__ = ("hart", "busy", "tag", "reg", "value", "ready_at", "entry")

    def __init__(self, hart):
        self.hart = hart
        self.busy = False
        self.tag = None
        self.reg = 0
        self.value = None
        self.ready_at = 0
        #: the occupying producer's Entry (writeback marks it done)
        self.entry = None

    def occupy(self, entry):
        self.busy = True
        self.tag = entry.tag
        self.reg = entry.low.rd
        self.value = None
        self.ready_at = 0
        self.entry = entry

    def fill(self, value, ready_at):
        self.value = value & 0xFFFFFFFF
        self.ready_at = ready_at
        # keep the owning core's writeback gate a lower bound
        core = self.hart.core
        if ready_at < core._wb_wake:
            core._wb_wake = ready_at


class Hart:
    """All state of one hardware thread.

    ``fetch_ok`` and ``n_ready`` are the production tick's hoisted stage
    gates: the five state terms of the fetch predicate (everything but
    the ``fetch_ready_at`` timer) collapsed to one bool, re-derived at
    every site that mutates a term, and the count of waiting instructions
    with all operands present, which gates the issue scan.  Both are derived
    state — snapshots neither carry nor need them (``load_state_dict``
    recomputes), and the reference tick never reads them.
    """

    __slots__ = (
        "core", "index", "gid",
        "regs", "rename",
        "pc", "awaiting_nextpc", "fetch_ready_at", "syncm_block",
        "fetch_buf",
        "it", "rob", "rb",
        "re_buffers", "re_waiters",
        "outstanding_mem",
        "reserved", "waiting_join", "pending_join",
        "pred", "pred_done", "succ", "fork_tokens",
        "stats",
        "fetch_ok", "n_ready",
    )

    def __init__(self, core, index, num_result_buffers, stats):
        self.core = core
        self.index = index
        self.gid = core.index * memmap.HARTS_PER_CORE + index
        self.regs = [0] * 32
        self.rename = [None] * 32
        self.pc = None
        self.awaiting_nextpc = False
        self.fetch_ready_at = 0
        self.syncm_block = False
        self.fetch_buf = None
        self.it = []
        self.rob = []
        self.rb = ResultBuffer(self)
        self.re_buffers = [None] * num_result_buffers
        #: per-slot FIFO of parked p_swre deliveries (flow control: a
        #: send that found the slot occupied waits here for the drain
        #: wakeup instead of busy-retrying every cycle)
        self.re_waiters = [[] for _ in range(num_result_buffers)]
        self.outstanding_mem = 0
        self.reserved = False
        self.waiting_join = False
        self.pending_join = None
        #: team-protocol links are hart gids (ints), never object
        #: references — the linked hart may live in another shard
        self.pred = None
        self.pred_done = False
        self.succ = None
        #: gids granted by the next core's fork_req handler, consumed in
        #: FIFO order when this hart's p_fn instructions issue
        self.fork_tokens = []
        self.stats = stats
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

    # ---- lifecycle --------------------------------------------------------

    def is_free(self):
        """Can this hart be allocated by p_fc/p_fn?"""
        return (
            self.pc is None
            and not self.reserved
            and not self.waiting_join
            and self.fetch_buf is None
            and not self.it
            and not self.rob
            and not self.rb.busy
        )

    def is_idle(self):
        """No work at all (used for deadlock detection)."""
        return (
            self.pc is None
            and self.fetch_buf is None
            and not self.it
            and not self.rob
            and not self.rb.busy
            and self.outstanding_mem == 0
        )

    def reserve_for_fork(self, parent_gid):
        """Allocation by p_fc/p_fn: reset protocol state, set initial sp.

        The parent's ``succ`` link is set by the *parent's* domain when
        it consumes the fork result (p_fc execute or the granted token),
        not here — this side only records its predecessor.
        """
        self.reserved = True
        self.rename = [None] * 32
        self.regs[2] = memmap.hart_initial_sp(self.index)  # sp
        self.re_buffers = [None] * len(self.re_buffers)
        self.pred = parent_gid
        self.pred_done = False
        self.fetch_ok = False

    def start(self, pc, cycle):
        """Begin fetching at *pc* (fork start or join resume).

        Also re-activates the owning core in the run loop's gating set —
        this is the single idle→runnable transition a hart can make.
        """
        self.pc = pc
        self.reserved = False
        self.waiting_join = False
        self.awaiting_nextpc = False
        self.syncm_block = False
        self.fetch_ready_at = cycle + 1
        self.fetch_ok = self.fetch_buf is None
        self.core.activate()

    def end(self):
        """The hart ends (p_ret cases 2 and 4): becomes free."""
        self.pc = None
        self.awaiting_nextpc = False
        self.syncm_block = False
        self.reserved = False
        self.waiting_join = False
        self.fetch_ok = False

    # ---- snapshot/restore --------------------------------------------------

    def state_dict(self):
        """All architectural and microarchitectural state, as plain data.

        The format predates the merged :class:`Entry` and is unchanged:
        ``rob`` lists every in-flight instruction, ``it`` the unissued
        subset with its operand slots spelled as ``vals``/``waits`` lists
        (one element per source the instruction reads); the two lists
        share tags, and the writeback buffer names its producer by the
        same tag, so :meth:`load_state_dict` re-links everything by tag.
        ``low`` fields are re-derived from the machine's lowered program
        via each entry's pc.
        """
        rb = self.rb
        return {
            "regs": list(self.regs),
            "rename": list(self.rename),
            "pc": self.pc,
            "awaiting_nextpc": self.awaiting_nextpc,
            "fetch_ready_at": self.fetch_ready_at,
            "syncm_block": self.syncm_block,
            "fetch_buf": None if self.fetch_buf is None else self.fetch_buf[0],
            "it": [
                {
                    "tag": e.tag, "pc": e.pc,
                    "vals": [e.val0, e.val1][:e.low.nreads],
                    "waits": [e.wait0, e.wait1][:e.low.nreads],
                    "issued": e.issued,
                }
                for e in self.it
            ],
            "rob": [
                {
                    "tag": e.tag, "pc": e.pc, "done": e.done,
                    "ret_action": None if e.ret_action is None
                    else list(e.ret_action),
                }
                for e in self.rob
            ],
            "rb": {
                "busy": rb.busy, "tag": rb.tag, "reg": rb.reg,
                "value": rb.value, "ready_at": rb.ready_at,
            },
            "re_buffers": list(self.re_buffers),
            "re_waiters": [
                [list(desc) for desc in waiters] for waiters in self.re_waiters
            ],
            "outstanding_mem": self.outstanding_mem,
            "reserved": self.reserved,
            "waiting_join": self.waiting_join,
            "pending_join": self.pending_join,
            "pred": self.pred,
            "pred_done": self.pred_done,
            "succ": self.succ,
            "fork_tokens": list(self.fork_tokens),
        }

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
        # rebuild the entries: the "rob" list carries every in-flight
        # instruction, the "it" list the unissued subset (both in
        # program order); join them by tag
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
                entry = Entry(tag, lowered(pc), pc,
                              val0, val1, wait0, wait1, nwaits)
                entry.issued = it_state["issued"]
                it.append(entry)
            else:
                entry = Entry(tag, lowered(pc), pc, None, None, None, None, 0)
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
        rb.entry = entry_by_tag[rb.tag] if rb.busy else None
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
