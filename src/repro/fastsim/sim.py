"""The fast (instruction-level) LBP simulator.

See the package docstring for the model.  The implementation favours a
flat, dispatch-on-integer interpreter loop: instructions are pre-lowered
to tuples at load time and harts are scheduled smallest-clock-first in
quanta so that resource reservation cursors are exercised in approximate
global time order.
"""

import heapq

from repro import memmap
from repro.isa.semantics import (
    ALU_OPS,
    BRANCH_OPS,
    LOAD_WIDTH,
    STORE_WIDTH,
    join_hart,
    load_value,
    p_merge_value,
    p_set_value,
)
from repro.isa.spec import InstrClass
from repro.machine.params import Params
from repro.machine.processor import MAX_CYCLES
from repro.machine.router import reply_path, request_path
from repro.machine.stats import MachineStats

_C = InstrClass

# hart states
RUN, FREE, RESERVED, WAITJOIN, RETWAIT, BLOCKED = range(6)


class WindowedPort:
    """A one-slot-per-cycle resource tolerant of out-of-order reservations.

    Harts are simulated in quanta, so reservation requests arrive slightly
    out of global time order; a monotonic cursor (as in the cycle-accurate
    model) would push laggards behind early birds and over-serialise.
    This port counts usage per *window* of W cycles with capacity W, so a
    lagging hart can still claim capacity in a window an earlier-scheduled
    hart only partially used.
    """

    __slots__ = ("used", "window")

    def __init__(self, window=16):
        self.used = {}
        self.window = window

    def reserve(self, earliest):
        window = self.window
        used = self.used
        index = earliest // window
        count = used.get(index, 0)
        while count >= window:
            index += 1
            count = used.get(index, 0)
        used[index] = count + 1
        return max(earliest, index * window)

#: scheduling quantum in cycles: small enough that reservations stay
#: approximately time-ordered, large enough to amortise heap traffic
QUANTUM = 64

#: minimum per-hart issue gap (fetch → decode suspension, paper §5.2)
GAP_MIN = 2
#: extra cycles a taken-or-not branch / indirect jump stalls its hart
BRANCH_GAP = 3


class FastSimError(Exception):
    pass


class FastHart:
    __slots__ = (
        "core_index", "index", "gid", "regs", "pc", "time", "state",
        "retired", "pred", "pred_done", "signal_time", "succ",
        "re_buffers", "pending_join", "ret_action",
    )

    def __init__(self, core_index, index, num_result_buffers):
        self.core_index = core_index
        self.index = index
        self.gid = core_index * memmap.HARTS_PER_CORE + index
        self.regs = [0] * 32
        self.pc = None
        self.time = 0
        self.state = FREE
        self.retired = 0
        self.pred = None
        self.pred_done = False
        self.signal_time = 0
        self.succ = None
        self.re_buffers = [[] for _ in range(num_result_buffers)]
        self.pending_join = None
        self.ret_action = None


class FastLBP:
    """Drop-in (API-compatible subset) fast simulator."""

    def __init__(self, params=None, sanitize=False, metrics=None):
        if sanitize:
            raise NotImplementedError(
                "FastLBP does not support sanitize=True: the referential-"
                "order race detector needs the cycle-accurate machine's "
                "per-instruction observation hooks (rename tags, X_PAR "
                "edge events); run the cycle simulator (LBP) instead"
            )
        if metrics:
            raise NotImplementedError(
                "FastLBP does not support metrics: stall attribution "
                "charges stage-cycles the fast simulator never models; "
                "run the cycle simulator (LBP) instead"
            )
        #: API parity with LBP (always None: no telemetry on the fast sim)
        self.metrics = None
        self.params = params or Params()
        #: API parity with LBP (always None: no detector on the fast sim)
        self.sanitizer = None
        ncores = self.params.num_cores
        self.stats = MachineStats(ncores)
        self.harts = [
            FastHart(core, hart, self.params.num_result_buffers)
            for core in range(ncores)
            for hart in range(self.params.harts_per_core)
        ]
        self.local_mem = [bytearray(memmap.LOCAL_SIZE) for _ in range(ncores)]
        self.shared_mem = [bytearray(memmap.GLOBAL_BANK_SIZE) for _ in range(ncores)]
        self.code_mem = bytearray(memmap.CODE_SIZE)
        self.code = {}
        self.issue_ports = [WindowedPort() for _ in range(ncores)]
        self.local_ports = [WindowedPort() for _ in range(ncores)]
        self.shared_local_ports = [WindowedPort() for _ in range(ncores)]
        self.shared_router_ports = [WindowedPort() for _ in range(ncores)]
        self._route_cache = {}
        self._link_ports = {}
        self.mmio = {}
        self.exited = False
        self.end_time = 0
        self._heap = []
        self._seq = 0
        self.program = None

    # ---- snapshot parity -------------------------------------------------------

    def state_dict(self):
        """Fast-sim snapshots are unsupported — fail loudly, not subtly.

        The quantum scheduler interleaves harts at coarse granularity and
        parks closures in its heap; serializing that mid-quantum state
        cannot reproduce the exact interleave on restore.  Snapshot the
        cycle-accurate :class:`repro.machine.LBP` instead.
        """
        raise NotImplementedError(
            "FastLBP does not support snapshot/restore: mid-quantum "
            "scheduler state is not serializable; use the cycle-accurate "
            "LBP simulator (repro.snapshot.snapshot refuses FastLBP too)"
        )

    load_state_dict = state_dict

    # ---- loading ---------------------------------------------------------------

    def load(self, program, start=True):
        self.program = program
        self.code = program.instructions
        for seg in program.code_segments():
            base = seg.base - memmap.CODE_BASE
            self.code_mem[base : base + len(seg.data)] = seg.data
        for seg in program.data_segments():
            if seg.bank >= self.params.num_cores:
                raise FastSimError(
                    "data bank %d does not exist on a %d-core machine"
                    % (seg.bank, self.params.num_cores)
                )
            base = seg.base - memmap.global_bank_base(seg.bank)
            self.shared_mem[seg.bank][base : base + len(seg.data)] = seg.data
        if start:
            boot = self.harts[0]
            boot.regs[2] = memmap.hart_initial_sp(0)
            boot.pc = program.entry
            boot.state = RUN
            self._push(boot)
        return self

    def add_device(self, addr, device):
        self.mmio[addr] = device

    # ---- memory ------------------------------------------------------------------

    def _mem_for(self, core_index, addr):
        """(buffer, offset, owner_core_or_None_for_private)."""
        if addr >= memmap.GLOBAL_BASE:
            owner = (addr - memmap.GLOBAL_BASE) // memmap.GLOBAL_BANK_SIZE
            if owner >= self.params.num_cores:
                raise FastSimError("unmapped global address 0x%x" % addr)
            return self.shared_mem[owner], addr - memmap.global_bank_base(owner), owner
        if addr >= memmap.LOCAL_BASE:
            return self.local_mem[core_index], addr - memmap.LOCAL_BASE, None
        return self.code_mem, addr - memmap.CODE_BASE, None

    def read_word(self, addr):
        buf, offset, _owner = self._mem_for(0, addr)
        return int.from_bytes(buf[offset : offset + 4], "little")

    def write_word(self, addr, value):
        buf, offset, _owner = self._mem_for(0, addr)
        buf[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def read_local(self, core_index, addr):
        offset = addr - memmap.LOCAL_BASE
        return int.from_bytes(self.local_mem[core_index][offset : offset + 4], "little")

    def _route_ports(self, src, dst):
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        req = tuple(self._link_port(link) for link in request_path(src, dst))
        rep = tuple(self._link_port(link) for link in reply_path(src, dst))
        self._route_cache[key] = (req, rep)
        return req, rep

    def _link_port(self, link):
        port = self._link_ports.get(link)
        if port is None:
            port = self._link_ports[link] = WindowedPort()
        return port

    def _mem_access_time(self, core_index, owner, time, is_load):
        """Completion time of one shared/local access starting at *time*."""
        params = self.params
        if owner is None:  # core-private local bank (or code)
            t_bank = self.local_ports[core_index].reserve(
                time + params.local_mem_latency)
            return t_bank + 1 if is_load else t_bank
        if owner == core_index:
            self.stats.per_core[core_index].local_accesses += 1
            t_bank = self.shared_local_ports[core_index].reserve(
                time + params.local_mem_latency)
            return t_bank + 1 if is_load else t_bank
        self.stats.per_core[core_index].remote_accesses += 1
        req, rep = self._route_ports(core_index, owner)
        t = time
        hop = params.link_hop_latency
        for port in req:
            t = port.reserve(t + hop)
        t_bank = self.shared_router_ports[owner].reserve(
            t + params.bank_access_latency)
        if not is_load:
            return t_bank
        t = t_bank
        for port in rep:
            t = port.reserve(t + hop)
        return t + 1

    # ---- scheduling -----------------------------------------------------------------

    def _push(self, hart):
        self._seq += 1
        heapq.heappush(self._heap, (hart.time, self._seq, hart))

    def run(self, max_cycles=None):
        limit = max_cycles if max_cycles is not None else MAX_CYCLES
        heap = self._heap
        while heap and not self.exited:
            time, _seq, hart = heapq.heappop(heap)
            if hart.state != RUN:
                continue  # stale entry; the hart blocked or ended meanwhile
            if hart.time > limit:
                raise FastSimError("cycle limit exceeded (%d)" % limit)
            self._run_quantum(hart, time + QUANTUM)
            if hart.state == RUN:
                self._push(hart)
        if not self.exited:
            blocked = [h.gid for h in self.harts
                       if h.state in (RETWAIT, BLOCKED, WAITJOIN, RESERVED)]
            raise FastSimError(
                "fastsim deadlock: no runnable hart (waiting: %r)" % blocked)
        self.stats.cycles = self.end_time
        for hart in self.harts:
            self.stats.harts[hart.core_index][hart.index].retired = hart.retired
        return self.stats

    # ---- the interpreter --------------------------------------------------------------

    def _run_quantum(self, hart, horizon):
        code = self.code
        regs = hart.regs
        params = self.params
        issue_port = self.issue_ports[hart.core_index]
        while hart.time < horizon and hart.state == RUN and not self.exited:
            ins = code.get(hart.pc)
            if ins is None:
                raise FastSimError(
                    "hart %d fetches from non-code address %r" % (hart.gid, hart.pc))
            spec = ins.spec
            cls = spec.cls
            hart.retired += 1
            slot = issue_port.reserve(hart.time)
            pc = hart.pc
            next_pc = pc + 4
            gap = GAP_MIN

            if cls == _C.ALU:
                if len(spec.reads) == 2:
                    value = ALU_OPS[ins.mnemonic](regs[ins.rs1], regs[ins.rs2])
                else:
                    value = ALU_OPS[ins.mnemonic](regs[ins.rs1], ins.imm)
                if ins.rd:
                    regs[ins.rd] = value
            elif cls == _C.MULDIV:
                value = ALU_OPS[ins.mnemonic](regs[ins.rs1], regs[ins.rs2])
                if ins.rd:
                    regs[ins.rd] = value
                gap = max(GAP_MIN, params.latency_for(spec))
            elif cls == _C.LOAD:
                addr = (regs[ins.rs1] + ins.imm) & 0xFFFFFFFF
                width = LOAD_WIDTH[ins.mnemonic]
                device = self.mmio.get(addr)
                buf, offset, owner = self._mem_for(hart.core_index, addr)
                if device is not None:
                    raw = device.read(slot) & 0xFFFFFFFF
                else:
                    raw = int.from_bytes(buf[offset : offset + width], "little")
                if ins.rd:
                    regs[ins.rd] = load_value(ins.mnemonic, raw)
                done = self._mem_access_time(hart.core_index, owner, slot, True)
                hart.time = done
                hart.pc = next_pc
                self.stats.harts[hart.core_index][hart.index].loads += 1
                continue
            elif cls == _C.STORE:
                addr = (regs[ins.rs1] + ins.imm) & 0xFFFFFFFF
                width = STORE_WIDTH[ins.mnemonic]
                device = self.mmio.get(addr)
                value = regs[ins.rs2]
                buf, offset, owner = self._mem_for(hart.core_index, addr)
                if device is not None:
                    device.write(slot, value & 0xFFFFFFFF)
                else:
                    buf[offset : offset + width] = (
                        value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
                self._mem_access_time(hart.core_index, owner, slot, False)
                self.stats.harts[hart.core_index][hart.index].stores += 1
            elif cls == _C.BRANCH:
                if BRANCH_OPS[ins.mnemonic](regs[ins.rs1], regs[ins.rs2]):
                    next_pc = pc + ins.imm
                gap = BRANCH_GAP
            elif cls == _C.JAL:
                if ins.rd:
                    regs[ins.rd] = pc + 4
                next_pc = (pc + ins.imm) & 0xFFFFFFFF
            elif cls == _C.JALR:
                target = (regs[ins.rs1] + ins.imm) & 0xFFFFFFFE
                if ins.rd:
                    regs[ins.rd] = pc + 4
                next_pc = target
                gap = BRANCH_GAP
            elif cls == _C.LUI:
                if ins.rd:
                    regs[ins.rd] = (ins.imm << 12) & 0xFFFFFFFF
            elif cls == _C.AUIPC:
                if ins.rd:
                    regs[ins.rd] = (pc + (ins.imm << 12)) & 0xFFFFFFFF
            elif cls == _C.P_SET:
                value = p_set_value(regs[ins.rs1], hart.core_index, hart.index)
                if ins.rd:
                    regs[ins.rd] = value
            elif cls == _C.P_MERGE:
                if ins.rd:
                    regs[ins.rd] = p_merge_value(regs[ins.rs1], regs[ins.rs2])
            elif cls == _C.P_FC or cls == _C.P_FN:
                core = hart.core_index if cls == _C.P_FC else hart.core_index + 1
                if core >= self.params.num_cores:
                    raise FastSimError("p_fn past the last core (hart %d)" % hart.gid)
                target = self._alloc_hart(core)
                if target is None:
                    raise FastSimError(
                        "no free hart on core %d for hart %d" % (core, hart.gid))
                target.state = RESERVED
                target.regs[2] = memmap.hart_initial_sp(target.index)
                target.pred = hart
                target.pred_done = False
                hart.succ = target
                if ins.rd:
                    regs[ins.rd] = target.gid
                self.stats.per_core[hart.core_index].forks += 1
                self.stats.harts[hart.core_index][hart.index].forks += 1
            elif cls == _C.P_SWCV:
                target = self.harts[regs[ins.rs1] & 0xFFFF]
                addr = memmap.hart_cv_base(target.index) + ins.imm
                offset = addr - memmap.LOCAL_BASE
                self.local_mem[target.core_index][offset : offset + 4] = (
                    regs[ins.rs2] & 0xFFFFFFFF).to_bytes(4, "little")
                gap = params.cv_write_latency
            elif cls == _C.P_LWCV:
                addr = memmap.hart_cv_base(hart.index) + ins.imm
                offset = addr - memmap.LOCAL_BASE
                if ins.rd:
                    regs[ins.rd] = int.from_bytes(
                        self.local_mem[hart.core_index][offset : offset + 4],
                        "little")
                gap = max(GAP_MIN, params.local_mem_latency + 1)
            elif cls == _C.P_SWRE:
                target = self.harts[regs[ins.rs1] & 0xFFFF]
                if target.core_index > hart.core_index:
                    raise FastSimError("p_swre to a later core")
                hops = hart.core_index - target.core_index + 1
                arrival = slot + hops * params.link_hop_latency
                index = ins.imm % len(target.re_buffers)
                target.re_buffers[index].append(arrival_value(arrival, regs[ins.rs2]))
                self.stats.per_core[hart.core_index].re_messages += 1
                if target.state == BLOCKED:
                    target.state = RUN
                    target.time = max(target.time, arrival)
                    self._push(target)
            elif cls == _C.P_LWRE:
                index = ins.imm % len(hart.re_buffers)
                queue = hart.re_buffers[index]
                if not queue:
                    hart.retired -= 1  # re-executed (and re-counted) on wake
                    hart.state = BLOCKED
                    return
                arrival, value = queue.pop(0)
                if ins.rd:
                    regs[ins.rd] = value
                hart.pc = next_pc
                hart.time = max(slot + GAP_MIN, arrival + 1)
                continue
            elif cls == _C.P_JAL:
                self._start_child(hart, regs[ins.rs1] & 0xFFFF, pc + 4, slot)
                if ins.rd:
                    regs[ins.rd] = 0
                next_pc = (pc + ins.imm) & 0xFFFFFFFF
            elif cls == _C.P_JALR:
                if ins.rd == 0:
                    if not self._do_p_ret(hart, regs[ins.rs1], regs[ins.rs2], slot):
                        return
                    continue
                self._start_child(hart, regs[ins.rs1] & 0xFFFF, pc + 4, slot)
                regs[ins.rd] = 0
                next_pc = regs[ins.rs2] & 0xFFFFFFFE
                gap = BRANCH_GAP
            elif cls == _C.P_SYNCM:
                gap = GAP_MIN  # in-order interpreter: accesses already done
            elif cls == _C.SYSTEM:
                if ins.mnemonic == "ebreak":
                    self.exited = True
                    self.end_time = max(self.end_time, slot + 1)
                    return
                raise FastSimError("ecall is not supported on bare-metal LBP")
            elif cls == _C.FENCE:
                pass
            else:
                raise FastSimError("unhandled class %r" % (cls,))

            hart.pc = next_pc
            hart.time = slot + gap

    # ---- team protocol helpers ------------------------------------------------------

    def _alloc_hart(self, core_index):
        base = core_index * memmap.HARTS_PER_CORE
        for offset in range(memmap.HARTS_PER_CORE):
            hart = self.harts[base + offset]
            if hart.state == FREE:
                return hart
        return None

    def _start_child(self, parent, target_gid, pc, slot):
        child = self.harts[target_gid]
        if child.state != RESERVED:
            raise FastSimError(
                "start pc sent to hart %d which was not allocated" % target_gid)
        child.pc = pc
        child.state = RUN
        child.time = max(child.time, slot + 1 + self.params.link_hop_latency)
        self._push(child)

    def _do_p_ret(self, hart, ra, t0, slot):
        """Execute p_ret; returns False when the hart must block (RETWAIT)."""
        if hart.pred is not None and not hart.pred_done:
            hart.retired -= 1  # the p_ret re-executes (and re-counts) on wake
            hart.state = RETWAIT
            hart.ret_action = (ra, t0)
            return False
        hart.pred = None
        hart.pred_done = False
        hart.time = max(hart.time, hart.signal_time, slot + 1)
        # propagate the ending signal in referential order
        succ = hart.succ
        if succ is not None:
            hart.succ = None
            succ.pred_done = True
            succ.signal_time = hart.time + self.params.link_hop_latency
            if succ.state == RETWAIT:
                action = succ.ret_action
                succ.ret_action = None
                succ.state = RUN
                succ.time = max(succ.time, succ.signal_time)
                self._push(succ)

        if ra == 0:
            if t0 == 0xFFFFFFFF:
                self.exited = True
                self.end_time = max(self.end_time, hart.time)
                return False
            if join_hart(t0) == hart.gid:
                hart.state = WAITJOIN
                hart.pc = None
                if hart.pending_join is not None:
                    addr = hart.pending_join
                    hart.pending_join = None
                    hart.pc = addr
                    hart.state = RUN  # the outer loop re-enqueues RUN harts
                return False
            self._free_hart(hart)
            return False
        # case 4: send the join address backward
        target = self.harts[join_hart(t0)]
        if target is hart:
            # single-member team: resume directly at the join address
            self.stats.per_core[hart.core_index].joins += 1
            hart.pc = ra
            hart.time += 1
            return False  # state stays RUN; the outer loop re-enqueues
        hops = abs(hart.core_index - target.core_index) + 1
        arrival = hart.time + hops * self.params.link_hop_latency
        self.stats.per_core[hart.core_index].joins += 1
        self._free_hart(hart)
        if target.state == WAITJOIN:
            target.pc = ra
            target.state = RUN
            target.time = max(target.time, arrival)
            self._push(target)
        else:
            target.pending_join = ra
        return False

    def _free_hart(self, hart):
        hart.state = FREE
        hart.pc = None


def arrival_value(arrival, value):
    return (arrival, value & 0xFFFFFFFF)
