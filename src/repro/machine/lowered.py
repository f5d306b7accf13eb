"""Pre-lowered per-PC decode for the cycle-accurate simulator.

The pipeline stages used to re-derive everything they need from the
:class:`~repro.isa.instruction.Instruction` and its spec on every cycle:
instruction class, source-register fields, writes-rd, ALU callable,
latency, access width.  All of that is static per program location (and
per machine, for latencies), so :meth:`repro.machine.processor.LBP.load`
lowers the whole program once and the hot loop works on flat
:class:`LoweredInstr` records — mirroring what ``fastsim`` already does
with tuples.  Lowering changes *no* modelled behaviour: the simulator
must stay bit-exact (see ``tests/integration/test_trace_golden.py``).
"""

from repro.isa.semantics import (
    ALU_OPS, BRANCH_OPS, LOAD_WIDTH, MASK32, STORE_WIDTH,
)
from repro.isa.spec import InstrClass

_C = InstrClass

# ---- decode kinds (next-pc determination; see the ticks' decode stage) -----
#: fall through to pc + 4
DEC_STRAIGHT = 0
#: direct jump: pc + imm known at decode (jal, p_jal)
DEC_JAL = 1
#: next pc resolved at issue — the hart stays suspended (branches, jalr,
#: p_jalr)
DEC_SUSPEND = 2
#: no next pc: halts (ebreak) or traps (ecall) at commit
DEC_SYSTEM = 3
#: fall through, but block further fetch until the p_syncm issues
DEC_SYNCM = 4
#: fall through + post the fork-token request to the next core (p_fn)
DEC_PFN = 5

# ---- issue kinds (readiness checks beyond nwaits == 0) ----------------------
#: no structural constraint beyond source values and the writeback buffer
ISS_PLAIN = 0
#: loads wait for all older stores of their hart to have issued
ISS_LOAD = 1
#: p_lwre waits for its numbered result buffer to be filled
ISS_LWRE = 2
#: p_fc waits for a free hart on this core
ISS_FC = 3
#: p_fn waits for a fork token granted by the next core
ISS_FN = 4
#: p_syncm issues only at the head of the ROB with no outstanding memory
ISS_SYNCM = 5

#: ``LoweredInstr.alu_op`` / ``br_op``: a mnemonic's position here is its
#: case in the compiled tick's RV32IM switches (``enum alu`` / ``enum br``
#: in _tick.c, same order; the loader's smoke call checks every one
#: against ``isa/semantics.py``)
ALU_CODES = (
    "add", "addi", "sub", "sll", "slli", "slt", "slti", "sltu", "sltiu",
    "xor", "xori", "srl", "srli", "sra", "srai", "or", "ori", "and", "andi",
    "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
)
BRANCH_CODES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")

#: commit-side trap codes (``LoweredInstr.trap``; 0 = none)
_TRAPS = {"ebreak": 1, "ecall": 2}


class LoweredInstr:
    """One program location, pre-chewed for the pipeline stages.

    Attributes:
        ins: the original :class:`Instruction` (kept for disassembly and
            error reporting; the stages never touch it).
        mnemonic, cls, rd, imm: copied out of the instruction/spec.
        nreads / r1 / r2: how many sources the instruction reads (at
            most two) and their *register numbers* in operand order —
            the spec's field names already resolved against rs1/rs2, one
            per operand slot of an ``Entry`` (r2 only valid when
            nreads == 2).
        writes: True when the instruction produces a register result
            (``spec.writes_rd`` and ``rd != 0`` folded together).
        op: the ALU/branch callable, or None.
        alu_op / br_op: the same operation as an index into
            :data:`ALU_CODES` / :data:`BRANCH_CODES` (what the compiled
            tick switches on), or -1.
        latency: execution latency in cycles (params-resolved).
        width: access width in bytes for loads/stores, else 0.
        re_slot: result-buffer slot for p_swre/p_lwre, else 0.
        dec_kind / issue_kind: the ``DEC_*`` / ``ISS_*`` dispatch keys
            above, so the decode and issue stages switch on a
            precomputed int instead of re-classifying ``cls``.
        store_like: True for store/p_swcv — the older-store fence that
            loads wait on at issue.
        trap: commit-side trap code (0 none, 1 ebreak, 2 ecall),
            pre-tested so the commit stage does one compare.
        next_pc / fetch_pair: the two objects every trip of this
            location through the pipeline would otherwise build anew —
            the pc that decode resumes fetch at (``pc + 4``, or the
            target of a ``DEC_JAL``) and the fetch buffer's ``(pc,
            low)``.  The compiled tick stores these very objects (after
            checking they say what it computed); the reference tick
            builds its own.
    """

    __slots__ = (
        "ins", "mnemonic", "cls", "rd", "imm", "nreads", "r1", "r2",
        "writes", "op", "alu_op", "br_op", "latency", "width", "re_slot",
        "dec_kind", "issue_kind", "store_like", "trap", "next_pc",
        "fetch_pair",
    )

    def __init__(self, ins, params, pc):
        spec = ins.spec
        mnemonic = ins.mnemonic
        cls = spec.cls
        self.ins = ins
        self.mnemonic = mnemonic
        self.cls = int(cls)
        self.rd = ins.rd
        self.imm = ins.imm
        reads = [
            ins.rs1 if field == "rs1" else ins.rs2 for field in spec.reads
        ]
        self.nreads = len(reads)
        self.r1 = reads[0] if reads else 0
        self.r2 = reads[1] if len(reads) == 2 else 0
        self.writes = spec.writes_rd and ins.rd != 0
        self.alu_op = self.br_op = -1
        if cls == _C.ALU or cls == _C.MULDIV:
            self.op = ALU_OPS[mnemonic]
            self.alu_op = ALU_CODES.index(mnemonic)
        elif cls == _C.BRANCH:
            self.op = BRANCH_OPS[mnemonic]
            self.br_op = BRANCH_CODES.index(mnemonic)
        else:
            self.op = None
        self.latency = params.latency_for(spec)
        if cls == _C.LOAD or cls == _C.P_LWCV:
            self.width = LOAD_WIDTH[mnemonic]
        elif cls == _C.STORE:
            self.width = STORE_WIDTH[mnemonic]
        else:
            self.width = 0
        if cls == _C.P_SWRE or cls == _C.P_LWRE:
            self.re_slot = ins.imm % params.num_result_buffers
        else:
            self.re_slot = 0
        if cls == _C.BRANCH or cls == _C.JALR or cls == _C.P_JALR:
            self.dec_kind = DEC_SUSPEND
        elif cls == _C.JAL or cls == _C.P_JAL:
            self.dec_kind = DEC_JAL
        elif cls == _C.SYSTEM:
            self.dec_kind = DEC_SYSTEM
        elif cls == _C.P_SYNCM:
            self.dec_kind = DEC_SYNCM
        elif cls == _C.P_FN:
            self.dec_kind = DEC_PFN
        else:
            self.dec_kind = DEC_STRAIGHT
        if cls == _C.LOAD or cls == _C.P_LWCV:
            self.issue_kind = ISS_LOAD
        elif cls == _C.P_LWRE:
            self.issue_kind = ISS_LWRE
        elif cls == _C.P_FC:
            self.issue_kind = ISS_FC
        elif cls == _C.P_FN:
            self.issue_kind = ISS_FN
        elif cls == _C.P_SYNCM:
            self.issue_kind = ISS_SYNCM
        else:
            self.issue_kind = ISS_PLAIN
        self.store_like = cls == _C.STORE or cls == _C.P_SWCV
        self.trap = _TRAPS.get(mnemonic, 0)
        self.next_pc = (
            (pc + ins.imm) & MASK32 if self.dec_kind == DEC_JAL else pc + 4)
        self.fetch_pair = (pc, self)

    def __repr__(self):
        return "LoweredInstr(%r)" % (self.ins,)


def lower_program(code, params):
    """{pc: Instruction} -> {pc: LoweredInstr} for one machine's params."""
    return {pc: LoweredInstr(ins, params, pc) for pc, ins in code.items()}
