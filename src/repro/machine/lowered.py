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
    ALU_OPS, BRANCH_OPS, LOAD_WIDTH, STORE_WIDTH,
)
from repro.isa.spec import InstrClass

_C = InstrClass
_P_SWRE = int(_C.P_SWRE)
_P_LWRE = int(_C.P_LWRE)

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
        fetch_pair: the fetch buffer's ``(pc, low)`` at rest.  While
            the compiled tick runs, a fetch buffer is the decode record
            of this location; its flush stores this very tuple (after
            checking it names this pc and this instruction).  The
            reference tick builds its own.
    """

    __slots__ = (
        "ins", "mnemonic", "cls", "rd", "imm", "nreads", "r1", "r2",
        "writes", "op", "alu_op", "br_op", "latency", "width", "re_slot",
        "dec_kind", "issue_kind", "store_like", "trap", "fetch_pair",
    )

    def __init__(self, ins, params, pc):
        self._fill(ins, spec_shape(ins.spec, params), params, pc)

    def _fill(self, ins, shape, params, pc):
        """Every slot: the spec's *shape*, then the fields of this
        location's operands and pc."""
        (self.mnemonic, self.cls, self.op, self.alu_op, self.br_op,
         self.latency, self.width, self.dec_kind, self.issue_kind,
         self.store_like, self.trap, self.nreads, reads, writes_rd) = shape
        self.ins = ins
        self.rd = ins.rd
        self.imm = ins.imm
        # the spec's read fields resolved against rs1/rs2, in operand order
        self.r1 = (ins.rs1 if reads[0] == "rs1" else ins.rs2) if reads else 0
        self.r2 = (ins.rs1 if reads[1] == "rs1" else ins.rs2) \
            if len(reads) == 2 else 0
        self.writes = writes_rd and ins.rd != 0
        self.re_slot = ins.imm % params.num_result_buffers \
            if self.cls == _P_SWRE or self.cls == _P_LWRE else 0
        self.fetch_pair = (pc, self)

    def __repr__(self):
        return "LoweredInstr(%r)" % (self.ins,)


def spec_shape(spec, params):
    """Every :class:`LoweredInstr` field that depends on the mnemonic alone
    (and on *params*' latencies), in :meth:`LoweredInstr._fill`'s order:
    mnemonic, cls, op, alu_op, br_op, latency, width, dec_kind, issue_kind,
    store_like, trap, nreads, the read fields and writes_rd."""
    mnemonic = spec.mnemonic
    cls = spec.cls
    alu_op = br_op = -1
    if cls == _C.ALU or cls == _C.MULDIV:
        op = ALU_OPS[mnemonic]
        alu_op = ALU_CODES.index(mnemonic)
    elif cls == _C.BRANCH:
        op = BRANCH_OPS[mnemonic]
        br_op = BRANCH_CODES.index(mnemonic)
    else:
        op = None
    if cls == _C.LOAD or cls == _C.P_LWCV:
        width = LOAD_WIDTH[mnemonic]
    elif cls == _C.STORE:
        width = STORE_WIDTH[mnemonic]
    else:
        width = 0
    if cls == _C.BRANCH or cls == _C.JALR or cls == _C.P_JALR:
        dec_kind = DEC_SUSPEND
    elif cls == _C.JAL or cls == _C.P_JAL:
        dec_kind = DEC_JAL
    elif cls == _C.SYSTEM:
        dec_kind = DEC_SYSTEM
    elif cls == _C.P_SYNCM:
        dec_kind = DEC_SYNCM
    elif cls == _C.P_FN:
        dec_kind = DEC_PFN
    else:
        dec_kind = DEC_STRAIGHT
    if cls == _C.LOAD or cls == _C.P_LWCV:
        issue_kind = ISS_LOAD
    elif cls == _C.P_LWRE:
        issue_kind = ISS_LWRE
    elif cls == _C.P_FC:
        issue_kind = ISS_FC
    elif cls == _C.P_FN:
        issue_kind = ISS_FN
    elif cls == _C.P_SYNCM:
        issue_kind = ISS_SYNCM
    else:
        issue_kind = ISS_PLAIN
    reads = tuple(spec.reads)
    return (mnemonic, int(cls), op, alu_op, br_op, params.latency_for(spec),
            width, dec_kind, issue_kind,
            cls == _C.STORE or cls == _C.P_SWCV, _TRAPS.get(mnemonic, 0),
            len(reads), reads, spec.writes_rd)


def lower_program(code, params):
    """{pc: Instruction} -> {pc: LoweredInstr} for one machine's params.

    Each distinct spec's shape is worked out once per call; every location
    then fills in only its own operands and pc."""
    shapes = {}
    lowered = {}
    new = LoweredInstr.__new__
    for pc, ins in code.items():
        spec = ins.spec
        shape = shapes.get(spec)
        if shape is None:
            shape = shapes[spec] = spec_shape(spec, params)
        low = lowered[pc] = new(LoweredInstr)
        low._fill(ins, shape, params, pc)
    return lowered
