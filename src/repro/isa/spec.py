"""Instruction specifications for RV32IM and the X_PAR (PISC) extension.

Every machine instruction known to the toolchain has one :class:`InstrSpec`
here.  The table is the single source of truth for:

* assembler operand syntax (``operands``, parsed once into ``shape``),
* binary encoding (``fmt``/``opcode``/``funct3``/``funct7``),
* simulator dispatch (``cls``) and timing (``latency``),
* register dataflow (``reads``/``writes_rd``) used by rename/issue.

X_PAR is the paper's figure 5: twelve instructions for hardware forking,
parallel calls, continuation-value and result transmission, identity
manipulation and intra-hart memory ordering.
"""

import enum

from repro.isa.registers import reg_num


class InstrClass(enum.IntEnum):
    """Coarse instruction families used for simulator dispatch."""

    ALU = 0          # register-register and register-immediate integer ops
    MULDIV = 1       # M extension (longer latency)
    LOAD = 2
    STORE = 3
    BRANCH = 4       # conditional branches
    JAL = 5          # direct jump-and-link
    JALR = 6         # indirect jump-and-link
    LUI = 7
    AUIPC = 8
    SYSTEM = 9       # ecall / ebreak
    FENCE = 10
    # --- X_PAR ---
    P_FC = 11        # fork on current core
    P_FN = 12        # fork on next core
    P_SWCV = 13      # send continuation value (forward link)
    P_LWCV = 14      # receive continuation value (local CV area)
    P_SWRE = 15      # send result (backward line)
    P_LWRE = 16      # receive result (blocks on result buffer)
    P_JAL = 17       # parallel direct call
    P_JALR = 18      # parallel indirect call / hart ending (p_ret)
    P_SET = 19       # stamp current hart identity
    P_MERGE = 20     # merge join and allocated identities
    P_SYNCM = 21     # drain in-flight memory accesses


#: the fields an operand names: a register, an immediate, a pc-relative
#: target (written as an absolute address or label) and a memory operand
FIELDS = ("rd", "rs1", "rs2", "imm", "label", "imm(rs1)")


def parse_shape(operands):
    """The tuple of fields an operand string names, in order:
    ``"rs2,imm(rs1)"`` -> ``("rs2", "imm(rs1)")``, ``""`` -> ``()``."""
    shape = tuple(operands.split(",")) if operands else ()
    if not set(shape) <= set(FIELDS):
        raise ValueError("bad operand shape %r" % (operands,))
    return shape


class InstrSpec:
    """Static description of one machine instruction.

    Attributes:
        mnemonic: canonical lower-case mnemonic.
        cls: :class:`InstrClass` for simulator dispatch.
        fmt: encoding format letter (R/I/S/B/U/J).
        opcode/funct3/funct7: encoding discriminators.
        operands: assembler operand syntax, the fields written in order,
            e.g. ``"rd,rs1,imm"`` or ``"rs2,imm(rs1)"`` (see :data:`FIELDS`).
        shape: ``operands`` parsed, a tuple of fields: what the assembler
            reads and the disassembler prints, one field per operand.
        reads: tuple of source-register field names ("rs1"/"rs2").
        writes_rd: whether the instruction produces a register result.
        latency: execution latency in cycles (issue to result ready).
    """

    __slots__ = (
        "mnemonic",
        "cls",
        "fmt",
        "opcode",
        "funct3",
        "funct7",
        "operands",
        "shape",
        "reads",
        "writes_rd",
        "latency",
    )

    def __init__(
        self,
        mnemonic,
        cls,
        fmt,
        opcode,
        funct3=0,
        funct7=0,
        operands="",
        reads=(),
        writes_rd=False,
        latency=1,
    ):
        self.mnemonic = mnemonic
        self.cls = cls
        self.fmt = fmt
        self.opcode = opcode
        self.funct3 = funct3
        self.funct7 = funct7
        self.operands = operands
        self.shape = parse_shape(operands)
        self.reads = reads
        self.writes_rd = writes_rd
        self.latency = latency

    def __repr__(self):
        return "InstrSpec(%r)" % (self.mnemonic,)


_OP = 0b0110011
_OP_IMM = 0b0010011
_LOAD = 0b0000011
_STORE = 0b0100011
_BRANCH = 0b1100011
_JAL = 0b1101111
_JALR = 0b1100111
_LUI = 0b0110111
_AUIPC = 0b0010111
_SYSTEM = 0b1110011
_FENCE = 0b0001111
CUSTOM0 = 0b0001011  # X_PAR memory-flavoured instructions
CUSTOM1 = 0b0101011  # X_PAR control-flavoured instructions


def _r(mn, f3, f7, cls=InstrClass.ALU, latency=1):
    return InstrSpec(
        mn, cls, "R", _OP, f3, f7,
        operands="rd,rs1,rs2", reads=("rs1", "rs2"), writes_rd=True,
        latency=latency,
    )


def _i(mn, f3, f7=0):
    return InstrSpec(
        mn, InstrClass.ALU, "I", _OP_IMM, f3, f7,
        operands="rd,rs1,imm", reads=("rs1",), writes_rd=True,
    )


def _load(mn, f3):
    return InstrSpec(
        mn, InstrClass.LOAD, "I", _LOAD, f3,
        operands="rd,imm(rs1)", reads=("rs1",), writes_rd=True,
    )


def _store(mn, f3):
    return InstrSpec(
        mn, InstrClass.STORE, "S", _STORE, f3,
        operands="rs2,imm(rs1)", reads=("rs1", "rs2"),
    )


def _branch(mn, f3):
    return InstrSpec(
        mn, InstrClass.BRANCH, "B", _BRANCH, f3,
        operands="rs1,rs2,label", reads=("rs1", "rs2"),
    )


_SPECS = [
    # --- RV32I ---
    InstrSpec("lui", InstrClass.LUI, "U", _LUI, operands="rd,imm", writes_rd=True),
    InstrSpec("auipc", InstrClass.AUIPC, "U", _AUIPC, operands="rd,imm", writes_rd=True),
    InstrSpec("jal", InstrClass.JAL, "J", _JAL, operands="rd,label", writes_rd=True),
    InstrSpec(
        "jalr", InstrClass.JALR, "I", _JALR, 0b000,
        operands="rd,rs1,imm", reads=("rs1",), writes_rd=True,
    ),
    _branch("beq", 0b000),
    _branch("bne", 0b001),
    _branch("blt", 0b100),
    _branch("bge", 0b101),
    _branch("bltu", 0b110),
    _branch("bgeu", 0b111),
    _load("lb", 0b000),
    _load("lh", 0b001),
    _load("lw", 0b010),
    _load("lbu", 0b100),
    _load("lhu", 0b101),
    _store("sb", 0b000),
    _store("sh", 0b001),
    _store("sw", 0b010),
    _i("addi", 0b000),
    _i("slti", 0b010),
    _i("sltiu", 0b011),
    _i("xori", 0b100),
    _i("ori", 0b110),
    _i("andi", 0b111),
    _i("slli", 0b001, 0b0000000),
    _i("srli", 0b101, 0b0000000),
    _i("srai", 0b101, 0b0100000),
    _r("add", 0b000, 0b0000000),
    _r("sub", 0b000, 0b0100000),
    _r("sll", 0b001, 0b0000000),
    _r("slt", 0b010, 0b0000000),
    _r("sltu", 0b011, 0b0000000),
    _r("xor", 0b100, 0b0000000),
    _r("srl", 0b101, 0b0000000),
    _r("sra", 0b101, 0b0100000),
    _r("or", 0b110, 0b0000000),
    _r("and", 0b111, 0b0000000),
    InstrSpec("fence", InstrClass.FENCE, "I", _FENCE, 0b000, operands=""),
    InstrSpec("ecall", InstrClass.SYSTEM, "I", _SYSTEM, 0b000, funct7=0, operands=""),
    InstrSpec("ebreak", InstrClass.SYSTEM, "I", _SYSTEM, 0b000, funct7=1, operands=""),
    # --- M extension ---
    _r("mul", 0b000, 0b0000001, InstrClass.MULDIV, latency=3),
    _r("mulh", 0b001, 0b0000001, InstrClass.MULDIV, latency=3),
    _r("mulhsu", 0b010, 0b0000001, InstrClass.MULDIV, latency=3),
    _r("mulhu", 0b011, 0b0000001, InstrClass.MULDIV, latency=3),
    _r("div", 0b100, 0b0000001, InstrClass.MULDIV, latency=12),
    _r("divu", 0b101, 0b0000001, InstrClass.MULDIV, latency=12),
    _r("rem", 0b110, 0b0000001, InstrClass.MULDIV, latency=12),
    _r("remu", 0b111, 0b0000001, InstrClass.MULDIV, latency=12),
    # --- X_PAR (paper fig. 5) ---
    InstrSpec(
        "p_lwcv", InstrClass.P_LWCV, "I", CUSTOM0, 0b000,
        operands="rd,imm", writes_rd=True, latency=2,
    ),
    InstrSpec(
        "p_lwre", InstrClass.P_LWRE, "I", CUSTOM0, 0b001,
        operands="rd,imm", writes_rd=True, latency=1,
    ),
    InstrSpec(
        "p_swcv", InstrClass.P_SWCV, "S", CUSTOM0, 0b010,
        operands="rs1,rs2,imm", reads=("rs1", "rs2"), latency=2,
    ),
    InstrSpec(
        "p_swre", InstrClass.P_SWRE, "S", CUSTOM0, 0b011,
        operands="rs1,rs2,imm", reads=("rs1", "rs2"), latency=1,
    ),
    InstrSpec(
        "p_jal", InstrClass.P_JAL, "I", CUSTOM1, 0b000,
        operands="rd,rs1,label", reads=("rs1",), writes_rd=True,
    ),
    InstrSpec(
        "p_jalr", InstrClass.P_JALR, "R", CUSTOM1, 0b001,
        operands="rd,rs1,rs2", reads=("rs1", "rs2"), writes_rd=True,
    ),
    InstrSpec(
        "p_fc", InstrClass.P_FC, "R", CUSTOM1, 0b010, 0b0000000,
        operands="rd", writes_rd=True,
    ),
    InstrSpec(
        "p_fn", InstrClass.P_FN, "R", CUSTOM1, 0b010, 0b0000001,
        operands="rd", writes_rd=True,
    ),
    InstrSpec(
        "p_set", InstrClass.P_SET, "R", CUSTOM1, 0b011,
        operands="rd,rs1", reads=("rs1",), writes_rd=True,
    ),
    InstrSpec(
        "p_merge", InstrClass.P_MERGE, "R", CUSTOM1, 0b100,
        operands="rd,rs1,rs2", reads=("rs1", "rs2"), writes_rd=True,
    ),
    InstrSpec("p_syncm", InstrClass.P_SYNCM, "R", CUSTOM1, 0b101, operands=""),
]

INSTR_SPECS = {spec.mnemonic: spec for spec in _SPECS}

#: the pseudo-instructions that are one real instruction: mnemonic ->
#: (operands, real mnemonic, fixed fields).  Each operand fills the field
#: its shape names (``bgt a, b, L`` is ``blt b, a, L``); the fixed fields
#: are set as given and every other field is 0.  ``li``, ``la``, ``jal``
#: and ``jalr`` are not rows: they take several forms or fold a constant.
_PSEUDOS = {
    "nop": ("", "addi", {}),
    "mv": ("rd,rs1", "addi", {}),
    "not": ("rd,rs1", "xori", {"imm": -1}),
    "neg": ("rd,rs2", "sub", {}),
    "seqz": ("rd,rs1", "sltiu", {"imm": 1}),
    "snez": ("rd,rs2", "sltu", {}),
    "sltz": ("rd,rs1", "slt", {}),
    "sgtz": ("rd,rs2", "slt", {}),
    "beqz": ("rs1,label", "beq", {}),
    "bnez": ("rs1,label", "bne", {}),
    "bgez": ("rs1,label", "bge", {}),
    "bltz": ("rs1,label", "blt", {}),
    "blez": ("rs2,label", "bge", {}),
    "bgtz": ("rs2,label", "blt", {}),
    "bgt": ("rs2,rs1,label", "blt", {}),
    "ble": ("rs2,rs1,label", "bge", {}),
    "bgtu": ("rs2,rs1,label", "bltu", {}),
    "bleu": ("rs2,rs1,label", "bgeu", {}),
    "j": ("label", "jal", {}),
    "call": ("label", "jal", {"rd": reg_num("ra")}),
    "tail": ("label", "jal", {}),
    "jr": ("rs1", "jalr", {}),
    "ret": ("", "jalr", {"rs1": reg_num("ra")}),
    "p_ret": ("", "p_jalr", {"rs1": reg_num("ra"), "rs2": reg_num("t0")}),
}

#: every mnemonic that is one instruction, real or pseudo -> (shape, real
#: mnemonic, fixed fields): what the assembler's one walk reads
FORMS = {spec.mnemonic: (spec.shape, spec.mnemonic, {}) for spec in _SPECS}
FORMS.update((mnemonic, (parse_shape(operands), real, fixed))
             for mnemonic, (operands, real, fixed) in _PSEUDOS.items())

XPAR_MNEMONICS = frozenset(
    spec.mnemonic for spec in _SPECS if spec.cls >= InstrClass.P_FC
)


def spec_for(mnemonic):
    """Return the :class:`InstrSpec` for a mnemonic.

    Raises :class:`KeyError` for unknown mnemonics.
    """
    try:
        return INSTR_SPECS[mnemonic]
    except KeyError:
        raise KeyError("unknown instruction mnemonic %r" % (mnemonic,)) from None
