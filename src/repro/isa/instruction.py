"""The decoded-instruction value object shared by the whole toolchain.

Instructions are decoded once (at assembly or program-load time) and then
interpreted many times by the simulators, so the object is deliberately a
small ``__slots__`` record rather than anything richer.
"""


class Instruction:
    """One decoded machine instruction.

    Attributes:
        mnemonic: canonical lower-case mnemonic, e.g. ``"addi"`` or ``"p_fc"``.
        rd, rs1, rs2: register numbers (0..31); 0 when the field is unused.
        imm: sign-extended immediate (0 when unused).
        spec: the :class:`repro.isa.spec.InstrSpec` this instruction follows.
        addr: byte address of the instruction once placed in a program image
            (filled by the assembler / loader; ``None`` for free-standing
            instructions).
    """

    __slots__ = ("mnemonic", "rd", "rs1", "rs2", "imm", "spec", "addr")

    def __init__(self, mnemonic, rd=0, rs1=0, rs2=0, imm=0, spec=None, addr=None):
        self.mnemonic = mnemonic
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.spec = spec
        self.addr = addr

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.mnemonic == other.mnemonic
            and self.rd == other.rd
            and self.rs1 == other.rs1
            and self.rs2 == other.rs2
            and self.imm == other.imm
        )

    def __repr__(self):
        return "Instruction(%r, rd=%d, rs1=%d, rs2=%d, imm=%d)" % (
            self.mnemonic,
            self.rd,
            self.rs1,
            self.rs2,
            self.imm,
        )

    def __str__(self):
        from repro.isa.disasm import disassemble

        return disassemble(self)
