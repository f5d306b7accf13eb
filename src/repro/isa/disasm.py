"""Textual disassembly of decoded instructions.

The output uses the same GNU-flavoured syntax the assembler accepts, so
``assemble(disassemble(i))`` round-trips (modulo label names, which binary
instructions no longer carry — offsets are printed numerically).
"""

from repro.isa.registers import reg_name
from repro.isa.spec import spec_for


def _operand(ins, field):
    if field == "imm(rs1)":
        return "%d(%s)" % (ins.imm, reg_name(ins.rs1))
    if field in ("imm", "label"):
        return "%d" % ins.imm
    return reg_name(getattr(ins, field))


def disassemble(ins):
    """Return the assembly text for one decoded :class:`Instruction`: one
    operand per field of its spec's shape."""
    spec = ins.spec or spec_for(ins.mnemonic)
    if not spec.shape:
        return ins.mnemonic
    return "%s %s" % (ins.mnemonic,
                      ", ".join(_operand(ins, field) for field in spec.shape))


def disassemble_program(instructions, base_addr=0):
    """Disassemble a sequence of instructions with addresses.

    Returns a list of ``"addr: text"`` lines.
    """
    lines = []
    for index, ins in enumerate(instructions):
        addr = ins.addr if ins.addr is not None else base_addr + 4 * index
        lines.append("%08x: %s" % (addr, disassemble(ins)))
    return lines
