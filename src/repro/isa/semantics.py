"""Pure-functional 32-bit integer semantics for RV32IM.

Both simulators (cycle-accurate and fast) evaluate ALU operations through
these functions, so a single implementation defines the architecture's
arithmetic.  Property tests compare them against Python big-int arithmetic.

All values are Python ints in the range [0, 2**32); :func:`to_signed`
converts to the signed view where an operation is signed.
"""

from repro.memmap import HARTS_PER_CORE

MASK32 = 0xFFFFFFFF


def to_signed(value):
    """Interpret a 32-bit unsigned value as two's-complement signed."""
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


def to_unsigned(value):
    """Truncate any Python int to its 32-bit unsigned representation."""
    return value & MASK32


def _sra(a, b):
    return to_unsigned(to_signed(a) >> (b & 31))


def _mulh(a, b):
    return to_unsigned((to_signed(a) * to_signed(b)) >> 32)


def _mulhsu(a, b):
    return to_unsigned((to_signed(a) * (b & MASK32)) >> 32)


def _mulhu(a, b):
    return to_unsigned(((a & MASK32) * (b & MASK32)) >> 32)


def _div(a, b):
    """RISC-V signed division: round toward zero; div by 0 → -1; overflow wraps."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return MASK32
    if sa == -0x80000000 and sb == -1:
        return 0x80000000
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return to_unsigned(quotient)


def _divu(a, b):
    if b == 0:
        return MASK32
    return (a & MASK32) // (b & MASK32)


def _rem(a, b):
    """RISC-V signed remainder: sign of dividend; rem by 0 → dividend."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return to_unsigned(sa)
    if sa == -0x80000000 and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return to_unsigned(remainder)


def _remu(a, b):
    if b == 0:
        return a & MASK32
    return (a & MASK32) % (b & MASK32)


# rs1/rs2 (or rs1/imm) → 32-bit result, for every computational mnemonic.
ALU_OPS = {
    "add": lambda a, b: (a + b) & MASK32,
    "addi": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "sll": lambda a, b: (a << (b & 31)) & MASK32,
    "slli": lambda a, b: (a << (b & 31)) & MASK32,
    "slt": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "slti": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "sltu": lambda a, b: 1 if (a & MASK32) < (b & MASK32) else 0,
    "sltiu": lambda a, b: 1 if (a & MASK32) < (b & MASK32) else 0,
    "xor": lambda a, b: (a ^ b) & MASK32,
    "xori": lambda a, b: (a ^ b) & MASK32,
    "srl": lambda a, b: (a & MASK32) >> (b & 31),
    "srli": lambda a, b: (a & MASK32) >> (b & 31),
    "sra": _sra,
    "srai": _sra,
    "or": lambda a, b: (a | b) & MASK32,
    "ori": lambda a, b: (a | b) & MASK32,
    "and": lambda a, b: (a & b) & MASK32,
    "andi": lambda a, b: (a & b) & MASK32,
    "mul": lambda a, b: (a * b) & MASK32,
    "mulh": _mulh,
    "mulhsu": _mulhsu,
    "mulhu": _mulhu,
    "div": _div,
    "divu": _divu,
    "rem": _rem,
    "remu": _remu,
}

# rs1/rs2 → bool, for conditional branches.
BRANCH_OPS = {
    "beq": lambda a, b: (a & MASK32) == (b & MASK32),
    "bne": lambda a, b: (a & MASK32) != (b & MASK32),
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: (a & MASK32) < (b & MASK32),
    "bgeu": lambda a, b: (a & MASK32) >= (b & MASK32),
}


# --- memory access widths ----------------------------------------------------

LOAD_WIDTH = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "p_lwcv": 4}
STORE_WIDTH = {"sb": 1, "sh": 2, "sw": 4}
_LOAD_SIGNED = {"lb": 8, "lh": 16}


def load_value(mnemonic, raw):
    """Sign- or zero-extend a raw loaded value per the load mnemonic."""
    bits = _LOAD_SIGNED.get(mnemonic)
    if bits is None:
        return raw & MASK32
    return to_unsigned(raw - (1 << bits) if raw & (1 << (bits - 1)) else raw)


# --- X_PAR identity arithmetic (paper fig. 5) -------------------------------

HART_ID_FLAG = 0x80000000


def p_set_value(rs1, core, hart):
    """``p_set``: stamp the current hart identity into the high half."""
    ident = HARTS_PER_CORE * core + hart
    return to_unsigned((rs1 & 0x0000FFFF) | (ident << 16) | HART_ID_FLAG)


def p_merge_value(rs1, rs2):
    """``p_merge``: keep rs1's join half, take rs2's allocated half."""
    return to_unsigned((rs1 & 0x7FFF0000) | (rs2 & 0x0000FFFF))


def join_hart(value):
    """Extract the join-hart global index from a stamped identity word."""
    return (value >> 16) & 0x7FFF


def allocated_hart(value):
    """Extract the allocated-hart global index (low half) of an identity."""
    return value & 0xFFFF
