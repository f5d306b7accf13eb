"""Binary encode/decode of RV32IM and X_PAR instructions."""

import pytest

from repro.isa import (
    INSTR_SPECS,
    Instruction,
    decode_word,
    encode_instruction,
    spec_for,
)
from repro.isa.encoding import EncodingError, sign_extend


def _sample_for(spec):
    """One representative instruction per operand shape."""
    shape = spec.operands
    ins = Instruction(spec.mnemonic, spec=spec)
    if "rd" in shape:
        ins.rd = 11
    if "rs1" in shape:
        ins.rs1 = 12
    if "rs2" in shape:
        ins.rs2 = 13
    if "imm" in shape or "label" in shape:
        if spec.mnemonic in ("slli", "srli", "srai"):
            ins.imm = 7
        elif spec.fmt == "U":
            ins.imm = 0x12345
        elif spec.fmt in ("B", "J"):
            ins.imm = -8
        else:
            ins.imm = -5
    return ins


@pytest.mark.parametrize("mnemonic", sorted(INSTR_SPECS))
def test_round_trip_every_mnemonic(mnemonic):
    spec = INSTR_SPECS[mnemonic]
    ins = _sample_for(spec)
    word = encode_instruction(ins)
    assert 0 <= word < (1 << 32)
    decoded = decode_word(word)
    assert decoded == ins, (decoded, ins)


def test_sign_extend():
    assert sign_extend(0xFFF, 12) == -1
    assert sign_extend(0x7FF, 12) == 2047
    assert sign_extend(0x800, 12) == -2048
    assert sign_extend(5, 12) == 5


def test_branch_offset_ranges():
    spec = spec_for("beq")
    ok = Instruction("beq", rs1=1, rs2=2, imm=4094, spec=spec)
    assert decode_word(encode_instruction(ok)).imm == 4094
    too_far = Instruction("beq", rs1=1, rs2=2, imm=4096, spec=spec)
    with pytest.raises(EncodingError):
        encode_instruction(too_far)
    odd = Instruction("beq", rs1=1, rs2=2, imm=3, spec=spec)
    with pytest.raises(EncodingError):
        encode_instruction(odd)


def test_jal_offset_range():
    spec = spec_for("jal")
    ok = Instruction("jal", rd=1, imm=-(1 << 20), spec=spec)
    assert decode_word(encode_instruction(ok)).imm == -(1 << 20)
    with pytest.raises(EncodingError):
        encode_instruction(Instruction("jal", rd=1, imm=1 << 20, spec=spec))


def test_immediate_out_of_range():
    spec = spec_for("addi")
    with pytest.raises(EncodingError):
        encode_instruction(Instruction("addi", rd=1, rs1=1, imm=5000, spec=spec))


def test_unknown_word_raises():
    with pytest.raises(EncodingError):
        decode_word(0xFFFFFFFF)


def test_ecall_ebreak_distinct():
    ecall = encode_instruction(Instruction("ecall", spec=spec_for("ecall")))
    ebreak = encode_instruction(Instruction("ebreak", spec=spec_for("ebreak")))
    assert ecall != ebreak
    assert decode_word(ecall).mnemonic == "ecall"
    assert decode_word(ebreak).mnemonic == "ebreak"


def test_xpar_instructions_use_custom_opcodes():
    for mnemonic in ("p_fc", "p_fn", "p_swcv", "p_lwcv", "p_swre", "p_lwre",
                     "p_jal", "p_jalr", "p_set", "p_merge", "p_syncm"):
        spec = INSTR_SPECS[mnemonic]
        assert spec.opcode in (0b0001011, 0b0101011), mnemonic


def test_no_encoding_collisions_across_all_specs():
    words = {}
    for spec in INSTR_SPECS.values():
        ins = _sample_for(spec)
        word = encode_instruction(ins)
        assert word not in words, (spec.mnemonic, words.get(word))
        words[word] = spec.mnemonic


def test_decode_preserves_address():
    word = encode_instruction(Instruction("addi", rd=1, rs1=2, imm=3,
                                          spec=spec_for("addi")))
    assert decode_word(word, addr=0x40).addr == 0x40


def test_shift_decode_shamt():
    spec = spec_for("srai")
    word = encode_instruction(Instruction("srai", rd=3, rs1=4, imm=31, spec=spec))
    decoded = decode_word(word)
    assert decoded.mnemonic == "srai"
    assert decoded.imm == 31


def test_instruction_repr_and_comparison_with_another_type():
    ins = Instruction("addi", rd=1, rs1=2, imm=-3)
    assert repr(ins) == "Instruction('addi', rd=1, rs1=2, rs2=0, imm=-3)"
    assert ins.__eq__(("addi", 1, 2, 0, -3)) is NotImplemented
    assert ins != "addi"
