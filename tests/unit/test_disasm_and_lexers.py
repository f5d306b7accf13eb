"""Disassembler round-trips and the two lexers' corner cases."""

import pytest

from repro.asm import assemble
from repro.asm.errors import AsmError
from repro.asm.lexer import tokenize_line
from repro.compiler.clexer import tokenize
from repro.compiler.errors import CompileError
from repro.isa import INSTR_SPECS, disassemble, encode_instruction
from repro.isa.disasm import disassemble_program


def test_disasm_reassembles_to_same_encoding():
    """asm → program → disasm text → asm again: identical instructions."""
    source = """
main:
    addi sp, sp, -16
    sw ra, 0(sp)
    lui t1, 74565
    mul t2, t1, t1
    p_fc t6
    p_swcv t6, ra, 4
    p_merge t0, t0, t6
    p_syncm
    p_lwre a0, 2
    ebreak
"""
    first = assemble(source)
    listing = "\n".join(
        "second_%d: %s" % (i, disassemble(first.instructions[a]))
        for i, a in enumerate(sorted(first.instructions))
        if first.instructions[a].spec.cls.name not in ("BRANCH", "JAL", "P_JAL")
    )
    second = assemble(listing)
    firsts = [first.instructions[a] for a in sorted(first.instructions)]
    seconds = [second.instructions[a] for a in sorted(second.instructions)]
    assert firsts == seconds


def test_disassemble_every_shape():
    """Every mnemonic at address 0: encode, disassemble, assemble the text
    again, and the word is the same (a pc-relative operand is printed as
    the offset, which at address 0 is the target)."""
    from repro.isa.instruction import Instruction

    for spec in INSTR_SPECS.values():
        ins = Instruction(spec.mnemonic, spec=spec, addr=0)
        if "rd" in spec.operands:
            ins.rd = 11
        if "rs1" in spec.operands:
            ins.rs1 = 12
        if "rs2" in spec.operands:
            ins.rs2 = 13
        if "imm" in spec.operands or "label" in spec.operands:
            if spec.mnemonic in ("slli", "srli", "srai"):
                ins.imm = 7
            elif spec.fmt == "U":
                ins.imm = 0x12345
            elif spec.fmt in ("B", "J"):
                ins.imm = -8
            else:
                ins.imm = -5
        text = disassemble(ins)
        assert text.startswith(spec.mnemonic)
        program = assemble(text)
        assert program.read_word_initial(0) == encode_instruction(ins), text


def test_disassemble_program_listing():
    program = assemble("main: nop\n      nop")
    instrs = [program.instructions[a] for a in sorted(program.instructions)]
    lines = disassemble_program(instrs)
    assert len(lines) == 2
    assert lines[0].startswith("00000000:")


def test_asm_lexer_tokens():
    tokens = tokenize_line("lw ra, 0(sp) # comment")
    assert [t.kind for t in tokens] == ["IDENT", "IDENT", "PUNCT", "NUM",
                                        "PUNCT", "IDENT", "PUNCT"]
    assert tokenize_line("   # only comment") == []
    values = tokenize_line(".word 0x10, 0b101, 'A'")
    assert [t.value for t in values if t.kind == "NUM"] == [16, 5, 65]


def test_asm_lexer_shift_operators():
    tokens = tokenize_line(".equ X, 1<<4")
    assert any(t.kind == "PUNCT" and t.value == "<<" for t in tokens)


def test_asm_lexer_rejects_garbage():
    with pytest.raises(AsmError):
        tokenize_line("addi a0, a0, `")


def test_c_lexer_operators_longest_match():
    tokens = tokenize(" a <<= b >>= c ... d -> e ++ -- ")
    punct = [t.value for t in tokens if t.kind == "PUNCT"]
    assert punct == ["<<=", ">>=", "...", "->", "++", "--"]


def test_c_lexer_numbers_and_suffixes():
    tokens = tokenize("0x10 0b11 017 42u 42UL")
    values = [t.value for t in tokens if t.kind == "NUM"]
    assert values == [16, 3, 15, 42, 42]


def test_c_lexer_keywords_vs_identifiers():
    tokens = tokenize("int interest; return returned;")
    kinds = {t.value: t.kind for t in tokens if t.kind in ("KW", "ID")}
    assert kinds["int"] == "KW"
    assert kinds["interest"] == "ID"
    assert kinds["return"] == "KW"
    assert kinds["returned"] == "ID"


def test_c_lexer_char_escapes():
    tokens = tokenize(r"'\n' '\t' '\0' '\\'")
    values = [t.value for t in tokens if t.kind == "NUM"]
    assert values == [10, 9, 0, 92]


def test_c_lexer_line_tracking():
    tokens = tokenize("a\nb\n\nc")
    lines = {t.value: t.line for t in tokens if t.kind == "ID"}
    assert lines == {"a": 1, "b": 2, "c": 4}


def test_c_lexer_bad_char():
    with pytest.raises(CompileError):
        tokenize("int a = `3`;")
