"""The two-pass assembler: syntax, pseudo expansion, directives, errors."""

import pytest

from repro import memmap
from repro.asm import AsmError, assemble
from repro.isa import decode_word


def _mnemonics(program):
    return [program.instructions[a].mnemonic for a in sorted(program.instructions)]


def test_labels_and_branches():
    program = assemble("""
main:   li t1, 3
loop:   addi t1, t1, -1
        bnez t1, loop
        j main
        ebreak
""")
    instrs = sorted(program.instructions)
    branch = program.instructions[instrs[2]]
    assert branch.mnemonic == "bne"
    assert branch.imm == program.symbol("loop") - instrs[2]
    jump = program.instructions[instrs[3]]
    assert jump.mnemonic == "jal" and jump.rd == 0
    assert jump.imm == program.symbol("main") - instrs[3]


def test_li_expansions():
    small = assemble("main: li a0, 42")
    assert _mnemonics(small) == ["addi"]
    negative = assemble("main: li a0, -42")
    assert _mnemonics(negative) == ["addi"]
    large = assemble("main: li a0, 0x12345678")
    assert _mnemonics(large) == ["lui", "addi"]
    exact = assemble("main: li a0, 0x12345000")
    assert _mnemonics(exact) == ["lui"]


def test_la_uses_hi_lo():
    program = assemble("""
main:   la a0, value
        .data
value:  .word 99
""")
    assert _mnemonics(program) == ["lui", "addi"]
    lui, addi = (program.instructions[a] for a in sorted(program.instructions))
    target = program.symbol("value")
    composed = ((lui.imm << 12) + addi.imm) & 0xFFFFFFFF
    assert composed == target


def test_paper_pseudos():
    program = assemble("""
main:   mv a0, a1
        not a2, a3
        neg a4, a5
        seqz t1, t2
        snez t3, t4
        ret
        p_ret
""")
    names = _mnemonics(program)
    assert names == ["addi", "xori", "sub", "sltiu", "sltu", "jalr", "p_jalr"]
    p_ret = program.instructions[sorted(program.instructions)[-1]]
    assert (p_ret.rd, p_ret.rs1, p_ret.rs2) == (0, 1, 5)  # zero, ra, t0


def test_memory_operand_forms():
    program = assemble("""
main:   lw a0, 8(sp)
        lw a1, (sp)
        sw a2, -4(sp)
        lb a3, 1(t1)
        sb a4, 0(t2)
""")
    instrs = [program.instructions[a] for a in sorted(program.instructions)]
    assert instrs[0].imm == 8
    assert instrs[1].imm == 0
    assert instrs[2].imm == -4
    assert [i.mnemonic for i in instrs] == ["lw", "lw", "sw", "lb", "sb"]


def test_data_directives_and_banks():
    program = assemble("""
        .data
a:      .word 1, 2, 3
b:      .byte 4, 5
        .align 2
c:      .word 6
        .bank 2
d:      .space 16, 0xAB
""")
    assert program.symbol("a") == memmap.global_bank_base(0)
    assert program.symbol("b") == program.symbol("a") + 12
    assert program.symbol("c") % 4 == 0
    assert program.symbol("d") == memmap.global_bank_base(2)
    bank2 = program.data_bank_image(2)
    assert bank2 == [(0, b"\xab" * 16)]


def test_equ_and_expressions():
    program = assemble("""
        .equ SIZE, 8*4
        .equ HALF, SIZE/2
main:   li a0, SIZE
        li a1, HALF+1
""")
    # symbolic li always expands to lui+addi; the composed value must match
    instrs = [program.instructions[a] for a in sorted(program.instructions)]
    assert [i.mnemonic for i in instrs] == ["lui", "addi", "lui", "addi"]
    assert ((instrs[0].imm << 12) + instrs[1].imm) & 0xFFFFFFFF == 32
    assert ((instrs[2].imm << 12) + instrs[3].imm) & 0xFFFFFFFF == 17


def test_encoded_bytes_decode_back():
    program = assemble("""
main:   li t0, -1
        p_set t0, t0
        p_fc t6
        p_swcv t6, ra, 0
        p_merge t0, t0, t6
        p_syncm
        p_jalr ra, t0, a0
        p_lwcv ra, 0
        p_lwre a0, 2
        p_swre t0, a0, 1
        p_jal ra, t6, main
""")
    for addr in sorted(program.instructions):
        word = program.read_word_initial(addr)
        assert decode_word(word, addr) == program.instructions[addr]


def test_errors():
    with pytest.raises(AsmError):
        assemble("main: bad_instruction a0, a1")
    with pytest.raises(AsmError):
        assemble("main: addi a0")  # missing operands
    with pytest.raises(AsmError):
        assemble("main: j nowhere")  # undefined symbol
    with pytest.raises(AsmError):
        assemble("main: addi a0, a0, 1\nmain: nop")  # duplicate label
    with pytest.raises(AsmError):
        assemble(".data\nx: .word 1\n.text\n .word 2")  # data in text
    with pytest.raises(AsmError):
        assemble("main: addi a0, a0, 99999")  # imm overflow


#: every pseudo-instruction form -> (mnemonic, rd, rs1, rs2, imm) of each
#: instruction it expands to.  The line sits at address 4, so a
#: pc-relative target 20 is the offset 16 and an absolute 20 stays 20
#: (a0 = 10, a1 = 11, ra = 1, t0 = 5).
PSEUDO_EXPANSIONS = [
    ("nop", [("addi", 0, 0, 0, 0)]),
    ("li a0, 5", [("addi", 10, 0, 0, 5)]),
    ("li a0, -1", [("addi", 10, 0, 0, -1)]),
    ("li a0, 0x800", [("lui", 10, 0, 0, 1), ("addi", 10, 10, 0, -2048)]),
    ("li a0, 0x12345000", [("lui", 10, 0, 0, 0x12345)]),
    ("li a0, 0x12345678",
     [("lui", 10, 0, 0, 0x12345), ("addi", 10, 10, 0, 0x678)]),
    ("li a0, K", [("lui", 10, 0, 0, 0x12345), ("addi", 10, 10, 0, 0x678)]),
    ("la a0, 0x12345678",
     [("lui", 10, 0, 0, 0x12345), ("addi", 10, 10, 0, 0x678)]),
    ("la a0, 20", [("lui", 10, 0, 0, 0), ("addi", 10, 10, 0, 20)]),
    ("mv a0, a1", [("addi", 10, 11, 0, 0)]),
    ("not a0, a1", [("xori", 10, 11, 0, -1)]),
    ("neg a0, a1", [("sub", 10, 0, 11, 0)]),
    ("seqz a0, a1", [("sltiu", 10, 11, 0, 1)]),
    ("snez a0, a1", [("sltu", 10, 0, 11, 0)]),
    ("sltz a0, a1", [("slt", 10, 11, 0, 0)]),
    ("sgtz a0, a1", [("slt", 10, 0, 11, 0)]),
    ("beqz a0, 20", [("beq", 0, 10, 0, 16)]),
    ("bnez a0, 20", [("bne", 0, 10, 0, 16)]),
    ("bgez a0, 20", [("bge", 0, 10, 0, 16)]),
    ("bltz a0, 20", [("blt", 0, 10, 0, 16)]),
    ("blez a0, 20", [("bge", 0, 0, 10, 16)]),
    ("bgtz a0, 20", [("blt", 0, 0, 10, 16)]),
    ("bgt a0, a1, 20", [("blt", 0, 11, 10, 16)]),
    ("ble a0, a1, 20", [("bge", 0, 11, 10, 16)]),
    ("bgtu a0, a1, 20", [("bltu", 0, 11, 10, 16)]),
    ("bleu a0, a1, 20", [("bgeu", 0, 11, 10, 16)]),
    ("j 20", [("jal", 0, 0, 0, 16)]),
    ("jal 20", [("jal", 1, 0, 0, 16)]),
    ("jal a0, 20", [("jal", 10, 0, 0, 16)]),
    ("jalr a0", [("jalr", 1, 10, 0, 0)]),
    ("jalr a1, a0, 20", [("jalr", 11, 10, 0, 20)]),
    ("jalr a1, 20(a0)", [("jalr", 11, 10, 0, 20)]),
    ("jalr a1, (a0)", [("jalr", 11, 10, 0, 0)]),
    ("jr a0", [("jalr", 0, 10, 0, 0)]),
    ("call 20", [("jal", 1, 0, 0, 16)]),
    ("tail 20", [("jal", 0, 0, 0, 16)]),
    ("ret", [("jalr", 0, 1, 0, 0)]),
    ("p_ret", [("p_jalr", 0, 1, 5, 0)]),
]


@pytest.mark.parametrize("line,expected", PSEUDO_EXPANSIONS,
                         ids=[line for line, _ in PSEUDO_EXPANSIONS])
def test_pseudo_expansion(line, expected):
    program = assemble(".equ K, 0x12345678\n nop\n %s" % line)
    got = [(ins.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm)
           for addr, ins in sorted(program.instructions.items())
           if addr >= 4]
    assert got == expected


#: a malformed line -> the exact text of the AsmError it raises
ERROR_TEXTS = [
    ("add a0 a1, a2", "<asm>:1: expected ','"),
    ("add a0, 5, a2", "<asm>:1: expected register, got 5"),
    ("mv a0, 3", "<asm>:1: expected register, got 3"),
    ("add a0, a1, a2, a3", "<asm>:1: trailing tokens after instruction"),
    ("nop 5", "<asm>:1: trailing tokens after instruction"),
    ("ret a0", "<asm>:1: trailing tokens after instruction"),
    ("lw a0, 4(a1", "<asm>:1: expected ')' of memory operand"),
    ("sw a0, a1", "<asm>:1: expected '(' of memory operand"),
    ("addi a0, a1, (1+2", "<asm>:1: expected ')'"),
    ("lui a0, %hi 5", "<asm>:1: expected '('"),
    ("addi a0, a1,", "<asm>:1: expected expression"),
    ("addi a0, a1, 1 +", "<asm>:1: expected expression"),
    ("addi a0, a1, * 2", "<asm>:1: unexpected token '*' in expression"),
    ("li a0", "<asm>:1: expected ','"),
    ("jal ra", "<asm>:1: jal needs a target label"),
    ("bgt a0, a1", "<asm>:1: expected ','"),
    ("j nowhere", "<asm>:1: undefined symbol 'nowhere'"),
    (".bank sym", "<asm>:1: .bank needs a constant bank number"),
    (".data\n.space sym", "<asm>:2: .space needs a constant size"),
    (".align 99", "<asm>:1: .align needs a small constant"),
]


@pytest.mark.parametrize("source,text", ERROR_TEXTS,
                         ids=[source for source, _ in ERROR_TEXTS])
def test_error_texts(source, text):
    with pytest.raises(AsmError) as caught:
        assemble(source)
    assert str(caught.value) == text


def test_entry_point_selection():
    has_main = assemble("main: nop")
    assert has_main.entry == has_main.symbol("main")
    has_start = assemble("_start: nop\nmain: nop")
    assert has_start.entry == has_start.symbol("_start")
    with pytest.raises(KeyError):
        assemble("other: nop").entry


def test_comments_and_blank_lines():
    program = assemble("""
# full-line comment
main:   nop        # trailing comment
        // c++ style
        nop
""")
    assert len(program.instructions) == 2


def test_char_literals_and_strings():
    program = assemble("""
        .data
ch:     .byte 'A', '\\n'
s:      .asciz "hi"
""")
    image = dict(program.data_bank_image(0))
    data = image[0]
    assert data[:2] == b"A\n"
    assert data[2:5] == b"hi\0"


def test_disassembly_listing():
    program = assemble("main: addi a0, zero, 7\n      ebreak")
    text = program.disassembly()
    assert "main:" in text
    assert "addi a0, zero, 7" in text
