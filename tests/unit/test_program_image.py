"""Program image plumbing: segments, symbols, loading into machines."""

import pytest

from repro import memmap
from repro.asm import assemble
from repro.asm.program import Program, Segment
from repro.machine import LBP, MachineError, Params


def test_segment_properties():
    seg = Segment("data", 2, 0x1000, bytearray(b"abcd"))
    assert seg.end == 0x1004
    assert "bank=2" in repr(seg)


def test_read_word_initial_out_of_segments():
    program = assemble("main: nop")
    assert program.read_word_initial(0x12345678) is None
    assert program.read_word_initial(0) is not None


def test_code_size_and_segments():
    program = assemble("main: nop\n nop\n nop")
    assert program.code_size() == 12
    assert len(program.code_segments()) == 1
    assert program.data_segments() == []


def test_symbol_error_carries_context():
    program = assemble("main: nop", source_name="ctx.s")
    with pytest.raises(KeyError, match="ctx.s"):
        program.symbol("missing")


def test_machine_rejects_overlarge_bank():
    program = assemble(".data\n.bank 7\nx: .word 1\n.text\nmain: ebreak")
    with pytest.raises(MachineError, match="bank 7"):
        LBP(Params(num_cores=4)).load(program)


def test_machine_refuses_a_negative_bank():
    """Not loaded into the last core's bank, as a list index would have."""
    program = assemble("main: ebreak")
    program.segments.append(Segment(
        "data", -1, memmap.global_bank_base(1), bytearray(b"\x07" * 16)))
    machine = LBP(Params(num_cores=2))
    with pytest.raises(MachineError, match=r"Segment\(data, bank=-1"):
        machine.load(program)
    assert machine.cores[-1].mem.shared.data.count(0) == memmap.GLOBAL_BANK_SIZE


def test_machine_refuses_a_segment_below_its_bank():
    """A negative offset into the bank would make the slice assignment
    insert the image, growing the bank past its configured size."""
    program = assemble("main: ebreak")
    program.segments.append(Segment(
        "data", 1, memmap.global_bank_base(1) - 8, bytearray(16)))
    machine = LBP(Params(num_cores=2))
    with pytest.raises(MachineError, match=r"Segment\(data, bank=1, .*shared1"):
        machine.load(program)
    bank = machine.cores[1].mem.shared
    with pytest.raises(IndexError):
        bank.load_image(-8, bytes(16))
    assert len(bank.data) == memmap.GLOBAL_BANK_SIZE


def test_machine_read_write_helpers():
    program = assemble("main: ebreak\n.data\nv: .word 0xABCD")
    machine = LBP(Params(num_cores=2)).load(program)
    addr = program.symbol("v")
    assert machine.read_word(addr) == 0xABCD
    machine.write_word(addr, 0x1234)
    assert machine.read_word(addr) == 0x1234
    with pytest.raises(MachineError):
        machine.read_word(memmap.LOCAL_BASE)
    with pytest.raises(MachineError):
        machine.read_word(memmap.global_bank_base(99))


def test_initial_sp_and_boot_hart():
    program = assemble("main: mv a0, sp\n ebreak")
    machine = LBP(Params(num_cores=1)).load(program)
    machine.run(max_cycles=1000)
    assert machine.cores[0].harts[0].regs[10] == memmap.hart_initial_sp(0)


def test_data_loaded_into_correct_banks():
    program = assemble("""
main: ebreak
.data
a: .word 11
.bank 1
b: .word 22
""")
    machine = LBP(Params(num_cores=2)).load(program)
    assert machine.cores[0].mem.shared.read(program.symbol("a"), 4) == 11
    assert machine.cores[1].mem.shared.read(program.symbol("b"), 4) == 22


def test_load_without_start_leaves_harts_free():
    program = assemble("main: ebreak")
    machine = LBP(Params(num_cores=1)).load(program, start=False)
    assert machine.cores[0].harts[0].is_free()
