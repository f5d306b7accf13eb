"""The assembler's operand-expression engine."""

import pytest

from repro.asm.assembler import _Operands
from repro.asm.errors import AsmError
from repro.asm.expr import eval_expr, hi20, lo12, try_fold
from repro.asm.lexer import tokenize_line


def _parse(text):
    ops = _Operands(tokenize_line(text))
    node = ops.expr()
    assert ops.at_end(), "trailing tokens"
    return node


def _fold(text):
    """The value of a symbol-free expression."""
    return eval_expr(_parse(text), {})


@pytest.mark.parametrize("text,expected", [
    ("1+2*3", 7),
    ("(1+2)*3", 9),
    ("16>>2", 4),
    ("1<<10", 1024),
    ("0xF0|0x0F", 0xFF),
    ("0xFF&0x0F", 0x0F),
    ("5^1", 4),
    ("-4+10", 6),
    ("~0", -1),
    ("100/7", 14),
    ("7/0", 0),  # divide-by-zero folds to 0 (deterministic)
    ("10-3-2", 5),  # equal powers associate to the left
    ("64/4/2", 8),
    ("1<<2>>1", 2),
])
def test_constant_folding(text, expected):
    assert _fold(text) == expected


def test_symbols_defer_folding_but_evaluate():
    node = _parse("base+4*idx")
    assert try_fold(node) is None
    assert eval_expr(node, {"base": 0x100, "idx": 3}) == 0x10C


def test_undefined_symbol_raises_with_name():
    with pytest.raises(AsmError, match="ghost"):
        eval_expr(_parse("ghost+1"), {})


def test_hi_lo_relocation_composition():
    for value in (0, 1, 0x7FF, 0x800, 0x801, 0xFFF, 0x12345678,
                  0x7FFFF800, 0x7FFFFFFF, 0xFFFFFFFF, 0x80000000):
        composed = ((hi20(value) << 12) + lo12(value)) & 0xFFFFFFFF
        assert composed == value & 0xFFFFFFFF, hex(value)


def test_hi_lo_nodes_in_expressions():
    node = _parse("%hi(sym)")
    assert eval_expr(node, {"sym": 0x12345678}) == hi20(0x12345678)
    node = _parse("%lo(sym+4)")
    assert eval_expr(node, {"sym": 0x12345678}) == lo12(0x1234567C)


def test_precedence_matches_c():
    # | < ^ < & < shift < additive < multiplicative
    assert _fold("1|2^3&4<<1+2*0") == (1 | (2 ^ (3 & (4 << (1 + 2 * 0)))))


def test_the_tree_is_left_associative():
    assert _parse("a-b-c") == (
        "bin", "-", ("bin", "-", ("sym", "a"), ("sym", "b")), ("sym", "c"))
    assert _parse("a-b*c") == (
        "bin", "-", ("sym", "a"), ("bin", "*", ("sym", "b"), ("sym", "c")))


def test_unary_chains():
    assert _fold("--5") == 5
    assert _fold("~~7") == 7
    assert _fold("+-+3") == -3


def test_parse_error_on_garbage():
    with pytest.raises(AsmError):
        _parse("1 + *")
    with pytest.raises(AsmError):
        _parse("%hi 5")
