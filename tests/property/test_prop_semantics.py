"""Property: the 32-bit ALU semantics against Python big-int references."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.semantics import ALU_OPS, BRANCH_OPS, to_signed, to_unsigned
from repro.machine import native
from repro.machine.lowered import ALU_CODES, BRANCH_CODES

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


@given(u32, u32)
@settings(max_examples=300)
def test_wrapping_ops(a, b):
    assert ALU_OPS["add"](a, b) == (a + b) % (1 << 32)
    assert ALU_OPS["sub"](a, b) == (a - b) % (1 << 32)
    assert ALU_OPS["mul"](a, b) == (a * b) % (1 << 32)
    assert ALU_OPS["and"](a, b) == a & b
    assert ALU_OPS["or"](a, b) == a | b
    assert ALU_OPS["xor"](a, b) == a ^ b


@given(u32, st.integers(0, 31))
@settings(max_examples=200)
def test_shifts_reference(a, sh):
    assert ALU_OPS["sll"](a, sh) == (a << sh) % (1 << 32)
    assert ALU_OPS["srl"](a, sh) == a >> sh
    assert ALU_OPS["sra"](a, sh) == to_unsigned(to_signed(a) >> sh)


@given(u32, u32)
@settings(max_examples=300)
def test_signed_division_reference(a, b):
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        assert ALU_OPS["div"](a, b) == 0xFFFFFFFF
        assert ALU_OPS["rem"](a, b) == a
    elif sa == -(1 << 31) and sb == -1:
        assert ALU_OPS["div"](a, b) == 0x80000000
        assert ALU_OPS["rem"](a, b) == 0
    else:
        # C-style truncation toward zero
        quotient = int(sa / sb)
        remainder = sa - quotient * sb
        assert to_signed(ALU_OPS["div"](a, b)) == quotient
        assert to_signed(ALU_OPS["rem"](a, b)) == remainder


@given(u32, u32)
@settings(max_examples=200)
def test_unsigned_division_reference(a, b):
    if b == 0:
        assert ALU_OPS["divu"](a, b) == 0xFFFFFFFF
        assert ALU_OPS["remu"](a, b) == a
    else:
        assert ALU_OPS["divu"](a, b) == a // b
        assert ALU_OPS["remu"](a, b) == a % b


@given(u32, u32)
@settings(max_examples=200)
def test_mulh_identity(a, b):
    """(mulh << 32) | mul reconstructs the full signed product."""
    full = to_signed(a) * to_signed(b)
    high = ALU_OPS["mulh"](a, b)
    low = ALU_OPS["mul"](a, b)
    assert (to_signed(high) << 32) | low == full


@given(u32, u32)
@settings(max_examples=200)
def test_branch_consistency(a, b):
    assert BRANCH_OPS["beq"](a, b) == (not BRANCH_OPS["bne"](a, b))
    assert BRANCH_OPS["blt"](a, b) == (not BRANCH_OPS["bge"](a, b))
    assert BRANCH_OPS["bltu"](a, b) == (not BRANCH_OPS["bgeu"](a, b))
    assert BRANCH_OPS["blt"](a, b) == (to_signed(a) < to_signed(b))
    assert BRANCH_OPS["bltu"](a, b) == (a < b)


@given(u32)
@settings(max_examples=200)
def test_sign_conversions_inverse(a):
    assert to_unsigned(to_signed(a)) == a


# ---- the compiled tick's ALU and branch switches (machine/_tick.c) ------------

compiled = pytest.mark.skipif(
    native.load() is None, reason="no compiled tick: " + native.status()[1])

#: what the edge table is made of: zero, one, the sign boundary, all ones
#: (-1, and as a shift amount >= 32), a shift of exactly 32
EDGES = (0, 1, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF)
#: I-type immediates reach the tick as negative Python ints
IMMEDIATES = (-2048, -33, -1)


def _assert_compiled_matches(a, b):
    extension = native.load()
    for op, name in enumerate(ALU_CODES):
        assert extension.alu(op, a, b) == ALU_OPS[name](a, b), (name, a, b)
    if b >= 0:  # branches compare two registers: never an immediate
        for op, name in enumerate(BRANCH_CODES):
            assert extension.branch(op, a, b) is BRANCH_OPS[name](a, b), (
                name, a, b)


@compiled
def test_compiled_codes_name_every_op():
    assert sorted(ALU_CODES) == sorted(ALU_OPS) and len(ALU_CODES) == 27
    assert sorted(BRANCH_CODES) == sorted(BRANCH_OPS)
    for module_function, count in ((native.load().alu, len(ALU_CODES)),
                                   (native.load().branch, len(BRANCH_CODES))):
        for op in (-1, count):
            with pytest.raises(ValueError):
                module_function(op, 1, 1)


@compiled
@given(u32, u32)
@settings(max_examples=500)
def test_compiled_ops_match_semantics(a, b):
    _assert_compiled_matches(a, b)


@compiled
def test_compiled_ops_match_semantics_on_the_edge_table():
    """div/rem by 0, INT_MIN / -1, shifts by >= 32, negative immediates."""
    for a in EDGES:
        for b in EDGES + IMMEDIATES:
            _assert_compiled_matches(a, b)


# ---- the compiled tick's int read (``as_int`` in machine/_tick.c) ---------------
# Every slot the tick reads as a number goes through one inline fast path
# for exact one-digit ints and PyLong_AsLongLong for the rest; the real
# PyLong_AsLongLong, called through ctypes, is the oracle.


class Tagged(int):
    """An int subclass: never the fast path's, always the same value."""


def _c_api_as_long_long(obj):
    import ctypes

    function = ctypes.pythonapi.PyLong_AsLongLong
    function.argtypes = [ctypes.py_object]
    function.restype = ctypes.c_longlong
    return function(obj)


def _outcome(function, obj):
    try:
        value = function(obj)
    except (OverflowError, TypeError) as exc:
        return type(exc)
    return type(value), value


@compiled
@given(st.integers(min_value=-(1 << 64), max_value=1 << 64))
@settings(max_examples=500)
def test_compiled_int_read_matches_the_c_api(value):
    as_int = native.load().as_int
    assert _outcome(as_int, value) == _outcome(_c_api_as_long_long, value)
    if -(1 << 63) <= value < 1 << 63:
        assert as_int(value) == value.__index__()


@compiled
def test_compiled_int_read_on_the_edge_table():
    """Digit boundaries of both layouts (15- and 30-bit digits, the
    compact form of 3.12), the value the tick stores for "no cycle", and
    everything that is not an exact int."""
    from repro.machine.hart import NEVER

    as_int = native.load().as_int
    exact = (0, 1, -1, (1 << 15) - 1, 1 << 15, (1 << 30) - 1, 1 << 30,
             -(1 << 30), 1 << 31, (1 << 32) - 1, 1 << 60, NEVER, -(1 << 31),
             (1 << 63) - 1, -(1 << 63))
    for value in exact:
        assert _outcome(as_int, value) == (int, value), value
        assert _outcome(as_int, Tagged(value)) == (int, value), value
    assert _outcome(as_int, True) == (int, 1)
    assert _outcome(as_int, False) == (int, 0)
    for value in (1 << 63, -(1 << 63) - 1, Tagged(1 << 64)):
        assert _outcome(as_int, value) is OverflowError, value
    for value in (None, "x", [1]):
        assert _outcome(as_int, value) is TypeError, value
    # a float is a TypeError from 3.10, __int__() with a warning before
    for value in exact + (True, Tagged(7), 1 << 63, None, "x", 1.5):
        assert _outcome(as_int, value) == _outcome(
            _c_api_as_long_long, value), value
