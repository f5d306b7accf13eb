"""MachineStats aggregation and the DetC type system."""

from repro.compiler import ctypes_ as T
from repro.machine.stats import MachineStats


def test_stats_aggregation():
    stats = MachineStats(2)
    stats.harts[0][0].retired = 10
    stats.harts[0][3].retired = 5
    stats.harts[1][2].retired = 20
    stats.cycles = 10
    assert stats.retired == 35
    assert stats.ipc == 3.5
    assert stats.ipc_per_core == 1.75
    assert stats.retired_by_core() == [15, 20]
    summary = stats.summary()
    assert summary["retired"] == 35 and summary["ipc"] == 3.5


def test_stats_zero_cycles():
    stats = MachineStats(1)
    assert stats.ipc == 0.0


def test_int_types():
    assert T.INT.size == 4 and T.INT.signed
    assert T.UINT.size == 4 and not T.UINT.signed
    assert T.CHAR.size == 1
    assert T.INT.is_integer() and T.INT.is_scalar()
    assert not T.VOID.is_scalar()


def test_pointer_and_array_types():
    ptr = T.PtrType(T.INT)
    assert ptr.size == 4 and ptr.is_pointer() and ptr.is_scalar()
    arr = T.ArrayType(T.INT, 10)
    assert arr.size == 40
    assert not arr.is_scalar()
    char_arr = T.ArrayType(T.CHAR, 10)
    assert char_arr.size == 10 and char_arr.align == 1


def test_struct_layout_natural_alignment():
    s = T.StructType("s")
    s.define([("c", T.CHAR), ("x", T.INT), ("d", T.CHAR)])
    assert s.field("c")[1] == 0
    assert s.field("x")[1] == 4
    assert s.field("d")[1] == 8
    assert s.size == 12   # padded to int alignment
    assert s.align == 4
    assert s.field("nope") is None
    assert s.complete


def test_struct_packed_when_all_chars():
    s = T.StructType("p")
    s.define([("a", T.CHAR), ("b", T.CHAR)])
    assert s.size == 2 and s.align == 1


def test_decay():
    arr = T.ArrayType(T.INT, 4)
    decayed = T.decay(arr)
    assert isinstance(decayed, T.PtrType) and decayed.base is T.INT
    fn = T.FuncType(T.VOID, [])
    assert isinstance(T.decay(fn), T.PtrType)
    assert T.decay(T.INT) is T.INT


def test_usual_arithmetic_conversions():
    assert T.is_unsigned_op(T.UINT, T.INT)
    assert T.is_unsigned_op(T.INT, T.UINT)
    assert not T.is_unsigned_op(T.INT, T.INT)
    assert not T.is_unsigned_op(T.CHAR, T.INT)
