"""Workload generators: all sources compile for all configurations."""

import pytest

from repro.compiler import compile_to_program
from repro.workloads.matmul import (
    MATMUL_VERSIONS,
    matmul_expected_value,
    matmul_sequential_source,
    matmul_source,
)
from repro.workloads.sensors import actuator_addr, sensor_addr, sensors_source
from repro.workloads.setget import setget_source
from repro import memmap


@pytest.mark.parametrize("version", MATMUL_VERSIONS)
@pytest.mark.parametrize("h", [4, 16, 64])
def test_matmul_sources_compile(version, h):
    program = compile_to_program(matmul_source(version, h, scale=max(1, h // 8)))
    assert program.entry == program.symbol("_start")
    assert "LBP_parallel_start" in program.symbols


def test_matmul_h_must_be_multiple_of_four():
    with pytest.raises(ValueError):
        matmul_source("base", 6)


def test_matmul_unknown_version():
    with pytest.raises(ValueError):
        matmul_source("turbo", 16)


def test_matmul_expected_values():
    assert matmul_expected_value("base", 16) == 8          # CX = h/2
    assert matmul_expected_value("base", 16, scale=2) == 4
    assert matmul_expected_value("tiled", 16) == 8          # S passes × S/2
    assert matmul_expected_value("tiled", 16, scale=4) == 2
    assert matmul_expected_value("tiled", 256) == 128


def test_matmul_scaled_work_is_balanced_across_versions():
    """K-scaling keeps per-thread MAC counts equal between versions."""
    for h, scale in ((16, 2), (64, 4), (256, 16)):
        s = {"16": 4, "64": 8, "256": 16}[str(h)]
        base_macs = h * (h // 2) // scale          # per thread: CZ × CKW
        kt = max(1, s // scale)
        tiled_macs = kt * s * s * (s // 2)
        assert tiled_macs == base_macs, (h, scale)


def test_sequential_source_has_no_pragma():
    source = matmul_sequential_source(16)
    assert "#pragma" not in source
    program = compile_to_program(source)
    assert "__omp_worker_0" not in program.symbols


def test_distributed_layout_is_bank_symmetric():
    source = matmul_source("distributed", 16)
    # every bank receives identically sized X/Y/Z chunks in the same order
    for bank in range(4):
        assert "XB%d" % bank in source
        assert "YB%d" % bank in source
        assert "ZB%d" % bank in source


def test_setget_source_compiles_various_chunks():
    for chunk in (8, 64, 256):
        program = compile_to_program(setget_source(16, chunk))
        assert "thread_set" in program.symbols
        assert "thread_get" in program.symbols


def test_sensor_addresses_in_expected_banks():
    assert sensor_addr(4, 0) >= memmap.global_bank_base(3)
    assert sensor_addr(4, 3) - sensor_addr(4, 0) == 48
    assert actuator_addr() < memmap.global_bank_base(1)


def test_sensors_source_compiles():
    program = compile_to_program(sensors_source(4, 3))
    assert "fusion" in program.symbols
    assert "get_sensor0" in program.symbols
    assert "get_sensor3" in program.symbols


def test_wide_stencil_builds_and_verifies():
    """width=16 puts the last halo element at byte offset 4092 of an int
    array — past the load/store immediate; the compiler materialises it."""
    from repro.machine import LBP, Params
    from repro.workloads import StencilWorkload

    workload = StencilWorkload(64, width=16, steps=2)
    program = compile_to_program(workload.source, "stencil.c")
    machine = LBP(Params(num_cores=16)).load(program)
    machine.run(max_cycles=5_000_000)
    workload.verify(machine, program)
