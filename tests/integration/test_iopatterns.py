"""Figure 17 / §6: controller-hart I/O and the DMA pattern, end to end."""

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.machine.io import ScriptedInput, attach_input
from repro.workloads.iopatterns import (
    controller_source,
    dma_source,
    stream_device_addr,
)

CORES = 4


def _machine_with_stream(source, values, period=50):
    program = compile_to_program(source, "io.c")
    machine = LBP(Params(num_cores=CORES)).load(program)
    device = ScriptedInput([(period * (i + 1), v) for i, v in enumerate(values)])
    attach_input(machine, stream_device_addr(CORES), device)
    return program, machine, device


def test_controller_forwards_values_to_requesters():
    workers = 5
    values = [1000 + i for i in range(workers)]
    program, machine, _dev = _machine_with_stream(
        controller_source(CORES, workers), values)
    machine.run(max_cycles=10_000_000)
    base = program.symbol("results")
    got = [machine.read_word(base + 4 * w) for w in range(workers)]
    # requests are served in index order, so worker w gets the w-th value
    assert got == values


def test_controller_latency_few_cycles_after_ready():
    """Once the device has the data, the requester receives it quickly."""
    workers = 2
    program, machine, device = _machine_with_stream(
        controller_source(CORES, workers), [7, 8], period=400)
    machine.run(max_cycles=10_000_000)
    # the controller consumed each value shortly after it became ready
    # (the poll loop is a handful of cycles); the p_swre then needs only
    # the backward-line hops
    for consumed, ready in zip(device.consumed_at, (400, 800)):
        assert 0 <= consumed - ready < 120


def test_controller_io_is_deterministic():
    runs = []
    for _ in range(2):
        program, machine, _dev = _machine_with_stream(
            controller_source(CORES, 3), [5, 6, 7])
        stats = machine.run(max_cycles=10_000_000)
        runs.append((stats.cycles, stats.retired))
    assert runs[0] == runs[1]


def test_dma_fill_and_token_sync():
    words = 6
    stream = [10 * c + i for c in range(CORES) for i in range(words)]
    program, machine, _dev = _machine_with_stream(
        dma_source(CORES, words), stream, period=20)
    machine.run(max_cycles=20_000_000)
    base = program.symbol("sums")
    sums = [machine.read_word(base + 4 * c) for c in range(CORES)]
    assert sums == [sum(10 * c + i for i in range(words)) for c in range(CORES)]


def test_dma_consumer_reads_are_local():
    """After the DMA fill, each consumer's chunk loads hit its own bank."""
    words = 4
    stream = list(range(CORES * words))
    program, machine, _dev = _machine_with_stream(
        dma_source(CORES, words), stream, period=10)
    machine = LBP(Params(num_cores=CORES), trace=True).load(program)
    device = ScriptedInput([(10 * (i + 1), v) for i, v in enumerate(stream)])
    attach_input(machine, stream_device_addr(CORES), device)
    machine.run(max_cycles=20_000_000)
    # consumer loads of chunk words must hit the loading core's own bank
    local = 0
    for cycle, core, hart, kind, args in machine.trace.events:
        if kind != "mem_load":
            continue
        addr = args[0]
        offset = addr - 0x80000000
        if 0 <= offset and (offset % (1 << 20)) >> 16 == 6:  # chunk window
            bank = offset >> 20
            if bank == core:
                local += 1
    assert local >= CORES * words  # every chunk word read locally
