"""The calibration kernel: a frozen unit of host speed.

This host's speed changes from one second to the next (the same pure-Python
loop takes 35 to 75 ms), so a wall-clock time says more about the neighbours
than about the code.  The in-process workloads therefore run this kernel,
untimed, between slices of timed work and report ``op_cal``: the time of an
operation divided by the time of the kernel samples around it.  The kernel is
pure Python with the simulator's operation mix (``__slots__`` attribute
access, list indexing, masked integer arithmetic, dict stores, ``heapq``
push/pop), so the interpreter slows it down the way it slows the simulator
down.

FROZEN: the loop body, ``ITERATIONS`` and the table sizes are the unit every
``op_cal`` value is expressed in.  Editing them silently rescales every
number ever measured with this benchmark — do not.
"""

import heapq
import time

ITERATIONS = 40_000
_MASK = 0xFFFFFFFF
_SLOTS = 64
_CHECKSUM = 493850676


class _Cell:
    __slots__ = ("acc", "pc", "ready", "count")

    def __init__(self):
        self.acc = 1
        self.pc = 0
        self.ready = 0
        self.count = 0


def kernel():
    """Run the frozen loop once; returns its checksum (always the same)."""
    cells = [_Cell() for _ in range(_SLOTS)]
    regs = list(range(_SLOTS))
    table = {}
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0
    for i in range(ITERATIONS):
        cell = cells[i & 63]
        value = (cell.acc * 1103515245 + 12345 + regs[(i >> 2) & 63]) & _MASK
        cell.acc = value
        cell.pc = (cell.pc + 4) & _MASK
        if value & 4:
            cell.ready = i + (value & 7)
            cell.count += 1
        else:
            regs[value & 63] = (regs[i & 63] ^ value) & _MASK
        table[value & 1023] = i
        if i & 3 == 0:
            push(heap, (cell.ready, i, value & 255))
            if len(heap) > 32:
                acc = (acc + pop(heap)[2]) & _MASK
        acc = (acc + (value >> 7)) & _MASK
    return (acc + len(table) + sum(c.count for c in cells)) & _MASK


def sample():
    """Time one kernel run; returns seconds.

    Checks the checksum, so an edit that changes the work (or a
    miscomputing host) fails loudly instead of rescaling the results.
    """
    start = time.perf_counter()
    checksum = kernel()
    elapsed = time.perf_counter() - start
    if checksum != _CHECKSUM:
        raise RuntimeError("calibration kernel checksum changed: %d != %d"
                           % (checksum, _CHECKSUM))
    return elapsed
