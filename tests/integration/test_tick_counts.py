"""The compiled tick's object traffic, counted exactly.

Run under the counting build only (``-p counting``, tests/counting.py):
there ``slot_counts()`` says how many slot accesses the tick and window
made per class of object, how many ints they boxed, how many tuples they
made and how many events they posted.  The bounds are per retired
instruction, the measured values plus 5 %, on the bench's two simulation
workloads at seed 1 (``bench/workloads.py``): an instruction that is
renamed, issued, written back and committed between two calls into Python
lives in its hart's ring (``machine/_tick.c``, "the instruction ring") and
touches no ``Entry``, ``ResultBuffer`` or ``LoweredInstr`` slot; a memory
access makes no tuple and no int box from its issue to its reply, and
reads its banks and ports from the core's view and the window's cursors
(``machine/_window.h``, "events at rest" and "the memory view").
"""

import pytest

from repro.machine import native

import parity

counting = pytest.mark.skipif(
    native.load() is None or not hasattr(native.load(), "slot_counts"),
    reason="the counting build only (-p counting)")

#: the programs of each bound: the parity harness's rows (tiled matmul
#: h=16 on 4 cores, and the irregular pass of bench/workloads.py at seed 1)
WORKLOADS = {
    "tiled16": ("tiled16",),
    "irregular": ("bench_stencil", "bench_sort", "bench_histogram",
                  "bench_reduction", "bench_serving"),
}

#: per retired instruction: the measured value + 5 % (``pipeline objects``:
#: Entry + ResultBuffer + LoweredInstr slots, 102.2 / 117.9 before the ring)
BOUNDS = {
    "tiled16": {"pipeline objects": 0.42298},
    "irregular": {"pipeline objects": 1.43466},
}

#: the same for the memory traffic (before typed events and cursors: tuples
#: 0.646 / 0.966, boxes 0.891 / 2.441, slots of the four classes together
#: 3.04 / 8.01; boxes 0.167 / 0.318 while a hart's pc was an object)
MEMORY_BOUNDS = {
    "tiled16": {"tuples": 0.00128, "PyLong_FromLongLong": 0.06089,
                "Port": 0.01173, "Bank": 0.00133, "CoreMemory": 0.00166,
                "LinkScheduler": 0.00194},
    "irregular": {"tuples": 0.00597, "PyLong_FromLongLong": 0.20807,
                  "Port": 0.0391, "Bank": 0.00588, "CoreMemory": 0.0074,
                  "LinkScheduler": 0.0098},
}


def _per_retired(names):
    """Counts per retired instruction over the rows *names*."""
    tick = native.load()
    totals, retired = {}, 0
    for name in names:
        machine = parity.machine(name, ("untraced",), "native")
        tick.slot_counts()
        stats = machine.run()
        for name, count in tick.slot_counts().items():
            totals[name] = totals.get(name, 0) + count
        retired += stats.retired
    per = {name: count / retired for name, count in totals.items()}
    per["pipeline objects"] = (per["Entry"] + per["ResultBuffer"]
                               + per["LoweredInstr"])
    return per


@counting
@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_in_flight_instructions_touch_no_pipeline_object(name):
    per = _per_retired(WORKLOADS[name])
    print(name, {key: round(value, 4) for key, value in per.items()})
    for key, bound in BOUNDS[name].items():
        assert per[key] <= bound, (key, per[key])


@counting
@pytest.mark.parametrize("name", sorted(MEMORY_BOUNDS))
def test_a_memory_access_makes_no_object(name):
    per = _per_retired(WORKLOADS[name])
    assert per["post load_read"] > 0.1  # (the accesses did run in C)
    for key, bound in MEMORY_BOUNDS[name].items():
        assert per[key] <= bound, (key, per[key])
