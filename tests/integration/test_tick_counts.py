"""The compiled tick's object traffic, counted exactly.

Run under the counting build only (``-p counting``, tests/counting.py):
there ``slot_counts()`` says how many slot accesses the tick and window
made per class of object, and how many ints they boxed.  The bounds are
per retired instruction, the measured values plus 5 %, on the bench's two
simulation workloads at seed 1 (``bench/workloads.py``): an instruction
that is renamed, issued, written back and committed between two calls
into Python lives in its hart's ring (``machine/_tick.c``, "the
instruction ring") and touches no ``Entry``, ``ResultBuffer`` or
``LoweredInstr`` slot.
"""

import pytest

from repro.compiler import compile_to_program
from repro.machine import LBP, Params, native
from repro.workloads import (
    HistogramWorkload, ReductionWorkload, ServingWorkload, SortWorkload,
    StencilWorkload, matmul_source)

counting = pytest.mark.skipif(
    native.load() is None or not hasattr(native.load(), "slot_counts"),
    reason="the counting build only (-p counting)")

#: the irregular pass of bench/workloads.py: (cores, workload) at seed 1
IRREGULAR = (
    (16, lambda: StencilWorkload(64, width=8, steps=2, seed=1)),
    (16, lambda: SortWorkload(64, chunk=4, seed=1)),
    (16, lambda: HistogramWorkload(64, chunk=16, bins=16, seed=1)),
    (16, lambda: ReductionWorkload(64, chunk=32, seed=1)),
    (4, lambda: ServingWorkload(cores=4, num_requests=24, seed=1)),
)

#: per retired instruction: the measured value + 5 % (``pipeline objects``:
#: Entry + ResultBuffer + LoweredInstr slots, 102.2 / 117.9 before the ring;
#: boxes 4.08 / 5.60 before it)
BOUNDS = {
    "tiled16": {"pipeline objects": 0.4408, "PyLong_FromLongLong": 0.9359},
    "irregular": {"pipeline objects": 1.4919,
                  "PyLong_FromLongLong": 2.5629},
}


def _per_retired(runs):
    """Counts per retired instruction over *runs* ((cores, source))."""
    tick = native.load()
    totals, retired = {}, 0
    for cores, source in runs:
        program = compile_to_program(source, "bench.c")
        machine = LBP(Params(num_cores=cores)).load(program)
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
    runs = ([(4, matmul_source("tiled", 16))] if name == "tiled16" else
            [(cores, make().source) for cores, make in IRREGULAR])
    per = _per_retired(runs)
    print(name, {key: round(value, 4) for key, value in per.items()})
    for key, bound in BOUNDS[name].items():
        assert per[key] <= bound, (key, per[key])
