"""What the compiler's output costs, tracked as ceilings.

``tests/data/codegen_counts.json`` records, for the five matmul versions
(h=16, 4 cores) and the five scenario workloads of the golden tier, the
size of the assembled program and what the machine retires running it, as
compiled when the file was last written (``regen_golden.py --counts``).
They are not pins: the machine's behaviour is pinned by the golden digests
on checked-in assembly, and the compiler's results by the differential
oracle.  A compiler change may lower these numbers and re-record them; one
that raises ``asm_instrs`` or ``retired`` fails here.
"""

import json
import os
import sys

import pytest

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.workloads.matmul import (MATMUL_VERSIONS, matmul_source,
                                    verify_matmul)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import SCENARIOS  # noqa: E402

COUNTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "codegen_counts.json")


def _matmul(version):
    verify = lambda machine, program: verify_matmul(machine, program, version, 16)
    return matmul_source(version, 16), 4, verify


def _scenario(name):
    factory, cores = SCENARIOS[name]
    workload = factory()
    return workload.source, cores, workload.verify


#: name -> () -> (source, cores, verify)
TRACKED = {"matmul_%s_h16_c4" % version: (lambda v=version: _matmul(v))
           for version in MATMUL_VERSIONS}
TRACKED.update({name: (lambda n=name: _scenario(n)) for name in SCENARIOS})


def count(name):
    source, cores, verify = TRACKED[name]()
    program = compile_to_program(source, name + ".c")
    machine = LBP(Params(num_cores=cores)).load(program)
    stats = machine.run(max_cycles=50_000_000)
    verify(machine, program)
    return {"asm_instrs": len(program.instructions),
            "retired": stats.retired, "cycles": stats.cycles}


@pytest.mark.parametrize("name", sorted(TRACKED))
def test_counts_stay_under_their_recorded_ceiling(name):
    with open(COUNTS_PATH) as handle:
        recorded = json.load(handle)[name]
    measured = count(name)
    assert measured["asm_instrs"] <= recorded["asm_instrs"]
    assert measured["retired"] <= recorded["retired"]
