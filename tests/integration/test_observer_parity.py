"""Observers record from the compiled window, as the Python spelling does.

A traced or sanitized run stays in the compiled kernel: the window appends
each trace event and each sanitizer observation itself, the tuple the
Python spelling appends, to the same domain's buffer, in the same order.
The golden digests and the race reports are therefore recorded on the
native tick; this file holds that tick to the reference one
(``backend="interp"``, every record made by processor.py and core.py),
buffer for buffer, on the race corpus and on golden workloads, traced and
sanitized at once.
"""

import os
import sys

import pytest

from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.machine import LBP, Params, native
from repro.machine.trace import Trace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_sanitize_races import CORPUS  # noqa: E402
from test_trace_golden import RE_CONTENTION, golden_program  # noqa: E402

compiled = pytest.mark.skipif(
    native.load() is None, reason="no compiled tick: " + native.status()[1])

BACKENDS = (None, "interp")

#: every program of the race corpus: assembly on one core, DetC on two
RACE_PROGRAMS = sorted(os.listdir(CORPUS))

#: golden workloads (their checked-in programs) and their core counts
GOLDENS = {"sort_h8_c2": 2, "serving_r12_c2": 2, "matmul_tiled_h16_c4": 4,
           "re_contention_c1": 1}


def _race_program(name):
    with open(os.path.join(CORPUS, name)) as handle:
        source = handle.read()
    if name.endswith(".s"):
        return assemble(source), 1
    return compile_to_program(source, name), 2


def _golden(name):
    if name == "re_contention_c1":
        return assemble(RE_CONTENTION), GOLDENS[name]
    return golden_program(name), GOLDENS[name]


def _observed(program, cores, backend, trace=True):
    """What a traced and sanitized run recorded: each observer's buffers,
    domain by domain, the merged trace, the race report and the run's
    end."""
    machine = LBP(Params(num_cores=cores), trace=trace, sanitize=True,
                  backend=backend).load(program)
    stats = machine.run(max_cycles=50_000_000)
    return {
        "trace": dict(machine.trace._buffers),
        "events": machine.trace.events,
        "observations": dict(machine.sanitizer._buffers),
        "report": machine.race_report().format(),
        "end": (machine.halt_reason, stats.state_dict()),
    }


def _assert_alike(program, cores, trace=True):
    native_run, reference = (_observed(program, cores, backend, trace)
                             for backend in BACKENDS)
    assert native_run["observations"], "nothing was observed"
    for key in native_run:
        assert native_run[key] == reference[key], key


@compiled
@pytest.mark.parametrize("name", RACE_PROGRAMS)
def test_race_corpus_records_alike(name):
    _assert_alike(*_race_program(name))


@compiled
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_workloads_record_alike(name):
    _assert_alike(*_golden(name))


@compiled
def test_a_trace_of_some_kinds_records_alike():
    """A trace that records some kinds: the window appends those, and no
    other, where the Python spelling does."""
    program, cores = _golden("sort_h8_c2")
    kinds = ("mem_load", "mem_store_req", "fork", "p_ret", "ending_signal")
    runs = [_observed(program, cores, backend, Trace(True, kinds=kinds))
            for backend in BACKENDS]
    assert {event[3] for event in runs[0]["events"]} == set(kinds)
    assert runs[0] == runs[1]


class _Subtrace(Trace):
    pass


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_trace_subclass_is_refused(backend):
    """The window appends to a Trace's buffers without calling its
    ``record``: ``LBP(trace=)`` takes a Trace itself, on both ticks."""
    with pytest.raises(TypeError, match="_Subtrace"):
        LBP(Params(num_cores=1), trace=_Subtrace(True), backend=backend)


@compiled
def test_a_trace_subclass_put_on_a_machine_is_refused_by_the_window():
    machine = LBP(Params(num_cores=1)).load(assemble(RE_CONTENTION))
    machine.trace = _Subtrace(True)
    with pytest.raises(TypeError, match="compiled window.*_Subtrace"):
        machine.run(max_cycles=1000)
