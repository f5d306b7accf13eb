"""The reference tick as the oracle: its two sides, and what both refuse.

``Core.tick`` is the compiled tick (``machine/_tick.c``) and
``LBP._simulate`` the compiled cycle window (``machine/_window.h``);
``LBP(backend="interp")`` swaps in ``repro.machine.reference.ReferenceCore``
and the Python ``_simulate``, ``schedule_access`` and handlers.  The
parity harness (``tests/parity.py``, run by ``test_parity.py``) holds the
first to the second bit for bit.  This file checks that the comparison
has two sides, that the reference reads no gate it is the oracle for,
and the arguments and observers both refuse alike.
"""

import random
import types

import pytest

from repro.asm import assemble
from repro.cli import main as cli_main
from repro.compiler import compile_to_program
from repro.machine import LBP, Params, native
from repro.machine.core import Core
from repro.machine.reference import ReferenceCore
from repro.machine.trace import Trace
from repro.snapshot import trace_digest
from repro.workloads import ServingWorkload

from helpers import compiled
from parity import (
    ENGINES, LOCAL_ACCESSES, MAX_CYCLES, RE_CONTENTION, program)

# ---- the comparison has two sides ---------------------------------------------


def test_default_core_runs_the_native_tick():
    """The parity harness compares the default core with the reference; on
    a host where the extension did not build, both would *be* the
    reference and the harness would pass by comparing it with itself.
    (CI's no-compiler job deselects this test by name: ``-k "not
    native"``.)"""
    assert native.status()[0] == "native", native.status()[1]
    # a C method descriptor bound to the class: no Python frame per tick
    assert type(Core.tick) is type(list.append)
    assert Core.tick.__objclass__ is Core
    assert ReferenceCore.tick is not Core.tick
    # and the idle settlement: a machine of ReferenceCores runs no C
    assert type(Core.settle_idle) is type(list.append)
    assert type(ReferenceCore.settle_idle) is types.FunctionType
    assert ReferenceCore.settle_idle is not Core.settle_idle
    assert all(type(core) is Core for core in LBP(Params(num_cores=2)).cores)
    # the cycle loop too; the reference machine carries the Python one
    assert type(LBP._simulate) is type(list.append)
    assert LBP._simulate.__objclass__ is LBP
    oracle = LBP(Params(num_cores=1), backend="interp")
    assert oracle._simulate.__func__ is LBP._reference_simulate
    assert "_simulate" not in vars(LBP(Params(num_cores=1)))


# ---- the reference is an oracle: it reads no derived gate --------------------

def _oracle_program(name):
    if name == "serving_c4":
        workload = ServingWorkload(cores=4, num_requests=8, seed=5)
        return compile_to_program(workload.source, name + ".c"), 4
    return program(name), 2


@pytest.mark.parametrize("name", ["serving_c4", "stencil_h8_c2"])
def test_reference_ignores_scribbled_gates(name, golden):
    """Step the reference in small strides and overwrite every derived
    gate with garbage at each pause: nothing it decides may move.  Fails
    the day the reference tick starts trusting what it is the oracle
    for."""
    program, cores = _oracle_program(name)
    params = Params(num_cores=cores)
    whole = LBP(params, trace=True).load(program)
    whole_stats = whole.run(max_cycles=MAX_CYCLES)
    if name in golden:
        assert trace_digest(whole.trace.events) == golden[name]["trace_sha256"]

    rng = random.Random(name)
    scribbled = LBP(params, trace=True, backend="interp").load(program)
    assert all(type(core) is ReferenceCore for core in scribbled.cores)
    pauses = 0
    while not scribbled.halted:
        for core in scribbled.cores:
            core._wb_wake = rng.choice((0, 1 << 40, float("inf")))
            for hart in core.harts:
                hart.fetch_ok = rng.random() < 0.5
                hart.n_ready = rng.choice((0, 1, 7))
        stats = scribbled.run(max_cycles=MAX_CYCLES,
                              stop_at_cycle=scribbled.cycle + rng.randint(1, 9))
        pauses += 1
    assert pauses > whole_stats.cycles // 9
    assert trace_digest(scribbled.trace.events) == trace_digest(
        whole.trace.events)
    assert stats.state_dict() == whole_stats.state_dict()
    assert scribbled.state_dict() == whole.state_dict()


# ---- one selector, for tests only --------------------------------------------


def test_backend_selects_the_core_class():
    # without the extension every machine is built on the reference
    default = Core if native.load() is not None else ReferenceCore
    assert type(LBP(Params(num_cores=1)).cores[0]) is default
    assert type(LBP(Params(num_cores=1), backend="soa").cores[0]) is default
    assert type(LBP(Params(num_cores=1),
                    backend="interp").cores[0]) is ReferenceCore
    with pytest.raises(ValueError, match="unknown backend"):
        LBP(Params(num_cores=1), backend="simd")


#: ``run()`` arguments neither loop could read as a cycle count the same way
#: (the compiled one reads int64s; a float or a bool is not one)
BAD_CYCLE_ARGS = [("stop_at_cycle", 100.5), ("stop_at_cycle", True),
                  ("max_cycles", 1e6), ("max_cycles", False),
                  ("snapshot_every", 2500.5), ("snapshot_every", "10")]


@pytest.mark.parametrize("backend", ["soa", "interp"])
@pytest.mark.parametrize("argument,value", BAD_CYCLE_ARGS)
def test_cycle_arguments_are_checked_before_anything_runs(
        backend, argument, value):
    machine = LBP(Params(num_cores=1), backend=backend).load(
        assemble(LOCAL_ACCESSES))
    machine.cores[0].sleep_until = 5  # run() would reset it first
    before = machine.state_dict()
    arguments = {argument: value, "snapshot_callback": lambda machine: None}
    with pytest.raises(TypeError) as raised:
        machine.run(**arguments)
    assert str(raised.value) == "%s must be None or an int, got %r" % (
        argument, value)
    assert machine.cores[0].sleep_until == 5
    assert machine.state_dict() == before


@pytest.mark.parametrize("engine",
                         [engine.kwargs for engine in ENGINES.values()])
@pytest.mark.parametrize("every", [0, -1, -100])
def test_a_snapshot_period_below_one_is_refused_before_anything_runs(
        engine, every):
    """A period below one cycle never reaches the next snapshot (the
    sharded loop spun at cycle 0): every engine refuses it, and nothing
    has run or changed."""
    machine = LBP(Params(num_cores=2), **engine).load(
        assemble(LOCAL_ACCESSES))
    machine.run(max_cycles=10_000, stop_at_cycle=7)
    before = machine.state_dict()
    called = []
    with pytest.raises(ValueError) as raised:
        machine.run(snapshot_every=every, snapshot_callback=called.append)
    assert str(raised.value) == (
        "snapshot_every must be None or an int >= 1, got %r" % (every,))
    assert not called and machine.cycle == 7
    assert machine.state_dict() == before


def test_cli_has_no_backend_option(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("main:\n    ebreak\n")
    with pytest.raises(SystemExit) as err:
        cli_main(["run", str(source), "--backend", "interp"])
    assert err.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


# ---- a trace is a Trace --------------------------------------------------------


class _Subtrace(Trace):
    pass


@pytest.mark.parametrize("backend", [None, "interp"])
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
