"""The compiled tick as a piece of C: what parity tests cannot see.

``test_reference_parity.py`` holds ``machine/_tick.c`` to the reference
tick bit for bit.  This file checks the rest of the contract a CPython
extension has: it balances every reference, errors cross the boundary as
the exceptions the reference raises, a host that cannot build it falls
back (once, loudly), and two processes may build it at the same time.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import repro
from repro.asm import assemble
from repro.machine import LBP, MachineError, Params, native
from repro.machine.core import Core
from repro.machine.reference import ReferenceCore

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_trace_golden import GOLDEN_PATH, measure  # noqa: E402

compiled = pytest.mark.skipif(
    native.load() is None, reason="no compiled tick: " + native.status()[1])


#: hart 0 forks one hart on the next core (p_fn: token request at decode,
#: CV writes over the forward link), which stores a flag and joins back
FORK_JOIN = """
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0, t0
    p_fn t6
    la   t1, rp
    p_swcv t6, t1, 0
    p_swcv t6, t0, 4
    p_merge t0, t0, t6
    p_syncm
    la   a0, child
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4
    la   t2, flag
    li   t3, 1
    sw   t3, 0(t2)
    p_ret
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret
child:
    li  t3, 21
    mul t3, t3, t3
    p_ret
.data
flag: .word 0
"""


def _run(source, backend=None, cores=2, **engine):
    machine = LBP(Params(num_cores=cores), backend=backend,
                  **engine).load(assemble(source))
    return machine, machine.run(max_cycles=100_000)


# ---- reference counts ----------------------------------------------------------


@compiled
def test_twenty_runs_leak_no_reference_and_no_object():
    """None, True and False are written into slots thousands of times per
    run; before 3.12 each is an ordinary counted object, so one missing
    INCREF frees a singleton and one missing DECREF leaks per tick."""
    singletons = (None, True, False)
    counts = objects = None
    for run in range(1, 21):
        machine, stats = _run(FORK_JOIN, metrics=(run % 2 == 0))
        assert stats.forks == 1 and stats.retired > 20
        del machine, stats
        gc.collect()
        if run == 2:
            counts = [sys.getrefcount(obj) for obj in singletons]
        if run == 5:
            objects = len(gc.get_objects())
    for before, obj in zip(counts, singletons):
        assert abs(sys.getrefcount(obj) - before) <= 50, obj
    assert len(gc.get_objects()) <= objects


# ---- errors cross the boundary ---------------------------------------------------

BAD_FETCH = """
main:
    li t1, 0x1000
    jr t1
"""

ECALL = """
main:
    ecall
"""


@compiled
@pytest.mark.parametrize("source", [BAD_FETCH, ECALL])
def test_machine_errors_equal_the_reference(source):
    outcomes = {}
    for backend in ("soa", "interp"):
        machine = LBP(Params(num_cores=1), backend=backend).load(
            assemble(source))
        with pytest.raises(MachineError) as err:
            machine.run(max_cycles=10_000)
        outcomes[backend] = (str(err.value), machine.cycle,
                             machine.state_dict())
    assert outcomes["soa"] == outcomes["interp"]


class Boom(Exception):
    pass


@compiled
@pytest.mark.parametrize("method", ["_execute", "_commit_p_ret"])
def test_an_exception_in_a_callback_propagates(monkeypatch, method):
    """``Core._execute`` / ``_commit_p_ret`` are calls back into Python:
    what they raise comes out of ``run()``, under either tick, and the
    machine is left usable enough to be inspected."""
    def boom(*args):
        raise Boom(method)

    monkeypatch.setattr(Core, method, boom)
    for backend in ("soa", "interp"):
        machine = LBP(Params(num_cores=2), backend=backend).load(
            assemble(FORK_JOIN))
        with pytest.raises(Boom, match=method):
            machine.run(max_cycles=100_000)
        assert machine.state_dict()["cycle"] >= 0


@compiled
def test_state_the_tick_cannot_read_is_an_exception_not_a_crash():
    machine = LBP(Params(num_cores=1)).load(assemble(ECALL))
    machine.cores[0].harts[0].rob = None
    with pytest.raises(TypeError, match="compiled tick"):
        machine.run(max_cycles=100)
    machine = LBP(Params(num_cores=1)).load(assemble(ECALL))
    del machine.cores[0].harts[0].fetch_ok
    with pytest.raises(AttributeError, match="compiled tick"):
        machine.run(max_cycles=100)
    with pytest.raises(TypeError):
        Core.tick(object())


# ---- a host that cannot build it ---------------------------------------------------


def test_fallback_builds_reference_cores_and_warns_once(monkeypatch, tmp_path):
    """No compiler (here: a compile step that fails) is a supported
    platform: one RuntimeWarning per process names the reason, every
    machine is built on the reference tick, the digests hold."""
    def no_compiler(target):
        raise OSError("no C compiler in this test")

    monkeypatch.setattr(native, "_build_dirs", lambda: (str(tmp_path),))
    monkeypatch.setattr(native, "_compile", no_compiler)
    native._load.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert native.load() is None
            machines = [LBP(Params(num_cores=2)) for _ in range(3)]
            assert native.status()[0] == "reference"
            assert "no C compiler in this test" in native.status()[1]
            with open(GOLDEN_PATH) as handle:
                golden = json.load(handle)
            for name in ("re_contention_c1", "stencil_h8_c2"):
                assert measure(name) == golden[name]
        assert all(type(core) is ReferenceCore
                   for machine in machines for core in machine.cores)
        told = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(told) == 1
        assert "no C compiler in this test" in str(told[0].message)
    finally:
        monkeypatch.undo()
        native._load.cache_clear()  # the next load() finds the real one


# ---- two processes build it at once ------------------------------------------------

RACER = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.asm import assemble
from repro.machine import LBP, Params, native
assert native.status()[0] == "native", native.status()
assert native.status()[1].startswith(sys.argv[1]), native.status()
machine = LBP(Params(num_cores=1)).load(assemble(
    "main:\\n    li t1, 40\\nloop:\\n    addi t1, t1, -1\\n"
    "    bnez t1, loop\\n    ebreak\\n"))
print(machine.run().cycles)
"""


@compiled
def test_two_processes_racing_to_build_both_run(tmp_path):
    """A temp copy of the package with an empty build directory (never the
    checkout's): both importers may compile, each renames a whole file
    into place, both load a working extension."""
    root = tmp_path / "src"
    shutil.copytree(
        os.path.dirname(os.path.abspath(repro.__file__)), root / "repro",
        ignore=shutil.ignore_patterns("_native", "__pycache__"))
    racers = [
        subprocess.Popen([sys.executable, "-c", RACER, str(root)],
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
        for _ in range(2)]
    outputs = [racer.communicate(timeout=120) for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0], outputs
    cycles = {int(out) for out, _ in outputs}
    assert len(cycles) == 1 and cycles.pop() > 100
    built = os.listdir(root / "repro" / "machine" / "_native")
    assert len(built) == 1 and not built[0].endswith(".partial")
