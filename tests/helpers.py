"""Shared test helpers: compile DetC and run it on the machine."""

import collections

import pytest

from repro.asm import assemble
from repro.compiler import compile_c
from repro.compiler.frontend import _generate
from repro.isa.semantics import to_signed
from repro.machine import LBP, Params, native

#: a test of the compiled tick itself: on a host that could not build it,
#: every machine runs the reference tick and there is nothing to test
compiled = pytest.mark.skipif(
    native.load() is None, reason="no compiled tick: " + native.status()[1])


def reference_asm(source, name="test.c"):
    """Assembly of *source* as the code generator emits it, without
    ``compiler/opt.py`` — the referential program of the differential
    oracle.  (An internal seam of ``repro.compiler``, not an option.)"""
    return _generate(source, name, None, reference=True)


def compile_both(source, name="test.c"):
    """``(optimised, reference)`` assembly of *source*."""
    return compile_c(source, name), reference_asm(source, name)


def run_c(source, cores=1, max_cycles=5_000_000, reference=False):
    """Compile *source* (without the optimiser when *reference*), run it;
    returns (program, machine, stats)."""
    text = reference_asm(source) if reference else compile_c(source, "test.c")
    program = assemble(text, "test.c.s")
    machine = LBP(Params(num_cores=cores)).load(program)
    stats = machine.run(max_cycles=max_cycles)
    return program, machine, stats


class DeviceTable(collections.UserDict):
    """A machine's ``mmio``, its mapped devices, held in a mapping that is
    not a ``dict``: the compiled window spells no access it cannot rule out
    is a device's, so every load, store, X_PAR step, p_ret commit and event
    of the machine is a call into its Python spelling, where the reference
    tick makes it (what a traced run did before the window recorded the
    trace itself)."""


def devices_in_python(machine):
    """*machine*, its devices moved into a :class:`DeviceTable`."""
    machine.mmio = DeviceTable(machine.mmio)
    return machine


def word(machine, program, name, index=0):
    """Signed value of global *name* (word *index*)."""
    return to_signed(machine.read_word(program.symbol(name) + 4 * index))


def uword(machine, program, name, index=0):
    """Unsigned value of global *name* (word *index*)."""
    return machine.read_word(program.symbol(name) + 4 * index)
