"""Shared test helpers: compile DetC and run it on the machine."""

from repro.asm import assemble
from repro.compiler import compile_c
from repro.compiler.frontend import _generate
from repro.isa.semantics import to_signed
from repro.machine import LBP, Params


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


def word(machine, program, name, index=0):
    """Signed value of global *name* (word *index*)."""
    return to_signed(machine.read_word(program.symbol(name) + 4 * index))


def uword(machine, program, name, index=0):
    """Unsigned value of global *name* (word *index*)."""
    return machine.read_word(program.symbol(name) + 4 * index)
