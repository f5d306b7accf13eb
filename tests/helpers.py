"""Shared test helpers: compile DetC and run it on the machine."""

from repro.compiler import compile_to_program
from repro.isa.semantics import to_signed
from repro.machine import LBP, Params


def run_c(source, cores=1, max_cycles=5_000_000, **params):
    """Compile *source*, run it; returns (program, machine, stats)."""
    program = compile_to_program(source, "test.c")
    machine = LBP(Params(num_cores=cores, **params)).load(program)
    stats = machine.run(max_cycles=max_cycles)
    return program, machine, stats


def word(machine, program, name, index=0):
    """Signed value of global *name* (word *index*)."""
    return to_signed(machine.read_word(program.symbol(name) + 4 * index))


def uword(machine, program, name, index=0):
    """Unsigned value of global *name* (word *index*)."""
    return machine.read_word(program.symbol(name) + 4 * index)
