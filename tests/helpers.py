"""Shared test helpers: compile DetC and run it on the machine."""

import collections

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


#: a hand-built team on two cores that sends every team message once or
#: more: a fork on this core (p_fc) and one on the next (p_fn: fork_req,
#: fork_grant), CV writes on this core (cv_write) and over the forward link
#: (rreq_cv, cv_apply, rack_cv), a result sent back a core (p_swre:
#: re_deliver, re_ack) and taken (p_lwre), starts by p_jalr and p_jal
#: (start_pc), the ordered release (ending_signal) and a join.  Hart 0
#: halts with ebreak once hart 1 joined it; ``result`` ends as 7.
TEAM_TRAFFIC = """
main:
    li    t0, -1
    p_set t0, t0              # hart 0's identity: the join hart
    p_fc  t5                  # hart 1, on this core
    li    t1, 5
    p_swcv t5, t1, 0          # a CV write on this core
    p_swcv t5, t0, 4
    p_merge t2, t0, t5
    p_syncm
    la    a0, body0
    p_jalr ra, t2, a0         # hart 0 runs body0, hart 1 starts below
    p_lwcv t1, 0              # hart 1
    p_lwcv t0, 4
    p_fn  t6                  # hart 4, on the next core
    addi  t1, t1, 1
    p_swcv t6, t1, 0          # a CV write over the forward link
    p_syncm
    p_jal ra, t6, h1          # hart 1 runs h1, hart 4 starts below
    sw    t6, -4(sp)          # hart 4: stack stores keep core 1's local
    sw    t6, -8(sp)          # port booked ahead ...
    sw    t6, -12(sp)
    sw    t6, -16(sp)
    sw    t6, -20(sp)
    sw    t6, -24(sp)
    sw    t6, -28(sp)
    sw    t6, -32(sp)
    p_lwcv t1, 0
    addi  t1, t1, 1
    li    t3, 1
    p_swre t3, t1, 0          # a result for hart 1, on the previous core
    li    ra, 0
    li    t0, 0
    p_ret                     # end
h1:
    li    t4, 2
h1spin:
    addi  t4, t4, -1
    bnez  t4, h1spin
    p_swcv t6, t1, 8          # ... when this CV write reaches it (cv_apply
    p_lwre t1, 0              # waits a cycle or two)
    la    t2, result
    sw    t1, 0(t2)
    la    ra, resume
    p_ret                     # join: hart 0 resumes
body0:
    li    t1, 40
spin:
    addi  t1, t1, -1
    bnez  t1, spin
    p_ret                     # wait for the join
resume:
    ebreak
.data
result: .word 0
"""

#: the event kinds of the team protocol: TEAM_TRAFFIC posts each of them
TEAM_KINDS = frozenset((
    "cv_write", "rreq_cv", "cv_apply", "rack_cv", "re_deliver", "re_ack",
    "fork_req", "fork_grant", "start_pc", "ending_signal", "join"))
