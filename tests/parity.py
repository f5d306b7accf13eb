"""One parity harness: the compiled tick judged by the reference tick.

The paper's claim is that a parallel run equals its referential run; this
repository holds the compiled tick and window (``machine/_tick.c``,
``machine/_window.h``) to the Python spelling of the same machine,
``LBP(backend="interp")``, bit for bit.  This module is that comparison,
spelled once:

- **one corpus** (:data:`CORPUS`): the golden workloads, the race corpus,
  the hand-built protocol programs and the benchmark's programs, each a
  :class:`Row` that builds its program, its core count and any devices;
- **one observer axis** (:data:`OBSERVERS`): untraced, traced, a trace of
  some kinds, sanitized and metered;
- **one engine axis** (:data:`ENGINES`): native, the reference, and two
  shard workers;
- **one set of checks** (:data:`CHECKS`): the final ``state_dict()`` and
  stats, the trace and sanitizer buffers and the race report, the metrics
  report, the golden digests, the error a failing program raises, the
  typed pending events at every pause of a sweep (snapshot bytes at a few
  of them) and a resume on the other backend.

Each (program, observer, engine) is run to its end once per session
(:func:`outcome`; the reference runs a row once, every observer on), and
every check that needs a finished run reads that one.  :func:`triples`
lists what is checked as (program, observer, check);
``tests/parity_triples.txt`` lists the triples the parity tests checked
before this harness replaced them, and ``test_parity.py`` fails if the
harness stops making any of them.
"""

import collections
import functools
import hashlib
import heapq
import json
import os

import pytest

from repro import memmap
from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.machine import LBP, MachineError, Params, native, processor
from repro.machine.hart import Entry
from repro.machine.io import (
    Actuator, ScriptedInput, attach_input, attach_output)
from repro.machine.trace import Trace
from repro.snapshot import snapshot, trace_digest
from repro.workloads import (
    HistogramWorkload, ReductionWorkload, ServingWorkload, SortWorkload,
    StencilWorkload, matmul_source)
from repro.workloads.matmul import verify_matmul
from repro.workloads.setget import verify_setget

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "data", "golden_traces.json")
GOLDEN_ASM_DIR = os.path.join(HERE, "data", "golden_asm")
RACE_DIR = os.path.join(HERE, "data", "races")
TRIPLES_PATH = os.path.join(HERE, "parity_triples.txt")

MAX_CYCLES = 50_000_000


@functools.lru_cache(maxsize=None)
def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def golden():
    """``tests/data/golden_traces.json``: each golden workload's digest."""
    return load_golden()


def golden_program(name):
    """The checked-in assembly of a compiled golden workload, assembled."""
    with open(os.path.join(GOLDEN_ASM_DIR, name + ".s")) as handle:
        return assemble(handle.read(), name + ".s")


# ---- helpers the per-topic files share --------------------------------------


def typed(value):
    """*value* with the type of every leaf beside it."""
    if isinstance(value, tuple):
        return tuple(typed(item) for item in value)
    return (type(value).__name__, value)


def well_formed_heap(events):
    """``machine._events`` at rest: (cycle, origin, oseq, dst, kind, args)
    tuples with tuple args, in ``heapq`` order."""
    return (all(type(event) is tuple and len(event) == 6
                and type(event[5]) is tuple for event in events)
            and all(events[(i - 1) // 2] < events[i]
                    for i in range(1, len(events))))


def fields(entry):
    """An Entry's fields (its instruction by mnemonic: each machine has
    its own LoweredInstr objects)."""
    found = {name: getattr(entry, name) for name in Entry.__slots__}
    found["low"] = entry.low.mnemonic
    return found


def in_flight(machine):
    """Every hart's ROB entries, by (gid, tag)."""
    return {(hart.gid, entry.tag): entry
            for core in machine.cores for hart in core.harts
            for entry in hart.rob}


class Latch:
    """A device word: what was last written."""

    def __init__(self):
        self.value = 0

    def read(self, cycle):
        return self.value

    def write(self, cycle, value):
        self.value = value


# ---- the corpus: hand-built programs ----------------------------------------

REMOTE_BANK = memmap.GLOBAL_BASE + memmap.GLOBAL_BANK_SIZE
DEVICE_BASE = memmap.GLOBAL_BASE + memmap.IO_REQUEST_OFFSET

#: hart 0 forks one hart (p_fc: on this core; p_fn: on the next) and starts
#: it below, its continuation values the join address ``rp`` and hart 0's
#: identity; hart 0 runs the code at the child's label and waits, the forked
#: hart runs its part and joins it back at ``rp``, where hart 0 exits
TEAM = """
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0, t0
    %(fork)s t6
    la   t1, rp
    p_swcv t6, t1, 0
    p_swcv t6, t0, 4
    p_merge t0, t0, t6
    p_syncm
    la   a0, %(child)s
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4%(forked)s
rp: lw  ra, 0(sp)
    lw  t0, 4(sp)
    addi sp, sp, 8
    p_ret
%(child)s:%(body)s"""


def team(fork, forked, child, body):
    """:data:`TEAM` forking with *fork*, the forked hart running *forked*
    and hart 0 *body* at label *child*."""
    return TEAM % dict(fork=fork, forked=forked, child=child, body=body)


#: one producer floods result-buffer slot 0 of hart 0 while the consumer
#: drains it slowly -- the second and third p_swre find the slot occupied
#: and sit in the flow-control queue (formerly: the every-cycle retry).
RE_CONTENTION = team("p_fc", """
    li   t4, 0
    li   t3, 111
    p_swre t4, t3, 0
    li   t3, 222
    p_swre t4, t3, 0
    li   t3, 333
    p_swre t4, t3, 0
    p_ret""", "consumer", """
    li   t5, 60
d1: addi t5, t5, -1
    bnez t5, d1
    p_lwre t1, 0
    li   t5, 60
d2: addi t5, t5, -1
    bnez t5, d2
    p_lwre t2, 0
    p_lwre t3, 0
    add  t1, t1, t2
    add  t1, t1, t3
    la   t2, got
    sw   t1, 0(t2)
    p_ret
.data
got: .word 0
""")

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

#: hart 0 forks one hart on the next core (p_fn: token request at decode,
#: CV writes over the forward link), which reads a word of the code bank
#: (an access only the Python schedule_access spells), stores a flag and
#: joins back
FORK_JOIN = team("p_fn", """
    la   t2, flag
    li   t3, 1
    sw   t3, 0(t2)
    p_ret""", "child", """
    lw  t4, 0(zero)
    li  t3, 21
    mul t3, t3, t3
    p_ret
.data
flag: .word 0
""")

#: core 0 stores to and loads from core 1's shared bank in a loop: every
#: access a remote request, bank operation and reply or ack
REMOTE_HEAVY = """
main:
    li   a0, %d
    li   t1, 40
loop:
    sw   t1, 0(a0)
    lw   t2, 0(a0)
    sh   t2, 6(a0)
    lb   t3, 6(a0)
    addi a0, a0, 8
    addi t1, t1, -1
    bnez t1, loop
    ebreak
""" % REMOTE_BANK

STACK_TRAFFIC = """
main:
    li  t1, 77
    sw  t1, -4(sp)
    lw  t2, -4(sp)
    sw  t2, -8(sp)
    lw  t3, -8(sp)
    ebreak
"""

#: two remote loads and two remote stores, to core 1's shared bank
REMOTE_TRAFFIC = """
main:
    li  t0, %d
    li  t1, 77
    sw  t1, 0(t0)
    lw  t2, 0(t0)
    sw  t2, 4(t0)
    lw  t3, 4(t0)
    ebreak
""" % REMOTE_BANK

#: loads and stores to the core's own banks and to the other core's
#: shared bank, sign-extended and not
MIXED_TRAFFIC = """
main:
    li   a0, %d
    li   t1, -3
    sw   t1, 0(a0)
    sh   t1, 4(a0)
    sb   t1, 6(a0)
    lw   t2, 0(a0)
    lh   t3, 4(a0)
    lbu  t4, 6(a0)
    lb   t5, 6(a0)
    sw   t5, -4(sp)
    lh   t6, -4(sp)
    lhu  t6, -4(sp)
    ebreak
""" % memmap.global_bank_base(1)

#: stores and loads of every width to the stack and to the core's own
#: shared bank, back to back, so ports queue and events overlap; -3 makes
#: lb / lh sign-extend and lbu / lhu not
LOCAL_ACCESSES = """
main:
    la   a0, cell
    li   t1, -3
    sw   t1, -4(sp)
    lw   t2, -4(sp)
    sw   t1, 0(a0)
    lh   t3, 0(a0)
    sh   t2, 6(a0)
    lb   t4, 7(a0)
    lbu  t5, 7(a0)
    lhu  t6, 6(a0)
    sb   t4, -8(sp)
    lw   a1, 4(a0)
    lw   a2, -8(sp)
    ebreak
.data
cell: .word 0, 0
"""

#: back-to-back stores of every width from core 0 into core 1's shared
#: bank, read back: requests, bank writes and acks overlap on the tree
REMOTE_STORES = """
main:
    li   a0, %d
    li   t1, -3
    sw   t1, 0(a0)
    sh   t1, 4(a0)
    sb   t1, 6(a0)
    sw   t1, 8(a0)
    sw   a0, 12(a0)
    lw   t2, 0(a0)
    lh   t3, 4(a0)
    lbu  t4, 6(a0)
    lw   t5, 12(a0)
    ebreak
""" % REMOTE_BANK

#: core 0 of a two-chip machine stores to and loads from a bank behind
#: each router level: r1 (core 1), r2 (core 5), r3 (core 17), r4 (core 65)
EVERY_LEVEL = """
main:
    li   a0, %d
    li   a1, %d
    li   a2, %d
    li   a3, %d
    li   t1, 77
    sw   t1, 0(a0)
    sw   t1, 0(a1)
    sw   t1, 0(a2)
    sw   t1, 0(a3)
    lw   t2, 0(a0)
    lw   t3, 0(a1)
    lw   t4, 0(a2)
    lw   t5, 0(a3)
    add  t6, t2, t3
    add  t6, t6, t4
    add  t6, t6, t5
    ebreak
""" % tuple(memmap.global_bank_base(core) for core in (1, 5, 17, 65))

#: the edges of the native path: each but remote_lb_lh is one access that
#: the window hands to the Python schedule_access / handler (on the issuing
#: side, or at the owner's bank); remote_lb_lh sign-extends in the native
#: bank_read.  A sensor and a motor are mapped at DEVICE_BASE.
SLOW_ACCESSES = {
    "device": """
main:
    li   a0, %d
poll:
    lw   t1, 0(a0)
    beqz t1, poll
    lw   t2, 4(a0)
    sw   t2, 12(a0)
    ebreak
""" % DEVICE_BASE,
    "code_bank": """
main:
    lw   t1, 0(zero)
    lw   t2, 4(zero)
    ebreak
""",
    "local_out_of_range": """
main:
    li   a0, %d
    lw   t1, 0(a0)
    ebreak
""" % (memmap.LOCAL_BASE + memmap.LOCAL_SIZE - 2),
    "store_out_of_range": """
main:
    li   a0, %d
    sw   a0, 0(a0)
    ebreak
""" % (memmap.GLOBAL_BASE + memmap.GLOBAL_BANK_SIZE - 1),
    "unmapped": """
main:
    li   a0, 0x50000000
    lw   t1, 0(a0)
    ebreak
""",
    "remote_unmapped": """
main:
    li   a0, %d
    sw   a0, 0(a0)
    ebreak
""" % (memmap.GLOBAL_BASE + 8 * memmap.GLOBAL_BANK_SIZE),
    # hart 0 forks a hart on core 1 (p_fn), which polls the device in core
    # 0's bank and answers it, while hart 0 runs `child` and joins
    "remote_device": team("p_fn", """
    li   a1, %d
poll:
    lw   t1, 0(a1)
    beqz t1, poll
    lw   t2, 4(a1)
    sw   t2, 12(a1)
    p_ret""" % DEVICE_BASE, "child", """
    p_ret
"""),
    "remote_out_of_range": """
main:
    li   a0, %d
    lw   t1, 0(a0)
    ebreak
""" % (REMOTE_BANK + memmap.GLOBAL_BANK_SIZE - 2),
    "remote_lb_lh": """
main:
    li   a0, %d
    li   t1, -3
    sw   t1, 0(a0)
    lb   t2, 0(a0)
    lh   t3, 2(a0)
    lbu  t4, 1(a0)
    lhu  t5, 0(a0)
    ebreak
""" % REMOTE_BANK,
}

BAD_FETCH = """
main:
    li t1, 0x1000
    jr t1
"""

ECALL = """
main:
    ecall
"""

#: hart 0 ends its team member's part and waits for a join no one sends:
#: its core holds no work and is gated off
WAITING = """
main:
    li   ra, 0
    li   t0, 0
    p_ret
"""

#: hart 0 exits: its p_ret is decided at once and waits at the ROB head
#: while the hart still has an access in flight (set up by the row)
EXITING = """
main:
    li   ra, 0
    li   t0, -1
    p_ret
"""

#: hart 1 sends five results to hart 0's result buffer 0 back to back;
#: hart 0 takes the first at once and the rest after waits, storing each
RE_REQUEUE = team("p_fc", """
    li   t4, 0
    li   t3, 111
    p_swre t4, t3, 0
    li   t3, 222
    p_swre t4, t3, 0
    li   t3, 333
    p_swre t4, t3, 0
    li   t3, 444
    p_swre t4, t3, 0
    li   t3, 555
    p_swre t4, t3, 0
    p_ret""", "consumer", """
    p_lwre a1, 0
    li   t5, 20
c1: addi t5, t5, -1
    bnez t5, c1
    p_lwre a2, 0
    li   t5, 40
c2: addi t5, t5, -1
    bnez t5, c2
    p_lwre a3, 0
    p_lwre a4, 0
    p_lwre a5, 0
    la   t2, got
    sw   a1, 0(t2)
    sw   a2, 4(t2)
    sw   a3, 8(t2)
    sw   a4, 12(t2)
    sw   a5, 16(t2)
    p_ret
.data
got: .word 0, 0, 0, 0, 0
""")

#: hart 0 exits, its p_ret fetched after a branch: renamed at the head of
#: an empty ROB, it is decided after that cycle's commit stage
EXIT_AFTER_BRANCH = """
main:
    li   ra, 0
    li   t0, -1
    beqz zero, last
last:
    p_ret
"""

#: stack traffic around a multiply and an add chain on x5 (t0)
REGISTER_TRAFFIC = """
main:
    li   t1, 120
    li   t0, 1
    li   a0, 0
loop:
    add  t0, t0, t1
    mul  a1, t0, t1
    sw   a1, -4(sp)
    lw   a2, -4(sp)
    add  a0, a0, a2
    addi t1, t1, -1
    bnez t1, loop
    ebreak
"""

#: stores and loads through the stack port, and through the same port to a
#: device mapped in the local bank (those are Python's: Core._execute)
DEVICE_ADDR = memmap.LOCAL_BASE + 0x100
DEVICE_TRAFFIC = """
main:
    li   a0, %d
    li   t0, 6
loop:
    sw   t0, -4(sp)
    sw   t0, 0(a0)
    lw   t1, -4(sp)
    lw   t2, 0(a0)
    lw   t3, -4(sp)
    addi t0, t0, -1
    bnez t0, loop
    ebreak
""" % DEVICE_ADDR

#: a long run of loads and stores on the core's own banks
STACK_LOOP = """
main:
    li   t0, 400
loop:
    sw   t0, -4(sp)
    lw   t1, -4(sp)
    addi t0, t0, -1
    bnez t0, loop
    ebreak
"""

#: stack stores and loads in a loop, then a stop
LOCAL_LOOP = """
main:
    li   t1, 30
loop:
    sw   t1, -4(sp)
    lw   t2, -4(sp)
    addi t1, t1, -1
    bnez t1, loop
    %s
"""

#: hart 1 stores to core 7's shared bank without end while hart 0 spins,
#: then stops the machine: the run ends with stores in flight
STORES_IN_FLIGHT = """
main:
    p_fc  t5
    p_jal ra, t5, stopper     # hart 0 runs stopper, hart 1 starts below
    li    a0, %d
    li    t1, 7
storing:
    sw    t1, 0(a0)
    j     storing
stopper:
    li    t4, 60
spin:
    addi  t4, t4, -1
    bnez  t4, spin
    %%s
""" % memmap.global_bank_base(7)

#: a jump to a non-code address: the fetch stage records the error
JUMP_TO_DATA = "li t0, 0x1000\n    jr t0"

#: team messages the machine refuses: (cores, program, the exact error)
PROTOCOL_ERRORS = {
    "p_swcv_past_next_core": (3, """
main:
    li   t6, 8            # hart 8 lives on core 2
    li   t1, 5
    p_swcv t6, t1, 0
    ebreak
""", "forward link only reaches the next core (0 -> 2)"),
    "p_jal_past_next_core": (3, """
main:
    li   t0, 8
    p_jal ra, t0, child
    ebreak
child:
    ebreak
""", "forward link only reaches the next core (0 -> 2)"),
    "p_jal_to_unallocated_hart": (1, """
main:
    li   t0, 1            # hart 1 was never forked
    p_jal ra, t0, child
    ebreak
child:
    li   t1, 50
spin:
    addi t1, t1, -1
    bnez t1, spin
    ebreak
""", "start pc sent to hart 1 which was not allocated"),
    "p_swre_to_missing_hart": (1, """
main:
    li   t1, 99
    li   t2, 5
    p_swre t1, t2, 0
    ebreak
""", "hart id 99 does not exist"),
    "p_swcv_to_missing_hart": (1, """
main:
    li   t6, 99
    li   t1, 5
    p_swcv t6, t1, 0
    ebreak
""", "hart id 99 does not exist"),
    "join_to_later_core": (2, """
main:
    li   ra, 4            # nonzero: a join, not an end
    li   t0, 0x40000      # join hart 4, on core 1
    p_ret
""", "join from hart 0 to a later core (hart 4)"),
}


#: hand-built teams for protocol branches no compiled program reaches:
#: name -> (cores, program, the branch as a predicate on a paused machine).
#: Each writes `data` before an edge and reads it after (ordered), and
#: plants one unordered write-write pair on `shared` (race_a, race_b).
TEAM_BRANCHES = {
    # the join reaches its hart before that hart's waiting p_ret: the
    # ordered release cannot prevent it when the joiner is the waiter's
    # *predecessor*, here after a one-member team of its own has already
    # sent the ending signal (so the join is the only edge left)
    "join_before_its_wait": (1, """
main:
    p_fc t6                   # hart 1, hart 0's successor
    p_jal ra, t6, h0          # hart 0 -> h0, hart 1 starts below
    la   t2, shared
    li   t3, 1
race_b:
    sw   t3, 0(t2)
    li   t1, 200
spin:
    addi t1, t1, -1
    bnez t1, spin
    li   ra, 0
    li   t0, 0x10000          # join hart 1 = itself: wait
    p_ret                     # the join is already pending
resume:
    la   t2, data
    lw   t3, 0(t2)
    la   t2, got
    sw   t3, 0(t2)
    ebreak
h0:
    la   ra, h0b
    li   t0, 0                # join hart 0 = itself: a one-member team
    p_ret                     # signals hart 1, resumes at h0b
h0b:
    la   t2, data
    li   t3, 42
    sw   t3, 0(t2)
    la   t2, shared
    li   t3, 2
race_a:
    sw   t3, 0(t2)
    la   ra, resume
    li   t0, 0x10000          # join hart 1
    p_ret                     # no predecessor left: the join goes now
.data
data:   .word 0
got:    .word 0
shared: .word 0
""", lambda m: m.hart_by_gid(1).pending_join is not None),
    # a p_fn request queued at a core with no free hart, granted when a
    # later p_ret frees one
    "p_fn_queued_until_a_p_ret": (2, """
main:
    p_fc s0                   # hart 1 will ask core 1 for a hart
    p_jal ra, s0, h0
    j    requester
h0:
    p_fn s1                   # harts 4..7: core 1 is full
    p_fn s2
    p_fn s3
    p_fn s4
    p_jal ra, s1, h0a
    j    orphan               # hart 4
h0a:
    p_jal ra, s2, h0b
    j    park
h0b:
    p_jal ra, s3, h0c
    j    park
h0c:
    p_jal ra, s4, h0d
    j    leaver               # hart 7, hart 0's successor by now
h0d:
    li   t1, 300
spin0:
    addi t1, t1, -1
    bnez t1, spin0
    li   ra, 0
    li   t0, 0
    p_ret                     # end: the ending signal releases hart 7
leaver:
    li   ra, 0
    li   t0, 0
    p_ret                     # end: frees hart 7, granted to the queue
orphan:
    la   t2, shared
    li   t3, 1
race_a:
    sw   t3, 0(t2)
park:
    li   ra, 0
    li   t0, 0
    p_ret                     # no ending signal ever comes: stays busy
requester:
    la   t2, data
    li   t3, 42
    sw   t3, 0(t2)
    li   t1, 40
spin1:
    addi t1, t1, -1
    bnez t1, spin1
    p_fn s5                   # core 1 has no free hart: queued
    p_jal ra, s5, park
    la   t2, data             # the granted hart
    lw   t3, 0(t2)
    la   t2, got
    sw   t3, 0(t2)
    la   t2, shared
    li   t3, 2
race_b:
    sw   t3, 0(t2)
    ebreak
.data
data:   .word 0
got:    .word 0
shared: .word 0
""", lambda m: bool(m.cores[1].fork_queue)),
}

#: the same team, but the p_ret the queue waits for first frees no hart (a
#: one-member team's join resumes its own hart): the request stays queued
#: until the next one
TEAM_BRANCHES["p_fn_queued_past_a_self_join"] = (
    2, TEAM_BRANCHES["p_fn_queued_until_a_p_ret"][1].replace("""
leaver:
""", """
leaver:
    la   ra, leave
    li   t0, 0x70000          # join hart 7 = itself: a one-member team
    p_ret                     # resumes at once: frees no hart
leave:
"""), lambda m: bool(m.cores[1].fork_queue)
    and m.stats.per_core[1].joins == 1)


#: each malformed event Python posts: a kind the window spells, its args of
#: the wrong arity or holding something else than its kind's shape says,
#: and what the Python handler then raises
MALFORMED = {
    "arity": ("load_done", (1, 2), TypeError),
    "float_gid": ("load_done", (2.0,), TypeError),
    "str_addr": ("store_write",
                 (("local", 0), "0x40000000", 7, 4, 0, 0, 1), TypeError),
    "bank_ref": ("load_read", (("stack", 0), 0x40000000, 4, "lw", 9, 0, 0),
                 "address 0x40000000 (+4) outside bank shared0 "
                 "[0x80000000, 0x80100000)"),
    "mnemonic": ("load_read", (("local", 0), 0x40000000, 4, ["lw"], 9, 0,
                               0), TypeError),
}


# ---- the corpus: how each row runs ------------------------------------------

#: the observers a hand-built program runs under
ALL = ("untraced", "traced", "sanitized", "metered")

#: the kinds the ``kinds`` observer's trace records
TRACE_KINDS = ("mem_load", "mem_store_req", "fork", "p_ret", "ending_signal")

#: each observer: the LBP arguments that switch it on (made per machine: a
#: Trace belongs to one; a row may give the metered window its own length)
OBSERVERS = {
    "untraced": lambda: {},
    "traced": lambda: {"trace": True},
    "kinds": lambda: {"trace": Trace(True, kinds=TRACE_KINDS),
                      "sanitize": True},
    "sanitized": lambda: {"trace": True, "sanitize": True},
    "metered": lambda: {"metrics": 64},
}
TRACED = ("traced", "kinds", "sanitized")

Engine = collections.namedtuple("Engine", "kwargs rows")

#: each engine: its LBP arguments and the rows it runs untraced (None:
#: every row under every observer).  Every engine is compared with interp
ENGINES = {
    "native": Engine({}, None),
    "interp": Engine({"backend": "interp"}, None),
    "sharded": Engine({"shards": 2}, (
        "matmul_tiled_h16_c4", "sort_h8_c2", "stencil_h8_c2")),
}


class Row(collections.namedtuple("Row", (
        "build", "cores", "observers", "prepare", "verify", "fails",
        "interval", "paused", "stride", "pending", "kinds",
        "resume_kinds"))):
    """One program of the corpus.

    ``build()`` returns the program, run on ``cores`` cores under each of
    ``observers``.  ``prepare(machine)``, if given, runs between ``load``
    and the run (it may attach devices, post events or step the machine),
    and may return a callable whose result at the end is compared too;
    ``verify(machine, extra)`` checks a finished run's result on every
    engine.  ``fails`` is what a failing program raises: the text of its
    :class:`MachineError` after ``cycle <n>: ``, or an exception type.
    ``interval``, if given, is the metered observer's window length on
    this row.  Under each of ``paused`` the engines are also stepped
    ``stride`` cycles at a time; the sweep must see more than ``pending``
    events pending in all and each of ``kinds``, and resumes on the other
    backend at the first pause with the most kinds pending (and all of
    ``resume_kinds``).
    """


def row(build, cores=1, observers=ALL, prepare=None, verify=None, fails=None,
        interval=None, paused=(), stride=1, pending=0, kinds=(),
        resume_kinds=()):
    return Row(build, cores, observers, prepare, verify, fails, interval,
               paused, stride, pending, frozenset(kinds),
               frozenset(resume_kinds))


def _asm(source):
    return lambda: assemble(source)


def _compiled(name, source):
    return lambda: compile_to_program(source, name + ".c")


def _regs(hart=0, **expected):
    """A verify: hart *hart*'s registers hold *expected* (x<n>=value)."""
    def verify(machine, _extra):
        regs = machine.cores[hart // 4].harts[hart % 4].regs
        assert {name: regs[int(name[1:])] for name in expected} == expected
    return verify


def _words(symbol, *values):
    """A verify: the words at *symbol* hold *values*."""
    def verify(machine, _extra):
        at = machine.program.symbol(symbol)
        assert [machine.read_word(at + 4 * i)
                for i in range(len(values))] == list(values)
    return verify


def _stall(reason, least):
    """A verify: metered, hart 0's core charged more than *least* cycles
    to *reason*."""
    def verify(machine, _extra):
        if machine.metrics is not None:
            from repro.observe.metrics import STALL_REASONS

            stalls = dict(zip(STALL_REASONS, machine.metrics.slots[0].stalls))
            assert stalls[reason] > least, stalls
    return verify


def _stats(**expected):
    """A verify: the run's stats hold *expected*."""
    def verify(machine, _extra):
        assert {name: getattr(machine.stats, name)
                for name in expected} == expected
    return verify


def _each(*verifies):
    """A verify: each of *verifies*."""
    def verify(machine, extra):
        for one in verifies:
            one(machine, extra)
    return verify


def _charged(machine, _extra):
    """A verify: metered, the run closed windows inside idle spans as well
    as at busy ticks, and charged gated-idle cycles and remote accesses."""
    if machine.metrics is not None:
        report = machine.metrics_report()
        assert len(report["windows"]) > 10
        assert report["stalls"]["gated_idle"] > 0
        assert report["remote_accesses"] > 0


def _workload(factory):
    """A verify: the workload's own self-check."""
    return lambda machine, _extra: factory().verify(machine, machine.program)


#: scenario-diversity families: self-checking workload objects (see
#: ``repro.workloads``) pinned at tiny, fast configurations, each with
#: its core count
SCENARIOS = {
    "serving_r12_c2":
        (lambda: ServingWorkload(cores=2, num_requests=12, seed=7), 2),
    "sort_h8_c2": (lambda: SortWorkload(8, chunk=8, seed=3), 2),
    "stencil_h8_c2": (lambda: StencilWorkload(8, width=8, steps=4, seed=3), 2),
    "reduction_h8_c2": (lambda: ReductionWorkload(8, chunk=16, seed=3), 2),
    "histogram_h8_c2":
        (lambda: HistogramWorkload(8, chunk=16, bins=8, seed=3), 2),
}

LOCAL_KINDS = {"load_read", "load_done", "store_write"}
REMOTE_STORE_KINDS = {"rreq_store", "bank_write", "rack_store"}


def _matmul(version):
    """A verify: the product of the h=16 *version* matmul is right."""
    return lambda machine, _extra: verify_matmul(
        machine, machine.program, version, 16)


def _golden(name, cores, verify, **sweep):
    return row(lambda: golden_program(name), cores, verify=verify, **sweep)


def _scenario(name, **sweep):
    factory, cores = SCENARIOS[name]
    return _golden(name, cores, _workload(factory), **sweep)


#: the golden workloads, run from their checked-in programs (a few also
#: swept, and sort_h8_c2 under the kinds filter too)
GOLDENS = {
    "matmul_base_h16_c4": _golden(
        "matmul_base_h16_c4", 4, _matmul("base"), paused=("traced",),
        stride=4471),
    "matmul_tiled_h16_c4": _golden("matmul_tiled_h16_c4", 4, _matmul("tiled")),
    "setget_h16_chunk64_c4": _golden(
        "setget_h16_chunk64_c4", 4,
        lambda machine, _extra: verify_setget(machine, 16, 64)),
    "re_contention_c1": row(
        _asm(RE_CONTENTION), verify=_words("got", 111 + 222 + 333),
        paused=("traced",), stride=20),
    "serving_r12_c2": _scenario("serving_r12_c2"),
    "sort_h8_c2": _scenario(
        "sort_h8_c2", observers=ALL + ("kinds",), paused=("untraced",),
        stride=616, resume_kinds={"rreq_load", "bank_read", "rrep_load"}),
    "stencil_h8_c2": _scenario(
        "stencil_h8_c2", paused=("untraced",), stride=53, kinds=LOCAL_KINDS,
        pending=100),
    "reduction_h8_c2": _scenario("reduction_h8_c2"),
    "histogram_h8_c2": _scenario("histogram_h8_c2"),
}


def _race_row(name):
    with open(os.path.join(RACE_DIR, name)) as handle:
        source = handle.read()
    if name.endswith(".s"):
        return row(_asm(source), observers=("sanitized",))
    return row(_compiled(name[:-2], source), 2, observers=("sanitized",))


#: every program of the race corpus: assembly on one core, DetC on two
RACES = {name: _race_row(name) for name in sorted(os.listdir(RACE_DIR))}


def _sensor_and_motor(machine):
    sensor = attach_input(machine, DEVICE_BASE, ScriptedInput([(40, 1234)]))
    motor = attach_output(machine, DEVICE_BASE + 8, Actuator())
    return lambda: (sensor.consumed_at, motor.writes)


def _sensed(machine, extra):
    assert extra()[1][0][1] == 1234


SLOW_CHECKS = {
    "device": dict(verify=_sensed),
    "remote_device": dict(verify=_sensed),
    "code_bank": dict(verify=lambda machine, _extra: all(
        machine.cores[0].harts[0].regs[6:8])),  # the program's own words
    "remote_lb_lh": dict(verify=_regs(x7=0xFFFFFFFD, x28=0xFFFFFFFF,
                                      x29=0xFF, x30=0xFFFD)),
    "local_out_of_range": dict(fails="address 0x4000fffe (+4) outside bank "
                               "local0 [0x40000000, 0x40010000)"),
    "store_out_of_range": dict(fails="address 0x800fffff (+4) outside bank "
                               "shared0 [0x80000000, 0x80100000)"),
    "remote_out_of_range": dict(fails="address 0x801ffffe (+4) outside bank "
                                "shared1 [0x80100000, 0x80200000)"),
    "unmapped": dict(fails="access to unmapped address 0x50000000"),
    "remote_unmapped": dict(fails="access to unmapped address 0x80800000"),
}


def _post_malformed(kind, args):
    def prepare(machine):
        machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=60)
        machine.post(0, machine.cycle + 5, kind, args)
    return prepare


def _waiting(machine):
    """Every core gated, a halt pending and the next event later than it:
    the loop hops to the halt's cycle, not to the event's."""
    machine.post(0, 500, "join", (0, 0))
    machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=40)
    assert not any(core.active for core in machine.cores)
    machine.halt("exit")
    return lambda: [event[4] for event in machine._events]


def _halted_before_the_join(machine, extra):
    assert machine.cycle == 40 + processor.HALT_LATENCY - 1
    assert extra() == ["join"]


def _exiting(machine):
    """A p_ret done at the ROB head, no predecessor, its hart's access
    still in flight: commit holds it (the ordered-release barrier)."""
    machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=2)
    hart = machine.cores[0].harts[0]
    hart.outstanding_mem += 1
    machine.post(0, machine.cycle + 30, "load_done", (hart.gid,))


def _hold_back(machine):
    """222 fills hart 0's slot and 333 parks.  Held back here, 444 and 555
    arrive after hart 0 drains 222, and the re-posted 333 after them: 444
    fills the slot, 555 parks, and 333 finds the slot full, which both
    ticks refuse as an internal error.  (Not held back, a re-post arrives
    the next cycle, ahead of any fresh delivery: no program reaches this
    alone.)"""
    delays = {444: 150, 555: 150, "parked": 100}
    while delays:
        assert not machine.halted
        machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=machine.cycle + 1)
        events = []
        for event in machine._events:
            if event[4] == "re_deliver":
                key = "parked" if event[5][-1] else event[5][4]
                if key in delays:
                    event = (event[0] + delays.pop(key),) + event[1:]
            events.append(event)
        heapq.heapify(events)
        machine._events = events


def _forget_etas(machine):
    """Metered from a pause on, as a machine resumed from an unmetered
    snapshot is: the remote accesses in flight have no eta to pop."""
    machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=40)
    fifos = [slot.remote_inflight for slot in machine.metrics.slots]
    assert any(fifos)
    for each in fifos:
        each.clear()


def _rob_past_size(machine):
    """Twelve in flight while ``_rob_size`` says so (the ring grows past
    its eight), then back to eight: rename waits until the ROB drains
    below it."""
    machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=500)
    for core in machine.cores:
        core._rob_size = 12
    longest = 0
    while machine.cycle < 1500:
        machine.run(max_cycles=MAX_CYCLES, stop_at_cycle=machine.cycle + 1)
        longest = max([longest] + [len(hart.rob) for core in machine.cores
                                   for hart in core.harts])
    for core in machine.cores:
        core._rob_size = 8
    assert longest > 8
    return lambda: longest


def _book_r2(machine):
    """One link booked ahead: the request behind it waits, and a metered
    run charges ``link_wait``.  The links each core made, and how long
    each tag's row is, are compared too."""
    machine.cores[0].links.port(("r1>r2", 0)).next_free = 40
    return lambda: [[row and len(row) for row in core.links._links]
                    for core in machine.cores]


def _every_level(machine, _extra):
    assert machine.stats.remote_accesses == 8
    assert machine.cores[0].harts[0].regs[31] == 4 * 77
    if machine.metrics is not None:
        assert machine.metrics_report()["link_wait"] > 0


def _latched(machine):
    latch = Latch()
    machine.add_device(DEVICE_ADDR, latch)
    return lambda: latch.value


#: a p_swre to result buffer -1: ``imm % num_result_buffers`` (Python's
#: modulo, never negative), the last buffer, which ``p_lwre`` then takes
NEGATIVE_RE_INDEX = TEAM_TRAFFIC.replace(
    "p_swre t3, t1, 0", "p_swre t3, t1, -1").replace(
    "p_lwre t1, 0", "p_lwre t1, %d" % (Params.num_result_buffers - 1))

HAND_BUILT = {
    "fork_join": row(_asm(FORK_JOIN), 2, verify=_words("flag", 1)),
    "remote_heavy": row(_asm(REMOTE_HEAVY), 2),
    "stack_traffic": row(_asm(STACK_TRAFFIC), verify=_each(
        _regs(x28=77), _stats(retired=6))),
    "remote_traffic": row(_asm(REMOTE_TRAFFIC), 2, verify=_each(
        _regs(x28=77), _stats(retired=7, remote_accesses=4))),
    "mixed_traffic": row(_asm(MIXED_TRAFFIC), 2),
    "local_accesses": row(
        _asm(LOCAL_ACCESSES), paused=("untraced",), pending=20,
        kinds=LOCAL_KINDS, resume_kinds=LOCAL_KINDS,
        verify=_regs(x7=0xFFFFFFFD, x28=0xFFFFFFFD,      # lw, lh
                     x29=0xFFFFFFFF, x30=0xFF,           # lb, lbu
                     x31=0xFFFD, x11=0xFFFD0000,         # lhu, lw
                     x12=0xFF)),                         # sb + lw
    "remote_stores": row(
        _asm(REMOTE_STORES), 2, interval=4, paused=("untraced", "metered"),
        pending=20, kinds=REMOTE_STORE_KINDS,
        resume_kinds=REMOTE_STORE_KINDS,
        verify=_regs(x7=0xFFFFFFFD, x28=0xFFFFFFFD,       # lw, lh
                     x29=0xFD, x30=REMOTE_BANK)),         # lbu, lw
    "remote_stores_etas_forgotten": row(
        _asm(REMOTE_STORES), 2, observers=("metered",), interval=4,
        prepare=_forget_etas),
    "team_traffic": row(_asm(TEAM_TRAFFIC), 2, paused=("untraced",),
                        pending=20, kinds=TEAM_KINDS,
                        verify=_words("result", 7)),
    "negative_re_index": row(_asm(NEGATIVE_RE_INDEX), 2,
                             observers=("untraced", "traced"),
                             verify=_words("result", 7)),
    "every_level": row(_asm(EVERY_LEVEL), 66,
                       observers=("untraced", "metered"),
                       prepare=_book_r2, verify=_every_level),
    "bad_fetch": row(_asm(BAD_FETCH), observers=("untraced", "traced"),
                     fails="hart 0 fetches from non-code address 0x1000"),
    "ecall": row(_asm(ECALL), observers=("untraced", "traced"),
                 fails="ecall is not supported on bare-metal LBP"),
    "waiting": row(_asm(WAITING), 2, observers=("untraced", "metered"),
                   prepare=_waiting, verify=_halted_before_the_join),
    "exiting": row(_asm(EXITING), observers=("untraced", "metered"),
                   prepare=_exiting, verify=_stall("local_mem_wait", 20)),
    "re_requeue": row(_asm(RE_REQUEUE), verify=_stall("barrier_wait", 0)),
    "re_requeue_parked": row(_asm(RE_REQUEUE),
                             observers=("untraced", "traced"),
                             prepare=_hold_back,
                             fails="internal error: the parked p_swre from "
                             "hart 1 finds slot 0 of hart 0 full"),
    "exit_after_branch": row(_asm(EXIT_AFTER_BRANCH),
                             verify=_stall("barrier_wait", 0)),
    "register_traffic": row(_asm(REGISTER_TRAFFIC)),
    "device_traffic": row(_asm(DEVICE_TRAFFIC),
                          observers=("untraced", "traced"),
                          prepare=_latched),
    "stack_loop": row(_asm(STACK_LOOP)),
    "local_loop": row(_asm(LOCAL_LOOP % "ebreak")),
    "local_loop_ecall": row(_asm(LOCAL_LOOP % "ecall"),
                            observers=("untraced",),
                            fails="ecall is not supported on bare-metal LBP"),
    "stores_in_flight": row(_asm(STORES_IN_FLIGHT % "ebreak"), 8,
                            observers=("untraced", "traced")),
    "stores_in_flight_error": row(_asm(STORES_IN_FLIGHT % JUMP_TO_DATA), 8,
                                  observers=("untraced",),
                                  fails="hart 0 fetches from non-code "
                                  "address 0x1000"),
}
HAND_BUILT.update({
    "slow_" + name: row(_asm(source), 2 if name.startswith("remote") else 1,
                        observers=("untraced", "traced"),
                        prepare=_sensor_and_motor, **SLOW_CHECKS[name])
    for name, source in SLOW_ACCESSES.items()})
HAND_BUILT.update({
    "protocol_" + name: row(_asm(source), cores,
                            observers=("untraced", "metered"), fails=message)
    for name, (cores, source, message) in PROTOCOL_ERRORS.items()})
HAND_BUILT.update({
    "branch_" + name: row(_asm(source), cores,
                          observers=("untraced", "traced", "metered"),
                          verify=_words("got", 42))
    for name, (cores, source, _reached) in TEAM_BRANCHES.items()})
HAND_BUILT.update({
    "malformed_" + name: row(_asm(STACK_LOOP), observers=("untraced",),
                             prepare=_post_malformed(kind, args),
                             fails=fails)
    for name, (kind, args, fails) in MALFORMED.items()})


def _bench(name, factory, cores):
    return row(_compiled(name, factory().source), cores,
               observers=("metered",),
               verify=_each(_workload(factory), _charged))


#: the programs of bench/workloads.py at seed 1, and tiled and base matmul
#: h=16 compiled by today's compiler (not the golden assembly)
COMPILED = {
    "tiled16": row(
        _compiled("tiled16", matmul_source("tiled", 16)), 4,
        observers=("untraced", "metered"),
        verify=_each(_matmul("tiled"), _charged),
        paused=("untraced",), stride=89, pending=100, kinds=LOCAL_KINDS),
    "base16": row(_compiled("base16", matmul_source("base", 16)), 4,
                  observers=("metered",), verify=_charged),
    "rob_past_size": row(lambda: program("tiled16"), 4,
                         observers=("untraced",), prepare=_rob_past_size),
    "bench_stencil": _bench(
        "stencil", lambda: StencilWorkload(64, width=8, steps=2, seed=1), 16),
    "bench_sort": _bench(
        "sort", lambda: SortWorkload(64, chunk=4, seed=1), 16),
    "bench_histogram": _bench(
        "histogram",
        lambda: HistogramWorkload(64, chunk=16, bins=16, seed=1), 16),
    "bench_reduction": _bench(
        "reduction", lambda: ReductionWorkload(64, chunk=32, seed=1), 16),
    "bench_serving": _bench(
        "serving", lambda: ServingWorkload(cores=4, num_requests=24, seed=1),
        4),
}

CORPUS = dict(GOLDENS, **RACES, **HAND_BUILT, **COMPILED)


@functools.lru_cache(maxsize=None)
def program(name):
    return CORPUS[name].build()


# ---- running a row ---------------------------------------------------------


#: what the loader's reason says when a compiled tick built but its smoke
#: run differed from the reference's: a parity failure, which the native
#: engine must not hide by running the reference (on a host without a
#: compiler it runs the reference, and the harness passes there)
REFUSED = "smoke run"


def machine(name, observers, engine, start=True):
    """A fresh machine for row *name* under each of *observers* at once,
    loaded, not prepared."""
    assert REFUSED not in native.status()[1], native.status()[1]
    kwargs = dict(ENGINES[engine].kwargs)
    for observer in observers:
        kwargs.update(OBSERVERS[observer]())
    if "metrics" in kwargs and CORPUS[name].interval:
        kwargs["metrics"] = CORPUS[name].interval
    built = LBP(Params(num_cores=CORPUS[name].cores), **kwargs)
    return built.load(program(name), start=start)


def engines(name, observer):
    """The engines row *name* runs on under *observer*, interp first."""
    return sorted((engine for engine, (_kwargs, rows) in ENGINES.items()
                   if rows is None
                   or (observer == "untraced" and name in rows)),
                  key=lambda engine: engine != "interp")


def fingerprint(value):
    """*value* with each bytes, list or tuple of more than 64 items
    replaced by its length and digest, and each shorter list or tuple by
    a tuple led by its type's name: small enough to keep for the session,
    left alone by the garbage collector (a tuple of atoms is untracked,
    a list never is), and a mismatch still names its key."""
    if type(value) is dict:
        return {key: fingerprint(item) for key, item in value.items()}
    if type(value) in (bytes, list, tuple) and len(value) > 64:
        data = value if type(value) is bytes else repr(value).encode()
        return (type(value).__name__, len(value),
                hashlib.sha256(data).hexdigest())
    if type(value) in (list, tuple):
        return (type(value).__name__,) + tuple(
            fingerprint(item) for item in value)
    return value


def state(machine):
    """``machine.state_dict()`` fingerprinted, a core at a time (a 66-core
    machine's banks are 140 MB)."""
    master = getattr(machine, "master", machine)
    master.core_state_dict = lambda index: fingerprint(
        LBP.core_state_dict(master, index))
    try:
        found = master.state_dict()
    finally:
        del master.core_state_dict
    cores = found.pop("cores")
    return dict(fingerprint(found), cores=cores)


#: the state_dict() keys (of the machine and of each domain) each observer
#: records in
RECORDS = {"trace": TRACED, "sanitize": ("kinds", "sanitized"),
           "observe": ("metered",)}


def project(found, observer):
    """A :func:`state` without the records of the observers other than
    *observer*."""
    drop = [key for key, owners in RECORDS.items() if observer not in owners]

    def keep(part):
        return {key: value for key, value in part.items() if key not in drop}

    return dict(keep(found), cores=[keep(core) for core in found["cores"]])


def summary(machine):
    """What ``tests/data/golden_traces.json`` records of a run (the trace's
    part only if it was traced)."""
    stats = machine.stats
    found = {"cycles": stats.cycles, "retired": stats.retired,
             "local": stats.local_accesses, "remote": stats.remote_accesses,
             "forks": stats.forks, "joins": stats.joins,
             "re_messages": stats.re_messages}
    if machine.trace.enabled:
        found.update(events=len(machine.trace.events),
                     trace_sha256=trace_digest(machine.trace.events))
    return found


def run(name, observers, engine):
    """Run row *name* to its end under *observers* on *engine*: the
    machine, its prepared extra (or None) and the error it raised (or
    None).  The row's verify has passed."""
    found = CORPUS[name]
    built = machine(name, observers, engine)
    extra = found.prepare(built) if found.prepare else None
    error = None
    try:
        built.run(max_cycles=MAX_CYCLES)
    except Exception as exc:  # noqa: BLE001 -- what the row must raise
        if found.fails is None:
            raise
        error = exc
    if isinstance(found.fails, str):
        assert type(error) is MachineError, error
        assert str(error) == "cycle %d: %s" % (built.cycle, found.fails)
    elif found.fails is not None:
        assert type(error) is found.fails, error
    elif found.verify is not None:
        found.verify(built, extra)
    return built, extra, error


@functools.lru_cache(maxsize=None)
def finished(name, observers, engine):
    """What the checks read of one run to the end, kept for the session."""
    built, extra, error = run(name, observers, engine)
    found = {
        "state": (state(built), None if extra is None else extra()),
        "stats": (built.halt_reason, built.cycle,
                  fingerprint(built.stats.state_dict())),
        "error": None if error is None else (
            type(error), str(error), built.cycle,
            [typed(event) for event in sorted(built._events)]),
        "summary": summary(built),
    }
    if built.trace.enabled:
        found["trace"] = (fingerprint(dict(built.trace._buffers)),
                          sorted({event[3] for event in built.trace.events}))
    if built.sanitizer is not None:
        found["sanitizer"] = (fingerprint(dict(built.sanitizer._buffers)),
                              built.race_report().format())
    if built.metrics is not None:
        found["metrics"] = fingerprint(built.metrics_report())
    return found


def outcome(name, observer, engine):
    """Row *name*'s run under *observer* on *engine*, as the checks read it.

    The reference runs a row once, under every observer of the row but
    ``kinds`` at once, and each observer reads its own records of that
    run: an observer records without changing what it observes, which the
    comparison with each native run checks too."""
    observers = (observer,)
    if engine == "interp" and observer != "kinds":
        observers = tuple(each for each in CORPUS[name].observers
                          if each != "kinds")
    found = finished(name, observers, engine)
    return dict(found, state=(project(found["state"][0], observer),
                              found["state"][1]))


def measure(name, shards=None, **engine):
    """Result summary of one golden workload run traced to its end and
    self-checked (optionally space-sharded, or with *engine*'s backend,
    sanitize or metrics -- every engine must reproduce the golden digests
    bit-exactly)."""
    kwargs = dict({"trace": True, "shards": shards}, **engine)
    built = LBP(Params(num_cores=CORPUS[name].cores), **kwargs).load(
        program(name))
    built.run(max_cycles=MAX_CYCLES)
    CORPUS[name].verify(built, None)
    return summary(built)


# ---- the checks ------------------------------------------------------------


def _compare(key):
    def check(name, observer):
        reference, *others = engines(name, observer)
        expected = outcome(name, observer, reference)[key]
        for engine in others:
            assert outcome(name, observer, engine)[key] == expected, engine
        return expected
    return check


def check_trace(name, observer):
    _buffers, kinds = _compare("trace")(name, observer)
    if observer == "kinds":
        assert kinds == sorted(TRACE_KINDS)


def check_sanitizer(name, observer):
    buffers, _report = _compare("sanitizer")(name, observer)
    if name in RACES or name in GOLDENS:
        assert any(buffers.values()), "nothing was observed"


def check_metrics(name, observer):
    report = _compare("metrics")(name, observer)
    # (a run an error stopped is not accounted)
    assert report["accounted"] is (CORPUS[name].fails is None)


def check_golden(name, observer):
    recorded = load_golden()[name]
    for engine in engines(name, observer):
        found = outcome(name, observer, engine)["summary"]
        assert found == {key: recorded[key] for key in found}, engine


Sweep = collections.namedtuple(
    "Sweep", "pauses pending in_flight kinds resume_at")

#: every how many pauses of a sweep the snapshot bytes are compared (each
#: snapshot is ~50 ms a core: the banks are encoded)
SNAPSHOT_EVERY = 10


def _remote_etas(found):
    """How many remote accesses a metered state holds in flight."""
    return sum(len(etas) for core in found["cores"] if "observe" in core
               for _gid, etas in core["observe"]["slot"]["remote_inflight"])


@functools.lru_cache(maxsize=None)
def sweep(name, observer):
    """Step the native and the reference machine ``stride`` cycles at a
    time: at every pause the window has handed back the reference loop's
    pending events, as a well-formed heap of tuples, element for element
    and type for type, and the whole ``state_dict()`` is the reference's
    (a metered run's in-flight remote etas among it); every
    :data:`SNAPSHOT_EVERY` pauses the two snapshot to the same bytes; at
    the end both equal the whole run."""
    found = CORPUS[name]
    whole = outcome(name, observer, "interp")
    machines = [machine(name, (observer,), engine)
                for engine in ("native", "interp")]
    cycle = pauses = pending = in_flight = 0
    kinds, most, resume_at = set(), -1, None
    while not all(each.halted for each in machines):
        cycle += found.stride
        pauses += 1
        seen = []
        for each in machines:
            each.run(max_cycles=MAX_CYCLES, stop_at_cycle=cycle)
            assert well_formed_heap(each._events), cycle
            seen.append((each.cycle,
                         [typed(event) for event in sorted(each._events)],
                         project(each.state_dict(), observer)))
        assert seen[0] == seen[1], cycle
        if (pauses % SNAPSHOT_EVERY == SNAPSHOT_EVERY // 2
                and not machines[0].halted):
            assert snapshot(machines[0]) == snapshot(machines[1]), cycle
        now = {event[4][1] for event in seen[0][1]}
        pending += len(seen[0][1])
        in_flight += _remote_etas(seen[0][2])
        kinds |= now
        if (not machines[0].halted and len(now) > most
                and found.resume_kinds <= now):
            most, resume_at = len(now), cycle
    assert [project(state(each), observer) for each in machines] \
        == [whole["state"][0]] * 2
    return Sweep(pauses, pending, in_flight, kinds, resume_at)


def check_pauses(name, observer):
    found = sweep(name, observer)
    assert found.pauses > 2 and found.pending > CORPUS[name].pending
    assert CORPUS[name].kinds <= found.kinds
    if observer == "metered":
        assert found.in_flight > 20


def check_resume(name, observer):
    """Pause each backend at the sweep's resume point and finish the run
    on the other: state and snapshot bytes equal at the pause, and the
    resumed run equals a whole one."""
    at = sweep(name, observer).resume_at
    assert at is not None
    paused = {}
    for engine in ("native", "interp"):
        each = machine(name, (observer,), engine)
        each.run(max_cycles=MAX_CYCLES, stop_at_cycle=at)
        paused[engine] = (each.state_dict(), snapshot(each))
    assert paused["native"] == paused["interp"]
    whole = outcome(name, observer, "interp")["state"][0]
    for save_on, resume_on in (("native", "interp"), ("interp", "native")):
        resumed = machine(name, (observer,), resume_on, start=False)
        resumed.load_state_dict(paused[save_on][0])
        resumed.run(max_cycles=MAX_CYCLES)
        assert project(state(resumed), observer) == whole, save_on


CHECKS = {
    "state": _compare("state"),
    "stats": _compare("stats"),
    "error": _compare("error"),
    "golden": check_golden,
    "trace": check_trace,
    "sanitizer": check_sanitizer,
    "metrics": check_metrics,
    "pauses": check_pauses,
    "resume": check_resume,
}


def triples():
    """Every (program, observer, check) the harness makes."""
    for name, found in CORPUS.items():
        for observer in found.observers:
            checks = ["state", "stats"]
            if found.fails is not None:
                checks.append("error")
            if name in GOLDENS and observer != "kinds":
                checks.append("golden")
            if observer in TRACED:
                checks.append("trace")
            if observer in ("kinds", "sanitized"):
                checks.append("sanitizer")
            if observer == "metered":
                checks.append("metrics")
            for check in checks:
                yield name, observer, check
        for observer in found.paused:
            yield name, observer, "pauses"
            yield name, observer, "resume"


def recorded_triples():
    """``tests/parity_triples.txt``: one ``program observer check`` a
    line."""
    with open(TRIPLES_PATH) as handle:
        return {tuple(line.split()) for line in handle
                if line.strip() and not line.startswith("#")}
