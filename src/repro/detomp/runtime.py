"""Assembly text of the Deterministic OpenMP runtime.

This is the paper's figures 2, 7 and 8 turned into one concrete,
self-consistent protocol (see DESIGN.md for the two places where the
paper's listings are ambiguous and what we fixed):

* ``LBP_parallel_start(a0=worker, a1=data, a2=nt)`` — create a team of
  *nt* members.  Member *k* runs on hart *k* (core *k/4*): the creating
  hart forks its successor (``p_fc`` three times, then ``p_fn`` to cross
  into the next core), hands it {join address, join identity, worker,
  data, next index, last index} through ``p_swcv``, then runs
  ``worker(data, k)`` itself via ``p_jalr`` — which also starts the forked
  hart at the instruction after the ``p_jalr`` (the ``p_lwcv`` receive
  sequence).  The *last* member tail-jumps to the worker with the original
  join address still in ``ra``, so its ``p_ret`` performs the join.
* each parallel region's *worker* saves ``ra``/``t0`` around the body call
  and ends with ``p_ret``, giving the four ending cases of the paper §4.
* ``_start`` — bare-metal entry: call ``main``, then ``p_ret`` with
  ``ra=0, t0=-1`` (process exit).

Register conventions (enforced by the DetC code generator): ``t0`` is the
team-identity register and ``t6`` the fork-target register; compiled code
never uses them as scratch.
"""

from repro import memmap

# CV-area slot offsets used by the fork protocol.
CV_RA = 0
CV_T0 = 4
CV_WORKER = 8
CV_DATA = 12
CV_INDEX = 16
CV_LAST = 20


def runtime_asm():
    """The team-creation routine (one copy per program)."""
    return """
# ---- Deterministic OpenMP runtime ------------------------------------------
# LBP_parallel_start(a0=worker, a1=data, a2=nt)
# clobbers t1-t6; t0 becomes the merged team identity on every member.
        .text
LBP_parallel_start:
        p_set   t0, t0              # stamp: this hart is the join hart
        addi    t2, a2, -1          # t2 = last member index
        li      t1, 0               # t1 = member index
LBP_ps_loop:
        beq     t1, t2, LBP_ps_last
        andi    t3, t1, %d          # hart slot inside the core
        addi    t4, t1, 1           # successor member index
        li      t5, %d
        beq     t3, t5, LBP_ps_next_core
        p_fc    t6                  # fork on current core
        j       LBP_ps_send
LBP_ps_next_core:
        p_fn    t6                  # fork on next core
LBP_ps_send:
        p_swcv  t6, ra, %d          # join address
        p_swcv  t6, t0, %d          # join identity
        p_swcv  t6, a0, %d          # worker
        p_swcv  t6, a1, %d          # data
        p_swcv  t6, t4, %d          # successor index
        p_swcv  t6, t2, %d          # last index
        p_merge t0, t0, t6          # identity: join half | allocated half
        p_syncm                     # CV writes must land before the start
        mv      t5, a0
        mv      a0, a1              # worker(data, index)
        mv      a1, t1
        p_jalr  ra, t0, t5          # run worker here; successor starts below
        # ---- executed by the forked hart ----
        p_lwcv  ra, %d
        p_lwcv  t0, %d
        p_lwcv  a0, %d
        p_lwcv  a1, %d
        p_lwcv  t1, %d
        p_lwcv  t2, %d
        j       LBP_ps_loop
LBP_ps_last:
        mv      t5, a0
        mv      a0, a1              # worker(data, last index)
        mv      a1, t1
        jr      t5                  # tail: worker's p_ret joins via ra/t0
""" % (
        memmap.HARTS_PER_CORE - 1,
        memmap.HARTS_PER_CORE - 1,
        CV_RA, CV_T0, CV_WORKER, CV_DATA, CV_INDEX, CV_LAST,
        CV_RA, CV_T0, CV_WORKER, CV_DATA, CV_INDEX, CV_LAST,
    )


def worker_asm(name, body_label):
    """One parallel region's worker wrapper.

    Saves the join state (``ra``/``t0``) around the body call and ends the
    member with ``p_ret`` — case 2 for the join hart, case 3 for middle
    members, case 4 (send the join) for the last member, which enters with
    the join address still in ``ra``.
    """
    return """
%s:
        addi    sp, sp, -16
        sw      ra, 0(sp)
        sw      t0, 4(sp)
        jal     %s
        lw      ra, 0(sp)
        lw      t0, 4(sp)
        addi    sp, sp, 16
        p_ret
""" % (name, body_label)


def start_stub_asm(main_label="main"):
    """Bare-metal entry: run main, then exit via p_ret(ra=0, t0=-1)."""
    return """
        .text
_start:
        jal     %s
        li      ra, 0
        li      t0, -1
        p_ret                       # ra==0 && t0==-1: process exit
""" % (main_label,)


def omp_globals_asm(bank=0):
    """Runtime globals: the omp_num_threads word."""
    return """
        .bank %d
omp_num_threads:
        .word 1
""" % (bank,)
