"""The optimising back end (``compiler/opt.py``), pass by pass.

Each test hands ``optimize_body`` a few body lines as ``FunctionCodegen``
would and reads the lines that come back; the result-level guarantees
(same memory, same traffic, same verdicts) are
``tests/integration/test_opt_differential.py``'s.
"""

import inspect
import os
import subprocess
import sys

import pytest

from repro.compiler import compile_c, compile_to_program
from repro.compiler import opt
from repro.compiler.errors import CompileError
from repro.isa.semantics import ALU_OPS, to_signed
from repro.workloads.matmul import matmul_source
from helpers import run_c, word

SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def run(text, saved=("s0", "s1"), live_out=()):
    lines = [line if line.endswith(":") else "        " + line.strip()
             for line in text.strip().splitlines()]
    return [line.strip() for line in opt.optimize_body(lines, saved, live_out)]


# ---- 1. folding and immediates ----------------------------------------------------

@pytest.mark.parametrize("op, a, b", [
    ("div", 7, 0), ("div", -(1 << 31), -1), ("rem", -7, 0), ("rem", -7, 2),
    ("divu", 7, 0), ("remu", 7, 0), ("sll", 1, 33), ("sra", -8, 1),
    ("srl", -8, 1), ("mul", 0x7FFFFFFF, 4), ("sub", 0, 1), ("slt", -1, 0),
    ("sltu", -1, 0), ("mulh", -3, 5),
])
def test_constants_fold_with_the_machines_arithmetic(op, a, b):
    got = run("li t1, %d\nli t2, %d\n%s t3, t1, t2\nsw t3, 0(sp)" % (a, b, op))
    want = to_signed(ALU_OPS[op](a & 0xFFFFFFFF, b & 0xFFFFFFFF))
    if want == 0:
        assert got == ["sw zero, 0(sp)"]
    else:
        assert got == ["li t3, %d" % want, "sw t3, 0(sp)"]


def test_immediate_forms_are_selected():
    got = run("""
        li t1, 5
        add t2, s0, t1
        li t1, 3
        sll t3, t2, t1
        li t1, 255
        and t3, t3, t1
        li t1, 8
        mul t3, t3, t1
        li t1, 4
        sub t3, t3, t1
        sw t3, 0(sp)
    """)
    assert got == ["addi t2, s0, 5", "slli t3, t2, 3", "andi t3, t3, 255",
                   "slli t3, t3, 3", "addi t3, t3, -4", "sw t3, 0(sp)"]


def test_a_constant_too_wide_for_an_immediate_keeps_its_li():
    got = run("li t1, 4096\nadd t2, s0, t1\nsw t2, 0(sp)")
    assert got == ["li t1, 4096", "add t2, s0, t1", "sw t2, 0(sp)"]


def test_results_go_straight_into_the_variable():
    # tmp += x;  i++  as the code generator spells them
    got = run("""
        mv t2, s0
        lw t3, 0(sp)
        add t2, t2, t3
        mv s0, t2
        mv t2, s1
        addi t2, t2, 1
        mv s1, t2
        sw s0, 0(s1)
    """)
    assert got == ["lw t3, 0(sp)", "add s0, s0, t3", "addi s1, s1, 1",
                   "sw s0, 0(s1)"]


def test_an_offset_folds_into_the_access():
    got = run("addi t1, sp, 32\nlw t2, 8(t1)\nsw t2, 0(sp)")
    assert got == ["lw t2, 40(sp)", "sw t2, 0(sp)"]


# ---- 2. dead code, never a barrier --------------------------------------------------

def test_dead_arithmetic_goes_and_what_a_barrier_names_stays():
    got = run("""
        la t1, __omp_cap_0
        li t1, 16
        mv a2, t1
        la a0, __omp_worker_0
        la t3, unused
        jal LBP_parallel_start
    """)
    assert got == ["li a2, 16", "la a0, __omp_worker_0",
                   "jal LBP_parallel_start"]


def test_a_barrier_reads_and_writes_what_it_names():
    got = run("""
        li t1, 3
        li t2, 4
        p_swre t1, t2, 0
        p_lwre t1, 0
        addi t2, t1, 1
        sw t2, 0(sp)
    """)
    assert got == ["li t1, 3", "li t2, 4", "p_swre t1, t2, 0", "p_lwre t1, 0",
                   "addi t2, t1, 1", "sw t2, 0(sp)"]


def test_never_touched_registers_are_barriers():
    text = "li ra, 0\nli t0, -1\np_ret"
    assert run(text) == text.splitlines()


def test_a_call_reads_its_arguments_and_clobbers_the_temporaries():
    got = run("li s0, 5\nli a0, 5\njal f\nadd t2, a0, s0\nsw t2, 0(sp)")
    # s0's constant survives the call, a0's does not
    assert got == ["li a0, 5", "jal f", "addi t2, a0, 5", "sw t2, 0(sp)"]


def test_the_barrier_sequence_is_checked_not_assumed(monkeypatch):
    real = opt.clean_branches
    monkeypatch.setattr(
        opt, "clean_branches",
        lambda code: [ins for ins in real(code) if ins.kind != "store"])
    with pytest.raises(CompileError, match="moved a memory operation"):
        run("li t1, 1\nsw t1, 0(sp)")


# ---- 3. branches ----------------------------------------------------------------------

LOOP = """
        li t1, 0
        mv s0, t1
.Lfor_1:
        mv t1, s0
        li t2, %s
        bge t1, t2, .Lendfor_3
        %s
.Lforstep_2:
        mv t2, s0
        addi t2, t2, 1
        mv s0, t2
        j .Lfor_1
.Lendfor_3:
"""


def test_a_counted_loop_is_bottom_tested_and_its_guard_folds():
    got = run(LOOP % ("8", "sw s0, 0(sp)"))
    assert got == ["li s0, 0", "li t2, 8", ".Lfor_1_b:", "sw s0, 0(sp)",
                   "addi s0, s0, 1", "blt s0, t2, .Lfor_1_b"]


def test_a_guard_on_a_variable_bound_stays():
    got = run(LOOP % ("8\n        mv t2, s1", "sw s0, 0(sp)"))
    assert got[:2] == ["li s0, 0", "bge zero, s1, .Lendfor_3"]
    assert got[-2:] == ["blt s0, s1, .Lfor_1_b", ".Lendfor_3:"]


def test_a_test_that_loads_is_never_duplicated():
    got = run("""
.Lwhile_1:
        la t1, flag
        lw t1, 0(t1)
        bnez t1, .Lendwhile_2
        j .Lwhile_1
.Lendwhile_2:
    """)
    assert [line for line in got if line.startswith("lw")] == ["lw t1, 0(t1)"]
    assert "j .Lwhile_1" in got or "beq t1, zero, .Lwhile_1" in got


def test_only_a_loop_that_leaves_below_its_back_edge_is_rotated():
    """Two headers whose tests name each other — a do-while that starts
    with an ``if``, inside ``for (;;)`` — used to rotate into one another
    for ever, each step adding a copy of a test."""
    body = """
.Lfor_2:
.Ldo_5:
        beqz s1, .Lelse_8
        addi s3, s3, 3
.Lelse_8:
        addi s2, s2, 1
.Ldocond_6:
        blt s2, s0, .Ldo_5
        li t1, 20
        ble s3, t1, .Lelse_10
        j .Lendfor_4
.Lelse_10:
        j .Lfor_2
.Lendfor_4:
        sw s3, 0(sp)
    """
    got = run(body, saved=("s0", "s1", "s2", "s3"))
    assert len(got) <= len(body.strip().splitlines())
    assert [line.split()[0] for line in got
            if line[0] == "b"] == ["beq", "blt", "bge"], got


ENDLESS = """
int out[2];
int f(int n, int p) {
    int i = 0, x = 0;
    %s {
        do { if (p) { x = x + 3; } i++; } while (i < n);
        if (x > 20 || i > 30) break;
    }
    return x * 1000 + i;
}
void main() { out[0] = f(5, 1); out[1] = f(3, 0) + f(9, 1); }
"""


@pytest.mark.parametrize("head", ["for (;;)", "while (1)"])
def test_a_do_while_inside_an_endless_loop_compiles_and_runs(head):
    text = compile_c(ENDLESS % head)
    assert len(text.splitlines()) < 200
    for reference in (False, True):
        program, machine, _ = run_c(ENDLESS % head, reference=reference)
        assert [word(machine, program, "out", at) for at in (0, 1)] == \
            [21007, 27040]


# ---- 4. loops ---------------------------------------------------------------------------

def test_an_array_walk_becomes_a_pointer_bump():
    got = run(LOOP % ("8", """la t1, v
        mv t3, s0
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 44(t1)
        sw t3, 0(sp)"""))
    assert got == ["li s0, 0", "la t4, v", "li t2, 8", ".Lfor_1_b:",
                   "lw t3, 44(t4)", "sw t3, 0(sp)", "addi s0, s0, 1",
                   "addi t4, t4, 4", "blt s0, t2, .Lfor_1_b"]


def test_a_loop_with_a_call_takes_only_saved_s_registers():
    body = """la t1, v
        mv t3, s0
        slli t3, t3, 2
        add t1, t1, t3
        lw a0, 0(t1)
        jal f"""
    got = run(LOOP % ("8", body), saved=("s0", "s1", "s2"))
    loop = got[got.index(".Lfor_1_b:"):]
    assert "lw a0, 0(s1)" in loop and "addi s1, s1, 4" in loop
    assert "blt s0, s2, .Lfor_1_b" in loop
    # with nothing to take, the loop keeps its address arithmetic
    got = run(LOOP % ("8", body), saved=("s0",))
    loop = got[got.index(".Lfor_1_b:"):]
    assert "la t1, v" in loop and "li t2, 8" in loop


def test_base_matmul_k_loop_is_nine_instructions_or_fewer():
    asm = compile_c(matmul_source("base", 16)).splitlines()
    start = asm.index(".Lfor_8_b:")
    end = next(i for i in range(start, len(asm))
               if asm[i].split()[-1] == ".Lfor_8_b" and i > start)
    loop = asm[start + 1:end + 1]
    assert len(loop) <= 9, loop
    assert [line.split()[0] for line in loop].count("lw") == 2


# ---- one pipeline, the same bytes every time ----------------------------------------------

def test_there_is_nothing_to_set():
    assert list(inspect.signature(compile_c).parameters) == \
        ["source", "source_name", "defines"]
    assert list(inspect.signature(compile_to_program).parameters) == \
        ["source", "source_name", "defines"]


_COMPILE = """
import hashlib
from repro.compiler import compile_c
from repro.workloads import ServingWorkload, StencilWorkload
from repro.workloads.matmul import matmul_source
for source in (matmul_source("tiled", 16),
               StencilWorkload(8, width=8, steps=4, seed=3).source,
               ServingWorkload(cores=2, num_requests=12, seed=7).source):
    print(hashlib.sha256(compile_c(source).encode()).hexdigest())
"""


def test_assembly_is_byte_identical_across_hash_seeds():
    """Program bytes key the run cache: the same source must compile to
    the same text whatever order a process hashes its strings in."""
    digests = set()
    for seed in ("0", "1", "random"):
        env = dict(os.environ, PYTHONPATH=SRC_ROOT, PYTHONHASHSEED=seed)
        digests.add(subprocess.run(
            [sys.executable, "-c", _COMPILE], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(digests) == 1 and len(digests.pop().split()) == 3
