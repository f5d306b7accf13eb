"""Data: globals, initializers, arrays, structs, pointers, banks, char."""

from repro import memmap
from helpers import run_c, uword, word


def test_global_initializers():
    source = """
int a = 42;
int b = -7;
int c = 0x1234;
unsigned d = 0xFFFFFFFFU;
void main() { }
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "a") == 42
    assert word(machine, program, "b") == -7
    assert word(machine, program, "c") == 0x1234
    assert uword(machine, program, "d") == 0xFFFFFFFF


def test_array_initializer_and_default_zero():
    source = """
int v[6] = {1, 2, 3};
void main() { }
"""
    program, machine, _ = run_c(source)
    assert [word(machine, program, "v", i) for i in range(6)] == [1, 2, 3, 0, 0, 0]


def test_range_initializer():
    source = """
int v[8] = {[0 ... 7] = 9};
int w[8] = {[2 ... 5] = 4};
void main() { }
"""
    program, machine, _ = run_c(source)
    assert [word(machine, program, "v", i) for i in range(8)] == [9] * 8
    assert [word(machine, program, "w", i) for i in range(8)] == [0, 0, 4, 4, 4, 4, 0, 0]


def test_global_pointer_initializer():
    source = """
int target = 5;
int *p = &target;
int out;
void main() { out = *p; }
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 5


def test_bank_placement():
    source = """
#include <det_omp.h>
int near;              /* defaults to bank 0 */
int far __bank(3);
void main() { near = 1; far = 2; }
"""
    program, machine, _ = run_c(source, cores=4)
    assert program.symbol("near") < memmap.global_bank_base(1)
    assert program.symbol("far") >= memmap.global_bank_base(3)
    assert word(machine, program, "far") == 2


def test_struct_members_and_pointers():
    source = """
typedef struct { int x; int y; char tag; } point_t;
point_t origin;
int out1; int out2; int out3;
void set(point_t *p, int x, int y) { p->x = x; p->y = y; p->tag = 'P'; }
void main() {
    set(&origin, 3, 4);
    out1 = origin.x;
    out2 = origin.y;
    out3 = origin.tag;
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out1") == 3
    assert word(machine, program, "out2") == 4
    assert word(machine, program, "out3") == ord("P")


def test_struct_global_initializer():
    source = """
struct pair { int a; int b; };
struct pair p = {11, 22};
int out;
void main() { out = p.a * 100 + p.b; }
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 1122


def test_local_array_on_stack():
    source = """
int out;
void main() {
    int buf[8];
    int i;
    for (i = 0; i < 8; i++) buf[i] = i * i;
    out = buf[0] + buf[3] + buf[7];
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 0 + 9 + 49


def test_local_array_initializer():
    source = """
int out;
void main() {
    int v[4] = {5, 6, 7};
    out = v[0] + v[1] + v[2] + v[3];
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 18


def test_address_of_local_scalar():
    source = """
int out;
void bump(int *p) { *p += 1; }
void main() {
    int x = 41;
    bump(&x);
    out = x;
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 42


def test_char_array_bytes():
    source = """
char text[8];
int out;
void main() {
    text[0] = 'h';
    text[1] = 'i';
    out = text[0] * 256 + text[1];
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == ord("h") * 256 + ord("i")
    raw = machine.read_word(program.symbol("text"))
    assert raw & 0xFFFF == ord("h") | (ord("i") << 8)


def test_pointer_to_pointer():
    source = """
int out;
void main() {
    int x = 7;
    int *p = &x;
    int **pp = &p;
    out = **pp;
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 7


def test_array_of_struct():
    source = """
typedef struct { int k; int v; } entry_t;
entry_t table[4];
int out;
void main() {
    int i;
    for (i = 0; i < 4; i++) {
        table[i].k = i;
        table[i].v = 10 * i;
    }
    out = table[3].v + table[2].k;
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 32


def test_sizeof_struct_padded():
    source = """
typedef struct { char c; int x; } padded_t;
int out;
void main() { out = sizeof(padded_t); }
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "out") == 8


def test_global_read_modify_write():
    source = """
int counter;
void tick(void) { counter++; }
void main() {
    int i;
    for (i = 0; i < 10; i++) tick();
}
"""
    program, machine, _ = run_c(source)
    assert word(machine, program, "counter") == 10


# ---- constant offsets beyond the 12-bit immediate (±2 KiB) --------------------

FAR_INDICES = (511, 512, 1023, 2047)


def test_global_array_constant_indices_beyond_the_immediate_range():
    """A[512] on an int array is byte offset 2048: one past what lw/sw
    can encode.  511 stays an immediate, the others are materialised."""
    source = """
int A[2048];
int out[8];
void main() {
    A[511] = 11; A[512] = 12; A[1023] = 13; A[2047] = 14;
    A[1023] += 100;
    out[0] = A[511]; out[1] = A[512]; out[2] = A[1023]; out[3] = A[2047];
    out[4] = *(&A[2047]);
}
"""
    program, machine, _ = run_c(source)
    for index, want in zip(FAR_INDICES, (11, 12, 113, 14)):
        assert word(machine, program, "A", index) == want
    assert [word(machine, program, "out", i) for i in range(5)] == [
        11, 12, 113, 14, 14]
    text = "\n".join(str(i) for i in program.instructions.values())
    assert "2044(" in text and "2048(" not in text


def test_stack_frame_and_members_beyond_the_immediate_range():
    """Every sp-relative path: a 8 KiB local array pushes the later slots,
    the saved registers and the frame size itself past 2047."""
    source = """
struct wide { int pad[600]; int tail; };
struct wide g;
int out[8];
int sum3(int a, int b, int c) { return a + b + c; }
void main() {
    int big[2048];
    int late = 7;
    int *p = &late;
    struct wide w;
    big[0] = 1; big[2047] = 2;
    w.tail = 5;
    g.tail = 6;
    *p = *p + 1;
    out[0] = big[0] + big[2047];
    out[1] = late;
    out[2] = w.tail + g.tail;
    out[3] = sum3(big[2047], w.tail, late);
}
"""
    program, machine, _ = run_c(source)
    assert [word(machine, program, "out", i) for i in range(4)] == [
        3, 8, 11, 15]
