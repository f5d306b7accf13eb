"""Property: random expression programs compile and compute correctly.

Random C expression trees over small integer variables are compiled by
DetC, assembled, executed on the cycle-accurate LBP machine, and the
resulting value is compared against a Python reference interpreter that
uses the architecture's own 32-bit semantics (:mod:`repro.isa.semantics`).
One failing case would implicate the whole pipeline — preprocessor,
parser, register allocation, assembler, encoder, or pipeline model.

Every program runs twice, as ``compile_c`` emits it and as the code
generator emits it without ``compiler/opt.py`` (``run_c(reference=True)``):
both must agree with the Python model, so a disagreement names its side.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.isa.semantics import ALU_OPS, to_signed
from helpers import run_c, word

VARS = {"a": 13, "b": -7, "c": 100000, "d": 3}

_BINS = {
    "+": "add", "-": "sub", "*": "mul",
    "&": "and", "|": "or", "^": "xor",
}


@st.composite
def exprs(draw, depth=0):
    """(source_text, reference_value) pairs."""
    if depth >= 4 or draw(st.booleans()) and depth > 1:
        choice = draw(st.integers(0, 1))
        if choice == 0:
            value = draw(st.integers(-100, 100))
            return str(value) if value >= 0 else "(%d)" % value, value & 0xFFFFFFFF
        name = draw(st.sampled_from(sorted(VARS)))
        return name, VARS[name] & 0xFFFFFFFF
    kind = draw(st.sampled_from(["bin", "shift", "cmp", "neg", "ternary"]))
    if kind == "bin":
        op = draw(st.sampled_from(sorted(_BINS)))
        lhs_text, lhs_val = draw(exprs(depth + 1))
        rhs_text, rhs_val = draw(exprs(depth + 1))
        value = ALU_OPS[_BINS[op]](lhs_val, rhs_val)
        return "(%s %s %s)" % (lhs_text, op, rhs_text), value
    if kind == "shift":
        lhs_text, lhs_val = draw(exprs(depth + 1))
        amount = draw(st.integers(0, 15))
        op = draw(st.sampled_from(["<<", ">>"]))
        fn = "sll" if op == "<<" else "sra"  # ints are signed in the source
        value = ALU_OPS[fn](lhs_val, amount)
        return "(%s %s %d)" % (lhs_text, op, amount), value
    if kind == "cmp":
        op = draw(st.sampled_from(["<", ">", "<=", ">=", "==", "!="]))
        lhs_text, lhs_val = draw(exprs(depth + 1))
        rhs_text, rhs_val = draw(exprs(depth + 1))
        sl, sr = to_signed(lhs_val), to_signed(rhs_val)
        value = int({
            "<": sl < sr, ">": sl > sr, "<=": sl <= sr,
            ">=": sl >= sr, "==": sl == sr, "!=": sl != sr,
        }[op])
        return "(%s %s %s)" % (lhs_text, op, rhs_text), value
    if kind == "neg":
        text, val = draw(exprs(depth + 1))
        return "(-%s)" % text, (-val) & 0xFFFFFFFF
    # ternary
    cond_text, cond_val = draw(exprs(depth + 1))
    then_text, then_val = draw(exprs(depth + 1))
    else_text, else_val = draw(exprs(depth + 1))
    value = then_val if cond_val else else_val
    return "(%s ? %s : %s)" % (cond_text, then_text, else_text), value


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_random_expressions_end_to_end(case):
    text, expected = case
    decls = "".join("    int %s = %d;\n" % (n, v) for n, v in VARS.items())
    source = "int out;\nvoid main() {\n%s    out = %s;\n}\n" % (decls, text)
    for reference in (False, True):
        program, machine, _ = run_c(source, reference=reference)
        assert word(machine, program, "out") == to_signed(expected), text


@given(st.integers(-(1 << 31), (1 << 31) - 1))
@settings(max_examples=80, deadline=None)
def test_li_round_trip_any_constant(value):
    source = "int out;\nvoid main() { out = %s; }\n" % (
        str(value) if value >= 0 else "(%d)" % value)
    for reference in (False, True):
        program, machine, _ = run_c(source, reference=reference)
        assert word(machine, program, "out") == value


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_array_sum_loop(values):
    init = ", ".join(str(v) for v in values)
    source = """
int v[%d] = {%s};
int out;
void main() {
    int i;
    int acc = 0;
    for (i = 0; i < %d; i++)
        acc += v[i];
    out = acc;
}
""" % (len(values), init, len(values))
    for reference in (False, True):
        program, machine, _ = run_c(source, reference=reference)
        assert word(machine, program, "out") == sum(values)


# ---- nested loops over arrays ---------------------------------------------------
#
# Two induction variables (up or down, any step), bounds written as
# constant expressions, ``a[i*C+k]`` and ``*(p+(i*C+k))`` addressing, a
# store per trip, ``break``/``continue`` and a call inside the loop: what
# loop rotation, invariant hoisting and pointer bumps rewrite.  The model
# is the same walk in Python big ints, wrapped to 32 bits where C wraps.

def _wrap(value):
    return to_signed(value & 0xFFFFFFFF)


@st.composite
def _headers(draw, var, count):
    """(C text of a ``for`` header, the values *var* takes)."""
    step = draw(st.integers(1, 2))
    divisor = draw(st.integers(1, 3))
    bound = "(%d / %d)" % (count * divisor, divisor)
    if draw(st.booleans()):
        text = "for (%s = 0; %s < %s; %s)" % (
            var, var, bound, var + "++" if step == 1 else "%s += %d" % (var, step))
        return text, list(range(0, count, step))
    text = "for (%s = %s - 1; %s >= 0; %s)" % (
        var, bound, var, var + "--" if step == 1 else "%s -= %d" % (var, step))
    return text, list(range(count - 1, -1, -step))


_STATEMENTS = ("index", "pointer", "store", "mix", "call", "break", "continue")


@st.composite
def loop_programs(draw):
    stride = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 4))
    outer, i_values = draw(_headers("i", rows))
    inner, k_values = draw(_headers("k", draw(st.integers(1, stride))))
    size = rows * stride
    data = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    body = draw(st.lists(
        st.tuples(st.sampled_from(_STATEMENTS), st.integers(0, 3)),
        min_size=1, max_size=5))
    if draw(st.booleans()):
        body.append(("store", 1))
    lines = []
    for kind, n in body:
        lines.append({
            "index": "acc += a[i * %d + k];" % stride,
            "pointer": "acc += *(p + (i * %d + k)) - %d;" % (stride, n),
            "store": "o[i * %d + k] = acc + %d;" % (stride, n),
            "mix": "acc = acc * 3 + (i << %d) - k;" % n,
            "call": "acc += f(k, i);",
            "break": "if (((i + k) & 3) == %d) break;" % n,
            "continue": "if ((k & 1) == %d) continue;" % (n & 1),
        }[kind])
    source = """
int a[%d] = {%s};
int o[%d];
int out;
int f(int x, int y) { return x * 3 - y; }
void main() {
    int i, k;
    int acc = 7;
    int *p = a;
    %s
        %s {
            %s
        }
    out = acc;
}
""" % (size, ", ".join(map(str, data)), size, outer, inner,
       "\n            ".join(lines))

    acc, stored = 7, [0] * size
    for i in i_values:
        for k in k_values:
            at = i * stride + k
            left = False
            for kind, n in body:
                if kind == "index":
                    acc = _wrap(acc + data[at])
                elif kind == "pointer":
                    acc = _wrap(acc + data[at] - n)
                elif kind == "store":
                    stored[at] = _wrap(acc + n)
                elif kind == "mix":
                    acc = _wrap(acc * 3 + (i << n) - k)
                elif kind == "call":
                    acc = _wrap(acc + k * 3 - i)
                elif kind == "break" and (i + k) & 3 == n:
                    left = True
                    break
                elif kind == "continue" and k & 1 == n & 1:
                    break
            if left:
                break
    return source, acc, stored


@given(loop_programs())
@settings(max_examples=80, deadline=None)
def test_nested_loops_over_arrays(case):
    source, acc, stored = case
    for reference in (False, True):
        program, machine, _ = run_c(source, reference=reference)
        assert word(machine, program, "out") == acc, source
        got = [word(machine, program, "o", at) for at in range(len(stored))]
        assert got == stored, source


# ---- loop shapes ----------------------------------------------------------------
#
# ``for (;;)``, ``while (1)``, ``while`` and ``do``-``while`` nested in one
# another, with ``if``/``else``, ``break`` and ``continue`` anywhere and the
# tests on parameters, so nothing folds: what loop rotation and branch
# cleanup rewrite (a ``do`` that starts with an ``if`` inside ``for (;;)``
# once sent rotation round in circles).  The model walks the same tree in
# Python; a program it cannot finish in a few hundred trips is discarded.

_CONDS = {
    "i < n": lambda e: e["i"] < e["n"], "j < 6": lambda e: e["j"] < 6,
    "p": lambda e: e["p"] != 0, "(x & 1)": lambda e: e["x"] & 1,
    "x > 40": lambda e: e["x"] > 40, "i + j < 9": lambda e: e["i"] + e["j"] < 9,
}
_SIMPLE = {
    "x = x * 3 + i - j;": lambda e: e.update(x=_wrap(e["x"] * 3 + e["i"] - e["j"])),
    "i++;": lambda e: e.update(i=e["i"] + 1),
    "j += 2;": lambda e: e.update(j=e["j"] + 2),
    "t++;": lambda e: e.update(t=e["t"] + 1),
}
_LOOPS = {"for": "for (;;)", "while1": "while (1)", "while": "while (%s)",
          "do": "do"}


@st.composite
def _blocks(draw, depth=0, in_loop=False):
    """A list of statements: a text of ``_SIMPLE``, ``"break;"``,
    ``"continue;"``, ``("if", cond, then, else)`` or ``(loop, cond, body)``."""
    kinds = sorted(_SIMPLE)[:3] + ["if"]
    if depth < 3:
        kinds += sorted(_LOOPS)
    if in_loop:
        kinds += ["break;", "continue;"]
    block = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "if":
            block.append(("if", draw(st.sampled_from(sorted(_CONDS))),
                          draw(_blocks(depth + 1, in_loop)),
                          draw(st.none() | _blocks(depth + 1, in_loop))))
        elif kind in _LOOPS:
            body = draw(_blocks(depth + 1, True))
            cond = "1"
            if kind in ("for", "while1"):   # an exit, somewhere in the body
                at = draw(st.integers(0, len(body)))
                body[at:at] = ["t++;", ("if", "t > 5", ["break;"], None)]
            else:                           # progress towards the test
                cond = draw(st.sampled_from(["i < n", "j < 6"]))
                body.append("i++;" if cond == "i < n" else "j += 2;")
            block.append((kind, cond, body))
        else:
            block.append(kind)
    return block


def _render(block, pad):
    lines = []
    for item in block:
        if isinstance(item, str):
            lines.append(pad + item)
        elif item[0] == "if":
            lines.append(pad + "if (%s) {" % item[1])
            lines += _render(item[2], pad + "    ")
            if item[3] is not None:
                lines.append(pad + "} else {")
                lines += _render(item[3], pad + "    ")
            lines.append(pad + "}")
        else:
            head = _LOOPS[item[0]]
            lines.append(pad + (head % item[1] if "%" in head else head) + " {")
            lines += _render(item[2], pad + "    ")
            lines.append(pad + ("} while (%s);" % item[1] if item[0] == "do"
                                else "}"))
    return lines


def _walk(block, env):
    """Run *block* on *env*; "break;"/"continue;" when one leaves it."""
    for item in block:
        if isinstance(item, str):
            if item not in _SIMPLE:
                return item
            _SIMPLE[item](env)
        elif item[0] == "if":
            holds = env["t"] > 5 if item[1] == "t > 5" else _CONDS[item[1]](env)
            branch = item[2] if holds else item[3]
            left = _walk(branch, env) if branch is not None else None
            if left:
                return left
        else:
            kind, cond, body = item
            test = (lambda e: True) if cond == "1" else _CONDS[cond]
            first = kind == "do"
            while first or test(env):
                first = False
                env["trips"] += 1
                assume(env["trips"] < 300)
                if _walk(body, env) == "break;":
                    break
    return None


@given(_blocks(), st.integers(0, 7), st.integers(0, 1))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_loop_shapes(block, n, p):
    env = {"x": 1, "i": 0, "j": 0, "t": 0, "n": n, "p": p, "trips": 0}
    _walk(block, env)
    source = """
int out[4];
void f(int n, int p) {
    int x = 1, i = 0, j = 0, t = 0;
%s
    out[0] = x; out[1] = i; out[2] = j; out[3] = t;
}
void main() { f(%d, %d); }
""" % ("\n".join(_render(block, "    ")), n, p)
    for reference in (False, True):
        program, machine, _ = run_c(source, reference=reference)
        got = [word(machine, program, "out", at) for at in range(4)]
        assert got == [env[name] for name in "xijt"], source

