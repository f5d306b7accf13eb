"""Operand expressions: the operator table and evaluation.

Expressions appear in immediate operands and data directives.  The
assembler's operand cursor parses one by precedence climbing over
:data:`BINARY` (loosest binding first: ``|``, ``^``, ``&``, ``<<``/``>>``,
``+``/``-``, ``*``/``/``; all left-associative, as in C) on top of::

    unary  := ('-'|'~'|'+')* atom
    atom   := NUM | IDENT | '%hi' '(' expr ')' | '%lo' '(' expr ')'
            | '(' expr ')'

Expression nodes are plain tuples: ``("num", v)``, ``("sym", name)``,
``("bin", op, lhs, rhs)``, ``("neg", e)``, ``("inv", e)``, ``("hi", e)``,
``("lo", e)``.
"""

import operator

from repro.asm.errors import AsmError
from repro.isa.encoding import sign_extend

#: binary operator -> (binding power, function)
BINARY = {
    "|": (1, operator.or_),
    "^": (2, operator.xor),
    "&": (3, operator.and_),
    "<<": (4, operator.lshift),
    ">>": (4, operator.rshift),
    "+": (5, operator.add),
    "-": (5, operator.sub),
    "*": (6, operator.mul),
    "/": (6, lambda a, b: a // b if b else 0),
}


def hi20(value):
    """The %hi relocation: upper 20 bits, adjusted for signed %lo."""
    return ((value + 0x800) >> 12) & 0xFFFFF


def lo12(value):
    """The %lo relocation: signed low 12 bits."""
    return sign_extend(value & 0xFFF, 12)


def eval_expr(node, symbols, line=None, source_name=None):
    """Evaluate an expression node against a symbol table."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "sym":
        name = node[1]
        if name not in symbols:
            raise AsmError("undefined symbol %r" % name, line, source_name)
        return symbols[name]
    if kind == "bin":
        lhs = eval_expr(node[2], symbols, line, source_name)
        rhs = eval_expr(node[3], symbols, line, source_name)
        return BINARY[node[1]][1](lhs, rhs)
    inner = eval_expr(node[1], symbols, line, source_name)
    if kind == "neg":
        return -inner
    if kind == "inv":
        return ~inner
    if kind == "hi":
        return hi20(inner)
    if kind == "lo":
        return lo12(inner)
    raise AssertionError("bad expression node %r" % (node,))


def try_fold(node):
    """The value of a symbol-free expression, or None if it names one."""
    try:
        return eval_expr(node, {})
    except AsmError:
        return None
