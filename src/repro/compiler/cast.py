"""DetC abstract syntax tree node classes.

Plain data holders; all analysis lives in the code generator.  Every node
carries its source line for diagnostics.
"""


class Node:
    __slots__ = ("line",)

    def __init__(self, line=None):
        self.line = line


# ---- top level ----------------------------------------------------------------


class Module(Node):
    __slots__ = ("items",)

    def __init__(self, items):
        super().__init__(None)
        self.items = items


class FuncDef(Node):
    __slots__ = ("name", "ftype", "body")

    def __init__(self, name, ftype, body, line):
        super().__init__(line)
        self.name = name
        self.ftype = ftype
        self.body = body


class GlobalVar(Node):
    __slots__ = ("name", "ctype", "init", "bank")

    def __init__(self, name, ctype, init, bank, line):
        super().__init__(line)
        self.name = name
        self.ctype = ctype
        self.init = init  # None | expr | InitList
        self.bank = bank  # None -> bank 0


class InitList(Node):
    """Brace initializer: items are exprs, RangeInit or nested InitList."""

    __slots__ = ("items",)

    def __init__(self, items, line):
        super().__init__(line)
        self.items = items


class RangeInit(Node):
    """The paper's ``[lo ... hi] = value`` designated range initializer."""

    __slots__ = ("lo", "hi", "value")

    def __init__(self, lo, hi, value, line):
        super().__init__(line)
        self.lo = lo
        self.hi = hi
        self.value = value


# ---- statements -----------------------------------------------------------------


class Block(Node):
    __slots__ = ("stmts",)

    def __init__(self, stmts, line):
        super().__init__(line)
        self.stmts = stmts


class Decl(Node):
    __slots__ = ("name", "ctype", "init")

    def __init__(self, name, ctype, init, line):
        super().__init__(line)
        self.name = name
        self.ctype = ctype
        self.init = init


class DeclList(Node):
    """Several declarators from one declaration, in the *current* scope."""

    __slots__ = ("decls",)

    def __init__(self, decls, line):
        super().__init__(line)
        self.decls = decls


class If(Node):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond, then, otherwise, line):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class While(Node):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body, line):
        super().__init__(line)
        self.cond = cond
        self.body = body


class DoWhile(Node):
    __slots__ = ("body", "cond")

    def __init__(self, body, cond, line):
        super().__init__(line)
        self.body = body
        self.cond = cond


class For(Node):
    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init, cond, step, body, line):
        super().__init__(line)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Return(Node):
    __slots__ = ("value",)

    def __init__(self, value, line):
        super().__init__(line)
        self.value = value


class Break(Node):
    __slots__ = ()


class Continue(Node):
    __slots__ = ()


class ExprStmt(Node):
    __slots__ = ("expr",)

    def __init__(self, expr, line):
        super().__init__(line)
        self.expr = expr


class Empty(Node):
    __slots__ = ()


class ParallelFor(Node):
    """``#pragma omp parallel for`` + canonical for loop.

    ``reduction`` is None or ("add"|"mul"|"and"|"or"|"xor", var_name).
    """

    __slots__ = ("var", "start", "bound", "body", "reduction")

    def __init__(self, var, start, bound, body, line, reduction=None):
        super().__init__(line)
        self.var = var
        self.start = start
        self.bound = bound
        self.body = body
        self.reduction = reduction


class ParallelSections(Node):
    """``#pragma omp parallel sections`` { ``#pragma omp section`` ... }."""

    __slots__ = ("sections",)

    def __init__(self, sections, line):
        super().__init__(line)
        self.sections = sections


# ---- expressions -------------------------------------------------------------------


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value, line=None):
        super().__init__(line)
        self.value = value


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name, line):
        super().__init__(line)
        self.name = name


class Bin(Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs, line):
        super().__init__(line)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Un(Node):
    __slots__ = ("op", "operand")

    def __init__(self, op, operand, line):
        super().__init__(line)
        self.op = op
        self.operand = operand


class Assign(Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs, line):
        super().__init__(line)
        self.op = op  # "=", "+=", ...
        self.lhs = lhs
        self.rhs = rhs


class IncDec(Node):
    __slots__ = ("op", "operand", "post")

    def __init__(self, op, operand, post, line):
        super().__init__(line)
        self.op = op  # "++" or "--"
        self.operand = operand
        self.post = post


class Cond(Node):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond, then, otherwise, line):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class Call(Node):
    __slots__ = ("callee", "args")

    def __init__(self, callee, args, line):
        super().__init__(line)
        self.callee = callee
        self.args = args


class Index(Node):
    __slots__ = ("base", "index")

    def __init__(self, base, index, line):
        super().__init__(line)
        self.base = base
        self.index = index


class Member(Node):
    __slots__ = ("base", "name", "arrow")

    def __init__(self, base, name, arrow, line):
        super().__init__(line)
        self.base = base
        self.name = name
        self.arrow = arrow


class Deref(Node):
    __slots__ = ("operand",)

    def __init__(self, operand, line):
        super().__init__(line)
        self.operand = operand


class AddrOf(Node):
    __slots__ = ("operand",)

    def __init__(self, operand, line):
        super().__init__(line)
        self.operand = operand


class Cast(Node):
    __slots__ = ("ctype", "operand")

    def __init__(self, ctype, operand, line):
        super().__init__(line)
        self.ctype = ctype
        self.operand = operand


class SizeofType(Node):
    __slots__ = ("ctype",)

    def __init__(self, ctype, line):
        super().__init__(line)
        self.ctype = ctype
