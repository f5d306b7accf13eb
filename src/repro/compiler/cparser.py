"""Recursive-descent parser for DetC.

Produces the AST of :mod:`repro.compiler.cast`.  Tracks typedef names (to
disambiguate declarations from expressions) and struct tags.  OpenMP
pragmas arrive from the preprocessor as the reserved markers
``__OMP_PARALLEL_FOR__`` / ``__OMP_PARALLEL_SECTIONS__`` /
``__OMP_SECTION__`` and are parsed into :class:`ParallelFor` /
:class:`ParallelSections` nodes here.
"""

from repro.compiler import cast as A
from repro.compiler import ctypes_ as T
from repro.compiler.clexer import tokenize
from repro.compiler.errors import CompileError

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=")

_TYPE_KEYWORDS = frozenset(
    ["int", "unsigned", "char", "void", "struct", "signed", "long", "short",
     "const", "volatile", "static"]
)


class Parser:
    def __init__(self, tokens, source_name="<c>"):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name
        self.typedefs = {}
        self.structs = {}

    # ---- token helpers ----------------------------------------------------

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise CompileError(message, tok.line, self.source_name)

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def expect(self, kind, value=None):
        tok = self.accept(kind, value)
        if tok is None:
            self.error(
                "expected %s, got %r" % (value or kind, self.peek().value)
            )
        return tok

    def at_punct(self, value):
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value

    # ---- types --------------------------------------------------------------

    def at_type_start(self):
        tok = self.peek()
        if tok.kind == "KW" and tok.value in _TYPE_KEYWORDS:
            return True
        if tok.kind == "KW" and tok.value == "typedef":
            return True
        return tok.kind == "ID" and tok.value in self.typedefs

    def parse_base_type(self):
        """Parse type specifiers (int/unsigned/char/void/struct/typedef)."""
        signed = None
        base = None
        while True:
            tok = self.peek()
            if tok.kind == "KW" and tok.value in ("const", "volatile", "static"):
                self.next()
                continue
            if tok.kind == "KW" and tok.value == "signed":
                self.next()
                signed = True
                continue
            if tok.kind == "KW" and tok.value == "unsigned":
                self.next()
                signed = False
                continue
            if tok.kind == "KW" and tok.value in ("long", "short"):
                self.next()  # ILP32: both collapse to int
                if base is None:
                    base = "int"
                continue
            if tok.kind == "KW" and tok.value in ("int", "char", "void"):
                self.next()
                base = tok.value
                continue
            if tok.kind == "KW" and tok.value == "struct":
                self.next()
                return self.parse_struct()
            if tok.kind == "ID" and tok.value in self.typedefs and base is None \
                    and signed is None:
                self.next()
                return self.typedefs[tok.value]
            break
        if base == "void":
            return T.VOID
        if base == "char":
            return T.CHAR if signed in (None, True) else T.UCHAR
        if base == "int" or signed is not None:
            return T.INT if signed in (None, True) else T.UINT
        self.error("expected a type")

    def parse_struct(self):
        tag_tok = self.accept("ID")
        tag = tag_tok.value if tag_tok else "__anon%d" % len(self.structs)
        if self.at_punct("{"):
            self.next()
            stype = self.structs.get(tag)
            if stype is None or stype.complete:
                stype = T.StructType(tag)
                self.structs[tag] = stype
            members = []
            while not self.at_punct("}"):
                base = self.parse_base_type()
                while True:
                    ctype, name = self.parse_declarator(base)
                    if name is None:
                        self.error("struct member needs a name")
                    members.append((name, ctype))
                    if not self.accept("PUNCT", ","):
                        break
                self.expect("PUNCT", ";")
            self.expect("PUNCT", "}")
            stype.define(members)
            return stype
        if tag_tok is None:
            self.error("struct needs a tag or a body")
        stype = self.structs.get(tag)
        if stype is None:
            stype = T.StructType(tag)
            self.structs[tag] = stype
        return stype

    def parse_declarator(self, base):
        """Parse ``* ... name [N] (params)`` → (type, name)."""
        ctype = base
        while self.accept("PUNCT", "*"):
            ctype = T.PtrType(ctype)
        name = None
        if self.at_punct("("):
            # function-pointer declarator: (*name)(params)
            self.next()
            self.expect("PUNCT", "*")
            name = self.expect("ID").value
            self.expect("PUNCT", ")")
            params, variadic = self.parse_params()
            return T.PtrType(T.FuncType(ctype, params, variadic)), name
        tok = self.peek()
        if tok.kind == "ID":
            name = self.next().value
        if self.at_punct("("):
            params, variadic = self.parse_params()
            ctype = T.FuncType(ctype, params, variadic)
        while self.at_punct("["):
            self.next()
            if self.at_punct("]"):
                count_expr = None
            else:
                count_expr = self.parse_expr()
            self.expect("PUNCT", "]")
            count = self.fold_const(count_expr) if count_expr is not None else 0
            ctype = T.ArrayType(ctype, count)
        return ctype, name

    def parse_params(self):
        self.expect("PUNCT", "(")
        params = []
        variadic = False
        if self.accept("PUNCT", ")"):
            return params, variadic
        if self.peek().kind == "KW" and self.peek().value == "void" \
                and self.peek(1).kind == "PUNCT" and self.peek(1).value == ")":
            self.next()
            self.expect("PUNCT", ")")
            return params, variadic
        while True:
            if self.accept("PUNCT", "..."):
                variadic = True
                break
            base = self.parse_base_type()
            ctype, name = self.parse_declarator(base)
            ctype = T.decay(ctype)
            params.append((name, ctype))
            if not self.accept("PUNCT", ","):
                break
        self.expect("PUNCT", ")")
        return params, variadic

    def fold_const(self, expr):
        """Evaluate a compile-time constant expression (array sizes...)."""
        value = self._try_fold(expr)
        if value is None:
            self.error("expected a constant expression", expr)
        return value

    def _try_fold(self, expr):
        if isinstance(expr, A.Num):
            return expr.value
        if isinstance(expr, A.SizeofType):
            return expr.ctype.size
        if isinstance(expr, A.Un):
            value = self._try_fold(expr.operand)
            if value is None:
                return None
            if expr.op == "-":
                return -value
            if expr.op == "~":
                return ~value
            if expr.op == "!":
                return 0 if value else 1
            return None
        if isinstance(expr, A.Bin):
            lhs = self._try_fold(expr.lhs)
            rhs = self._try_fold(expr.rhs)
            if lhs is None or rhs is None:
                return None
            ops = {
                "+": lambda a, b: a + b, "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a // b if b else 0,
                "%": lambda a, b: a % b if b else 0,
                "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
                "&": lambda a, b: a & b, "|": lambda a, b: a | b,
                "^": lambda a, b: a ^ b,
                "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
                "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
                "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
                "&&": lambda a, b: int(bool(a) and bool(b)),
                "||": lambda a, b: int(bool(a) or bool(b)),
            }
            fn = ops.get(expr.op)
            return fn(lhs, rhs) if fn else None
        return None

    # ---- top level --------------------------------------------------------------

    def parse_module(self):
        items = []
        while self.peek().kind != "EOF":
            if self.accept("KW", "typedef"):
                base = self.parse_base_type()
                ctype, name = self.parse_declarator(base)
                if name is None:
                    self.error("typedef needs a name")
                self.typedefs[name] = ctype
                self.expect("PUNCT", ";")
                continue
            if self.peek().kind == "KW" and self.peek().value == "struct" \
                    and self.peek(1).kind == "ID" \
                    and self.peek(2).kind == "PUNCT" and self.peek(2).value == "{":
                # plain struct definition at file scope
                self.next()
                self.parse_struct()
                self.expect("PUNCT", ";")
                continue
            items.extend(self.parse_external_decl())
        return A.Module(items)

    def parse_external_decl(self):
        line = self.peek().line
        base = self.parse_base_type()
        if self.accept("PUNCT", ";"):
            return []  # bare struct declaration
        results = []
        first = True
        while True:
            ctype, name = self.parse_declarator(base)
            if name is None:
                self.error("declaration needs a name")
            if isinstance(ctype, T.FuncType):
                if first and self.at_punct("{"):
                    body = self.parse_block()
                    results.append(A.FuncDef(name, ctype, body, line))
                    return results
                results.append(A.FuncDef(name, ctype, None, line))  # prototype
            else:
                bank = self.parse_bank_attr()
                init = None
                if self.accept("PUNCT", "="):
                    init = self.parse_initializer()
                results.append(A.GlobalVar(name, ctype, init, bank, line))
            first = False
            if not self.accept("PUNCT", ","):
                break
        self.expect("PUNCT", ";")
        return results

    def parse_bank_attr(self):
        """Optional ``__bank(N)`` placement attribute after a declarator."""
        tok = self.peek()
        if tok.kind == "ID" and tok.value == "__bank":
            self.next()
            self.expect("PUNCT", "(")
            bank = self.fold_const(self.parse_expr())
            self.expect("PUNCT", ")")
            return bank
        return None

    def parse_initializer(self):
        line = self.peek().line
        if not self.at_punct("{"):
            return self.parse_assignment()
        self.next()
        items = []
        while not self.at_punct("}"):
            if self.at_punct("["):
                self.next()
                lo = self.fold_const(self.parse_expr())
                hi = lo
                if self.accept("PUNCT", "..."):
                    hi = self.fold_const(self.parse_expr())
                self.expect("PUNCT", "]")
                self.expect("PUNCT", "=")
                value = self.parse_assignment()
                items.append(A.RangeInit(lo, hi, value, line))
            else:
                items.append(self.parse_initializer())
            if not self.accept("PUNCT", ","):
                break
        self.expect("PUNCT", "}")
        return A.InitList(items, line)

    # ---- statements -----------------------------------------------------------------

    def parse_block(self):
        line = self.expect("PUNCT", "{").line
        stmts = []
        while not self.at_punct("}"):
            stmts.append(self.parse_statement())
        self.expect("PUNCT", "}")
        return A.Block(stmts, line)

    def parse_statement(self):
        tok = self.peek()
        line = tok.line
        if tok.kind == "ID" and tok.value == "__OMP_PARALLEL_FOR__":
            self.next()
            return self.parse_parallel_for()
        if tok.kind == "ID" and tok.value == "__OMP_PARALLEL_SECTIONS__":
            self.next()
            return self.parse_parallel_sections()
        if self.at_punct("{"):
            return self.parse_block()
        if self.accept("PUNCT", ";"):
            return A.Empty(line)
        if tok.kind == "KW":
            if tok.value == "if":
                self.next()
                self.expect("PUNCT", "(")
                cond = self.parse_expr()
                self.expect("PUNCT", ")")
                then = self.parse_statement()
                otherwise = None
                if self.accept("KW", "else"):
                    otherwise = self.parse_statement()
                return A.If(cond, then, otherwise, line)
            if tok.value == "while":
                self.next()
                self.expect("PUNCT", "(")
                cond = self.parse_expr()
                self.expect("PUNCT", ")")
                return A.While(cond, self.parse_statement(), line)
            if tok.value == "do":
                self.next()
                body = self.parse_statement()
                self.expect("KW", "while")
                self.expect("PUNCT", "(")
                cond = self.parse_expr()
                self.expect("PUNCT", ")")
                self.expect("PUNCT", ";")
                return A.DoWhile(body, cond, line)
            if tok.value == "for":
                return self.parse_for()
            if tok.value == "return":
                self.next()
                value = None
                if not self.at_punct(";"):
                    value = self.parse_expr()
                self.expect("PUNCT", ";")
                return A.Return(value, line)
            if tok.value == "break":
                self.next()
                self.expect("PUNCT", ";")
                node = A.Break(line)
                return node
            if tok.value == "continue":
                self.next()
                self.expect("PUNCT", ";")
                return A.Continue(line)
        if self.at_type_start():
            return self.parse_local_decl()
        expr = self.parse_expr()
        self.expect("PUNCT", ";")
        return A.ExprStmt(expr, line)

    def parse_local_decl(self):
        line = self.peek().line
        base = self.parse_base_type()
        decls = []
        while True:
            ctype, name = self.parse_declarator(base)
            if name is None:
                self.error("declaration needs a name")
            init = None
            if self.accept("PUNCT", "="):
                init = self.parse_initializer()
            decls.append(A.Decl(name, ctype, init, line))
            if not self.accept("PUNCT", ","):
                break
        self.expect("PUNCT", ";")
        if len(decls) == 1:
            return decls[0]
        return A.DeclList(decls, line)

    def parse_for(self):
        line = self.expect("KW", "for").line
        self.expect("PUNCT", "(")
        init = None
        if not self.at_punct(";"):
            if self.at_type_start():
                init = self.parse_local_decl()
            else:
                init = A.ExprStmt(self.parse_expr(), line)
                self.expect("PUNCT", ";")
        else:
            self.next()
        if init is None:
            pass
        cond = None
        if not self.at_punct(";"):
            cond = self.parse_expr()
        self.expect("PUNCT", ";")
        step = None
        if not self.at_punct(")"):
            step = self.parse_expr()
        self.expect("PUNCT", ")")
        body = self.parse_statement()
        return A.For(init, cond, step, body, line)

    def parse_parallel_for(self):
        """``#pragma omp parallel for [reduction(...)]`` + canonical loop."""
        reduction = None
        tok = self.peek()
        if tok.kind == "ID" and tok.value == "__OMP_REDUCTION__":
            self.next()
            self.expect("PUNCT", "(")
            op_tok = self.expect("ID")
            if not op_tok.value.startswith("__red_"):
                self.error("bad reduction operator marker")
            self.expect("PUNCT", ",")
            var_tok = self.expect("ID")
            self.expect("PUNCT", ")")
            reduction = (op_tok.value[len("__red_"):], var_tok.value)
        loop = self.parse_statement()
        if not isinstance(loop, A.For):
            self.error("'#pragma omp parallel for' must precede a for loop")
        line = loop.line

        # init: VAR = start  (either expression or declaration)
        var = None
        start = None
        if isinstance(loop.init, A.ExprStmt) and isinstance(loop.init.expr, A.Assign) \
                and loop.init.expr.op == "=" and isinstance(loop.init.expr.lhs, A.Var):
            var = loop.init.expr.lhs.name
            start = loop.init.expr.rhs
        elif isinstance(loop.init, A.Decl):
            var = loop.init.name
            start = loop.init.init
        if var is None or start is None:
            self.error("parallel for needs 'var = start' initialisation")

        # cond: VAR < bound
        if not (isinstance(loop.cond, A.Bin) and loop.cond.op == "<"
                and isinstance(loop.cond.lhs, A.Var) and loop.cond.lhs.name == var):
            self.error("parallel for needs 'var < bound' condition")
        bound = loop.cond.rhs

        # step: var++ / ++var / var += 1 / var = var + 1
        step_ok = False
        step = loop.step
        if isinstance(step, A.IncDec) and step.op == "++" \
                and isinstance(step.operand, A.Var) and step.operand.name == var:
            step_ok = True
        if isinstance(step, A.Assign) and isinstance(step.lhs, A.Var) \
                and step.lhs.name == var:
            if step.op == "+=" and isinstance(step.rhs, A.Num) and step.rhs.value == 1:
                step_ok = True
            if step.op == "=" and isinstance(step.rhs, A.Bin) and step.rhs.op == "+":
                parts = (step.rhs.lhs, step.rhs.rhs)
                if any(isinstance(p, A.Var) and p.name == var for p in parts) and any(
                    isinstance(p, A.Num) and p.value == 1 for p in parts
                ):
                    step_ok = True
        if not step_ok:
            self.error("parallel for needs a unit-increment step")
        return A.ParallelFor(var, start, bound, loop.body, line,
                             reduction=reduction)

    def parse_parallel_sections(self):
        line = self.peek().line
        self.expect("PUNCT", "{")
        sections = []
        while not self.at_punct("}"):
            tok = self.peek()
            if not (tok.kind == "ID" and tok.value == "__OMP_SECTION__"):
                self.error("expected '#pragma omp section' inside parallel sections")
            self.next()
            sections.append(self.parse_statement())
        self.expect("PUNCT", "}")
        if not sections:
            self.error("parallel sections needs at least one section")
        return A.ParallelSections(sections, line)

    # ---- expressions ------------------------------------------------------------------

    def parse_expr(self):
        expr = self.parse_assignment()
        while self.at_punct(","):
            line = self.next().line
            rhs = self.parse_assignment()
            expr = A.Bin(",", expr, rhs, line)
        return expr

    def parse_assignment(self):
        lhs = self.parse_conditional()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value in _ASSIGN_OPS:
            self.next()
            rhs = self.parse_assignment()
            return A.Assign(tok.value, lhs, rhs, tok.line)
        return lhs

    def parse_conditional(self):
        cond = self.parse_binary(0)
        if self.at_punct("?"):
            line = self.next().line
            then = self.parse_expr()
            self.expect("PUNCT", ":")
            otherwise = self.parse_conditional()
            return A.Cond(cond, then, otherwise, line)
        return cond

    _LEVELS = [
        ["||"], ["&&"], ["|"], ["^"], ["&"],
        ["==", "!="], ["<", ">", "<=", ">="],
        ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
    ]

    def parse_binary(self, level):
        if level == len(self._LEVELS):
            return self.parse_unary()
        expr = self.parse_binary(level + 1)
        while True:
            tok = self.peek()
            if tok.kind != "PUNCT" or tok.value not in self._LEVELS[level]:
                return expr
            self.next()
            rhs = self.parse_binary(level + 1)
            expr = A.Bin(tok.value, expr, rhs, tok.line)

    def parse_unary(self):
        tok = self.peek()
        line = tok.line
        if tok.kind == "PUNCT":
            if tok.value in ("-", "~", "!"):
                self.next()
                return A.Un(tok.value, self.parse_unary(), line)
            if tok.value == "+":
                self.next()
                return self.parse_unary()
            if tok.value == "*":
                self.next()
                return A.Deref(self.parse_unary(), line)
            if tok.value == "&":
                self.next()
                return A.AddrOf(self.parse_unary(), line)
            if tok.value in ("++", "--"):
                self.next()
                return A.IncDec(tok.value, self.parse_unary(), False, line)
            if tok.value == "(" and self._looks_like_cast():
                self.next()
                base = self.parse_base_type()
                ctype = base
                while self.accept("PUNCT", "*"):
                    ctype = T.PtrType(ctype)
                self.expect("PUNCT", ")")
                return A.Cast(ctype, self.parse_unary(), line)
        if tok.kind == "KW" and tok.value == "sizeof":
            self.next()
            if self.at_punct("(") and self._looks_like_cast():
                self.next()
                base = self.parse_base_type()
                ctype = base
                while self.accept("PUNCT", "*"):
                    ctype = T.PtrType(ctype)
                while self.at_punct("["):
                    self.next()
                    count = self.fold_const(self.parse_expr())
                    self.expect("PUNCT", "]")
                    ctype = T.ArrayType(ctype, count)
                self.expect("PUNCT", ")")
                return A.SizeofType(ctype, line)
            operand = self.parse_unary()
            return A.Un("sizeof", operand, line)
        return self.parse_postfix()

    def _looks_like_cast(self):
        """At '(' — is the next thing a type name?"""
        tok = self.peek(1)
        if tok.kind == "KW" and tok.value in _TYPE_KEYWORDS:
            return True
        return tok.kind == "ID" and tok.value in self.typedefs

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind != "PUNCT":
                return expr
            if tok.value == "(":
                line = self.next().line
                args = []
                if not self.at_punct(")"):
                    args.append(self.parse_assignment())
                    while self.accept("PUNCT", ","):
                        args.append(self.parse_assignment())
                self.expect("PUNCT", ")")
                expr = A.Call(expr, args, line)
            elif tok.value == "[":
                line = self.next().line
                index = self.parse_expr()
                self.expect("PUNCT", "]")
                expr = A.Index(expr, index, line)
            elif tok.value == ".":
                line = self.next().line
                name = self.expect("ID").value
                expr = A.Member(expr, name, False, line)
            elif tok.value == "->":
                line = self.next().line
                name = self.expect("ID").value
                expr = A.Member(expr, name, True, line)
            elif tok.value in ("++", "--"):
                line = self.next().line
                expr = A.IncDec(tok.value, expr, True, line)
            else:
                return expr

    def parse_primary(self):
        tok = self.next()
        if tok.kind == "NUM":
            return A.Num(tok.value, tok.line)
        if tok.kind == "ID":
            return A.Var(tok.value, tok.line)
        if tok.kind == "PUNCT" and tok.value == "(":
            expr = self.parse_expr()
            self.expect("PUNCT", ")")
            return expr
        self.error("unexpected token %r in expression" % (tok.value,), tok)


def parse(source, source_name="<c>"):
    """Parse preprocessed DetC source into (Module, Parser)."""
    tokens = tokenize(source, source_name)
    parser = Parser(tokens, source_name)
    return parser.parse_module(), parser
