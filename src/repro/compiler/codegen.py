"""DetC code generation: AST → RV32IM + X_PAR assembly.

Design (simple, predictable, fast enough for the paper's workloads):

* scalar locals and parameters live in callee-saved registers
  (``s0``-``s11``) when possible, so hot loops touch memory only for real
  data; address-taken scalars, local arrays and structs live on the stack;
* expressions evaluate into a five-register temporary pool
  (``t1``-``t5``); temporaries live across a call are spilled around it;
* ``t0`` (team identity) and ``t6`` (fork target) are *reserved* for the
  Deterministic OpenMP protocol and never allocated;
* every ``#pragma omp parallel for`` / ``parallel sections`` is lowered
  exactly as the paper's figure 2: the body is outlined into
  ``__omp_body_N``, wrapped by ``__omp_worker_N`` (which ends with
  ``p_ret``), and launched by ``LBP_parallel_start``; enclosing locals
  referenced by the body are captured *firstprivate* through a per-region
  record in shared bank 0.
"""

from repro.compiler import cast as A
from repro.compiler import ctypes_ as T
from repro.compiler.errors import CompileError
from repro.compiler.opt import optimize_body

TEMP_REGS = ("t1", "t2", "t3", "t4", "t5", "a6", "a7")
SREGS = ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11")
ARG_REGS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")


def _is_pow2(value):
    return value > 0 and (value & (value - 1)) == 0


def _log2(value):
    return value.bit_length() - 1


class _Loc:
    """Where a local lives."""

    __slots__ = ("kind", "reg", "offset", "ctype")

    def __init__(self, kind, ctype, reg=None, offset=None):
        self.kind = kind  # "reg" | "stack"
        self.ctype = ctype
        self.reg = reg
        self.offset = offset


class _Region:
    """One parallel region awaiting body-function generation."""

    __slots__ = ("rid", "kind", "var", "body", "sections", "captures",
                 "has_start", "reduction")

    def __init__(self, rid, kind):
        self.rid = rid
        self.kind = kind  # "for" | "sections"
        self.var = None
        self.body = None
        self.sections = None
        self.captures = []   # [(name, ctype)]
        self.has_start = False
        self.reduction = None  # (op_name, var_name) or None


class FunctionCodegen:
    """Generates one function."""

    def __init__(self, module, name, ftype, body, line, in_region=False):
        self.module = module
        self.name = name
        self.ftype = ftype
        self.body = body
        self.line = line
        #: True while generating an outlined parallel-region body: the
        #: hardware keeps a single successor link per hart for the ordered
        #: p_ret chain, so teams cannot nest (OpenMP's default, too)
        self.in_region = in_region
        self.lines = []
        self.env = [{}]
        self.temps_free = list(TEMP_REGS)
        self.temps_used = []
        self.sregs_free = list(SREGS)
        self.used_sregs = []
        self.stack_cursor = 0          # local-area bytes allocated so far
        self.max_stack = 0
        self.loop_stack = []           # (break_label, continue_label)
        self.ret_label = self.module.new_label("ret_%s" % name)

    # ---- emission helpers ---------------------------------------------------

    def emit(self, text):
        self.lines.append("        " + text)

    def label(self, name):
        self.lines.append(name + ":")

    def _reach(self, base, offset, node=None, into=None):
        """A ``(base, offset)`` pair naming byte ``base + offset`` whose
        offset fits the 12-bit signed immediate of lw/sw/lb/sb/addi.

        In range nothing is emitted and the arguments come back as they
        are.  Otherwise the sum is built (``li`` + ``add``) in *into* — a
        register the caller owns or is about to overwrite, *base* itself
        included — or, without one, in a fresh temporary the caller
        frees; the returned offset is then 0.
        """
        if -2048 <= offset <= 2047:
            return base, offset
        scratch = into
        if into is None or into == base:
            scratch = self.alloc_temp(node)
        self.emit("li %s, %d" % (scratch, offset))
        if into is None:
            into = scratch
        self.emit("add %s, %s, %s" % (into, base, scratch))
        if scratch != into:
            self.free(scratch)
        return into, 0

    def emit_load(self, op, dst, offset, base, node=None):
        """``op dst, offset(base)``; *dst* doubles as the address scratch."""
        base, offset = self._reach(base, offset, node, into=dst)
        self.emit("%s %s, %d(%s)" % (op, dst, offset, base))

    def emit_store(self, op, src, offset, base, node=None):
        """``op src, offset(base)``."""
        addr, offset = self._reach(base, offset, node)
        self.emit("%s %s, %d(%s)" % (op, src, offset, addr))
        if addr != base:
            self.free(addr)

    def emit_addi(self, dst, src, value, node=None):
        """``dst = src + value`` for a compile-time *value*."""
        base, value = self._reach(src, value, node, into=dst)
        if base != dst or value:
            self.emit("addi %s, %s, %d" % (dst, base, value))

    def error(self, message, node=None):
        line = node.line if node is not None and node.line else self.line
        raise CompileError(message, line, self.module.source_name)

    # ---- register / stack management ---------------------------------------

    def alloc_temp(self, node=None):
        if not self.temps_free:
            self.error("expression too complex (temporaries exhausted)", node)
        reg = self.temps_free.pop(0)
        self.temps_used.append(reg)
        return reg

    def free(self, reg):
        if reg in self.temps_used:
            self.temps_used.remove(reg)
            self.temps_free.insert(0, reg)

    def alloc_stack(self, size, align=4):
        self.stack_cursor = (self.stack_cursor + align - 1) // align * align
        offset = self.stack_cursor
        self.stack_cursor += size
        self.max_stack = max(self.max_stack, self.stack_cursor)
        return offset

    def free_stack(self, mark):
        self.stack_cursor = mark

    def alloc_sreg(self):
        if not self.sregs_free:
            return None
        reg = self.sregs_free.pop(0)
        if reg not in self.used_sregs:
            self.used_sregs.append(reg)
        return reg

    # ---- scope --------------------------------------------------------------

    def push_scope(self):
        self.env.append({})
        return (len(self.env) - 1, list(self.sregs_free), self.stack_cursor)

    def pop_scope(self, mark):
        _, sregs, cursor = mark
        self.env.pop()
        self.sregs_free = sregs
        self.free_stack(cursor)

    def lookup(self, name):
        for scope in reversed(self.env):
            if name in scope:
                return scope[name]
        return None

    def declare_local(self, name, ctype, node=None):
        """Bind a local: s-register for scalars, stack otherwise."""
        scope = self.env[-1]
        if name in scope:
            self.error("redeclaration of %r" % name, node)
        if ctype.is_scalar() and name not in self.module.addr_taken.get(self.name, ()):
            reg = self.alloc_sreg()
            if reg is not None:
                loc = _Loc("reg", ctype, reg=reg)
                scope[name] = loc
                return loc
        offset = self.alloc_stack(max(ctype.size, 4), max(ctype.align, 4))
        loc = _Loc("stack", ctype, offset=offset)
        scope[name] = loc
        return loc

    # ---- main entry -----------------------------------------------------------

    def generate(self):
        params = self.ftype.params
        if len(params) > len(ARG_REGS):
            self.error("more than 8 parameters are not supported")
        # bind parameters, then move incoming argument registers
        moves = []
        for index, (pname, ptype) in enumerate(params):
            if pname is None:
                self.error("unnamed parameter in definition")
            loc = self.declare_local(pname, ptype)
            moves.append((loc, ARG_REGS[index]))
        for loc, areg in moves:
            if loc.kind == "reg":
                self.emit("mv %s, %s" % (loc.reg, areg))
            else:
                self.emit_store("sw", areg, loc.offset, "sp")
        self.gen_stmt(self.body)
        return self.finish()

    def finish(self):
        """Wrap body lines with prologue/epilogue now that sizes are known.

        Stack locals are addressed sp+offset from the local-area base,
        which is sp+0, so the body's offsets were final even though the
        frame size is only known here."""
        local_area = (self.max_stack + 15) // 16 * 16
        saved = ["ra"] + self.used_sregs
        frame = local_area + len(saved) * 4
        frame = (frame + 15) // 16 * 16
        self.label(self.ret_label)
        body = self.lines
        # the register-level optimiser (compiler/opt.py) sees the body only:
        # the save set, the frame and the stack offsets stay as generated
        if not self.module.reference:
            returns = () if isinstance(self.ftype.ret, T.VoidType) else ("a0",)
            body = optimize_body(body, self.used_sregs, returns)
        self.lines = [self.name + ":"]
        # every temporary is free again; an out-of-range frame offset must
        # take t1 as its scratch (a6/a7 carry arguments at entry)
        self.temps_free = list(TEMP_REGS)
        self.emit_addi("sp", "sp", -frame)
        for index, reg in enumerate(saved):
            self.emit_store("sw", reg, local_area + 4 * index, "sp")
        self.lines.extend(body)
        for index, reg in enumerate(saved):
            self.emit_load("lw", reg, local_area + 4 * index, "sp")
        self.emit_addi("sp", "sp", frame)
        self.emit("ret")
        return "\n".join(self.lines) + "\n"

    # ---- statements -------------------------------------------------------------

    def gen_stmt(self, stmt):
        method = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if method is None:
            self.error("unsupported statement %s" % type(stmt).__name__, stmt)
        method(stmt)

    def _stmt_Block(self, stmt):
        mark = self.push_scope()
        for inner in stmt.stmts:
            self.gen_stmt(inner)
        self.pop_scope(mark)

    def _stmt_Empty(self, stmt):
        pass

    def _stmt_DeclList(self, stmt):
        for decl in stmt.decls:
            self._stmt_Decl(decl)

    def _stmt_Decl(self, stmt):
        ctype = stmt.ctype
        if isinstance(ctype, T.FuncType):
            self.error("local function declarations are not supported", stmt)
        loc = self.declare_local(stmt.name, ctype, stmt)
        if stmt.init is None:
            return
        if isinstance(stmt.init, A.InitList):
            self._init_local_aggregate(loc, ctype, stmt.init)
            return
        reg, rtype = self.gen_expr(stmt.init)
        self.store_to_loc(loc, reg, stmt)
        self.free(reg)

    def _init_local_aggregate(self, loc, ctype, init):
        if not isinstance(ctype, T.ArrayType):
            self.error("brace initializer only supported for arrays here", init)
        if loc.kind != "stack":
            self.error("array local must be on the stack", init)
        element = ctype.base
        addr = self.alloc_temp(init)
        self.emit_addi(addr, "sp", loc.offset, init)
        offset = 0
        for item in init.items:
            if isinstance(item, A.RangeInit):
                self.error("range initializers only supported on globals", item)
            reg, _ = self.gen_expr(item)
            self.emit_store("sw" if element.size == 4 else "sb", reg, offset,
                            addr, item)
            self.free(reg)
            offset += element.size
        addr_end = ctype.size
        zero_needed = addr_end - offset
        pos = offset
        while zero_needed > 0 and element.size == 4:
            self.emit_store("sw", "zero", pos, addr, init)
            pos += 4
            zero_needed -= 4
        self.free(addr)

    def _stmt_ExprStmt(self, stmt):
        reg, _ = self.gen_expr(stmt.expr, want_value=False)
        if reg is not None:
            self.free(reg)

    def _stmt_If(self, stmt):
        else_label = self.module.new_label("else")
        end_label = self.module.new_label("endif")
        self.gen_branch(stmt.cond, else_label, invert=True)
        self.gen_stmt(stmt.then)
        if stmt.otherwise is not None:
            self.emit("j %s" % end_label)
            self.label(else_label)
            self.gen_stmt(stmt.otherwise)
            self.label(end_label)
        else:
            self.label(else_label)

    def _stmt_While(self, stmt):
        top = self.module.new_label("while")
        end = self.module.new_label("endwhile")
        self.label(top)
        self.gen_branch(stmt.cond, end, invert=True)
        self.loop_stack.append((end, top))
        self.gen_stmt(stmt.body)
        self.loop_stack.pop()
        self.emit("j %s" % top)
        self.label(end)

    def _stmt_DoWhile(self, stmt):
        top = self.module.new_label("do")
        cont = self.module.new_label("docond")
        end = self.module.new_label("enddo")
        self.label(top)
        self.loop_stack.append((end, cont))
        self.gen_stmt(stmt.body)
        self.loop_stack.pop()
        self.label(cont)
        self.gen_branch(stmt.cond, top, invert=False)
        self.label(end)

    def _stmt_For(self, stmt):
        mark = self.push_scope()
        if stmt.init is not None:
            self.gen_stmt(stmt.init)
        top = self.module.new_label("for")
        cont = self.module.new_label("forstep")
        end = self.module.new_label("endfor")
        self.label(top)
        if stmt.cond is not None:
            self.gen_branch(stmt.cond, end, invert=True)
        self.loop_stack.append((end, cont))
        self.gen_stmt(stmt.body)
        self.loop_stack.pop()
        self.label(cont)
        if stmt.step is not None:
            reg, _ = self.gen_expr(stmt.step, want_value=False)
            if reg is not None:
                self.free(reg)
        self.emit("j %s" % top)
        self.label(end)
        self.pop_scope(mark)

    def _stmt_Break(self, stmt):
        if not self.loop_stack:
            self.error("break outside a loop", stmt)
        self.emit("j %s" % self.loop_stack[-1][0])

    def _stmt_Continue(self, stmt):
        if not self.loop_stack:
            self.error("continue outside a loop", stmt)
        self.emit("j %s" % self.loop_stack[-1][1])

    def _stmt_Return(self, stmt):
        if stmt.value is not None:
            reg, _ = self.gen_expr(stmt.value)
            self.emit("mv a0, %s" % reg)
            self.free(reg)
        self.emit("j %s" % self.ret_label)

    def _check_not_nested(self, stmt):
        if self.in_region:
            self.error(
                "nested parallel regions are not supported: each hart keeps "
                "a single successor link for the ordered p_ret chain "
                "(OpenMP nested parallelism is disabled by default as well)",
                stmt)

    def _stmt_ParallelFor(self, stmt):
        self._check_not_nested(stmt)
        region = self.module.new_region("for")
        region.var = stmt.var
        region.body = stmt.body
        region.reduction = stmt.reduction
        exclude = {stmt.var}
        if stmt.reduction is not None:
            # the reduction variable becomes a private accumulator in the
            # body; the enclosing variable is combined after the join
            exclude.add(stmt.reduction[1])
        region.captures = self.module.find_captures(self, [stmt.body],
                                                    exclude=exclude)
        start_const = isinstance(stmt.start, A.Num) and stmt.start.value == 0
        region.has_start = not start_const
        self._emit_region_launch(region, stmt, stmt.start, stmt.bound)

    def _stmt_ParallelSections(self, stmt):
        self._check_not_nested(stmt)
        region = self.module.new_region("sections")
        region.sections = stmt.sections
        region.captures = self.module.find_captures(self, stmt.sections,
                                                    exclude=set())
        region.has_start = False
        self._emit_region_launch(region, stmt, None, A.Num(len(stmt.sections)))

    def _emit_region_launch(self, region, stmt, start, bound):
        cap_label = "__omp_cap_%d" % region.rid
        # write captured locals (and the start offset) into the record
        base = self.alloc_temp(stmt)
        self.emit("la %s, %s" % (base, cap_label))
        for index, (name, _ctype) in enumerate(region.captures):
            loc = self.lookup(name)
            reg, _ = self.gen_expr(A.Var(name, stmt.line))
            self.emit("sw %s, %d(%s)" % (reg, 4 * index, base))
            self.free(reg)
        if region.has_start:
            reg, _ = self.gen_expr(start)
            self.emit("sw %s, %d(%s)" % (reg, 4 * len(region.captures), base))
            self.free(reg)
        self.free(base)
        # team size
        if start is not None and not (isinstance(start, A.Num) and start.value == 0):
            count = A.Bin("-", bound, start, stmt.line)
        else:
            count = bound
        creg, _ = self.gen_expr(count)
        count_slot = None
        if region.reduction is not None:
            count_slot = self.alloc_stack(4)
            self.emit_store("sw", creg, count_slot, "sp", stmt)
        spilled = self._spill_live_temps(exclude=(creg,))
        self.emit("mv a2, %s" % creg)
        self.free(creg)
        self.emit("la a0, __omp_worker_%d" % region.rid)
        self.emit("la a1, %s" % cap_label)
        self.emit("jal LBP_parallel_start")
        self._reload_spilled(spilled)
        if region.reduction is not None:
            self._emit_reduction_combine(region, stmt, count_slot)

    _REDUCTION_MNEMONIC = {
        "add": "add", "mul": "mul", "and": "and", "or": "or", "xor": "xor",
    }

    def _emit_reduction_combine(self, region, stmt, count_slot):
        """Fold every member's partial (left by the body functions in the
        region's reduction array — made globally visible by the hardware
        barrier) into the enclosing reduction variable."""
        op, var = region.reduction
        mnemonic = self._REDUCTION_MNEMONIC.get(op)
        if mnemonic is None:
            self.error("unsupported reduction operator %r" % op, stmt)
        base = self.alloc_temp(stmt)
        self.emit("la %s, __omp_red_%d" % (base, region.rid))
        count = self.alloc_temp(stmt)
        self.emit_load("lw", count, count_slot, "sp", stmt)
        acc, _ = self.gen_expr(A.Var(var, stmt.line))
        partial = self.alloc_temp(stmt)
        loop = self.module.new_label("red")
        done = self.module.new_label("redend")
        self.label(loop)
        self.emit("beqz %s, %s" % (count, done))
        self.emit("lw %s, 0(%s)" % (partial, base))
        self.emit("%s %s, %s, %s" % (mnemonic, acc, acc, partial))
        self.emit("addi %s, %s, 4" % (base, base))
        self.emit("addi %s, %s, -1" % (count, count))
        self.emit("j %s" % loop)
        self.label(done)
        place = self.gen_lvalue(A.Var(var, stmt.line))
        self._store_place_keep(place, acc, stmt)
        self._unpin_place(place)
        for reg in (base, count, acc, partial):
            self.free(reg)

    # ---- conditions ------------------------------------------------------------------

    _REL_BRANCH = {
        "==": ("beq", "bne"), "!=": ("bne", "beq"),
        "<": ("blt", "bge"), ">=": ("bge", "blt"),
        ">": ("bgt", "ble"), "<=": ("ble", "bgt"),
    }
    _REL_BRANCH_U = {
        "<": ("bltu", "bgeu"), ">=": ("bgeu", "bltu"),
        ">": ("bgtu", "bleu"), "<=": ("bleu", "bgtu"),
    }

    def gen_branch(self, cond, target, invert):
        """Branch to *target* when cond is true (or false if *invert*)."""
        if isinstance(cond, A.Un) and cond.op == "!":
            self.gen_branch(cond.operand, target, not invert)
            return
        if isinstance(cond, A.Bin) and cond.op in ("&&", "||"):
            is_and = cond.op == "&&"
            if is_and == invert:
                # (!A || !B) → branch if either side fails
                self.gen_branch(cond.lhs, target, invert)
                self.gen_branch(cond.rhs, target, invert)
            else:
                skip = self.module.new_label("sc")
                self.gen_branch(cond.lhs, skip, not invert)
                self.gen_branch(cond.rhs, target, invert)
                self.label(skip)
            return
        if isinstance(cond, A.Bin) and cond.op in self._REL_BRANCH:
            lreg, ltype = self.gen_expr(cond.lhs)
            rreg, rtype = self.gen_expr(cond.rhs)
            unsigned = T.is_unsigned_op(ltype, rtype) or (
                ltype.is_pointer() or rtype.is_pointer()
            )
            table = self._REL_BRANCH_U if unsigned and cond.op in self._REL_BRANCH_U \
                else self._REL_BRANCH
            mnemonic = table[cond.op][1 if invert else 0]
            self.emit("%s %s, %s, %s" % (mnemonic, lreg, rreg, target))
            self.free(lreg)
            self.free(rreg)
            return
        reg, _ = self.gen_expr(cond)
        self.emit("%s %s, %s" % ("beqz" if invert else "bnez", reg, target))
        self.free(reg)

    # ---- expressions ------------------------------------------------------------------

    def gen_expr(self, expr, want_value=True):
        """Generate one expression; returns (reg_or_None, ctype)."""
        method = getattr(self, "_expr_" + type(expr).__name__, None)
        if method is None:
            self.error("unsupported expression %s" % type(expr).__name__, expr)
        return method(expr, want_value)

    def load_const(self, value, node=None):
        reg = self.alloc_temp(node)
        self.emit("li %s, %d" % (reg, value))
        return reg

    def _expr_Num(self, expr, want_value):
        if not want_value:
            return None, T.INT
        return self.load_const(expr.value, expr), T.INT

    def _expr_SizeofType(self, expr, want_value):
        if not want_value:
            return None, T.UINT
        return self.load_const(expr.ctype.size, expr), T.UINT

    def _expr_Var(self, expr, want_value):
        name = expr.name
        loc = self.lookup(name)
        if loc is not None:
            if isinstance(loc.ctype, T.ArrayType):
                reg = self.alloc_temp(expr)
                self.emit_addi(reg, "sp", loc.offset, expr)
                return reg, T.PtrType(loc.ctype.base)
            if loc.kind == "reg":
                if not want_value:
                    return None, loc.ctype
                reg = self.alloc_temp(expr)
                self.emit("mv %s, %s" % (reg, loc.reg))
                return reg, loc.ctype
            reg = self.alloc_temp(expr)
            self.emit_load(self._load_op(loc.ctype), reg, loc.offset, "sp",
                           expr)
            return reg, loc.ctype
        # globals and functions
        gtype = self.module.global_types.get(name)
        if gtype is not None:
            reg = self.alloc_temp(expr)
            if isinstance(gtype, T.ArrayType):
                self.emit("la %s, %s" % (reg, name))
                return reg, T.PtrType(gtype.base)
            self.emit("la %s, %s" % (reg, name))
            value_reg = reg
            self.emit("%s %s, 0(%s)" % (self._load_op(gtype), value_reg, reg))
            return value_reg, gtype
        ftype = self.module.func_types.get(name)
        if ftype is not None:
            reg = self.alloc_temp(expr)
            self.emit("la %s, %s" % (reg, name))
            return reg, T.PtrType(ftype)
        self.error("undefined identifier %r" % name, expr)

    @staticmethod
    def _load_op(ctype):
        if ctype.size == 1:
            return "lb" if getattr(ctype, "signed", True) else "lbu"
        return "lw"

    @staticmethod
    def _store_op(ctype):
        return "sb" if ctype.size == 1 else "sw"

    # -- lvalues --

    def gen_lvalue(self, expr):
        """Return ("reg", loc) for register locals or ("mem", reg, off, ctype)."""
        if isinstance(expr, A.Var):
            loc = self.lookup(expr.name)
            if loc is not None:
                if loc.kind == "reg":
                    return ("reg", loc)
                if isinstance(loc.ctype, T.ArrayType):
                    self.error("cannot assign to an array", expr)
                return ("memsp", None, loc.offset, loc.ctype)
            gtype = self.module.global_types.get(expr.name)
            if gtype is not None:
                if isinstance(gtype, T.ArrayType):
                    self.error("cannot assign to an array", expr)
                reg = self.alloc_temp(expr)
                self.emit("la %s, %s" % (reg, expr.name))
                return ("mem", reg, 0, gtype)
            self.error("undefined identifier %r" % expr.name, expr)
        if isinstance(expr, A.Deref):
            reg, ptype = self.gen_expr(expr.operand)
            if not ptype.is_pointer():
                self.error("dereference of a non-pointer", expr)
            return ("mem", reg, 0, ptype.base)
        if isinstance(expr, A.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, A.Member):
            return self._member_lvalue(expr)
        self.error("expression is not assignable", expr)

    def _index_lvalue(self, expr):
        base_reg, base_type = self.gen_expr(expr.base)
        if not base_type.is_pointer():
            self.error("indexing a non-pointer", expr)
        element = base_type.base
        if isinstance(expr.index, A.Num):
            return ("mem", base_reg, expr.index.value * element.size, element)
        idx_reg, _ = self.gen_expr(expr.index)
        scaled = self._scale(idx_reg, element.size, expr)
        self.emit("add %s, %s, %s" % (base_reg, base_reg, scaled))
        if scaled != idx_reg:
            self.free(scaled)
        else:
            self.free(idx_reg)
        return ("mem", base_reg, 0, element)

    def _member_lvalue(self, expr):
        if expr.arrow:
            reg, ptype = self.gen_expr(expr.base)
            if not ptype.is_pointer() or not isinstance(ptype.base, T.StructType):
                self.error("-> on a non-struct-pointer", expr)
            stype = ptype.base
            offset = 0
        else:
            place = self.gen_lvalue(expr.base)
            if place[0] == "memsp":
                stype = place[3]
                reg = self.alloc_temp(expr)
                self.emit_addi(reg, "sp", place[2], expr)
                offset = 0
            elif place[0] == "mem":
                _, reg, offset, stype = place
            else:
                self.error("cannot take a member of a register value", expr)
            if not isinstance(stype, T.StructType):
                self.error(". on a non-struct", expr)
        field = stype.field(expr.name)
        if field is None:
            self.error("struct %s has no member %r" % (stype.tag, expr.name), expr)
        ftype, foffset = field
        return ("mem", reg, offset + foffset, ftype)

    def _scale(self, reg, size, node):
        """Multiply *reg* by an element size, in place when it is a temp."""
        if size == 1:
            return reg
        if _is_pow2(size):
            if reg in self.temps_used:
                self.emit("slli %s, %s, %d" % (reg, reg, _log2(size)))
                return reg
            out = self.alloc_temp(node)
            self.emit("slli %s, %s, %d" % (out, reg, _log2(size)))
            return out
        size_reg = self.load_const(size, node)
        self.emit("mul %s, %s, %s" % (size_reg, reg, size_reg))
        self.free(reg)
        return size_reg

    def load_from_place(self, place, node):
        """The value at the ``"mem"`` place of an Index, Member or Deref:
        an array or a struct is its address."""
        _, reg, offset, ctype = place
        if isinstance(ctype, T.ArrayType):
            if offset:
                self.emit_addi(reg, reg, offset, node)
            return reg, T.PtrType(ctype.base)
        if isinstance(ctype, T.StructType):
            if offset:
                self.emit_addi(reg, reg, offset, node)
            return reg, T.PtrType(ctype)
        out = self.alloc_temp(node)
        self.emit_load(self._load_op(ctype), out, offset, reg, node)
        self.free(reg)
        return out, ctype

    def store_to_place(self, place, reg, node):
        kind = place[0]
        if kind == "reg":
            self.emit("mv %s, %s" % (place[1].reg, reg))
            return place[1].ctype
        if kind == "memsp":
            _, _, offset, ctype = place
            self.emit_store(self._store_op(ctype), reg, offset, "sp", node)
            return ctype
        _, addr, offset, ctype = place
        self.emit_store(self._store_op(ctype), reg, offset, addr, node)
        self.free(addr)
        return ctype

    def store_to_loc(self, loc, reg, node):
        if loc.kind == "reg":
            self.emit("mv %s, %s" % (loc.reg, reg))
        else:
            self.emit_store(self._store_op(loc.ctype), reg, loc.offset, "sp",
                            node)

    # -- operators --

    def _expr_Assign(self, expr, want_value):
        if expr.op == "=":
            rhs_reg, _ = self.gen_expr(expr.rhs)
            place = self.gen_lvalue(expr.lhs)
            ctype = self.store_to_place(place, rhs_reg, expr)
            if want_value:
                return rhs_reg, ctype
            self.free(rhs_reg)
            return None, ctype
        # compound assignment: evaluate place once
        op = expr.op[:-1]
        place = self.gen_lvalue(expr.lhs)
        cur_reg, ctype = self._load_place_keep(place, expr)
        rhs_reg, rtype = self.gen_expr(expr.rhs)
        result = self._binary_op(op, cur_reg, ctype, rhs_reg, rtype, expr)
        self._store_place_keep(place, result, expr)
        self._unpin_place(place)
        if want_value:
            return result, ctype
        self.free(result)
        return None, ctype

    def _unpin_place(self, place):
        if place[0] == "mem":
            self.free(place[1])

    def _load_place_keep(self, place, node):
        """Load without consuming the place's address register."""
        kind = place[0]
        if kind == "reg":
            loc = place[1]
            reg = self.alloc_temp(node)
            self.emit("mv %s, %s" % (reg, loc.reg))
            return reg, loc.ctype
        if kind == "memsp":
            _, _, offset, ctype = place
            reg = self.alloc_temp(node)
            self.emit_load(self._load_op(ctype), reg, offset, "sp", node)
            return reg, ctype
        _, addr, offset, ctype = place
        reg = self.alloc_temp(node)
        self.emit_load(self._load_op(ctype), reg, offset, addr, node)
        return reg, ctype

    def _store_place_keep(self, place, reg, node):
        kind = place[0]
        if kind == "reg":
            self.emit("mv %s, %s" % (place[1].reg, reg))
        elif kind == "memsp":
            _, _, offset, ctype = place
            self.emit_store(self._store_op(ctype), reg, offset, "sp", node)
        else:
            _, addr, offset, ctype = place
            self.emit_store(self._store_op(ctype), reg, offset, addr, node)

    def _expr_IncDec(self, expr, want_value):
        place = self.gen_lvalue(expr.operand)
        cur_reg, ctype = self._load_place_keep(place, expr)
        delta = ctype.base.size if ctype.is_pointer() else 1
        if expr.op == "--":
            delta = -delta
        if expr.post and want_value:
            saved = self.alloc_temp(expr)
            self.emit("mv %s, %s" % (saved, cur_reg))
        else:
            saved = None
        self.emit_addi(cur_reg, cur_reg, delta, expr)
        self._store_place_keep(place, cur_reg, expr)
        self._unpin_place(place)
        if not want_value:
            self.free(cur_reg)
            return None, ctype
        if expr.post:
            self.free(cur_reg)
            return saved, ctype
        return cur_reg, ctype

    def _expr_Bin(self, expr, want_value):
        op = expr.op
        if op == ",":
            reg, _ = self.gen_expr(expr.lhs, want_value=False)
            if reg is not None:
                self.free(reg)
            return self.gen_expr(expr.rhs, want_value)
        if op in ("&&", "||"):
            return self._logical(expr, want_value)
        lhs_reg, ltype = self.gen_expr(expr.lhs)
        rhs_reg, rtype = self.gen_expr(expr.rhs)
        result = self._binary_op(op, lhs_reg, ltype, rhs_reg, rtype, expr)
        result_type = self._binary_type(op, ltype, rtype)
        return result, result_type

    @staticmethod
    def _binary_type(op, ltype, rtype):
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return T.INT
        if ltype.is_pointer() and rtype.is_pointer():
            return T.INT  # pointer difference
        if ltype.is_pointer():
            return ltype
        if rtype.is_pointer():
            return rtype
        if T.is_unsigned_op(ltype, rtype):
            return T.UINT
        return T.INT

    _SIMPLE_OPS = {
        "+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor",
        "*": "mul", "<<": "sll",
    }

    def _result_reg(self, lhs, node):
        """Reuse the lhs temporary as the destination when possible."""
        if lhs in self.temps_used:
            return lhs
        return self.alloc_temp(node)

    def _binary_op(self, op, lhs, ltype, rhs, rtype, node):
        unsigned = T.is_unsigned_op(ltype, rtype)
        # pointer arithmetic scaling
        if op in ("+", "-") and ltype.is_pointer() and rtype.is_integer():
            rhs = self._scale(rhs, ltype.base.size, node)
            out = self._result_reg(lhs, node)
            self.emit("%s %s, %s, %s" % ("add" if op == "+" else "sub", out, lhs, rhs))
            if lhs != out:
                self.free(lhs)
            self.free(rhs)
            return out
        if op == "+" and rtype.is_pointer() and ltype.is_integer():
            lhs = self._scale(lhs, rtype.base.size, node)
            out = self._result_reg(lhs, node)
            self.emit("add %s, %s, %s" % (out, lhs, rhs))
            if lhs != out:
                self.free(lhs)
            self.free(rhs)
            return out
        if op == "-" and ltype.is_pointer() and rtype.is_pointer():
            out = self._result_reg(lhs, node)
            self.emit("sub %s, %s, %s" % (out, lhs, rhs))
            if _is_pow2(ltype.base.size):
                if ltype.base.size > 1:
                    self.emit("srai %s, %s, %d" % (out, out, _log2(ltype.base.size)))
            else:
                size_reg = self.load_const(ltype.base.size, node)
                self.emit("div %s, %s, %s" % (out, out, size_reg))
                self.free(size_reg)
            if lhs != out:
                self.free(lhs)
            self.free(rhs)
            return out
        out = self._result_reg(lhs, node)
        if op in self._SIMPLE_OPS:
            self.emit("%s %s, %s, %s" % (self._SIMPLE_OPS[op], out, lhs, rhs))
        elif op == ">>":
            mnemonic = "srl" if (isinstance(ltype, T.IntType) and not ltype.signed) \
                else "sra"
            self.emit("%s %s, %s, %s" % (mnemonic, out, lhs, rhs))
        elif op == "/":
            self.emit("%s %s, %s, %s" % ("divu" if unsigned else "div", out, lhs, rhs))
        elif op == "%":
            self.emit("%s %s, %s, %s" % ("remu" if unsigned else "rem", out, lhs, rhs))
        elif op == "<":
            self.emit("%s %s, %s, %s" % ("sltu" if unsigned else "slt", out, lhs, rhs))
        elif op == ">":
            self.emit("%s %s, %s, %s" % ("sltu" if unsigned else "slt", out, rhs, lhs))
        elif op == "<=":
            self.emit("%s %s, %s, %s" % ("sltu" if unsigned else "slt", out, rhs, lhs))
            self.emit("xori %s, %s, 1" % (out, out))
        elif op == ">=":
            self.emit("%s %s, %s, %s" % ("sltu" if unsigned else "slt", out, lhs, rhs))
            self.emit("xori %s, %s, 1" % (out, out))
        elif op == "==":
            self.emit("xor %s, %s, %s" % (out, lhs, rhs))
            self.emit("seqz %s, %s" % (out, out))
        elif op == "!=":
            self.emit("xor %s, %s, %s" % (out, lhs, rhs))
            self.emit("snez %s, %s" % (out, out))
        else:
            self.error("unsupported binary operator %r" % op, node)
        if lhs != out:
            self.free(lhs)
        self.free(rhs)
        return out

    def _logical(self, expr, want_value):
        out = self.alloc_temp(expr)
        false_label = self.module.new_label("lfalse")
        end_label = self.module.new_label("lend")
        self.gen_branch(expr, false_label, invert=True)
        self.emit("li %s, 1" % out)
        self.emit("j %s" % end_label)
        self.label(false_label)
        self.emit("li %s, 0" % out)
        self.label(end_label)
        return out, T.INT

    def _expr_Un(self, expr, want_value):
        if expr.op == "sizeof":
            size = self._sizeof(expr.operand).size
            return self.load_const(size, expr), T.UINT
        reg, ctype = self.gen_expr(expr.operand)
        out = self._result_reg(reg, expr)
        if expr.op == "-":
            self.emit("neg %s, %s" % (out, reg))
        elif expr.op == "~":
            self.emit("not %s, %s" % (out, reg))
        elif expr.op == "!":
            self.emit("seqz %s, %s" % (out, reg))
            ctype = T.INT
        else:
            self.error("unsupported unary operator %r" % expr.op, expr)
        if reg != out:
            self.free(reg)
        return out, ctype

    def _expr_Cond(self, expr, want_value):
        out = self.alloc_temp(expr)
        else_label = self.module.new_label("celse")
        end_label = self.module.new_label("cend")
        self.gen_branch(expr.cond, else_label, invert=True)
        then_reg, ttype = self.gen_expr(expr.then)
        self.emit("mv %s, %s" % (out, then_reg))
        self.free(then_reg)
        self.emit("j %s" % end_label)
        self.label(else_label)
        else_reg, _ = self.gen_expr(expr.otherwise)
        self.emit("mv %s, %s" % (out, else_reg))
        self.free(else_reg)
        self.label(end_label)
        return out, ttype

    def _expr_Deref(self, expr, want_value):
        place = self.gen_lvalue(expr)
        return self.load_from_place(place, expr)

    def _expr_Index(self, expr, want_value):
        place = self.gen_lvalue(expr)
        return self.load_from_place(place, expr)

    def _expr_Member(self, expr, want_value):
        place = self.gen_lvalue(expr)
        return self.load_from_place(place, expr)

    def _expr_AddrOf(self, expr, want_value):
        operand = expr.operand
        if isinstance(operand, A.Var):
            loc = self.lookup(operand.name)
            if loc is not None:
                if loc.kind == "reg":
                    self.error(
                        "cannot take the address of register local %r "
                        "(mark it address-taken by using &)" % operand.name, expr)
                reg = self.alloc_temp(expr)
                self.emit_addi(reg, "sp", loc.offset, expr)
                return reg, T.PtrType(loc.ctype)
            gtype = self.module.global_types.get(operand.name)
            if gtype is not None:
                reg = self.alloc_temp(expr)
                self.emit("la %s, %s" % (reg, operand.name))
                base = gtype.base if isinstance(gtype, T.ArrayType) else gtype
                return reg, T.PtrType(base)
            ftype = self.module.func_types.get(operand.name)
            if ftype is not None:
                reg = self.alloc_temp(expr)
                self.emit("la %s, %s" % (reg, operand.name))
                return reg, T.PtrType(ftype)
            self.error("undefined identifier %r" % operand.name, expr)
        # a Deref, an Index or a Member: its place is "mem"
        _, reg, offset, ctype = self.gen_lvalue(operand)
        if offset:
            self.emit_addi(reg, reg, offset, expr)
        return reg, T.PtrType(ctype)

    def _expr_Cast(self, expr, want_value):
        reg, _ = self.gen_expr(expr.operand)
        target = expr.ctype
        if isinstance(target, T.IntType) and target.size == 1:
            self.emit("slli %s, %s, 24" % (reg, reg))
            self.emit("%s %s, %s, 24" % ("srai" if target.signed else "srli", reg, reg))
        return reg, target

    # -- calls --

    def _spill_live_temps(self, exclude=()):
        spilled = []
        for reg in list(self.temps_used):
            if reg in exclude:
                continue
            offset = self.alloc_stack(4)
            self.emit_store("sw", reg, offset, "sp")
            spilled.append((reg, offset))
        return spilled

    def _reload_spilled(self, spilled):
        for reg, offset in spilled:
            self.emit_load("lw", reg, offset, "sp")
        if spilled:
            self.free_stack(min(offset for _, offset in spilled))

    def _expr_Call(self, expr, want_value):
        callee = expr.callee
        if isinstance(callee, A.Var):
            builtin = self.module.builtin(callee.name)
            if builtin is not None:
                return builtin(self, expr, want_value)
        # evaluate arguments into a private staging area
        if len(expr.args) > 8:
            self.error("more than 8 arguments are not supported", expr)
        mark = self.stack_cursor
        staging = [self.alloc_stack(4) for _ in expr.args]
        for slot, arg in zip(staging, expr.args):
            reg, _ = self.gen_expr(arg)
            self.emit_store("sw", reg, slot, "sp", arg)
            self.free(reg)

        direct = None
        ret_type = T.INT
        if isinstance(callee, A.Var) and self.lookup(callee.name) is None \
                and callee.name in self.module.func_types:
            direct = callee.name
            ret_type = self.module.func_types[callee.name].ret
        else:
            fn_reg, ftype = self.gen_expr(callee)
            if isinstance(ftype, T.PtrType) and isinstance(ftype.base, T.FuncType):
                ret_type = ftype.base.ret
            fn_slot = self.alloc_stack(4)
            self.emit_store("sw", fn_reg, fn_slot, "sp", expr)
            self.free(fn_reg)

        spilled = self._spill_live_temps()
        for index, slot in enumerate(staging):
            self.emit_load("lw", ARG_REGS[index], slot, "sp")
        if direct is not None:
            self.emit("jal %s" % direct)
        else:
            self.emit_load("lw", "t1", fn_slot, "sp")
            self.emit("jalr t1")
        self._reload_spilled(spilled)
        self.free_stack(mark)
        if isinstance(ret_type, T.VoidType) or not want_value:
            return None, ret_type
        out = self.alloc_temp(expr)
        self.emit("mv %s, a0" % out)
        return out, ret_type

    def _sizeof(self, operand):
        """The type ``sizeof operand`` measures: an array variable's or an
        lvalue's own (undecayed), else the type :meth:`gen_expr` gives the
        operand.  Whatever is generated on the way is discarded: C does
        not evaluate the operand."""
        saved = (self.lines, list(self.temps_free), list(self.temps_used),
                 self.stack_cursor, self.max_stack,
                 self.module._label_counter)
        self.lines = []
        try:
            if isinstance(operand, A.Var):
                loc = self.lookup(operand.name)
                declared = self.module.global_types.get(operand.name) \
                    if loc is None else loc.ctype
                if isinstance(declared, T.ArrayType):
                    return declared
            elif isinstance(operand, (A.Deref, A.Index, A.Member)):
                return self.gen_lvalue(operand)[3]
            return self.gen_expr(operand)[1]
        finally:
            (self.lines, self.temps_free, self.temps_used, self.stack_cursor,
             self.max_stack, self.module._label_counter) = saved
