"""DetC driver: preprocess → parse → generate a whole module.

Also owns everything module-scoped: global/function symbol tables, the
builtin functions (OMP API + LBP intrinsics), parallel-region outlining,
global-data emission and the final assembly assembly-order (functions,
outlined bodies, workers, runtime, ``_start``, data).
"""

from repro import memmap
from repro.asm import assemble
from repro.compiler import cast as A
from repro.compiler import ctypes_ as T
from repro.compiler.codegen import FunctionCodegen, _Region
from repro.compiler.cpp import Preprocessor
from repro.compiler.cparser import parse
from repro.compiler.errors import CompileError
from repro.detomp import runtime_asm, start_stub_asm, worker_asm
from repro.detomp.runtime import omp_globals_asm


def _walk(node, fn):
    """Generic AST walk (visits every Node attribute recursively)."""
    if node is None:
        return
    fn(node)
    cls = type(node)
    for slot_holder in cls.__mro__:
        for slot in getattr(slot_holder, "__slots__", ()):
            if slot == "line":
                continue
            value = getattr(node, slot, None)
            if isinstance(value, A.Node):
                _walk(value, fn)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, A.Node):
                        _walk(item, fn)


class ModuleCodegen:
    def __init__(self, module_ast, parser, source_name, det_omp,
                 num_cores_hint=64, reference=False):
        self.ast = module_ast
        #: True leaves each function's body as generated, without
        #: ``compiler/opt.py`` — the differential oracle's reference program
        self.reference = reference
        self.parser = parser
        self.source_name = source_name
        self.det_omp = det_omp
        self.num_cores_hint = num_cores_hint
        self.global_types = {}
        self.global_banks = {}
        self.func_types = {}
        self.addr_taken = {}
        self.regions = []
        self._label_counter = 0
        self._func_texts = []
        self._worker_texts = []
        self._data_lines = []
        # capture records are emitted after user globals so that user data
        # starts at each bank's base (symmetric per-bank layouts rely on it)
        self._cap_lines = []

    def new_label(self, hint):
        self._label_counter += 1
        return ".L%s_%d" % (hint, self._label_counter)

    def new_region(self, kind):
        region = _Region(len(self.regions), kind)
        self.regions.append(region)
        return region

    # ---- captures -------------------------------------------------------------

    def find_captures(self, fcg, stmts, exclude):
        """Enclosing locals referenced inside a parallel region's body."""
        names = []
        seen = set(exclude)

        def visit(node):
            if isinstance(node, A.Var) and node.name not in seen:
                if fcg.lookup(node.name) is not None:
                    names.append(node.name)
                seen.add(node.name)

        for stmt in stmts:
            _walk(stmt, visit)
        return [(name, fcg.lookup(name).ctype) for name in names]

    # ---- builtins --------------------------------------------------------------

    def builtin(self, name):
        return getattr(self, "_builtin_" + name, None) if name in _BUILTIN_NAMES \
            else None

    def _builtin_omp_set_num_threads(self, fcg, expr, want_value):
        if len(expr.args) != 1:
            fcg.error("omp_set_num_threads takes one argument", expr)
        if not self.det_omp:
            fcg.error("omp_set_num_threads needs #include <det_omp.h>", expr)
        reg, _ = fcg.gen_expr(expr.args[0])
        addr = fcg.alloc_temp(expr)
        fcg.emit("la %s, omp_num_threads" % addr)
        fcg.emit("sw %s, 0(%s)" % (reg, addr))
        fcg.free(addr)
        fcg.free(reg)
        return None, T.VOID

    def _builtin_omp_get_num_threads(self, fcg, expr, want_value):
        if not self.det_omp:
            fcg.error("omp_get_num_threads needs #include <det_omp.h>", expr)
        reg = fcg.alloc_temp(expr)
        fcg.emit("la %s, omp_num_threads" % reg)
        fcg.emit("lw %s, 0(%s)" % (reg, reg))
        return reg, T.INT

    def _builtin_omp_get_thread_num(self, fcg, expr, want_value):
        """The member index — only meaningful inside a parallel region."""
        if fcg.lookup("__idx") is None:
            fcg.error(
                "omp_get_thread_num() is only valid inside a parallel region "
                "body (outside, the initial hart is thread 0)", expr)
        return fcg.gen_expr(A.Var("__idx", expr.line))

    def _builtin___bank_base(self, fcg, expr, want_value):
        if len(expr.args) != 1:
            fcg.error("__bank_base takes one argument", expr)
        arg = expr.args[0]
        if isinstance(arg, A.Num):
            reg = fcg.alloc_temp(expr)
            fcg.emit("li %s, %d" % (reg, memmap.global_bank_base(arg.value)))
            return reg, T.PtrType(T.INT)
        reg, _ = fcg.gen_expr(arg)
        out = fcg.alloc_temp(expr)
        fcg.emit("slli %s, %s, 20" % (out, reg))
        fcg.free(reg)
        base = fcg.alloc_temp(expr)
        fcg.emit("li %s, %d" % (base, memmap.GLOBAL_BASE))
        fcg.emit("add %s, %s, %s" % (out, out, base))
        fcg.free(base)
        return out, T.PtrType(T.INT)

    def _builtin___hart_id(self, fcg, expr, want_value):
        reg = fcg.alloc_temp(expr)
        fcg.emit("p_set %s, zero" % reg)
        fcg.emit("slli %s, %s, 1" % (reg, reg))
        fcg.emit("srli %s, %s, 17" % (reg, reg))
        return reg, T.INT

    def _builtin___p_swre(self, fcg, expr, want_value):
        if len(expr.args) != 3 or not isinstance(expr.args[1], A.Num):
            fcg.error("__p_swre(hart, const_slot, value)", expr)
        hart_reg, _ = fcg.gen_expr(expr.args[0])
        value_reg, _ = fcg.gen_expr(expr.args[2])
        fcg.emit("p_swre %s, %s, %d" % (hart_reg, value_reg, expr.args[1].value))
        fcg.free(hart_reg)
        fcg.free(value_reg)
        return None, T.VOID

    def _builtin___p_lwre(self, fcg, expr, want_value):
        if len(expr.args) != 1 or not isinstance(expr.args[0], A.Num):
            fcg.error("__p_lwre(const_slot)", expr)
        reg = fcg.alloc_temp(expr)
        fcg.emit("p_lwre %s, %d" % (reg, expr.args[0].value))
        return reg, T.INT

    def _builtin___p_syncm(self, fcg, expr, want_value):
        fcg.emit("p_syncm")
        return None, T.VOID

    def _builtin_exit(self, fcg, expr, want_value):
        fcg.emit("li ra, 0")
        fcg.emit("li t0, -1")
        fcg.emit("p_ret")
        return None, T.VOID

    # ---- top-level generation ---------------------------------------------------

    def run(self):
        # symbol tables first (mutual recursion, forward references)
        funcs = []
        for item in self.ast.items:
            if isinstance(item, A.FuncDef):
                self.func_types[item.name] = item.ftype
                if item.body is not None:
                    funcs.append(item)
            elif isinstance(item, A.GlobalVar):
                if item.name in self.global_types:
                    raise CompileError("redefinition of %r" % item.name,
                                       item.line, self.source_name)
                self.global_types[item.name] = item.ctype
                self.global_banks[item.name] = item.bank or 0
        if "main" not in self.func_types:
            raise CompileError("no main function", None, self.source_name)

        for func in funcs:
            self._scan_addr_taken(func.name, func.body)
            fcg = FunctionCodegen(self, func.name, func.ftype, func.body, func.line)
            self._func_texts.append(fcg.generate())

        # regions may create further regions (nested parallelism)
        index = 0
        while index < len(self.regions):
            self._generate_region(self.regions[index])
            index += 1

        self._emit_globals()

        parts = [start_stub_asm()]
        parts.extend(self._func_texts)
        parts.extend(self._worker_texts)
        if self.det_omp or self.regions:
            parts.append(runtime_asm())
        parts.append("\n        .data\n")
        parts.extend(self._data_lines)
        parts.extend(self._cap_lines)
        if self.det_omp or self.regions:
            parts.append(omp_globals_asm())
        return "\n".join(parts)

    def _scan_addr_taken(self, fname, body):
        taken = set()

        def visit(node):
            if isinstance(node, A.AddrOf) and isinstance(node.operand, A.Var):
                taken.add(node.operand.name)

        _walk(body, visit)
        self.addr_taken[fname] = taken

    # ---- parallel regions --------------------------------------------------------

    def _generate_region(self, region):
        body_name = "__omp_body_%d" % region.rid
        worker_name = "__omp_worker_%d" % region.rid
        cap_label = "__omp_cap_%d" % region.rid
        line = 0

        stmts = []
        cap_var = A.Var("__cap", line)
        for name, ctype in region.captures:
            if not ctype.is_scalar():
                raise CompileError(
                    "parallel region captures non-scalar local %r; LBP local "
                    "banks are core-private — use a global (shared bank) "
                    "instead" % name,
                    line, self.source_name)
        for index, (name, ctype) in enumerate(region.captures):
            value = A.Index(cap_var, A.Num(index), line)
            if not isinstance(ctype, T.IntType) or ctype.size != 4:
                value = A.Cast(ctype if ctype.is_scalar() else T.PtrType(T.INT),
                               value, line)
            stmts.append(A.Decl(name, ctype if ctype.is_scalar() else
                                T.PtrType(T.INT), value, line))
        if region.kind == "for":
            idx_expr = A.Var("__idx", line)
            if region.has_start:
                start_value = A.Index(cap_var, A.Num(len(region.captures)), line)
                idx_expr = A.Bin("+", idx_expr, start_value, line)
            stmts.append(A.Decl(region.var, T.INT, idx_expr, line))
            if region.reduction is not None:
                op, red_var = region.reduction
                red_label = "__omp_red_%d" % region.rid
                identities = {"add": 0, "or": 0, "xor": 0, "mul": 1, "and": -1}
                stmts.append(A.Decl(red_var, T.INT,
                                    A.Num(identities[op], line), line))
                stmts.append(region.body)
                # leave this member's partial in the reduction array; the
                # p_ret barrier makes it visible before the join resumes
                stmts.append(A.ExprStmt(
                    A.Assign("=",
                             A.Index(A.Var(red_label, line),
                                     A.Var("__idx", line), line),
                             A.Var(red_var, line), line), line))
                self.global_types.setdefault(
                    red_label, T.ArrayType(T.INT, 4 * 256))
                self._cap_lines.append("        .bank 0")
                self._cap_lines.append("%s:        .space %d"
                                       % (red_label, 4 * 4 * 256))
            else:
                stmts.append(region.body)
        else:
            chain = None
            for section_index in range(len(region.sections) - 1, -1, -1):
                cond = A.Bin("==", A.Var("__idx", line), A.Num(section_index), line)
                chain = A.If(cond, region.sections[section_index], chain, line)
            stmts.append(chain)
        body_block = A.Block(stmts, line)

        ftype = T.FuncType(T.VOID, [("__cap", T.PtrType(T.INT)), ("__idx", T.INT)])
        self._scan_addr_taken(body_name, body_block)
        fcg = FunctionCodegen(self, body_name, ftype, body_block, line,
                              in_region=True)
        self._func_texts.append(fcg.generate())
        self._worker_texts.append(worker_asm(worker_name, body_name))

        slots = max(1, len(region.captures) + (1 if region.has_start else 0))
        self._cap_lines.append("        .bank 0")
        self._cap_lines.append("%s:        .space %d" % (cap_label, 4 * slots))

    # ---- global data ---------------------------------------------------------------

    def _const_or_symbol(self, expr, line):
        """Fold a global initializer item to an int or a symbol name."""
        value = self.parser._try_fold(expr)
        if value is not None:
            return value
        if isinstance(expr, A.Var) and (
            expr.name in self.global_types or expr.name in self.func_types
        ):
            return expr.name
        if isinstance(expr, A.AddrOf) and isinstance(expr.operand, A.Var) \
                and expr.operand.name in self.global_types:
            return expr.operand.name
        raise CompileError("global initializer must be constant", line,
                           self.source_name)

    def _emit_globals(self):
        for item in self.ast.items:
            if not isinstance(item, A.GlobalVar):
                continue
            bank = item.bank or 0
            self._data_lines.append("        .bank %d" % bank)
            self._data_lines.append("        .align 2")
            ctype = item.ctype
            label = item.name
            if item.init is None:
                self._data_lines.append("%s:        .space %d"
                                        % (label, max(ctype.size, 4)))
                continue
            if isinstance(ctype, T.ArrayType):
                self._emit_array_init(label, ctype, item.init, item.line)
            elif isinstance(ctype, T.StructType):
                self._emit_struct_init(label, ctype, item.init, item.line)
            else:
                value = self._const_or_symbol(
                    item.init if not isinstance(item.init, A.InitList)
                    else item.init.items[0], item.line)
                self._data_lines.append("%s:        .word %s" % (label, value))

    def _emit_array_init(self, label, ctype, init, line):
        count = ctype.count
        element = ctype.base
        if element.size not in (1, 4):
            raise CompileError("unsupported array element size", line,
                               self.source_name)
        values = [0] * count
        if not isinstance(init, A.InitList):
            raise CompileError("array initializer must be braced", line,
                               self.source_name)
        cursor = 0
        for item in init.items:
            if isinstance(item, A.RangeInit):
                value = self._const_or_symbol(item.value, line)
                lo, hi = item.lo, item.hi
                if not (0 <= lo <= hi < count):
                    raise CompileError("range initializer out of bounds", line,
                                       self.source_name)
                for position in range(lo, hi + 1):
                    values[position] = value
                cursor = hi + 1
            else:
                if cursor >= count:
                    raise CompileError("too many initializers", line,
                                       self.source_name)
                values[cursor] = self._const_or_symbol(item, line)
                cursor += 1
        directive = ".word" if element.size == 4 else ".byte"
        self._data_lines.append("%s:" % label)
        # compress long runs of equal constants into .space when zero
        index = 0
        while index < count:
            run = index
            while run < count and values[run] == 0 and not isinstance(values[run], str):
                run += 1
            if run - index >= 8:
                self._data_lines.append("        .space %d"
                                        % ((run - index) * element.size))
                index = run
                continue
            chunk = values[index : min(index + 8, count)]
            if 0 in chunk and run > index:
                chunk = values[index:run]
            self._data_lines.append(
                "        %s %s" % (directive, ", ".join(str(v) for v in chunk))
            )
            index += len(chunk)

    def _emit_struct_init(self, label, ctype, init, line):
        if not isinstance(init, A.InitList):
            raise CompileError("struct initializer must be braced", line,
                               self.source_name)
        self._data_lines.append("%s:" % label)
        position = 0
        for (fname, ftype, foffset), item in zip(ctype.fields, init.items):
            if foffset > position:
                self._data_lines.append("        .space %d" % (foffset - position))
                position = foffset
            value = self._const_or_symbol(item, line)
            self._data_lines.append("        .word %s" % value)
            position += 4
        if position < ctype.size:
            self._data_lines.append("        .space %d" % (ctype.size - position))


_BUILTIN_NAMES = frozenset([
    "omp_set_num_threads", "omp_get_num_threads", "omp_get_thread_num",
    "__bank_base", "__hart_id", "__p_swre", "__p_lwre", "__p_syncm", "exit",
])


def _generate(source, source_name, defines, reference=False):
    """Preprocess, parse and generate: the assembly text of *source*.
    Tests pass *reference* for the code generator's own text."""
    cpp = Preprocessor(source_name, predefined=defines)
    preprocessed = cpp.process(source)
    module_ast, parser = parse(preprocessed, source_name)
    codegen = ModuleCodegen(module_ast, parser, source_name,
                            cpp.det_omp_included, reference=reference)
    return codegen.run()


def compile_c(source, source_name="<c>", defines=None):
    """Compile DetC source to assembly text."""
    return _generate(source, source_name, defines)


def compile_to_program(source, source_name="<c>", defines=None):
    """Compile DetC source all the way to an assembled Program."""
    asm_text = compile_c(source, source_name, defines)
    return assemble(asm_text, source_name + ".s")


def build_program(source, filename):
    """*source* to a Program by what *filename* says it is: assembly
    (``.s``/``.S``) is assembled, anything else compiled as DetC."""
    if filename.endswith((".s", ".S")):
        return assemble(source, filename)
    return compile_to_program(source, filename)
