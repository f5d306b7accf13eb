"""The two-pass assembler.

Pass 1 parses every line, expands pseudo-instructions, assigns addresses
(all real instructions are 4 bytes, so sizes are known immediately) and
binds labels.  Pass 2 evaluates operand expressions against the completed
symbol table, builds decoded :class:`Instruction` objects, encodes them to
binary and materialises data segments.
"""

from repro import memmap
from repro.asm.errors import AsmError
from repro.asm.expr import BINARY, eval_expr, hi20, lo12, try_fold
from repro.asm.lexer import tokenize_line
from repro.asm.program import Program, Segment
from repro.isa.encoding import encode_instruction, sign_extend
from repro.isa.instruction import Instruction
from repro.isa.registers import is_register_name, reg_num
from repro.isa.spec import FORMS, INSTR_SPECS

RA = reg_num("ra")


class _Operands:
    """Cursor over one line's operand tokens: registers, memory operands
    and expressions."""

    def __init__(self, tokens, pos=0, line=None, source_name=None):
        self.tokens = tokens
        self.pos = pos
        self.line = line
        self.source_name = source_name

    def error(self, message):
        raise AsmError(message, self.line, self.source_name)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at_end(self):
        return self.pos >= len(self.tokens)

    def end(self):
        if not self.at_end():
            self.error("trailing tokens after instruction")

    def punct(self, value, where=""):
        tok = self.peek()
        if tok is None or tok.kind != "PUNCT" or tok.value != value:
            self.error("expected %r%s" % (value, where))
        self.pos += 1

    def reg(self):
        tok = self.peek()
        if tok is None or tok.kind != "IDENT" or not is_register_name(tok.value):
            self.error("expected register, got %r" % (tok.value if tok else "end"))
        self.pos += 1
        return reg_num(tok.value)

    def looks_like_reg(self):
        tok = self.peek()
        return tok is not None and tok.kind == "IDENT" and is_register_name(tok.value)

    def expr(self, floor=1):
        """One expression whose binary operators all bind at least as
        tightly as *floor* (precedence climbing over ``expr.BINARY``: a
        right operand binds tighter than its operator, so equal powers
        associate to the left)."""
        node = self.unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "PUNCT" or tok.value not in BINARY:
                return node
            power = BINARY[tok.value][0]
            if power < floor:
                return node
            self.pos += 1
            node = ("bin", tok.value, node, self.expr(power + 1))

    def unary(self):
        tok = self.peek()
        if tok is None:
            self.error("expected expression")
        self.pos += 1
        if tok.kind == "NUM":
            return ("num", tok.value)
        if tok.kind == "IDENT":
            if tok.value not in ("%hi", "%lo"):
                return ("sym", tok.value)
            self.punct("(")
            inner = self.expr()
            self.punct(")")
            return (tok.value[1:], inner)
        if tok.kind == "PUNCT":
            if tok.value == "-":
                return ("neg", self.unary())
            if tok.value == "~":
                return ("inv", self.unary())
            if tok.value == "+":
                return self.unary()
            if tok.value == "(":
                inner = self.expr()
                self.punct(")")
                return inner
        self.error("unexpected token %r in expression" % (tok.value,))

    def mem(self):
        """Parse ``imm(reg)`` (imm optional) → (expr, reg)."""
        offset = ("num", 0)
        tok = self.peek()
        if not (tok is not None and tok.kind == "PUNCT" and tok.value == "("
                and self._paren_is_base()):
            offset = self.expr()
        self.punct("(", " of memory operand")
        base = self.reg()
        self.punct(")", " of memory operand")
        return offset, base

    def _paren_is_base(self):
        """True when the '(' at the cursor opens a base-register group."""
        if self.pos + 2 < len(self.tokens):
            reg_tok = self.tokens[self.pos + 1]
            close = self.tokens[self.pos + 2]
            return (
                reg_tok.kind == "IDENT"
                and is_register_name(reg_tok.value)
                and close.kind == "PUNCT"
                and close.value == ")"
            )
        return False


class _Instr:
    """A pending instruction: fields plus an unresolved operand expression
    (*imm* when none is given)."""

    __slots__ = ("mnemonic", "rd", "rs1", "rs2", "expr", "addr", "line")

    def __init__(self, mnemonic, rd=0, rs1=0, rs2=0, imm=0, expr=None):
        self.mnemonic = mnemonic
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.expr = ("num", imm) if expr is None else expr
        self.addr = None
        self.line = None


def _walk(ops, shape, ins):
    """Read one operand per field of *shape* (``spec.FIELDS``), comma
    separated, into *ins*; nothing may follow."""
    for index, field in enumerate(shape):
        if index:
            ops.punct(",")
        if field == "imm(rs1)":
            ins.expr, ins.rs1 = ops.mem()
        elif field in ("imm", "label"):
            ins.expr = ops.expr()
        else:
            setattr(ins, field, ops.reg())
    ops.end()
    return ins


def _hi_lo(ins):
    """``lui`` + ``addi`` of the %hi / %lo halves of *ins*'s expression."""
    return [_Instr("lui", rd=ins.rd, expr=("hi", ins.expr)),
            _Instr("addi", rd=ins.rd, rs1=ins.rd, expr=("lo", ins.expr))]


def _expand_li(ops):
    """``li rd, value``: the shortest sequence when the value folds to a
    constant, else ``la``'s pair."""
    ins = _walk(ops, ("rd", "imm"), _Instr("addi"))
    value = try_fold(ins.expr)
    if value is None:
        return _hi_lo(ins)
    value = sign_extend(value & 0xFFFFFFFF, 32)
    if -2048 <= value <= 2047:
        return [_Instr("addi", rd=ins.rd, imm=value)]
    out = [_Instr("lui", rd=ins.rd, imm=hi20(value))]
    if lo12(value):
        out.append(_Instr("addi", rd=ins.rd, rs1=ins.rd, imm=lo12(value)))
    return out


def _expand_la(ops):
    return _hi_lo(_walk(ops, ("rd", "imm"), _Instr("addi")))


def _expand_jal(ops):
    """``jal label`` links ``ra``; ``jal rd, label`` links *rd*."""
    rd = RA
    if ops.looks_like_reg():
        rd = ops.reg()
        if ops.at_end():
            ops.error("jal needs a target label")
        ops.punct(",")
    return [_walk(ops, ("label",), _Instr("jal", rd=rd))]


def _expand_jalr(ops):
    """``jalr rs`` links ``ra``; ``jalr rd, rs1, imm`` and
    ``jalr rd, imm(rs1)`` are the real instruction."""
    rd = ops.reg()
    if ops.at_end():
        return [_Instr("jalr", rd=RA, rs1=rd)]
    ops.punct(",")
    shape = ("rs1", "imm") if ops.looks_like_reg() else ("imm(rs1)",)
    return [_walk(ops, shape, _Instr("jalr", rd=rd))]


#: the mnemonics that are not one ``spec.FORMS`` row
_EXPANDERS = {
    "li": _expand_li,
    "la": _expand_la,
    "jal": _expand_jal,
    "jalr": _expand_jalr,
}


class Assembler:
    """Assembles one translation unit into a :class:`Program`."""

    def __init__(self, source_name="<asm>", default_bank=0):
        self.source_name = source_name
        self.symbols = {}
        self.equs = []  # deferred (name, expr, line)
        self.instr_items = []
        self.data_items = []  # (bank, addr, kind, payload, line)
        self.code_cursor = memmap.CODE_BASE
        self.data_cursors = {}
        self.section = "text"
        self.bank = default_bank
        self.line = 0

    # ---- pass 1 -----------------------------------------------------------

    def _error(self, message):
        raise AsmError(message, self.line, self.source_name)

    def _data_cursor(self):
        if self.bank not in self.data_cursors:
            self.data_cursors[self.bank] = memmap.global_bank_base(self.bank)
        return self.data_cursors[self.bank]

    def _advance_data(self, nbytes):
        self.data_cursors[self.bank] = self._data_cursor() + nbytes

    def _bind_label(self, name):
        if name in self.symbols:
            self._error("duplicate label %r" % name)
        if self.section == "text":
            self.symbols[name] = self.code_cursor
        else:
            self.symbols[name] = self._data_cursor()

    def _emit_instrs(self, pending):
        if self.section != "text":
            self._error("instruction outside .text")
        for item in pending:
            item.addr = self.code_cursor
            item.line = self.line
            self.instr_items.append(item)
            self.code_cursor += 4

    def _emit_data(self, kind, payload, size):
        if self.section == "text":
            self._error("data directive inside .text")
        addr = self._data_cursor()
        self.data_items.append((self.bank, addr, kind, payload, self.line))
        self._advance_data(size)

    def _directive(self, name, ops):
        if name == ".text":
            ops.end()
            self.section = "text"
        elif name in (".data", ".bss", ".rodata"):
            ops.end()
            self.section = "data"
        elif name == ".bank":
            expr = ops.expr()
            ops.end()
            bank = try_fold(expr)
            if bank is None or bank < 0:
                self._error(".bank needs a constant bank number")
            self.section = "data"
            self.bank = bank
        elif name == ".word":
            self._data_list(ops, 4)
        elif name == ".half":
            self._data_list(ops, 2)
        elif name == ".byte":
            self._data_list(ops, 1)
        elif name == ".space":
            expr = ops.expr()
            fill = 0
            if not ops.at_end():
                ops.punct(",")
                fill_expr = ops.expr()
                fill = try_fold(fill_expr)
                if fill is None:
                    self._error(".space fill must be constant")
            ops.end()
            size = try_fold(expr)
            if size is None or size < 0:
                self._error(".space needs a constant size")
            self._emit_data("fill", (size, fill & 0xFF), size)
        elif name == ".align":
            expr = ops.expr()
            ops.end()
            power = try_fold(expr)
            if power is None or not 0 <= power <= 20:
                self._error(".align needs a small constant")
            alignment = 1 << power
            if self.section == "text":
                while self.code_cursor % alignment:
                    self._emit_instrs([_Instr("addi")])
            else:
                cursor = self._data_cursor()
                pad = -cursor % alignment
                if pad:
                    self._emit_data("fill", (pad, 0), pad)
        elif name in (".ascii", ".asciz"):
            tok = ops.peek()
            if tok is None or tok.kind != "STR":
                self._error("%s needs a string" % name)
            ops.pos += 1
            ops.end()
            raw = tok.value.encode("latin-1")
            if name == ".asciz":
                raw += b"\0"
            self._emit_data("bytes", raw, len(raw))
        elif name in (".equ", ".set"):
            tok = ops.peek()
            if tok is None or tok.kind != "IDENT":
                self._error("%s needs a symbol name" % name)
            ops.pos += 1
            ops.punct(",")
            expr = ops.expr()
            ops.end()
            self.equs.append((tok.value, expr, self.line))
        elif name in (".globl", ".global", ".type", ".size", ".section",
                      ".option", ".file", ".p2align", ".comm", ".ident"):
            ops.pos = len(ops.tokens)  # accepted and ignored
        else:
            self._error("unknown directive %r" % name)

    def _data_list(self, ops, size):
        exprs = [ops.expr()]
        while not ops.at_end():
            ops.punct(",")
            exprs.append(ops.expr())
        self._emit_data("words", (size, exprs), size * len(exprs))

    def feed_line(self, text):
        self.line += 1
        tokens = tokenize_line(text, self.line, self.source_name)
        pos = 0
        # labels: IDENT ':' (may repeat)
        while (
            pos + 1 < len(tokens)
            and tokens[pos].kind == "IDENT"
            and tokens[pos + 1].kind == "PUNCT"
            and tokens[pos + 1].value == ":"
        ):
            self._bind_label(tokens[pos].value)
            pos += 2
        if pos >= len(tokens):
            return
        head = tokens[pos]
        if head.kind != "IDENT":
            self._error("expected mnemonic or directive")
        ops = _Operands(tokens, pos + 1, self.line, self.source_name)
        name = head.value
        if name.startswith("."):
            self._directive(name, ops)
            return
        mnemonic = name.lower()
        if mnemonic in _EXPANDERS:
            self._emit_instrs(_EXPANDERS[mnemonic](ops))
            return
        form = FORMS.get(mnemonic)
        if form is None:
            self._error("unknown mnemonic %r" % name)
        shape, real, fixed = form
        self._emit_instrs([_walk(ops, shape, _Instr(real, **fixed))])

    # ---- pass 2 -----------------------------------------------------------

    def _resolve_equs(self):
        pending = list(self.equs)
        progress = True
        while pending and progress:
            progress = False
            remaining = []
            for name, expr, line in pending:
                try:
                    value = eval_expr(expr, self.symbols, line, self.source_name)
                except AsmError:
                    remaining.append((name, expr, line))
                    continue
                if name in self.symbols:
                    raise AsmError("duplicate symbol %r" % name, line, self.source_name)
                self.symbols[name] = value
                progress = True
            pending = remaining
        if pending:
            name, _, line = pending[0]
            raise AsmError("unresolvable .equ %r" % name, line, self.source_name)

    def finish(self):
        self._resolve_equs()
        program = Program()
        program.source_name = self.source_name
        program.symbols = dict(self.symbols)

        code = bytearray()
        for item in self.instr_items:
            value = eval_expr(item.expr, self.symbols, item.line, self.source_name)
            spec = INSTR_SPECS[item.mnemonic]
            imm = value - item.addr if "label" in spec.shape else value
            ins = Instruction(
                item.mnemonic, rd=item.rd, rs1=item.rs1, rs2=item.rs2,
                imm=imm, spec=spec, addr=item.addr,
            )
            try:
                word = encode_instruction(ins)
            except ValueError as exc:
                raise AsmError(str(exc), item.line, self.source_name) from None
            code += word.to_bytes(4, "little")
            program.instructions[item.addr] = ins
        if code:
            program.segments.append(Segment("code", None, memmap.CODE_BASE, code))

        banks = {}
        for bank, addr, kind, payload, line in self.data_items:
            base = memmap.global_bank_base(bank)
            buf = banks.setdefault(bank, bytearray())
            offset = addr - base
            if len(buf) < offset:
                buf.extend(b"\0" * (offset - len(buf)))
            if kind == "fill":
                size, fill = payload
                buf.extend(bytes([fill]) * size)
            elif kind == "bytes":
                buf.extend(payload)
            elif kind == "words":
                size, exprs = payload
                for expr in exprs:
                    value = eval_expr(expr, self.symbols, line, self.source_name)
                    buf.extend((value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))
            else:
                raise AssertionError(kind)
        for bank in sorted(banks):
            program.segments.append(
                Segment("data", bank, memmap.global_bank_base(bank), banks[bank])
            )
        return program


def assemble(source, source_name="<asm>", default_bank=0):
    """Assemble *source* text into a :class:`Program`."""
    assembler = Assembler(source_name, default_bank)
    for raw_line in source.splitlines():
        assembler.feed_line(raw_line)
    return assembler.finish()
