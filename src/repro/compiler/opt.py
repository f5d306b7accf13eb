"""Register-level optimiser for one DetC function body.

``FunctionCodegen.finish()`` hands :func:`optimize_body` the body lines it
generated (labels and ``        mnemonic operands`` lines, ABI register
names) before it wraps them in the prologue and epilogue.  One pipeline,
always on:

1. block-local constant and copy propagation: constants fold through
   ``isa/semantics.py`` (the machine's own arithmetic), immediate forms are
   selected, results go straight into a variable's s-register;
2. a control-flow graph with backward liveness removes dead arithmetic;
3. top-tested loops become guarded bottom-tested loops, jumps and branches
   to the next line disappear;
4. on natural loops, innermost first: an address that is affine in an
   induction variable becomes a pointer bump (its constant part folded
   into the ``lw``/``sw`` offset), then register-only invariants are hoisted.

**The barrier invariant.**  Only pure register arithmetic (the ``alu`` kind
below, written to ``t1``-``t5``, ``a0``-``a7``, ``s0``-``s11``), branches
and jumps are ever added, removed, duplicated or moved.  Loads and stores
keep their place and order; only their base register and offset change.
Every other line (a call, ``ecall``, any ``p_*``, a write to ``ra``/``sp``/
``t0``/``t6``) is an opaque barrier: its text is kept, it reads and writes
every register it names, and a call also clobbers ``t*``/``a*``.
:func:`optimize_body` compares the mnemonic sequence of loads, stores and
barriers on the way out and raises if it moved.  No memory operation is
optimised: DetC has no ``volatile``, and polling loops and DESIGN §5's
own-hart store→load order rely on every access staying put.

New registers come only from the temporaries and from s-registers the
function already saves; a transformation that finds none free is skipped.
Tables are ordered and register sets are bit masks, so the output does not
depend on ``PYTHONHASHSEED``.
"""

from repro.compiler.errors import CompileError
from repro.isa.semantics import ALU_OPS, BRANCH_OPS, MASK32, to_signed

TEMPS = ("t1", "t2", "t3", "t4", "t5",
         "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")
SREGS = tuple("s%d" % index for index in range(12))
_FIXED = ("zero", "ra", "sp", "gp", "tp", "t0", "t6")
BIT = {name: 1 << index for index, name in enumerate(_FIXED + TEMPS + SREGS)}
_TEMP_MASK = sum(BIT[reg] for reg in TEMPS)
_ARG_MASK = sum(BIT["a%d" % index] for index in range(8))
_TEMPS = frozenset(TEMPS)
_WRITABLE = frozenset(TEMPS + SREGS)
#: what a call may overwrite besides the registers it names
_CALL_CLOBBERS = TEMPS + ("ra", "t0", "t6")

_R_OPS = frozenset(["add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra",
                    "or", "and", "mul", "mulh", "mulhsu", "mulhu", "div",
                    "divu", "rem", "remu"])
_I_OPS = frozenset(["addi", "slti", "sltiu", "xori", "ori", "andi", "slli",
                    "srli", "srai"])
_IMM_FORM = {"add": "addi", "and": "andi", "or": "ori", "xor": "xori",
             "sll": "slli", "srl": "srli", "sra": "srai", "slt": "slti",
             "sltu": "sltiu"}
_SHIFTS = frozenset(["slli", "srli", "srai"])
_COMMUTES = frozenset(["add", "and", "or", "xor", "mul"])
_LOADS = frozenset(["lb", "lbu", "lh", "lhu", "lw"])
_STORES = frozenset(["sb", "sh", "sw"])
#: pseudo branch -> (real branch, operands swapped, compared with zero)
_BRANCH_PSEUDO = {
    "bgt": ("blt", True, False), "ble": ("bge", True, False),
    "bgtu": ("bltu", True, False), "bleu": ("bgeu", True, False),
    "beqz": ("beq", False, True), "bnez": ("bne", False, True),
    "bgez": ("bge", False, True), "bltz": ("blt", False, True),
    "blez": ("bge", True, True), "bgtz": ("blt", True, True),
}
_INVERSE = {"beq": "bne", "bne": "beq", "blt": "bge", "bge": "blt",
            "bltu": "bgeu", "bgeu": "bltu"}
#: one-source pseudos -> (real op, source is rs2 of a zero rs1, immediate)
_UNARY_PSEUDO = {"mv": ("addi", False, 0), "not": ("xori", False, -1),
                 "seqz": ("sltiu", False, 1), "neg": ("sub", True, None),
                 "snez": ("sltu", True, None)}
#: longest loop test duplicated at the bottom of a rotated loop
_ROTATE_LIMIT = 6
_ROUND_LIMIT = 24


def _fits(value):
    return -2048 <= value <= 2047


class Ins:
    """One line.  ``kind`` is ``label`` (``op`` is the name), ``alu``
    (``rd = a op b`` or ``rd = a op imm``; ``li``/``la`` have no sources),
    ``load`` (``rd = [a + imm]``), ``store`` (``[a + imm] = b``), ``br``
    (``if a op b goto imm``), ``j`` (``goto imm``) or ``bar`` (opaque:
    ``op`` is the whole text, ``a`` the registers it names, ``b`` whether
    it is a call, ``imm`` its mnemonic)."""

    __slots__ = ("kind", "op", "rd", "a", "b", "imm")

    def __init__(self, kind, op, rd=None, a=None, b=None, imm=None):
        self.kind = kind
        self.op = op
        self.rd = rd
        self.a = a
        self.b = b
        self.imm = imm

    def copy(self):
        return Ins(self.kind, self.op, self.rd, self.a, self.b, self.imm)

    def text(self):
        kind, op = self.kind, self.op
        if kind == "label":
            return op + ":"
        if kind == "bar":
            return "        " + op
        if kind == "alu":
            if op == "li":
                body = "li %s, %d" % (self.rd, to_signed(self.imm))
            elif op == "la":
                body = "la %s, %s" % (self.rd, self.imm)
            elif self.b is not None:
                body = "%s %s, %s, %s" % (op, self.rd, self.a, self.b)
            elif op == "addi" and self.imm == 0:
                body = "mv %s, %s" % (self.rd, self.a)
            else:
                body = "%s %s, %s, %d" % (op, self.rd, self.a, self.imm)
        elif kind == "load":
            body = "%s %s, %d(%s)" % (op, self.rd, self.imm, self.a)
        elif kind == "store":
            body = "%s %s, %d(%s)" % (op, self.b, self.imm, self.a)
        elif kind == "br":
            body = "%s %s, %s, %s" % (op, self.a, self.b, self.imm)
        else:
            body = "j %s" % self.imm
        return "        " + body

    def uses(self):
        """Bit mask of the registers read."""
        if self.kind == "bar":
            mask = _ARG_MASK if self.b else 0
            for reg in self.a:
                mask |= BIT[reg]
            return mask
        if self.kind == "label" or self.kind == "j":
            return 0
        return BIT.get(self.a, 0) | BIT.get(self.b, 0)

    def defs(self):
        """Registers written, clobbers included."""
        if self.kind == "alu" or self.kind == "load":
            return (self.rd,)
        if self.kind == "bar":
            return self.a + _CALL_CLOBBERS if self.b else self.a
        return ()


def parse(line):
    if not line.startswith(" "):
        return Ins("label", line.rstrip()[:-1])
    text = line.strip()
    op, _, rest = text.partition(" ")
    args = [arg.strip() for arg in rest.split(",")] if rest else []
    if op == "j":
        return Ins("j", op, imm=args[0])
    if op in BRANCH_OPS:
        return Ins("br", op, a=args[0], b=args[1], imm=args[2])
    if op in _BRANCH_PSEUDO:
        real, swapped, zero = _BRANCH_PSEUDO[op]
        a, b = (args[0], "zero") if zero else (args[0], args[1])
        if swapped:
            a, b = b, a
        return Ins("br", real, a=a, b=b, imm=args[-1])
    if op in _LOADS or op in _STORES:
        offset, _, base = args[1].partition("(")
        base = base.rstrip(")")
        if base in BIT and (op in _STORES or args[0] in _WRITABLE):
            if op in _LOADS:
                return Ins("load", op, rd=args[0], a=base, imm=int(offset, 0))
            return Ins("store", op, a=base, b=args[0], imm=int(offset, 0))
    elif args and args[0] in _WRITABLE:
        rd = args[0]
        if op == "li":
            return Ins("alu", op, rd=rd, imm=int(args[1], 0) & MASK32)
        if op == "la":
            return Ins("alu", op, rd=rd, imm=args[1])
        if op in _R_OPS:
            return Ins("alu", op, rd=rd, a=args[1], b=args[2])
        if op in _I_OPS:
            return Ins("alu", op, rd=rd, a=args[1], imm=int(args[2], 0))
        if op in _UNARY_PSEUDO:
            real, second, imm = _UNARY_PSEUDO[op]
            if second:
                return Ins("alu", real, rd=rd, a="zero", b=args[1])
            return Ins("alu", real, rd=rd, a=args[1], imm=imm)
    named = []
    for token in text.replace(",", " ").replace("(", " ").replace(")", " ") \
            .split()[1:]:
        if token in BIT and token not in named:
            named.append(token)
    return Ins("bar", text, a=tuple(named), b=op in ("jal", "jalr", "call"),
               imm=op)


def skeleton(code):
    """The mnemonics of everything that is not pure register arithmetic or
    control flow, in order — what the pass must leave exactly as it was."""
    return [ins.imm if ins.kind == "bar" else ins.op
            for ins in code if ins.kind in ("load", "store", "bar")]


# ---- 1. block-local constant and copy propagation ---------------------------------


def propagate(code):
    """Forward pass over extended basic blocks.  ``val[r]`` is what is
    known about register *r*: ``("c", n)`` or ``("r", base, off)`` (``r ==
    base + off`` while neither has been written since)."""
    out = []
    val = {}
    defidx = {}   # temp -> index in `out` of the alu/load that defined it
    lastref = {}  # register -> index in `out` of the last line naming it
    fence = -1    # retargeting never crosses a label, branch or barrier

    def known(reg):
        if reg == "zero":
            return ("c", 0)
        return val.get(reg) or ("r", reg, 0)

    def kill(reg):
        val.pop(reg, None)
        for other in [o for o, v in val.items() if v[0] == "r" and v[1] == reg]:
            del val[other]

    def plain(reg):
        """*reg*, or the register or zero it is known to be a copy of."""
        v = known(reg)
        if v[0] == "c":
            return "zero" if v[1] == 0 else reg
        return v[1] if v[2] == 0 else reg

    for ins in code:
        kind = ins.kind
        if kind == "label":
            val.clear()
            defidx.clear()
            fence = len(out)
        elif kind == "j":
            val.clear()
            fence = len(out)
        elif kind == "bar":
            for reg in ins.defs():
                kill(reg)
            defidx.clear()
            fence = len(out)
        elif kind == "br":
            a, b = known(ins.a), known(ins.b)
            ins.a, ins.b = plain(ins.a), plain(ins.b)
            taken = None
            if a[0] == "c" and b[0] == "c":
                taken = BRANCH_OPS[ins.op](a[1], b[1])
            elif ins.a == ins.b:
                taken = ins.op in ("beq", "bge", "bgeu")
            if taken is not None:
                if not taken:
                    continue
                ins = Ins("j", "j", imm=ins.imm)
                val.clear()
            fence = len(out)
        elif kind == "store":
            _fold_base(ins, known(ins.a))
            ins.b = plain(ins.b)
        elif kind == "load":
            _fold_base(ins, known(ins.a))
            kill(ins.rd)
            defidx[ins.rd] = len(out)
        else:
            value = _simplify(ins, known)
            rd = ins.rd
            if value is not None and value == val.get(rd):
                continue            # it already holds exactly that
            if value is not None and value[0] == "r" and value[2] == 0:
                source = value[1]
                if source == rd:
                    continue
                target = defidx.get(source)
                if target is not None and target > fence and source in _TEMPS \
                        and lastref.get(source) == target \
                        and lastref.get(rd, -1) <= target:
                    # `op T, ...; mv S, T`  ->  `op S, ...; mv T, S`
                    out[target].rd = rd
                    kill(rd)
                    defidx.pop(rd, None)
                    ins = Ins("alu", "addi", rd=source, a=rd, imm=0)
                    rd, value = source, ("r", rd, 0)
            kill(rd)
            if value is not None and not (value[0] == "r" and value[1] == rd):
                val[rd] = value
            defidx[rd] = len(out)
        for reg in ins.a if kind == "bar" else (ins.rd, ins.a, ins.b):
            if reg is not None:
                lastref[reg] = len(out)
        out.append(ins)
    return out


def _fold_base(ins, base):
    """Fold ``base = reg + off`` into a load or store's own offset."""
    if base[0] == "r" and _fits(base[2] + ins.imm):
        ins.a = base[1]
        ins.imm += base[2]


def _simplify(ins, known):
    """Rewrite one alu instruction in place given what is known about its
    sources; returns the value of its result, or None."""
    op = ins.op
    if op == "li":
        return ("c", ins.imm)
    if op == "la":
        return None
    a = known(ins.a)
    b = known(ins.b) if ins.b is not None else ("c", ins.imm & MASK32)
    if a[0] == "c" and b[0] == "c":
        value = ALU_OPS[op](a[1], b[1])
        ins.op, ins.a, ins.b, ins.imm = "li", None, None, value
        return ("c", value)
    if ins.b is not None:
        if a[0] == "c" and op in _COMMUTES:
            ins.a, ins.b = ins.b, ins.a
            a, b = b, a
        if b[0] == "c":
            _select_immediate(ins, b[1])
        elif op in ("sub", "xor") and a[0] == "r" and a == b:
            ins.op, ins.a, ins.b, ins.imm = "li", None, None, 0
            return ("c", 0)
    if ins.b is not None:
        if a[0] == "r" and a[2] == 0:
            ins.a = a[1]
        elif a == ("c", 0):
            ins.a = "zero"
        if b[0] == "r" and b[2] == 0:
            ins.b = b[1]
        return None
    # immediate form: a is a register (or zero), ins.imm the constant
    op, imm = ins.op, ins.imm
    if op == "li":
        return ("c", imm)
    if a[0] == "c":
        value = ALU_OPS[op](a[1], imm & MASK32)
        ins.op, ins.a, ins.imm = "li", None, value
        return ("c", value)
    if op == "addi":
        if _fits(a[2] + imm):
            ins.a, ins.imm = a[1], a[2] + imm
            return ("r", ins.a, ins.imm)
        return ("r", ins.a, imm)
    if a[2] == 0:
        ins.a = a[1]
    if imm == 0 and op in ("ori", "xori", "slli", "srli", "srai"):
        ins.op = "addi"
        return ("r", ins.a, 0)
    return None


def _select_immediate(ins, const):
    """``op rd, a, b`` with *b* known to hold *const*: the immediate form,
    or a cheaper instruction, when there is one."""
    op = ins.op
    signed = to_signed(const)
    if op == "sub" and _fits(-signed):
        op, signed = "add", -signed
    if op in _IMM_FORM:
        if _IMM_FORM[op] in _SHIFTS:
            signed = const & 31
        elif not _fits(signed):
            return
        ins.op, ins.b, ins.imm = _IMM_FORM[op], None, signed
    elif op == "mul" and const == 0:
        ins.op, ins.a, ins.b, ins.imm = "li", None, None, 0
    elif op == "mul" and const & (const - 1) == 0:
        ins.op, ins.b, ins.imm = "slli", None, const.bit_length() - 1


# ---- 2. control-flow graph, liveness, dead code -------------------------------------


class Flow:
    """Basic blocks of *code* with successor edges and liveness masks;
    *exit_live* is what is read after the body."""

    def __init__(self, code, exit_live):
        self.code = code
        starts = [0]
        for index, ins in enumerate(code):
            if ins.kind in ("br", "j"):
                index += 1
            elif ins.kind != "label":
                continue
            if starts[-1] != index < len(code):
                starts.append(index)
        self.starts = starts
        self.ends = starts[1:] + [len(code)]
        count = len(starts)
        block_of_label = {code[start].op: block
                          for block, start in enumerate(starts)
                          if code[start].kind == "label"}
        self.succs = []
        use, kill, leaves = [], [], []
        for block in range(count):
            last = code[self.ends[block] - 1]
            succs, leaving = [], 0
            if last.kind in ("br", "j"):
                if last.imm in block_of_label:
                    succs.append(block_of_label[last.imm])
                else:
                    leaving = exit_live
            if last.kind != "j":
                if block + 1 < count:
                    succs.append(block + 1)
                else:
                    leaving = exit_live
            self.succs.append(succs)
            leaves.append(leaving)
            used = killed = 0
            for index in range(self.ends[block] - 1, self.starts[block] - 1, -1):
                ins = code[index]
                if ins.kind == "alu" or ins.kind == "load":
                    used &= ~BIT[ins.rd]
                    killed |= BIT[ins.rd]
                elif ins.kind == "bar" and ins.b:
                    used &= ~_TEMP_MASK
                    killed |= _TEMP_MASK
                used |= ins.uses()
            use.append(used)
            kill.append(killed)
        self.live_in = live_in = [0] * count
        self.live_out = live_out = [0] * count
        changed = True
        while changed:
            changed = False
            for block in range(count - 1, -1, -1):
                out = leaves[block]
                for succ in self.succs[block]:
                    out |= live_in[succ]
                new = use[block] | (out & ~kill[block])
                if out != live_out[block] or new != live_in[block]:
                    live_out[block], live_in[block] = out, new
                    changed = True


def eliminate_dead(code, live_out):
    """Drop register arithmetic whose result nobody reads."""
    while code:
        flow = Flow(code, live_out)
        dead = set()
        for block in range(len(flow.starts)):
            live = flow.live_out[block]
            for index in range(flow.ends[block] - 1, flow.starts[block] - 1, -1):
                ins = code[index]
                if ins.kind == "alu":
                    bit = BIT[ins.rd]
                    if not live & bit:
                        dead.add(index)
                        continue
                    live &= ~bit
                elif ins.kind == "load":
                    live &= ~BIT[ins.rd]
                elif ins.kind == "bar" and ins.b:
                    live &= ~_TEMP_MASK
                live |= ins.uses()
        if not dead:
            break
        code = [ins for index, ins in enumerate(code) if index not in dead]
    return code


# ---- 3. branches ----------------------------------------------------------------------


def _next_real(code, index):
    while index < len(code) and code[index].kind == "label":
        index += 1
    return index


def clean_branches(code):
    """Rotate top-tested loops, drop jumps and branches to the next line
    and labels nobody targets."""
    code = _rotate(code)
    out = []
    for index, ins in enumerate(code):
        if ins.kind == "br" and index + 2 < len(code) \
                and code[index + 1].kind == "j":
            # `bcc L1; j L2; L1:`  ->  `b!cc L2; L1:`
            stop = _next_real(code, index + 2)
            if any(code[k].op == ins.imm for k in range(index + 2, stop)):
                ins.op, ins.imm = _INVERSE[ins.op], code[index + 1].imm
                code[index + 1] = Ins("j", "j", imm=code[index + 2].op)
        if ins.kind in ("br", "j"):
            stop = _next_real(code, index + 1)
            if any(code[k].op == ins.imm for k in range(index + 1, stop)):
                continue
        out.append(ins)
    targets = set(ins.imm for ins in out if ins.kind in ("br", "j"))
    return [ins for ins in out if ins.kind != "label" or ins.op in targets]


def _rotate(code):
    """``T: test; bcc E; body; j T; .. E:``  ->  ``T: test; bcc E; T_b: body;
    test; b!cc T_b; j E`` for a short pure test; the new jump goes forward."""
    code = list(code)
    index = 0
    while index < len(code):
        ins = code[index]
        index += 1
        if ins.kind != "j":
            continue
        header = 0
        while header < index and (code[header].kind != "label"
                                  or code[header].op != ins.imm):
            header += 1
        if header == index:
            continue
        first = branch = _next_real(code, header)
        while code[branch].kind == "alu":
            branch += 1
        test = code[branch]
        if test.kind != "br" or branch - first > _ROTATE_LIMIT or branch >= index \
                or not any(line.kind == "label" and line.op == test.imm
                           for line in code[index:]):
            continue                  # a top-tested loop leaves below its back edge
        bottom = [line.copy() for line in code[first:branch]]
        if code[branch + 1].kind != "label":
            code.insert(branch + 1, Ins("label", ins.imm + "_b"))
            index += 1
        bottom.append(Ins("br", _INVERSE[test.op], a=test.a, b=test.b,
                          imm=code[branch + 1].op))
        bottom.append(Ins("j", "j", imm=test.imm))
        code[index - 1:index] = bottom
    return code


# ---- 4. natural loops --------------------------------------------------------------------


def find_loops(flow):
    """Natural loops whose only entry from outside is the fall-through
    into the header, smallest first, as ``(header block, bit mask of the
    loop's blocks, header label)``."""
    count = len(flow.starts)
    preds = [[] for _ in range(count)]
    for block in range(count):
        for succ in flow.succs[block]:
            preds[succ].append(block)
    reached, stack = 1, [0]
    while stack:
        for succ in flow.succs[stack.pop()]:
            if not reached >> succ & 1:
                reached |= 1 << succ
                stack.append(succ)
    everything = (1 << count) - 1
    dom = [everything] * count
    dom[0] = 1
    changed = True
    while changed:
        changed = False
        for block in range(1, count):
            new = everything
            for pred in preds[block]:
                if reached >> pred & 1:
                    new &= dom[pred]
            new |= 1 << block
            if new != dom[block]:
                dom[block] = new
                changed = True
    bodies = {}
    for block in range(count):
        for succ in flow.succs[block]:
            if reached >> block & 1 and dom[block] >> succ & 1:
                body = bodies.get(succ, 1 << succ)
                stack = [block]
                while stack:
                    node = stack.pop()
                    if not body >> node & 1:
                        body |= 1 << node
                        stack.extend(preds[node])
                bodies[succ] = body
    loops = []
    for header in sorted(bodies):
        body = bodies[header]
        first = flow.code[flow.starts[header]]
        if first.kind != "label" or header == 0 or body >> (header - 1) & 1:
            continue
        outside = [pred for pred in preds[header] if not body >> pred & 1]
        before = flow.code[flow.starts[header] - 1]
        if outside != [header - 1] or before.kind == "j" or (
                before.kind == "br" and before.imm == first.op):
            continue
        loops.append((header, body, first.op))
    loops.sort(key=lambda loop: (bin(loop[1]).count("1"), loop[0]))
    return loops


class _LoopFacts:
    """Definition counts and free registers of one loop."""

    def __init__(self, flow, header, blocks, saved):
        code = flow.code
        self.indices = []
        for block in range(len(flow.starts)):
            if blocks >> block & 1:
                self.indices.extend(range(flow.starts[block], flow.ends[block]))
        self.defs = {}
        named = 0
        has_call = False
        for index in self.indices:
            ins = code[index]
            named |= ins.uses()
            for reg in ins.defs():
                self.defs[reg] = self.defs.get(reg, 0) + 1
                named |= BIT[reg]
            has_call = has_call or (ins.kind == "bar" and ins.b)
        self.head_live = flow.live_in[header]
        busy = named | self.head_live
        candidates = tuple(saved) if has_call else TEMPS + tuple(saved)
        self.free = [reg for reg in candidates if not busy & BIT[reg]]
        #: scratch registers for the preheader only
        self.scratch = [reg for reg in TEMPS
                        if not self.head_live & BIT[reg] and reg not in self.free]

    def invariant(self, reg):
        return reg not in self.defs


def reduce_strength(flow, header, blocks, saved):
    """Loads and stores whose address is ``invariants + m * iv + const``
    get a pointer register bumped next to the induction variable's own
    increment.  Returns the edits as ``(index, [instructions])`` pairs to
    insert *before* ``code[index]``."""
    code = flow.code
    facts = _LoopFacts(flow, header, blocks, saved)
    steps = {}   # iv -> (index of its increment, step)
    for index in facts.indices:
        ins = code[index]
        if ins.kind == "alu" and ins.op == "addi" and ins.a == ins.rd \
                and facts.defs[ins.rd] == 1 and ins.imm:
            steps[ins.rd] = (index, ins.imm)
    if not steps:
        return []
    pointers = {}    # (iv, scale, terms, base const) -> register, or None
    preheader = []
    bumps = {}       # index of an increment -> [bump instructions]
    for block in range(len(flow.starts)):
        if not blocks >> block & 1:
            continue
        forms = {}
        for index in range(flow.starts[block], flow.ends[block]):
            ins = code[index]
            if ins.kind in ("load", "store"):
                form = _form_of(forms, ins.a)
                key = _pointer_key(form, ins.imm, steps, facts)
                if key is not None and key not in pointers:
                    pointers[key] = _new_pointer(key, facts, preheader)
                    if pointers[key] is not None:
                        at, step = steps[key[0]]
                        bumps.setdefault(at + 1, []).append(Ins(
                            "alu", "addi", rd=pointers[key], a=pointers[key],
                            imm=to_signed(key[1] * step & MASK32)))
                if pointers.get(key) is not None:
                    ins.a = pointers[key]
                    ins.imm = to_signed(form[1] + ins.imm - key[3] & MASK32)
            _track_form(forms, ins, steps, index)
    if not preheader:
        return []
    return [(flow.starts[header], preheader)] + sorted(bumps.items())


def _form_of(forms, reg):
    """``({atom: coefficient}, constant)`` of *reg*; an atom is a register
    (its value on entry to the block, or now for an induction variable) or
    ``"&symbol"``."""
    if reg == "zero":
        return ({}, 0)
    return forms.get(reg) or ({reg: 1}, 0)


def _scaled(form, factor):
    return ({atom: coeff * factor & MASK32 for atom, coeff in form[0].items()
             if coeff * factor & MASK32}, form[1] * factor & MASK32)


def _added(x, y):
    terms = dict(x[0])
    for atom, coeff in y[0].items():
        total = terms.get(atom, 0) + coeff & MASK32
        if total:
            terms[atom] = total
        else:
            terms.pop(atom, None)
    return (terms, x[1] + y[1] & MASK32)


def _track_form(forms, ins, steps, index):
    kind = ins.kind
    if kind == "alu":
        op, rd = ins.op, ins.rd
        form = None
        if op == "li":
            form = ({}, ins.imm)
        elif op == "la":
            form = ({"&" + ins.imm: 1}, 0)
        elif op == "addi":
            if rd in steps and ins.a == rd:
                # the atom of an induction variable is its value *now*
                for reg, (terms, const) in list(forms.items()):
                    if rd in terms:
                        forms[reg] = (terms, const - terms[rd] * ins.imm & MASK32)
                return
            form = _added(_form_of(forms, ins.a), ({}, ins.imm & MASK32))
        elif op == "add":
            form = _added(_form_of(forms, ins.a), _form_of(forms, ins.b))
        elif op == "sub":
            form = _added(_form_of(forms, ins.a),
                          _scaled(_form_of(forms, ins.b), MASK32))
        elif op == "slli":
            form = _scaled(_form_of(forms, ins.a), 1 << (ins.imm & 31))
        elif op == "mul":
            a, b = _form_of(forms, ins.a), _form_of(forms, ins.b)
            if not a[0]:
                form = _scaled(b, a[1])
            elif not b[0]:
                form = _scaled(a, b[1])
        _define_form(forms, rd, form, index)
    elif kind == "load":
        _define_form(forms, ins.rd, None, index)
    elif kind == "bar":
        for reg in ins.defs():
            _define_form(forms, reg, None, index)


def _define_form(forms, rd, form, index):
    """*rd* now holds *form* (None: something opaque, an atom of its own).
    Forms that mention the old *rd* go stale."""
    for reg in [r for r, f in forms.items() if rd in f[0]]:
        forms[reg] = ({"?%s@%d" % (reg, index): 1}, 0)
    forms[rd] = form if form is not None and rd not in form[0] \
        else ({"?%s@%d" % (rd, index): 1}, 0)


def _pointer_key(form, offset, steps, facts):
    terms, const = form
    ivs = [atom for atom in terms if atom in steps]
    if len(ivs) != 1:
        return None
    iv = ivs[0]
    scale = terms[iv]
    rest = []
    for atom in sorted(terms):
        if atom == iv:
            continue
        if atom[0] == "?" or (atom[0] == "&" and terms[atom] != 1) \
                or (atom[0] != "&" and not facts.invariant(atom)):
            return None
        rest.append((atom, terms[atom]))
    if (not rest and scale == 1) or not _fits(to_signed(scale * steps[iv][1]
                                                        & MASK32)):
        return None
    total = to_signed(const + offset & MASK32)
    return (iv, scale, tuple(rest), 0 if _fits(total) else total & MASK32)


def _new_pointer(key, facts, preheader):
    """Allocate a pointer register and append the code computing its value
    on entry to *preheader*; None when no register is free."""
    iv, scale, rest, base = key
    terms = list(rest) + [(iv, scale)]
    needs_scratch = base != 0 or any(
        atom[0] == "&" or coeff != 1 for atom, coeff in terms[1:])
    if not facts.free or (needs_scratch and not facts.scratch
                          and len(facts.free) < 2):
        return None
    pointer = facts.free.pop(0)
    scratch = None
    if needs_scratch:
        scratch = facts.scratch[0] if facts.scratch else facts.free[0]
    for position, (atom, coeff) in enumerate(terms):
        into = pointer if position == 0 else scratch
        if atom[0] == "&":
            preheader.append(Ins("alu", "la", rd=into, imm=atom[1:]))
        elif coeff == 1:
            if position:
                into = atom
            else:
                preheader.append(Ins("alu", "addi", rd=into, a=atom, imm=0))
        elif coeff & (coeff - 1) == 0:
            preheader.append(Ins("alu", "slli", rd=into, a=atom,
                                 imm=coeff.bit_length() - 1))
        else:
            preheader.append(Ins("alu", "li", rd=into, imm=coeff))
            preheader.append(Ins("alu", "mul", rd=into, a=atom, b=into))
        if position:
            preheader.append(Ins("alu", "add", rd=pointer, a=pointer, b=into))
    if base:
        preheader.append(Ins("alu", "li", rd=scratch, imm=base))
        preheader.append(Ins("alu", "add", rd=pointer, a=pointer, b=scratch))
    return pointer


def hoist_invariants(flow, header, blocks, saved):
    """Move register arithmetic whose sources the loop never writes in
    front of it: in place when the destination has no other definition in
    the loop and is dead on entry, otherwise (temporaries only) into a free
    register, leaving a copy behind.  Returns the edits."""
    code = flow.code
    facts = _LoopFacts(flow, header, blocks, saved)
    preheader = []
    moved = set()      # registers whose only definition now sits in front
    shared = {}        # (op, a, b, imm) -> register holding it
    for block in range(len(flow.starts)):
        if not blocks >> block & 1:
            continue
        alias = {}     # temporary -> the hoisted register it copies
        for index in range(flow.starts[block], flow.ends[block]):
            ins = code[index]
            if ins.kind != "alu":
                for reg in ins.defs():
                    alias.pop(reg, None)
                continue
            rd = ins.rd
            a, b = alias.get(ins.a, ins.a), alias.get(ins.b, ins.b)
            alias.pop(rd, None)
            stable = all(reg is None or reg == "zero" or reg in moved
                         or facts.invariant(reg) for reg in (a, b))
            if not stable or (ins.op == "addi" and ins.imm == 0) \
                    or (ins.op == "li" and rd not in _TEMPS):
                continue
            key = (ins.op, a, b, ins.imm)
            if facts.defs[rd] == 1 and not facts.head_live & BIT[rd] \
                    and key not in shared:
                preheader.append(Ins("alu", ins.op, rd=rd, a=a, b=b, imm=ins.imm))
                ins.op, ins.a, ins.b, ins.imm = "addi", rd, None, 0
                moved.add(rd)
                shared[key] = rd
            elif rd in _TEMPS:
                if key not in shared:
                    if not facts.free:
                        continue
                    shared[key] = facts.free.pop(0)
                    preheader.append(Ins("alu", ins.op, rd=shared[key], a=a,
                                         b=b, imm=ins.imm))
                    moved.add(shared[key])
                ins.op, ins.a, ins.b, ins.imm = "addi", shared[key], None, 0
                alias[rd] = shared[key]
    return [(flow.starts[header], preheader)] if preheader else []


# ---- the pipeline --------------------------------------------------------------------------


def _cleanup(code, live_out):
    for _ in range(_ROUND_LIMIT):
        before = len(code)
        code = clean_branches(eliminate_dead(propagate(code), live_out))
        if len(code) == before:
            break
    return code


def optimize_body(lines, saved, live_out=()):
    """Optimised copy of one function's body *lines*.  *saved* are the
    s-registers its prologue saves, *live_out* the registers its caller
    reads (``a0`` of a function that returns a value)."""
    code = [parse(line) for line in lines]
    before = skeleton(code)
    exit_live = sum(BIT[reg] for reg in live_out)
    for reg in _FIXED:
        exit_live |= BIT[reg]
    code = _cleanup(code, exit_live)
    done = set()
    for _ in range(_ROUND_LIMIT if code else 0):
        flow = Flow(code, exit_live)
        picked = 0
        edits = []
        for header, blocks, label in find_loops(flow):
            if blocks & picked:
                continue
            for transform in (reduce_strength, hoist_invariants):
                if (label, transform) not in done:
                    break
            else:
                continue
            done.add((label, transform))
            picked |= blocks
            edits.extend(transform(flow, header, blocks, saved))
        if not picked:
            break
        for index, extra in sorted(edits, key=lambda edit: edit[0], reverse=True):
            code[index:index] = extra
        code = _cleanup(code, exit_live)
    if skeleton(code) != before:
        raise CompileError("internal: the optimiser moved a memory operation "
                           "or a barrier", None, "<opt>")
    return [ins.text() for ins in code]
