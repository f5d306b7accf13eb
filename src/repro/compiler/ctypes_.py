"""DetC's type system.

Small on purpose: 32-bit ints (signed/unsigned), 8-bit chars, pointers,
one-dimensional arrays, structs, function types and void.  All sizes in
bytes; the target is ILP32.
"""


class Type:
    """Base class; concrete types below."""

    size = 0
    align = 1

    def is_integer(self):
        return False

    def is_pointer(self):
        return False

    def is_scalar(self):
        return self.is_integer() or self.is_pointer()


class VoidType(Type):
    def __repr__(self):
        return "void"


class IntType(Type):
    """int/unsigned/char — all register-sized at computation time."""

    def __init__(self, size=4, signed=True, name=None):
        self.size = size
        self.align = size
        self.signed = signed
        self.name = name or ("int" if signed else "unsigned")

    def is_integer(self):
        return True

    def __repr__(self):
        return self.name


class PtrType(Type):
    size = 4
    align = 4

    def __init__(self, base):
        self.base = base

    def is_pointer(self):
        return True

    def __repr__(self):
        return "%r*" % (self.base,)


class ArrayType(Type):
    def __init__(self, base, count):
        self.base = base
        self.count = count
        self.size = base.size * count
        self.align = base.align

    def __repr__(self):
        return "%r[%d]" % (self.base, self.count)


class StructType(Type):
    def __init__(self, tag):
        self.tag = tag
        self.fields = []        # [(name, type, offset)]
        self.size = 0
        self.align = 1
        self.complete = False

    def define(self, members):
        """Lay out members (C-style: natural alignment, in order)."""
        offset = 0
        align = 1
        fields = []
        for name, ftype in members:
            offset = (offset + ftype.align - 1) // ftype.align * ftype.align
            fields.append((name, ftype, offset))
            offset += ftype.size
            align = max(align, ftype.align)
        self.fields = fields
        self.align = align
        self.size = (offset + align - 1) // align * align
        self.complete = True

    def field(self, name):
        for fname, ftype, offset in self.fields:
            if fname == name:
                return ftype, offset
        return None

    def __repr__(self):
        return "struct %s" % (self.tag,)


class FuncType(Type):
    size = 4  # as a value: the code address

    def __init__(self, ret, params, variadic=False):
        self.ret = ret
        self.params = params    # [(name, type)]
        self.variadic = variadic

    def __repr__(self):
        return "%r(%s)" % (self.ret, ", ".join(repr(t) for _, t in self.params))


INT = IntType(4, True, "int")
UINT = IntType(4, False, "unsigned")
CHAR = IntType(1, True, "char")
UCHAR = IntType(1, False, "unsigned char")
VOID = VoidType()


def decay(type_):
    """Array-to-pointer and function-to-pointer decay in value contexts."""
    if isinstance(type_, ArrayType):
        return PtrType(type_.base)
    if isinstance(type_, FuncType):
        return PtrType(type_)
    return type_


def is_unsigned_op(lhs, rhs):
    """C usual-arithmetic-conversion verdict for a binary int op."""
    unsigned_l = isinstance(lhs, IntType) and not lhs.signed
    unsigned_r = isinstance(rhs, IntType) and not rhs.signed
    return unsigned_l or unsigned_r
