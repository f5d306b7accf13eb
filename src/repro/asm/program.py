"""Assembled program image: code and data segments plus symbols.

A :class:`Program` is what the assembler produces and what both simulators
load.  Code is kept twice: as raw bytes (so encode/decode round-trips are
honest) and as pre-decoded :class:`~repro.isa.instruction.Instruction`
objects keyed by address (so simulators never re-decode in their hot
loops).
"""

from repro import memmap


class Segment:
    """A contiguous run of initialised memory.

    Attributes:
        kind: ``"code"`` or ``"data"``.
        bank: shared-bank number for data segments (None for code).
        base: start byte address.
        data: bytearray contents.
    """

    __slots__ = ("kind", "bank", "base", "data")

    def __init__(self, kind, bank, base, data):
        self.kind = kind
        self.bank = bank
        self.base = base
        self.data = data

    @property
    def end(self):
        return self.base + len(self.data)

    def __repr__(self):
        return "Segment(%s, bank=%r, base=0x%x, len=%d)" % (
            self.kind,
            self.bank,
            self.base,
            len(self.data),
        )


class Program:
    """An assembled, fully resolved program image."""

    def __init__(self):
        self.segments = []
        self.symbols = {}
        #: decoded instructions keyed by byte address
        self.instructions = {}
        self.source_name = None

    @property
    def entry(self):
        """Program entry address: ``_start`` if defined, else ``main``."""
        for name in ("_start", "main"):
            if name in self.symbols:
                return self.symbols[name]
        raise KeyError("program defines neither _start nor main")

    def symbol(self, name):
        """Address of *name*; raises KeyError with context if missing."""
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(
                "undefined symbol %r in %s" % (name, self.source_name or "program")
            ) from None

    def code_segments(self):
        return [seg for seg in self.segments if seg.kind == "code"]

    def data_segments(self):
        return [seg for seg in self.segments if seg.kind == "data"]

    def code_size(self):
        return sum(len(seg.data) for seg in self.code_segments())

    def read_word_initial(self, addr):
        """Read a 32-bit little-endian word from the initial image.

        Returns None when the address is not covered by any segment.
        """
        for seg in self.segments:
            if seg.base <= addr and addr + 4 <= seg.end:
                off = addr - seg.base
                return int.from_bytes(seg.data[off : off + 4], "little")
        return None

    def data_bank_image(self, bank):
        """All (offset, bytes) pieces destined for shared bank *bank*."""
        pieces = []
        base = memmap.global_bank_base(bank)
        for seg in self.data_segments():
            if seg.bank == bank:
                pieces.append((seg.base - base, bytes(seg.data)))
        return pieces

    def disassembly(self):
        """Human-readable listing of the code (for debugging and docs)."""
        from repro.isa.disasm import disassemble

        addr_to_label = {}
        for name, addr in self.symbols.items():
            addr_to_label.setdefault(addr, []).append(name)
        lines = []
        for addr in sorted(self.instructions):
            for label in sorted(addr_to_label.get(addr, ())):
                lines.append("%s:" % label)
            lines.append("  %08x: %s" % (addr, disassemble(self.instructions[addr])))
        return "\n".join(lines)
