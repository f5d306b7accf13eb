"""Machine-readable race reports with source-level localization.

A :class:`Race` names the two unordered conflicting accesses: the
disassembled instruction at each pc (isa/disasm), the accessing hart, the
cycle of the access, and the nearest enclosing symbol — which for code
generated by the Deterministic OpenMP frontend is the ``__omp_body_N`` /
``__omp_worker_N`` region label, so the report points at the OpenMP
construct the access belongs to.
"""

import bisect
import json
import re

from repro import memmap
from repro.isa.disasm import disassemble

#: detomp region labels (compiler/frontend.py new_region)
_OMP_REGION = re.compile(r"^__omp_(body|worker|cap|red)_(\d+)$")


class _Locator:
    """pc -> "symbol+0xoff" and the nearest enclosing OpenMP region."""

    def __init__(self, program):
        by_addr = {}
        for name, addr in program.symbols.items():
            if not memmap.is_code(addr):
                continue
            # prefer function/region labels over compiler-internal ".L"
            # branch targets when both name the same address
            best = by_addr.get(addr)
            if best is None or (best.startswith(".L") and not name.startswith(".L")):
                by_addr[addr] = name
        self._addrs = sorted(by_addr)
        self._names = [by_addr[a] for a in self._addrs]
        self._instructions = program.instructions

    def disasm(self, pc):
        ins = self._instructions.get(pc)
        return disassemble(ins) if ins is not None else "?"

    def symbol(self, pc):
        i = bisect.bisect_right(self._addrs, pc) - 1
        if i < 0:
            return "0x%x" % pc
        off = pc - self._addrs[i]
        name = self._names[i]
        return name if off == 0 else "%s+0x%x" % (name, off)

    def region(self, pc):
        """The nearest preceding non-internal label; OpenMP regions named."""
        i = bisect.bisect_right(self._addrs, pc) - 1
        while i >= 0 and self._names[i].startswith(".L"):
            i -= 1
        if i < 0:
            return "?"
        name = self._names[i]
        match = _OMP_REGION.match(name)
        if match:
            return "omp region %s (%s)" % (match.group(2), name)
        return name


class Race:
    """One unordered conflicting access pair (deduplicated by pc pair)."""

    __slots__ = ("addr", "count", "a", "b")

    def __init__(self, addr, a, b):
        #: base address of the first dynamic occurrence
        self.addr = addr
        #: dynamic occurrences of this static pair
        self.count = 1
        #: endpoints, chronological: dicts with gid/pc/cycle/write (+
        #: disasm/symbol/region once resolved)
        self.a = a
        self.b = b

    @property
    def kind(self):
        names = {True: "write", False: "read"}
        return "%s-%s" % (names[self.a["write"]], names[self.b["write"]])

    def to_dict(self):
        return {"addr": self.addr, "kind": self.kind, "count": self.count,
                "a": dict(self.a), "b": dict(self.b)}

    def format(self, params):
        hpc = params.harts_per_core
        lines = ["%s race on 0x%x  (x%d)" % (self.kind, self.addr, self.count)]
        for label, end in (("first ", self.a), ("second", self.b)):
            lines.append(
                "  %s: hart %d (core %d) cycle %-8d pc 0x%-5x %-24s in %s"
                % (label, end["gid"], end["gid"] // hpc, end["cycle"],
                   end["pc"], "`%s`" % end["disasm"], end["region"]))
        return "\n".join(lines)


class RaceReport:
    """The analysis result: races plus coverage counters.

    Deterministic: races are sorted by (cycle, gid, pc) of their first
    occurrence and every field is derived from the merged observation
    stream, so shards=1 and shards=N produce byte-identical
    :meth:`to_json` output.
    """

    def __init__(self, races, params, accesses=0, observations=0,
                 blocked=0, sync_ranges=()):
        self.races = races
        self.params = params
        #: shared-bank accesses checked
        self.accesses = accesses
        #: total observation records replayed
        self.observations = observations
        #: receive edges that never became ready in referential order
        #: (a program that consumes a message *before* sending the
        #: request in program order; 0 for well-formed programs)
        self.blocked = blocked
        self.sync_ranges = [list(r) for r in sync_ranges]

    def __bool__(self):
        return bool(self.races)

    def __len__(self):
        return len(self.races)

    @property
    def clean(self):
        return not self.races

    def to_dict(self):
        return {
            "clean": self.clean,
            "races": [race.to_dict() for race in self.races],
            "accesses": self.accesses,
            "observations": self.observations,
            "blocked": self.blocked,
            "sync_ranges": self.sync_ranges,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format(self, stopped_at=None):
        """The report as text; *stopped_at* (the cycle a run that did
        not finish ended at) qualifies the verdict line."""
        if not self.races:
            lines = ["no races: %d shared accesses, %d observations, "
                     "all conflicting pairs ordered"
                     % (self.accesses, self.observations)]
        else:
            lines = ["%d race(s) in %d shared accesses:"
                     % (len(self.races), self.accesses)]
            for race in self.races:
                lines.append(race.format(self.params))
        if stopped_at is not None:
            lines[0] += (" (covers only the %d cycles simulated: the run "
                         "did not finish)" % stopped_at)
        if self.blocked:
            lines.append("warning: %d receive(s) blocked in referential "
                         "order (message consumed before the program-order "
                         "send)" % self.blocked)
        return "\n".join(lines)
