"""Cycle event trace.

When enabled, the machine records one tuple per architectural event:
``(cycle, core, hart, kind, args)``, *args* its data, which :data:`KINDS`
words.  The determinism experiments (paper claim: "at cycle 467171, core
55, hart 2 sends a memory request to load address 106688 from memory
bank 13") simply compare whole traces of repeated runs for equality.

Events are buffered per *recording domain* (the core whose event loop
produced the line — usually, but not always, the ``core`` field of the
tuple) and merged on demand, ordered by ``(cycle, domain, buffer order)``.
A domain records its own cycles monotonically, so every buffer is already
cycle-sorted and the merge is a stable k-way merge.  The space-sharded
engine (``repro.parsim``) relies on this: each worker fills only the
buffers of the domains it owns, the parent concatenates them, and the
merged event list — hence the golden digest — is byte-identical to a
single-process run.
"""

import heapq

#: the trace kinds, each with the format its args are worded by (the only one)
KINDS = {
    "mem_load_req": "addr 0x%x bank %s",     # (addr, bank)
    "mem_store_req": "addr 0x%x bank %s",    # (addr, bank)
    "mem_load": "addr 0x%x -> 0x%x",         # (addr, value)
    "mem_store": "addr 0x%x <- 0x%x",        # (addr, value)
    "cv_write": "hart %d off %d <- 0x%x",    # (target hart, offset, value)
    "re_send": "hart %d buf %d <- 0x%x",     # (target hart, slot, value)
    "fork": "allocate hart %d",              # (allocated hart,)
    "start": "pc 0x%x",                      # (pc,)
    "ending_signal": "to hart %d",           # (successor hart,)
    "join": "resume 0x%x",                   # (resume address,)
    "p_ret": "%s",                           # "exit", "wait", "end", "join"
}


def bank_code(bank_ref):
    """A ``("local" | "shared" | "code", core)`` bank reference as an int:
    the core's index doubled, plus 1 for its shared bank, or -1 for code."""
    kind, index = bank_ref
    return -1 if kind == "code" else 2 * index + (kind == "shared")


def render(kind, args):
    """The words a trace line gives an event of *kind* with *args*."""
    if kind.endswith("_req"):
        bank = args[1]
        args = (args[0], "code" if bank < 0 else "%s%d" % (
            ("local", "shared")[bank & 1], bank >> 1))
    return KINDS[kind] % args


def line(event):
    """One event in the paper's phrasing."""
    cycle, core, hart, kind, args = event
    return "at cycle %d, core %d, hart %d: %s %s" % (
        cycle, core, hart, kind, render(kind, args))


def check_kinds(kinds):
    """*kinds* as a frozenset, or None; a kind not in :data:`KINDS` is a
    ValueError that names it and them."""
    unknown = sorted(set(kinds or ()).difference(KINDS))
    if unknown:
        raise ValueError("unknown trace kind(s) %s; the kinds are %s"
                         % (", ".join(unknown), ", ".join(KINDS)))
    return None if kinds is None else frozenset(kinds)


class Trace:
    """An in-memory event trace with optional kind filtering."""

    def __init__(self, enabled=False, kinds=None):
        self.enabled = enabled
        #: restrict recording to these kinds (None = all)
        self.kinds = check_kinds(kinds)
        self._buffers = {}
        self._merged = None

    @property
    def events(self):
        """Merged event list, ordered by (cycle, recording domain)."""
        if self._merged is None:
            buffers = [self._buffers[d] for d in sorted(self._buffers)]
            self._merged = list(heapq.merge(*buffers, key=lambda e: e[0]))
        return self._merged

    def domain_state_dict(self, domain):
        """One domain's buffer (shard gathering and snapshots)."""
        return [list(event) for event in self._buffers.get(domain, [])]

    def load_domain_state_dict(self, domain, events):
        if events:
            # a JSON round trip leaves args a list; p_ret's stays a str
            self._buffers[domain] = [
                (cycle, core, hart, kind,
                 args if isinstance(args, str) else tuple(args))
                for cycle, core, hart, kind, args in events]
        else:
            self._buffers.pop(domain, None)
        self._merged = None

    def record(self, cycle, core, hart, kind, args, domain=None):
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        key = core if domain is None else domain
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = []
        buffer.append((cycle, core, hart, kind, args))
        self._merged = None

    def __len__(self):
        return sum(len(b) for b in self._buffers.values())

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind):
        """All events of one kind, in merged order."""
        return [event for event in self.events if event[3] == kind]

    def formatted(self, limit=None):
        """Human-readable lines in the paper's phrasing."""
        return [line(event) for event in self.events[:limit]]
