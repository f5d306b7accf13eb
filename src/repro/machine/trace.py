"""Cycle event trace.

When enabled, the machine records one tuple per architectural event:
``(cycle, core, hart, kind, payload)``.  The determinism experiments
(paper claim: "at cycle 467171, core 55, hart 2 sends a memory request to
load address 106688 from memory bank 13") simply compare whole traces of
repeated runs for equality.

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


class Trace:
    """An in-memory event trace with optional kind filtering."""

    def __init__(self, enabled=False, kinds=None):
        self.enabled = enabled
        #: restrict recording to these kinds (None = all)
        self.kinds = frozenset(kinds) if kinds is not None else None
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
            self._buffers[domain] = [tuple(event) for event in events]
        else:
            self._buffers.pop(domain, None)
        self._merged = None

    def record(self, cycle, core, hart, kind, payload, domain=None):
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        key = core if domain is None else domain
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = []
        buffer.append((cycle, core, hart, kind, payload))
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
        lines = []
        for cycle, core, hart, kind, payload in self.events[:limit]:
            lines.append(
                "at cycle %d, core %d, hart %d: %s %s" % (cycle, core, hart, kind, payload)
            )
        return lines
