"""The referential-order race detector (vector-clock replay).

Recording
---------
The instrumented machine appends one plain tuple per observation to the
buffer of the *domain* (core) that executed the hook — exactly the
discipline the trace and the space-sharded engine use, so shard-local
buffers are disjoint and :meth:`Sanitizer.observations` merges them into
one stream whose order is independent of the sharding.  Every record
starts with the cycle; records that belong to a hart's instruction carry
the instruction's rename *tag*.

Tags are the referential rank: the core's rename counter is assigned at
decode, which happens in program order per hart, so a hart's tags are
strictly increasing along its program order even when the out-of-order
engine executes (and therefore records) the instructions out of order.
All clock arithmetic below is in tag space for exactly that reason — a
message sent by instruction *t* covers precisely the sender's
instructions with tag <= *t*, no matter in which order they reached the
execute stage.

Record vocabulary (first element always the cycle)::

    (c, "acc",   gid, tag, addr, width, wr, pc)   shared-bank load/store
    (c, "swcv",  gid, tag, target_gid, offset)    p_swcv send
    (c, "lwcv",  gid, tag, offset)                p_lwcv receive
    (c, "swre",  gid, tag, target_gid, slot)      p_swre send
    (c, "refill", target_gid, slot, sender_gid)   result buffer filled
    (c, "lwre",  gid, tag, slot)                  p_lwre consume
    (c, "fork",  gid, tag, child_gid)             p_fc / p_fn allocation
    (c, "jsend", gid, tag, target_gid)            p_jal / p_jalr start send
    (c, "start", gid, tag_threshold)              start pc delivered
    (c, "esig",  gid, tag, succ_gid)              ordered p_ret: signal sent
    (c, "pred",  gid, tag)                        ordered p_ret: signal used
    (c, "jretsend", gid, tag, join_gid)           p_ret case 4: join sent
    (c, "jrecv", gid, tag)                        pending join consumed
    (c, "jstart", gid, tag_threshold)             join resumed a waiting hart

Analysis
--------
Pass 1 walks the merged stream in (cycle, domain) order and pairs every
receive with its send through per-channel FIFOs (the stream order is the
physical causal order: every event-paired receive is recorded at least
one cycle after its send).  Pass 2 replays each hart's operations in tag
(= program) order, blocking a receive until its message's clock is
available — an HB-consistent schedule — maintaining per-hart vector
clocks ``C[hart] -> max covered tag`` and FastTrack-style shadow memory;
a conflicting access pair where neither side's tag is covered by the
other side's clock is a referential-order race.

Synchronization cells (``add_sync``) model the paper's §6 request-word
protocol: plain stores/loads that the program *intends* as cross-hart
signalling (active polling on request words).  Accesses to a declared
sync range are treated as release/acquire operations on the cell instead
of data accesses — the moral equivalent of C11 atomics for a TSan-style
detector.
"""

import heapq

from repro.sanitize.report import Race, RaceReport, _Locator


def _join(clock, msg):
    for gid, tag in msg.items():
        if clock.get(gid, -1) < tag:
            clock[gid] = tag


class Sanitizer:
    """Observation store + replay analysis (one per sanitized machine)."""

    def __init__(self):
        #: domain -> [record, ...] in execution order (cycles non-decreasing)
        self._buffers = {}
        #: [(base, size), ...] byte ranges with release/acquire semantics
        self.sync_ranges = []

    # ---- recording (hot path: one append) ---------------------------------

    def record(self, domain, rec):
        try:
            self._buffers[domain].append(rec)
        except KeyError:
            self._buffers[domain] = [rec]

    def add_sync(self, base, size):
        self.sync_ranges.append((int(base), int(size)))

    def observations(self):
        """All records merged across domains, sharding-independent order."""
        buffers = self._buffers
        return heapq.merge(
            *[buffers[d] for d in sorted(buffers)], key=lambda r: r[0])

    def __len__(self):
        return sum(len(buf) for buf in self._buffers.values())

    # ---- snapshot / shard gathering ---------------------------------------

    def domain_state_dict(self, domain):
        return [list(rec) for rec in self._buffers.get(domain, [])]

    def load_domain_state_dict(self, domain, records):
        if records:
            self._buffers[domain] = [tuple(rec) for rec in records]
        else:
            self._buffers.pop(domain, None)

    # ---- analysis ----------------------------------------------------------

    def analyze(self, program, params, sync=None):
        """Replay the observations; return a :class:`RaceReport`."""
        sync_ranges = list(self.sync_ranges)
        if sync:
            sync_ranges.extend((int(b), int(s)) for b, s in sync)
        ops, msgs_total, observations = self._pair()
        races, accesses, blocked = _replay(ops, sync_ranges)
        locator = _Locator(program)
        for race in races:
            for end in (race.a, race.b):
                end["disasm"] = locator.disasm(end["pc"])
                end["symbol"] = locator.symbol(end["pc"])
                end["region"] = locator.region(end["pc"])
        races.sort(key=lambda r: (r.a["cycle"], r.a["gid"], r.a["pc"],
                                  r.b["cycle"], r.b["gid"], r.b["pc"]))
        return RaceReport(races, params, accesses=accesses,
                          observations=observations, blocked=blocked,
                          sync_ranges=sync_ranges)

    def _pair(self):
        """Pass 1: merged-stream walk; per-hart op lists + message pairing.

        Ops (sorted by (tag, phase) later): ``(tag, phase, kind, ...)``
        with phase 0 for instructions and phase 1 for threshold receives
        ("start"/"jstart" apply to everything decoded *after* tag).
        """
        ops = {}
        next_msg = [0]

        def op(gid, entry):
            try:
                ops[gid].append(entry)
            except KeyError:
                ops[gid] = [entry]

        def new_msg():
            next_msg[0] += 1
            return next_msg[0]

        cv_slot = {}       # (target, offset) -> msg  (overwrite: last send)
        re_fifo = {}       # (sender, target, slot) -> [msg, ...]
        re_cur = {}        # (target, slot) -> msg   (the buffered value)
        fork_pending = {}  # child -> msg
        jsend_fifo = {}    # target -> [msg, ...]
        esig_fifo = {}     # succ -> [msg, ...]
        join_fifo = {}     # target -> [msg, ...]
        observations = 0

        for rec in self.observations():
            observations += 1
            kind = rec[1]
            if kind == "acc":
                cycle, _, gid, tag, addr, width, wr, pc = rec
                op(gid, (tag, 0, "acc", cycle, addr, width, wr, pc))
            elif kind == "swcv":
                cycle, _, gid, tag, target, offset = rec
                msg = new_msg()
                cv_slot[(target, offset)] = msg
                op(gid, (tag, 0, "send", msg))
            elif kind == "lwcv":
                cycle, _, gid, tag, offset = rec
                op(gid, (tag, 0, "recv", cv_slot.get((gid, offset))))
            elif kind == "swre":
                cycle, _, gid, tag, target, slot = rec
                msg = new_msg()
                re_fifo.setdefault((gid, target, slot), []).append(msg)
                op(gid, (tag, 0, "send", msg))
            elif kind == "refill":
                cycle, _, target, slot, sender = rec
                fifo = re_fifo.get((sender, target, slot))
                if fifo:
                    re_cur[(target, slot)] = fifo.pop(0)
            elif kind == "lwre":
                cycle, _, gid, tag, slot = rec
                op(gid, (tag, 0, "recv", re_cur.pop((gid, slot), None)))
            elif kind == "fork":
                cycle, _, gid, tag, child = rec
                msg = new_msg()
                fork_pending[child] = msg
                op(gid, (tag, 0, "send", msg))
            elif kind == "jsend":
                cycle, _, gid, tag, target = rec
                msg = new_msg()
                jsend_fifo.setdefault(target, []).append(msg)
                op(gid, (tag, 0, "send", msg))
            elif kind == "start":
                cycle, _, gid, threshold = rec
                op(gid, (threshold, 1, "recv", fork_pending.pop(gid, None)))
                fifo = jsend_fifo.get(gid)
                op(gid, (threshold, 1, "recv", fifo.pop(0) if fifo else None))
            elif kind == "esig":
                cycle, _, gid, tag, succ = rec
                msg = new_msg()
                esig_fifo.setdefault(succ, []).append(msg)
                op(gid, (tag, 0, "send", msg))
            elif kind == "pred":
                cycle, _, gid, tag = rec
                fifo = esig_fifo.get(gid)
                op(gid, (tag, 0, "recv", fifo.pop(0) if fifo else None))
            elif kind == "jretsend":
                cycle, _, gid, tag, target = rec
                msg = new_msg()
                join_fifo.setdefault(target, []).append(msg)
                op(gid, (tag, 0, "send", msg))
            elif kind == "jrecv":
                cycle, _, gid, tag = rec
                fifo = join_fifo.get(gid)
                op(gid, (tag, 0, "recv", fifo.pop(0) if fifo else None))
            elif kind == "jstart":
                cycle, _, gid, threshold = rec
                fifo = join_fifo.get(gid)
                op(gid, (threshold, 1, "recv", fifo.pop(0) if fifo else None))
            else:
                raise ValueError("unknown observation kind %r" % (kind,))

        for gid in ops:
            # stable: records with equal (tag, phase) — the "pred"
            # receive and "esig" send of one p_ret — keep stream order
            ops[gid].sort(key=lambda entry: (entry[0], entry[1]))
        return ops, next_msg[0], observations


def _overlaps_sync(sync_ranges, addr, width):
    for base, size in sync_ranges:
        if addr < base + size and addr + width > base:
            return True
    return False


def _replay(ops, sync_ranges):
    """Pass 2: HB-consistent tag-order replay with shadow memory."""
    clocks = {gid: {} for gid in ops}
    msg_clock = {}
    pos = {gid: 0 for gid in ops}
    shadow_w = {}   # byte addr -> (gid, tag, pc, cycle, base, wr)
    shadow_r = {}   # byte addr -> {gid: (gid, tag, pc, cycle, base, wr)}
    sync_cells = {}  # word index -> clock
    races = {}
    accesses = 0
    order = sorted(ops)

    def report(first, second):
        # canonical endpoint order: chronological, then (gid, tag)
        if (second[3], second[0], second[1]) < (first[3], first[0], first[1]):
            first, second = second, first
        key = (first[2], first[5], second[2], second[5])
        race = races.get(key)
        if race is None:
            races[key] = Race(
                first[4],
                {"gid": first[0], "pc": first[2], "cycle": first[3],
                 "write": bool(first[5])},
                {"gid": second[0], "pc": second[2], "cycle": second[3],
                 "write": bool(second[5])},
            )
        else:
            race.count += 1

    def access(gid, clock, entry):
        tag, _, _, cycle, addr, width, wr, pc = entry
        if _overlaps_sync(sync_ranges, addr, width):
            # release/acquire on the cell, never a data race
            cell = sync_cells.setdefault(addr >> 2, {})
            if wr:
                msg = dict(clock)
                msg[gid] = tag
                _join(cell, msg)
            else:
                _join(clock, cell)
            return
        me = (gid, tag, pc, cycle, addr, wr)
        hit = set()
        for byte in range(addr, addr + width):
            prev = shadow_w.get(byte)
            if (prev is not None and prev[0] != gid
                    and prev[1] > clock.get(prev[0], -1)
                    and prev[:3] not in hit):
                hit.add(prev[:3])
                report(prev, me)
            if wr:
                readers = shadow_r.pop(byte, None)
                if readers:
                    for rgid, rentry in readers.items():
                        if (rgid != gid
                                and rentry[1] > clock.get(rgid, -1)
                                and rentry[:3] not in hit):
                            hit.add(rentry[:3])
                            report(rentry, me)
                shadow_w[byte] = me
            else:
                shadow_r.setdefault(byte, {})[gid] = me

    def run_round(ignore_missing):
        progress = False
        for gid in order:
            lst = ops[gid]
            i = pos[gid]
            clock = clocks[gid]
            while i < len(lst):
                entry = lst[i]
                kind = entry[2]
                if kind == "recv":
                    msg = entry[3]
                    if msg is not None:
                        if msg not in msg_clock:
                            if not ignore_missing:
                                break
                        else:
                            _join(clock, msg_clock[msg])
                elif kind == "send":
                    msg = dict(clock)
                    msg[gid] = entry[0]
                    msg_clock[entry[3]] = msg
                else:
                    access(gid, clock, entry)
                i += 1
                progress = True
            pos[gid] = i
        return progress

    while run_round(False):
        pass
    # a receive whose program-order position precedes the matching send
    # (only possible when the out-of-order engine hoisted the physical
    # send above a blocked receive): finish without the edge
    blocked = sum(len(ops[gid]) - pos[gid] for gid in order)
    if blocked:
        blocked = sum(
            1 for gid in order for entry in ops[gid][pos[gid]:]
            if entry[2] == "recv")
        while run_round(True):
            pass
    accesses = sum(
        1 for gid in ops for entry in ops[gid] if entry[2] == "acc")
    return list(races.values()), accesses, blocked
