"""The hierarchical interconnect: r1/r2/r3 router tree and intercore lines.

Topology (paper figs. 9 and 13):

* one **r1** router per group of 4 cores, connected to each core and to
  each of the group's shared banks;
* one **r2** router per group of 4 r1 routers;
* one **r3** root router connecting up to 4 r2 routers;
* a **forward neighbour link** from each core *i* to core *i+1* (forks,
  continuation values, ending-hart signals);
* a **backward line** from each core *i* to core *i-1* (join addresses and
  ``p_swre`` results travel toward lower cores hop by hop).

Every link carries one value per cycle per direction.  Links are modelled
as :class:`~repro.machine.memory.Port` reservation cursors named by a
symbolic link id ``(tag, index)``, which yields both bandwidth contention
and deterministic FIFO ordering.  A remote shared-memory access reserves, hop by hop, every
link of its request path, then a bank-port slot, then every link of its
reply path.
"""

from repro.machine.memory import Port


#: every link tag of the tree and the intercore lines, in the order of the
#: codes the compiled window reserves paths by (``LINK_TAGS`` in
#: machine/_tick.c, which ``bind`` checks against this tuple): the request
#: path's tags, the reply path's, then the forward and backward lines
LINK_TAGS = (
    "c>r1", "r1>m", "r1>r2", "r2>r1", "r2>r3", "r3>r4", "r4>r3", "r3>r2",
    "m>r1", "r1>c", "r1<r2", "r2<r1", "r2<r3", "r3<r4", "r4<r3", "r3<r2",
    "fwd", "bwd",
)
_CODES = {tag: code for code, tag in enumerate(LINK_TAGS)}
#: per tag of LINK_TAGS, log2 of the cores one of its links serves: a
#: core's or a bank's (0), an r1 group's (2), an r2 group's (4) or a
#: chip's (6); the compiled window sizes the rows it makes by the same
#: table (``bind`` checks it too)
LINK_SHIFTS = (0, 0, 2, 2, 4, 6, 6, 4) * 2 + (0, 0)


class LinkScheduler:
    """Per-link one-slot-per-cycle reservations over symbolic link ids.

    A link id is ``(tag, index)``.  ``_links`` holds one row per tag of
    :data:`LINK_TAGS`, in its order: ``None`` until a link of the tag is
    first reserved, then a list with a slot per link of the tag's router
    level -- *num_cores* of them for a core's or a bank's link, a quarter
    of that (rounded up) for an r1 group's, and so on -- each slot ``None``
    until its link's :class:`Port` is first used.  A core that books every
    tag holds about 7.3 slots per core of the machine.
    """

    # slots: the compiled window reserves remote-access paths in C, reading
    # these by offset (machine/_window.h)
    __slots__ = ("hop_latency", "num_cores", "_links", "_metrics",
                 "_core_index")

    def __init__(self, hop_latency, num_cores):
        self.hop_latency = hop_latency
        self.num_cores = num_cores
        self._links = [None] * len(LINK_TAGS)
        # telemetry sink (observation only — never serialized, rebound by
        # the machine on construction and restore)
        self._metrics = None
        self._core_index = None

    def observe(self, metrics, core_index):
        """Attach (or detach, with None) the telemetry charged with this
        scheduler's queueing delay."""
        self._metrics = metrics
        self._core_index = core_index

    def port(self, link):
        """The :class:`Port` of link *link*, created (and its tag's row) on
        its first use; a ValueError for a link this machine does not have.

        It calls nothing but ``Port()`` on the way, so that a hop costs
        the Python paths (the forward and backward lines, traced runs)
        one call more than the port's ``reserve``, as a dict probe did."""
        tag, index = link
        try:
            code = _CODES[tag]
        except KeyError:
            raise ValueError("no link %r: unknown link tag %r"
                             % (link, tag)) from None
        size = ((self.num_cores - 1) >> LINK_SHIFTS[code]) + 1
        if type(index) is not int or not 0 <= index < size:
            raise ValueError("no link %r: index %r outside [0, %d)"
                             % (link, index, size))
        row = self._links[code]
        if row is None:
            row = self._links[code] = [None] * size
        port = row[index]
        if port is None:
            port = row[index] = Port()
        return port

    def reserve_path(self, links, start):
        """Reserve consecutive slots along *links*, starting after *start*.

        Returns the cycle at which the message leaves the last link.
        """
        time = start
        hop = self.hop_latency
        for link in links:
            time = self.port(link).reserve(time + hop)
        if self._metrics is not None and links:
            delay = time - (start + hop * len(links))
            if delay > 0:
                self._metrics.link_wait(self._core_index, delay)
        return time

    def state_dict(self):
        """Per-link cursors as [[tag, index], next_free] rows (sorted)."""
        return {
            "hop_latency": self.hop_latency,
            "links": sorted(
                [[tag, index], port.next_free]
                for tag, row in zip(LINK_TAGS, self._links) if row
                for index, port in enumerate(row) if port is not None),
        }

    def load_state_dict(self, state):
        """Restore the cursors.  A row naming a link this machine does not
        have, or a link a second time, is a ValueError naming the row,
        raised before anything loads (a negative index would otherwise
        alias another link's slot)."""
        loaded = LinkScheduler(state["hop_latency"], self.num_cores)
        seen = set()
        for row in state["links"]:
            link, next_free = row
            try:
                port = loaded.port(link)
            except ValueError as error:
                raise ValueError("snapshot link row %r: %s"
                                 % (row, error)) from None
            if tuple(link) in seen:
                raise ValueError("snapshot link row %r: a second row for "
                                 "the link" % (row,))
            seen.add(tuple(link))
            port.next_free = next_free
        self.hop_latency = loaded.hop_latency
        self._links = loaded._links


def request_path(src_core, dst_core):
    """Link ids for a shared-memory request from *src_core* to *dst_core*'s bank.

    Four levels: r1 per 4 cores, r2 per 16, r3 per 64 (one chip), and the
    inter-chip r4 of the paper's figure 15 for machines above 64 cores.
    """
    links = [("c>r1", src_core)]
    if src_core // 4 == dst_core // 4:
        links.append(("r1>m", dst_core))
        return links
    links.append(("r1>r2", src_core // 4))
    if src_core // 16 == dst_core // 16:
        links.append(("r2>r1", dst_core // 4))
        links.append(("r1>m", dst_core))
        return links
    links.append(("r2>r3", src_core // 16))
    if src_core // 64 != dst_core // 64:
        links.append(("r3>r4", src_core // 64))
        links.append(("r4>r3", dst_core // 64))
    links.append(("r3>r2", dst_core // 16))
    links.append(("r2>r1", dst_core // 4))
    links.append(("r1>m", dst_core))
    return links


def reply_path(src_core, dst_core):
    """Link ids for the reply of a request issued by *src_core*."""
    links = [("m>r1", dst_core)]
    if src_core // 4 == dst_core // 4:
        links.append(("r1>c", src_core))
        return links
    links.append(("r1<r2", dst_core // 4))
    if src_core // 16 == dst_core // 16:
        links.append(("r2<r1", src_core // 4))
        links.append(("r1>c", src_core))
        return links
    links.append(("r2<r3", dst_core // 16))
    if src_core // 64 != dst_core // 64:
        links.append(("r3<r4", dst_core // 64))
        links.append(("r4<r3", src_core // 64))
    links.append(("r3<r2", src_core // 16))
    links.append(("r2<r1", src_core // 4))
    links.append(("r1>c", src_core))
    return links


def forward_links(src_core, dst_core):
    """Neighbour-link hops for fork/CV/ending-signal messages.

    Only same-core (no links) or next-core (one hop) transfers exist in
    LBP; anything else is a machine bug.
    """
    if dst_core == src_core:
        return []
    if dst_core == src_core + 1:
        return [("fwd", src_core)]
    raise ValueError(
        "forward link only reaches the next core (%d -> %d)" % (src_core, dst_core)
    )


def backward_links(src_core, dst_core):
    """Backward-line hops from *src_core* down to *dst_core* (dst <= src)."""
    if dst_core > src_core:
        raise ValueError(
            "backward line only reaches prior cores (%d -> %d)" % (src_core, dst_core)
        )
    return [("bwd", core) for core in range(src_core, dst_core, -1)]
