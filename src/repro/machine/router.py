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
as :class:`~repro.machine.memory.Port` reservation cursors keyed by a
symbolic link id, which yields both bandwidth contention and deterministic
FIFO ordering.  A remote shared-memory access reserves, hop by hop, every
link of its request path, then a bank-port slot, then every link of its
reply path.
"""

from repro.machine.memory import Port


class LinkScheduler:
    """Per-link one-slot-per-cycle reservations over symbolic link ids."""

    # slots: the compiled window reserves remote-access paths in C, reading
    # these by offset (machine/_window.h)
    __slots__ = ("hop_latency", "_links", "_metrics", "_core_index")

    def __init__(self, hop_latency=1):
        self.hop_latency = hop_latency
        self._links = {}
        # telemetry sink (observation only — never serialized, rebound by
        # the machine on construction and restore)
        self._metrics = None
        self._core_index = None

    def observe(self, metrics, core_index):
        """Attach (or detach, with None) the telemetry charged with this
        scheduler's queueing delay."""
        self._metrics = metrics
        self._core_index = core_index

    def reserve_path(self, links, start):
        """Reserve consecutive slots along *links*, starting after *start*.

        Returns the cycle at which the message leaves the last link.
        """
        time = start
        hop = self.hop_latency
        for link in links:
            port = self._links.get(link)
            if port is None:
                port = self._links[link] = Port()
            time = port.reserve(time + hop)
        if self._metrics is not None and links:
            delay = time - (start + hop * len(links))
            if delay > 0:
                self._metrics.link_wait(self._core_index, delay)
        return time

    def state_dict(self):
        """Per-link cursors as [[tag, index], next_free] rows (sorted)."""
        return {
            "hop_latency": self.hop_latency,
            "links": [
                [list(link), port.next_free]
                for link, port in sorted(self._links.items())
            ],
        }

    def load_state_dict(self, state):
        self.hop_latency = state["hop_latency"]
        self._links = {}
        for link, next_free in state["links"]:
            port = Port()
            port.next_free = next_free
            self._links[tuple(link)] = port


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
