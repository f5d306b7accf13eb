"""Memory banks and their access ports.

Per the paper (fig. 13) each core owns three banks: code, local (the four
hart stacks) and one slice of shared memory.  Shared banks have two ports
— one for the owning core, one fed by the router tree — each serving one
access per cycle.  Ports are modelled as monotonic reservation cursors,
which both creates contention and guarantees FIFO ordering of accesses
that share a port (the property compiled code relies on for same-address
store→load pairs issued in order; see DESIGN.md).
"""

from repro import memmap

#: what a bank's bytes come from: ``bytearray``, which writes every byte, or
#: the compiled ``zeroed``, the same bytearray with its pages mapped in when
#: first touched (machine/native.py installs it when it passes its smoke
#: calls, and takes it back if the rest of the smoke run fails)
zeroed = bytearray


class Bank:
    """One byte-addressable memory bank."""

    __slots__ = ("base", "data", "name")

    def __init__(self, base, size, name):
        self.base = base
        self.data = zeroed(size)
        self.name = name

    def _offset(self, addr, width):
        offset = addr - self.base
        if offset < 0 or offset + width > len(self.data):
            raise IndexError(
                "address 0x%x (+%d) outside bank %s [0x%x, 0x%x)"
                % (addr, width, self.name, self.base, self.base + len(self.data))
            )
        return offset

    def read(self, addr, width):
        offset = self._offset(addr, width)
        return int.from_bytes(self.data[offset : offset + width], "little")

    def write(self, addr, value, width):
        offset = self._offset(addr, width)
        self.data[offset : offset + width] = (value & ((1 << (8 * width)) - 1)).to_bytes(
            width, "little"
        )

    def load_image(self, offset, payload):
        # a negative offset would make the slice assignment insert: the
        # bank's size is an invariant the compiled access path relies on
        if offset < 0 or offset + len(payload) > len(self.data):
            raise IndexError("image does not fit in bank %s" % self.name)
        self.data[offset : offset + len(payload)] = payload

    def state_dict(self):
        return {"name": self.name, "base": self.base, "data": bytes(self.data)}

    def load_state_dict(self, state):
        if len(state["data"]) != len(self.data):
            raise ValueError(
                "bank %s snapshot size %d != configured size %d"
                % (self.name, len(state["data"]), len(self.data))
            )
        self.data[:] = state["data"]


class Port:
    """A one-access-per-cycle reservation cursor."""

    __slots__ = ("next_free",)

    def __init__(self):
        self.next_free = 0

    def reserve(self, earliest):
        """Reserve the first slot at or after *earliest*; returns its cycle."""
        slot = max(earliest, self.next_free)
        self.next_free = slot + 1
        return slot

    def state_dict(self):
        return {"next_free": self.next_free}

    def load_state_dict(self, state):
        self.next_free = state["next_free"]


class CoreMemory:
    """The three banks of one core, plus their ports."""

    __slots__ = ("core_index", "local", "shared", "local_port",
                 "shared_local_port", "shared_router_port")

    def __init__(self, core_index, params):
        self.core_index = core_index
        self.local = Bank(memmap.LOCAL_BASE, memmap.LOCAL_SIZE, "local%d" % core_index)
        self.shared = Bank(
            memmap.global_bank_base(core_index),
            memmap.GLOBAL_BANK_SIZE,
            "shared%d" % core_index,
        )
        #: local bank port (stacks + CV areas, all four harts)
        self.local_port = Port()
        #: owning core's port into its shared bank
        self.shared_local_port = Port()
        #: router-side port into the shared bank
        self.shared_router_port = Port()

    def state_dict(self):
        return {
            "local": self.local.state_dict(),
            "shared": self.shared.state_dict(),
            "local_port": self.local_port.state_dict(),
            "shared_local_port": self.shared_local_port.state_dict(),
            "shared_router_port": self.shared_router_port.state_dict(),
        }

    def load_state_dict(self, state):
        self.local.load_state_dict(state["local"])
        self.shared.load_state_dict(state["shared"])
        self.local_port.load_state_dict(state["local_port"])
        self.shared_local_port.load_state_dict(state["shared_local_port"])
        self.shared_router_port.load_state_dict(state["shared_router_port"])
