"""Run statistics: retired instructions, cycles, IPC, memory mix.

The paper's histograms (figs. 19-21) report, per run: number of cycles,
aggregate IPC, and retired instructions.  :class:`MachineStats` collects
those plus the supporting detail (per-hart retirement, local vs remote
memory accesses, forks/joins) used by the locality experiment E7.

Layout: every counter that simulation code *increments* lives in a
per-core :class:`CoreCounters` (or per-hart :class:`HartStats`) slot, and
the machine-wide figures are read-only aggregation properties.  This is
what makes the space-sharded engine (``repro.parsim``) exact: a worker
process owns a contiguous range of cores and only ever touches its own
slots, so gathering shard statistics is concatenation, not reconciliation.
"""

from repro import memmap


class HartStats:
    __slots__ = ("retired", "loads", "stores", "forks")

    def __init__(self):
        self.retired = 0
        self.loads = 0
        self.stores = 0
        self.forks = 0

    def state_dict(self):
        return {"retired": self.retired, "loads": self.loads,
                "stores": self.stores, "forks": self.forks}

    def load_state_dict(self, state):
        self.retired = state["retired"]
        self.loads = state["loads"]
        self.stores = state["stores"]
        self.forks = state["forks"]


class CoreCounters:
    """Per-core slice of the machine-wide counters (shard-partitionable)."""

    __slots__ = ("local_accesses", "remote_accesses", "forks", "joins",
                 "re_messages", "skipped_cycles")

    def __init__(self):
        self.local_accesses = 0
        self.remote_accesses = 0
        self.forks = 0
        self.joins = 0
        self.re_messages = 0
        #: cycles this core sat idle (gated off by the run loop); counted
        #: per core so the total is independent of how cores are sharded
        self.skipped_cycles = 0

    def state_dict(self):
        return {
            "local_accesses": self.local_accesses,
            "remote_accesses": self.remote_accesses,
            "forks": self.forks,
            "joins": self.joins,
            "re_messages": self.re_messages,
            "skipped_cycles": self.skipped_cycles,
        }

    def load_state_dict(self, state):
        self.local_accesses = state["local_accesses"]
        self.remote_accesses = state["remote_accesses"]
        self.forks = state["forks"]
        self.joins = state["joins"]
        self.re_messages = state["re_messages"]
        self.skipped_cycles = state["skipped_cycles"]


class MachineStats:
    """Aggregated counters for one simulation run."""

    harts_per_core = memmap.HARTS_PER_CORE

    def __init__(self, num_cores):
        self.num_cores = num_cores
        self.cycles = 0
        self.harts = [
            [HartStats() for _ in range(self.harts_per_core)]
            for _ in range(num_cores)
        ]
        self.per_core = [CoreCounters() for _ in range(num_cores)]

    def state_dict(self):
        return {
            "cycles": self.cycles,
            "per_core": [c.state_dict() for c in self.per_core],
            "harts": [[h.state_dict() for h in core] for core in self.harts],
        }

    def core_state_dict(self, index):
        """One core's slice, for shard gathering and snapshots: its
        counters and hart stats."""
        return {
            "counters": self.per_core[index].state_dict(),
            "harts": [h.state_dict() for h in self.harts[index]],
        }

    def load_core_state_dict(self, index, state):
        self.per_core[index].load_state_dict(state["counters"])
        for hart_stats, hart_state in zip(self.harts[index], state["harts"]):
            hart_stats.load_state_dict(hart_state)

    # ---- machine-wide aggregates (read-only) --------------------------------

    @property
    def local_accesses(self):
        return sum(c.local_accesses for c in self.per_core)

    @property
    def remote_accesses(self):
        return sum(c.remote_accesses for c in self.per_core)

    @property
    def forks(self):
        return sum(c.forks for c in self.per_core)

    @property
    def joins(self):
        return sum(c.joins for c in self.per_core)

    @property
    def re_messages(self):
        return sum(c.re_messages for c in self.per_core)

    @property
    def skipped_core_cycles(self):
        return sum(c.skipped_cycles for c in self.per_core)

    @property
    def retired(self):
        return sum(h.retired for core in self.harts for h in core)

    @property
    def ipc(self):
        """Aggregate machine IPC (sum over cores, as the paper reports)."""
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def ipc_per_core(self):
        return self.ipc / self.num_cores

    def retired_by_core(self):
        return [sum(h.retired for h in core) for core in self.harts]

    def summary(self):
        """One dict with the figures the paper's histograms use."""
        return {
            "cycles": self.cycles,
            "retired": self.retired,
            "ipc": round(self.ipc, 3),
            "ipc_per_core": round(self.ipc_per_core, 4),
            "local_accesses": self.local_accesses,
            "remote_accesses": self.remote_accesses,
            "forks": self.forks,
            "joins": self.joins,
            "skipped_core_cycles": self.skipped_core_cycles,
        }
