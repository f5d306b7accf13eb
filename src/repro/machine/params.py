"""Microarchitectural parameters of the simulated LBP machine.

The paper fixes the structure (4 harts/core, 5 stages, 3 banks/core,
r1/r2/r3 tree) but publishes no numeric latencies; the defaults below are
our calibration (DESIGN.md section 5) and the ablation benchmark A2 sweeps
the interconnect ones.
"""

from repro import memmap


class Params:
    """All knobs of one simulated machine instance."""

    def __init__(
        self,
        num_cores=4,
        harts_per_core=memmap.HARTS_PER_CORE,
        rob_size=8,
        num_result_buffers=4,
        alu_latency=1,
        mul_latency=3,
        div_latency=12,
        local_mem_latency=2,
        link_hop_latency=1,
        bank_access_latency=1,
        cv_write_latency=2,
        trace_enabled=False,
        max_cycles=200_000_000,
    ):
        # Values arrive from outside the program (the ``params`` field of
        # a served job, CLI flags, snapshots) and the compiled tick reads
        # them as machine integers: refuse here what would otherwise die
        # deep inside a run, or never end one.
        counts = dict(
            num_cores=num_cores, rob_size=rob_size,
            num_result_buffers=num_result_buffers, alu_latency=alu_latency,
            mul_latency=mul_latency, div_latency=div_latency,
            local_mem_latency=local_mem_latency,
            link_hop_latency=link_hop_latency,
            bank_access_latency=bank_access_latency,
            cv_write_latency=cv_write_latency, max_cycles=max_cycles)
        for name, value in counts.items():
            # bool is an int subclass: True must not pass as 1
            if type(value) is not int or value < 1:
                raise ValueError(
                    "%s must be an integer >= 1, not %r" % (name, value))
        if type(trace_enabled) is not bool:
            raise ValueError(
                "trace_enabled must be true or false, not %r"
                % (trace_enabled,))
        if harts_per_core != memmap.HARTS_PER_CORE:
            raise ValueError(
                "the LBP memory map fixes %d harts per core"
                % memmap.HARTS_PER_CORE
            )
        self.num_cores = num_cores
        self.harts_per_core = harts_per_core
        #: reorder-buffer entries per hart (bounds in-flight instructions)
        self.rob_size = rob_size
        #: numbered p_swre/p_lwre result buffers per hart
        self.num_result_buffers = num_result_buffers
        self.alu_latency = alu_latency
        self.mul_latency = mul_latency
        self.div_latency = div_latency
        #: issue → bank access for the local port
        self.local_mem_latency = local_mem_latency
        #: per link traversal in the router tree / intercore lines
        self.link_hop_latency = link_hop_latency
        #: cycles a bank needs to serve one access
        self.bank_access_latency = bank_access_latency
        #: p_swcv delivery into the allocated hart's CV area
        self.cv_write_latency = cv_write_latency
        self.trace_enabled = trace_enabled
        self.max_cycles = max_cycles

    @property
    def num_harts(self):
        return self.num_cores * self.harts_per_core

    def latency_for(self, spec):
        """Execution latency for an instruction spec."""
        mnemonic = spec.mnemonic
        if mnemonic in ("mul", "mulh", "mulhsu", "mulhu"):
            return self.mul_latency
        if mnemonic in ("div", "divu", "rem", "remu"):
            return self.div_latency
        return self.alu_latency

    def state_dict(self):
        """All knob values as a plain dict (snapshot / cache-key input)."""
        return dict(
            num_cores=self.num_cores,
            harts_per_core=self.harts_per_core,
            rob_size=self.rob_size,
            num_result_buffers=self.num_result_buffers,
            alu_latency=self.alu_latency,
            mul_latency=self.mul_latency,
            div_latency=self.div_latency,
            local_mem_latency=self.local_mem_latency,
            link_hop_latency=self.link_hop_latency,
            bank_access_latency=self.bank_access_latency,
            cv_write_latency=self.cv_write_latency,
            trace_enabled=self.trace_enabled,
            max_cycles=self.max_cycles,
        )

    @classmethod
    def from_state_dict(cls, state):
        return cls(**state)

    def copy(self, **overrides):
        """A copy of these params with some values replaced."""
        fields = self.state_dict()
        fields.update(overrides)
        return Params(**fields)
