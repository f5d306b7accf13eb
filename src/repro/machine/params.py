"""Parameters of the simulated LBP machine.

The paper fixes the structure (4 harts/core, 5 stages, 3 banks/core,
r1/r2/r3 tree) but publishes no numeric latencies; the constants below
are our one calibration (DESIGN.md section 5).  What callers vary is the
machine's size and, for the ablation benchmark A2, the router's hop
latency: those two are the knobs, everything else is a class constant.
"""

from repro import memmap


class Params:
    """The two knobs of one simulated machine, plus the model's constants."""

    #: fixed by the LBP memory map
    harts_per_core = memmap.HARTS_PER_CORE
    #: reorder-buffer entries per hart (bounds in-flight instructions)
    rob_size = 8
    #: numbered p_swre/p_lwre result buffers per hart
    num_result_buffers = 4
    alu_latency = 1
    mul_latency = 3
    div_latency = 12
    #: issue → bank access for the local port
    local_mem_latency = 2
    #: cycles a bank needs to serve one access
    bank_access_latency = 1
    #: p_swcv delivery into the allocated hart's CV area
    cv_write_latency = 2

    def __init__(self, num_cores=4, link_hop_latency=1):
        # Values arrive from outside the program (the ``params`` field of
        # a served job, CLI flags, snapshots) and the compiled tick reads
        # them as machine integers: refuse here what would otherwise die
        # deep inside a run, or never end one.
        for name, value in (("num_cores", num_cores),
                            ("link_hop_latency", link_hop_latency)):
            # bool is an int subclass: True must not pass as 1
            if type(value) is not int or value < 1:
                raise ValueError(
                    "%s must be an integer >= 1, not %r" % (name, value))
        self.num_cores = num_cores
        #: per link traversal in the router tree / intercore lines
        self.link_hop_latency = link_hop_latency

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
        """The knob values as a plain dict (snapshot / cache-key input)."""
        return {"num_cores": self.num_cores,
                "link_hop_latency": self.link_hop_latency}

    @classmethod
    def from_state_dict(cls, state):
        """Params from a dict of knobs that came from outside the program
        (a served job, a snapshot); an unknown key is a ValueError naming
        it, not a TypeError from the constructor."""
        unknown = sorted(set(state) - {"num_cores", "link_hop_latency"})
        if unknown:
            raise ValueError("unknown Params knob(s): %s" % ", ".join(unknown))
        return cls(**state)
