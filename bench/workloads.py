"""The workloads: what each runs, at which size, and why.

Sizes are FROZEN: they define what the numbers mean.  A size change is a new
benchmark, and every baseline has to be measured again after it.

``--seed`` feeds only data seeds, request schedules and job tags; the program
under test receives only the generated inputs (a DetC source, a job payload).
The matmul sources have no data seed (all-ones inputs), so on the workloads
built from them the seed changes nothing but the job tags.

No expected cycle count is pinned here, or a later codegen improvement could
never land: a run is correct when every operation passes the workload's own
self-check and all repetitions of one program agree on (cycles, retired,
result-memory digest).
"""

import hashlib

#: cycles between calibration pauses inside one in-process simulation: the
#: ``snapshot_every`` of the public ``LBP.run`` hook (40-100 ms of host time)
PAUSE_CYCLES = 2500
#: hits are timed in blocks of this many requests between calibration samples
HIT_BLOCK = 50
#: distinct cached keys the hit workload cycles through
HIT_KEYS = 4

WORKLOADS = {
    "sim_dense_c4": (
        "tiled matmul h=16 on 4 cores (paper fig. 19), IPC 3.85 of 4: the "
        "per-instruction five-stage tick is nearly all the work, router, "
        "event queue and gating almost none"),
    "sim_irregular_c16": (
        "sort, stencil, histogram, reduction on 16 cores, request server on "
        "4: 74-90% gated core-cycles, forks, remote accesses; per-cycle "
        "overhead dominates, so a tick that costs the idle path shows"),
    "serve_miss": (
        "distinct-key DetC jobs through a repro serve subprocess, 1 "
        "connection closed loop: the write side of serve and snapshot.cache "
        "(key, fork, simulate, RunCache.put), machine a fixed cost"),
    "serve_hit": (
        "repeated keys through the same daemon, 1 connection closed loop: "
        "the read side (HTTP framing, keying, RunCache.get), no simulation "
        "at all, so a machine change predicts no move here"),
}

#: runnable (``--workload sim_sharded_c16``, also under ``--repeat``) but not
#: in BENCHMARK.json: two spin-waiting workers on two shared vCPUs follow the
#: neighbours, not the code (normalised spread 0.13 over ten runs, against
#: 0.03-0.04 for the in-process workloads), and no single-threaded kernel
#: calibrates that.  Every traced run still probes parsim (``parsim.*``).
UNJUDGED = {
    "sim_sharded_c16": (
        "copy matmul h=64 on 16 cores under LBP(shards=2), worker fork and "
        "gather included: the only workload that crosses parsim (epoch "
        "barrier, rings); the sequential ones bypass it"),
}


class Prog:
    """One program of a workload: how to generate it and how to check it."""

    def __init__(self, name, cores, make):
        self.name = name
        self.cores = cores
        #: seed -> (DetC source, verify(machine, program))
        self.make = make


def _matmul(version, h, scale=1):
    def make(_seed):
        from repro.workloads import matmul_source, verify_matmul

        def verify(machine, program):
            return verify_matmul(machine, program, version, h, scale=scale)

        return matmul_source(version, h, scale=scale), verify
    return make


def _scenario(cls_name, *args, **kwargs):
    def make(seed):
        import repro.workloads

        workload = getattr(repro.workloads, cls_name)(
            *args, seed=seed, **kwargs)
        return workload.source, workload.verify
    return make


DENSE = [Prog("tiled16", 4, _matmul("tiled", 16))]

# stencil first: the probes of a traced run take a workload's first program
# as their subject, and stencil is the one with the most forks and the
# highest remote:local ratio.  Sizes stay below StencilWorkload(64, width=16),
# which does not assemble ("lw immediate 4092 does not fit").
IRREGULAR = [
    Prog("stencil", 16, _scenario("StencilWorkload", 64, width=8, steps=2)),
    Prog("sort", 16, _scenario("SortWorkload", 64, chunk=4)),
    Prog("histogram", 16,
         _scenario("HistogramWorkload", 64, chunk=16, bins=16)),
    Prog("reduction", 16, _scenario("ReductionWorkload", 64, chunk=32)),
    Prog("serving", 4, _scenario("ServingWorkload", cores=4, num_requests=24)),
]

SHARDED = [Prog("copy64", 16, _matmul("copy", 64, scale=32))]
SHARDS = 2

#: the job every serve workload (and the serve probe) submits
JOB = [Prog("base16", 4, _matmul("base", 16))]


def job_payload(source, cores, tag):
    """The wire form of one job; *tag* makes the key distinct."""
    return {"jobs": [{"source": source, "filename": "job.c",
                      "params": {"num_cores": cores}, "inputs": tag}],
            "wait": True}


def memory_digest(machine, program):
    """SHA-256 over the final contents of every data segment's range, read
    through the public ``read_word``."""
    digest = hashlib.sha256()
    for seg in program.data_segments():
        for addr in range(seg.base, seg.base + len(seg.data) - 3, 4):
            digest.update(machine.read_word(addr).to_bytes(4, "little"))
    return digest.hexdigest()
