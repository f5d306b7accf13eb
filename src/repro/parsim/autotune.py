"""Traffic-driven shard auto-tuning (``shards="auto"``).

The tuner answers one question: given this machine, this program and
this host, how many shards pay for their epoch overhead?  It runs a
short **calibration prefix** of the workload in-process on a throwaway
clone of the machine, counting every posted event against the candidate
partitions, then scores each candidate by parallel width discounted by
its measured cross-shard traffic:

    score(S) = S / (1 + crossings_per_cycle(S) / num_cores)

Cross-shard traffic is what epochs exist to carry: a candidate whose
partition boundaries cut hot event paths (router hops, neighbour lines,
continuation-value writes) scores closer to 1 and loses to a coarser
cut.  Candidates are powers of two bounded by the host's usable CPUs and
by one core per shard; with a single CPU the tuner short-circuits to 1
shard without calibrating.

The decision record — candidates, crossing counts, scores, the pick and
why — is returned alongside the pick, lands on
``ShardedLBP.auto_decision``, and the experiments CLI copies it into
``ExperimentResults.meta`` so BENCH rows can attribute the choice.
"""

import os

#: calibration prefix length, in cycles (LBP_AUTOTUNE_CYCLES overrides)
DEFAULT_CALIB_CYCLES = 2048


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def candidate_shards(num_cores, cpus):
    """Power-of-two shard counts worth considering on this host."""
    candidates = []
    shard = 1
    while shard <= min(num_cores, cpus):
        candidates.append(shard)
        shard *= 2
    return candidates


def measure_crossings(master, calib_cycles, candidates):
    """Run a calibration prefix on a clone; tally boundary crossings.

    Returns ``(cycles_run, {shards: crossings})`` — the number of events
    posted across each candidate partition's shard boundaries during the
    prefix.  The clone starts from the master's current state (so a
    resumed run calibrates on the phase it is actually in) and is thrown
    away afterwards; the master is never touched.
    """
    from repro.machine.processor import LBP
    from repro.parsim.engine import partition_cores

    clone = LBP(master.params)
    clone.load(master.program, start=False)
    clone.load_state_dict(master.state_dict())
    start = clone.cycle

    pairs = {}  # (origin_core, dst_core) -> posts
    inner_post = clone.post

    def counting_post(dst, cycle, kind, args):
        key = (clone._origin, dst)
        pairs[key] = pairs.get(key, 0) + 1
        inner_post(dst, cycle, kind, args)

    clone.post = counting_post
    try:
        clone.run(stop_at_cycle=start + calib_cycles)
    except Exception:
        # a prefix that halts/errors/deadlocks still measured traffic
        pass
    cycles_run = max(clone.cycle - start, 1)

    crossings = {}
    num_cores = master.params.num_cores
    for shards in candidates:
        owner = {}
        for index, (lo, hi) in enumerate(partition_cores(num_cores, shards)):
            for core in range(lo, hi):
                owner[core] = index
        crossings[shards] = sum(
            count for (origin, dst), count in pairs.items()
            if owner[origin] != owner[dst])
    return cycles_run, crossings


def choose_shards(master, max_cycles=None):
    """Pick a shard count for *master*; returns ``(shards, decision)``."""
    cpus = usable_cpus()
    num_cores = master.params.num_cores
    candidates = candidate_shards(num_cores, cpus)
    decision = {
        "requested": "auto",
        "cpus": cpus,
        "num_cores": num_cores,
        "candidates": candidates,
    }
    if candidates == [1]:
        decision["shards"] = 1
        decision["source"] = "cpu-count"
        decision["reason"] = (
            "single usable CPU" if cpus <= 1 else "single core")
        return 1, decision

    calib = int(os.environ.get("LBP_AUTOTUNE_CYCLES")
                or DEFAULT_CALIB_CYCLES)
    if max_cycles is not None:
        calib = min(calib, max_cycles)
    try:
        cycles_run, crossings = measure_crossings(master, calib, candidates)
    except Exception as exc:
        # calibration is best-effort: fall back to the widest cut the
        # host can actually run in parallel
        pick = candidates[-1]
        decision["shards"] = pick
        decision["source"] = "cpu-count"
        decision["reason"] = "calibration failed: %s" % (exc,)
        return pick, decision

    scores = {}
    for shards in candidates:
        rate = crossings[shards] / cycles_run / num_cores
        scores[shards] = shards / (1.0 + rate)
    # argmax, ties to the smaller (cheaper) cut
    pick = max(candidates, key=lambda s: (scores[s], -s))
    decision.update({
        "shards": pick,
        "source": "calibration",
        "calib_cycles": cycles_run,
        "crossings": crossings,
        "scores": {s: round(scores[s], 4) for s in candidates},
    })
    return pick, decision
