"""The per-layer probes of a traced run.

Every traced run, whatever its workload, runs this one suite, so every
per-layer metric is measured on every workload.  The in-process probes take
the workload's first program as their *subject*; the serve probe always
submits the standard job, because the cost of the service barely depends on
the program behind it.  Each probe goes through public functions only.

Metrics marked *exact* in bench/README.md are counts that repeat bit for bit
from run to run: they compare two versions of the program without any of the
host's noise.  Times are single measurements or medians of a few and carry all
of it; they say where to look, not how much was won.
"""

import os
import sys
import threading
import time

from meter import Meter, Slice, median, quantile
from sim import Built, signature, simulate
from workloads import DENSE, JOB, PAUSE_CYCLES, SHARDS

PROFILE_CYCLES = 4000

#: per-layer metrics that are counts made by the program and repeat bit for
#: bit: same value in every run with the same seed, whatever the host does.
#: A change that claims to leave simulated behaviour alone must not move the
#: machine.*, observe.* and snapshot.* ones; bench/tests checks the list.
EXACT = (
    "compiler.asm_lines", "asm.instrs",
    "machine.calls_per_retired", "machine.calls_per_cycle",
    "machine.cycles", "machine.retired", "machine.ipc",
    "machine.local_accesses", "machine.remote_accesses", "machine.forks",
    "machine.joins", "machine.re_messages", "machine.gated_core_cycles",
    "observe.stall.retired", "observe.stall.fetch_starved",
    "observe.stall.operand_wait", "observe.stall.issue_wait",
    "observe.stall.exec_wait", "observe.stall.local_mem_wait",
    "observe.stall.remote_mem_wait", "observe.stall.router_backpressure",
    "observe.stall.re_line_wait", "observe.stall.fork_wait",
    "observe.stall.barrier_wait", "observe.stall.gated_idle",
    "snapshot.bytes", "eval.fig19_tiled_ipc_err", "fastsim.cycle_err",
    "parsim.epochs", "parsim.ff_epochs", "parsim.ff_cycles",
    "serve.executed", "serve.hits", "serve.misses", "serve.coalesced",
)


def _ms(seconds):
    return 1e3 * seconds


def probe_build(run, subject):
    """Generate, compile and assemble the subject three more times."""
    builds = [Built(subject.prog, run.seed) for _ in range(3)]
    return {
        "workloads.gen_ms": _ms(median([b.gen_s for b in builds])),
        "compiler.compile_ms": _ms(median([b.compile_s for b in builds])),
        "compiler.asm_lines": subject.asm.count("\n"),
        "asm.assemble_ms": _ms(median([b.assemble_s for b in builds])),
        "asm.instrs": len(subject.program.instructions),
    }


def _timed_run(meter, name, subject, shards=None, **machine_kw):
    """One calibrated load+run; returns (machine, stats, load s, run s)."""
    from repro.machine import LBP

    slice_ = Slice(meter)
    start = time.perf_counter()
    machine = LBP(subject.params, shards=shards, **machine_kw)
    machine.load(subject.program)
    loaded = time.perf_counter()
    if shards:
        stats = machine.run()
    else:
        stats = machine.run(snapshot_every=PAUSE_CYCLES,
                            snapshot_callback=slice_.pause)
    wall_s = slice_.stop()
    meter.record(name, wall_s)
    return machine, stats, loaded - start, wall_s - (loaded - start)


def probe_machine(run, subject, meter):
    """A plain run, a metered run and a sharded run of the subject, each
    calibrated against the same meter; all three must agree."""
    out = {}
    machine, stats, load_s, run_s = _timed_run(meter, "plain", subject)
    plain = signature(subject, machine, stats)
    out["machine.load_ms"] = _ms(load_s)
    out["machine.run_s"] = run_s
    out["machine.retired_per_s"] = stats.retired / run_s
    out["machine.us_per_cycle"] = 1e6 * run_s / stats.cycles

    machine, stats, _, _ = _timed_run(meter, "metered", subject, metrics=True)
    if signature(subject, machine, stats) != plain:
        run.fail("probe: metrics=True changed the result of %s"
                 % subject.name)
    report = machine.metrics_report()
    out["observe.stall.retired"] = report["retired"]
    for reason, cycles in report["stalls"].items():
        out["observe.stall." + reason] = cycles
    if not report["accounted"]:
        run.fail("probe: stalls + retired != cores x cycles on %s"
                 % subject.name)
    out["observe.metrics_overhead"] = (meter.cal_ms("metered")
                                       / meter.cal_ms("plain"))

    machine, stats, _, wall_s = _timed_run(meter, "sharded", subject,
                                           shards=SHARDS)
    if signature(subject, machine, stats) != plain:
        run.fail("probe: shards=%d changed the result of %s"
                 % (SHARDS, subject.name))
    run.check_shm()
    transport = machine.transport_stats
    out["parsim.speedup"] = meter.cal_ms("plain") / meter.cal_ms("sharded")
    out["parsim.epochs"] = transport["epochs"]
    out["parsim.ff_epochs"] = transport["ff_epochs"]
    out["parsim.ff_cycles"] = transport["ff_cycles"]
    out["parsim.spills"] = sum(shard.get("spills", 0)
                               for shard in transport["per_shard"])
    out["parsim.epoch_wait_share"] = (
        transport["epoch_wait_s"] / (transport["shards"] * wall_s))
    return out, plain


def probe_calls(subject):
    """Python and C calls the simulator makes per retired instruction and
    per simulated cycle, counted by ``sys.setprofile`` over the first
    PROFILE_CYCLES cycles.  Exact: same count in every process."""
    from repro.machine import LBP

    machine = LBP(subject.params).load(subject.program)
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profiler)
    try:
        stats = machine.run(stop_at_cycle=PROFILE_CYCLES)
    finally:
        sys.setprofile(None)
    return {"machine.calls_per_retired": calls / stats.retired,
            "machine.calls_per_cycle": calls / machine.cycle}


def probe_snapshot(run, subject, plain):
    """Pause half way, snapshot, restore, resume: the resumed run must end
    exactly where the uninterrupted one did."""
    from repro.machine import LBP
    from repro.snapshot import restore, snapshot

    machine = LBP(subject.params).load(subject.program)
    machine.run(stop_at_cycle=plain[0] // 2)
    start = time.perf_counter()
    blob = snapshot(machine)
    encoded = time.perf_counter()
    resumed = restore(blob)
    restored = time.perf_counter()
    stats = resumed.run()
    if signature(subject, resumed, stats) != plain:
        run.fail("probe: snapshot/restore changed the result of %s"
                 % subject.name)
    return {"snapshot.encode_ms": _ms(encoded - start),
            "snapshot.restore_ms": _ms(restored - encoded),
            "snapshot.bytes": len(blob)}


def probe_cache(run, subject, stats):
    """``RunCache`` key, put and get on a store of this run's own."""
    from repro.snapshot import RunCache

    cache = RunCache(os.path.join(run.tmp, "probe-cache"))
    value = {"summary": stats.summary(), "cycles": stats.cycles,
             "retired": stats.retired}
    key_s, put_s, get_s = [], [], []
    for index in range(20):
        start = time.perf_counter()
        key = cache.key_for(program=subject.program, params=subject.params,
                            inputs={"probe": index})
        keyed = time.perf_counter()
        cache.put(key, value)
        stored = time.perf_counter()
        entry = cache.get(key)
        loaded = time.perf_counter()
        if entry is None or entry["value"] != value:
            run.fail("probe: RunCache.get did not return what was put")
        key_s.append(keyed - start)
        put_s.append(stored - keyed)
        get_s.append(loaded - stored)
    return {"snapshot.cache_key_ms": _ms(median(key_s)),
            "snapshot.cache_put_ms": _ms(median(put_s)),
            "snapshot.cache_get_ms": _ms(median(get_s))}


def _nothing():
    return 0


def probe_fork(run):
    """A ``ForkedTask`` that does nothing: fork, one message, join."""
    from repro.eval.runner import ForkedTask

    samples = []
    for _ in range(5):
        start = time.perf_counter()
        task = ForkedTask(_nothing)
        message = task.recv()
        task.close()
        samples.append(time.perf_counter() - start)
        if message[0] == "err":
            run.fail("probe: ForkedTask no-op failed: %r" % (message,))
    return {"eval.fork_roundtrip_ms": _ms(median(samples))}


def probe_accuracy(run, subject, plain, stats):
    """The fast model against the cycle-accurate one on the subject, and the
    cycle-accurate tiled matmul against the one number the paper quotes for
    it (fig. 19: IPC 3.67 on 4 cores)."""
    from repro.eval.paper_data import PAPER_FIG19
    from repro.fastsim.sim import FastLBP

    start = time.perf_counter()
    fast = FastLBP(subject.params).load(subject.program)
    fast_stats = fast.run()
    wall_s = time.perf_counter() - start
    subject.verify(fast, subject.program)
    if subject.name != DENSE[0].name:
        _, stats = simulate(Built(DENSE[0], run.seed))
    paper_ipc = PAPER_FIG19["rows"]["tiled"]["ipc"]
    return {"fastsim.cycle_err": abs(fast_stats.cycles - plain[0]) / plain[0],
            "fastsim.retired_per_s": fast_stats.retired / wall_s,
            "eval.fig19_tiled_ipc_err": abs(stats.ipc - paper_ipc) / paper_ipc}


def _on_two_connections(session, tag, count):
    """*count* submissions of *tag* on each of two fresh connections at
    once; returns one list of (latency, status, body) per connection, None
    for a connection that raised."""
    results = [None, None]

    def client(index):
        conn = session.daemon.connect()
        try:
            results[index] = [session.raw_submit(tag, conn)
                              for _ in range(count)]
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def probe_serve(run):
    """A daemon of the probe's own under a fixed plan: misses, coalesce
    rounds (2 connections, one fresh key), hits on 1 and on 2 connections;
    pinned to one CPU like the serve workloads."""
    import repro.serve.worker  # noqa: F401  (imported before it is timed)
    from served import Session, pin_to_one_cpu, reference_value

    pin_to_one_cpu()  # the last probe: nothing after it wants two CPUs
    hits = 40 if run.quick else 200
    rounds = 1 if run.quick else 2
    out = {}
    session = Session(run, "probe")
    daemon = session.daemon
    out["serve.start_ms"] = _ms(daemon.start_s)

    rtts = []
    for _ in range(20):
        start = time.perf_counter()
        session.conn.request("GET", "/stats")
        rtts.append(time.perf_counter() - start)
    out["serve.http_rtt_ms"] = _ms(median(rtts))

    misses = [session.submit("key-0"), session.submit(session.fresh_tag())]
    out["serve.miss_p50_ms"] = _ms(median(misses))
    start = time.perf_counter()
    built = Built(JOB[0], run.seed)
    value, _ = reference_value(built)
    in_process_s = time.perf_counter() - start
    if session.value != value:
        run.fail("probe: the served value differs from the in-process one")
    out["serve.miss_overhead_ms"] = _ms(median(misses) - in_process_s)

    coalesced = []
    for _ in range(rounds):
        tag = session.fresh_tag()
        for answers in _on_two_connections(session, tag, 1):
            if answers is None:
                run.fail("probe: a coalesce request raised")
                continue
            latency, status, body = answers[0]
            session.account(tag, status, body, "done")
            coalesced.append(latency)
    out["serve.coalesce_p50_ms"] = _ms(median(coalesced))

    cpu_before = daemon.cpu_s()
    latencies = [session.submit("key-0") for _ in range(hits)]
    out["serve.daemon_cpu_ms_per_hit"] = _ms(
        (daemon.cpu_s() - cpu_before) / hits)
    out["serve.hit_p50_ms"] = _ms(median(latencies))
    out["serve.hit_p90_ms"] = _ms(quantile(latencies, 0.90))
    out["serve.hit_p99_ms"] = _ms(quantile(latencies, 0.99))

    start = time.perf_counter()
    both = _on_two_connections(session, "key-0", hits // 2)
    wall_s = time.perf_counter() - start
    for answers in both:
        if answers is None:
            run.fail("probe: a hit connection raised")
            continue
        for _, status, body in answers:
            session.account("key-0", status, body, "hit")
    out["serve.hits_per_s"] = 2 * (hits // 2) / wall_s

    status, text = session.conn.request("GET", "/metrics")
    total = count = None
    for line in text.splitlines() if status == 200 else ():
        if line.startswith("repro_job_execute_seconds_sum"):
            total = float(line.split()[-1])
        elif line.startswith("repro_job_execute_seconds_count"):
            count = float(line.split()[-1])
    if not count:
        run.fail("probe: /metrics has no repro_job_execute_seconds")
        total, count = 0.0, 1.0
    out["serve.execute_mean_ms"] = _ms(total / count)

    stats = session.check_counters() or {"jobs": {}, "cache": {}}
    for name in ("executed", "hits", "misses", "coalesced"):
        out["serve." + name] = stats["jobs"].get(name, -1)
    if stats["jobs"].get("coalesced") != rounds:
        run.fail("probe: %d coalesce round(s), /stats counted %r"
                 % (rounds, stats["jobs"].get("coalesced")))
    out["serve.cache_disk_bytes"] = stats["cache"].get("disk_bytes", -1)
    out["serve.drain_ms"] = _ms(session.close())
    return out


def run_probes(run):
    """The whole suite; returns {metric name: value}."""
    subject = run.built[0]
    meter = Meter()
    meter.catch_up()
    out = probe_build(run, subject)
    machine_out, plain = probe_machine(run, subject, meter)
    out.update(machine_out)
    out.update(probe_calls(subject))
    out.update(probe_snapshot(run, subject, plain))
    stats = run.sim_stats[subject.name]
    out.update(probe_cache(run, subject, stats))
    out.update(probe_fork(run))
    out.update(probe_accuracy(run, subject, plain, stats))
    out.update(probe_serve(run))
    return out
