#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload against this checkout's own ``src/``, checks its outputs,
prints every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` repeats the timed window
with spans recorded around each layer call, runs the per-layer probes and
gives the per-layer metrics.  ``--repeat N`` runs N seeds and prints the
median, quartiles and relative spread of each metric.  See bench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up is measured from here

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TMP_ROOT = ".bench_tmp"   # relative to ROOT: unix socket paths must stay short
OUT_DIR = ".bench_out"

import meter
import procs
from meter import Meter
from sim import TRACED
import workloads

#: fresh-process set-ups per untraced run (this process's own included)
SETUP_REPEATS = 3
#: share of ``--seconds`` a traced run gives its window; probes take the rest
TRACED_WINDOW_SHARE = 0.4
#: how much of the kernel's slowdown set-up is corrected by.  The slope of
#: log(set-up wall) on log(kernel time) over groups of fresh processes is
#: 0.85 on sim_dense_c4 and 0.80 on sim_irregular_c16 (calibration interleaved
#: into the warm-up runs) and 0.65 on serve_miss (samples only after the
#: set-up): part of set-up is imports and process start, which follow the
#: host's speed less than the interpreter loop does, and a few samples around
#: one second of work are a noisy estimate that full division would amplify
SETUP_ELASTICITY = 0.8


class Run:
    """The state of one invocation."""

    def __init__(self, args, tmp):
        self.workload = args.workload
        #: "miss" or "hit" for the serve workloads, None for the others
        self.serve_mode = (self.workload[len("serve_"):]
                           if self.workload.startswith("serve_") else None)
        self.seed = args.seed
        self.quick = args.quick
        self.trace = bool(args.trace)
        self.window_s = args.seconds * (TRACED_WINDOW_SHARE if self.trace
                                        else 1.0)
        self.tmp = tmp
        self.src_dir = SRC_DIR
        self.recorder = None
        if self.trace:
            from spans import Recorder

            self.recorder = Recorder()
        self.setup = Meter()
        self.window = Meter()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: live daemons, killed on any exit path
        self.daemons = []
        #: the workload's programs, built (probes take the first)
        self.built = None
        #: program name -> MachineStats of one run of it
        self.sim_stats = {}
        #: every untraced request latency of a serve window
        self.latencies = []
        self._shm_before = _shm_segments()

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)
        print("FAILED: %s" % message, file=sys.stderr)

    def check_shm(self):
        """A ring segment the sharded engine left in /dev/shm since this run
        began is a leak: remove it and fail loudly."""
        for name in sorted(_shm_segments() - self._shm_before):
            if name.startswith("psm_"):
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except OSError:
                    pass
                self.fail("leaked shared-memory segment /dev/shm/%s" % name)

    def clean_up(self):
        """Every exit path: no daemon, no temp dir, no ring segment, no
        process."""
        for daemon in list(self.daemons):
            daemon.kill()
        self.daemons.clear()
        self.check_shm()
        procs.stop_resource_tracker()
        for pid, command in procs.reap_children():
            self.fail("process %d outlived the run and was killed: %s"
                      % (pid, command))
        shutil.rmtree(self.tmp, ignore_errors=True)
        if os.path.exists(self.tmp):
            self.fail("could not remove %s" % self.tmp)
        try:
            os.rmdir(TMP_ROOT)  # only when no other run is using it
        except OSError:
            pass


def _shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def scrub_environment(tmp):
    """No ``LBP_*`` knob, no installed copy, no cache outside this run."""
    for name in list(os.environ):
        if name.startswith("LBP_") or name == "PYTHONPATH":
            del os.environ[name]
    absolute = os.path.abspath(tmp)
    os.environ["LBP_CACHE_DIR"] = os.path.join(absolute, "cache")
    os.environ["XDG_CACHE_HOME"] = os.path.join(absolute, "xdg")
    os.environ["TMPDIR"] = absolute


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit("bench: no src/repro in %s: nothing to measure"
                         % ROOT)
    sys.path.insert(0, SRC_DIR)
    import repro

    found = os.path.dirname(os.path.abspath(repro.__file__))
    if found != os.path.join(SRC_DIR, "repro"):
        raise SystemExit("bench: imported repro from %s, not from this "
                         "checkout" % found)


# ---- the workloads ----------------------------------------------------------

def set_up(run, pause):
    """Everything before the first timed operation; returns the state the
    window needs.  *pause* lets calibration into the long stretches."""
    if run.serve_mode:
        import served

        return served.set_up(run, run.serve_mode)
    import sim

    progs, shards = {
        "sim_dense_c4": (workloads.DENSE, None),
        "sim_irregular_c16": (workloads.IRREGULAR, None),
        "sim_sharded_c16": (workloads.SHARDED, workloads.SHARDS),
    }[run.workload]
    run.built = sim.set_up(run, progs, shards, pause)
    return shards


def window(run, state):
    """The timed window, then the checks that need it finished."""
    if run.serve_mode:
        import served

        served.run_window(run, state, run.serve_mode)
        served.finish(run, state)
    else:
        import sim

        sim.run_window(run, run.built, state)
        run.check_shm()


def last_json(stdout):
    """The JSON object a child run printed as its last line."""
    return json.loads(stdout.decode().strip().splitlines()[-1])


def fresh_setups(run):
    """Set this workload up in SETUP_REPEATS - 1 more fresh processes, so
    that ``setup_s`` is a median and still holds what only a first use pays
    (imports, lazy tables, whatever a later change moves there)."""
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             run.workload, "--seed", str(run.seed), "--setup-only"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            stdout, _ = child.communicate(timeout=170)
        except BaseException:
            # SIGTERM, not subprocess.run's SIGKILL: the child may have a
            # daemon to stop; clean_up waits for it
            child.terminate()
            raise
        if child.returncode != 0:
            run.fail("a --setup-only child exited with %d" % child.returncode)
            continue
        sample = last_json(stdout)
        run.setup.ops["setup"].append((sample["wall_s"], sample["cal_s"]))


# ---- metrics ------------------------------------------------------------------

def untraced(run):
    return [name for name in run.window.ops if not name.endswith(TRACED)]


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest
    waited-for child (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(run, rss_mb):
    return {
        "setup_s": run.setup.cal_ms("setup", SETUP_ELASTICITY) / 1e3,
        "op_cal_ms": run.window.total_cal_ms(untraced(run)),
        "peak_rss_mb": rss_mb,
    }


def simulated(run):
    """Simulated statistics of one run of each of the workload's programs,
    summed.  Exact: a simulator-only change must not move any of them."""
    stats = list(run.sim_stats.values())
    out = {"machine." + name: sum(getattr(s, name) for s in stats)
           for name in ("cycles", "retired", "local_accesses",
                        "remote_accesses", "forks", "joins", "re_messages")}
    out["machine.gated_core_cycles"] = sum(s.skipped_core_cycles
                                           for s in stats)
    out["machine.ipc"] = out["machine.retired"] / out["machine.cycles"]
    return out


def per_layer(run, probed):
    names = untraced(run)
    out = dict(probed)
    out.update(simulated(run))
    out["bench.calib_ms"] = 1e3 * meter.median(run.window.samples)
    out["bench.calib_spread"] = meter.rel_iqr(run.window.samples)
    out["bench.trace_overhead"] = (
        run.window.total_cal_ms([name + TRACED for name in names])
        / run.window.total_cal_ms(names))
    out["bench.op_wall_ms"] = run.window.total_wall_ms(names)
    out["bench.setup_wall_s"] = run.setup.wall_ms("setup") / 1e3
    out["bench.ops"] = run.attempted
    return out


def with_units(values, kind):
    """{name: (value, unit)} with the units BENCHMARK.json declares for its
    *kind* ("end_to_end" or "per_layer") metrics, which must be exactly the
    ones measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        units = {metric["name"]: metric["unit"]
                 for metric in json.load(handle)[kind]}
    if set(values) != set(units):
        raise RuntimeError("%s metrics differ from BENCHMARK.json: %s"
                           % (kind, sorted(set(values) ^ set(units))))
    return {name: (value, units[name]) for name, value in values.items()}


# ---- output -------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from ``.git`` (the driver's checkout has
    none, and the benchmark starts no ``git``)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                head = handle.read().strip()
        return head[:12]
    except OSError:
        return "unknown"


def context(run):
    from importlib import metadata

    from repro.machine.processor import resolve_backend
    from repro.parsim.engine import choose_transport

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "workload": run.workload, "seed": run.seed, "trace": int(run.trace),
        "host": platform.node(), "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy,
        "commit": git_commit(), "backend": resolve_backend(None),
        "shard_transport": choose_transport(),
        # how fast the host was during the window, to read the rest by
        "kernel_ms": round(1e3 * meter.median(run.window.samples), 2),
    }


CONTEXT = "context  "  # the line --repeat reads the host's speed from


def report(run, stamp, metrics):
    """The human-readable part, then the one JSON line the driver reads."""
    print(CONTEXT + json.dumps(stamp, sort_keys=True))
    print("%-14s %6s %12s %12s" % ("operation", "count", "wall ms p50",
                                   "cal ms p50"))
    for name in run.window.ops:
        print("%-14s %6d %12.3f %12.3f"
              % (name, len(run.window.ops[name]), run.window.wall_ms(name),
                 run.window.cal_ms(name)))
    if run.latencies:
        print("latency ms  p50 %.3f  p90 %.3f  p99 %.3f  (n=%d, raw)"
              % tuple([1e3 * meter.quantile(run.latencies, q)
                       for q in (0.5, 0.9, 0.99)] + [len(run.latencies)]))
    print("set-up    %s  (wall s, %d fresh process(es))"
          % (" ".join("%.3f" % wall for wall, _ in run.setup.ops["setup"]),
             len(run.setup.ops["setup"])))
    print("calibration  %d samples, median %.2f ms, spread %.3f"
          % (len(run.window.samples),
             1e3 * meter.median(run.window.samples),
             meter.rel_iqr(run.window.samples)))
    if run.recorder is not None:
        print(run.recorder.table_text())
    for name, (value, unit) in metrics.items():
        print("%-32s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# ---- --repeat -------------------------------------------------------------------

def repeat(args):
    """N untraced runs on N seeds; per metric the values, the median, the
    quartiles and (Q3 - Q1) / median, which is what a bound has to cover."""
    import statistics

    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    status = 0
    for workload in names:
        runs = []
        for index in range(args.repeat):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(args.seed + index),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                + (["--quick"] if args.quick else []),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
            result = last_json(done.stdout)
            if done.returncode != 0 or not result["correct"]:
                status = 1
            stamp = [json.loads(line[len(CONTEXT):])
                     for line in done.stdout.decode().splitlines()
                     if line.startswith(CONTEXT)][0]
            result["metrics"]["(kernel, raw)"] = {
                "value": stamp["kernel_ms"], "unit": "ms"}
            runs.append(result["metrics"])
        print("## %s, %d runs, seeds %d..%d, %g s, trace %d"
              % (workload, args.repeat, args.seed,
                 args.seed + args.repeat - 1, args.seconds, args.trace))
        print("| metric | unit | median | q1 | q3 | rel IQR | values |")
        print("|---|---|---|---|---|---|---|")
        for name in runs[0]:
            values = [metrics[name]["value"] for metrics in runs]
            q1, q2, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else values * 3)
            print("| %s | %s | %.4g | %.4g | %.4g | %.4f | %s |"
                  % (name, runs[0][name]["unit"], q2, q1, q3,
                     meter.rel_iqr(values),
                     " ".join("%.4g" % value for value in values)))
        print()
    return status


# ---- main -----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS)
                        + sorted(workloads.UNJUDGED) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default 15, "
                             "--quick 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--trace-out", default=None,
                        help="where a traced run writes its spans (default "
                             "%s/trace-WORKLOAD-SEED.json)" % OUT_DIR)
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--quick", action="store_true",
                        help="a short window, one set-up, light probes: for "
                             "the smoke test, not for numbers")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 15.0
    if args.workload == "all" and not args.repeat:
        parser.error("--workload all needs --repeat N")
    if args.trace_out:
        args.trace_out = os.path.abspath(args.trace_out)  # before the chdir
    return args


def measure(run, args, state):
    """The timed window and what follows it; returns (context, metrics)."""
    run.window.catch_up()
    window(run, state)
    if run.trace:
        import probes

        metrics = with_units(per_layer(run, probes.run_probes(run)),
                             "per_layer")
        out = args.trace_out or os.path.join(
            OUT_DIR, "trace-%s-%d.json" % (run.workload, run.seed))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        run.recorder.write(out)
        print("spans    %d written to %s" % (len(run.recorder.spans), out))
    else:
        rss_mb = peak_rss_mb()  # before the set-up children are waited for
        if not run.quick:
            fresh_setups(run)
        metrics = with_units(end_to_end(run, rss_mb), "end_to_end")
    # the context here, not in report: choose_transport probes /dev/shm, and
    # that starts the resource tracker clean_up has to stop
    return context(run), metrics


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if args.repeat:
        return repeat(args)
    procs.adopt_orphans()
    procs.exit_on_sigterm()
    tmp = os.path.join(TMP_ROOT, "r%d" % os.getpid())
    os.makedirs(tmp)
    scrub_environment(tmp)
    run = Run(args, tmp)
    try:
        import_repro()
        clock = meter.Slice(run.setup, start=T0)
        clock.pause()
        state = set_up(run, clock.pause)
        run.setup.record("setup", clock.stop())
        if not args.setup_only:
            stamp, metrics = measure(run, args, state)
    finally:
        run.clean_up()
    for message in run.failures:
        print("FAILED: %s" % message)
    if args.setup_only:
        wall_s, cal_s = run.setup.ops["setup"][0]
        print(json.dumps({"wall_s": wall_s, "cal_s": cal_s}))
    else:
        report(run, stamp, metrics)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashes, and with them dict collisions and set orders,
        # change from process to process unless the seed is fixed, and that
        # moves times by a few percent: start again with it fixed (the
        # daemon and every child inherit it; T0 is taken again)
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
