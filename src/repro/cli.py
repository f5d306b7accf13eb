"""Command-line interface: compile, disassemble and run DetC programs.

Usage (installed as ``python -m repro``):

    python -m repro compile prog.c               # print assembly
    python -m repro disasm prog.c                # print the final listing
    python -m repro run prog.c --cores 4         # run, print statistics
    python -m repro check prog.c                 # referential-order races
    python -m repro check prog.c --sync req:4    # request words are sync
    python -m repro check prog.c --json          # machine-readable report
    python -m repro run prog.c --trace --trace-limit 50
    python -m repro run prog.c --trace-kinds mem_store,fork
    python -m repro run prog.c --metrics         # stall attribution table
    python -m repro run prog.c --metrics-out m.json --stats-json s.json
    python -m repro run prog.c --perfetto out.json --csv w.csv  # ui.perfetto.dev
    python -m repro run prog.c --spans --perfetto merged.json  # + service spans
    python -m repro run prog.c --print total,v:8 # dump globals after the run
    python -m repro run prog.c --profile         # cProfile the simulation
    python -m repro run prog.c --snapshot-every 100000 --snapshot-dir snaps
    python -m repro run prog.c --stop-at-cycle 5000 --snapshot-out pause.lbpsnap
    python -m repro run --resume pause.lbpsnap   # continue, bit-exact
    python -m repro experiments --h 16 --cores 4 # figure sweep, parallel+cached
    python -m repro cache stats --json           # the run cache's footprint
    python -m repro cache gc --max-bytes 100000000  # LRU-evict to a budget
    python -m repro serve --port 8321 --workers 4   # simulation-job daemon
    python -m repro submit prog.c --port 8321 --cores 4  # run via the daemon
    python -m repro submit prog.c --unix /tmp/lbp.sock --stream
"""

import argparse
import math
import os
import sys

from repro.asm.errors import AsmError
from repro.compiler import build_program, compile_c
from repro.compiler.errors import CompileError
from repro.isa.semantics import to_signed
from repro.machine import LBP, MAX_CYCLES, Params
from repro.machine.timeline import LANE_KINDS
from repro.machine.trace import KINDS as TRACE_KINDS
from repro.machine.trace import Trace, check_kinds, line as trace_line


def positive_int(text):
    """A count option's argument (``--cores``, ``--jobs``,
    ``--max-cycles``...): a positive integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "%r is not a positive integer" % (text,))
    return int(text)


def non_negative_int(text):
    """A count option that may be zero (``--trace-limit``, ``--retries``)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "%r is not a non-negative integer" % (text,))
    return int(text)


def kind_filter(text):
    """``--trace-kinds``: comma-separated kinds of ``trace.KINDS``."""
    try:
        return check_kinds([k.strip() for k in text.split(",") if k.strip()])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def port_number(text):
    """``--port``: a TCP port, 0 (ephemeral) to 65535."""
    if not text.isdecimal() or int(text) > 65535:
        raise argparse.ArgumentTypeError(
            "%r is not a port number (0 to 65535)" % (text,))
    return int(text)


def positive_seconds(text):
    """A duration option (``--job-timeout``): a positive, finite number."""
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "%r is not a positive number of seconds" % (text,))


def quota_table(text):
    """``--quotas``: a JSON object, tenant -> {"rate": R, "burst": B}."""
    import json

    from repro.serve.quota import QuotaManager

    try:
        table = json.loads(text)
        QuotaManager(table)
    except ValueError as exc:  # a JSONDecodeError is one
        raise argparse.ArgumentTypeError("%r: %s" % (text, exc)) from None
    return table


def quota_spec(text):
    """``--default-quota``: RATE[:BURST], BURST defaulting to RATE."""
    from repro.serve.quota import QuotaManager

    rate, _, burst = text.partition(":")
    try:
        QuotaManager(default=(rate, burst or rate))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r is not RATE[:BURST] with RATE >= 0 and BURST > 0"
            % (text,)) from None
    return float(rate), float(burst or rate)


def _symbol_words(program, text, option):
    """``--print`` / ``--sync``'s ``NAME[:N],...``: ``(name, address,
    words)`` per item, N a positive integer (default 1).  Raises
    ValueError naming the bad item."""
    items = []
    for item in text.split(","):
        name, colon, words = (part.strip() for part in item.partition(":"))
        if not name and not colon:
            continue
        try:
            address = program.symbol(name)
            items.append((name, address, positive_int(words) if colon else 1))
        except (KeyError, argparse.ArgumentTypeError) as exc:
            raise ValueError("%s %s: %s" % (option, item.strip(), exc.args[0]))
    return items


def _refuse(exc):
    """Input the CLI cannot use: one ``error:`` line and exit status 2, as
    argparse refuses a bad option."""
    print("error: %s" % exc, file=sys.stderr)
    raise SystemExit(2)


def _read_source(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        _refuse(exc)


def _build_program(path):
    source = _read_source(path)
    try:
        return build_program(source, path)
    except (AsmError, CompileError) as exc:
        _refuse(exc)  # its message starts with file:line


def _load_snapshot(path):
    from repro.snapshot import SnapshotError, load_snapshot

    try:
        return load_snapshot(path)
    except (OSError, SnapshotError, ValueError) as exc:
        _refuse(exc)  # (a ValueError: a value the machine's checks refuse)


def cmd_compile(args):
    source = _read_source(args.source)
    try:
        print(compile_c(source, args.source))
    except CompileError as exc:
        _refuse(exc)  # its message starts with file:line
    return 0


def cmd_disasm(args):
    print(_build_program(args.source).disassembly())
    return 0


def cmd_run(args):
    from repro import observe

    want_metrics = bool(args.metrics or args.metrics_out or args.perfetto
                        or args.csv)
    spans = clock = None
    if args.spans:
        spans = observe.SpanRecorder()
        root = spans.start("cli", tags={"source": args.source or args.resume})
    shown = args.trace_kinds or None  # what --trace prints (None: all)
    if args.resume:
        if args.trace_kinds:
            print("error: --trace-kinds cannot be given with --resume; the "
                  "kind filter travels with the snapshot", file=sys.stderr)
            return 2
        machine = _load_snapshot(args.resume)
        program = machine.program
        if want_metrics and machine.metrics is None:
            # the charge history starts at cycle 0 — an unmetered
            # snapshot cannot grow a consistent stall table mid-run
            print("error: --metrics cannot be enabled mid-run; the "
                  "snapshot was taken without metrics (a metered "
                  "snapshot resumes metered automatically)",
                  file=sys.stderr)
            return 2
        if (args.trace or args.timeline) and not machine.trace.enabled:
            # same rule: the trace starts at cycle 0
            print("error: --trace and --timeline cannot be enabled mid-run; "
                  "the snapshot was taken untraced (a traced snapshot "
                  "resumes traced automatically)", file=sys.stderr)
            return 2
    else:
        if not args.source:
            print("error: a source file is required unless --resume is given",
                  file=sys.stderr)
            return 2
        program = _build_program(args.source)
        trace_kinds = None
        if shown:
            args.trace = True  # a kind filter implies printing the trace
            # the lanes of --timeline and --perfetto are recorded too
            trace_kinds = shown.union(
                LANE_KINDS if args.timeline or args.perfetto else ())
        elif args.perfetto and not args.trace:
            trace_kinds = LANE_KINDS  # a full trace costs memory
        traced = bool(args.trace or args.timeline or args.perfetto)
        metrics = args.metrics_interval if want_metrics else None
        machine = LBP(Params(num_cores=args.cores),
                      trace=Trace(traced, kinds=trace_kinds),
                      metrics=metrics)
        machine.load(program)

    try:
        printed = _symbol_words(program, args.print or "", "--print")
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    run_kwargs = {"max_cycles": args.max_cycles}
    if args.stop_at_cycle is not None:
        run_kwargs["stop_at_cycle"] = args.stop_at_cycle
    if args.snapshot_every:
        from repro.snapshot import save_snapshot

        os.makedirs(args.snapshot_dir, exist_ok=True)

        def periodic_snapshot(m):
            path = os.path.join(
                args.snapshot_dir, "snap_%010d.lbpsnap" % m.cycle)
            save_snapshot(m, path)
            print("snapshot : cycle %d -> %s" % (m.cycle, path))

        run_kwargs["snapshot_every"] = args.snapshot_every
        run_kwargs["snapshot_callback"] = periodic_snapshot

    if spans is not None:
        run_span = spans.start("run", parent=root)
    if args.profile:
        import cProfile
        import pstats

        from repro.machine import native

        print("tick      : %s (%s)" % native.status())
        profiler = cProfile.Profile()
        profiler.enable()
        stats = machine.run(**run_kwargs)
        profiler.disable()
        print("--- profile (top 20 by cumulative time) ---")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    else:
        stats = machine.run(**run_kwargs)
    if spans is not None:
        run_span.finish(cycles=machine.cycle)
        root.finish()
        clock = observe.clock_anchor(
            run_span.start_s, run_span.end_s - run_span.start_s, stats.cycles)

    if args.snapshot_out:
        from repro.snapshot import save_snapshot

        size = save_snapshot(machine, args.snapshot_out)
        print("snapshot : cycle %d -> %s (%d bytes)"
              % (machine.cycle, args.snapshot_out, size))
    if args.stop_at_cycle is not None and not machine.halted:
        print("paused   : cycle %d (resume with --resume)" % machine.cycle)

    print("halt     :", machine.halt_reason)
    print("cycles   :", stats.cycles)
    print("retired  :", stats.retired)
    print("IPC      : %.2f (peak %d)" % (stats.ipc, machine.params.num_cores))
    print("memory   : %d local, %d remote accesses"
          % (stats.local_accesses, stats.remote_accesses))
    print("teams    : %d forks, %d joins" % (stats.forks, stats.joins))

    if args.stats_json:
        _write_stats_json(machine, args.stats_json)
        print("stats    : %s" % args.stats_json)
    if machine.metrics is not None:
        report = machine.metrics_report()
        print("--- stall attribution ---")
        for line in observe.stall_table(report):
            print(line)
        if args.metrics_out:
            observe.write_report_json(report, args.metrics_out)
            print("metrics  : %s (%d windows)"
                  % (args.metrics_out, len(report["windows"])))
        if args.csv:
            observe.write_windows_csv(report, args.csv)
            print("csv      : %s (%d windows)"
                  % (args.csv, len(report["windows"])))
    if args.perfetto:
        # with --spans: one merged service+core file on a shared clock
        count = observe.write_chrome_trace(
            machine, args.perfetto, clock=clock,
            spans=None if spans is None else spans.records())
        print("perfetto : %s (%d events; open in ui.perfetto.dev)"
              % (args.perfetto, count))
    if spans is not None:
        print("spans    : %d recorded (trace %s)" % (len(spans), root.trace_id))

    for name, base, count in printed:
        values = [to_signed(machine.read_word(base + 4 * i))
                  for i in range(count)]
        print("%-8s : %s" % (name, values if count > 1 else values[0]))

    if args.timeline:
        from repro.machine.timeline import print_timeline

        print("--- hart timeline ---")
        print_timeline(machine)
    if args.trace:
        events = [event for event in machine.trace.events
                  if shown is None or event[3] in shown]
        print("--- trace (%d events) ---" % len(events))
        for event in events[:args.trace_limit]:
            print(trace_line(event))
    return 0


def _write_stats_json(machine, path):
    """Dump the full MachineStats (per-hart retirement, memory mix,
    forks/joins) as stable-keyed JSON."""
    import json

    stats = machine.stats
    payload = {
        "summary": stats.summary(),
        "halt_reason": machine.halt_reason,
        "num_cores": stats.num_cores,
        "harts_per_core": stats.harts_per_core,
        "retired_by_core": stats.retired_by_core(),
        "state": stats.state_dict(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def cmd_check(args):
    """Run under the referential-order race detector; exit 1 on races,
    2 when the run did not finish and found none."""
    program = _build_program(args.source)
    try:
        sync = [(base, words * 4) for _name, base, words
                in _symbol_words(program, args.sync or "", "--sync")]
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    machine = LBP(Params(num_cores=args.cores), sanitize=True)
    machine.load(program)
    stopped_at = None
    try:
        machine.run(max_cycles=args.max_cycles)
    except Exception as exc:  # report observations gathered so far anyway
        print("warning: run ended abnormally: %s" % exc, file=sys.stderr)
        stopped_at = machine.cycle
    report = machine.race_report(sync=sync)
    if args.json:
        print(report.to_json())
    else:
        print(report.format(stopped_at=stopped_at))
    if report:
        return 1
    return 0 if stopped_at is None else 2


def cmd_experiments(args):
    from repro.eval import format_rows, run_matmul_figure

    cache = None
    if not args.no_cache:
        from repro.snapshot import RunCache

        cache = RunCache(args.cache_dir)
    rows = run_matmul_figure(args.h, args.cores, args.scale, jobs=args.jobs,
                             cache=cache, metrics=args.metrics)
    print(format_rows(
        rows,
        title="matmul figure — h=%d, %d cores, scale=1/%d"
              % (args.h, args.cores, args.scale)))
    print("jobs     : %d worker process(es)" % rows.meta["jobs"],
          file=sys.stderr)
    if cache is not None:
        print("cache    : %d hit(s), %d miss(es) [%s]"
              % (cache.hits, cache.misses, cache.root), file=sys.stderr)
    return 0


def cmd_serve(args):
    """Run the asyncio simulation-job daemon until SIGINT/SIGTERM."""
    import asyncio
    import signal

    from repro.serve import ServeConfig, SimServer

    config = ServeConfig(
        host=args.host, port=args.port, unix_path=args.unix,
        workers=args.workers, cache_root=args.cache_dir,
        max_cache_bytes=args.max_cache_bytes,
        max_cache_age_s=args.max_cache_age,
        job_timeout=args.job_timeout, retries=args.retries,
        progress_every=args.progress_every,
        quotas=args.quotas, default_quota=args.default_quota,
        trace_out=args.trace_out, flight_dir=args.flight_dir)

    async def main():
        server = SimServer(config)
        await server.start()
        if config.unix_path:
            print("serving  : unix %s" % config.unix_path)
        if server.bound_port is not None:
            print("serving  : http://%s:%d" % (config.host, server.bound_port))
        print("workers  : %d  cache %s" % (config.workers, server.cache.root))
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # non-unix event loop
                signal.signal(signum, lambda *_: stop.set())
        await stop.wait()
        print("draining : %d queued, %d running"
              % (server.table.depth(), server.table.running()))
        await server.drain()
        stats = server.stats()
        print("drained  : %d completed, %d hits, %d coalesced, %d evictions"
              % (stats["jobs"]["completed"], stats["jobs"]["hits"],
                 stats["jobs"]["coalesced"], stats["cache"]["evictions"]))
        if config.trace_out:
            print("trace    : %s (%d span(s); open in ui.perfetto.dev)"
                  % (config.trace_out, len(server.spans)))

    asyncio.run(main())
    return 0


def cmd_submit(args):
    """Submit one program to a running daemon; print its result."""
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(host=args.host, port=args.port, unix_path=args.unix)
    job = {
        "source": _read_source(args.source),
        "filename": os.path.basename(args.source),
        "params": {"num_cores": args.cores},
    }
    if args.inputs:
        job["inputs"] = json.loads(args.inputs)
    if args.max_cycles is not None:
        job["max_cycles"] = args.max_cycles
    try:
        if args.stream:
            record = client.submit_one(job, tenant=args.tenant,
                                       priority=args.priority, wait=False)
            if record["status"] == "hit":
                final = record
            else:
                terminal = None
                for event in client.stream(record["id"]):
                    if event["kind"] == "progress":
                        print("progress : cycle %-10d ipc %-6s top stall %s"
                              % (event["cycle"], event["ipc"],
                                 event.get("top_stall", "-")), file=sys.stderr)
                    else:
                        terminal = event
                        terminal["status"] = event["kind"]
                if terminal is None:
                    # the stream ended without a terminal event (daemon
                    # drained, connection dropped): recover the job's
                    # actual fate instead of reporting nothing
                    terminal = client.job(record["id"])
                    terminal.setdefault("status", terminal.get("state"))
                final = terminal
                final.setdefault("key", record.get("key"))
        else:
            final = client.submit_one(job, tenant=args.tenant,
                                      priority=args.priority, wait=True)
    except ServeError as exc:
        print("error    : %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(final, sort_keys=True))
        return 0 if final.get("value") else 1
    print("status   : %s" % final.get("status"))
    print("key      : %s" % final.get("key"))
    value = final.get("value")
    if not value:
        print("error    : %s" % final.get("error"), file=sys.stderr)
        return 1
    print("cycles   : %s" % value["cycles"])
    print("retired  : %s" % value["retired"])
    print("IPC      : %s" % value["summary"]["ipc"])
    return 0


def cmd_cache(args):
    from repro.snapshot import RunCache

    cache = RunCache(args.cache_dir)
    import json
    import time

    if args.action == "ls":
        rows = cache.entries()
        now = time.time()
        for key, entry_bytes, mtime in rows:
            print("%s  %8d B entry  %8ds idle"
                  % (key, entry_bytes, max(0, now - mtime)))
        print("%d entr%s in %s" % (len(rows), "y" if len(rows) == 1 else "ies",
                                   cache.root))
    elif args.action == "clear":
        removed = cache.clear()
        print("removed %d entr%s from %s"
              % (removed, "y" if removed == 1 else "ies", cache.root))
    elif args.action == "gc":
        summary = cache.gc(max_bytes=args.max_bytes, max_age_s=args.max_age)
        if args.json:
            print(json.dumps(summary, sort_keys=True))
        else:
            print("evicted %d entr%s (%d stale tmp file(s) swept); "
                  "%d entr%s / %d B remain in %s"
                  % (summary["evicted"],
                     "y" if summary["evicted"] == 1 else "ies",
                     summary["swept_tmp"], summary["remaining"],
                     "y" if summary["remaining"] == 1 else "ies",
                     summary["remaining_bytes"], cache.root))
    else:  # stats
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, sort_keys=True))
        else:
            for field, value in stats.items():
                print("%-15s: %s" % (field, value))
    return 0


def _machine_options():
    """``--cores/--max-cycles``, shared by ``run`` and ``check``."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--cores", type=positive_int, default=4)
    options.add_argument("--max-cycles", type=positive_int,
                         default=MAX_CYCLES)
    return options


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro", description="Deterministic OpenMP / LBP toolchain")
    sub = parser.add_subparsers(dest="command", required=True)
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument("--cache-dir", default=None,
                           help="run-cache root (default: $LBP_CACHE_DIR or "
                                "~/.cache/lbp-repro)")

    p_compile = sub.add_parser("compile", help="DetC source → assembly")
    p_compile.add_argument("source")
    p_compile.set_defaults(func=cmd_compile)

    p_disasm = sub.add_parser("disasm", help="final instruction listing")
    p_disasm.add_argument("source")
    p_disasm.set_defaults(func=cmd_disasm)

    p_run = sub.add_parser("run", help="simulate a program",
                           parents=[_machine_options()])
    p_run.add_argument("source", nargs="?",
                       help=".c (DetC) or .s (assembly) file "
                            "(optional with --resume)")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--trace-limit", type=non_negative_int, default=100)
    p_run.add_argument("--trace-kinds", metavar="K1,K2,...", type=kind_filter,
                       help="record only these event kinds (implies "
                            "--trace): " + ", ".join(TRACE_KINDS))
    p_run.add_argument("--timeline", action="store_true",
                       help="render per-hart activity lanes (implies traces)")
    p_run.add_argument("--print", metavar="NAME[:N],...",
                       help="dump globals after the run")
    p_run.add_argument("--profile", action="store_true",
                       help="run under cProfile; print top-20 cumulative")
    p_run.add_argument("--metrics", action="store_true",
                       help="stall attribution + windowed metrics (zero "
                            "perturbation — traces stay bit-exact)")
    p_run.add_argument("--metrics-interval", type=positive_int, default=4096,
                       metavar="K", help="sampling window, in cycles")
    p_run.add_argument("--metrics-out", metavar="PATH",
                       help="write the metrics report as JSON "
                            "(implies --metrics)")
    p_run.add_argument("--perfetto", metavar="PATH",
                       help="write Chrome trace-event JSON (open in "
                            "ui.perfetto.dev; implies --metrics, records "
                            "the team protocol unless --trace)")
    p_run.add_argument("--csv", metavar="PATH",
                       help="write the windowed metrics as CSV "
                            "(implies --metrics)")
    p_run.add_argument("--spans", action="store_true",
                       help="record service spans around the run; "
                            "--perfetto then writes the merged "
                            "service+core file on one shared clock")
    p_run.add_argument("--stats-json", metavar="PATH",
                       help="dump the full MachineStats (per-hart "
                            "retirement, memory mix, forks/joins) as "
                            "stable-keyed JSON")
    p_run.add_argument("--resume", metavar="SNAPSHOT",
                       help="restore a snapshot file and continue the run "
                            "(bit-exact)")
    p_run.add_argument("--stop-at-cycle", type=int, metavar="N",
                       help="pause (without halting) at cycle N; combine "
                            "with --snapshot-out to checkpoint")
    p_run.add_argument("--snapshot-out", metavar="PATH",
                       help="write a snapshot of the final/paused machine")
    p_run.add_argument("--snapshot-every", type=positive_int, metavar="N",
                       help="write a periodic snapshot every N cycles")
    p_run.add_argument("--snapshot-dir", default="snapshots",
                       help="directory for --snapshot-every files")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser(
        "check",
        help="run under the referential-order race detector "
             "(exit 1 when races are found)",
        parents=[_machine_options()])
    p_check.add_argument("source", help=".c (DetC) or .s (assembly) file")
    p_check.add_argument("--sync", metavar="SYM[:WORDS],...",
                         help="treat these globals as synchronization "
                              "cells (release/acquire request words, "
                              "paper §6) instead of data")
    p_check.add_argument("--json", action="store_true",
                         help="print the machine-readable RaceReport")
    p_check.set_defaults(func=cmd_check)

    p_exp = sub.add_parser(
        "experiments",
        help="run a matmul figure sweep through the parallel runner",
        parents=[cache_dir])
    p_exp.add_argument("--h", type=positive_int, default=16,
                       help="total hart count of the figure (16/64/256)")
    p_exp.add_argument("--cores", type=positive_int, default=4)
    p_exp.add_argument("--scale", type=positive_int, default=1,
                       help="work-scale divisor: each thread's inner (K) "
                            "dimension shrinks by it")
    p_exp.add_argument("--jobs", type=positive_int, default=None,
                       help="worker processes (default: LBP_JOBS or the "
                            "CPU affinity count)")
    p_exp.add_argument("--metrics", action="store_true",
                       help="record stall breakdowns per version (rows "
                            "grow a 'stalls' column)")
    p_exp.add_argument("--no-cache", action="store_true",
                       help="always simulate; skip the run cache")
    p_exp.set_defaults(func=cmd_experiments)

    p_serve = sub.add_parser(
        "serve",
        help="run the async simulation-job daemon over the run cache",
        parents=[cache_dir])
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=port_number, default=None,
                         help="TCP port (0 = ephemeral; omit for unix-only)")
    p_serve.add_argument("--unix", metavar="PATH", default=None,
                         help="unix socket path (can combine with --port)")
    p_serve.add_argument("--workers", type=positive_int, default=2,
                         help="max concurrent forked simulations")
    p_serve.add_argument("--max-cache-bytes", type=int, default=None,
                         help="LRU-evict the cache to this byte budget")
    p_serve.add_argument("--max-cache-age", type=float, default=None,
                         metavar="S", help="evict entries unused for S seconds")
    p_serve.add_argument("--job-timeout", type=positive_seconds,
                         default=None,
                         metavar="S", help="kill + retry a simulation after "
                                           "S seconds (default: none)")
    p_serve.add_argument("--retries", type=non_negative_int, default=1,
                         help="extra attempts after a timeout")
    p_serve.add_argument("--progress-every", type=positive_int,
                         default=None,
                         metavar="CYCLES",
                         help="progress-stream emission interval")
    p_serve.add_argument("--quotas", metavar="JSON", type=quota_table,
                         help='per-tenant token buckets, e.g. '
                              '\'{"t1": {"rate": 2, "burst": 10}}\' '
                              "(one token = one scheduled execution; "
                              "hits and coalesced joins are free)")
    p_serve.add_argument("--default-quota", metavar="RATE[:BURST]",
                         type=quota_spec,
                         help="bucket for tenants not listed in --quotas")
    p_serve.add_argument("--trace-out", metavar="PATH", default=None,
                         help="write the recorded service spans as a "
                              "Perfetto/Chrome trace file on drain")
    p_serve.add_argument("--flight-dir", metavar="DIR", default=None,
                         help="arm the crash flight recorder: the daemon "
                              "spills its last-N event ring here as a "
                              ".jsonl dump when a worker dies")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="run a program through a `repro serve` daemon")
    p_submit.add_argument("source", help=".c (DetC) or .s (assembly) file")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=None)
    p_submit.add_argument("--unix", metavar="PATH", default=None)
    p_submit.add_argument("--cores", type=positive_int, default=4)
    p_submit.add_argument("--inputs", metavar="JSON",
                          help="workload-inputs cache-key component")
    p_submit.add_argument("--max-cycles", type=positive_int, default=None)
    p_submit.add_argument("--tenant", default=None)
    p_submit.add_argument("--priority", default=None,
                          choices=("interactive", "batch", "bulk"))
    p_submit.add_argument("--stream", action="store_true",
                          help="stream progress events while the job runs")
    p_submit.add_argument("--json", action="store_true",
                          help="print the final record as JSON")
    p_submit.set_defaults(func=cmd_submit)

    p_cache = sub.add_parser(
        "cache",
        help="inspect, garbage-collect or clear the content-addressed "
             "run cache",
        parents=[cache_dir])
    p_cache.add_argument("action", choices=("ls", "clear", "stats", "gc"))
    p_cache.add_argument("--max-bytes", type=int, default=None, metavar="N",
                         help="gc: evict least-recently-used entries until "
                              "entries fit N bytes")
    p_cache.add_argument("--max-age", type=float, default=None, metavar="S",
                         help="gc: evict entries not used for S seconds")
    p_cache.add_argument("--json", action="store_true",
                         help="stats/gc: machine-readable JSON output")
    p_cache.set_defaults(func=cmd_cache)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
