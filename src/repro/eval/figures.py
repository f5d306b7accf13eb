"""Experiment runners + table formatting for the figure benches."""

from repro.compiler import compile_to_program
from repro.eval.runner import ExperimentResults, run_experiments
from repro.machine import LBP, Params
from repro.workloads.matmul import MATMUL_VERSIONS, matmul_source, verify_matmul


def _compile(version, h, scale):
    return compile_to_program(
        matmul_source(version, h, scale=scale), "matmul_%s.c" % version
    )


def run_matmul_experiment(version, h, num_cores, scale=1,
                          max_cycles=500_000_000, metrics=False):
    """Compile, run and verify one matmul version; returns a result row.

    *metrics* (True or a window interval) runs under stall attribution
    and grows the row a ``stalls`` breakdown plus ``stall_cycles`` — the
    "why is it slow" column.
    """
    return _measure(_compile(version, h, scale), version, h, num_cores, scale,
                    max_cycles=max_cycles, metrics=metrics)


def _measure(program, version, h, num_cores, scale,
             max_cycles=500_000_000, metrics=False):
    """Run and verify one compiled matmul version; returns its row."""
    machine = LBP(Params(num_cores=num_cores), metrics=metrics).load(program)
    stats = machine.run(max_cycles=max_cycles)
    verify_matmul(machine, program, version, h, scale=scale)
    row = {
        "workload": "matmul",
        "version": version,
        "h": h,
        "cores": num_cores,
        "scale": scale,
        "cycles": stats.cycles,
        "retired": stats.retired,
        "ipc": round(stats.ipc, 2),
        "local": stats.local_accesses,
        "remote": stats.remote_accesses,
    }
    if metrics:
        report = machine.metrics_report()
        row["stalls"] = report["stalls"]
        row["stall_cycles"] = report["stall_cycles"]
        row["link_wait"] = report["link_wait"]
    return row


def run_matmul_figure(h, num_cores, scale=1, versions=MATMUL_VERSIONS,
                      jobs=None, cache=None, metrics=False):
    """All versions of one figure as :class:`ExperimentResults`, in
    *versions* order.

    Each version is compiled here.  With a *cache* (a
    :class:`repro.snapshot.RunCache`) its row is keyed by what the run
    depends on — the program, the machine ``Params`` and whether the row
    carries a stall breakdown — so a hit is exact and a compiler change
    misses.  The misses fan out through :func:`run_experiments` on *jobs*
    workers and are stored.
    """
    params = Params(num_cores=num_cores)
    inputs = {"row": "matmul", "metrics": bool(metrics)}
    rows, keys, tasks = {}, {}, []
    for version in versions:
        program = _compile(version, h, scale)
        if cache is not None:
            keys[version] = cache.key_for(program, params, inputs)
            entry = cache.get(keys[version])
            if entry is not None:
                rows[version] = entry["value"]
                continue
        tasks.append((version, _measure,
                      (program, version, h, num_cores, scale),
                      {"metrics": metrics}))
    fresh = run_experiments(tasks, jobs=jobs)
    for version, row in fresh.items():
        canonical = None if cache is None else cache.put(keys[version], row)
        rows[version] = row if canonical is None else canonical
    return ExperimentResults(((version, rows[version]) for version in versions),
                             meta=fresh.meta)


def format_rows(rows, paper=None, title=""):
    """Render measured rows (and paper references when known) as a table."""
    lines = []
    if title:
        lines.append(title)
    with_stalls = any("stalls" in row for row in rows.values())
    header = "%-12s %12s %8s %12s" % ("version", "cycles", "ipc", "retired")
    if with_stalls:
        header += "   %-24s" % "top stall"
    if paper is not None:
        header += "   | %12s %8s %12s" % ("paper-cyc", "p-ipc", "p-retired")
    lines.append(header)
    lines.append("-" * len(header))
    for version, row in rows.items():
        line = "%-12s %12d %8.2f %12d" % (
            version, row["cycles"], row["ipc"], row["retired"]
        )
        if with_stalls:
            line += "   %-24s" % _top_stall(row)
        if paper is not None:
            ref = paper["rows"].get(version, {})
            line += "   | %12s %8s %12s" % (
                _fmt(ref.get("cycles")), _fmt(ref.get("ipc")), _fmt(ref.get("retired"))
            )
        lines.append(line)
    if paper is not None and paper.get("relations"):
        lines.append("paper's claims:")
        for relation in paper["relations"]:
            lines.append("  - " + relation)
    return "\n".join(lines)


def _top_stall(row):
    """The dominant stall reason of a metered row, as 'reason xx.x%'."""
    stalls = row.get("stalls")
    if not stalls:
        return "-"
    name, value = max(stalls.items(), key=lambda item: (item[1], item[0]))
    total = row["stall_cycles"] + row["retired"]
    return "%s %.1f%%" % (name, 100.0 * value / total if total else 0.0)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.2f" % value
    return "%d" % value
