"""Experiment runners + table formatting for the figure benches."""

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.workloads.matmul import MATMUL_VERSIONS, matmul_source, verify_matmul


def run_matmul_experiment(version, h, num_cores, scale=1,
                          max_cycles=500_000_000, shards=None, metrics=False):
    """Compile, run and verify one matmul version; returns a result row.

    *shards* runs the space-sharded engine; the results are bit-identical
    to ``shards=None``, so the row is the same either way — only the wall
    time changes.  *metrics* (True or a window interval) runs under stall
    attribution and grows the row a ``stalls`` breakdown plus
    ``stall_cycles`` — the "why is it slow" column.
    """
    program = compile_to_program(
        matmul_source(version, h, scale=scale), "matmul_%s.c" % version
    )
    machine = LBP(Params(num_cores=num_cores), shards=shards,
                  metrics=metrics).load(program)
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


def run_matmul_figure(h, num_cores, scale=1, versions=MATMUL_VERSIONS):
    """All versions of one figure; returns {version: row}."""
    return {
        version: run_matmul_experiment(version, h, num_cores, scale)
        for version in versions
    }


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
