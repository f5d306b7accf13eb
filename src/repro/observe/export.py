"""Assemble and serialize telemetry reports (table / JSON / CSV).

``build_report`` reads a finished (or paused) machine and produces one
plain-data dict; everything downstream — the CLI table, the JSON dump,
the CSV time series, the Perfetto counter tracks — renders that dict.
Report assembly never mutates telemetry state, so reporting twice (or
reporting, resuming, reporting again) is safe and deterministic.
"""

import json

from repro.observe.metrics import NUM_REASONS, STALL_REASONS


def build_report(machine):
    """One stable-keyed dict with totals, per-core slices and windows."""
    metrics = machine.metrics
    if metrics is None:
        raise ValueError(
            "build_report() needs a machine constructed with LBP(metrics=...)")
    stats = machine.stats
    params = machine.params
    cycles = stats.cycles if stats.cycles else machine.cycle
    retired = stats.retired
    slots = metrics.slots
    stalls_per_core = [list(slot.stalls) for slot in slots]
    totals = [sum(core[i] for core in stalls_per_core)
              for i in range(NUM_REASONS)]
    stall_cycles = sum(totals)
    stage_cycles = params.num_cores * cycles
    return {
        "interval": metrics.interval,
        "num_cores": params.num_cores,
        "harts_per_core": params.harts_per_core,
        "cycles": cycles,
        "retired": retired,
        "ipc": round(stats.ipc, 4),
        "stage_cycles": stage_cycles,
        "stall_cycles": stall_cycles,
        "accounted": stall_cycles + retired == stage_cycles,
        "stalls": dict(zip(STALL_REASONS, totals)),
        "stalls_per_core": stalls_per_core,
        "link_wait": sum(slot.link_wait for slot in slots),
        "link_wait_per_core": [slot.link_wait for slot in slots],
        "local_accesses": stats.local_accesses,
        "remote_accesses": stats.remote_accesses,
        "windows": _merged_windows(machine, metrics, cycles),
    }


def _merged_windows(machine, metrics, cycles):
    """Machine-level window rows: per-core samples merged by window index."""
    interval = metrics.interval
    merged = {}
    for index in range(machine.params.num_cores):
        for row in metrics.core_rows(index, cycles):
            window = row[0]
            agg = merged.get(window)
            if agg is None:
                agg = merged[window] = [0, 0, 0, 0, 0, [0] * NUM_REASONS]
            agg[0] += row[1]
            agg[1] += row[2]
            agg[2] += row[3]
            agg[3] += row[4]
            agg[4] += row[5]
            for i, value in enumerate(row[6]):
                agg[5][i] += value
    rows = []
    for window in sorted(merged):
        retired, active, local, remote, link_wait, stalls = merged[window]
        start = window * interval
        end = min(start + interval, cycles)
        width = end - start
        rows.append({
            "window": window,
            "start": start,
            "end": end,
            "retired": retired,
            "ipc": round(retired / width, 4) if width else 0.0,
            "active_harts": active,
            "local": local,
            "remote": remote,
            "link_wait": link_wait,
            "stalls": dict(zip(STALL_REASONS, stalls)),
        })
    return rows


def report_json(report, compact=False):
    """Stable-keyed JSON text (compact form is the byte-compare format)."""
    if compact:
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def stall_table(report):
    """The stall-attribution table as text lines."""
    stage_cycles = report["stage_cycles"]
    lines = [
        "stall attribution: %d cycles x %d cores = %d stage-cycles"
        % (report["cycles"], report["num_cores"], stage_cycles),
    ]
    rows = [("retired", report["retired"])]
    rows += sorted(
        report["stalls"].items(), key=lambda item: (-item[1], item[0]))
    for name, value in rows:
        if value == 0 and name != "retired":
            continue
        share = 100.0 * value / stage_cycles if stage_cycles else 0.0
        lines.append("  %-20s %12d  %5.1f%%" % (name, value, share))
    lines.append(
        "  %-20s %12d  %s" % (
            "total", report["stall_cycles"] + report["retired"],
            "(identity holds)" if report["accounted"]
            else "(MISMATCH vs %d stage-cycles)" % stage_cycles))
    lines.append(
        "  router link-wait: %d cycles of queueing on reserved paths"
        % report["link_wait"])
    return lines


def transport_table(transport_stats):
    """The sharded run's epoch counters as text lines.

    *transport_stats* is ``ShardedLBP.transport_stats`` — the one piece
    of telemetry that deliberately lives OUTSIDE the deterministic
    report: ``epoch_wait`` is wall-clock time the workers spent blocked
    on the epoch barrier, so it varies run to run while the metrics
    report must stay byte-identical for any shard count.  Returns ``[]``
    for an in-process (unsharded) run — whether that is a missing stats
    object (plain ``LBP``) or the zeroed same-schema object degenerate
    ``shards=1`` runs publish.
    """
    if not transport_stats or not transport_stats.get("per_shard"):
        return []
    lines = [
        "epochs: %d shards, %d epochs (%d fast-forwarded, "
        "%d cycles skipped)"
        % (transport_stats["shards"], transport_stats["epochs"],
           transport_stats["ff_epochs"], transport_stats["ff_cycles"]),
        "  %-8s %12s" % ("shard", "epoch_wait"),
    ]
    for shard in transport_stats["per_shard"]:
        lines.append("  %-8d %11.3fs"
                     % (shard["shard"], shard["epoch_wait_s"]))
    return lines


def windows_csv(report):
    """The windowed series as CSV text (one row per window)."""
    header = ["window", "start", "end", "retired", "ipc", "active_harts",
              "local", "remote", "link_wait"] + list(STALL_REASONS)
    lines = [",".join(header)]
    for row in report["windows"]:
        fields = [row["window"], row["start"], row["end"], row["retired"],
                  row["ipc"], row["active_harts"], row["local"],
                  row["remote"], row["link_wait"]]
        fields += [row["stalls"][name] for name in STALL_REASONS]
        lines.append(",".join(str(field) for field in fields))
    return "\n".join(lines) + "\n"


def write_report_json(report, path):
    with open(path, "w") as handle:
        handle.write(report_json(report))


def write_windows_csv(report, path):
    with open(path, "w") as handle:
        handle.write(windows_csv(report))
