"""Zero-perturbation telemetry: stall attribution, spans, exporters.

Public surface::

    from repro.observe import Metrics
    machine = LBP(params, metrics=Metrics(interval=4096))
    machine.run()
    report = machine.metrics_report()       # build_report(machine)
    print("\\n".join(stall_table(report)))
    write_chrome_trace(machine, "trace.json")   # open in ui.perfetto.dev

Service-plane observability (PR 10) rides the same module: monotonic
span records with by-value trace propagation (``SpanRecorder``),
Prometheus text rendering/validation for the daemon's ``/metrics``
endpoint (``observe.prom``), the merged service+core Perfetto export
(``merged_chrome_trace``), and the crash flight recorder
(``FlightRecorder``).

Every hook is observation-only (see ``observe/metrics.py`` and
``observe/spans.py``): golden trace digests are bit-exact with
telemetry *and* spans enabled, and shards=1 vs N produce byte-identical
reports.
"""

from repro.observe.export import (
    build_report,
    report_json,
    stall_table,
    windows_csv,
    write_report_json,
    write_windows_csv,
)
from repro.observe.metrics import (
    DEFAULT_INTERVAL,
    STALL_REASONS,
    CoreTelemetry,
    Metrics,
)
from repro.observe.perfetto import (
    chrome_trace,
    merged_chrome_trace,
    shared_clock_errors,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observe.prom import (
    Histogram,
    render,
    validate_prometheus_text,
)
from repro.observe.spans import (
    FlightRecorder,
    Span,
    SpanRecorder,
    clock_anchor,
    flight,
    flight_dir,
    mint_trace_id,
    read_flight_dump,
)

__all__ = [
    "DEFAULT_INTERVAL",
    "STALL_REASONS",
    "CoreTelemetry",
    "FlightRecorder",
    "Histogram",
    "Metrics",
    "Span",
    "SpanRecorder",
    "build_report",
    "chrome_trace",
    "clock_anchor",
    "flight",
    "flight_dir",
    "merged_chrome_trace",
    "mint_trace_id",
    "read_flight_dump",
    "render",
    "report_json",
    "shared_clock_errors",
    "stall_table",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "windows_csv",
    "write_chrome_trace",
    "write_report_json",
    "write_windows_csv",
]
