"""Shared benchmark configuration.

Scale policy: the cycle-accurate simulator is pure Python, so the bigger
configurations run, by default, with each thread computing a fraction of
its Z columns (placement and parallel structure unchanged — see
DESIGN.md).  Set ``LBP_BENCH_SCALE=1`` for full paper scale (slow) or any
other divisor to trade fidelity for time.

Perf trajectory: every measurement taken through the ``once`` or
``fanout`` fixtures is appended to ``BENCH_perf.json`` at the repo root —
wall time plus cycles/sec and retired/sec extracted from the result —
so successive PRs can track the simulator's perf curve (see
EXPERIMENTS.md, "Simulator performance").
"""

import json
import os
import time

import pytest

_PERF_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_perf.json")


def bench_scale(default):
    """Scale divisor for the heavy figures (env LBP_BENCH_SCALE overrides)."""
    value = os.environ.get("LBP_BENCH_SCALE")
    return int(value) if value else default


def bench_jobs():
    """Worker count for the fan-out fixture (env LBP_BENCH_JOBS overrides)."""
    value = os.environ.get("LBP_BENCH_JOBS")
    return int(value) if value else None  # None → one worker per CPU


# ---- perf trajectory (BENCH_perf.json) -------------------------------------


def _extract_counts(result):
    """Total (cycles, retired) found in a benchmark's result value.

    Understands stats objects (``.cycles``/``.retired`` attributes),
    result rows (dicts with ``cycles``/``retired`` keys), and containers
    of either; anything else contributes nothing.
    """
    cycles = getattr(result, "cycles", None)
    retired = getattr(result, "retired", None)
    if isinstance(cycles, int) and isinstance(retired, int):
        return cycles, retired
    if isinstance(result, dict):
        if isinstance(result.get("cycles"), int):
            return result["cycles"], result.get("retired", 0)
        result = result.values()
    if isinstance(result, (list, tuple)) or not isinstance(result, str) \
            and hasattr(result, "__iter__"):
        total_c = total_r = 0
        for item in result:
            c, r = _extract_counts(item)
            total_c += c
            total_r += r
        return total_c, total_r
    return 0, 0


def _extract_stalls(result):
    """Merged stall breakdown found in a benchmark's result value.

    Result rows produced under stall attribution (``metrics=True``) carry
    a ``stalls`` dict; sum them across whatever container shape the
    benchmark returned.  Returns ``{}`` when the run was unmetered.
    """
    merged = {}
    if isinstance(result, dict):
        stalls = result.get("stalls")
        if isinstance(stalls, dict):
            for reason, count in stalls.items():
                merged[reason] = merged.get(reason, 0) + count
            return merged
        result = result.values()
    if isinstance(result, (list, tuple)) or not isinstance(result, str) \
            and hasattr(result, "__iter__"):
        for item in result:
            for reason, count in _extract_stalls(item).items():
                merged[reason] = merged.get(reason, 0) + count
    return merged


def _extract_workload(result):
    """The workload name recorded in a benchmark's result rows.

    Experiment rows stamped at the source (see
    :func:`repro.eval.figures.run_matmul_experiment`) carry a
    ``workload`` key; the first one found wins.  None when absent.
    """
    if isinstance(result, dict):
        workload = result.get("workload")
        if isinstance(workload, str):
            return workload
        result = result.values()
    if isinstance(result, (list, tuple)) or not isinstance(result, str) \
            and hasattr(result, "__iter__"):
        for item in result:
            workload = _extract_workload(item)
            if workload is not None:
                return workload
    return None


#: experiment-name fallbacks for benchmarks whose results don't carry a
#: ``workload`` key — first substring match wins
_WORKLOAD_BY_NAME = (
    ("serve_load", "job_service"),
    ("serving", "serving"),
    ("matmul", "matmul"),
    ("setget", "setget"),
    ("io_", "iopatterns"),
    ("router", "matmul"),
    ("cycle_determinism", "matmul"),
    ("classic_smp", "synthetic"),
    ("overhead", "matmul"),
    ("cache_sweep", "matmul"),
    ("shard", "matmul"),
    ("pipeline", "alu_micro"),
)


def _infer_workload(experiment):
    for needle, workload in _WORKLOAD_BY_NAME:
        if needle in experiment:
            return workload
    return "unknown"


def _record_perf(experiment, wall, result, jobs=None, extra=None):
    cycles, retired = _extract_counts(result)
    stalls = _extract_stalls(result)
    # a wall time at (or below) the clock's resolution is noise — a warm
    # cache hit, say — and dividing by it fabricates absurd throughput;
    # record the raw time at microsecond precision and null the rates
    resolution = time.get_clock_info("perf_counter").resolution
    floor = max(resolution, 1e-6)
    measurable = wall > floor
    # a result with no simulation counters at all (an OS-jitter spread,
    # a bare IPC curve) is a wall-time row, not a throughput sample:
    # mark it non_perf and null the rates so it cannot drag aggregate
    # cycles/sec trends toward zero
    simulated = cycles > 0 or retired > 0
    entry = {
        "experiment": experiment,
        # never record 0.0: an immeasurably fast run clamps to the floor
        "wall_s": round(wall, 6) if measurable else floor,
        "cycles": cycles,
        "retired": retired,
        "cycles_per_s": round(cycles / wall) if measurable and simulated
        else None,
        "retired_per_s": round(retired / wall) if measurable and simulated
        else None,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        # every trajectory row names its workload so per-workload perf
        # curves can be separated out; result rows win over inference,
        # and an explicit ``extra`` key (merged below) wins over both
        "workload": _extract_workload(result) or _infer_workload(experiment),
    }
    # whether span recording was live during the measured run (PR 10):
    # rows default to the untraced hot path; trace-overhead benchmarks
    # override via ``extra`` so traced and untraced samples never mix in
    # one trend line
    entry["traced"] = False
    if not simulated:
        entry["non_perf"] = True
    if stalls:
        entry["stalls"] = stalls
    if jobs is not None:
        entry["jobs"] = jobs
    if extra:
        entry.update(extra)
    try:
        with open(_PERF_PATH) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        data = {"runs": []}
    data["runs"].append(entry)
    with open(_PERF_PATH, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


# ---- fixtures ---------------------------------------------------------------


@pytest.fixture
def once(benchmark, request):
    """Run a callable exactly once under pytest-benchmark timing.

    Also appends the measurement to the BENCH_perf.json trajectory.
    """

    def runner(fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                    iterations=1, rounds=1)
        _record_perf(request.node.name, time.perf_counter() - t0, result)
        return result

    return runner


@pytest.fixture
def perf_record(request):
    """Append one custom measurement row to BENCH_perf.json.

    For benchmarks whose primary product is not a simulation result —
    the serve load test records latency percentiles, for example —
    ``perf_record(wall_s, result, extra={...})`` writes the trajectory
    row directly; *extra* keys merge into the entry.
    """

    def record(wall_s, result=None, jobs=None, extra=None):
        _record_perf(request.node.name, wall_s, result, jobs=jobs,
                     extra=extra)

    return record


@pytest.fixture
def fanout(request):
    """Run independent simulation tasks through the parallel runner.

    ``fanout(tasks, jobs=None)`` forwards to
    :func:`repro.eval.runner.run_experiments` (tasks are ``(key, fn,
    args, kwargs)`` tuples, merged in task order), times the batch, and
    appends the measurement to BENCH_perf.json.  ``jobs`` defaults to
    ``LBP_BENCH_JOBS`` or one worker per CPU; the merged results are
    byte-identical whatever the worker count.
    """
    from repro.eval.runner import run_experiments

    def run(tasks, jobs=None):
        if jobs is None:
            jobs = bench_jobs()
        t0 = time.perf_counter()
        results = run_experiments(tasks, jobs=jobs)
        # record the job count the runner actually resolved, not the
        # request (None means "runner's default")
        resolved = getattr(results, "meta", {}).get("jobs", jobs)
        _record_perf(request.node.name, time.perf_counter() - t0,
                     results, jobs=resolved)
        return results

    return run
