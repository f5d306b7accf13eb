"""Parallel experiment runner: deterministic fan-out and merge.

The contract under test: ``run_experiments`` merges results in *task
order* (never completion order), so a parallel run is byte-identical to
the sequential path — the acceptance bar for using it in the
determinism and ablation benchmarks.
"""

import pickle

import pytest

from repro.eval.runner import default_jobs, run_experiments


def _square(x):
    return x * x


def _row(version, scale):
    # shaped like an eval result row; nested structure exercises pickling
    return {"version": version, "scale": scale,
            "cycles": 1000 * scale + len(version),
            "trace": [(0, version), (1, version)]}


def _simulate_small():
    from repro.asm import assemble
    from repro.machine import LBP, Params

    program = assemble("""
main:
    li   t1, 20
loop:
    addi t1, t1, -1
    bnez t1, loop
    ebreak
""")
    machine = LBP(Params(num_cores=2)).load(program)
    stats = machine.run(max_cycles=100_000)
    return stats.cycles, stats.retired, stats.skipped_core_cycles


TASKS = (
    [("sq/%d" % n, _square, (n,)) for n in range(6)]
    + [("row/%s" % v, _row, (v,), {"scale": 2}) for v in ("base", "tiled")]
    + [("sim", _simulate_small)]
)


def test_sequential_and_parallel_merge_byte_identical():
    sequential = run_experiments(TASKS, jobs=1)
    parallel = run_experiments(TASKS, jobs=2)
    # the *rows* are byte-identical; meta records the differing job counts
    assert pickle.dumps(dict(sequential)) == pickle.dumps(dict(parallel))
    assert sequential == parallel  # meta does not participate in equality
    assert (sequential.meta["jobs"], parallel.meta["jobs"]) == (1, 2)
    # insertion order is the task order, not completion order
    assert list(parallel) == [key for key, *_ in TASKS]


def test_results_are_correct():
    results = run_experiments(TASKS, jobs=2)
    assert results["sq/5"] == 25
    assert results["row/base"]["cycles"] == 2004
    cycles, retired, skipped = results["sim"]
    assert cycles > 0 and retired > 0 and skipped > 0


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        run_experiments([("k", _square, (1,)), ("k", _square, (2,))])


def test_empty_task_list():
    assert run_experiments([], jobs=4) == {}


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("LBP_JOBS", "3")
    assert default_jobs() == 3


def test_default_jobs_ignores_bad_override(monkeypatch):
    import os

    for bad in ("", "zero", "0", "-2"):
        monkeypatch.setenv("LBP_JOBS", bad)
        assert default_jobs() >= 1
    monkeypatch.delenv("LBP_JOBS")
    if hasattr(os, "sched_getaffinity"):
        # affinity is the authority, not the raw CPU count: a process
        # restricted to a subset of the host's CPUs must not oversubscribe
        assert default_jobs() == max(1, len(os.sched_getaffinity(0)))


def test_default_jobs_respects_affinity(monkeypatch):
    import os

    monkeypatch.delenv("LBP_JOBS", raising=False)
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no sched_getaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert default_jobs() == 3


def test_meta_jobs_recorded_with_cache(tmp_path):
    from repro.eval import run_matmul_figure
    from repro.snapshot import RunCache

    cache = RunCache(str(tmp_path / "cache"))
    figure = dict(h=16, num_cores=4, scale=8, versions=("base", "tiled"),
                  jobs=2, cache=cache)
    cold = run_matmul_figure(**figure)
    warm = run_matmul_figure(**figure)
    assert (cache.hits, cache.misses) == (2, 2)
    # warm- and cold-cache sweeps record the same provenance
    assert cold.meta == warm.meta == {"jobs": 2}
    assert cold == warm


def test_meta_survives_pickle():
    results = run_experiments([("sq/2", _square, (2,))], jobs=1)
    clone = pickle.loads(pickle.dumps(results))
    assert clone == results and clone.meta == results.meta


def test_no_fork_platform_degrades_to_identical_sequential(monkeypatch):
    """Platforms without fork: silent sequential degrade, same bytes.

    ``multiprocessing.get_context("fork")`` raises ValueError on
    platforms that do not offer the start method; the runner must fall
    back to the in-process loop and return byte-identical results.
    """
    from repro.eval import runner

    reference = run_experiments(TASKS, jobs=4)

    calls = []

    def no_fork(method=None):
        calls.append(method)
        raise ValueError("cannot find context for %r" % (method,))

    monkeypatch.setattr(runner.multiprocessing, "get_context", no_fork)
    degraded = run_experiments(TASKS, jobs=4)
    assert calls == ["fork"]  # the parallel path was attempted
    assert list(degraded) == list(reference)  # same merge order
    for key in reference:  # same bytes, result by result
        assert pickle.dumps(degraded[key]) == pickle.dumps(reference[key])


# ---- ForkedTask: the primitive the serving pool drives ----------------------


def _fork_available():
    import multiprocessing

    try:
        multiprocessing.get_context("fork")
        return True
    except ValueError:
        return False


needs_fork = pytest.mark.skipif(not _fork_available(),
                                reason="ForkedTask needs the fork start method")


def _messages(task, timeout=30.0):
    """Every message *task* sends, up to and including its final one."""
    seen = []
    while task.poll(timeout):
        seen.append(task.recv())
        if seen[-1][0] != "progress":
            break
    return seen


def _report_twice(x, progress):
    progress({"x": x})
    progress({"x": x + 1})
    return x * x


def _raise_value_error():
    raise ValueError("always")


def _exit_silently():
    import os

    os._exit(3)


def _sleep_forever():
    import time

    time.sleep(60)


@needs_fork
def test_forked_task_returns_value_and_streams_progress():
    from repro.eval.runner import ForkedTask

    task = ForkedTask(_report_twice, (7,), progress_arg="progress")
    messages = _messages(task)
    task.close()
    assert messages == [("progress", {"x": 7}), ("progress", {"x": 8}),
                        ("ok", 49)]
    assert task.process.exitcode == 0


@needs_fork
def test_forked_task_reports_a_raised_error():
    from repro.eval.runner import ForkedTask

    task = ForkedTask(_raise_value_error)
    messages = _messages(task)
    task.close()
    assert messages == [("err", "ValueError: always")]
    assert task.process.exitcode == 1


@needs_fork
def test_forked_task_reports_a_child_that_died_silently():
    """The detail names the exit code: the pipe's EOF can arrive before
    the child is reaped, so recv() must wait for it."""
    from repro.eval.runner import ForkedTask

    for _ in range(5):
        task = ForkedTask(_exit_silently)
        messages = _messages(task)
        task.close()
        assert len(messages) == 1
        kind, detail = messages[0]
        assert kind == "err"
        assert detail.startswith("worker died")
        assert detail.endswith("(exitcode 3)")
        assert task.process.exitcode == 3


@needs_fork
def test_forked_task_terminate_kills_a_hung_child():
    from repro.eval.runner import ForkedTask

    task = ForkedTask(_sleep_forever)
    assert not task.poll(0.3)  # still running, nothing sent
    task.terminate()
    assert not task.process.is_alive()
    assert task.process.exitcode is not None and task.process.exitcode < 0


@needs_fork
def test_terminate_kills_a_child_that_outlives_sigterm_in_bounded_time():
    """terminate() escalates to SIGKILL after a bounded wait, so a child
    that survives SIGTERM (here: it ignores it) is still reaped; its
    bounded wait needs the pipe that tells the parent the child exited,
    which the child must therefore keep open."""
    import os
    import signal
    import threading
    import time

    from repro.eval.runner import ForkedWorker

    worker = ForkedWorker()
    worker.send(signal.signal, (signal.SIGTERM, signal.SIG_IGN))
    assert worker.poll(30) and worker.recv()[0] == "ok"
    worker.send(time.sleep, (60,))
    started = time.monotonic()
    killer = threading.Thread(target=worker.terminate, daemon=True)
    killer.start()
    killer.join(10.0)
    elapsed = time.monotonic() - started
    if killer.is_alive():  # unbounded: free the thread, then fail
        os.kill(worker.process.pid, signal.SIGKILL)
        killer.join()
    assert elapsed < 2.5, elapsed
    assert worker.process.exitcode == -signal.SIGKILL
