"""Parallel experiment runner: deterministic fan-out over simulations.

The evaluation harness is embarrassingly parallel — the five matmul
versions of a figure, determinism repeats, and ablation sweep points are
fully independent simulations.  :func:`run_experiments` fans a task list
out to ``multiprocessing`` workers and merges the results **in task-key
order**, never in completion order, so the merged output is byte-identical
to a sequential run of the same tasks (``jobs=1`` takes a plain in-process
loop with no pickling at all).

Tasks are ``(key, fn, args, kwargs)`` tuples (``args``/``kwargs``
optional).  ``fn`` must be picklable — a module-level callable — and
deterministic; each worker process runs one simulation at a time.

The pool uses the ``fork`` start method: benchmark modules define their
task functions at module level, and fork lets the children resolve them
through the inherited interpreter state without requiring the modules to
be importable by path.  Where ``fork`` is unavailable (non-POSIX), the
runner silently degrades to the sequential path — results are identical
either way, only the wall clock differs.

The runner does not cache: a run's identity is its program, and only the
caller that compiled it can name that.  ``run_matmul_figure`` keys each
version with ``RunCache.key_for`` and hands only the misses to the
runner.

:class:`ForkedTask` — one callable in one forked child, owned from the
parent — is the execution primitive behind the ``repro serve`` worker
pool (:mod:`repro.serve.pool`), which adds deadlines, cancellation and
progress streaming through its parent-side pipe.
"""

import multiprocessing
import os
import time

__all__ = ["ExperimentResults", "ForkedTask", "default_jobs",
           "run_experiments"]


def default_jobs():
    """Worker count when the caller does not choose.

    Resolution order: the ``LBP_JOBS`` environment variable (ignored when
    unset, non-numeric or < 1), then the scheduler affinity mask
    (``os.sched_getaffinity`` — a container pinned to 4 of the host's 64
    CPUs gets 4 workers, not 64), then ``os.cpu_count()``.
    """
    override = os.environ.get("LBP_JOBS")
    if override:
        try:
            jobs = int(override)
        except ValueError:
            jobs = 0
        if jobs >= 1:
            return jobs
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class ExperimentResults(dict):
    """The merged ``{key: result}`` mapping, plus run provenance.

    ``meta`` records how the results were produced (currently the
    resolved ``jobs`` count).  It intentionally does not participate in
    equality: parallel and sequential runs of the same task list compare
    equal — the determinism contract — even though their job counts
    differ.
    """

    def __init__(self, pairs=(), meta=None):
        super().__init__(pairs)
        self.meta = dict(meta or {})

    def __reduce__(self):
        return (self.__class__, (list(self.items()), self.meta))


def _forked_child_main(conn, fn, args, kwargs, progress_arg):
    """Child half of :class:`ForkedTask`: run *fn*, ship one final message.

    The wire protocol is tuples: zero or more ``("progress", payload)``
    (only when the callable asked for a progress channel) followed by
    exactly one ``("ok", value)`` or ``("err", detail)``.  ``os._exit``
    skips the parent's inherited atexit/teardown machinery — the child
    must not flush the parent's state.
    """
    import signal

    # sever the parent's signal plumbing: an asyncio parent registers a
    # wakeup fd and handlers that this fork inherits — a signal landing
    # here (e.g. our own terminate()) would otherwise write into the
    # PARENT's self-pipe and fire the parent's handlers spuriously
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    status = 0
    try:
        if progress_arg is not None:
            kwargs = dict(kwargs)
            kwargs[progress_arg] = lambda payload: conn.send(
                ("progress", payload))
        conn.send(("ok", fn(*args, **kwargs)))
    except BaseException as exc:  # report, then die: nothing to recover
        status = 1
        try:
            conn.send(("err", "%s: %s" % (type(exc).__name__, exc)))
        except BaseException:
            pass
    finally:
        conn.close()
        os._exit(status)


class ForkedTask:
    """One callable running in a forked child, owned from the parent.

    Unlike a ``Pool`` worker, the child is individually addressable: the
    parent can :meth:`poll`/:meth:`recv` its message stream, enforce a
    deadline, and :meth:`terminate` a hung run without disturbing any
    sibling.  ``progress_arg`` names a keyword argument to inject into
    the callable: a function the child calls to stream progress payloads
    back through the pipe (fork means no pickling of the callable is
    ever needed).

    Raises ValueError where the platform offers no ``fork`` start
    method; callers degrade to in-process execution.
    """

    def __init__(self, fn, args=(), kwargs=None, progress_arg=None):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_forked_child_main,
            args=(child_conn, fn, args, dict(kwargs or {}), progress_arg),
            daemon=True)
        self.started_at = time.monotonic()
        self.process.start()
        child_conn.close()  # parent keeps only the read end

    def poll(self, timeout=0):
        """True when a message (or EOF) is ready within *timeout* seconds."""
        try:
            return self._conn.poll(timeout)
        except (OSError, EOFError):
            return True  # the recv will surface the broken pipe

    def recv(self):
        """Next ``(kind, payload)`` message; ``("err", ...)`` on a dead
        child that never reported (killed, crashed interpreter)."""
        try:
            return self._conn.recv()
        except (OSError, EOFError):
            # the pipe's EOF can arrive before the child is reaped: wait
            # (bounded) so the detail names the real exit code
            self.process.join(1.0)
            return ("err", "worker died without reporting a result "
                           "(exitcode %s)" % (self.process.exitcode,))

    def terminate(self):
        """Kill the child (SIGTERM, then SIGKILL) and reap it."""
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join()
        self.close()

    def close(self):
        self._conn.close()
        self.process.join()


def _normalize(tasks):
    normalized = []
    seen = set()
    for task in tasks:
        key, fn = task[0], task[1]
        args = tuple(task[2]) if len(task) > 2 else ()
        kwargs = dict(task[3]) if len(task) > 3 else {}
        if key in seen:
            raise ValueError("duplicate task key %r" % (key,))
        seen.add(key)
        normalized.append((key, fn, args, kwargs))
    return normalized


def _call(task):
    key, fn, args, kwargs = task
    return key, fn(*args, **kwargs)


def _run_all(tasks, jobs):
    """{key: result} for *tasks*, parallel when possible, input-ordered."""
    if not tasks:
        return {}
    jobs = min(jobs, len(tasks))
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: degrade, stay identical
        context = None
    if jobs <= 1 or context is None:
        return {key: fn(*args, **kwargs) for key, fn, args, kwargs in tasks}
    with context.Pool(processes=jobs) as pool:
        # Pool.map returns in input order — the deterministic merge is
        # by construction, not by sorting completion events
        pairs = pool.map(_call, tasks)
    return dict(pairs)


def run_experiments(tasks, jobs=None):
    """Run every task; return ``{key: result}`` in task order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs=1`` (or a single
    task) runs sequentially in-process.  The mapping is insertion-ordered
    by the *input* task order regardless of which worker finishes first,
    so parallel and sequential runs of the same task list merge to
    byte-identical results.

    The returned mapping is an :class:`ExperimentResults`: a plain dict
    of rows plus a ``meta`` attribute recording the resolved ``jobs``
    count for reproducibility (the resolved value, not the clamped
    dispatch width, so a sweep whose rows all came from a cache records
    the same thing as the one that filled it).
    """
    if jobs is None:
        jobs = default_jobs()
    return ExperimentResults(_run_all(_normalize(tasks), jobs),
                             meta={"jobs": jobs})
