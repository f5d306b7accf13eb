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

:class:`ForkedWorker` — a forked child that runs the calls its parent
sends, one at a time, owned from the parent — is the execution primitive
behind the ``repro serve`` worker pool (:mod:`repro.serve.pool`), which
adds deadlines, cancellation and progress streaming through its
parent-side pipe.  :class:`ForkedTask` is its one-call case.  Every
child runs one body, :func:`_child_main`.
"""

import multiprocessing
import os
import stat
import time

__all__ = ["ExperimentResults", "ForkedTask", "ForkedWorker", "default_jobs",
           "fork_available", "run_experiments"]


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


def fork_available():
    """Whether the platform offers the ``fork`` start method that
    :class:`ForkedWorker` needs; callers without it run in-process."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def _received(conn):
    """The calls a worker's parent sends it, until it closes its end of
    the pipe."""
    while True:
        try:
            yield conn.recv()
        except EOFError:
            return


def _close_inherited_sockets(keep):
    """Close every socket this process inherited but fd *keep*.

    A dup of a daemon's client socket held here would keep the connection
    open after the daemon closed it (the peer never sees EOF), and a dup
    of the parent's end of a sibling worker's pipe would keep that worker
    from seeing its EOF.  Pipes stay open: the write end of
    ``multiprocessing``'s sentinel is one, and closing it would tell the
    parent this child had exited (its bounded ``join`` would then wait
    unbounded)."""
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue  # the listing's own fd, closed since


def _child_main(conn):
    """The one child body: serve calls one at a time, report each one.

    The child runs each ``(fn, args, kwargs, progress_arg)`` call its
    parent sends until the parent closes the pipe.  The wire protocol
    per call is tuples: zero or more ``("progress", payload)`` (only when
    the call names a progress argument) followed by exactly one
    ``("ok", value)`` or ``("err", detail)``.  An error ends the child
    (exit code 1), so a worker only takes another call after a clean
    ``"ok"``; the parent's close ends it with exit code 0.  ``os._exit``
    skips the parent's inherited atexit/teardown machinery — the child
    must not flush the parent's state.
    """
    import gc
    import signal

    # sever the parent's signal plumbing: an asyncio parent registers a
    # wakeup fd and handlers that this fork inherits — a signal landing
    # here (e.g. our own terminate()) would otherwise write into the
    # PARENT's self-pipe and fire the parent's handlers spuriously
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    _close_inherited_sockets(conn.fileno())
    # never collect what the fork inherited: its finalizers would close
    # fd numbers this child has since reused, and a collection would
    # touch (copy) every inherited page
    gc.freeze()
    status = 0
    try:
        for fn, args, kwargs, progress_arg in _received(conn):
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


class ForkedWorker:
    """A forked child that runs the calls its parent sends, one at a time,
    owned from the parent.

    Unlike a ``Pool`` worker, the child is individually addressable: the
    parent can :meth:`send` it a call, :meth:`poll`/:meth:`recv` the
    call's message stream, enforce a deadline, and :meth:`terminate` a
    hung run without disturbing any sibling.  Right after the fork the
    child closes every socket it inherited but its pipe.  :meth:`close`
    of an idle worker lets it exit on its own.

    Raises ValueError where the platform offers no ``fork`` start
    method; callers degrade to in-process execution.
    """

    def __init__(self):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_child_main, args=(child_conn,), daemon=True)
        self.started_at = time.monotonic()
        self.process.start()
        child_conn.close()  # the child's end lives in the child only

    def send(self, fn, args=(), kwargs=None, progress_arg=None):
        """Hand the idle child its next call.  The call travels pickled,
        so *fn* must be a module-level callable; ``progress_arg`` names a
        keyword argument the child injects (see :class:`ForkedTask`).
        Raises OSError when the child is gone."""
        self._conn.send((fn, tuple(args), dict(kwargs or {}), progress_arg))
        self.started_at = time.monotonic()

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
        """Close the pipe and reap the child, which exits on its own."""
        self._conn.close()
        self.process.join()


class ForkedTask(ForkedWorker):
    """One callable running in a forked child: a :class:`ForkedWorker`
    sent one call at its fork.

    ``progress_arg`` names a keyword argument to inject into the
    callable: a function the child calls to stream progress payloads
    back through the pipe.  *fn* travels pickled, so it must be a
    module-level callable.  The child exits 1 after an ``"err"``, and 0
    once :meth:`close` follows its ``"ok"``.
    """

    def __init__(self, fn, args=(), kwargs=None, progress_arg=None):
        super().__init__()
        self.send(fn, args, kwargs, progress_arg)


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
