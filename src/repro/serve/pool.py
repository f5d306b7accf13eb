"""Bounded pool of warm forked workers with timeout, retry and cancellation.

The serving daemon is a single asyncio loop; simulations are CPU-bound
Python.  The pool keeps the two apart: it keeps up to ``workers``
long-lived forked children (:class:`repro.eval.runner.ForkedWorker`) and
sends each attempt to an idle one over its pipe; a driver thread from
the pool's own executor — sized ``workers``, unlike the loop's default —
relays the worker's messages back into the loop.  A worker is forked at
the first attempt that finds none idle, so a daemon forks once per
worker, not once per job.  How many run at once is bounded by the
caller: the server runs ``workers`` scheduler tasks.  Reusing a worker
is unobservable for the reason coalescing is: a call's value is fixed by
its arguments, whatever ran in that process before.

Per attempt the driver enforces a wall-clock deadline (kill + bounded
retry — a timeout may be a loaded host, so one more try is cheap) and a
cancellation flag (kill, no retry — the client changed its mind).  A
killed worker is replaced by the next attempt's fork; so is an idle one
that died while it waited, which costs its next job nothing.
Simulation *errors* are not retried: the machine is deterministic, so a
deadlock or trap would only reproduce.  A worker that reported an error
exits, so a warm worker has only ever finished clean calls.

Calls reach a worker pickled: the callable must be a module-level
function.  Where the platform offers no ``fork`` start method the pool
degrades to in-thread execution: results are identical, but a runaway
simulation can then only be abandoned, not killed (documented
limitation, same spirit as the runner's sequential degrade).
"""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.eval.runner import ForkedWorker, fork_available

__all__ = ["PoolCancelled", "PoolTaskError", "PoolTimeout", "WorkerPool"]

#: seconds between cancellation/deadline checks while waiting on a child
_POLL_SLICE = 0.05


class PoolTimeout(Exception):
    """Every allowed attempt blew its deadline."""


class PoolCancelled(Exception):
    """The caller's cancel flag was set while the job waited or ran."""


class PoolTaskError(Exception):
    """The child reported an error (deterministic — never retried).

    ``worker_died`` is True when the child vanished without reporting —
    the crash-flight-recorder case, as opposed to an ordinary
    simulation error the child described itself.
    """

    worker_died = False


class WorkerPool:
    """Simulations in up to *workers* warm forked workers at once.

    ``timeout`` is the per-attempt deadline in seconds (None = no
    deadline); after a timeout the job is retried up to ``retries`` more
    times.  ``timeouts`` and ``retries_spent`` accumulate across jobs
    for the service's ``/stats``.  :meth:`shutdown` joins the driver
    threads and stops the workers once no job is left.
    """

    def __init__(self, workers=2, timeout=None, retries=1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and not timeout > 0:
            raise ValueError("timeout must be > 0 seconds (or None)")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self._executor = ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix="repro-pool")
        self.timeouts = 0
        self.retries_spent = 0
        self._has_fork = fork_available()
        #: workers waiting for a call, the most recently used last
        self._idle = []
        self._idle_lock = threading.Lock()

    def _dispatch(self, request):
        """A worker that has taken *request*: an idle one, else a fresh fork.

        An idle worker that died while it waited (killed, say) breaks the
        send: it is reaped and passed over, so the job is not blamed."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                worker = self._idle.pop()
            try:
                worker.send(*request)
                return worker
            except OSError:
                worker.terminate()
        worker = ForkedWorker()
        try:
            worker.send(*request)
        except OSError:
            pass  # died at birth: its recv reports the death
        return worker

    def _attempt(self, fn, args, kwargs, cancel_event, emit):
        """One attempt in a worker, driven to completion from a driver
        thread."""
        if cancel_event is not None and cancel_event.is_set():
            raise PoolCancelled()
        if not self._has_fork:
            # degrade: run in this thread; progress flows, deadlines don't
            if emit is not None:
                kwargs = dict(kwargs)
                kwargs["progress"] = emit
            try:
                return fn(*args, **kwargs)
            except PoolCancelled:
                raise
            except Exception as exc:
                raise PoolTaskError("%s: %s" % (type(exc).__name__, exc))
        worker = self._dispatch((fn, args, kwargs,
                                 "progress" if emit is not None else None))
        deadline = (worker.started_at + self.timeout
                    if self.timeout is not None else None)
        outcome = None
        try:
            while True:
                if cancel_event is not None and cancel_event.is_set():
                    raise PoolCancelled()
                if deadline is not None and time.monotonic() >= deadline:
                    raise PoolTimeout()
                if not worker.poll(_POLL_SLICE):
                    continue
                kind, payload = worker.recv()
                if kind == "progress":
                    if emit is not None:
                        emit(payload)
                    continue
                outcome = kind
                if kind == "ok":
                    return payload
                error = PoolTaskError(payload)
                # a child that vanished (SIGKILL, OOM, interpreter
                # abort) never reported — flag it so the server can
                # spill the flight recorder for post-mortem debugging
                error.worker_died = (isinstance(payload, str)
                                     and payload.startswith("worker died"))
                raise error
        finally:
            if outcome == "ok":
                with self._idle_lock:
                    self._idle.append(worker)  # warm for the next call
            elif outcome is not None:
                worker.close()  # it reported an error and is exiting
            else:
                worker.terminate()

    async def run(self, fn, args=(), kwargs=None, on_progress=None,
                  on_attempt=None, cancel_event=None):
        """Run ``fn(*args, **kwargs)`` in a warm worker; returns its value.

        *on_progress* (called on the event loop) receives the payloads
        the child streams through its injected ``progress`` callable;
        *on_attempt* fires at the start of every (re)try; *cancel_event*
        (a ``threading.Event``) aborts between poll slices.  Raises
        :class:`PoolTimeout` / :class:`PoolCancelled` /
        :class:`PoolTaskError`.
        """
        loop = asyncio.get_running_loop()
        emit = None
        if on_progress is not None:
            def emit(payload):
                loop.call_soon_threadsafe(on_progress, payload)
        for tries in range(1, self.retries + 2):
            if on_attempt is not None:
                on_attempt()
            try:
                return await loop.run_in_executor(
                    self._executor, self._attempt, fn, args,
                    dict(kwargs or {}), cancel_event, emit)
            except PoolTimeout:
                self.timeouts += 1
                if tries > self.retries:
                    raise PoolTimeout("timed out after %gs on each of %d "
                                      "attempt(s)" % (self.timeout, tries))
                self.retries_spent += 1

    def shutdown(self):
        """Join the driver threads, then stop the idle workers (call once
        every :meth:`run` returned)."""
        self._executor.shutdown()
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.terminate()

    def snapshot(self):
        """Pool counters for the ``/stats`` endpoint."""
        return {"workers": self.workers, "timeouts": self.timeouts,
                "retries_spent": self.retries_spent,
                "fork": self._has_fork}
