"""No process outlives a run, not for a moment.

Whoever starts a run looks at the process table the moment the run has
exited; a helper that exits "soon after its parent" is a process left
running.  So the run process adopts every orphan its descendants leave
(``adopt_orphans``), leaves on SIGTERM through the same ``finally`` as on an
exception (``exit_on_sigterm``), and before it exits stops
``multiprocessing``'s resource tracker and waits for every child there still
is (``stop_resource_tracker``, ``reap_children``).
"""

import os
import signal
import sys
import time

#: how long a child that is still alive at the end may take to exit by itself
REAP_GRACE_S = 2.0


def table():
    """[(pid, state, parent, process group, command line)] of every process,
    from ``/proc``."""
    rows = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open("/proc/%s/cmdline" % entry, "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode().strip()
        except OSError:  # gone since the listing
            continue
        rows.append((int(entry), fields[0], int(fields[1]), int(fields[2]),
                     command))
    return rows


def adopt_orphans():
    """Make this process the reaper of all its descendants
    (``PR_SET_CHILD_SUBREAPER``): whatever a daemon or a worker leaves behind
    when it dies becomes a child of this process, not of init, and
    ``reap_children`` finds it and waits for it.  Without ``prctl`` orphans go
    to init as before."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    except (ImportError, OSError, AttributeError):
        pass


def exit_on_sigterm():
    """Leave on SIGTERM as on any exception, through the ``finally`` that
    cleans up.  A forked child (a shard worker, a ``ForkedTask``) inherits
    the handler and must not run this process's clean-up: there the signal
    kills as it always did."""
    owner = os.getpid()

    def handler(signum, _frame):
        if os.getpid() == owner:
            sys.exit(128 + signum)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    signal.signal(signal.SIGTERM, handler)


def stop_resource_tracker():
    """Stop the helper process ``multiprocessing`` starts with the first
    shared-memory segment (the sharded engine's rings, and the probe behind
    ``choose_transport``) and wait for it.  Left alone it exits when it sees
    this process gone, that is a moment *after* it."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if hasattr(tracker, "_stop"):
        tracker._stop()


def reap_children():
    """Wait for every child there still is; one that is alive after
    REAP_GRACE_S is killed, then waited for as long again.  Returns
    [(pid, command line)] of the killed: there should be none."""
    own = os.getpid()
    killed = []
    start = time.perf_counter()
    while time.perf_counter() - start < 2 * REAP_GRACE_S:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            break
        if pid:
            continue
        if time.perf_counter() - start > REAP_GRACE_S:
            # again on every turn: what a killed child leaves comes here
            for pid, state, parent, _, command in table():
                if parent == own and state != "Z":
                    os.kill(pid, signal.SIGKILL)
                    if (pid, command) not in killed:
                        killed.append((pid, command))
        time.sleep(0.005)
    return killed


def reap_group(pgid):
    """SIGKILL whatever is left of process group *pgid*; True when a live
    process was left (a leader that exited and was reaped is not)."""
    leaked = any(group == pgid and state != "Z"
                 for _, state, _, group, _ in table())
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    return leaked
