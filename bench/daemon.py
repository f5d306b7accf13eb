"""The ``repro serve`` daemon as a subprocess, and the benchmark's own client.

The daemon is started the way a user starts it (``python -m repro serve
--unix ... --workers 1 --cache-dir ...``, default config otherwise) in its own
session, so that whatever it forked can be found and killed as one process
group on any exit path.  The client is a stdlib keep-alive HTTP/1.1 client
over the unix socket: closed loop, one request in flight per connection.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

from procs import reap_group

READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


class DaemonError(Exception):
    pass


class Conn:
    """One keep-alive connection; ``request`` returns (status, JSON|text)."""

    def __init__(self, path, timeout=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def request(self, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        head = ("%s %s HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n\r\n" % (method, path, len(body)))
        self.sock.sendall(head.encode("latin-1") + body)
        status_line = self.reader.readline()
        if not status_line:
            raise DaemonError("daemon closed the connection")
        status = int(status_line.split()[1])
        length = 0
        is_json = False
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "content-type":
                is_json = "json" in value
        raw = self.reader.read(length)
        return status, (json.loads(raw) if is_json else raw.decode())

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """One ``repro serve`` process on a unix socket under *workdir*.

    *workdir* is relative to the current directory (the checkout root): a
    unix socket path is limited to ~100 bytes, a checkout path is not.
    """

    def __init__(self, workdir, src_dir):
        self.workdir = workdir
        self.socket_path = os.path.join(workdir, "s.sock")
        self.cache_dir = os.path.join(workdir, "cache")
        self.log_path = os.path.join(workdir, "daemon.log")
        self.src_dir = src_dir
        self.proc = None
        self.start_s = None

    def start(self):
        """Spawn and wait until ``GET /stats`` answers 200.  Polling the
        endpoint, not the socket file: the file exists before the daemon
        listens on it (ConnectionRefusedError in between)."""
        os.makedirs(self.workdir)
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--unix", self.socket_path, "--workers", "1",
                 "--cache-dir", self.cache_dir],
                env=env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
        deadline = started + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise DaemonError("daemon exited with %s before it was "
                                  "ready:\n%s" % (self.proc.returncode,
                                                  self.log()))
            try:
                conn = Conn(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError):
                conn = None
            if conn is not None:
                try:
                    status, _ = conn.request("GET", "/stats")
                finally:
                    conn.close()
                if status == 200:
                    break
            if time.perf_counter() > deadline:
                self.kill()
                raise DaemonError("daemon not ready after %.0f s"
                                  % READY_TIMEOUT_S)
            time.sleep(0.005)
        self.start_s = time.perf_counter() - started
        return self

    def connect(self):
        return Conn(self.socket_path)

    def log(self):
        try:
            with open(self.log_path) as handle:
                return handle.read()
        except OSError:
            return ""

    def cpu_s(self):
        """User + system CPU seconds of the daemon process so far (its
        live workers not included), from ``/proc/<pid>/stat``."""
        with open("/proc/%d/stat" % self.proc.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM, wait for the drain; returns (drain seconds, problems).

        *problems* lists what was wrong with the exit: a nonzero code, a
        drain that had to be killed, a process of the group that survived
        its leader (killed here).
        """
        proc = self.proc
        if proc is None:
            return 0.0, []
        self.proc = None
        problems = []
        started = time.perf_counter()
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append("daemon did not drain in %.0f s"
                                % DRAIN_TIMEOUT_S)
        drain_s = time.perf_counter() - started
        if reap_group(proc.pid) and not problems:
            problems.append("processes of the daemon's group outlived it")
        proc.wait()
        if proc.returncode != 0 and not problems:
            problems.append("daemon exited with %s:\n%s"
                            % (proc.returncode, self.log()))
        return drain_s, problems

    def kill(self):
        """Exit-path cleanup: no drain, no questions."""
        proc, self.proc = self.proc, None
        if proc is not None:
            reap_group(proc.pid)
            proc.wait()
