"""A small blocking client for the simulation-job service.

A stdlib socket around :mod:`repro.serve.http`'s framing, no
dependencies, same dialect over TCP and unix sockets.  This is what
``repro submit`` and the integration tests speak;
the load generator (:mod:`repro.serve.loadgen`) has its own asyncio
client for thousand-way concurrency.
"""

import json
import socket

from repro.serve.http import Head, encode_request

__all__ = ["ServeClient", "ServeError"]


class ServeError(Exception):
    """A non-2xx response (or a rejected job record)."""

    def __init__(self, status, payload):
        super().__init__("HTTP %s: %s" % (status, payload))
        self.status = status
        self.payload = payload


class ServeClient:
    """One connection-per-request blocking client.

    Address: either ``unix_path=...`` or ``host=.../port=...``.
    """

    def __init__(self, host="127.0.0.1", port=None, unix_path=None,
                 timeout=120.0):
        if port is None and unix_path is None:
            raise ValueError("need a port or a unix socket path")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.timeout = timeout

    # ---- plumbing -----------------------------------------------------------

    def _connect(self):
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
        else:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        return sock

    @staticmethod
    def _exchange(sock, method, path, payload):
        """Send one request; returns the response's parsed head and the
        reader positioned at its body."""
        sock.sendall(encode_request(method, path, payload, keep_alive=False))
        reader = sock.makefile("rb")
        line = reader.readline()
        if not line:
            raise ServeError(0, "server closed the connection")
        head = Head()
        while not head.feed(line):
            line = reader.readline()
        return head, reader

    def request(self, method, path, payload=None):
        """One request; returns ``(status, parsed-JSON body)``."""
        with self._connect() as sock:
            head, reader = self._exchange(sock, method, path, payload)
            raw = reader.read(head.length)  # None (no length): to the close
            return head.status(), json.loads(raw) if raw else None

    def _checked(self, method, path, payload=None):
        status, body = self.request(method, path, payload)
        if status >= 400:
            raise ServeError(status, body)
        return body

    # ---- the service API ----------------------------------------------------

    def healthz(self):
        return self._checked("GET", "/healthz")

    def stats(self):
        return self._checked("GET", "/stats")

    def submit(self, jobs, tenant=None, priority=None, wait=True):
        """Submit a batch; returns the per-job record list.

        Raises :class:`ServeError` when the whole batch was rejected
        (e.g. quota).  Individual records may still be ``rejected`` in a
        mixed batch — callers check ``record["status"]``.
        """
        body = {"jobs": list(jobs), "wait": wait}
        if tenant is not None:
            body["tenant"] = tenant
        if priority is not None:
            body["priority"] = priority
        return self._checked("POST", "/v1/jobs", body)["jobs"]

    def submit_one(self, job, **kwargs):
        """Submit one job and return its record (raises on rejection)."""
        record = self.submit([job], **kwargs)[0]
        if record.get("status") == "rejected":
            raise ServeError(record.get("code", 400), record)
        return record

    def job(self, job_id):
        return self._checked("GET", "/v1/jobs/%s" % job_id)

    def cancel(self, job_id):
        return self._checked("POST", "/v1/jobs/%s/cancel" % job_id)

    def stream(self, job_id):
        """Yield the job's NDJSON events (progress..., then terminal)."""
        with self._connect() as sock:
            head, reader = self._exchange(
                sock, "GET", "/v1/jobs/%s/stream" % job_id, None)
            if head.status() >= 400:
                raise ServeError(head.status(),
                                 json.loads(reader.read() or b"{}"))
            for line in reader:
                line = line.strip()
                if line:
                    yield json.loads(line)
