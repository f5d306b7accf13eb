"""The job service's HTTP/1.1 framing: one head parser, two encoders.

Sans-IO, and the only module that knows the wire format: the daemon,
:class:`~repro.serve.client.ServeClient` and the load generator keep
their own read loops (asyncio, blocking, asyncio), hand :meth:`Head.feed`
the lines and write what :func:`encode_request` / :func:`encode_response`
return.  Bodies are sized by ``Content-Length`` only; a response without
one (the NDJSON progress stream) ends when the server closes.
"""

import http as _status  # the standard library's: reason phrases
import json
import urllib.parse

__all__ = ["MAX_BODY", "MAX_HEADERS", "MAX_LINE", "Head", "HttpError",
           "encode_request", "encode_response", "json_line"]

MAX_LINE = 16 * 1024  #: a request, status or header line, with its \r\n
MAX_HEADERS = 128  #: header lines in one head
MAX_BODY = 32 * 1024 * 1024


class HttpError(Exception):
    """A request the service refuses; *status* is what it is answered."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class Head:
    """One message head, request or response, fed a line at a time."""

    def __init__(self):
        self.start = None
        self.headers = {}

    def feed(self, line):
        """Take one line as ``readline()`` returned it; True once the
        blank line has ended the head."""
        if not line.endswith(b"\n"):
            raise HttpError(400, "connection closed inside the head")
        if len(line) > MAX_LINE:
            raise HttpError(431, "header line too long")
        if self.start is None:
            self.start = line.decode("latin-1").split()
            return False
        if line in (b"\r\n", b"\n"):
            return True
        if len(self.headers) >= MAX_HEADERS:
            raise HttpError(431, "too many header lines")
        name, _, value = line.decode("latin-1").partition(":")
        self.headers[name.strip().lower()] = value.strip()
        return False

    def request(self):
        """``(method, path, query)`` of a request line."""
        try:
            method, target, _version = self.start
            split = urllib.parse.urlsplit(target)
        except ValueError:  # not three words, or no URL
            raise HttpError(400, "malformed request line")
        query = {name: values[-1] for name, values
                 in urllib.parse.parse_qs(split.query).items()}
        return method.upper(), split.path, query

    def status(self):
        """The status code of a response line."""
        return int(self.start[1])

    @property
    def length(self):
        """``Content-Length`` as a checked integer; None when absent."""
        text = self.headers.get("content-length")
        if text is None:
            return None
        if not (text.isascii() and text.isdigit()):
            raise HttpError(400, "Content-Length is not a number: %r" % text)
        length = int(text)
        if length > MAX_BODY:
            raise HttpError(413, "body over %d bytes" % MAX_BODY)
        return length

    @property
    def keep_alive(self):
        return self.headers.get("connection", "").lower() != "close"


def json_line(payload):
    """Canonical JSON (sorted keys, no spaces) and a newline, as bytes."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _message(start, content_type, body, keep_alive):
    lines = [start, "Content-Type: " + content_type,
             "Connection: " + ("keep-alive" if keep_alive else "close")]
    if body is not None:
        lines.append("Content-Length: %d" % len(body))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")


def encode_request(method, target, payload=None, keep_alive=True):
    """A request with an optional JSON body."""
    body = (b"" if payload is None
            else json.dumps(payload, sort_keys=True).encode())
    return _message("%s %s HTTP/1.1\r\nHost: repro-serve" % (method, target),
                    "application/json", body, keep_alive)


def encode_response(status, payload, keep_alive=True):
    """A response: a JSON value, Prometheus text (a ``str``), or — for
    None — the head of a close-delimited NDJSON stream."""
    start = "HTTP/1.1 %d %s" % (status, _status.HTTPStatus(status).phrase)
    if payload is None:
        return _message(start, "application/x-ndjson", None, False)
    if isinstance(payload, str):
        return _message(start, "text/plain; version=0.0.4; charset=utf-8",
                        payload.encode(), keep_alive)
    return _message(start, "application/json", json_line(payload), keep_alive)
