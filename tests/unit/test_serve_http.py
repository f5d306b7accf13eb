"""Unit tests for the job service's HTTP framing (``repro.serve.http``).

Sans-IO, so no socket: what an encoder returns is fed straight back
through the one head parser, the way daemon, client and load generator
meet over a connection.
"""

import io
import json

import pytest

from repro.serve.http import (
    MAX_BODY,
    MAX_HEADERS,
    MAX_LINE,
    Head,
    HttpError,
    encode_request,
    encode_response,
    json_line,
)


def _parse(message):
    """Feed *message* line by line, as a read loop would: the parsed
    head and whatever follows it."""
    reader = io.BytesIO(message)
    head = Head()
    while not head.feed(reader.readline()):
        pass
    return head, reader.read()


def _refusal(message):
    with pytest.raises(HttpError) as excinfo:
        head, _ = _parse(message)
        head.request()
        head.length
    return excinfo.value.status


# ---- encode -> parse ---------------------------------------------------------


def test_request_round_trip():
    payload = {"jobs": [{"source": "x"}], "wait": False}
    head, body = _parse(encode_request("post", "/v1/jobs?wait=0&wait=1",
                                       payload))
    assert head.request() == ("POST", "/v1/jobs", {"wait": "1"})
    assert head.length == len(body) and json.loads(body) == payload
    assert head.keep_alive


def test_request_without_a_body_and_to_be_closed():
    head, body = _parse(encode_request("GET", "/stats", keep_alive=False))
    assert head.request() == ("GET", "/stats", {})
    assert head.length == 0 and body == b""
    assert not head.keep_alive


def test_json_response_round_trip_is_canonical():
    head, body = _parse(encode_response(429, {"b": 1, "a": [2, 3]}))
    assert head.status() == 429
    assert head.start[2:] == ["Too", "Many", "Requests"]
    assert head.headers["content-type"] == "application/json"
    assert body == b'{"a":[2,3],"b":1}\n' == json_line({"b": 1, "a": [2, 3]})
    assert head.length == len(body) and head.keep_alive


def test_text_response_is_the_prometheus_content_type():
    head, body = _parse(encode_response(200, "m 1\n", keep_alive=False))
    assert head.status() == 200 and body == b"m 1\n"
    assert head.headers["content-type"].startswith(
        "text/plain; version=0.0.4")
    assert not head.keep_alive


def test_stream_head_is_close_delimited():
    head, rest = _parse(encode_response(200, None) + json_line({"k": 1}))
    assert head.status() == 200
    assert head.headers["content-type"] == "application/x-ndjson"
    assert head.length is None and not head.keep_alive
    assert rest == b'{"k":1}\n'


@pytest.mark.parametrize("status", [200, 400, 404, 405, 413, 429, 431,
                                    500, 503])
def test_every_status_the_service_answers_has_a_reason_phrase(status):
    head, _ = _parse(encode_response(status, {}))
    assert head.status() == status
    assert head.start[2] not in ("Status", "Unknown")


# ---- what the parser accepts -------------------------------------------------


def test_header_names_are_case_insensitive_and_values_trimmed():
    head, body = _parse(b"POST /v1/jobs HTTP/1.1\r\n"
                        b"CONTENT-length:   2  \r\n"
                        b"cOnNeCtIoN: Close\r\n\r\n{}")
    assert head.length == 2 and body == b"{}"
    assert not head.keep_alive


def test_keep_alive_is_the_default_and_bare_newlines_end_lines():
    head, _ = _parse(b"GET /healthz HTTP/1.1\nHost: x\n\n")
    assert head.request() == ("GET", "/healthz", {})
    assert head.keep_alive and head.length is None


# ---- every limit, every refusal ----------------------------------------------


def test_a_line_at_the_limit_passes_and_one_byte_more_is_431():
    pad = MAX_LINE - len(b"X-Pad: \r\n")
    ok = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * pad + b"\r\n\r\n"
    assert _parse(ok)[0].headers["x-pad"] == "a" * pad
    over = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (pad + 1) + b"\r\n\r\n"
    assert _refusal(over) == 431
    assert _refusal(b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n") == 431


def test_header_count_is_bounded():
    lines = b"".join(b"X-%d: v\r\n" % n for n in range(MAX_HEADERS))
    assert len(_parse(b"GET / HTTP/1.1\r\n" + lines
                      + b"\r\n")[0].headers) == MAX_HEADERS
    assert _refusal(b"GET / HTTP/1.1\r\n" + lines + b"X-More: v\r\n"
                    + b"\r\n") == 431


def test_body_at_the_limit_passes_and_over_it_is_413():
    ok = b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % MAX_BODY
    assert _parse(ok)[0].length == MAX_BODY
    over = b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY + 1)
    assert _refusal(over) == 413


@pytest.mark.parametrize("value", [b"abc", b"-5", b"", b"1.5", b"0x10",
                                   b"1_0", b"\xb2"])
def test_content_length_must_be_plain_digits(value):
    assert _refusal(b"POST / HTTP/1.1\r\nContent-Length: " + value
                    + b"\r\n\r\n") == 400


@pytest.mark.parametrize("line", [b"GET /stats\r\n", b"\r\n",
                                  b"GET /a b HTTP/1.1\r\n",
                                  b"GET //[ HTTP/1.1\r\n"])
def test_malformed_request_lines_are_400(line):
    head = Head()
    assert head.feed(line) is False
    with pytest.raises(HttpError) as excinfo:
        head.request()
    assert excinfo.value.status == 400


def test_a_head_cut_short_is_400_not_a_hang():
    assert _refusal(b"GET / HTTP/1.1\r\nHost: x\r\n") == 400  # EOF
    assert _refusal(b"GET / HTTP/1.1\r\nHost: x") == 400      # mid-line
