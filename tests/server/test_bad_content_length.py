"""A request whose ``Content-Length`` cannot frame a body gets a prompt 400.

These tests speak raw HTTP over a socket because ``urllib`` always sends
a well-formed length.  Each one keeps its write side open after the
request, like a client that is still connected: a server that tried to
read an unframed body would block here until the socket timeout.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.client import RemoteConnection

#: Generous for a loopback round trip; a server stuck reading the body
#: hits it and fails the test instead of hanging the suite.
SOCKET_TIMEOUT_S = 5.0


def raw_exchange(server, request: bytes) -> tuple[int, dict[str, str], dict]:
    """Send ``request``; read until the server closes; parse the answer."""
    with socket.create_connection(
        (server.host, server.port), timeout=SOCKET_TIMEOUT_S
    ) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, json.loads(body)


def post_query(content_length: str) -> bytes:
    return (
        "POST /query HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
        '{"sql": "select count(*) from r"}'
    ).encode("ascii")


@pytest.mark.parametrize("content_length", ["abc", "-1", "1.5", "+3", "0x10"])
def test_unframeable_content_length_is_a_bad_request(served, content_length):
    status, headers, payload = raw_exchange(served, post_query(content_length))
    assert status == 400
    assert payload["error"] == "bad_request"
    assert "Content-Length" in payload["message"]
    # The unread body cannot be skipped, so the connection is closed.
    assert headers["connection"] == "close"


def test_bad_request_leaves_nothing_in_flight(served):
    for content_length in ("-1", "abc"):
        raw_exchange(served, post_query(content_length))
    assert served.stats()["server"]["active_requests"] == 0
    assert served.drain(timeout_s=SOCKET_TIMEOUT_S) is True


def test_well_framed_request_still_answers(served):
    body = b'{"sql": "select count(*) from r"}'
    request = (
        b"POST /query HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    status, _, payload = raw_exchange(served, request)
    assert status == 200
    expected = RemoteConnection(served.url).execute("select count(*) from r")
    assert payload["page"]["columns"] == [[expected.scalar()]]
