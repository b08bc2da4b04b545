"""Collector HTTP service over a real localhost socket."""

import contextlib
import http.client
import json
import re
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nellab import server
from nellab.collector import CollectorConfig
from nellab.headers import (
    NelReport,
    REPORT_MEDIA_TYPE,
    ReportBody,
    parse_nel_header,
    serialize_report_batch,
)

from nellab.sim import collector_from_dict

from conftest import DEEP_JSON, FIG1_REPORT


def fig1_batch() -> bytes:
    report = NelReport(age=FIG1_REPORT["age"], url=FIG1_REPORT["url"],
                       body=ReportBody(**FIG1_REPORT["body"]))
    return serialize_report_batch([report])


def post(base_url: str, body: bytes, content_type: str = REPORT_MEDIA_TYPE,
         user_agent: str = "test-agent/1.0"):
    parts = urlsplit(base_url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        connection.request("POST", "/up", body=body, headers={
            "Content-Type": content_type,
            "User-Agent": user_agent,
        })
        response = connection.getresponse()
        headers = dict(response.getheaders())
        payload = response.read()
        return response.status, headers, payload
    finally:
        connection.close()


EMIT = {
    "emit_nel_headers": {
        "nel": {"report_to": "meta", "max_age": 3600, "failure_fraction": 1},
        "report_to": [{"group": "meta", "max_age": 3600,
                       "endpoints": [{"url": "https://cprime.example/up"}]}],
    },
}


def test_ingest_round_trip(http_collector):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    status, _, _ = post(base_url, fig1_batch())
    assert status == 200
    [[record]] = batches
    assert record.user_agent == "test-agent/1.0"
    assert collector.stored == 1


def test_response_carries_configured_policy_headers(http_collector):
    _, base_url = http_collector(collector_from_dict(EMIT))
    status, headers, _ = post(base_url, fig1_batch())
    assert status == 200
    assert parse_nel_header(headers["NEL"]).report_to == "meta"
    assert "Report-To" in headers


def test_get_serves_policy_headers_too(http_collector):
    _, base_url = http_collector(collector_from_dict(EMIT))
    parts = urlsplit(base_url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        connection.request("GET", "/", headers={"User-Agent": "x"})
        response = connection.getresponse()
        headers = dict(response.getheaders())
        response.read()
    finally:
        connection.close()
    assert response.status == 200
    assert "NEL" in headers


def test_malformed_body_400(http_collector):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    status, _, _ = post(base_url, b'[{"age":')
    assert status == 400
    assert batches == []
    assert collector.stored == 0


def test_deeply_nested_body_400(http_collector):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    status, _, _ = post(base_url, DEEP_JSON.encode())
    assert status == 400
    assert batches == []
    assert collector.stored == 0


@pytest.mark.parametrize("member", ["url", "referrer"])
@pytest.mark.parametrize("url", ["https://[x/", "https://[éD]/"])
def test_url_the_url_parser_refuses_400(http_collector, member, url):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    [report] = json.loads(fig1_batch())
    (report if member == "url" else report["body"])[member] = url
    status, _, _ = post(base_url, json.dumps([report]).encode())
    assert status == 400
    assert batches == []
    assert collector.stored == 0


def test_wrong_media_type_400(http_collector):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    status, _, _ = post(base_url, fig1_batch(), content_type="application/json")
    assert status == 400
    assert batches == []
    assert collector.stored == 0


def raw_exchange(base_url: str, data: bytes) -> list[int]:
    """Send raw bytes on one connection; the status codes until the server closes."""
    parts = urlsplit(base_url)
    received = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
        sock.sendall(data)
        while chunk := sock.recv(65536):
            received += chunk
    return [int(code) for code in re.findall(rb"^HTTP/1\.1 (\d{3}) ", received, re.M)]


def raw_post(content_type: str, body: bytes, length: str | None = None,
             close: bool = False) -> bytes:
    head = (f"POST /up HTTP/1.1\r\nHost: collector\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body) if length is None else length}\r\n")
    if close:
        head += "Connection: close\r\n"
    return head.encode() + b"\r\n" + body


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_400_and_close(http_collector, length):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    assert raw_exchange(base_url, raw_post(REPORT_MEDIA_TYPE, b"[]", length)) == [400]
    assert batches == []
    assert collector.stored == 0


# A request that would run if the collector took the bytes after a body of
# unknown extent for the next request.
SMUGGLED = b"GET /smuggled HTTP/1.1\r\nConnection: close\r\n\r\n"


def statuses_until_eof(base_url: str, data: bytes) -> list[int]:
    """Send raw bytes on one connection and half-close it; every status code
    the server sends before it closes."""
    parts = urlsplit(base_url)
    received = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            received += chunk
    return [int(code) for code in re.findall(rb"^HTTP/1\.1 (\d{3}) ", received, re.M)]


def upload_head(*headers: str) -> bytes:
    return "".join(f"{line}\r\n" for line in (
        "POST /up HTTP/1.1", f"Content-Type: {REPORT_MEDIA_TYPE}", *headers, "")).encode()


@pytest.mark.parametrize("data, status", [
    (upload_head("Transfer-Encoding: chunked") + b"0\r\n\r\n" + SMUGGLED, 400),
    (upload_head("Content-Length: 5", "Transfer-Encoding: chunked")
     + b"0\r\n\r\n" + SMUGGLED, 400),
    (upload_head("Content-Length: 0", f"Content-Length: {len(SMUGGLED)}") + SMUGGLED, 400),
    (b"GET / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(SMUGGLED) + SMUGGLED, 200),
], ids=["chunked", "content-length-and-chunked", "duplicate-content-length",
        "get-with-body"])
def test_a_body_is_never_read_as_a_request(http_collector, data, status):
    """Each request gets exactly one answer: its body is read as a body, or,
    when its extent is unknown, not at all."""
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    assert statuses_until_eof(base_url, data) == [status]
    assert batches == []
    assert collector.stored == 0


def test_stalled_clients_are_disconnected(http_collector, monkeypatch):
    """A client that stops mid-request, in its body or in its headers, is
    disconnected without an answer, and its handler thread ends."""
    assert server._CollectorHandler.timeout == server.IDLE_TIMEOUT_S
    monkeypatch.setattr(server._CollectorHandler, "timeout", 0.2)  # for a fast test
    collector, base_url = http_collector(CollectorConfig())
    threads_before = threading.active_count()
    parts = urlsplit(base_url)
    stalled = [upload_head("Content-Length: 10"), b"GET / HTTP/1.1\r\n"]
    with contextlib.ExitStack() as stack:
        socks = [stack.enter_context(socket.create_connection(
            (parts.hostname, parts.port), timeout=3)) for _ in stalled]
        for sock, data in zip(socks, stalled):
            sock.sendall(data)
        # Each recv raises socket.timeout unless the server closes first.
        assert [sock.recv(65536) for sock in socks] == [b"", b""]
    deadline = time.monotonic() + 3
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= threads_before
    assert collector.stored == 0


def test_wrong_media_type_keeps_connection_in_sync(http_collector):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    requests = (raw_post("application/json", fig1_batch())
                + raw_post(REPORT_MEDIA_TYPE, fig1_batch(), close=True))
    assert raw_exchange(base_url, requests) == [400, 200]
    assert len(batches) == 1
    assert collector.stored == 1


def test_log_write_failure_500_and_connection_kept(http_collector, tmp_path, caplog):
    log = tmp_path / "records.ndjson"
    batches = []
    collector, base_url = http_collector(CollectorConfig(log_path=str(log)),
                                         batches.append)
    log.unlink()
    log.mkdir()  # every append now fails with IsADirectoryError
    requests = (raw_post(REPORT_MEDIA_TYPE, fig1_batch())
                + raw_post(REPORT_MEDIA_TYPE, fig1_batch(), close=True))
    assert raw_exchange(base_url, requests) == [500, 500]
    assert batches == []
    assert collector.stored == 0
    assert "appending to the report log failed" in caplog.text


def test_oversized_body_413(http_collector):
    batches = []
    collector, base_url = http_collector(CollectorConfig(), batches.append)
    status, _, _ = post(base_url, b"[" + b" " * (1024 * 1024) + b"]")
    assert status == 413
    assert batches == []
    assert collector.stored == 0


def test_volatile_mode_never_persists_client_ip(http_collector, tmp_path):
    log = tmp_path / "volatile.ndjson"
    _, base_url = http_collector(CollectorConfig(ip_mode="volatile", log_path=str(log)))
    status, _, _ = post(base_url, fig1_batch())
    assert status == 200
    # The HTTP peer is 127.0.0.1; the literal must not reach the log.
    content = log.read_text()
    assert "127.0.0.1" not in content
    assert json.loads(content.splitlines()[0])["client_ip"] == "[redacted]"


def test_concurrent_ingests_all_logged(http_collector, tmp_path):
    import threading

    log = tmp_path / "concurrent.ndjson"
    collector, base_url = http_collector(CollectorConfig(log_path=str(log)))
    threads = [threading.Thread(target=post, args=(base_url, fig1_batch()))
               for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert collector.stored == 8
    assert len(log.read_text().splitlines()) == 8


@st.composite
def raw_requests(draw) -> bytes:
    """One request's bytes: mostly HTTP-shaped, sometimes any bytes at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    words = [
        draw(st.sampled_from([b"GET", b"POST", b"HEAD", b"PUT", b"garbage"])
             | st.binary(min_size=1, max_size=8)),
        draw(st.sampled_from([b"/up", b"/", b"//x", b"*", b""])),
        draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/0.9", b"HTTP/2.0",
                              b"HTTP/1", b"HTTP/x.y", b"FTP/1.1", b""])),
    ]
    body = draw(st.sampled_from([fig1_batch(), b"[]", b"{", b""])
                | st.binary(max_size=40))
    headers = draw(st.lists(st.sampled_from([
        b"Content-Type: " + REPORT_MEDIA_TYPE.encode(),
        b"Content-Length: %d" % len(body),
        b"Content-Length: 99999999",
        b"Content-Length: x",
        b"Connection: close",
        b"Connection: keep-alive",
        b"Expect: 100-continue",
    ]) | st.binary(max_size=30).filter(lambda h: b"\n" not in h), max_size=5))
    return (b" ".join(w for w in words if w) + b"\r\n"
            + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body)


@pytest.fixture
def logged_collector(http_collector, tmp_path):
    log = tmp_path / "fuzz.ndjson"
    _, base_url = http_collector(CollectorConfig(log_path=str(log)))
    return base_url, log


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=raw_requests())
@example(data=b"garbage\r\n\r\n")
@example(data=b"POST /\r\n\r\n")
@example(data=b"GET / HTTP/2.0\r\n\r\n")
@example(data=b"GET /\r\n\r\n")
@example(data=b"GET / HTTP/0.9\r\n\r\n")
def test_every_request_gets_a_status_line(logged_collector, data):
    base_url, log = logged_collector
    parts = urlsplit(base_url)
    received = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            received += chunk
    # The server splits the request line as str.split() does after decoding
    # it as ISO-8859-1, and answers a blank one by closing.
    if data.split(b"\n", 1)[0].decode("iso-8859-1").split():
        assert re.match(rb"HTTP/1\.1 \d{3} ", received), received[:80]
    for line in log.read_text().splitlines():
        json.loads(line)
