"""The collector's HTTP service: one threaded server in front of a Collector.

Kept apart from ``collector`` so that the simulator, which runs collectors
in memory, never imports the standard library's HTTP stack.
"""

from __future__ import annotations

import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .collector import Collector, MAX_BODY_BYTES, RejectError
from .headers import REPORT_MEDIA_TYPE

logger = logging.getLogger("nellab.collector")

# The serving collector drops expired records at most once per this much
# server-clock time.
PURGE_INTERVAL_MS = 60_000

# A client that sends nothing for this long, mid-request or between requests
# on a kept-alive connection, is disconnected without a status line.
IDLE_TIMEOUT_S = 10


def parse_listen(listen: str) -> tuple[str, int]:
    host, _, port = listen.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"listen address must be host:port, got {listen!r}")
    return host, int(port)


class _CollectorHandler(BaseHTTPRequestHandler):
    server_version = "nel-lab-collector/0.1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S  # socketserver sets it on the connection

    def send_response_only(self, code, message=None):
        # The stdlib sends no status line or headers to what it takes for an
        # HTTP/0.9 request: a line naming HTTP/0.9, naming no version, or one
        # it rejects before it has read a version.
        if self.request_version == "HTTP/0.9":
            self.request_version = self.protocol_version
        super().send_response_only(code, message)

    def _respond(self, status: int, extra_headers: dict[str, str] | None = None):
        self.send_response(status)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _read_body(self) -> bytes | None:
        """The request body, or None once an error status is sent.

        Reading it before any other answer keeps the next request on a
        keep-alive connection at the right offset. A body whose extent is
        unknown gets 400 and a close, so it is never parsed as a request.
        """
        lengths = self.headers.get_all("Content-Length") or ["0"]
        if ("Transfer-Encoding" in self.headers or len(lengths) > 1
                or not (lengths[0].isascii() and lengths[0].isdigit())):
            self._respond(400)
            self.close_connection = True
            return None
        length = int(lengths[0])
        if length > MAX_BODY_BYTES:
            # Drain modestly oversized bodies so the client can read the 413
            # instead of dying on a broken pipe; beyond the cap, just close.
            remaining = min(length, 4 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            self._respond(413)
            self.close_connection = True
            return None
        return self.rfile.read(length)

    def do_POST(self):
        collector: Collector = self.server.collector  # type: ignore[attr-defined]
        body = self._read_body()
        if body is None:
            return
        content_type = self.headers.get("Content-Type", "")
        if not content_type.startswith(REPORT_MEDIA_TYPE):
            self._respond(400)
            return
        try:
            collector.ingest(body, self.client_address[0],
                             self.headers.get("User-Agent", ""),
                             self.server.clock())  # type: ignore[attr-defined]
        except RejectError as exc:
            self._respond(exc.status)
        except OSError:
            logger.exception("appending to the report log failed")
            self._respond(500)
        else:
            self._respond(200, collector.response_headers())

    def do_GET(self):
        # A collector that deploys NEL itself serves its policy on every
        # response, uploads and plain fetches alike.
        collector: Collector = self.server.collector  # type: ignore[attr-defined]
        if self._read_body() is not None:
            self._respond(200, collector.response_headers())

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s %s", self.address_string(), format % args)


class _CollectorServer(ThreadingHTTPServer):
    """Serves one collector and enforces its retention between requests."""

    def __init__(self, address: tuple[str, int], collector: Collector):
        super().__init__(address, _CollectorHandler)
        self.collector = collector
        self._next_purge_at = 0

    def clock(self) -> int:
        return int(time.time() * 1000)

    def service_actions(self):
        # serve_forever calls this on every poll, about twice a second.
        now = self.clock()
        if now < self._next_purge_at:
            return
        self._next_purge_at = now + PURGE_INTERVAL_MS
        try:
            self.collector.purge_expired(now)
        except OSError:
            logger.exception("purging expired records failed")


def make_server(collector: Collector) -> ThreadingHTTPServer:
    """Bind the ingestion HTTP server at ``listen``; caller decides how to run it."""
    return _CollectorServer(parse_listen(collector.config.listen), collector)
