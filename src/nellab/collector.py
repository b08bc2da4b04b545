"""Report collector: ingestion, data minimization, append-only persistence.

Every ingested report runs through a minimization pipeline before it is
recorded: URL query/fragment stripping, captured-header dropping, and
client-IP handling (``volatile`` stores no address, ``truncate`` zeroes
the host bits, ``full`` stores it verbatim).

Records append, when configured, to a newline-delimited JSON log, so the
volatile-IP guarantee can be checked by scanning the file for address
literals, and then go to an optional sink; the collector keeps no copy.
Appends are serialized through one lock; the log is a linear order.
"""

from __future__ import annotations

import ipaddress
import json
import os
import re
import threading
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Literal

from .headers import (
    EndpointGroup,
    NelPolicyHeader,
    NelReport,
    ParseError,
    ReportBody,
    parse_report_batch,
    report_to_dict,
    serialize_nel_header,
    serialize_report_to_header,
    strip_query,
)

MAX_BODY_BYTES = 1024 * 1024

REDACTED = "[redacted]"


class RejectError(Exception):
    """An ingest was refused; ``status`` is the HTTP status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class CollectorConfig:
    """Operating configuration for one collector instance; its JSON document
    is read and written by ``nellab.sim.collector_from_dict``/``collector_to_dict``."""

    listen: str = "127.0.0.1:9390"
    ip_mode: Literal["volatile", "truncate", "full"] = "volatile"
    strip_url_query: bool = True
    drop_captured_headers: bool = True
    retention_seconds: int | None = None  # None = infinite
    emit_nel: NelPolicyHeader | None = None
    emit_report_to: list[EndpointGroup] | None = None
    log_path: str | None = None

    def __post_init__(self):
        if (self.emit_nel is None) != (not self.emit_report_to):
            raise ValueError("emit_nel_headers needs both a policy and groups")


def minimize(report: NelReport, config: CollectorConfig) -> NelReport:
    """Apply the configured data-minimization steps to one report; idempotent.
    Query stripping raises ``ValueError`` on a URL the URL parser refuses."""
    body = report.body
    url, referrer = report.url, body.referrer
    if config.strip_url_query:
        url, referrer = strip_query(url), strip_query(referrer)
    if config.drop_captured_headers:
        request_headers, response_headers = {}, {}
    else:
        request_headers = dict(body.request_headers)
        response_headers = dict(body.response_headers)
    return NelReport(age=report.age, url=url, body=ReportBody(**{
        **vars(body), "referrer": referrer, "request_headers": request_headers,
        "response_headers": response_headers}))


def persisted_ip(client_ip: str, mode: str) -> str:
    """The form of a client address that may reach persistent storage; any
    mode but ``full`` and ``truncate`` redacts it."""
    if mode == "full":
        return client_ip
    if mode != "truncate":
        return REDACTED
    try:
        address = ipaddress.ip_address(client_ip)
    except ValueError:
        # Not an address at all; safest to treat like volatile.
        return REDACTED
    bits = 24 if address.version == 4 else 48
    network = ipaddress.ip_network(f"{address}/{bits}", strict=False)
    return str(network.network_address)


@dataclass
class StoredRecord:
    """One persisted report with its delivery metadata; ``client_ip`` is the
    persisted form."""

    received_at: int
    report: NelReport
    client_ip: str
    user_agent: str

    def to_line(self) -> str:
        return json.dumps({**vars(self), "report": report_to_dict(self.report)},
                          separators=(",", ":"))


class Collector:
    """Ingests report batches, minimizes them, and stores them: to the log,
    then to ``sink`` once per batch, in log order. ``stored`` counts them."""

    def __init__(self, config: CollectorConfig,
                 sink: Callable[[list[StoredRecord]], None] | None = None):
        self.config = config
        self.stored = 0
        self._sink = sink
        self._lock = threading.Lock()
        # Set while an append has not completed; a failed one may have left
        # a torn last line.
        self._torn = False
        # The config does not change, so the emitted headers are serialized once.
        self._response_headers: dict[str, str] = {}
        if config.emit_nel is not None:
            self._response_headers = {
                "NEL": serialize_nel_header(config.emit_nel),
                "Report-To": serialize_report_to_header(config.emit_report_to or []),
            }
        if config.log_path is not None:
            Path(config.log_path).parent.mkdir(parents=True, exist_ok=True)
            _end_torn_line(config.log_path)  # an append torn by a crash

    def ingest(self, body: bytes, client_ip: str, user_agent: str, now: int) -> int:
        """Minimize and store every report in the batch; returns the count."""
        if len(body) > MAX_BODY_BYTES:
            raise RejectError(413, "body exceeds 1 MiB")
        try:
            reports = parse_report_batch(body)
        except ParseError as exc:
            raise RejectError(400, str(exc)) from None

        stored_ip = persisted_ip(client_ip, self.config.ip_mode)
        records = []
        try:
            for report in reports:
                records.append(StoredRecord(now, minimize(report, self.config),
                                            stored_ip, user_agent))
        except ValueError as exc:  # a URL that query stripping cannot parse
            raise RejectError(400, f"element {len(records)}: {exc}") from None
        with self._lock:
            # Disk first: a failed append reaches neither the count nor the sink.
            if self.config.log_path is not None:
                if self._torn:
                    _end_torn_line(self.config.log_path)
                self._torn = True  # until the append completes
                with open(self.config.log_path, "a", encoding="utf-8") as log:
                    log.write("".join(record.to_line() + "\n" for record in records))
                self._torn = False
            self.stored += len(records)
            if self._sink is not None:
                self._sink(records)
        return len(records)

    def response_headers(self) -> dict[str, str]:
        """Headers served on collector responses; how collector chains form."""
        return dict(self._response_headers)

    def purge_expired(self, now: int) -> int:
        """Drop log lines received before the retention window; returns how many.

        The log itself is filtered, so records an earlier process logged
        expire too. Without retention or a log there is nothing to drop.
        """
        retention = self.config.retention_seconds
        if retention is None or self.config.log_path is None:
            return 0
        with self._lock:
            return _purge_log(self.config.log_path, now - retention * 1000)


def _end_torn_line(log_path: str) -> None:
    """Create the log, or end its last line if an append left it torn."""
    with open(log_path, "ab+") as log:
        log.seek(max(log.tell() - 1, 0))
        if log.read(1) not in (b"", b"\n"):
            log.write(b"\n")


# A compact leading timestamp, as ``StoredRecord.to_line`` writes it.
_LEADING_STAMP = re.compile(rb'\{"received_at":(\d+),')


def _expired(line: bytes, oldest: int) -> bool:
    """Whether a log line was received before ``oldest``; one that cannot be
    dated was not."""
    # A leading timestamp that is the line's only "received_at" key proves
    # the line unexpired without a parse; a \u escape could spell another.
    stamp = _LEADING_STAMP.match(line)
    if (stamp and int(stamp[1]) >= oldest and b"\\u" not in line
            and line.count(b'"received_at"') == 1):
        return False
    try:
        return json.loads(line)["received_at"] < oldest
    except (ValueError, KeyError, TypeError):
        return False


def _purge_log(log_path: str, oldest: int) -> int:
    """Drop the log lines received before ``oldest``; returns how many.

    Nothing is written unless a line expired. Then the other lines,
    including any that cannot be dated, are copied verbatim to a temporary
    file that replaces the log. A failure leaves the old log whole.
    """
    temp_path = log_path + ".tmp"
    try:
        with open(log_path, "rb") as log:
            for kept, line in enumerate(log):
                if _expired(line, oldest):
                    break
            else:
                return 0
            with open(temp_path, "wb") as temp:
                with open(log_path, "rb") as head:
                    temp.writelines(islice(head, kept))
                dropped = 1
                for line in log:
                    if _expired(line, oldest):
                        dropped += 1
                    else:
                        temp.write(line)
                temp.flush()
                os.fsync(temp.fileno())
        os.replace(temp_path, log_path)
    finally:
        Path(temp_path).unlink(missing_ok=True)
    return dropped
