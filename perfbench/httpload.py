"""The ``http_ingest`` workload: ``nel-lab collect`` driven over loopback.

Each round spawns the collector as a child process with the README's sample
config, waits for its first answered request (set-up time), pushes the
seeded request pool through it in a closed loop (capacity), then sends
seeded Poisson arrivals at a fixed mean rate in an open loop (latency, timed
from each request's scheduled send time), and finally stops the collector
and checks every answer and every persisted record. Each round does the same
amount of work, so the collector's memory does not grow with its speed.
This process is the one client, on one keep-alive connection at a time.
"""

from __future__ import annotations

import json
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

POOL_SIZE = 400
BIG_BATCHES = 80  # sizes spread evenly over 2..MAX_BATCH; the rest are 1
MAX_BATCH = 50
MALFORMED = 16
CLOSED_PASSES = 4
OPEN_RATE = 400  # mean Poisson arrivals per second; about 1/3 of capacity here
OPEN_REQUESTS = 1000  # per round, so each round's p99 has 10 samples beyond it
MIN_ROUNDS = 3
TIMEOUT_S = 10.0
ROUND_DEADLINE_S = 60.0  # a normal round takes about 5 s
# A failed request counts as this late, which is over any latency limit.
FAILED_LATENCY_MS = TIMEOUT_S * 1000

USER_AGENT = "perfbench/1.0"
MEDIA_TYPE = "application/reports+json"

# The README's sample collector config; the listen address and log path are
# overridden per round on the command line.
COLLECTOR_CONFIG = {
    "listen": "127.0.0.1:9390",
    "ip_mode": "volatile",
    "strip_url_query": True,
    "drop_captured_headers": True,
    "retention": 86400,
    "log_path": "records.ndjson",
    "emit_nel_headers": {
        "nel": {"report_to": "meta", "max_age": 86400},
        "report_to": [{"group": "meta", "max_age": 86400,
                       "endpoints": [{"url": "https://upstream.example/up"}]}],
    },
}
EXPECTED_HEADERS = {
    "nel": COLLECTOR_CONFIG["emit_nel_headers"]["nel"],
    "report-to": COLLECTOR_CONFIG["emit_nel_headers"]["report_to"][0],
}

_OUTCOMES = (("ok", "application", 200), ("http.error", "application", 503),
             ("tcp.refused", "connection", 0), ("dns.name_not_resolved", "dns", 0))


@dataclass
class Request:
    """One pre-built POST and what the collector must make of it."""

    data: bytes
    malformed: bool
    stored: list[tuple[str, str]] = field(default_factory=list)  # (url, type)


def _strip(url: str) -> str:
    return url.split("#", 1)[0].split("?", 1)[0]


def _report(rng: random.Random) -> dict:
    host = f"site{rng.randrange(30):02d}.example"
    url = f"https://{host}/p{rng.randrange(1000)}"
    if rng.random() < 0.3:
        url += f"?session={rng.randrange(10**6)}&u=alice"
    if rng.random() < 0.1:
        url += "#frag"
    kind, phase, status = rng.choice(_OUTCOMES)
    captured = rng.random() < 0.2
    return {
        "age": rng.randrange(60_000),
        "type": "network-error",
        "url": url,
        "body": {
            "sampling_fraction": rng.choice((1.0, 0.5, 0.01)),
            "referrer": f"https://{host}/from?ref={rng.randrange(100)}",
            "server_ip": "" if phase == "dns" else f"198.18.0.{rng.randrange(1, 250)}",
            "protocol": "" if phase != "application" else "h2",
            "method": "GET",
            "request_headers": {"User-Agent": "Mozilla/5.0"} if captured else {},
            "response_headers": {"Cache-Control": "no-store"} if captured else {},
            "status_code": status,
            "elapsed_time": rng.randrange(2000) if phase == "application" else 0,
            "phase": phase,
            "type": kind,
        },
    }


def _malformed(kind: int, rng: random.Random) -> bytes:
    """A report-batch body the collector must answer with 400."""
    report = _report(rng)
    if kind == 0:
        return b'[{"age": 1, "type": "network-error", "url": '
    if kind == 1:
        return json.dumps(report).encode()  # an object, not a list
    if kind == 2:
        return b"[\xff\xfe]"  # not UTF-8
    if kind == 3:
        del report["body"]
    elif kind == 4:
        report["body"]["sampling_fraction"] = 1.5
    elif kind == 5:
        report["body"]["phase"] = "tls"
    elif kind == 6:
        report["age"] = True
    else:
        report["type"] = "csp-violation"
    return json.dumps([report]).encode()


def _post(body: bytes) -> bytes:
    return (f"POST /up HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: {USER_AGENT}\r\n"
            f"Content-Type: {MEDIA_TYPE}\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode() + body


GET_REQUEST = b"GET / HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: perfbench/1.0\r\n\r\n"


def request_pool(seed: int) -> list[Request]:
    """The seeded request mix; the batch-size mix is the same for every seed."""
    rng = random.Random(f"perfbench/http_ingest/{seed}")
    sizes = [2 + (MAX_BATCH - 2) * i // (BIG_BATCHES - 1) for i in range(BIG_BATCHES)]
    sizes += [1] * (POOL_SIZE - MALFORMED - BIG_BATCHES)
    pool = []
    for size in sizes:
        reports = [_report(rng) for _ in range(size)]
        pool.append(Request(_post(json.dumps(reports).encode()), False,
                            [(_strip(r["url"]), r["body"]["type"]) for r in reports]))
    for i in range(MALFORMED):
        pool.append(Request(_post(_malformed(i % 8, rng)), True))
    rng.shuffle(pool)
    return pool


def request_ok(malformed: bool, status: int | None, headers_ok: bool) -> bool:
    """Whether one answer is right; ``status`` None means no answer came.

    A malformed batch must get 400. A valid batch must get 200 with the
    configured ``NEL`` and ``Report-To`` headers.
    """
    if status is None:
        return False
    if malformed:
        return status == 400
    return status == 200 and headers_ok


class _HeaderCheck:
    """Checks response headers against the config, caching by raw value."""

    def __init__(self):
        self._seen: dict[bytes, bool] = {}

    def __call__(self, block: bytes) -> bool:
        ok = self._seen.get(block)
        if ok is None:
            found = {}
            for line in block.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                found[name.strip().lower().decode()] = value.strip().decode()
            try:
                ok = all(json.loads(found[name]) == value
                         for name, value in EXPECTED_HEADERS.items())
            except (KeyError, json.JSONDecodeError):
                ok = False
            self._seen[block] = ok
        return ok


class Answer(NamedTuple):
    """One answered or failed request; ``status`` None means no answer came."""

    index: int  # into the request pool
    scheduled: float
    done: float
    status: int | None
    headers_ok: bool


class _Connection:
    """One keep-alive connection; answers arrive in request order."""

    def __init__(self, port: int, selector: selectors.BaseSelector, check: _HeaderCheck):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.selector = selector
        self.check = check
        self.outstanding: deque = deque()  # (index, scheduled)
        self.buffer = b""
        selector.register(self.sock, selectors.EVENT_READ, self)

    def send(self, index: int, data: bytes, scheduled: float) -> None:
        self.outstanding.append((index, scheduled))
        try:
            self.sock.sendall(data)
        except OSError:
            pass  # the failure shows when the answer never comes

    def read(self) -> tuple[list[Answer], bool]:
        """Answers completed by newly arrived bytes, and whether it is open."""
        try:
            chunk = self.sock.recv(65536)
        except OSError:
            chunk = b""
        if not chunk:
            return self.fail_all(), False
        now = time.perf_counter()
        self.buffer += chunk
        answers = []
        while self.outstanding:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                break
            block = self.buffer[:end]
            match = re.search(rb"\r\ncontent-length:\s*(\d+)", block, re.IGNORECASE)
            body_end = end + 4 + (int(match.group(1)) if match else 0)
            if len(self.buffer) < body_end:
                break
            self.buffer = self.buffer[body_end:]
            index, scheduled = self.outstanding.popleft()
            status = int(block.split(b" ", 2)[1])
            answers.append(Answer(index, scheduled, now, status,
                                  status == 200 and self.check(block)))
        return answers, True

    def fail_all(self) -> list[Answer]:
        now = time.perf_counter()
        failed = [Answer(index, scheduled, now, None, False)
                  for index, scheduled in self.outstanding]
        self.outstanding.clear()
        return failed

    def close(self) -> None:
        self.selector.unregister(self.sock)
        self.sock.close()


class Client:
    """One client on one keep-alive connection, reopened if the collector drops it.

    No wait outlasts the round's ``deadline``.
    """

    def __init__(self, port: int, deadline: float):
        self.port = port
        self.deadline = deadline
        self.selector = selectors.DefaultSelector()
        self.check = _HeaderCheck()
        self.conn: _Connection | None = None

    def connection(self) -> _Connection:
        if self.conn is None:
            self.conn = _Connection(self.port, self.selector, self.check)
        return self.conn

    def drop_connection(self) -> None:
        """Close the connection; the next request opens a fresh one."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def poll(self, timeout: float) -> list[Answer]:
        timeout = max(0.0, min(timeout, self.deadline - time.perf_counter()))
        if self.conn is None or not self.selector.select(timeout):
            return []
        answers, still_open = self.conn.read()
        if not still_open:
            self.drop_connection()
        return answers

    def finish(self) -> list[Answer]:
        """Wait for every unanswered request, at most until the deadline."""
        answers = []
        while self.conn is not None and self.conn.outstanding and not self.expired():
            answers += self.poll(TIMEOUT_S)
        if self.conn is not None:
            answers += self.conn.fail_all()
        return answers

    def closed_loop(self, pool: list[Request], passes: int) -> tuple[list[Answer], list[float]]:
        """One caller: the next request waits for the last answer."""
        answers, durations = [], []
        for _ in range(passes):
            start = time.perf_counter()
            for index, request in enumerate(pool):
                now = time.perf_counter()
                if self.expired():
                    answers.append(Answer(index, now, now, None, False))
                    continue
                self.connection().send(index, request.data, now)
                answers += self.finish()
            durations.append(time.perf_counter() - start)
        return answers, durations

    def open_loop(self, pool: list[Request], arrivals: list[float],
                  first: int) -> tuple[list[Answer], list[float]]:
        """Independent users: send at the given arrival offsets, in seconds.

        Requests are taken from the pool in order, starting at ``first``.
        The client spins between sends instead of sleeping, so that a slow
        wake-up of this process is not charged to the collector. Returns the
        answers and how late each send was, in seconds.
        """
        answers, lateness = [], []
        start = time.perf_counter() + 0.01
        for k, offset in enumerate(arrivals):
            scheduled = start + offset
            while time.perf_counter() < scheduled:
                answers += self.poll(0)
            index = (first + k) % len(pool)
            if self.expired():
                answers.append(Answer(index, scheduled, scheduled, None, False))
                continue
            self.connection().send(index, pool[index].data, scheduled)
            lateness.append(time.perf_counter() - scheduled)
        self.deadline = min(self.deadline, time.perf_counter() + TIMEOUT_S)
        return answers + self.finish(), lateness

    def close(self) -> None:
        self.drop_connection()
        self.selector.close()


@dataclass
class RoundResult:
    setup_s: float
    pass_durations: list[float]
    answers: list[Answer]
    failed: int
    latencies_ms: list[float]
    lateness_ms: list[float]
    peak_rss_mb: float
    log_bytes: int
    problems: list[str]
    spans_path: Path | None


def _check_log(log_path: Path, expected: Counter, records_line: int | None) -> list[str]:
    """The NDJSON log must hold exactly the minimized valid reports."""
    problems = []
    data = log_path.read_bytes()
    if b"127.0.0.1" in data:
        problems.append("a loopback address literal reached the log")
    lines = data.splitlines()
    total = sum(expected.values())
    if len(lines) != total:
        problems.append(f"log has {len(lines)} lines, {total} valid reports were sent")
    if records_line != total:
        problems.append(f"collector reported {records_line} records, {total} were sent")
    stored: Counter = Counter()
    for number, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
            report, body = record["report"], record["report"]["body"]
            if (record["client_ip"] != "[redacted]" or record["user_agent"] != USER_AGENT
                    or body["request_headers"] or body["response_headers"]
                    or "?" in body["referrer"] or "#" in body["referrer"]):
                problems.append(f"log line {number} is not minimized")
                break
            stored[(report["url"], body["type"])] += 1
        except (json.JSONDecodeError, KeyError, TypeError):
            problems.append(f"log line {number} does not parse as a record")
            break
    if not problems and stored != expected:
        problems.append("stored records differ from the valid reports sent")
    return problems


class _Collector:
    """The ``nel-lab collect`` child of one round."""

    def __init__(self, root: Path, workdir: Path, name: str, trace: bool):
        self.workdir = workdir
        self.config_path = workdir / "collector.json"
        self.config_path.write_text(json.dumps(COLLECTOR_CONFIG))
        self.log_path = workdir / f"{name}.ndjson"
        self.summary_path = workdir / f"{name}.summary.json"
        self.spans_path = workdir / f"{name}.spans.json" if trace else None
        command = [sys.executable, str(Path(__file__).with_name("collector_child.py")),
                   "--summary", str(self.summary_path)]
        if trace:
            command += ["--spans", str(self.spans_path)]
        command += ["collect", "--config", str(self.config_path),
                    "--listen", "127.0.0.1:0", "--log-path", str(self.log_path)]
        self.stderr_path = workdir / f"{name}.stderr"
        self.stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self.stderr, cwd=root)

    def port(self) -> int:
        """The port from the collector's first line of output."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            ready = sel.select(TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = re.search(r"listening on \S+:(\d+) ", line)
        if match is None:
            tail = self.stderr_path.read_bytes()[-500:].decode(errors="replace")
            raise RuntimeError(f"collector did not start: {line!r} {tail}")
        return int(match.group(1))

    def stop(self) -> tuple[int | None, dict]:
        """Interrupt the collector; its record count and exit summary."""
        self.proc.send_signal(signal.SIGINT)
        out, _ = self.proc.communicate(timeout=TIMEOUT_S * 3)
        match = re.search(r"collector stopped; (\d+) records", out.decode())
        summary = (json.loads(self.summary_path.read_text())
                   if self.summary_path.exists() else {})
        return (int(match.group(1)) if match else None), summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def arrivals(seed: int, round_index: int) -> list[float]:
    """Poisson arrival offsets for one round's open loop, in seconds."""
    rng = random.Random(f"perfbench/http_ingest/{seed}/arrivals/{round_index}")
    offsets, at = [], 0.0
    for _ in range(OPEN_REQUESTS):
        offsets.append(at)
        at += rng.expovariate(OPEN_RATE)
    return offsets


def run_round(root: Path, workdir: Path, name: str, pool: list[Request],
              seed: int, round_index: int, trace: bool) -> RoundResult:
    """One collector's life: start, closed loop, open loop, stop, check."""
    problems: list[str] = []
    started = time.perf_counter()
    child = _Collector(root, workdir, name, trace)
    client = None
    try:
        client = Client(child.port(), started + ROUND_DEADLINE_S)
        client.connection().send(-1, GET_REQUEST, started)
        hello = client.finish()
        setup_s = time.perf_counter() - started
        if not hello or not request_ok(False, hello[0].status, hello[0].headers_ok):
            problems.append("the collector's first answer lacks its configured headers")

        closed, durations = client.closed_loop(pool, CLOSED_PASSES)
        # A connection's delayed-ACK state carries over from the closed
        # loop and changes the open loop's latency, so start afresh.
        client.drop_connection()
        opened, lateness = client.open_loop(pool, arrivals(seed, round_index),
                                            first=round_index * 97)
        client.close()
        client = None
        records, summary = child.stop()
    finally:
        if client is not None:
            client.close()
        child.kill()

    answers = closed + opened
    right = [request_ok(pool[a.index].malformed, a.status, a.headers_ok) for a in answers]
    if not all(right):
        problems.append(f"{right.count(False)} requests were answered wrongly or not at all")
    if summary.get("exit") != 0:
        problems.append(f"collector exited with {child.proc.returncode}")
    expected: Counter = Counter()
    for answer in answers:
        if answer.status == 200:
            expected.update(pool[answer.index].stored)
    problems += _check_log(child.log_path, expected, records)
    latencies = [(a.done - a.scheduled) * 1000 if ok else FAILED_LATENCY_MS
                 for a, ok in zip(opened, right[len(closed):])]
    log_bytes = child.log_path.stat().st_size
    child.log_path.unlink()
    return RoundResult(setup_s, durations, answers, right.count(False), latencies,
                       [late * 1000 for late in lateness],
                       summary.get("peak_rss_mb", 0.0), log_bytes, problems,
                       child.spans_path)
