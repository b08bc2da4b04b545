"""Turns observed request outcomes into sampled, queued, delivered reports.

The engine owns one browser agent's report queue. Observation samples
outcomes against the governing policy's success/failure fractions using an
injected RNG; delivery batches due reports per endpoint, fails over across
a group's endpoints by priority and weight, retries with exponential
backoff, and on final failure emits a meta-report about the collector when
the collector host itself carries a stored policy.

No real network I/O happens here: delivery hands each batch's reports, not
bytes, to a transport oracle ``(url, reports, now) -> TransportResult``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Literal
from urllib.parse import urlsplit

from .headers import (
    EndpointGroup,
    NelPolicyHeader,
    NelReport,
    REPORT_PHASES,
    ReportBody,
    strip_credentials,
    strip_query,
)
from .policy_store import PolicyStore

MAX_ATTEMPTS = 3
BACKOFF_BASE_MS = 60_000

SUCCESS_TYPE = "ok"


@dataclass
class RequestOutcome:
    """The result of one fetch, observed at the ``now`` given to ``observe``."""

    url: str
    referrer: str
    method: str
    protocol: str
    server_ip: str
    status_code: int
    elapsed_time: int
    phase: str  # dns | connection | application
    result_type: str  # "ok" or an error type like "dns.name_not_resolved"
    request_headers: dict[str, str] = field(default_factory=dict)
    response_headers: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.phase not in REPORT_PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.phase == "dns" and self.status_code != 0:
            raise ValueError("dns-phase outcomes carry no status code")

    @property
    def is_success(self) -> bool:
        return self.result_type == SUCCESS_TYPE

    @property
    def host(self) -> str:
        return urlsplit(self.url).hostname or ""


@dataclass(frozen=True)
class TransportResult:
    """What the transport oracle observed for one upload."""

    result: str  # delivered | unreachable | http_error
    status_code: int | None = None


DELIVERED = TransportResult("delivered", status_code=200)
UNREACHABLE = TransportResult("unreachable")

# Reports arrive aged for ``now``; a retry ages the same objects again.
Transport = Callable[[str, list[NelReport], int], TransportResult]


@dataclass(eq=False)
class DeliveryTask:
    """One report waiting in the delivery queue.

    Tasks compare by identity: two reports with equal contents are still
    two tasks. Report age counts from ``event_time``. ``seq`` is the
    engine's insertion counter, which orders tasks that fall due together.
    """

    report: NelReport
    group: EndpointGroup
    event_time: int
    attempts: int = 0
    failed_endpoints: set[str] = field(default_factory=set)
    seq: int = 0


ReferrerMode = Literal["origin-only", "strip-path", "full"]


def apply_referrer_restriction(referrer: str, mode: ReferrerMode = "origin-only") -> str:
    """Reduce a referrer URL before it enters a report body.

    ``origin-only`` keeps scheme and host, ``strip-path`` keeps the path but
    drops query and fragment, ``full`` passes the value through. No mode
    keeps URL credentials. Any other mode is read as ``origin-only``.
    """
    if not referrer:
        return referrer
    if mode == "full":
        return strip_credentials(referrer)
    if mode == "strip-path":
        return strip_query(referrer)
    parts = urlsplit(referrer)
    return f"{parts.scheme}://{parts.netloc.rpartition('@')[2]}/"


def capture_headers(outcome: RequestOutcome,
                    policy: NelPolicyHeader) -> tuple[dict[str, str], dict[str, str]]:
    """Copy only the exchange headers the policy asked to capture."""

    def pick(names: tuple[str, ...], available: dict[str, str]) -> dict[str, str]:
        lowered = {k.lower(): v for k, v in available.items()}
        return {name: lowered[name.lower()] for name in names
                if name.lower() in lowered}

    return (pick(policy.request_headers, outcome.request_headers),
            pick(policy.response_headers, outcome.response_headers))


class ReportEngine:
    """Report sampling, queueing, and delivery for one browser agent.

    ``sink``, when given, receives ``(kind, at, data)`` engine events:
    ``report_queued``, ``meta_report_queued``, and ``delivery_attempt``,
    the only record of each upload. Each ``data`` dict is new, and the sink
    may keep or change it. Reports never carry URL credentials. With
    ``strict_subdomains`` set, a policy found through a superdomain governs
    only dns-phase outcomes. The transport encodes each upload it makes.
    """

    def __init__(self, store: PolicyStore, rng: random.Random,
                 sink: Callable[[str, int, dict], None] | None = None,
                 referrer_mode: ReferrerMode = "origin-only",
                 strict_subdomains: bool = False):
        self.store = store
        self.rng = rng
        self.referrer_mode = referrer_mode
        self.strict_subdomains = strict_subdomains
        self._sink = sink
        # Queued tasks by seq, in insertion order, and a heap of
        # (due time, seq) over them.
        self._tasks: dict[int, DeliveryTask] = {}
        self._queue: list[tuple[int, int]] = []
        self._seq = 0

    # -- observation ---------------------------------------------------------

    def observe(self, outcome: RequestOutcome, now: int,
                is_meta: bool = False) -> DeliveryTask | None:
        """Sample an outcome seen at ``now`` against its policy and queue a report."""
        host = outcome.host
        stored = self.store.lookup(host, now)
        if stored is None:
            return None
        if self.strict_subdomains and stored.host != host and outcome.phase != "dns":
            return None

        policy = stored.policy
        fraction = (policy.success_fraction if outcome.is_success
                    else policy.failure_fraction)
        if not self.rng.random() < fraction:
            return None

        request_headers, response_headers = capture_headers(outcome, policy)
        url = strip_credentials(outcome.url)
        body = ReportBody(
            sampling_fraction=fraction,
            referrer=apply_referrer_restriction(outcome.referrer, self.referrer_mode),
            server_ip=outcome.server_ip,
            protocol=outcome.protocol,
            method=outcome.method,
            request_headers=request_headers,
            response_headers=response_headers,
            status_code=outcome.status_code,
            elapsed_time=outcome.elapsed_time,
            phase=outcome.phase,
            type=outcome.result_type,
        )
        task = DeliveryTask(
            report=NelReport(age=0, url=url, body=body),
            group=stored.group,
            event_time=now,
            seq=self._seq,
        )
        self._seq += 1
        self._tasks[task.seq] = task
        heapq.heappush(self._queue, (now, task.seq))
        event = {
            "url": url,
            "phase": outcome.phase,
            "group": task.group.name,
            "sampling_fraction": fraction,
        }
        if is_meta:
            event["collector"] = host
        else:
            event["report_type"] = outcome.result_type
        self._emit("meta_report_queued" if is_meta else "report_queued", now, event)
        return task

    # -- delivery --------------------------------------------------------------

    def deliver_due(self, now: int, transport: Transport) -> list[TransportResult]:
        """Attempt every task due at ``now``, one batch per (group, endpoint).

        Returns the transport's result for each upload, in upload order; the
        ``delivery_attempt`` event is the record of each attempt. Due tasks
        are taken in insertion order, so batch order and the endpoint draws
        do not depend on when each task was last retried.
        """
        queue = self._queue
        if not queue or queue[0][0] > now:
            return []
        due = []
        while queue and queue[0][0] <= now:
            due.append(heapq.heappop(queue)[1])
        due.sort()

        batches: dict[tuple[str, str], list[DeliveryTask]] = {}
        for seq in due:
            task = self._tasks[seq]
            endpoint = self._choose_endpoint(task)
            batches.setdefault((task.group.name, endpoint.url), []).append(task)

        results = []
        for (group_name, url), tasks in batches.items():
            for task in tasks:
                task.report.age = max(0, now - task.event_time)
            result = transport(url, [t.report for t in tasks], now)
            results.append(result)
            self._emit("delivery_attempt", now, {
                "endpoint": url,
                "group": group_name,
                "result": result.result,
                "status": result.status_code,
                "reports": len(tasks),
            })
            if result.result == "delivered":
                for task in tasks:
                    del self._tasks[task.seq]
            else:
                for task in tasks:
                    task.attempts += 1
                    task.failed_endpoints.add(url)
                    if task.attempts >= MAX_ATTEMPTS:
                        del self._tasks[task.seq]
                        self._queue_meta_report(url, result, now)
                    else:
                        heapq.heappush(queue, (now + self.backoff(task.attempts),
                                               task.seq))
        return results

    def _choose_endpoint(self, task: DeliveryTask):
        candidates = [e for e in task.group.endpoints
                      if e.url not in task.failed_endpoints]
        if not candidates:
            # Every endpoint has failed at least once; start over.
            candidates = list(task.group.endpoints)
        best = min(e.priority for e in candidates)
        pool = [e for e in candidates if e.priority == best]
        if len(pool) == 1:
            return pool[0]
        draw = self.rng.random() * sum(e.weight for e in pool)
        acc = 0.0
        for endpoint in pool:
            acc += endpoint.weight
            if draw < acc:
                return endpoint
        return pool[-1]

    def _queue_meta_report(self, upload_url: str, result: TransportResult,
                           now: int) -> None:
        """After final delivery failure, report the collector's own error.

        Queued only when the collector host carries a stored policy; routed
        and sampled under that policy like any other failure outcome.
        """
        if result.result == "http_error":
            phase, result_type = "application", "http.error"
            status, protocol = result.status_code or 0, "h2"
        else:
            phase, result_type = "connection", "tcp.refused"
            status, protocol = 0, ""
        outcome = RequestOutcome(
            url=upload_url,
            referrer="",
            method="POST",
            protocol=protocol,
            server_ip="",
            status_code=status,
            elapsed_time=0,
            phase=phase,
            result_type=result_type,
        )
        self.observe(outcome, now, is_meta=True)

    # -- queue state ---------------------------------------------------------

    @staticmethod
    def backoff(attempts: int) -> int:
        """Virtual-time retry delay in ms after ``attempts`` failures."""
        return BACKOFF_BASE_MS * 2 ** (attempts - 1)

    def pending(self) -> list[DeliveryTask]:
        """Queued tasks in insertion order."""
        return list(self._tasks.values())

    def next_due(self) -> int | None:
        """Earliest scheduled attempt time, or None when the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def _emit(self, kind: str, at: int, data: dict) -> None:
        if self._sink is not None:
            self._sink(kind, at, data)
