"""Model-based check of the report engine's heap queue.

A Hypothesis state machine drives the engine and a reference engine side by
side: the list-scan engine the heap replaced, kept here with tasks removed
by identity and its own due time on each task. Both get the same policies,
outcomes, clock steps and a scripted transport; every attempt, sink event,
transport call, RNG state and pending task must agree.
"""

import json
import random
from dataclasses import dataclass, field, fields

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from nellab.headers import (
    NelReport,
    ReportBody,
    report_to_dict,
    serialize_report_batch,
    strip_credentials,
)
from nellab.policy_store import PolicyStore
from nellab.report_engine import (
    BACKOFF_BASE_MS,
    MAX_ATTEMPTS,
    ReportEngine,
    RequestOutcome,
    TransportResult,
    apply_referrer_restriction,
    capture_headers,
)

# Where ``RequestOutcome`` has an ``event_time`` member, outcomes are dated
# ``now``, so the machine also runs on engines that take one.
_DATED_OUTCOMES = "event_time" in {f.name for f in fields(RequestOutcome)}


def make_outcome(now: int, **members) -> RequestOutcome:
    if _DATED_OUTCOMES:
        members["event_time"] = now
    return RequestOutcome(**members)


@dataclass(eq=False)
class ReferenceTask:
    report: NelReport
    group: object
    event_time: int
    due: int
    attempts: int = 0
    failed_endpoints: set = field(default_factory=set)


class ListScanEngine:
    """The engine before its heap queue: every call scans one task list."""

    def __init__(self, store, rng, sink, referrer_mode="origin-only",
                 strict_subdomains=False):
        self.store = store
        self.rng = rng
        self.referrer_mode = referrer_mode
        self.strict_subdomains = strict_subdomains
        self._sink = sink
        self._queue: list[ReferenceTask] = []

    def observe(self, outcome, now, is_meta=False):
        stored = self.store.lookup(outcome.host, now)
        if stored is None:
            return None
        via_subdomain = stored.host != outcome.host
        if via_subdomain and self.strict_subdomains and outcome.phase != "dns":
            return None
        policy = stored.policy
        fraction = (policy.success_fraction if outcome.is_success
                    else policy.failure_fraction)
        if not self.rng.random() < fraction:
            return None
        request_headers, response_headers = capture_headers(outcome, policy)
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
        url = strip_credentials(outcome.url)
        task = ReferenceTask(report=NelReport(age=0, url=url, body=body),
                             group=stored.group, event_time=now, due=now)
        self._queue.append(task)
        if is_meta:
            self._sink("meta_report_queued", now, {
                "url": url, "collector": outcome.host, "phase": outcome.phase,
                "group": task.group.name, "sampling_fraction": fraction})
        else:
            self._sink("report_queued", now, {
                "url": url, "report_type": outcome.result_type,
                "phase": outcome.phase, "group": task.group.name,
                "sampling_fraction": fraction})
        return task

    def deliver_due(self, now, transport):
        due = [t for t in self._queue if t.due <= now]
        if not due:
            return []
        batches = {}
        for task in due:
            endpoint = self._choose_endpoint(task)
            batches.setdefault((task.group.name, endpoint.url), []).append(task)
        results = []
        for (group_name, url), tasks in batches.items():
            for task in tasks:
                task.report.age = max(0, now - task.event_time)
            result = transport(url, [t.report for t in tasks], now)
            results.append(result)
            self._sink("delivery_attempt", now, {
                "endpoint": url, "group": group_name, "result": result.result,
                "status": result.status_code, "reports": len(tasks)})
            for task in tasks:
                if result.result == "delivered":
                    self._remove(task)
                    continue
                task.attempts += 1
                task.failed_endpoints.add(url)
                if task.attempts >= MAX_ATTEMPTS:
                    self._remove(task)
                    self._queue_meta_report(url, result, now)
                else:
                    task.due = now + BACKOFF_BASE_MS * 2 ** (task.attempts - 1)
        return results

    def _remove(self, task):
        del self._queue[next(i for i, t in enumerate(self._queue) if t is task)]

    def _choose_endpoint(self, task):
        candidates = [e for e in task.group.endpoints
                      if e.url not in task.failed_endpoints]
        if not candidates:
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

    def _queue_meta_report(self, upload_url, result, now):
        if result.result == "http_error":
            phase, result_type = "application", "http.error"
            status, protocol = result.status_code or 0, "h2"
        else:
            phase, result_type = "connection", "tcp.refused"
            status, protocol = 0, ""
        self.observe(make_outcome(
            now, url=upload_url, referrer="", method="POST", protocol=protocol,
            server_ip="", status_code=status, elapsed_time=0, phase=phase,
            result_type=result_type), now, is_meta=True)

    def pending(self):
        return list(self._queue)

    def next_due(self):
        return min((t.due for t in self._queue), default=None)


class ScriptedTransport:
    """Answers each endpoint as the machine last set it; logs every call.

    A call is logged with the body its reports encode to at call time, so
    report ages and order stay pinned after the engine ages them again.
    """

    def __init__(self, states):
        self.states = states
        self.calls = []

    def __call__(self, url, reports, now):
        self.calls.append((url, serialize_report_batch(reports), now))
        state = self.states[url]
        if state == "up":
            return TransportResult("delivered", status_code=200)
        if state == "down":
            return TransportResult("unreachable")
        return TransportResult("http_error", status_code=state)


HOSTS = ["a.example", "b.example", "c1.example", "c2.example"]
URL_HOSTS = HOSTS + ["sub.a.example", "none.example"]
ENDPOINTS = [f"https://{h}/up" for h in ("c1.example", "c2.example", "c3.example")]

# Clock steps in ms; "due" moves the clock to the engine's next due time.
STEPS = [0, 1, 1_000, 60_000, 120_000, 3_600_000, "due"]

# (endpoints, max_age, success_fraction, failure_fraction, include_subdomains);
# priorities and weights of 1 or 2 make ties in both.
policies = st.tuples(
    st.lists(st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from([1, 2]),
                       st.sampled_from([1, 2])),
             min_size=1, max_size=3, unique_by=lambda e: e[0]),
    st.sampled_from([3_600, 86_400, 31_536_000]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.5, 1.0]),
    st.booleans(),
)


def task_view(task):
    return (report_to_dict(task.report), task.group, task.event_time, task.attempts,
            sorted(task.failed_endpoints))


class EngineAgainstListScan(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16), strict=st.booleans(),
                states=st.lists(st.sampled_from(["up", "down", 500]),
                                min_size=len(ENDPOINTS), max_size=len(ENDPOINTS)),
                installed=st.lists(policies, min_size=len(HOSTS), max_size=len(HOSTS)))
    def start(self, seed, strict, states, installed):
        self.now = 0
        self.states = dict(zip(ENDPOINTS, states))
        self.events = ([], [])
        self.stores = (PolicyStore(), PolicyStore())
        self.transports = (ScriptedTransport(self.states), ScriptedTransport(self.states))
        self.engine = ReportEngine(
            self.stores[0], random.Random(seed),
            sink=lambda kind, at, data: self.events[0].append((kind, at, data)),
            strict_subdomains=strict)
        self.reference = ListScanEngine(
            self.stores[1], random.Random(seed),
            sink=lambda kind, at, data: self.events[1].append((kind, at, data)),
            strict_subdomains=strict)
        for host, policy in zip(HOSTS, installed):
            self.install(host, policy)

    def advance(self, step):
        if step == "due":
            self.now = max(self.now, self.engine.next_due() or 0)
        else:
            self.now += step

    @rule(host=st.sampled_from(HOSTS), policy=st.none() | policies)
    def install(self, host, policy):
        if policy is None:
            for store in self.stores:
                store.process_policy_headers(host, True, '{"max_age":0}', None, self.now)
            return
        endpoints, max_age, success, failure, subdomains = policy
        nel = json.dumps({"report_to": "g", "max_age": max_age,
                          "success_fraction": success, "failure_fraction": failure,
                          "include_subdomains": subdomains})
        report_to = json.dumps({"group": "g", "max_age": 86_400, "endpoints": [
            {"url": url, "priority": priority, "weight": weight}
            for url, priority, weight in endpoints]})
        effects = [store.process_policy_headers(host, True, nel, report_to, self.now)
                   for store in self.stores]
        assert effects[0] == effects[1]

    @rule(step=st.sampled_from(STEPS), host=st.sampled_from(URL_HOSTS),
          success=st.booleans(), phase=st.sampled_from(["dns", "connection", "application"]),
          times=st.integers(1, 3))
    def observe(self, step, host, success, phase, times):
        self.advance(step)
        for _ in range(times):
            members = dict(url=f"https://{host}/p?q=1", referrer="https://r.example/x",
                           method="GET", protocol="h2", server_ip="192.0.2.1",
                           status_code=0 if phase == "dns" else 200, elapsed_time=5,
                           phase=phase, result_type="ok" if success else "tcp.refused")
            task = self.engine.observe(make_outcome(self.now, **members), self.now)
            expected = self.reference.observe(make_outcome(self.now, **members), self.now)
            assert (task is None) == (expected is None)
            if task is not None:
                assert task_view(task) == task_view(expected)

    @rule(step=st.sampled_from(STEPS),
          change=st.none() | st.tuples(st.sampled_from(ENDPOINTS),
                                       st.sampled_from(["up", "down", 500])))
    def deliver(self, step, change):
        if change is not None:
            url, state = change
            self.states[url] = state
        self.advance(step)
        results = self.engine.deliver_due(self.now, self.transports[0])
        expected = self.reference.deliver_due(self.now, self.transports[1])
        assert results == expected

    @invariant()
    def agree(self):
        assert self.events[0] == self.events[1]
        assert self.transports[0].calls == self.transports[1].calls
        assert self.engine.rng.getstate() == self.reference.rng.getstate()
        assert self.engine.next_due() == self.reference.next_due()
        assert ([task_view(t) for t in self.engine.pending()]
                == [task_view(t) for t in self.reference.pending()])


EngineAgainstListScan.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestEngineAgainstListScan = EngineAgainstListScan.TestCase
