"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute. Everything here is deterministic: fixed seeds, virtual clocks,
frozen expected values.
"""

import copy
import json
import math
import random
import time
from contextlib import contextmanager
from urllib.parse import urlsplit

from nellab.collector import Collector, CollectorConfig
from nellab.headers import serialize_report_batch
from nellab.policy_store import PolicyStore, superdomains
from nellab.report_engine import ReportEngine, RequestOutcome
from nellab.sim import CENTURY_S, DAY_MS, builtin_scenarios, run_scenario

from conftest import FIG1_REPORT


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def events_of(trace, kind):
    return [e for e in trace.events if e.kind == kind]


def host_of(url):
    return (urlsplit(url).hostname or "").lower()


GROUPS = '{"group":"g","max_age":86400,"endpoints":[{"url":"https://c.example/up"}]}'


def store_with_policy(host, success=0.0, failure=1.0):
    store = PolicyStore()
    nel = json.dumps({"report_to": "g", "max_age": 86400,
                      "success_fraction": success, "failure_fraction": failure})
    effect = store.process_policy_headers(host, True, nel, GROUPS, 0)
    assert effect.kind == "installed"
    return store


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_criterion_1_fig1_fidelity():
    with criterion(1, "Fig. 1 report serializes field-for-field"):
        started = time.perf_counter()
        store = store_with_policy("www.example.com", failure=0.5)
        engine = ReportEngine(store, _FixedDraw(0.25))
        outcome = RequestOutcome(
            url="https://www.example.com/",
            referrer="http://example.com/page",
            method="GET",
            protocol="h2",
            server_ip="2001:DB8:0:0:0:0:0:42",
            status_code=200,
            elapsed_time=823,
            phase="application",
            result_type="http.protocol.error")
        task = engine.observe(outcome, 1_000)
        assert task is not None
        serialized = json.loads(serialize_report_batch([task.report]))
        assert serialized == [FIG1_REPORT]
        assert serialized[0]["age"] == 0
        assert serialized[0]["body"]["sampling_fraction"] == 0.5
        assert serialized[0]["body"]["status_code"] == 200
        assert serialized[0]["body"]["elapsed_time"] == 823
        assert serialized[0]["body"]["phase"] == "application"
        assert serialized[0]["body"]["type"] == "http.protocol.error"
        assert time.perf_counter() - started < 1.0


def test_criterion_2_fig2_chain():
    with criterion(2, "fig2_chain stores exactly one error of C at C'"):
        trace = run_scenario(builtin_scenarios()["fig2_chain"])
        at_cprime = [e for e in events_of(trace, "report_stored")
                     if e.data["collector"] == "cprime.example"]
        assert len(at_cprime) == 1
        assert at_cprime[0].data["url"] == "https://c.example/up"
        assert host_of(at_cprime[0].data["url"]) == "c.example"
        assert at_cprime[0].data["report_type"] == "tcp.refused"


def test_criterion_3_fig3_split_chain():
    with criterion(3, "fig3_split_chain reports nothing about B.C.example"):
        trace = run_scenario(builtin_scenarios()["fig3_split_chain"])
        concerning = [
            e for e in trace.events
            if (e.kind == "report_stored"
                and (e.data["collector"] == "b.c.example"
                     or host_of(e.data["url"]) == "b.c.example"))
            or (e.kind == "report_queued"
                and host_of(e.data["url"]) == "b.c.example")
            or (e.kind == "meta_report_queued"
                and e.data["collector"] == "b.c.example")
        ]
        assert concerning == []


def test_criterion_4_persistence_and_scrub():
    with criterion(4, "century policy persists 30+ days; max_age=0 scrubs it"):
        config = builtin_scenarios()["mitm_persistence"]
        window_end = config.mitm_windows[0].end
        trace = run_scenario(config)
        installs = events_of(trace, "policy_installed")
        assert all(e.data["max_age"] == CENTURY_S for e in installs)
        late = [e for e in events_of(trace, "delivery_attempt")
                if host_of(e.data["endpoint"]) == "evil-collector.example"
                and e.at >= window_end + 30 * DAY_MS]
        assert len(late) >= 1

        scrub_trace = run_scenario(builtin_scenarios()["mitigation_scrub"])
        scrubbed_at = min(e.at for e in events_of(scrub_trace, "policy_removed"))
        after = [e for e in events_of(scrub_trace, "delivery_attempt")
                 if host_of(e.data["endpoint"]) == "evil-collector.example"
                 and e.at >= scrubbed_at]
        assert after == []


def test_criterion_5_dns_firewall_leak():
    with criterion(5, "dns_firewall stores dns.address_changed with remap IP"):
        config = builtin_scenarios()["dns_firewall"]
        remap_ip = config.dns_mutations[0].ip
        trace = run_scenario(config)
        stored = events_of(trace, "report_stored")
        assert len(stored) == 1
        assert stored[0].data["report_type"] == "dns.address_changed"
        assert stored[0].data["server_ip"] == remap_ip


def test_criterion_6_consent_gate():
    with criterion(6, "consent gate blocks all; consent equals bypass"):
        base = builtin_scenarios()["consent_gate"]
        blocked = run_scenario(base)
        assert events_of(blocked, "policy_installed") == []
        assert events_of(blocked, "report_queued") == []
        assert events_of(blocked, "report_stored") == []

        granted = copy.deepcopy(base)
        granted.agents[0].consent = {"consent.example": True}
        bypass = copy.deepcopy(base)
        bypass.agents[0].consent_mode = "bypass"
        granted_trace = run_scenario(granted)
        bypass_trace = run_scenario(bypass)
        assert len(granted_trace.events) > 0
        assert granted_trace.to_json_bytes() == bypass_trace.to_json_bytes()


def test_criterion_7_sampling_statistics():
    with criterion(7, "10k draws at 0.5 within 3-sigma; 0 and 1 exact"):
        started = time.perf_counter()
        trials = 10_000
        bound = 3 * math.sqrt(trials * 0.5 * 0.5)  # = 150
        assert bound == 150.0

        def observed_count(success_fraction, seed):
            store = store_with_policy("a.example", success=success_fraction)
            engine = ReportEngine(store, random.Random(seed))
            count = 0
            for i in range(trials):
                outcome = RequestOutcome(
                    url="https://a.example/", referrer="", method="GET",
                    protocol="h2", server_ip="192.0.2.1", status_code=200,
                    elapsed_time=1, phase="application", result_type="ok")
                if engine.observe(outcome, i) is not None:
                    count += 1
            return count

        for seed in range(10):
            half = observed_count(0.5, seed)
            assert abs(half - trials // 2) <= bound, (seed, half)
            assert observed_count(0.0, seed) == 0
            assert observed_count(1.0, seed) == trials
        assert time.perf_counter() - started < 10.0


def _policy_header(max_age, flagged):
    return json.dumps({"report_to": "g", "max_age": max_age,
                       "include_subdomains": flagged})


def test_criterion_8_policy_store_property_suite():
    with criterion(8, "policy store invariants over 10k random sequences"):
        rng = random.Random(8)
        labels = "abc"
        cases = 10_000

        def random_host():
            return ".".join(rng.choice(labels)
                            for _ in range(rng.randint(1, 4)))

        def oracle_lookup(mirror, query, now):
            entry = mirror.get(query)
            if entry is not None and entry[1] > now:
                return query, False
            for sup in superdomains(query):
                entry = mirror.get(sup)
                if entry is not None and entry[1] > now and entry[0]:
                    return sup, True
            return None

        for _ in range(cases):
            store = PolicyStore()
            mirror: dict[str, tuple[bool, int]] = {}  # host -> (flag, expires_at)
            now = 0
            for _ in range(rng.randint(1, 8)):
                now += rng.randint(0, 3_000)
                host = random_host()
                action = rng.random()
                if action < 0.6:
                    max_age = rng.choice((1, 2, 5, 10_000))
                    flagged = rng.random() < 0.5
                    effect = store.process_policy_headers(
                        host, True, _policy_header(max_age, flagged), GROUPS, now)
                    assert effect.kind in ("installed", "replaced")
                    mirror[host] = (flagged, now + max_age * 1000)
                elif action < 0.75:
                    effect = store.process_policy_headers(
                        host, True, '{"max_age":0}', None, now)
                    assert effect.kind == "removed"
                    mirror.pop(host, None)
                elif action < 0.9:
                    store.lookup(random_host(), now)  # exercises lazy eviction
                    expected = oracle_lookup(mirror, host, now)
                    got = store.lookup(host, now)
                    assert (got is None) == (expected is None)
                    if got is not None:
                        assert (got.host, got.host != host) == expected
                else:
                    # A lookup finds each live host's own entry and evicts
                    # each expired one, so the hosts left are the live ones.
                    mirror = {h: e for h, e in mirror.items() if e[1] > now}
                    for h in sorted({*store._entries, *mirror}):
                        got = store.lookup(h, now)
                        assert (got is not None and got.host == h) == (h in mirror)
                    assert sorted(store._entries) == sorted(mirror)

            # Cardinality and last-writer-wins against the model.
            live = {h: e for h, e in mirror.items() if e[1] > now}
            for host, (flagged, expires_at) in live.items():
                found = store.lookup(host, now)
                assert found is not None and found.host == host
                assert found.expires_at == expires_at

            # Subdomain matching against the brute-force suffix walk.
            for _ in range(3):
                query = random_host()
                expected = oracle_lookup(mirror, query, now)
                got = store.lookup(query, now)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None and (got.host, got.host != query) == expected

            # Removal idempotence.
            def contents():
                for host in list(store._entries):
                    store.lookup(host, now)  # evicts the expired entries
                return [(h, store.lookup(h, now)) for h in sorted(store._entries)]

            victim = random_host()
            store.process_policy_headers(victim, True, '{"max_age":0}', None, now)
            once = contents()
            store.process_policy_headers(victim, True, '{"max_age":0}', None, now)
            assert contents() == once

            # Expiry monotonicity: once everything is expired, lookups stay
            # empty at every later time.
            if mirror:
                horizon = max(e[1] for e in mirror.values())
                for host in mirror:
                    if store.lookup(host, horizon) is None:
                        assert store.lookup(host, horizon + 1) is None
                        assert store.lookup(host, horizon * 1000 + 1) is None
        print(f"[acceptance] criterion  8 note  {cases} randomized cases checked")


def test_criterion_9_volatile_ip_invariant(tmp_path, http_collector):
    with criterion(9, "volatile collectors never persist a client IP"):
        client_ips = ["203.0.113.200", "2001:db8:feed::7", "127.0.0.1",
                      "203.0.113.99"]
        logs = []

        # Core API path.
        core_log = tmp_path / "core.ndjson"
        logs.append(core_log)
        core = Collector(CollectorConfig(ip_mode="volatile",
                                         log_path=str(core_log)))
        from nellab.headers import NelReport, ReportBody

        report = NelReport(age=0, url=FIG1_REPORT["url"],
                           body=ReportBody(**FIG1_REPORT["body"]))
        core.ingest(serialize_report_batch([report]), "203.0.113.200",
                    "ua/1", now=0)
        core.ingest(serialize_report_batch([report]), "2001:db8:feed::7",
                    "ua/1", now=1)

        # HTTP service path (peer is 127.0.0.1).
        http_log = tmp_path / "http.ndjson"
        logs.append(http_log)
        _, base_url = http_collector(CollectorConfig(ip_mode="volatile",
                                                     log_path=str(http_log)))
        import http.client

        parts = urlsplit(base_url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port,
                                                timeout=5)
        connection.request("POST", "/up",
                           body=serialize_report_batch([report]),
                           headers={"Content-Type": "application/reports+json"})
        assert connection.getresponse().status == 200
        connection.close()

        # Simulator path: volatile collectors writing real files.
        config = builtin_scenarios()["fig2_chain"]
        config.agents[0].ip = "203.0.113.99"
        for index, host in enumerate(config.collectors):
            log = tmp_path / f"sim-{index}.ndjson"
            logs.append(log)
            config.collectors[host].ip_mode = "volatile"
            config.collectors[host].log_path = str(log)
        run_scenario(config)

        scanned = 0
        for log in logs:
            content = log.read_text()
            scanned += len(content.splitlines())
            for ip in client_ips:
                assert ip not in content, (log, ip)
        assert scanned >= 4  # every path really wrote records


def test_criterion_10_trace_determinism(tmp_path):
    with criterion(10, "every builtin yields byte-identical traces per seed"):
        for name, config in builtin_scenarios().items():
            first = run_scenario(copy.deepcopy(config)).to_json_bytes()
            second = run_scenario(copy.deepcopy(config)).to_json_bytes()
            assert first == second, name

        # Through the CLI writer as well.
        from nellab.cli import main

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["scenario", "mitm_persistence", "--seed", "5",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
