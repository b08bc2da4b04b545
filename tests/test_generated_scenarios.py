"""Simulator invariants over generated scenarios, not only the builtins.

:func:`scenarios` draws small configs that :func:`validate_config` accepts:
one to three agents across the consent and subdomain modes, one to four
sites (some visited through a subdomain), and collectors that answer with
policies pointing at each other or at themselves, so chains and cycles
form. Report endpoints may be a collector, a name that does not resolve, or
a host with a server but no collector (404). Servers go down, DNS entries
change (to ``""`` too), and MitM windows rewrite site and collector answers,
some to ``max_age=0``.
"""

import copy
import json
from urllib.parse import urlsplit

from hypothesis import HealthCheck, given, settings, strategies as st

from nellab.collector import CollectorConfig
from nellab.sim import (
    AgentSpec,
    DnsMutation,
    MitmWindow,
    PathSpec,
    ScenarioConfig,
    ServerSpec,
    Visit,
    _emit_config,
    config_from_dict,
    config_to_dict,
    run_scenario,
    trace_from_json,
)

COLLECTORS = ["c0.example", "c1.example", "c2.example"]
# Resolves to nothing, so every upload to it is unreachable.
GONE = "gone.example"
# Has a server but no collector, so every upload to it gets a 404.
PLAIN = "plain.example"
OTHER_IP = "198.51.100.99"

# Times in ms: visits, outages and windows overlap the 60 s + 120 s backoff.
times = st.integers(0, 400_000)


def _endpoint(host: str) -> str:
    return f"https://{host}/up"


def _policy(draw, endpoints: list[str]) -> dict[str, str]:
    """NEL and Report-To values for one group ``g``; a max_age of 0 removes."""
    max_age = draw(st.sampled_from([86_400, 600, 0]))
    nel = {"report_to": "g", "max_age": max_age,
           "success_fraction": draw(st.sampled_from([1.0, 0.5, 0.0])),
           "failure_fraction": draw(st.sampled_from([0.5, 1.0])),
           "include_subdomains": draw(st.booleans())}
    urls = draw(st.lists(st.sampled_from(endpoints), min_size=1, max_size=2,
                         unique=True))
    group = {"group": "g", "max_age": 86_400, "endpoints": [
        {"url": url, "priority": draw(st.sampled_from([1, 2]))} for url in urls]}
    return {"NEL": json.dumps(nel), "Report-To": json.dumps(group)}


def _down(draw) -> list:
    """At most one outage: up to 200 s, or one that never ends."""
    intervals = draw(st.lists(st.tuples(times, st.integers(1, 200_000) | st.none()),
                              max_size=1))
    return [(start, None if length is None else start + length)
            for start, length in intervals]


@st.composite
def scenarios(draw) -> ScenarioConfig:
    sites = [f"s{i}.example" for i in range(draw(st.integers(1, 4)))]
    collectors = COLLECTORS[:draw(st.integers(1, len(COLLECTORS)))]
    endpoints = [_endpoint(host) for host in collectors + [GONE, PLAIN]]
    dns = {host: f"192.0.2.{i + 1}" for i, host in enumerate(sites + collectors)}
    dns.update({f"www.{site}": dns[site] for site in sites})
    dns[PLAIN] = "192.0.2.200"
    if draw(st.booleans()):
        dns[GONE] = ""

    servers = {}
    for site in sites:
        paths = {"/": PathSpec(headers=_policy(draw, endpoints))}
        if draw(st.booleans()):
            paths["/err"] = PathSpec(status=503, headers=_policy(draw, endpoints))
        servers[site] = ServerSpec(ip=dns[site], paths=paths, down=_down(draw))
        servers[f"www.{site}"] = ServerSpec(ip=dns[site])
    for host in collectors:
        servers[host] = ServerSpec(ip=dns[host], down=_down(draw))
    servers[PLAIN] = ServerSpec(ip=dns[PLAIN])

    collector_configs = {}
    for host in collectors:
        # No policy, or one that reports to another collector or to itself.
        target = draw(st.sampled_from([None] + collectors))
        collector_configs[host] = (CollectorConfig() if target is None
                                   else _emit_config("meta", _endpoint(target)))

    agents = [AgentSpec(name=f"a{i}",
                        consent_mode=draw(st.sampled_from(["bypass", "enforce"])),
                        subdomain_mode=draw(st.sampled_from(["permissive", "strict"])),
                        consent={host: draw(st.booleans()) for host in
                                 draw(st.lists(st.sampled_from(sites + collectors),
                                               max_size=3, unique=True))},
                        referrer_mode=draw(st.sampled_from(
                            ["origin-only", "strip-path", "full"])))
              for i in range(draw(st.integers(1, 3)))]
    names = [agent.name for agent in agents]

    mutable = sites + collectors + [PLAIN]
    mutations = sorted(
        (DnsMutation(at=at, host=host, ip=ip) for at, host, ip in draw(st.lists(
            st.tuples(times, st.sampled_from(mutable),
                      st.sampled_from(["", OTHER_IP, "192.0.2.1"])),
            max_size=3))),
        key=lambda mutation: mutation.at)

    windows = [
        MitmWindow(agent=agent, host=host, start=start, end=start + length,
                   headers=(_policy(draw, endpoints) if draw(st.booleans())
                            else {"NEL": '{"max_age":0}'}))
        for agent, host, start, length in draw(st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(sites + collectors),
                      times, times),
            max_size=2))]

    visits = sorted(
        (Visit(at=at, agent=agent, url=f"https://{sub}{host}{path}", referrer=referrer)
         for at, agent, sub, host, path, referrer in draw(st.lists(
             st.tuples(times, st.sampled_from(names), st.sampled_from(["", "", "www."]),
                       st.sampled_from(sites),
                       st.sampled_from(["/", "/err", "/p?q=1"]),
                       st.sampled_from(["", "https://r.example/x?y=2"])),
             min_size=2, max_size=10))),
        key=lambda visit: visit.at)

    return ScenarioConfig(
        name="generated", seed=draw(st.integers(0, 3)), agents=agents, dns=dns,
        dns_mutations=mutations, servers=servers, mitm_windows=windows,
        visits=visits, collectors=collector_configs)


def check_stores_are_delivered_reports(events) -> None:
    """Each delivered upload of n reports is followed at once by n
    ``report_stored`` events from its collector, and no store happens else."""
    expected = []
    for event in events:
        if event.kind == "report_stored":
            assert expected, f"store without a delivered upload: {event!r}"
            assert expected.pop() == (event.at, event.data["collector"])
            continue
        assert not expected, f"{len(expected)} reports not stored before {event!r}"
        if event.kind == "delivery_attempt" and event.data["result"] == "delivered":
            host = urlsplit(event.data["endpoint"]).hostname
            expected = [(event.at, host)] * event.data["reports"]
    assert not expected


def check_no_attempt_precedes_queueing(events) -> None:
    """Time never runs back, an agent's upload carries no more reports than
    it has queued and not yet seen delivered, and a queued report is tried."""
    queued: dict[str, int] = {}
    delivered: dict[str, int] = {}
    attempts = 0
    last = 0
    for event in events:
        assert event.at >= last
        last = event.at
        agent = event.data.get("agent")
        if event.kind in ("report_queued", "meta_report_queued"):
            queued[agent] = queued.get(agent, 0) + 1
        elif event.kind == "delivery_attempt":
            attempts += 1
            reports = event.data["reports"]
            assert 1 <= reports <= queued.get(agent, 0) - delivered.get(agent, 0)
            if event.data["result"] == "delivered":
                delivered[agent] = delivered.get(agent, 0) + reports
    assert attempts or not queued


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenarios())
def test_generated_scenario_invariants(config):
    trace = run_scenario(config)
    events = trace.events
    data = trace.to_json_bytes()

    assert run_scenario(copy.deepcopy(config)).to_json_bytes() == data
    restored = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
    assert run_scenario(restored).to_json_bytes() == data
    loaded = trace_from_json(data)
    assert loaded.events == events
    assert loaded.to_json_bytes() == data

    check_stores_are_delivered_reports(events)
    check_no_attempt_precedes_queueing(events)
