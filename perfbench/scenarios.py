"""Seeded synthetic scenario documents for the two simulator workloads.

Each builder returns a plain scenario document: the JSON shape that
``nellab.sim.config_from_dict`` loads and ``config_to_dict`` writes back,
so the program only ever sees generated inputs. Equal seeds give equal
documents. Addresses come from the benchmarking range 198.18.0.0/15, so no
loopback literal can reach a trace or a collector record.
"""

from __future__ import annotations

import json
import random

YEAR_S = 31_536_000
CENTURY_S = 100 * YEAR_S

UPSTREAM = "upstream.example"
EVIL = "evil-collector.example"


def _compact(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _nel(report_to: str, max_age: int, success: float) -> str:
    """A NEL header value; ``success`` is always given as a float."""
    return _compact({"report_to": report_to, "max_age": max_age,
                     "success_fraction": float(success)})


def _report_to(group: str, host: str, max_age: int) -> str:
    return _compact({"group": group, "max_age": max_age,
                     "endpoints": [{"url": f"https://{host}/up"}]})


def _agent(name: str) -> dict:
    return {"name": name, "consent_mode": "bypass", "subdomain_mode": "permissive",
            "consent": {}, "ip": "198.19.0.10", "user_agent": "nel-lab-sim/1.0",
            "referrer_mode": "origin-only"}


def _server(ip: str, headers: dict | None = None, down: list | None = None) -> dict:
    paths = {}
    if headers is not None:
        paths["/"] = {"status": 200, "result_type": None, "headers": headers}
    return {"ip": ip, "secure": True, "down": down or [], "paths": paths}


def _collector(emit_group: str | None = None, emit_host: str | None = None,
               **overrides) -> dict:
    """A collector entry in ``CollectorConfig.to_dict`` form."""
    data = {"listen": "127.0.0.1:9390", "ip_mode": "volatile",
            "strip_url_query": True, "drop_captured_headers": True,
            "retention": "infinite"}
    data.update(overrides)
    if emit_group is not None:
        data["emit_nel_headers"] = {
            "nel": {"report_to": emit_group, "max_age": YEAR_S},
            "report_to": [{"group": emit_group, "max_age": YEAR_S,
                           "endpoints": [{"url": f"https://{emit_host}/up"}]}],
        }
    return data


def _evenly(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """``count`` values spread evenly over [low, high), in seeded order.

    Using fixed shares instead of independent draws keeps the amount of
    work nearly the same for every seed.
    """
    values = [low + (high - low) * i // count for i in range(count)]
    rng.shuffle(values)
    return values


def _document(name: str, seed: int, description: str) -> dict:
    return {"name": name, "description": description, "seed": seed,
            "agents": [], "dns": {}, "dns_mutations": [], "servers": {},
            "mitm_windows": [], "visits": [], "collectors": {}}


def dead_collector(seed: int) -> dict:
    """A fig2-style world whose per-site collectors mostly die part-way.

    Every site names its own collector ``cNN.example``; every collector
    serves a policy pointing at one shared, always-up upstream. Visits come
    every 10-60 ms of virtual time, far faster than the 60 s + 120 s retry
    backoff drains reports to a dead collector, so hundreds of tasks wait
    in each agent's queue and final failures turn into meta-reports.
    """
    agents, sites, visits = 4, 50, 3000
    rng = random.Random(f"perfbench/dead_collector/{seed}")
    doc = _document("bench_dead_collector", seed,
                    "Per-site collectors with a shared upstream; most die.")
    doc["agents"] = [_agent(f"agent{i}") for i in range(agents)]
    span_ms = visits * 35
    doc["dns"][UPSTREAM] = "198.18.2.1"
    doc["servers"][UPSTREAM] = _server("198.18.2.1")
    doc["collectors"][UPSTREAM] = _collector()
    # Exactly half the sites sample successes at 0.5, the rest at 1.0; a
    # fifth of the sites go down for a while; four fifths of the collectors
    # die for good at times spread over the first half of the visits.
    success = [0.5, 1.0] * (sites // 2) + [1.0] * (sites % 2)
    rng.shuffle(success)
    site_downs = _evenly(rng, sites // 5, 0, span_ms) + [None] * (sites - sites // 5)
    rng.shuffle(site_downs)
    outage = _evenly(rng, sites, 5_000, 60_000)
    deaths = (_evenly(rng, sites * 4 // 5, span_ms // 10, span_ms // 2)
              + [None] * (sites - sites * 4 // 5))
    rng.shuffle(deaths)
    for i in range(sites):
        site, coll = f"site{i:02d}.example", f"c{i:02d}.example"
        site_ip, coll_ip = f"198.18.0.{i + 1}", f"198.18.1.{i + 1}"
        doc["dns"][site] = site_ip
        doc["dns"][coll] = coll_ip
        down = site_downs[i]
        doc["servers"][site] = _server(
            site_ip,
            {"NEL": _nel("site", YEAR_S, success[i]),
             "Report-To": _report_to("site", coll, YEAR_S)},
            [] if down is None else [[down, down + outage[i]]])
        doc["servers"][coll] = _server(
            coll_ip, down=[] if deaths[i] is None else [[deaths[i], None]])
        doc["collectors"][coll] = _collector("up", UPSTREAM)
    at = 1_000
    for _ in range(visits):
        at += rng.randrange(10, 60)
        doc["visits"].append({
            "at": at, "agent": f"agent{rng.randrange(agents)}",
            "url": f"https://site{rng.randrange(sites):02d}.example/p{rng.randrange(100)}",
            "referrer": ""})
    return doc


def collector_chain(seed: int) -> dict:
    """Healthy sites that report every visit to collectors that emit policy.

    ``success_fraction`` is 1.0 everywhere, so every visit uploads and every
    upload response re-installs the collector's own policy. A few sites
    serve no NEL header at all; seeded MitM windows inject a century-long
    policy on them that keeps reporting to the attacker after the window.
    Queues stay empty: every report is delivered in the instant it is made.
    """
    agents, sites, plain_sites, visits, mitm_windows = 16, 40, 4, 6000, 4
    rng = random.Random(f"perfbench/collector_chain/{seed}")
    doc = _document("bench_collector_chain", seed,
                    "Healthy collector chains with MitM injection windows.")
    doc["agents"] = [_agent(f"agent{i:02d}") for i in range(agents)]
    doc["dns"][UPSTREAM] = "198.18.2.1"
    doc["servers"][UPSTREAM] = _server("198.18.2.1")
    doc["collectors"][UPSTREAM] = _collector()
    doc["dns"][EVIL] = "198.18.2.66"
    doc["servers"][EVIL] = _server("198.18.2.66")
    doc["collectors"][EVIL] = _collector(ip_mode="full", strip_url_query=False)
    hosts = []
    for i in range(sites):
        site, coll = f"site{i:02d}.example", f"c{i:02d}.example"
        doc["dns"][site] = f"198.18.0.{i + 1}"
        doc["dns"][coll] = f"198.18.1.{i + 1}"
        doc["servers"][site] = _server(
            f"198.18.0.{i + 1}",
            {"NEL": _nel("site", YEAR_S, 1.0),
             "Report-To": _report_to("site", coll, YEAR_S)})
        doc["servers"][coll] = _server(f"198.18.1.{i + 1}")
        doc["collectors"][coll] = _collector("up", UPSTREAM)
        hosts.append(site)
    for i in range(plain_sites):
        plain = f"plain{i}.example"
        doc["dns"][plain] = f"198.18.3.{i + 1}"
        doc["servers"][plain] = _server(f"198.18.3.{i + 1}", {})
        hosts.append(plain)
    span_ms = visits * 100
    injected = {"NEL": _nel("evil", CENTURY_S, 1.0),
                "Report-To": _report_to("evil", EVIL, CENTURY_S)}
    lengths = _evenly(rng, mitm_windows, 60_000, 600_000)
    for i in range(mitm_windows):
        start = rng.randrange(span_ms // 2)
        doc["mitm_windows"].append({
            "agent": f"agent{rng.randrange(agents):02d}",
            "host": f"plain{i % plain_sites}.example",
            "start": start, "end": start + lengths[i],
            "headers": dict(injected)})
    at = 1_000
    for _ in range(visits):
        at += rng.randrange(50, 150)
        host = rng.choice(hosts)
        query = f"?session={rng.randrange(10**6)}" if rng.random() < 0.3 else ""
        doc["visits"].append({
            "at": at, "agent": f"agent{rng.randrange(agents):02d}",
            "url": f"https://{host}/p{rng.randrange(100)}{query}",
            "referrer": f"https://{rng.choice(hosts)}/from?ref=1"})
    return doc
