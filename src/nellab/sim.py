"""Deterministic discrete-event world for NEL attack and mitigation scenarios.

A scenario declares browser agents, a DNS table with timed mutations,
origin servers with up/down intervals and per-path response headers,
MitM header-injection windows, collector instances, and a timed visit
list. Running it produces an ordered event trace that is a pure function
of the config: equal configs (and seeds) give bit-identical traces.

Time is virtual milliseconds. Config events at equal timestamps execute
in declaration order (DNS mutations before visits); report deliveries and
retries are drained after each instant. MitM is modeled as header
substitution on responses within a window, which is exactly the
capability an interception adversary needs for policy injection; no TLS
machinery is simulated.

Collectors inside the world reuse the collector-service logic: the world's
transport encodes each upload a collector reads, and the collector parses
those bytes, so minimization and persistence behave as in the HTTP service.
"""

from __future__ import annotations

import heapq
import json
import random
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Literal

from .collector import Collector, CollectorConfig, RejectError, StoredRecord
from .headers import Endpoint, EndpointGroup, Millis, NelPolicyHeader, ParseError, \
    Removal, NelReport, check_types, checked, group_from_dict, group_to_dict, \
    policy_from_dict, policy_to_dict, serialize_nel_header, serialize_report_batch, \
    serialize_report_to_header, shape, split_url, url_memo
from .policy_store import PolicyStore
from .report_engine import DELIVERED, ReferrerMode, ReportEngine, RequestOutcome, \
    TransportResult, UNREACHABLE

DAY_MS = 86_400_000
YEAR_S = 31_536_000
CENTURY_S = 100 * YEAR_S

# Successful fetches report this elapsed time; failures report 0.
FETCH_ELAPSED_MS = 50

# Retry/meta chains are drained for this long past the last config event;
# anything still pending then (e.g. a cyclic meta-report loop toward a dead
# collector) is abandoned.
DRAIN_WINDOW_MS = 7 * DAY_MS

# A scenario or collector config entry is invalid; the message names the entry.
ConfigError = ParseError


@dataclass
class AgentSpec:
    """One simulated browser."""

    name: str
    consent_mode: Literal["bypass", "enforce"] = "bypass"
    subdomain_mode: Literal["permissive", "strict"] = "permissive"
    consent: dict[str, bool] = field(default_factory=dict)
    ip: str = "203.0.113.10"
    user_agent: str = "nel-lab-sim/1.0"
    referrer_mode: ReferrerMode = "origin-only"


@dataclass
class PathSpec:
    """Response served for one URL path prefix."""

    status: int = 200
    result_type: str | None = None  # default: "ok" below 400, else "http.error"
    headers: dict[str, str] = field(default_factory=dict)


@dataclass
class ServerSpec:
    """One origin server; reachable while DNS still points at its address."""

    ip: str
    secure: bool = True
    down: list[tuple[Millis, Millis | None]] = field(default_factory=list)
    paths: dict[str, PathSpec] = field(default_factory=dict)


@dataclass
class DnsMutation:
    at: Millis
    host: str
    ip: str  # "" models a name that stops resolving


@dataclass
class MitmWindow:
    """While active, response headers from ``host`` to ``agent`` are rewritten."""

    agent: str
    host: str
    start: Millis
    end: Millis  # half-open: start <= t < end
    headers: dict[str, str] = field(default_factory=dict)


@dataclass
class Visit:
    at: Millis
    agent: str
    url: str
    referrer: str = ""


@dataclass
class ScenarioConfig:
    name: str = "custom"
    description: str = ""
    seed: int = 0
    agents: list[AgentSpec] = field(default_factory=list)
    dns: dict[str, str] = field(default_factory=dict)
    dns_mutations: list[DnsMutation] = field(default_factory=list)
    servers: dict[str, ServerSpec] = field(default_factory=dict)
    mitm_windows: list[MitmWindow] = field(default_factory=list)
    visits: list[Visit] = field(default_factory=list)
    collectors: dict[str, CollectorConfig] = field(default_factory=dict)


# One tuple per key sequence of event data, shared by every event with that
# sequence. The simulator emits fewer than ten; the cap bounds what loading
# arbitrary trace documents can add.
_SHARED_KEYS: dict[tuple[str, ...], tuple[str, ...]] = {}
_SHARED_KEYS_MAX = 256


class TraceEvent:
    """One trace entry; every ``data`` value is a JSON scalar (str, int,
    float, bool or None), never a list or an object.

    A run holds every event until its trace is written, so an event holds
    its data as a tuple of keys, shared by every event with the same key
    sequence, and a tuple of values; the world passes one shared string for
    each value that repeats (hosts, report types, phases, addresses).
    ``data`` builds a new dict on each read, so changing it changes no event.
    Events compare equal when ``(kind, at, data)`` do.
    """

    __slots__ = ("kind", "at", "_keys", "_values")

    def __init__(self, kind: str, at: int, data: dict):
        self.kind = kind
        self.at = at
        keys = tuple(data)
        shared = _SHARED_KEYS.get(keys)
        if shared is None and len(_SHARED_KEYS) < _SHARED_KEYS_MAX:
            shared = _SHARED_KEYS[keys] = keys
        self._keys = shared or keys
        self._values = tuple(data.values())

    @property
    def data(self) -> dict:
        return dict(zip(self._keys, self._values))

    def to_dict(self) -> dict:
        """The event as its trace entry; a data key ``kind`` or ``at`` wins."""
        entry = {"kind": self.kind, "at": self.at}
        entry.update(zip(self._keys, self._values))
        return entry

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.kind, self.at, self.data) == (other.kind, other.at, other.data)

    def __repr__(self) -> str:
        return f"TraceEvent(kind={self.kind!r}, at={self.at!r}, data={self.data!r})"


# With ``indent`` unset, ``json`` uses its C encoder. No encoded scalar holds a
# raw newline, so a list of scalars encodes to one line per scalar.
_encode_scalars = json.JSONEncoder(separators=("\n", ":")).encode
_WRITE_BATCH = 256


def _event_layout(keys: tuple[str, ...]) -> tuple[itemgetter, list[str | None]]:
    """How an event with data keys ``keys`` is written: a getter that orders
    ``(kind, at, *values)`` as ``sort_keys`` orders the members (a data key
    ``kind`` or ``at`` wins), and the event's text with a ``None`` slot after
    each member's name for its value.

    The text starts by closing the previous event, which the document drops
    from its first event.
    """
    slots = dict(zip(("kind", "at", *keys), range(len(keys) + 2)))
    members = sorted(slots.items())
    text = []
    for key, _ in members:
        text += [",\n      " + json.dumps(key) + ": ", None]
    text[0] = "\n    },\n    {" + text[0].removeprefix(",")
    return itemgetter(*(slot for _, slot in members)), text


def _event_texts(events: list[TraceEvent], first: int, layouts: dict) -> list[str]:
    """The text of each event in the batch that starts at ``events[first]``,
    with its scalars encoded in one encoder call; ``layouts`` caches
    :func:`_event_layout` by key sequence."""
    batch = events[first:first + _WRITE_BATCH]
    scalars, text, ends = [], [], []
    for event in batch:
        if (layout := layouts.get(event._keys)) is None:
            layout = layouts[event._keys] = _event_layout(event._keys)
        getter, event_text = layout
        scalars += getter((event.kind, event.at, *event._values))
        text += event_text
        ends.append(len(text))
    encoded = _encode_scalars(scalars)
    # A container, and only a container, starts a line with [ or {.
    if "\n[" in encoded or "\n{" in encoded or encoded[1] in "[{":
        raise ValueError(next(
            f"events[{index}].{member} must be a JSON scalar"
            for index, event in enumerate(batch, first) for member, value in
            (("kind", event.kind), ("at", event.at), *zip(event._keys, event._values))
            if isinstance(value, (list, tuple, dict))))
    text[1::2] = encoded[1:-1].split("\n")
    return ["".join(text[start:end]) for start, end in zip([0, *ends], ends)]


class ScenarioTrace:
    """A run's trace, held in one form at a time: its events until it is
    written, and only the written document after that.

    The first :meth:`to_json_bytes` drops the events and keeps the bytes.
    Reading ``events`` after a write parses the document back and drops the
    bytes, so the next write reflects any edit to that list.
    """

    def __init__(self, name: str, seed: int, events: list[TraceEvent]):
        self.name = name
        self.seed = seed
        self._events: list[TraceEvent] | None = events
        self._document: bytes | None = None

    @property
    def events(self) -> list[TraceEvent]:
        if self._events is None:
            self._events = trace_from_json(self._document).events
            self._document = None
        return self._events

    def to_json(self) -> str:
        """The document ``json.dumps(..., indent=2, sort_keys=True)`` gives,
        byte for byte; a member that is an array or an object raises
        ``ValueError`` naming the event and the member.

        Each batch of events has its scalars encoded in one encoder call and
        slotted into each event's text from :func:`_event_layout`; no format
        call is made. The document is joined once from one piece per event.
        """
        parts = ['{\n  "events": [']
        events = self.events
        layouts: dict[tuple[str, ...], tuple[itemgetter, list[str | None]]] = {}
        for first in range(0, len(events), _WRITE_BATCH):
            parts += _event_texts(events, first, layouts)
        if events:
            parts[1] = parts[1][len("\n    },"):]
            parts.append("\n    }\n  ")
        parts.append(f'],\n  "name": {json.dumps(self.name)},\n'
                     f'  "seed": {json.dumps(self.seed)}\n}}\n')
        return "".join(parts)

    def to_json_bytes(self) -> bytes:
        """The document as UTF-8; later calls return the same object."""
        if self._document is None:
            self._document = self.to_json().encode("utf-8")
            self._events = None
        return self._document


def trace_from_json(document: str | bytes) -> ScenarioTrace:
    """Load a trace document; a member that is an array or an object raises
    ``ValueError`` naming the event and the member."""
    data = json.loads(document)
    events = []
    for index, entry in enumerate(data["events"]):
        for member, value in entry.items():
            if isinstance(value, (list, dict)):
                raise ValueError(f"events[{index}].{member} must be a JSON scalar")
        kind = entry.pop("kind")
        at = entry.pop("at")
        events.append(TraceEvent(kind, at, entry))
    return ScenarioTrace(name=data["name"], seed=data["seed"], events=events)


# -- config (de)serialization --------------------------------------------------


def config_to_dict(config: ScenarioConfig) -> dict:
    """A JSON-ready scenario document; the inverse of :func:`config_from_dict`."""
    data = asdict(replace(config, collectors={}))
    for server in data["servers"].values():
        server["down"] = [list(interval) for interval in server["down"]]
    data["collectors"] = {host: collector_to_dict(c)
                          for host, c in config.collectors.items()}
    return data


def collector_to_dict(config: CollectorConfig) -> dict:
    """A JSON-ready collector document; the inverse of :func:`collector_from_dict`."""
    data: dict = {
        "listen": config.listen,
        "ip_mode": config.ip_mode,
        "strip_url_query": config.strip_url_query,
        "drop_captured_headers": config.drop_captured_headers,
        "retention": ("infinite" if config.retention_seconds is None
                      else config.retention_seconds),
    }
    if config.emit_nel is not None:
        data["emit_nel_headers"] = {
            "nel": policy_to_dict(config.emit_nel),
            "report_to": [group_to_dict(g) for g in config.emit_report_to or []],
        }
    if config.log_path is not None:
        data["log_path"] = config.log_path
    return data


def _load(cls, data, where: str):
    """``cls(**data)`` with its list and dict members type-checked."""
    try:
        entry = cls(**checked(data, dict, where))
    except TypeError as exc:  # an unknown or missing member
        raise ConfigError(f"{where}: {exc}") from None
    for name, _, _, kind, _ in shape(cls)[1]:
        if (kind is list or kind is dict) and type(value := getattr(entry, name)) is not kind:
            checked(value, kind, f"{where}.{name}")
    return entry


def _load_all(cls, entries: list, where: str) -> list:
    """``cls(**entry)`` of each entry; names are built only after one fails."""
    try:
        return [cls(**entry) for entry in entries]
    except TypeError:
        return [_load(cls, entry, f"{where}[{i}]") for i, entry in enumerate(entries)]


def collector_from_dict(data, where: str = "collector") -> CollectorConfig:
    """Load a collector document, named ``where`` in errors; the inverse of
    :func:`collector_to_dict`.

    A document that is not an object, an unknown member, a bad ``retention``
    or a malformed ``emit_nel_headers`` raises :class:`ConfigError`;
    :func:`check_types` checks the other members.
    """
    data = dict(checked(data, dict, where))
    retention = data.pop("retention", None)
    emit = data.pop("emit_nel_headers", None)
    emit_nel = emit_report_to = None
    try:
        if retention == "infinite":
            retention = None
        elif retention is not None and (type(retention) is not int or retention < 0):
            raise ValueError(f"retention must be seconds or \"infinite\": {retention!r}")
        if emit is not None:
            for member in ("nel", "report_to"):
                if not isinstance(emit, dict) or member not in emit:
                    raise ValueError(
                        f"emit_nel_headers must be a JSON object with {member!r}")
            member = "nel"
            try:
                emit_nel = policy_from_dict(emit["nel"])
                if isinstance(emit_nel, Removal):
                    raise ValueError("emit_nel_headers must carry a storable policy")
                member = "report_to"
                groups = emit["report_to"]
                emit_report_to = [group_from_dict(g) for g in
                                  (groups if isinstance(groups, list) else [groups])]
            except ParseError as exc:
                raise ValueError(f"emit_nel_headers.{member}: {exc}") from None
        return CollectorConfig(**data, retention_seconds=retention, emit_nel=emit_nel,
                               emit_report_to=emit_report_to)
    except (TypeError, ValueError) as exc:  # TypeError: a member the dataclass lacks
        raise ConfigError(f"{where}: {exc}") from None


@url_memo()
def config_from_dict(data: dict) -> ScenarioConfig:
    """Load a scenario document; the inverse of :func:`config_to_dict`.

    Omitted members take the dataclass defaults. An unknown or missing
    member, a container this walks that has the wrong type, or a collector
    document :func:`collector_from_dict` refuses raises :class:`ConfigError`
    naming the entry; :func:`validate_config` checks the rest. The load
    parses each distinct URL once, in one :func:`url_memo` block.
    """
    config = _load(ScenarioConfig, data, "scenario")
    config.servers = {host: _load(ServerSpec, s, f"scenario.servers[{host!r}]")
                      for host, s in config.servers.items()}
    for host, server in config.servers.items():
        where = f"scenario.servers[{host!r}]"
        server.down = [tuple(checked(interval, tuple, f"{where}.down[{i}]"))
                       for i, interval in enumerate(server.down)]
        server.paths = {path: _load(PathSpec, p, f"{where}.paths[{path!r}]")
                        for path, p in server.paths.items()}
    for name, cls in (("agents", AgentSpec), ("dns_mutations", DnsMutation),
                      ("mitm_windows", MitmWindow), ("visits", Visit)):
        setattr(config, name, _load_all(cls, getattr(config, name), f"scenario.{name}"))
    config.collectors = {host: collector_from_dict(c, f"scenario.collectors[{host!r}]")
                         for host, c in config.collectors.items()}
    return config


def _split_visit_url(visit: Visit, label: str, url: str) -> tuple:
    try:
        return split_url(url)
    except ValueError as exc:
        raise ConfigError(f"visit at {visit.at}: {label} {url!r} "
                          f"does not parse: {exc}") from None


def validate_config(config: ScenarioConfig) -> None:
    """Raise :class:`ConfigError` naming the first offending entry."""
    check_types(config, ScenarioConfig, "scenario")
    names = [a.name for a in config.agents]
    if len(set(names)) != len(names):
        raise ConfigError("agent names must be unique")
    known = set(names)

    for earlier, mutation in zip(config.dns_mutations, config.dns_mutations[1:]):
        if mutation.at < earlier.at:
            raise ConfigError(f"dns mutation at {mutation.at} for "
                              f"{mutation.host!r} is out of order")

    for index, visit in enumerate(config.visits):
        if index and visit.at < config.visits[index - 1].at:
            raise ConfigError(f"visit at {visit.at} to {visit.url!r} is out of order")
        if visit.agent not in known:
            raise ConfigError(f"visit at {visit.at}: unknown agent {visit.agent!r}")
        host = _split_visit_url(visit, "URL", visit.url)[1]
        _split_visit_url(visit, "referrer", visit.referrer)
        if not host:
            raise ConfigError(f"visit at {visit.at}: URL {visit.url!r} has no host")
        if host not in config.dns:
            raise ConfigError(f"visit at {visit.at}: host {host!r} missing from dns")

    for window in config.mitm_windows:
        if window.agent not in known:
            raise ConfigError(f"mitm window on {window.host!r}: unknown agent "
                              f"{window.agent!r}")
        if window.end < window.start:
            raise ConfigError(f"mitm window on {window.host!r}: end before start")

    for host in config.collectors:
        if host not in config.dns:
            raise ConfigError(f"collector {host!r} missing from dns")

    for host, server in config.servers.items():
        if not server.ip:
            raise ConfigError(f"server {host!r} has no address")
        for start, end in server.down:
            if end is not None and end < start:
                raise ConfigError(f"server {host!r}: down interval ends before start")


# -- the world ----------------------------------------------------------------


class _Agent:
    def __init__(self, spec: AgentSpec, seed: int, world: "_World"):
        self.spec = spec
        self.store = PolicyStore(enforce_consent=spec.consent_mode == "enforce")
        for host, granted in spec.consent.items():
            self.store.set_consent(host, granted)
        self.last_resolved: dict[str, str] = {}
        self._world = world
        self.transport = partial(world.upload, self)
        self.engine = ReportEngine(
            store=self.store,
            rng=random.Random(f"{seed}/{spec.name}"),
            sink=self._sink,
            referrer_mode=spec.referrer_mode,
            strict_subdomains=spec.subdomain_mode == "strict",
        )

    def _sink(self, kind: str, at: int, data: dict) -> None:
        data["agent"] = self.spec.name
        self._world.events.append(TraceEvent(kind, at, data))
        if kind == "delivery_attempt":
            self._world.flush_stored()


class _World:
    def __init__(self, config: ScenarioConfig):
        validate_config(config)
        self.config = config
        self.dns = dict(config.dns)
        self.servers = dict(config.servers)
        # Collector hosts without an explicit server entry are plain
        # always-up hosts at their DNS address.
        for host in config.collectors:
            self.servers.setdefault(host, ServerSpec(ip=config.dns[host]))
        self.collectors = {host: Collector(cfg, partial(self._stored, host))
                           for host, cfg in config.collectors.items()}
        self.agents = {spec.name: _Agent(spec, config.seed, self)
                       for spec in config.agents}
        self.events: list[TraceEvent] = []
        self._held_stored: list[TraceEvent] = []
        # (collector host, response headers) of delivered uploads, which _drain
        # applies once deliver_due returns: after their delivery_attempt events.
        self._answered: list[tuple[str, dict[str, str]]] = []

    # -- trace plumbing ----------------------------------------------------

    def _stored(self, host: str, records: list[StoredRecord]) -> None:
        self._held_stored.extend(TraceEvent("report_stored", record.received_at, {
            "collector": host,
            "url": record.report.url,
            "report_type": sys.intern(record.report.body.type),
            "phase": sys.intern(record.report.body.phase),
            "server_ip": sys.intern(record.report.body.server_ip),
        }) for record in records)

    def flush_stored(self) -> None:
        self.events.extend(self._held_stored)
        self._held_stored.clear()

    # -- reachability --------------------------------------------------------

    def _reachable(self, host: str, now: int) -> bool:
        resolved = self.dns.get(host, "")
        server = self.servers.get(host)
        return (bool(resolved) and server is not None and server.ip == resolved
                and not any(start <= now and (end is None or now < end)
                            for start, end in server.down))

    def _mitm_overlay(self, agent: _Agent, host: str, now: int,
                      headers: dict[str, str]) -> dict[str, str]:
        result = dict(headers)
        for window in self.config.mitm_windows:
            if (window.agent == agent.spec.name and window.host == host
                    and window.start <= now < window.end):
                result.update(window.headers)
        return result

    # -- uploads (the engine's transport oracle) ------------------------------

    def upload(self, agent: _Agent, url: str, reports: list[NelReport],
               now: int) -> TransportResult:
        host = split_url(url)[1]
        if not self._reachable(host, now):
            return UNREACHABLE
        collector = self.collectors.get(host)
        if collector is None:
            return TransportResult("http_error", status_code=404)
        try:
            collector.ingest(serialize_report_batch(reports), agent.spec.ip,
                             agent.spec.user_agent, now)
        except RejectError as exc:
            return TransportResult("http_error", status_code=exc.status)
        headers = self._mitm_overlay(agent, host, now, collector.response_headers())
        if headers:
            self._answered.append((sys.intern(host), headers))
        return DELIVERED

    # -- policy responses ------------------------------------------------------

    def _apply_policy_headers(self, agent: _Agent, host: str, secure: bool,
                              headers: dict[str, str], now: int) -> None:
        """Trace what the agent's store does with a response's policy headers."""
        effect = agent.store.process_policy_headers(
            host, secure, headers.get("NEL"), headers.get("Report-To"), now)
        if effect.stored is not None:
            policy = effect.stored.policy
            self.events.append(TraceEvent("policy_installed", now, {
                "agent": agent.spec.name,
                "host": host,
                "group": policy.report_to,
                "max_age": policy.max_age,
                "include_subdomains": policy.include_subdomains,
                "replaced": effect.kind == "replaced",
            }))
        elif effect.kind == "removed":
            self.events.append(TraceEvent("policy_removed", now, {
                "agent": agent.spec.name, "host": host,
            }))
        elif effect.reason != "no_header":
            self.events.append(TraceEvent("policy_ignored", now, {
                "agent": agent.spec.name, "host": host, "reason": effect.reason,
            }))

    # -- visits ----------------------------------------------------------------

    def _visit(self, visit: Visit) -> None:
        agent = self.agents[visit.agent]
        now = visit.at
        parts, host, _ = split_url(visit.url)
        host = sys.intern(host)
        resolved = self.dns.get(host, "")
        status = elapsed = 0
        request_headers, headers = {}, {}
        if not resolved:
            phase, result_type = "dns", "dns.name_not_resolved"
        elif not self._reachable(host, now):
            if agent.last_resolved.get(host, resolved) != resolved:
                # The name now points somewhere unreachable: the situation a
                # DNS firewall remap creates. The report leaks the remap target.
                phase, result_type = "dns", "dns.address_changed"
            else:
                phase, result_type = "connection", "tcp.refused"
        else:
            agent.last_resolved[host] = resolved
            server = self.servers[host]
            path = parts.path or "/"
            prefix = max((p for p in server.paths if path.startswith(p)),
                         key=len, default=None)
            spec = PathSpec() if prefix is None else server.paths[prefix]
            headers = self._mitm_overlay(agent, host, now, spec.headers)
            self._apply_policy_headers(agent, host, server.secure, headers, now)
            phase, status, elapsed = "application", spec.status, FETCH_ELAPSED_MS
            result_type = spec.result_type or ("ok" if status < 400 else "http.error")
            request_headers = {"User-Agent": agent.spec.user_agent}

        agent.engine.observe(RequestOutcome(
            url=visit.url, referrer=visit.referrer, method="GET",
            protocol="h2" if phase == "application" else "", server_ip=resolved,
            status_code=status, elapsed_time=elapsed, phase=phase,
            result_type=result_type, request_headers=request_headers,
            response_headers=headers), now)

    # -- deliveries ---------------------------------------------------------

    def _drain_before(self, end: int) -> None:
        """Deliver, in time order, every attempt due before ``end``."""
        while (due := min((t for agent in self.agents.values()
                           if (t := agent.engine.next_due()) is not None),
                          default=end)) < end:
            self._drain(due)

    def _drain(self, now: int) -> None:
        for agent in self.agents.values():
            while agent.engine.deliver_due(now, agent.transport):
                for host, headers in self._answered:
                    self._apply_policy_headers(agent, host, True, headers, now)
                self._answered.clear()

    # -- main loop --------------------------------------------------------------

    def run(self) -> ScenarioTrace:
        # Both lists are in time order and merge is stable, so DNS mutations
        # run before visits at equal times.
        timeline = heapq.merge(self.config.dns_mutations, self.config.visits,
                               key=attrgetter("at"))
        now = 0
        for now, entries in groupby(timeline, key=attrgetter("at")):
            self._drain_before(now)
            for entry in entries:
                if isinstance(entry, Visit):
                    self._visit(entry)
                else:
                    self.dns[entry.host] = entry.ip
                    self.events.append(TraceEvent("dns_change", now, {
                        "host": entry.host, "ip": entry.ip,
                    }))
            self._drain(now)
        self._drain_before(now + DRAIN_WINDOW_MS + 1)
        # The world is cyclic garbage until the next collection; if it kept
        # the list, writing the trace could not free the events.
        events, self.events = self.events, []
        return ScenarioTrace(self.config.name, self.config.seed, events)


@url_memo()
def run_scenario(config: ScenarioConfig) -> ScenarioTrace:
    """Execute one scenario; the trace is a pure function of the config.

    The run parses each distinct URL once, in one :func:`url_memo` block.
    """
    return _World(config).run()


# -- builtin scenarios ---------------------------------------------------------


def _policy(group: str, url: str, max_age: int = YEAR_S, **members) -> dict[str, str]:
    """The ``NEL`` and ``Report-To`` headers that deploy one group at ``url``."""
    return {
        "NEL": serialize_nel_header(NelPolicyHeader(group, max_age, **members)),
        "Report-To": serialize_report_to_header(
            [EndpointGroup(group, max_age, [Endpoint(url)])]),
    }


def _emit_config(group: str, url: str) -> CollectorConfig:
    return CollectorConfig(emit_nel=NelPolicyHeader(group, YEAR_S),
                           emit_report_to=[EndpointGroup(group, YEAR_S, [Endpoint(url)])])


def _chain_visits() -> list[Visit]:
    return [
        Visit(at=1_000, agent="browser", url="https://a.example/"),
        Visit(at=2_000, agent="browser", url="https://b.example/"),
        Visit(at=10_000, agent="browser", url="https://b.example/"),
    ]


def _fig2_chain() -> ScenarioConfig:
    return ScenarioConfig(
        name="fig2_chain",
        description=(
            "A and B share collector C, which reports to C'. The browser "
            "reports from A to C and thereby learns C's own policy. When B "
            "and C later fail together, the error about B cannot reach C, "
            "so the browser reports C's failure to C'. The scenario ends "
            "before C recovers, so B's own report stays undelivered."),
        agents=[AgentSpec(name="browser")],
        servers={
            "a.example": ServerSpec(ip="192.0.2.10", paths={"/": PathSpec(
                headers=_policy("c", "https://c.example/up", success_fraction=1.0))}),
            "b.example": ServerSpec(ip="192.0.2.11", down=[(5_000, None)], paths={
                "/": PathSpec(headers=_policy("c", "https://c.example/up"))}),
            "c.example": ServerSpec(ip="192.0.2.20", down=[(5_000, None)]),
            "cprime.example": ServerSpec(ip="192.0.2.21"),
        },
        collectors={
            "c.example": _emit_config("cprime", "https://cprime.example/up"),
            "cprime.example": CollectorConfig(),
        },
        visits=_chain_visits(),
    )


def _fig3_split_chain() -> ScenarioConfig:
    return ScenarioConfig(
        name="fig3_split_chain",
        description=(
            "A and B use per-site collector chains (a.c.example and "
            "b.c.example) so either site can drop its processor. The "
            "browser never interacts with b.c.example before B and "
            "b.c.example fail together, so the failure of b.c.example is "
            "never reported anywhere."),
        agents=[AgentSpec(name="browser")],
        servers={
            "a.example": ServerSpec(ip="192.0.2.10", paths={"/": PathSpec(
                headers=_policy("ac", "https://a.c.example/up", success_fraction=1.0))}),
            "b.example": ServerSpec(ip="192.0.2.11", down=[(5_000, None)], paths={
                "/": PathSpec(headers=_policy("bc", "https://b.c.example/up"))}),
            "a.c.example": ServerSpec(ip="192.0.2.30"),
            "b.c.example": ServerSpec(ip="192.0.2.31", down=[(5_000, None)]),
            "cprime.example": ServerSpec(ip="192.0.2.21"),
        },
        collectors={
            "a.c.example": _emit_config("cprime", "https://cprime.example/up"),
            "b.c.example": _emit_config("cprime", "https://cprime.example/up"),
            "cprime.example": CollectorConfig(),
        },
        visits=_chain_visits(),
    )


def _mitm_persistence() -> ScenarioConfig:
    return ScenarioConfig(
        name="mitm_persistence",
        description=(
            "An interception adversary injects a century-lifetime policy "
            "during a ten-minute window. The policy outlives the window: "
            "visits tens of days later still deliver reports to the "
            "attacker's collector."),
        agents=[AgentSpec(name="victim")],
        servers={
            "honest.example": ServerSpec(ip="192.0.2.40", paths={"/": PathSpec()}),
            "evil-collector.example": ServerSpec(ip="192.0.2.66"),
        },
        collectors={
            "evil-collector.example": CollectorConfig(
                ip_mode="full", strip_url_query=False),
        },
        mitm_windows=[
            MitmWindow(agent="victim", host="honest.example", start=60_000, end=600_000,
                       headers=_policy("evil", "https://evil-collector.example/up",
                                       CENTURY_S, success_fraction=1.0)),
        ],
        visits=[
            Visit(at=120_000, agent="victim", url="https://honest.example/"),
            Visit(at=900_000, agent="victim", url="https://honest.example/"),
            Visit(at=40 * DAY_MS, agent="victim", url="https://honest.example/"),
        ],
    )


def _mitigation_scrub() -> ScenarioConfig:
    config = _mitm_persistence()
    config.name = "mitigation_scrub"
    config.description = (
        "Same injection as mitm_persistence, but the honest server "
        "preventively serves max_age=0. The first visit after the "
        "window scrubs the malicious policy and no further reports "
        "reach the attacker.")
    config.servers["honest.example"].paths["/"] = PathSpec(
        headers={"NEL": '{"max_age":0}'})
    config.visits.insert(1, Visit(at=700_000, agent="victim",
                                  url="https://honest.example/"))
    return config


def _rogue_creator() -> ScenarioConfig:
    visits = []
    for offset, agent in ((0, "permissive"), (100, "strict")):
        visits.extend([
            Visit(at=1_000 + offset, agent=agent,
                  url="https://pages.example/alice/"),
            Visit(at=2_000 + offset, agent=agent,
                  url="https://pages.example/bob/profile?user=bob&session=s3cr3t"),
            Visit(at=3_000 + offset, agent=agent,
                  url="https://static.pages.example/lib.js"),
            Visit(at=4_000 + offset, agent=agent,
                  url="https://broken.pages.example/pixel"),
        ])
    visits.sort(key=lambda v: v.at)
    return ScenarioConfig(
        name="rogue_creator",
        description=(
            "A content creator controlling only /alice/ on a shared host "
            "installs a host-wide, subdomain-wide policy. Their collector "
            "then sees traffic for every path and subdomain, including a "
            "URL with query parameters. A strict-scope agent only leaks "
            "dns-phase reports for subdomains."),
        agents=[
            AgentSpec(name="permissive"),
            AgentSpec(name="strict", subdomain_mode="strict"),
        ],
        dns={"broken.pages.example": ""},
        servers={
            "pages.example": ServerSpec(ip="192.0.2.50", paths={
                "/alice/": PathSpec(headers=_policy(
                    "rogue", "https://rogue-collector.example/up",
                    success_fraction=1.0, include_subdomains=True)),
                "/": PathSpec(),
            }),
            "static.pages.example": ServerSpec(ip="192.0.2.51"),
            "rogue-collector.example": ServerSpec(ip="192.0.2.60"),
        },
        collectors={
            "rogue-collector.example": CollectorConfig(
                ip_mode="full", strip_url_query=False),
        },
        visits=visits,
    )


def _dns_firewall() -> ScenarioConfig:
    return ScenarioConfig(
        name="dns_firewall",
        description=(
            "A policy is installed while a tracking domain still resolves "
            "normally. A DNS firewall then remaps the domain to an invalid "
            "address; the next visit fails, and the report delivered to "
            "the still-reachable collector carries the remap target, "
            "revealing the firewall to the blocked party."),
        agents=[AgentSpec(name="user")],
        servers={
            "blocked.example": ServerSpec(ip="198.51.100.7", paths={
                "/": PathSpec(headers=_policy("t", "https://telemetry.example/up"))}),
            "telemetry.example": ServerSpec(ip="198.51.100.9"),
        },
        collectors={"telemetry.example": CollectorConfig()},
        dns_mutations=[
            DnsMutation(at=5_000, host="blocked.example", ip="10.66.0.1"),
        ],
        visits=[
            Visit(at=1_000, agent="user", url="https://blocked.example/"),
            Visit(at=10_000, agent="user", url="https://blocked.example/"),
        ],
    )


def _consent_gate() -> ScenarioConfig:
    return ScenarioConfig(
        name="consent_gate",
        description=(
            "An enforce-mode agent without recorded consent visits a "
            "NEL-deploying site: nothing installs and nothing is reported. "
            "Granting consent makes the same visit sequence behave exactly "
            "like a bypass-mode agent."),
        agents=[AgentSpec(name="user", consent_mode="enforce")],
        servers={
            "consent.example": ServerSpec(ip="192.0.2.70", down=[(2_500, None)], paths={
                "/": PathSpec(headers=_policy(
                    "cg", "https://consent-collector.example/up", success_fraction=1.0))}),
            "consent-collector.example": ServerSpec(ip="192.0.2.71"),
        },
        collectors={"consent-collector.example": CollectorConfig()},
        visits=[
            Visit(at=1_000, agent="user", url="https://consent.example/"),
            Visit(at=2_000, agent="user", url="https://consent.example/"),
            Visit(at=3_000, agent="user", url="https://consent.example/"),
        ],
    )


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    """Fresh instances of every builtin scenario, keyed by name.

    A builder writes each host's address once, in its server; each config's
    ``dns`` maps every server to that address, and holds entries of its own
    only for names with no server.
    """
    builders = (_fig2_chain, _fig3_split_chain, _mitm_persistence,
                _rogue_creator, _dns_firewall, _mitigation_scrub, _consent_gate)
    configs = [build() for build in builders]
    for config in configs:
        config.dns = {host: s.ip for host, s in config.servers.items()} | config.dns
    return {config.name: config for config in configs}
