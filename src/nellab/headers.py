"""Wire formats for Network Error Logging.

Parses and serializes the ``NEL`` and ``Report-To`` HTTP header values and
the report-batch upload body (``application/reports+json``). Parsing is
strict about member types and value ranges but ignores unknown members, so
the codec stays total on real-world headers.

Each shape (NEL policy, Report-To group, report) has one dict-level pair,
``*_to_dict``/``*_from_dict``; the string codecs only wrap them in JSON. The
policy, endpoint and report-body dataclasses alone list their members: field
order is the wire order and a field's default is the member's. Serialization
omits exactly the members at their defaults and parsing fills them back in,
so round trips are exact. A Report-To group's wire names, defaults and order
differ from its dataclass's, so its pair is written out by hand.

One checker, :func:`check_types`, checks a JSON value against an annotation,
for the wire shapes here and the simulator's config documents alike.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from typing import Literal, NewType, Union, get_args, get_origin, get_type_hints
from urllib.parse import urlsplit, urlunsplit

REPORT_MEDIA_TYPE = "application/reports+json"

# Per-header-value cap. Real policies are well under 1 KiB; anything larger
# is hostile or broken.
MAX_HEADER_BYTES = 16 * 1024

REPORT_PHASES = ("dns", "connection", "application")


class ParseError(ValueError):
    """Raised when a header value, report batch or config document is malformed;
    an error in one element of a batch starts with ``element <index>: ``."""


class Removal:
    """Sentinel parse result for a policy with ``max_age`` 0.

    A zero lifetime instructs the browser to delete any stored policy for
    the host instead of installing one.
    """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Removal"


REMOVAL = Removal()


@dataclass(frozen=True)
class NelPolicyHeader:
    """A parsed ``NEL`` header value; hashable, so parses can be shared."""

    report_to: str
    max_age: int
    include_subdomains: bool = False
    success_fraction: float = 0.0
    failure_fraction: float = 1.0
    request_headers: tuple[str, ...] = ()
    response_headers: tuple[str, ...] = ()

    def __post_init__(self):
        if self.max_age < 0:
            raise ValueError("max_age must be non-negative")
        for name in ("success_fraction", "failure_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "request_headers", tuple(self.request_headers))
        object.__setattr__(self, "response_headers", tuple(self.response_headers))


@dataclass(frozen=True)
class Endpoint:
    """One upload URL within an endpoint group."""

    url: str
    priority: int = 1
    weight: int = 1

    def __post_init__(self):
        parts = urlsplit(self.url)
        if parts.scheme != "https" or not parts.netloc:
            raise ValueError(f"endpoint URL must be absolute https: {self.url!r}")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")
        if self.weight < 1:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class EndpointGroup:
    """A parsed ``Report-To`` group: a named set of collector endpoints."""

    name: str
    max_age: int
    endpoints: tuple[Endpoint, ...]
    include_subdomains: bool = False

    def __post_init__(self):
        if self.max_age < 0:
            raise ValueError("max_age must be non-negative")
        if not self.endpoints:
            raise ValueError("endpoint list must not be empty")
        object.__setattr__(self, "endpoints", tuple(self.endpoints))


@dataclass
class ReportBody:
    """The ``body`` member of a network-error report; the collector's
    minimizer reads its fields too."""

    sampling_fraction: float
    referrer: str
    server_ip: str
    protocol: str
    method: str
    request_headers: dict[str, str]
    response_headers: dict[str, str]
    status_code: int
    elapsed_time: int
    phase: str
    type: str


@dataclass
class NelReport:
    """One queued or delivered network-error report."""

    age: int
    url: str
    body: ReportBody
    type: str = "network-error"


# A virtual time: a JSON integer, which errors name as milliseconds.
Millis = NewType("Millis", int)

# How errors name each kind a member can declare, and the types its values may have.
_JSON_KINDS = {str: ("a JSON string", str), bool: ("a JSON boolean", bool),
               int: ("a JSON integer", int), Millis: ("an integer of milliseconds", int),
               float: ("a JSON number", (int, float)), list: ("a JSON array", list),
               tuple: ("a JSON array", (tuple, list)), dict: ("a JSON object", dict)}


def checked(value, kind, where: str):
    """``value`` if it has JSON kind ``kind``; bool is never a number."""
    text, types = _JSON_KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        got = "" if kind in (list, tuple, dict) else f", got {value!r}"
        raise ParseError(f"{where} must be {text}{got}")
    return value


@cache
def shape(hint) -> tuple:
    """``(kind, args)`` of an annotation; ``X | None`` is a ``Union``, and a dataclass's
    args are ``(name, hint, default, kind, exact)`` per field, in order: a required
    field's default is ``MISSING``, and a member of type ``exact`` is well-typed."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return dataclass, tuple(
            (f.name, hints[f.name], f.default, shape(hints[f.name])[0],
             _JSON_KINDS.get(hints[f.name], (None, None))[1])
            for f in fields(hint))
    args = get_args(hint)
    return (Union if type(None) in args else get_origin(hint) or hint), args


def check_types(value, hint, where: str) -> None:
    """Raise :class:`ParseError` naming the first part of ``value`` (named
    ``where``) that ``hint``, or a dataclass member's annotation, does not allow."""
    kind, args = shape(hint)
    if kind is Union:
        if value is not None:
            check_types(value, args[0], where)
    elif kind is dataclass:
        if not isinstance(value, hint):
            raise ParseError(f"{where} must be a JSON object")
        for name, member, _, _, exact in args:
            item = getattr(value, name)
            if type(item) is not exact:
                check_types(item, member, f"{where}.{name}")
    elif kind is dict and args:
        for key, item in checked(value, dict, where).items():
            check_types(item, args[1], f"{where}[{key!r}]")
    elif kind is Literal:
        if value not in args:
            raise ParseError(f"{where} must be one of "
                             f"{', '.join(map(repr, args))}, got {value!r}")
    elif kind is list or kind is tuple:
        if kind is list or args[-1] is Ellipsis:
            args = args[:1] * len(checked(value, kind, where))
        elif len(checked(value, tuple, where)) != len(args):
            raise ParseError(f"{where} must be an array of {len(args)} items")
        for index, (item, member) in enumerate(zip(value, args)):
            check_types(item, member, f"{where}[{index}]")
    else:
        checked(value, kind, where)


def decode_json(raw: str | bytes, what: str = "JSON"):
    """Decode one JSON document; every decoder failure, nesting too deep for
    the decoder included, is a :class:`ParseError` (a ``ValueError``). The
    header and batch parsers and the CLI's config loaders all decode here."""
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"invalid {what}: {exc}") from None


def _check_size(raw: str) -> None:
    if len(raw.encode("utf-8")) > MAX_HEADER_BYTES:
        raise ParseError(f"header value exceeds {MAX_HEADER_BYTES} bytes")


def _member(obj: dict, name: str, hint, default=MISSING):
    """Fetch one JSON member, checked against ``hint`` by :func:`check_types`;
    a member whose ``default`` is ``MISSING`` is required."""
    if name not in obj:
        if default is MISSING:
            raise ParseError(f"missing required member {name!r}")
        return default
    value = obj[name]
    if type(value) is not hint:
        check_types(value, hint, name)
    return value


def _from_dict(cls, obj: dict):
    """Dataclass ``cls`` from its JSON object, each field fetched by
    :func:`_member`; the dataclass's own checks fail as :class:`ParseError` too."""
    try:
        return cls(*[_member(obj, name, hint, default)
                     for name, hint, default, _, _ in shape(cls)[1]])
    except ValueError as exc:  # ParseError is a ValueError: its message stays
        raise ParseError(str(exc)) from None


def _to_dict(obj) -> dict:
    """A dataclass's JSON object: its fields in order less those at their defaults."""
    return {name: list(value) if isinstance(value, tuple) else value
            for name, _, default, _, _ in shape(type(obj))[1]
            if (value := getattr(obj, name)) != default}


# -- NEL policy -----------------------------------------------------------------


policy_to_dict = _to_dict


def policy_from_dict(obj) -> NelPolicyHeader | Removal:
    """Validate a ``NEL`` policy object; the inverse of :func:`policy_to_dict`.

    Returns :data:`REMOVAL` for ``max_age`` 0 whatever the other members, since
    nothing is going to be stored. Raises :class:`ParseError` on wrong member
    types, fractions outside [0, 1], negative max_age, or a missing report_to.
    """
    if not isinstance(obj, dict):
        raise ParseError("policy must be one JSON object")
    if _member(obj, "max_age", int) == 0:
        return REMOVAL
    return _from_dict(NelPolicyHeader, obj)


def parse_nel_header(raw: str) -> NelPolicyHeader | Removal:
    """Parse a ``NEL`` header value with :func:`policy_from_dict`."""
    _check_size(raw)
    return policy_from_dict(decode_json(raw))


def serialize_nel_header(policy: NelPolicyHeader) -> str:
    """Serialize a policy back to a ``NEL`` header value, omitting defaults."""
    return json.dumps(policy_to_dict(policy), separators=(",", ":"))


# -- Report-To group --------------------------------------------------------------


def group_to_dict(group: EndpointGroup) -> dict:
    """The JSON object of a ``Report-To`` group, omitting members at their defaults."""
    obj: dict = {"group": group.name, "max_age": group.max_age}
    if group.include_subdomains:
        obj["include_subdomains"] = True
    obj["endpoints"] = [_to_dict(ep) for ep in group.endpoints]
    return obj


def group_from_dict(obj) -> EndpointGroup:
    """Validate a ``Report-To`` group object; the inverse of :func:`group_to_dict`."""
    if not isinstance(obj, dict):
        raise ParseError("group value must be a JSON object")
    try:
        return EndpointGroup(
            endpoints=[_from_dict(Endpoint, entry)
                       for entry in _member(obj, "endpoints", list[dict])],
            name=_member(obj, "group", str, default="default"),
            max_age=_member(obj, "max_age", int),
            include_subdomains=_member(obj, "include_subdomains", bool, default=False),
        )
    except ValueError as exc:  # the dataclasses check URLs, ranges and emptiness
        raise ParseError(str(exc)) from None


def parse_report_to_header(raw: str) -> list[EndpointGroup]:
    """Parse a ``Report-To`` header value, read as the members of one JSON array."""
    _check_size(raw)
    objs = decode_json(f"[{raw}]")
    if not objs:
        raise ParseError("header value contains no groups")
    return [group_from_dict(obj) for obj in objs]


def serialize_report_to_header(groups: list[EndpointGroup]) -> str:
    """Serialize endpoint groups to a ``Report-To`` header value."""
    return ", ".join(json.dumps(group_to_dict(group), separators=(",", ":"))
                     for group in groups)


# -- network-error report -----------------------------------------------------------


def strip_credentials(url: str) -> str:
    """``url`` without username and password; a URL without ``@`` is returned as is."""
    if "@" not in url:
        return url
    netloc = urlsplit(url).netloc
    return url.replace(netloc, netloc.rpartition("@")[2], 1)


def strip_query(url: str) -> str:
    """``url`` without its credentials, query and fragment; an empty URL stays empty."""
    if not url:
        return url
    parts = urlsplit(url)
    return urlunsplit((parts.scheme, parts.netloc.rpartition("@")[2], parts.path,
                       "", ""))


def report_to_dict(report: NelReport) -> dict:
    """The JSON object of one report; its body holds ``ReportBody``'s fields
    in their order, with copies of the header maps."""
    body = vars(report.body).copy()
    body["request_headers"] = dict(body["request_headers"])
    body["response_headers"] = dict(body["response_headers"])
    return {"age": report.age, "type": report.type, "url": report.url, "body": body}


def report_from_dict(obj) -> NelReport:
    """Validate one report object, the inverse of :func:`report_to_dict`.

    Every member is required.
    """
    if not isinstance(obj, dict):
        raise ParseError("report must be a JSON object")
    age = _member(obj, "age", int)
    if age < 0:
        raise ParseError("age must be non-negative")
    rtype = _member(obj, "type", str)
    if rtype != "network-error":
        raise ParseError(f"unsupported report type {rtype!r}")
    url = _member(obj, "url", str)
    body = _member(obj, "body", dict)

    parsed = _from_dict(ReportBody, body)
    if not 0.0 <= parsed.sampling_fraction <= 1.0:
        raise ParseError("sampling_fraction outside [0, 1]")
    if parsed.phase not in REPORT_PHASES:
        raise ParseError(f"unknown phase {parsed.phase!r}")
    parsed.sampling_fraction = float(parsed.sampling_fraction)
    return NelReport(age=age, url=url, body=parsed)


def serialize_report_batch(reports: list[NelReport]) -> bytes:
    """Serialize a delivery batch as a UTF-8 JSON array in queue order.

    All reports must be destined for the same endpoint; an empty batch is a
    contract violation.
    """
    if not reports:
        raise ValueError("report batch must not be empty")
    return json.dumps([report_to_dict(r) for r in reports]).encode("utf-8")


def parse_report_batch(data: bytes) -> list[NelReport]:
    """Parse a report-batch body; the inverse of :func:`serialize_report_batch`."""
    parsed = decode_json(data, "JSON body")
    if not isinstance(parsed, list):
        raise ParseError("report batch must be a JSON array")
    reports: list[NelReport] = []
    try:
        for obj in parsed:
            reports.append(report_from_dict(obj))
    except ParseError as exc:
        raise ParseError(f"element {len(reports)}: {exc}") from None
    return reports
