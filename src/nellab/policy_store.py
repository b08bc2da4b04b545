"""Browser-side cache of NEL policies.

One entry per host, last writer wins. Policies expire after ``max_age``
seconds (lifetimes up to centuries are representable), match subdomains
when flagged, are deleted by a ``max_age=0`` header, and, with
``enforce_consent`` set, are only stored for hosts the user has consented to.

Single-writer, multiple-reader: all mutations must come from one logical
owner. The simulator drives each store single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .headers import (
    EndpointGroup,
    NelPolicyHeader,
    ParseError,
    Removal,
    parse_nel_header,
    parse_report_to_header,
)


@dataclass
class StoredPolicy:
    """A policy cached for one host, with the endpoint group it names."""

    host: str
    policy: NelPolicyHeader
    group: EndpointGroup
    received_at: int
    expires_at: int


@dataclass(frozen=True)
class StoreEffect:
    """Outcome of processing one response's policy headers."""

    kind: str  # installed | replaced | removed | ignored
    reason: str | None = None
    # The entry written, for installed and replaced effects.
    stored: StoredPolicy | None = field(default=None, compare=False)


# Parses of distinct header values, shared by every store: the parsed types
# are frozen and hold only tuples. A ParseError is raised again on each call,
# never cached.
PARSE_CACHE_SIZE = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_nel(raw: str) -> NelPolicyHeader | Removal:
    return parse_nel_header(raw)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_report_to(raw: str) -> tuple[EndpointGroup, ...]:
    return tuple(parse_report_to_header(raw))


def superdomains(host: str) -> list[str]:
    """Strict label-suffix superdomains, most specific first."""
    labels = host.split(".")
    return [".".join(labels[i:]) for i in range(1, len(labels))]


class PolicyStore:
    """Policy cache plus consent ledger for one browser agent."""

    def __init__(self, enforce_consent: bool = False):
        self.enforce_consent = enforce_consent
        self._entries: dict[str, StoredPolicy] = {}
        self._consent: dict[str, bool] = {}

    # -- header processing -------------------------------------------------

    def process_policy_headers(self, host: str, secure: bool, nel: str | None,
                               report_to: str | None, now: int) -> StoreEffect:
        """Apply one response's NEL/Report-To headers to the store.

        Never raises on hostile input: every failure becomes an
        ``ignored(reason)`` effect.
        """
        host = host.lower()
        if not secure:
            return StoreEffect("ignored", "insecure")
        if nel is None:
            return StoreEffect("ignored", "no_header")
        try:
            parsed = _parse_nel(nel)
        except ParseError:
            return StoreEffect("ignored", "parse_error")

        if isinstance(parsed, Removal):
            # Deletion stores nothing, so it bypasses the consent gate.
            self._entries.pop(host, None)
            return StoreEffect("removed")

        if report_to is None:
            return StoreEffect("ignored", "unknown_group")
        try:
            groups = _parse_report_to(report_to)
        except ParseError:
            return StoreEffect("ignored", "parse_error")
        group = next((g for g in groups if g.name == parsed.report_to), None)
        if group is None:
            return StoreEffect("ignored", "unknown_group")

        if self.enforce_consent and not self._consent.get(host):
            return StoreEffect("ignored", "no_consent")

        replaced = host in self._entries
        stored = self._entries[host] = StoredPolicy(
            host=host,
            policy=parsed,
            group=group,
            received_at=now,
            expires_at=now + parsed.max_age * 1000,
        )
        return StoreEffect("replaced" if replaced else "installed", stored=stored)

    # -- queries ------------------------------------------------------------

    def lookup(self, host: str, now: int) -> StoredPolicy | None:
        """Find the policy governing ``host``.

        Exact entry wins; otherwise the most specific unexpired superdomain
        entry with ``include_subdomains`` set, whose ``host`` then differs
        from the lowercased query. Expired entries behave as absent and are
        evicted on the way.
        """
        host = host.lower()
        entry = self._entries.get(host)
        if entry is not None:
            if entry.expires_at <= now:
                del self._entries[host]
            else:
                return entry
        for sup in superdomains(host):
            entry = self._entries.get(sup)
            if entry is None:
                continue
            if entry.expires_at <= now:
                del self._entries[sup]
                continue
            if entry.policy.include_subdomains:
                return entry
        return None

    # -- mutation -----------------------------------------------------------

    def set_consent(self, host: str, granted: bool) -> None:
        host = host.lower()
        self._consent[host] = granted
        if not granted and self.enforce_consent:
            self._entries.pop(host, None)

    def clear_browsing_data(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self._consent.clear()
        return count
