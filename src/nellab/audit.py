"""Audit HTTP response headers for risky NEL deployments.

Findings flag policies whose presence, lifetime, scope, or header-capture
requests deserve operator attention, plus (in fleet mode) domains that
serve no removal policy at all. Every finding cites the header text that
triggered it. The live fetcher distinguishes dns, connect, and http
failure phases -- the same taxonomy NEL reports use.
"""

from __future__ import annotations

import http.client
import socket
import ssl
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from urllib.parse import urljoin, urlsplit

from .headers import NelPolicyHeader, ParseError, Removal, parse_nel_header

USER_AGENT = "nel-lab-audit/0.1"
MAX_REDIRECTS = 5
TIMEOUT_S = 10.0
DEFAULT_LONG_MAX_AGE_DAYS = 30
FLEET_WORKERS = 8
# fetch_headers reads a body only when it declares at most this many bytes.
MAX_BODY_READ = 64 * 1024

# Each finding code's severity and the message rendered with it.
FINDINGS = {
    "NEL_PRESENT_NO_CONSENT_SIGNAL": ("warn", "NEL policy served without any consent gate"),
    "HEADER_CAPTURE_REQUESTED": (
        "high", "policy asks browsers to embed exchange headers in reports"),
    "LONG_MAX_AGE": ("warn", "policy lifetime exceeds the audit threshold"),
    "SUBDOMAIN_SCOPE": ("warn", "policy extends to every subdomain"),
    "NO_REMOVAL_POLICY": (
        "info", "domain serves no NEL header; a max_age=0 policy would scrub stale ones"),
    "INSECURE_NEL": ("high", "NEL header served over an insecure channel"),
    "REMOVAL_POLICY": ("info", "removal policy (max_age=0); scrubs previously stored policies"),
}


@dataclass(frozen=True)
class AuditFinding:
    code: str
    severity: str
    host: str
    evidence: str
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


class AuditNetworkError(Exception):
    """A live fetch failed; ``phase`` is one of dns, connect, http."""

    def __init__(self, phase: str, message: str):
        super().__init__(message)
        self.phase = phase


def _find_header(headers: dict[str, str], name: str) -> str | None:
    for key, value in headers.items():
        if key.lower() == name.lower():
            return value
    return None


def analyze_headers(headers: dict[str, str], host: str, scheme: str | None = None,
                    fleet_mode: bool = False,
                    long_max_age_days: int = DEFAULT_LONG_MAX_AGE_DAYS,
                    ) -> list[AuditFinding]:
    """Derive findings from one response's headers."""

    def finding(code: str, evidence: str, detail: str = "") -> AuditFinding:
        return AuditFinding(code=code, severity=FINDINGS[code][0], host=host,
                            evidence=evidence, detail=detail)

    nel_value = _find_header(headers, "NEL")
    if nel_value is None:
        if fleet_mode:
            return [finding("NO_REMOVAL_POLICY", "(no NEL header present)")]
        return []

    evidence = f"NEL: {nel_value}"
    findings = [finding("NEL_PRESENT_NO_CONSENT_SIGNAL", evidence)]
    if scheme == "http":
        findings.append(finding("INSECURE_NEL", evidence))

    try:
        parsed = parse_nel_header(nel_value)
    except ParseError as exc:
        findings[0] = finding("NEL_PRESENT_NO_CONSENT_SIGNAL", evidence,
                              detail=f"header did not parse: {exc}")
        return findings

    if isinstance(parsed, Removal):
        findings.append(finding("REMOVAL_POLICY", evidence))
        return findings

    assert isinstance(parsed, NelPolicyHeader)
    threshold = long_max_age_days * 86_400
    if parsed.max_age > threshold:
        findings.append(finding(
            "LONG_MAX_AGE", evidence,
            detail=f"max_age {parsed.max_age}s exceeds {threshold}s"))
    if parsed.include_subdomains:
        findings.append(finding("SUBDOMAIN_SCOPE", evidence))
    if parsed.request_headers or parsed.response_headers:
        names = parsed.request_headers + parsed.response_headers
        findings.append(finding("HEADER_CAPTURE_REQUESTED", evidence,
                                detail=f"captures: {', '.join(names)}"))
    return findings


def parse_headers_file(text: str) -> dict[str, str]:
    """Parse raw response headers (``Name: value`` lines); last value wins."""
    headers: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("HTTP/"):
            continue
        name, sep, value = line.partition(":")
        if not sep:
            continue
        headers = {k: v for k, v in headers.items()
                   if k.lower() != name.strip().lower()}
        headers[name.strip()] = value.strip()
    return headers


def fetch_headers(url: str) -> tuple[str, dict[str, str]]:
    """One GET with a fixed user agent, following at most five redirects.

    Returns the final URL and its response headers. Raises
    :class:`AuditNetworkError` with the failing phase named: dns for a host
    name that does not resolve or encode, connect, and http for a URL or a
    response that ``urllib`` or ``http.client`` refuses and on a sixth
    redirect in a row.
    """
    try:
        return _get(url)
    except (ValueError, http.client.HTTPException) as exc:  # a bad port, status line...
        raise AuditNetworkError("http", f"{url}: {exc!r}") from None


def _get(url: str) -> tuple[str, dict[str, str]]:
    for _ in range(MAX_REDIRECTS + 1):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise AuditNetworkError("http", f"unsupported target {url!r}")
        host = parts.hostname
        port = parts.port or (443 if parts.scheme == "https" else 80)

        if parts.scheme == "https":
            connection = http.client.HTTPSConnection(
                host, port, timeout=TIMEOUT_S,
                context=ssl.create_default_context())
        else:
            connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        try:
            try:
                connection.connect()
            except (socket.gaierror, UnicodeError) as exc:  # no such name, or no IDNA form
                raise AuditNetworkError("dns", f"{host}: {exc}") from None
            except OSError as exc:
                raise AuditNetworkError("connect", f"{host}:{port}: {exc}") from None
            path = parts.path or "/"
            if parts.query:
                path += f"?{parts.query}"
            try:
                connection.request("GET", path, headers={"User-Agent": USER_AGENT})
                response = connection.getresponse()
                headers = {name: value for name, value in response.getheaders()}
                if response.length is not None and response.length <= MAX_BODY_READ:
                    response.read()
            except OSError as exc:
                raise AuditNetworkError("http", f"{url}: {exc}") from None
        finally:
            connection.close()

        location = _find_header(headers, "Location")
        if response.status in (301, 302, 303, 307, 308) and location:
            url = urljoin(url, location)
            continue
        return url, headers
    raise AuditNetworkError("http", f"more than {MAX_REDIRECTS} redirects (next: {url})")


def audit_url(url: str, long_max_age_days: int = DEFAULT_LONG_MAX_AGE_DAYS,
              fleet_mode: bool = False) -> dict:
    final_url, headers = fetch_headers(url)
    parts = urlsplit(final_url)
    findings = analyze_headers(headers, host=parts.hostname or "",
                               scheme=parts.scheme, fleet_mode=fleet_mode,
                               long_max_age_days=long_max_age_days)
    return {
        "target": url,
        "final_url": final_url,
        "host": parts.hostname or "",
        "findings": [f.to_dict() for f in findings],
    }


def audit_fleet(targets: list[str],
                long_max_age_days: int = DEFAULT_LONG_MAX_AGE_DAYS) -> list[dict]:
    """Audit many targets concurrently; per-target failures become entries."""

    def one(target: str) -> dict:
        try:
            return audit_url(target, long_max_age_days=long_max_age_days,
                             fleet_mode=True)
        except AuditNetworkError as exc:
            return {"target": target, "error": {"phase": exc.phase,
                                                "message": str(exc)}}

    with ThreadPoolExecutor(max_workers=FLEET_WORKERS) as pool:
        return list(pool.map(one, targets))


def render_findings(result: dict) -> str:
    """Human-readable form of one audit result; same objects as the JSON."""
    lines = [f"== {result.get('host') or result['target']} =="]
    if "error" in result:
        error = result["error"]
        lines.append(f"  network failure during {error['phase']}: {error['message']}")
        return "\n".join(lines)
    findings = result["findings"]
    if not findings:
        lines.append("  no findings")
    for entry in findings:
        lines.append(f"  [{entry['severity'].upper()}] {entry['code']}: "
                     f"{FINDINGS[entry['code']][1]}")
        lines.append(f"      evidence: {entry['evidence']}")
        if entry["detail"]:
            lines.append(f"      detail: {entry['detail']}")
    return "\n".join(lines)
