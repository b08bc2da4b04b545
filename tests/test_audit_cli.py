"""Audit findings and the nel-lab command-line interface."""

import contextlib
import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from nellab.audit import (
    AuditNetworkError,
    analyze_headers,
    audit_fleet,
    fetch_headers,
    parse_headers_file,
    render_findings,
)
from nellab.cli import main
from nellab.collector import CollectorConfig
from nellab.sim import collector_from_dict

from conftest import DEEP_HEADER, DEEP_JSON

EMIT = {
    "emit_nel_headers": {
        "nel": {"report_to": "meta", "max_age": 3600},
        "report_to": [{"group": "meta", "max_age": 3600,
                       "endpoints": [{"url": "https://cprime.example/up"}]}],
    },
}


def codes(findings):
    return [f.code for f in findings]


class TestAnalyzeHeaders:
    def test_long_max_age_and_subdomain_scope(self):
        headers = {"NEL": '{"report_to":"g","max_age":31536000,'
                          '"include_subdomains":true}'}
        found = codes(analyze_headers(headers, host="x.example"))
        assert "LONG_MAX_AGE" in found
        assert "SUBDOMAIN_SCOPE" in found
        assert "NEL_PRESENT_NO_CONSENT_SIGNAL" in found

    def test_removal_policy_marked_info(self):
        findings = analyze_headers({"NEL": '{"max_age":0, "report_to":"g"}'},
                                   host="x.example")
        removal = [f for f in findings if f.code == "REMOVAL_POLICY"]
        assert len(removal) == 1
        assert removal[0].severity == "info"
        # A removal installs nothing, so no lifetime/scope findings apply.
        assert "LONG_MAX_AGE" not in codes(findings)

    def test_header_capture_is_high_severity(self):
        headers = {"NEL": '{"report_to":"g","max_age":60,'
                          '"request_headers":["Cookie"]}'}
        findings = analyze_headers(headers, host="x.example")
        capture = [f for f in findings if f.code == "HEADER_CAPTURE_REQUESTED"]
        assert len(capture) == 1
        assert capture[0].severity == "high"
        assert "Cookie" in capture[0].detail

    def test_every_finding_cites_the_header(self):
        raw = '{"report_to":"g","max_age":31536000,"include_subdomains":true}'
        for finding in analyze_headers({"NEL": raw}, host="x.example"):
            assert raw in finding.evidence

    def test_short_max_age_not_flagged(self):
        headers = {"NEL": '{"report_to":"g","max_age":86400}'}
        assert "LONG_MAX_AGE" not in codes(analyze_headers(headers, host="x"))

    def test_threshold_configurable(self):
        headers = {"NEL": '{"report_to":"g","max_age":86401}'}
        found = codes(analyze_headers(headers, host="x", long_max_age_days=1))
        assert "LONG_MAX_AGE" in found

    def test_insecure_scheme(self):
        headers = {"NEL": '{"report_to":"g","max_age":60}'}
        found = codes(analyze_headers(headers, host="x", scheme="http"))
        assert "INSECURE_NEL" in found

    def test_no_removal_policy_only_in_fleet_mode(self):
        assert analyze_headers({}, host="x") == []
        fleet = analyze_headers({}, host="x", fleet_mode=True)
        assert codes(fleet) == ["NO_REMOVAL_POLICY"]

    def test_header_name_lookup_case_insensitive(self):
        headers = {"nel": '{"report_to":"g","max_age":60}'}
        assert "NEL_PRESENT_NO_CONSENT_SIGNAL" in \
            codes(analyze_headers(headers, host="x"))

    def test_unparseable_header_still_flagged(self):
        findings = analyze_headers({"NEL": '{"max_age":'}, host="x")
        assert codes(findings) == ["NEL_PRESENT_NO_CONSENT_SIGNAL"]
        assert "did not parse" in findings[0].detail

    def test_header_nested_too_deeply_still_flagged(self):
        findings = analyze_headers({"NEL": DEEP_HEADER}, host="x")
        assert codes(findings) == ["NEL_PRESENT_NO_CONSENT_SIGNAL"]
        assert "did not parse" in findings[0].detail


class TestHeadersFile:
    def test_parse_skips_status_line(self):
        headers = parse_headers_file(
            "HTTP/1.1 200 OK\nNEL: {\"max_age\":0}\nServer: x\n")
        assert headers == {"NEL": '{"max_age":0}', "Server": "x"}

    def test_duplicate_headers_last_wins(self):
        headers = parse_headers_file("X-A: 1\nx-a: 2\n")
        assert headers == {"x-a": "2"}


class TestRenderParity:
    def test_human_output_is_derived_from_the_same_findings(self):
        headers = {"NEL": '{"report_to":"g","max_age":31536000,'
                          '"include_subdomains":true,'
                          '"response_headers":["ETag"]}'}
        findings = [f.to_dict() for f in analyze_headers(headers, host="x.example")]
        result = {"target": "x", "host": "x.example", "findings": findings}
        text = render_findings(result)
        for finding in findings:
            assert finding["code"] in text
            assert finding["evidence"] in text


class TestScenarioCommand:
    def test_builtin_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["scenario", "fig2_chain", "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["name"] == "fig2_chain"
        assert document["events"]

    def test_default_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "dns_firewall"]) == 0
        assert (tmp_path / "dns_firewall.trace.json").is_file()

    def test_unknown_name_lists_builtins(self, capsys):
        assert main(["scenario", "no_such_scenario"]) == 2
        err = capsys.readouterr().err
        assert "fig2_chain" in err

    def test_seed_override_lands_in_trace_header(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["scenario", "fig2_chain", "--seed", "7",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 7

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "trace.json"
        monkeypatch.setenv("NEL_LAB_SEED", "41")
        assert main(["scenario", "fig2_chain", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 41

    def test_cli_seed_beats_env(self, tmp_path, monkeypatch):
        out = tmp_path / "trace.json"
        monkeypatch.setenv("NEL_LAB_SEED", "41")
        assert main(["scenario", "fig2_chain", "--seed", "3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 3

    def test_config_file_scenario(self, tmp_path):
        from nellab.sim import builtin_scenarios, config_to_dict

        config_path = tmp_path / "custom.json"
        config_path.write_text(
            json.dumps(config_to_dict(builtin_scenarios()["dns_firewall"])))
        out = tmp_path / "trace.json"
        assert main(["scenario", str(config_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["name"] == "dns_firewall"

    def test_invalid_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text('{"agents": [{"name": "a"}, {"name": "a"}]}')
        assert main(["scenario", str(config_path)]) == 2
        assert "unique" in capsys.readouterr().err

    def test_unknown_config_member_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(
            '{"agents": [{"name": "a", "consent_mod": "enforce"}]}')
        assert main(["scenario", str(config_path)]) == 2
        assert "consent_mod" in capsys.readouterr().err

    def test_unknown_referrer_mode_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(
            '{"agents": [{"name": "a", "referrer_mode": "everything"}]}')
        assert main(["scenario", str(config_path)]) == 2
        assert ("scenario.agents[0].referrer_mode must be one of 'origin-only', "
                "'strip-path', 'full', got 'everything'") in capsys.readouterr().err

    def test_non_integer_visit_time_exits_2(self, tmp_path, capsys):
        from nellab.sim import builtin_scenarios, config_to_dict

        document = config_to_dict(builtin_scenarios()["fig2_chain"])
        document["visits"][0]["at"] = "soon"
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(document))
        assert main(["scenario", str(config_path)]) == 2
        assert "must be an integer of milliseconds, got 'soon'" in \
            capsys.readouterr().err

    def test_wrong_scalar_type_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({
            "agents": [{"name": "a"}], "dns": {"x.example": "192.0.2.1"},
            "visits": [{"at": 1, "agent": "a", "url": 123}]}))
        assert main(["scenario", str(config_path)]) == 2
        assert "visits[0].url must be a JSON string" in capsys.readouterr().err

    @pytest.mark.parametrize("document, member", [
        ('{"name": "x", "servers": []}', "servers"),
        ('{"agents": {}}', "agents"),
        ('{"agents": [{"name": "a", "consent": []}]}', "consent"),
        ('{"servers": {"s.example": {"ip": "192.0.2.1", "paths": []}}}', "paths"),
        ('{"collectors": {"c.example": []}}', "c.example"),
        ('{"dns_mutations": [5]}', "scenario.dns_mutations[0] must be a JSON object"),
        ('{"visits": [{"at": 1, "agent": "a", "url": "https://x.example/"}, 7]}',
         "scenario.visits[1] must be a JSON object"),
        ('{"servers": {"s.example": {"ip": "192.0.2.1", "down": [[1, 2], 5]}}}',
         "scenario.servers['s.example'].down[1] must be a JSON array"),
        ('{"collectors": {"c.example": {"emit_nel_headers": 5}}}',
         "scenario.collectors['c.example']: emit_nel_headers must be a JSON object "
         "with 'nel'"),
        ('{"visits": [{"at": 1, "agent": "a"}]}',
         "scenario.visits[0]: Visit.__init__() missing 1 required positional "
         "argument: 'url'"),
        ('{"collectors": {"c.example": {"retention": "soon"}}}',
         "scenario.collectors['c.example']: retention must be seconds or "
         "\"infinite\": 'soon'"),
        ('{"collectors": {"c.example": {"ip_mode": "x"}}}',
         "scenario.collectors['c.example'].ip_mode must be one of 'volatile', "
         "'truncate', 'full', got 'x'"),
    ])
    def test_wrong_container_type_rejected(self, tmp_path, capsys, document, member):
        config_path = tmp_path / "bad.json"
        config_path.write_text(document)
        assert main(["scenario", str(config_path)]) == 2
        assert member in capsys.readouterr().err


class TestAuditCommand:
    def test_headers_file(self, tmp_path, capsys):
        path = tmp_path / "headers.txt"
        path.write_text('NEL: {"report_to":"g","max_age":31536000}\n')
        assert main(["audit", "--headers-file", str(path), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in result["findings"]} == \
            {"NEL_PRESENT_NO_CONSENT_SIGNAL", "LONG_MAX_AGE"}

    def test_human_output_default(self, tmp_path, capsys):
        path = tmp_path / "headers.txt"
        path.write_text('NEL: {"max_age":0}\n')
        assert main(["audit", "--headers-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "REMOVAL_POLICY" in out

    def test_missing_arguments(self, capsys):
        assert main(["audit"]) == 2

    def test_missing_headers_file(self, capsys):
        assert main(["audit", "--headers-file", "/nonexistent/h.txt"]) == 2

    @pytest.mark.parametrize("flag", ["--fleet", "--headers-file"])
    def test_input_file_not_utf8_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "input.txt"
        path.write_bytes(b"NEL: \xff\n")
        assert main(["audit", flag, str(path)]) == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_live_audit_against_local_collector(self, http_collector, capsys):
        _, base_url = http_collector(collector_from_dict(EMIT))
        assert main(["audit", base_url, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        found = {f["code"] for f in result["findings"]}
        assert "NEL_PRESENT_NO_CONSENT_SIGNAL" in found
        assert "INSECURE_NEL" in found  # plain-http test server

    def test_dns_failure_names_phase(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise socket.gaierror("name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", fail)
        assert main(["audit", "http://unresolvable.example/"]) == 3
        assert "dns" in capsys.readouterr().err

    def test_connect_failure_names_phase(self, capsys):
        # Bind then close a socket: the port is free, connections are refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["audit", f"http://127.0.0.1:{port}/"]) == 3
        assert "connect" in capsys.readouterr().err

    def test_fleet_mode(self, http_collector, tmp_path, capsys):
        _, with_nel = http_collector(collector_from_dict(EMIT))
        _, without_nel = http_collector(CollectorConfig())
        fleet = tmp_path / "targets.txt"
        fleet.write_text(f"{with_nel}\n# comment\n{without_nel}\n")
        assert main(["audit", "--fleet", str(fleet), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert len(results) == 2
        assert any(f["code"] == "NO_REMOVAL_POLICY"
                   for f in results[1]["findings"])

    def test_fleet_tolerates_unreachable_target(self, tmp_path, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        fleet = tmp_path / "targets.txt"
        fleet.write_text(f"http://127.0.0.1:{port}/\n")
        assert main(["audit", "--fleet", str(fleet), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert results[0]["error"]["phase"] == "connect"


@contextlib.contextmanager
def serving(handler):
    """Run ``handler`` on a loopback HTTP server; yields its base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                     daemon=True).start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


class Redirector(BaseHTTPRequestHandler):
    """Answers ``/final`` with a NEL header; redirects ``/loop`` to itself and
    every other path to ``/final``."""

    def do_GET(self):
        if self.path == "/final":
            self.send_response(200)
            self.send_header("NEL", '{"max_age":0}')
        else:
            self.send_response(302)
            self.send_header("Location", "/loop" if self.path == "/loop" else "/final")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


class TestFetchRedirects:
    def test_follows_redirects_to_final_headers(self):
        with serving(Redirector) as base:
            final_url, headers = fetch_headers(f"{base}/start")
        assert final_url.endswith("/final")
        assert headers["NEL"] == '{"max_age":0}'

    def test_more_than_five_redirects_is_an_http_error(self, tmp_path, capsys):
        paths = []

        class Loop(Redirector):
            def do_GET(self):
                paths.append(self.path)
                super().do_GET()

        with serving(Loop) as base:
            with pytest.raises(AuditNetworkError) as info:
                fetch_headers(f"{base}/loop")
            # The first request and five redirects; the sixth is not followed.
            assert paths == ["/loop"] * 6
            assert info.value.phase == "http"
            assert "more than 5 redirects" in str(info.value)

            assert main(["audit", f"{base}/loop"]) == 3
            assert "more than 5 redirects" in capsys.readouterr().err

            fleet = tmp_path / "targets.txt"
            fleet.write_text(f"{base}/loop\n")
            assert main(["audit", "--fleet", str(fleet), "--json"]) == 0
            error = json.loads(capsys.readouterr().out)[0]["error"]
            assert error["phase"] == "http"
            assert "more than 5 redirects" in error["message"]


MEBIBYTE = b"x" * (1 << 20)


class TestFetchBody:
    @pytest.mark.parametrize("declared", [True, False], ids=["content-length", "read-to-close"])
    def test_a_long_body_is_never_buffered(self, declared):
        """A 16 MiB body, its length declared or read to the close."""

        class Stream(Redirector):
            def do_GET(self):
                self.send_response(200)
                self.send_header("NEL", '{"max_age":0}')
                if declared:
                    self.send_header("Content-Length", str(16 * len(MEBIBYTE)))
                self.end_headers()
                try:
                    for _ in range(16):
                        self.wfile.write(MEBIBYTE)
                except OSError:
                    pass  # the client closed without reading the rest
                self.close_connection = True

        with serving(Stream) as base:
            tracemalloc.start()
            try:
                _, headers = fetch_headers(f"{base}/")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert headers["NEL"] == '{"max_age":0}'
        assert peak < 4 << 20  # bytes


# Targets that urllib or the IDNA codec refuse before any packet is sent.
MALFORMED_TARGETS = pytest.mark.parametrize("target, phase", [
    ("http://x.invalid:99999/", "http"),
    ("http://[x/", "http"),
    ("http://a..example/", "dns"),
    (f"http://{'a' * 70}.example/", "dns"),
], ids=["port-out-of-range", "broken-ipv6", "empty-label", "label-over-63"])

def answering(reply: bytes):
    """A handler that answers every request with the raw bytes ``reply``."""

    class Raw(Redirector):
        def do_GET(self):
            self.wfile.write(reply)
            self.close_connection = True

    return Raw


class TestMalformedTarget:
    """A target that cannot be fetched is that target's error, never an abort."""

    @MALFORMED_TARGETS
    def test_fleet_records_error(self, target, phase):
        [result] = audit_fleet([target])
        assert result["target"] == target
        assert result["error"]["phase"] == phase

    @pytest.mark.parametrize("reply", [
        b"garbage\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
        b"HTTP/1.1 200 OK\r\nX: " + b"a" * 70_000 + b"\r\n\r\n",
    ], ids=["bad-status-line", "incomplete-read", "line-too-long"])
    def test_fleet_records_refused_reply(self, reply):
        """Replies that http.client refuses."""
        with serving(answering(reply)) as base:
            [result] = audit_fleet([f"{base}/"])
        assert result["error"]["phase"] == "http"

    @MALFORMED_TARGETS
    def test_cli_exits_3_naming_phase(self, capsys, target, phase):
        assert main(["audit", target]) == 3
        assert f"network failure during {phase}" in capsys.readouterr().err

    def test_cli_refused_reply_exits_3(self, capsys):
        with serving(answering(b"garbage\r\n\r\n")) as base:
            assert main(["audit", f"{base}/"]) == 3
        assert "network failure during http" in capsys.readouterr().err


class TestCollectCommand:
    @pytest.mark.parametrize("document, flags, value", [
        ({"ip_mode": "wat"}, [], "wat"),
        ({}, ["--ip-mode", "bogus"], "bogus"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, document, flags, value):
        path = tmp_path / "collector.json"
        path.write_text(json.dumps(document))
        assert main(["collect", "--config", str(path), *flags]) == 2
        assert ("collector.ip_mode must be one of 'volatile', 'truncate', 'full', "
                f"got {value!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["[]", "null", '"x"'])
    @pytest.mark.parametrize("flags", [[], ["--ip-mode", "full"]])
    def test_non_object_config_exits_2(self, tmp_path, capsys, document, flags):
        path = tmp_path / "collector.json"
        path.write_text(document)
        assert main(["collect", "--config", str(path), *flags]) == 2
        assert "collector must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("document, member", [
        ({"retention_seconds": 5}, "retention_seconds"),
        ({"emit_nel": {}}, "emit_nel"),
    ])
    def test_runtime_field_name_is_not_a_member(self, tmp_path, capsys, document,
                                                member):
        path = tmp_path / "collector.json"
        path.write_text(json.dumps(document))
        assert main(["collect", "--config", str(path)]) == 2
        assert f"got multiple values for keyword argument '{member}'" in \
            capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert main(["collect", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("command, kind", [
        (["scenario"], "scenario"),
        (["collect", "--config"], "collector"),
    ], ids=["scenario", "collect"])
    def test_config_nested_too_deeply_exits_2(self, tmp_path, capsys, command, kind):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        assert main([*command, str(path)]) == 2
        assert f"error: bad {kind} config {path}" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({"listen": "not-a-listen-address",
                                      "ip_mode": "full"}))
        # The bad listen address from the file is overridden; binding to an
        # unroutable override then fails cleanly with exit 2.
        assert main(["collect", "--config", str(config),
                     "--listen", "203.0.113.1:1", "--ip-mode", "volatile"]) == 2

    @pytest.mark.parametrize("document, flags, problem", [
        ({}, ["--listen", "127.0.0.1"], "must be host:port, got '127.0.0.1'"),
        ({"listen": "nohost"}, [], "must be host:port, got 'nohost'"),
        ({"listen": 5}, [], "collector.listen must be a JSON string, got 5"),
        ({"listen": "127.0.0.1:65536"}, [], "must be host:port"),
    ])
    def test_bad_listen_address_exits_2(self, tmp_path, capsys, document, flags,
                                        problem):
        config = tmp_path / "collector.json"
        config.write_text(json.dumps(document))
        assert main(["collect", "--config", str(config), *flags]) == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("member, value, kind", [
        ("log_path", 5, "string"),
        ("strip_url_query", "no", "boolean"),
        ("drop_captured_headers", 0, "boolean"),
        ("listen", ["x"], "string"),
    ])
    def test_wrong_member_type_exits_2(self, tmp_path, capsys, member, value, kind):
        config = tmp_path / "collector.json"
        # An unroutable address makes a config that passes fail on bind, not serve.
        config.write_text(json.dumps({"listen": "203.0.113.1:1", member: value}))
        assert main(["collect", "--config", str(config)]) == 2
        assert f"collector.{member} must be a JSON {kind}, got {value!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("emit, problem", [
        (5, "emit_nel_headers must be a JSON object with 'nel'"),
        ({}, "emit_nel_headers must be a JSON object with 'nel'"),
        ({"nel": EMIT["emit_nel_headers"]["nel"]},
         "emit_nel_headers must be a JSON object with 'report_to'"),
        ({"nel": 5, "report_to": []}, "emit_nel_headers.nel: policy must be one JSON object"),
        ({"nel": EMIT["emit_nel_headers"]["nel"],
          "report_to": [{"group": "meta", "max_age": 3600, "endpoints": [{"url": "http://x"}]}]},
         "emit_nel_headers.report_to: endpoint URL must be absolute https: 'http://x'"),
    ])
    def test_malformed_emit_nel_headers_exits_2(self, tmp_path, capsys, emit, problem):
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({"listen": "203.0.113.1:1", "emit_nel_headers": emit}))
        assert main(["collect", "--config", str(config)]) == 2
        assert problem in capsys.readouterr().err

    def test_log_path_under_a_regular_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        log = tmp_path / "plain" / "records.ndjson"
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({"listen": "127.0.0.1:0", "log_path": str(log)}))
        assert main(["collect", "--config", str(config)]) == 2
        assert f"cannot open log {log}" in capsys.readouterr().err

    def test_serves_and_exits_cleanly_on_sigint(self, tmp_path):
        log = tmp_path / "records.ndjson"
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({
            "listen": "127.0.0.1:9999",
            "ip_mode": "full",
        }))
        with subprocess.Popen(
                [sys.executable, "-m", "nellab.cli", "collect",
                 "--config", str(config),
                 "--listen", "127.0.0.1:0",
                 "--ip-mode", "volatile",
                 "--log-path", str(log)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as process:
            try:
                banner = process.stdout.readline()
                assert "ip_mode=volatile" in banner
                address = banner.split()[3]
                host, port = address.rsplit(":", 1)

                from nellab.headers import REPORT_MEDIA_TYPE

                connection = http.client.HTTPConnection(host, int(port), timeout=5)
                payload = json.dumps([json.loads(json.dumps({
                    "age": 0, "type": "network-error", "url": "https://x.example/",
                    "body": {"sampling_fraction": 1.0, "referrer": "",
                             "server_ip": "", "protocol": "h2", "method": "GET",
                             "request_headers": {}, "response_headers": {},
                             "status_code": 0, "elapsed_time": 1,
                             "phase": "connection", "type": "tcp.refused"}}))]).encode()
                connection.request("POST", "/up", body=payload,
                                   headers={"Content-Type": REPORT_MEDIA_TYPE})
                assert connection.getresponse().status == 200
                connection.close()

                process.send_signal(signal.SIGINT)
                process.wait(timeout=10)
                assert process.returncode == 0
                assert len(log.read_text().splitlines()) == 1
                # perfbench/httpload.py parses this line for the record count.
                assert "collector stopped; 1 records" in process.stdout.read()
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()

    @pytest.mark.parametrize("signum, start", [
        (signal.SIGTERM, []),
        # A shell's background job starts with SIGINT ignored, and exec keeps that.
        (signal.SIGINT, ["-c", "import os, signal, sys; "
                               "signal.signal(signal.SIGINT, signal.SIG_IGN); "
                               "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"]),
    ], ids=["sigterm", "sigint-inherited-ignored"])
    def test_stops_cleanly_on_signal(self, tmp_path, signum, start):
        config = tmp_path / "collector.json"
        config.write_text(json.dumps({"listen": "127.0.0.1:0"}))
        with subprocess.Popen(
                [sys.executable, *start, "-m", "nellab.cli", "collect",
                 "--config", str(config)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as process:
            try:
                assert "collector listening on" in process.stdout.readline()
                process.send_signal(signum)
                out, err = process.communicate(timeout=10)
                assert (process.returncode, err) == (0, "")
                assert "collector stopped; 0 records" in out
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()


class TestReadOnlyInvariant:
    def test_audit_and_scenario_never_listen(self, tmp_path, monkeypatch):
        """Only `collect` may bind a listening socket."""
        bound = []
        real_listen = socket.socket.listen

        def spying_listen(self, *args):
            bound.append(self.getsockname())
            return real_listen(self, *args)

        monkeypatch.setattr(socket.socket, "listen", spying_listen)
        out = tmp_path / "t.json"
        main(["scenario", "fig2_chain", "--out", str(out)])
        path = tmp_path / "headers.txt"
        path.write_text('NEL: {"max_age":0}\n')
        main(["audit", "--headers-file", str(path)])
        assert bound == []
