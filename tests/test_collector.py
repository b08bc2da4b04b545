"""Collector core: minimization, IP handling, the log, the sink, retention."""

import errno
import ipaddress
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nellab.collector import (
    Collector,
    CollectorConfig,
    REDACTED,
    RejectError,
    StoredRecord,
    _purge_log,
    minimize,
    persisted_ip,
)
from nellab.headers import (
    NelReport,
    ReportBody,
    parse_nel_header,
    parse_report_to_header,
    serialize_report_batch,
)
from nellab.server import PURGE_INTERVAL_MS, make_server
from nellab.sim import ConfigError, collector_from_dict, collector_to_dict


def fig1_nel_report(fig1_report) -> NelReport:
    return NelReport(age=fig1_report["age"], url=fig1_report["url"],
                     body=ReportBody(**fig1_report["body"]))


def batch(*reports) -> bytes:
    return serialize_report_batch(list(reports))


def test_stored_record_line_text():
    body = ReportBody(sampling_fraction=1.0, referrer="https://r.example/",
                      server_ip="192.0.2.1", protocol="http/1.1", method="GET",
                      request_headers={}, response_headers={"ETag": "x"},
                      status_code=200, elapsed_time=7, phase="application", type="ok")
    record = StoredRecord(received_at=5, report=NelReport(
        age=3, url="https://a.example/p", body=body), client_ip="203.0.113.0",
        user_agent="UA/1.0")
    assert record.to_line() == (
        '{"received_at":5,"report":{"age":3,"type":"network-error",'
        '"url":"https://a.example/p","body":{"sampling_fraction":1.0,'
        '"referrer":"https://r.example/","server_ip":"192.0.2.1",'
        '"protocol":"http/1.1","method":"GET","request_headers":{},'
        '"response_headers":{"ETag":"x"},"status_code":200,"elapsed_time":7,'
        '"phase":"application","type":"ok"}},"client_ip":"203.0.113.0",'
        '"user_agent":"UA/1.0"}')


class TestMinimize:
    def test_idempotent_on_example_report(self, fig1_report):
        config = CollectorConfig()
        once = minimize(fig1_nel_report(fig1_report), config)
        twice = minimize(once, config)
        assert once == twice

    def test_strips_query_and_fragment(self, fig1_report):
        report = fig1_nel_report(fig1_report)
        report.url = "https://a.example/p?user=alice#s"
        report.body.referrer = "https://r.example/q?tok=1"
        minimized = minimize(report, CollectorConfig())
        assert minimized.url == "https://a.example/p"
        assert minimized.body.referrer == "https://r.example/q"

    def test_drops_captured_headers(self, fig1_report):
        report = fig1_nel_report(fig1_report)
        report.body.request_headers = {"Cookie": "id=1"}
        report.body.response_headers = {"ETag": "x"}
        minimized = minimize(report, CollectorConfig())
        assert minimized.body.request_headers == {}
        assert minimized.body.response_headers == {}

    def test_all_off_is_identity(self, fig1_report):
        report = fig1_nel_report(fig1_report)
        report.url = "https://a.example/p?user=alice"
        report.body.request_headers = {"Cookie": "id=1"}
        config = CollectorConfig(strip_url_query=False,
                                 drop_captured_headers=False)
        assert minimize(report, config) == report

    def test_does_not_mutate_input(self, fig1_report):
        report = fig1_nel_report(fig1_report)
        report.url = "https://a.example/p?user=alice"
        minimize(report, CollectorConfig())
        assert report.url == "https://a.example/p?user=alice"


class TestPersistedIp:
    def test_volatile_redacts(self):
        assert persisted_ip("203.0.113.77", "volatile") == REDACTED

    def test_truncate_v4_matches_masking_oracle(self):
        # Oracle: mask to /24 via the ipaddress module, independently.
        for ip in ("203.0.113.77", "10.1.2.3", "198.51.100.255"):
            oracle = str(ipaddress.ip_network(f"{ip}/24", strict=False)
                         .network_address)
            assert persisted_ip(ip, "truncate") == oracle
        assert persisted_ip("203.0.113.77", "truncate") == "203.0.113.0"

    def test_truncate_v6_keeps_top_48_bits(self):
        oracle = str(ipaddress.ip_network("2001:DB8:0:0:0:0:0:42/48",
                                          strict=False).network_address)
        assert persisted_ip("2001:DB8:0:0:0:0:0:42", "truncate") == oracle == \
            "2001:db8::"

    def test_full_passthrough(self):
        assert persisted_ip("203.0.113.77", "full") == "203.0.113.77"

    def test_unparseable_redacted_in_truncate_mode(self):
        assert persisted_ip("not-an-ip", "truncate") == REDACTED

    def test_unknown_mode_redacts(self):
        assert persisted_ip("203.0.113.7", "hash") == REDACTED


class TestIngest:
    def test_fig1_batch_stored_with_clean_url(self, fig1_report):
        batches = []
        collector = Collector(CollectorConfig(), batches.append)
        count = collector.ingest(batch(fig1_nel_report(fig1_report)),
                                 "203.0.113.77", "UA/1.0", now=5_000)
        assert count == 1
        [[record]] = batches
        assert record.report.url == "https://www.example.com/"
        assert record.received_at == 5_000

    def test_truncate_mode_stores_masked_ip(self, fig1_report):
        batches = []
        collector = Collector(CollectorConfig(ip_mode="truncate"), batches.append)
        collector.ingest(batch(fig1_nel_report(fig1_report)),
                         "203.0.113.77", "UA/1.0", now=0)
        assert batches[0][0].client_ip == "203.0.113.0"

    def test_volatile_mode_stores_no_ip(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        batches = []
        collector = Collector(CollectorConfig(ip_mode="volatile",
                                              log_path=str(log)), batches.append)
        collector.ingest(batch(fig1_nel_report(fig1_report)),
                         "203.0.113.77", "UA/1.0", now=0)
        [[record]] = batches
        assert record.client_ip == REDACTED
        assert "203.0.113.77" not in log.read_text()
        assert "203.0.113.77" not in record.to_line()

    def test_malformed_body_rejected_and_nothing_appended(self, tmp_path):
        log = tmp_path / "records.ndjson"
        batches = []
        collector = Collector(CollectorConfig(log_path=str(log)), batches.append)
        with pytest.raises(RejectError) as excinfo:
            collector.ingest(b'[{"age": 0', "203.0.113.1", "UA", now=0)
        assert excinfo.value.status == 400
        assert batches == []
        assert collector.stored == 0
        assert log.read_bytes() == b""

    def test_url_the_url_parser_refuses_rejected_by_element(self, fig1_report):
        batches = []
        collector = Collector(CollectorConfig(), batches.append)
        refused = fig1_nel_report(fig1_report)
        refused.body.referrer = "https://[x/"
        with pytest.raises(RejectError) as excinfo:
            collector.ingest(batch(fig1_nel_report(fig1_report), refused),
                             "203.0.113.1", "UA", now=0)
        assert excinfo.value.status == 400
        assert str(excinfo.value).startswith("element 1: ")
        assert batches == []
        assert collector.stored == 0

    def test_oversized_body_rejected(self):
        batches = []
        collector = Collector(CollectorConfig(), batches.append)
        with pytest.raises(RejectError) as excinfo:
            collector.ingest(b"[" + b" " * (1024 * 1024) + b"]", "ip", "UA", now=0)
        assert excinfo.value.status == 413
        assert batches == []
        assert collector.stored == 0

    def test_ndjson_lines_appended_in_order(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        batches = []
        collector = Collector(CollectorConfig(log_path=str(log)), batches.append)
        report = fig1_nel_report(fig1_report)
        collector.ingest(batch(report), "203.0.113.1", "UA", now=1)
        collector.ingest(batch(report, report), "203.0.113.1", "UA", now=2)
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["received_at"] for line in lines] == [1, 2, 2]
        # The sink gets each batch once, in log order.
        assert [len(records) for records in batches] == [1, 2]
        assert [record.to_line() for records in batches for record in records] == lines
        assert collector.stored == 3

    def test_persisted_lines_carry_no_query_strings(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(log_path=str(log)))
        report = fig1_nel_report(fig1_report)
        report.url = "https://a.example/p?user=alice"
        report.body.referrer = "https://r.example/?tok=1"
        collector.ingest(batch(report), "ip", "UA", now=0)
        for line in log.read_text().splitlines():
            record = json.loads(line)
            assert "?" not in record["report"]["url"]
            assert "?" not in record["report"]["body"]["referrer"]


class TestLog:
    def test_torn_last_line_stays_its_own_line(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        report = fig1_nel_report(fig1_report)
        Collector(CollectorConfig(log_path=str(log))).ingest(
            batch(report), "ip", "UA", now=1)
        with open(log, "ab") as handle:
            handle.write(b'{"received_at":2,"rep')  # an append torn by a crash
        Collector(CollectorConfig(log_path=str(log))).ingest(
            batch(report), "ip", "UA", now=3)
        lines = log.read_text().splitlines()
        assert lines[1] == '{"received_at":2,"rep'
        assert [json.loads(line)["received_at"]
                for line in (lines[0], lines[2])] == [1, 3]
        assert len(lines) == 3

    def test_failed_append_is_ended_before_the_next(self, fig1_report, tmp_path,
                                                    monkeypatch):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(log_path=str(log)))
        body = batch(fig1_nel_report(fig1_report))
        collector.ingest(body, "ip", "UA", now=1)
        real_open = open

        class HalfWrite:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return HalfWrite(handle) if mode == "a" else handle

        monkeypatch.setattr("nellab.collector.open", failing_open, raising=False)
        with pytest.raises(OSError):
            collector.ingest(body, "ip", "UA", now=2)
        monkeypatch.undo()
        collector.ingest(body, "ip", "UA", now=3)
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith('{"received_at":2,')
        assert [json.loads(line)["received_at"]
                for line in (lines[0], lines[2])] == [1, 3]
        assert collector.stored == 2

    def test_opening_leaves_a_whole_log_alone(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        Collector(CollectorConfig(log_path=str(log)))
        assert log.read_bytes() == b""
        Collector(CollectorConfig(log_path=str(log))).ingest(
            batch(fig1_nel_report(fig1_report)), "ip", "UA", now=1)
        before = log.read_bytes()
        Collector(CollectorConfig(log_path=str(log)))
        assert log.read_bytes() == before

    def test_logged_ingests_keep_memory_bounded(self, fig1_report, tmp_path):
        collector = Collector(CollectorConfig(
            log_path=str(tmp_path / "records.ndjson")))
        body = batch(fig1_nel_report(fig1_report))
        for now in range(200):
            collector.ingest(body, "203.0.113.1", "UA", now)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for now in range(200, 2_200):
                collector.ingest(body, "203.0.113.1", "UA", now)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 100_000


class TestRetention:
    def test_old_record_purged(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=24 * 3600,
                                              log_path=str(log)))
        collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now=0)
        assert collector.purge_expired(now=25 * 3600 * 1000) == 1
        assert log.read_bytes() == b""

    def test_boundary_exactly_retention_is_retained(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=24 * 3600,
                                              log_path=str(log)))
        collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now=0)
        assert collector.purge_expired(now=24 * 3600 * 1000) == 0
        assert len(log.read_text().splitlines()) == 1

    def test_infinite_retention_purges_nothing(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=None,
                                              log_path=str(log)))
        collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now=0)
        assert collector.purge_expired(now=10**15) == 0
        assert len(log.read_text().splitlines()) == 1

    def test_without_a_log_there_is_nothing_to_purge(self, fig1_report):
        collector = Collector(CollectorConfig(retention_seconds=10))
        collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now=0)
        assert collector.purge_expired(now=10**15) == 0

    def test_purge_rewrites_log_file(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=10,
                                              log_path=str(log)))
        report = fig1_nel_report(fig1_report)
        collector.ingest(batch(report), "ip", "UA", now=0)
        collector.ingest(batch(report), "ip", "UA", now=20_000)
        collector.purge_expired(now=25_000)
        lines = log.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["received_at"] == 20_000

    def test_failed_rewrite_keeps_the_whole_log(self, fig1_report, tmp_path,
                                                monkeypatch):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=10,
                                              log_path=str(log)))
        report = fig1_nel_report(fig1_report)
        for now in (0, 20_000, 21_000, 22_000):
            collector.ingest(batch(report), "ip", "UA", now=now)
        before = log.read_text()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr("nellab.collector.os.fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            collector.purge_expired(now=25_000)
        assert log.read_text() == before
        assert [path.name for path in tmp_path.iterdir()] == [log.name]

    def test_purge_keeps_unexpired_records_of_an_earlier_run(self, fig1_report,
                                                             tmp_path):
        log = tmp_path / "records.ndjson"
        config = CollectorConfig(retention_seconds=10, log_path=str(log))
        report = fig1_nel_report(fig1_report)
        first = Collector(config)
        report.url = "https://old.example/"
        first.ingest(batch(report), "ip", "UA", now=0)
        report.url = "https://kept.example/"
        first.ingest(batch(report), "ip", "UA", now=100_000)

        restarted = Collector(config)
        report.url = "https://new.example/"
        restarted.ingest(batch(report), "ip", "UA", now=104_000)
        assert restarted.purge_expired(now=105_000) == 1
        assert [json.loads(line)["report"]["url"]
                for line in log.read_text().splitlines()] == [
            "https://kept.example/", "https://new.example/"]

    def test_purge_after_a_clock_step_keeps_logged_records(self, fig1_report,
                                                          tmp_path):
        # The restarted process's clock was stepped back, so a record in its
        # memory expires before one an earlier run logged.
        log = tmp_path / "records.ndjson"
        config = CollectorConfig(retention_seconds=10, log_path=str(log))
        report = fig1_nel_report(fig1_report)
        report.url = "https://kept.example/"
        Collector(config).ingest(batch(report), "ip", "UA", now=100_000)

        restarted = Collector(config)
        report.url = "https://stepped.example/"
        restarted.ingest(batch(report), "ip", "UA", now=94_000)
        report.url = "https://new.example/"
        restarted.ingest(batch(report), "ip", "UA", now=104_000)
        assert restarted.purge_expired(now=105_000) == 1
        assert [json.loads(line)["report"]["url"]
                for line in log.read_text().splitlines()] == [
            "https://kept.example/", "https://new.example/"]

    def test_purge_keeps_lines_it_cannot_date(self, fig1_report, tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=10,
                                              log_path=str(log)))
        collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now=0)
        with open(log, "ab") as handle:
            handle.write(b'{"received_at": 0, "rep\n\xff\xfe\n')
        assert collector.purge_expired(now=20_000) == 1
        assert log.read_bytes() == b'{"received_at": 0, "rep\n\xff\xfe\n'

    def test_purge_without_expired_lines_leaves_the_log_alone(self, fig1_report,
                                                              tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=10,
                                              log_path=str(log)))
        collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now=0)
        before = log.stat()
        assert collector.purge_expired(now=10_000) == 0
        assert log.stat().st_ino == before.st_ino
        assert [path.name for path in tmp_path.iterdir()] == [log.name]


    def test_purge_with_nothing_expired_writes_nothing(self, fig1_report,
                                                        tmp_path, monkeypatch):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(retention_seconds=10,
                                              log_path=str(log)))
        for now in range(0, 5_000, 1_000):
            collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now)
        modes = []
        real_open = open

        def watched_open(file, mode="r", *args, **kwargs):
            modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("called on a purge that drops nothing")

        monkeypatch.setattr("nellab.collector.open", watched_open, raising=False)
        monkeypatch.setattr("nellab.collector.os.fsync", refuse)
        # Compact lines whose leading timestamp is recent are not parsed.
        monkeypatch.setattr("nellab.collector.json.loads", refuse)
        assert collector.purge_expired(now=10_000) == 0
        assert modes == ["rb"]


def reference_purge_log(log_path: str, oldest: int) -> int:
    """The purge that parses every line and always writes a copy."""
    temp_path = log_path + ".tmp"
    dropped = 0
    try:
        with open(log_path, "rb") as log, open(temp_path, "wb") as temp:
            for line in log:
                try:
                    expired = json.loads(line)["received_at"] < oldest
                except (ValueError, KeyError, TypeError):
                    expired = False
                if expired:
                    dropped += 1
                else:
                    temp.write(line)
            if dropped:
                temp.flush()
                os.fsync(temp.fileno())
        if dropped:
            os.replace(temp_path, log_path)
    finally:
        Path(temp_path).unlink(missing_ok=True)
    return dropped


def record_line(at: int, url: str) -> bytes:
    body = ReportBody(sampling_fraction=1.0, referrer="", server_ip="192.0.2.1",
                      protocol="h2", method="GET", request_headers={},
                      response_headers={}, status_code=200, elapsed_time=0,
                      phase="application", type="ok")
    return StoredRecord(received_at=at, report=NelReport(age=0, url=url, body=body),
                        client_ip="ip", user_agent="UA").to_line().encode()


stamps = st.integers(-1, 4)
records = st.builds(record_line, stamps,
                    st.text(alphabet=st.sampled_from('a"\\é_,:{}'), max_size=6))


@st.composite
def altered_records(draw) -> bytes:
    line = draw(records)
    kind = draw(st.sampled_from(["spaced", "torn", "not utf-8"]))
    if kind == "spaced":
        return json.dumps(json.loads(line)).encode()
    cut = draw(st.integers(0, len(line)))
    if kind == "torn":
        return line[:cut]
    return line[:cut] + b"\xff" + line[cut:]


odd_lines = st.one_of(
    st.builds(lambda a, b: b'{"received_at":%d,"received_at":%d}' % (a, b),
              stamps, stamps),
    st.builds(lambda a, b: b'{"received_at":%d,"received\\u005fat":%d}' % (a, b),
              stamps, stamps),
    st.builds(lambda a, b: b'{"received_at":%d,"x":{"received_at":%d}}' % (a, b),
              stamps, stamps),
    st.sampled_from([b'{"received_at":"9","x":1}', b'{"received_at":9.5,"x":1}',
                     b'{"received_at":true,"x":1}', b'{"received_at":null,"x":1}',
                     b'{"received_at":09,"x":1}', b'{"received_at":-1,"x":1}',
                     b'[{"received_at":1}]', b'{"x":1}', b'']),
    st.binary(max_size=12),
)


class TestPurgeShortcut:
    # Each example writes and fsyncs files, whose time depends on the disk.
    @settings(deadline=None)
    @example(lines=[record_line(0, "a"), record_line(1, "a")], end=b"\n", oldest=1)
    @example(lines=[b'{"received_at":3,"received_at":0}',
                    b'{"received_at":3,"received\\u005fat":0}'], end=b"", oldest=1)
    @given(lines=st.lists(records | altered_records() | odd_lines, max_size=8),
           end=st.sampled_from([b"\n", b""]), oldest=stamps)
    def test_drops_what_parsing_every_line_drops(self, lines, end, oldest):
        document = b"\n".join(lines) + end
        with tempfile.TemporaryDirectory() as work:
            ours, reference = Path(work, "ours.ndjson"), Path(work, "reference.ndjson")
            ours.write_bytes(document)
            reference.write_bytes(document)
            assert _purge_log(str(ours), oldest) == reference_purge_log(
                str(reference), oldest)
            assert ours.read_bytes() == reference.read_bytes()
            assert sorted(path.name for path in Path(work).iterdir()) == [
                "ours.ndjson", "reference.ndjson"]


class TestServedRetention:
    @pytest.fixture
    def served(self, tmp_path):
        log = tmp_path / "records.ndjson"
        collector = Collector(CollectorConfig(listen="127.0.0.1:0", retention_seconds=10,
                                              log_path=str(log)))
        server = make_server(collector)
        clock = [0]
        server.clock = lambda: clock[0]
        yield collector, server, clock, log
        server.server_close()

    def test_expired_records_purged_between_requests(self, served, fig1_report):
        collector, server, clock, log = served
        collector.ingest(batch(fig1_nel_report(fig1_report)), "ip", "UA", now=0)
        clock[0] = 10_001
        server.service_actions()
        assert log.read_bytes() == b""

    def test_purges_at_most_once_per_interval(self, served, fig1_report):
        collector, server, clock, log = served
        report = fig1_nel_report(fig1_report)
        server.service_actions()  # purges at 0, next purge due at the interval
        collector.ingest(batch(report), "ip", "UA", now=0)
        clock[0] = PURGE_INTERVAL_MS - 1
        server.service_actions()
        assert len(log.read_text().splitlines()) == 1
        clock[0] = PURGE_INTERVAL_MS
        server.service_actions()
        assert log.read_bytes() == b""


class TestConfig:
    def test_emit_headers_parse_back(self):
        config = collector_from_dict({
            "emit_nel_headers": {
                "nel": {"report_to": "meta", "max_age": 3600},
                "report_to": {"group": "meta", "max_age": 3600,
                              "endpoints": [{"url": "https://cprime.example/up"}]},
            },
        })
        collector = Collector(config)
        headers = collector.response_headers()
        assert parse_nel_header(headers["NEL"]).report_to == "meta"
        assert parse_report_to_header(headers["Report-To"])[0].name == "meta"

    def test_no_emit_headers_by_default(self):
        assert Collector(CollectorConfig()).response_headers() == {}

    def test_round_trip(self):
        config = collector_from_dict({
            "listen": "127.0.0.1:9999",
            "ip_mode": "truncate",
            "strip_url_query": False,
            "retention": 3600,
            "emit_nel_headers": {
                "nel": {"report_to": "m", "max_age": 60},
                "report_to": [{"group": "m", "max_age": 60,
                               "endpoints": [{"url": "https://x.example/u"}]}],
            },
            "log_path": "/tmp/x.ndjson",
        })
        assert collector_from_dict(collector_to_dict(config)) == config

    def test_bad_retention_rejected(self):
        with pytest.raises(ConfigError, match="collector: retention must be seconds"):
            collector_from_dict({"retention": "forever"})

    def test_removal_policy_not_servable(self):
        with pytest.raises(ConfigError, match="must carry a storable policy"):
            collector_from_dict({
                "emit_nel_headers": {
                    "nel": {"report_to": "m", "max_age": 0},
                    "report_to": [{"group": "m", "max_age": 60,
                                   "endpoints": [{"url": "https://x.example/u"}]}],
                },
            })
