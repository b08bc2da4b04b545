"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import pytest

import httpload
import run
import scenarios
import tracer
from nellab import policy_store, sim
from nellab.collector import Collector, CollectorConfig


@pytest.mark.parametrize("build", [scenarios.dead_collector, scenarios.collector_chain])
def test_generator_is_deterministic_and_round_trips(build):
    doc = build(5)
    assert build(5) == doc
    assert build(6) != doc
    config = sim.config_from_dict(doc)
    sim.validate_config(config)
    assert sim.config_to_dict(config) == doc


def test_request_pool_is_seeded_with_a_fixed_batch_mix():
    pool = httpload.request_pool(3)
    assert [r.data for r in httpload.request_pool(3)] == [r.data for r in pool]
    other = httpload.request_pool(4)
    assert [r.data for r in other] != [r.data for r in pool]
    assert (sorted(len(r.stored) for r in other)
            == sorted(len(r.stored) for r in pool))
    assert sum(r.malformed for r in pool) == httpload.MALFORMED
    assert not any(b"127.0.0.1" in r.data.split(b"\r\n\r\n", 1)[1] for r in pool)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "child", 1.0, 4.0),
        (3, 1, "leaf", 2.0, 3.0),
        (2, 0, "child", 5.0, 6.0),
        (5, 0, tracer.HOOK_SPAN, 6.0, 6.5),  # hook after the second child
        (4, None, "root", 20.0, 21.0),
    ]
    assert tracer.self_times(spans) == {
        "root": (2, (10.0 - 3.0 - 1.0 - 0.5) + 1.0),
        "child": (2, (3.0 - 1.0) + 1.0),
        "leaf": (1, 1.0),
        tracer.HOOK_SPAN: (1, 0.5),
    }
    times = {"leaf": (1, 2.0)}
    tracer.add_self_times(times, spans)
    assert times["leaf"] == (2, 3.0) and times["child"] == (2, 3.0)


@pytest.mark.parametrize("malformed,status,headers_ok,ok", [
    (True, 400, False, True),     # malformed batch refused: success
    (True, 200, True, False),     # malformed batch accepted: failure
    (False, 200, True, True),
    (False, 200, False, False),   # accepted without the configured headers
    (False, 400, False, False),
    (False, None, False, False),  # dropped connection
    (True, None, False, False),
])
def test_failed_request_accounting(malformed, status, headers_ok, ok):
    assert httpload.request_ok(malformed, status, headers_ok) is ok


def test_tracer_wraps_every_reference_and_restores_them():
    original = policy_store.parse_nel_header
    t = tracer.Tracer()
    t.install()
    try:
        assert policy_store.parse_nel_header is not original
        store = policy_store.PolicyStore()
        store.process_policy_headers(
            "a.example", True, '{"report_to":"g","max_age":10}',
            '{"group":"g","max_age":10,"endpoints":[{"url":"https://c.example/up"}]}', 0)
    finally:
        t.uninstall()
    assert policy_store.parse_nel_header is original
    names = [span[2] for span in t.spans]
    assert names == ["headers.parse_nel_header", "headers.parse_report_to_header",
                     "policy_store.process_policy_headers", tracer.HOOK_SPAN]
    assert t.spans[0][1] == t.spans[2][0]  # parsed inside the store call
    assert t.counters["policy_store.writes"] == 1


def test_hook_time_is_kept_out_of_the_callers_self_time():
    request = next(r for r in httpload.request_pool(0) if len(r.stored) == 1)
    body = request.data.split(b"\r\n\r\n", 1)[1]
    t = tracer.Tracer()
    t.install()
    try:
        assert Collector(CollectorConfig()).ingest(body, "198.18.0.1", "ua", 0) == 1
    finally:
        t.uninstall()
    spans = {span[2]: span for span in t.spans}
    batch, ingest = spans["headers.parse_report_batch"], spans["collector.ingest"]
    hooks = [span for span in t.spans if span[2] == tracer.HOOK_SPAN]
    # parse_report_batch's hook is a child of ingest, from the parse's end;
    # ingest's own hook runs at the top level
    assert [(h[1], h[3]) for h in hooks] == [(ingest[0], batch[4]), (None, ingest[4])]
    assert batch[1] == ingest[0]
    own = tracer.self_times(t.spans)["collector.ingest"][1]
    children = sum(s[4] - s[3] for s in t.spans if s[1] == ingest[0])
    assert own == pytest.approx((ingest[4] - ingest[3]) - children)
    assert t.counters["headers.parse_report_batch.reports"] == 1


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "headers.renamed",
                        ("nellab.headers", "parse_renamed_header"))
    t = tracer.Tracer()
    with pytest.raises(tracer.TraceSetupError):
        t.install()
    assert policy_store.parse_nel_header.__module__ == "nellab.headers"
    assert not hasattr(policy_store.parse_nel_header, "__wrapped__")


def test_a_failed_output_check_counts_as_a_failed_operation(monkeypatch):
    monkeypatch.setattr(run, "_check_trace", lambda doc, data: ["events out of order"])
    outcome = run.sim_workload("sim_dead_collector", 1, 0.0, trace=False)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, False)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([7.0], 99) == 7.0


def test_recorded_digests_match_seed_zero():
    import hashlib
    import json

    recorded = json.loads((run.HERE / "digests.json").read_text())
    for workload, build in (("sim_dead_collector", scenarios.dead_collector),
                            ("sim_collector_chain", scenarios.collector_chain)):
        data = sim.run_scenario(sim.config_from_dict(build(run.DEFAULT_SEED))).to_json_bytes()
        assert hashlib.sha256(data).hexdigest() == recorded[workload]
