"""nel-lab benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim_dead_collector --seed 0 --seconds 20
    python3 perfbench/run.py --workload http_ingest --seed 3 --trace 1
    python3 perfbench/run.py --seed 0        # every workload in turn

Prints one ``workload metric = value unit`` line per metric and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``run_s``, ``peak_rss_mb``, and for ``http_ingest`` also
``reports_per_s``, ``p50_ms`` and ``p99_ms``); with ``--trace 1`` they are
the per-layer ones from a traced run. Exits 1 when an output check fails and
2 when the program's sources are missing. See ``perfbench/README.md`` for
why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sim_dead_collector", "sim_collector_chain", "http_ingest")
DEFAULT_SEED = 0



@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


# -- simulator workloads ---------------------------------------------------


def _check_trace(doc: dict, data: bytes) -> list[str]:
    """Semantic checks that hold for every seed, digest aside."""
    document = json.loads(data)
    events = document["events"]
    problems = []
    if document["name"] != doc["name"] or document["seed"] != doc["seed"]:
        problems.append("trace names the wrong scenario or seed")
    if any(a["at"] > b["at"] for a, b in zip(events, events[1:])):
        problems.append("trace events are out of time order")
    delivered = sum(e["reports"] for e in events
                    if e["kind"] == "delivery_attempt" and e["result"] == "delivered")
    stored = [e for e in events if e["kind"] == "report_stored"]
    if delivered != len(stored):
        problems.append(f"{delivered} reports delivered but {len(stored)} stored")
    for event in stored:
        stripped = doc["collectors"][event["collector"]]["strip_url_query"]
        if stripped and ("?" in event["url"] or "#" in event["url"]):
            problems.append(f"{event['collector']} stored an unstripped URL")
            break
    if not stored:
        problems.append("no report was stored")
    return problems


def sim_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import scenarios
    from nellab import sim

    build = {"sim_dead_collector": scenarios.dead_collector,
             "sim_collector_chain": scenarios.collector_chain}[workload]
    doc = build(seed)
    outcome = Outcome()
    config = sim.config_from_dict(doc)
    if sim.config_to_dict(config) != doc:
        outcome.problems.append("scenario document does not round-trip")
    try:
        sim.validate_config(config)
    except sim.ConfigError as exc:
        outcome.problems.append(f"scenario document is invalid: {exc}")
    if outcome.problems:
        outcome.attempted = outcome.failed = 1
        return outcome

    recorded = json.loads((HERE / "digests.json").read_text())
    expected = recorded[workload] if seed == DEFAULT_SEED else None
    tracer = None
    if trace:
        from tracer import Tracer, add_self_times

        tracer = Tracer()
    setup, untraced, traced = [], [], []
    times, traced_bytes, traced_events, pending = {}, 0, 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        gc.collect()  # start every unit from the same heap, not the last one's garbage
        start = time.perf_counter()
        config = sim.config_from_dict(doc)
        setup.append(time.perf_counter() - start)
        outcome.attempted += 1
        if use_tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            result = sim.run_scenario(config)
            data = result.to_json_bytes()
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a failing run is counted, not fatal
            outcome.failed += 1
            outcome.problems.append(f"run_scenario raised {exc!r}")
            break
        finally:
            if use_tracer:
                tracer.uninstall()
        digest = hashlib.sha256(data).hexdigest()
        if outcome.attempted == 1:
            outcome.problems += _check_trace(doc, data)
            if outcome.problems:
                outcome.failed += 1
                break
            expected = expected or digest
        if digest != expected:
            outcome.failed += 1
            outcome.problems.append(f"trace digest {digest} != {expected}")
            break
        if use_tracer:
            traced.append(elapsed)
            add_self_times(times, tracer.spans)
            traced_bytes += len(data)
            traced_events += len(result.events)
            pending += tracer.pending_at_end()
        else:
            untraced.append(elapsed)
        del result, data
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    if outcome.problems:
        return outcome

    if tracer is None:
        outcome.metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracer import layer_metrics

        outcome.metrics = layer_metrics(
            times, tracer.counters, units=len(traced),
            queue_depth_max=tracer.queue_depth_max, pending_at_end=pending,
            trace_bytes=traced_bytes, events=traced_events,
            overhead_s=statistics.median(traced) - statistics.median(untraced))
        tracer.dump(_spans_path(workload, seed))
    return outcome


def _spans_path(workload: str, seed: int) -> Path:
    """Where a traced run leaves its spans."""
    OUT.mkdir(exist_ok=True)
    return OUT / f"{workload}-seed{seed}.spans.json"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- HTTP ingest workload ----------------------------------------------------


def http_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import httpload

    outcome = Outcome()
    pool = httpload.request_pool(seed)
    pool_reports = sum(len(r.stored) for r in pool)
    workdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            # In a traced run, untraced and traced rounds alternate.
            traced = trace and len(rounds) % 2 == 1
            try:
                result = httpload.run_round(ROOT, workdir, f"round{len(rounds)}", pool,
                                            seed, len(rounds), trace=traced)
            except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
                outcome.attempted += 1
                outcome.failed += 1
                outcome.problems.append(f"collector round failed: {exc!r}")
                return outcome
            rounds.append((traced, result))
            outcome.attempted += len(result.answers)
            # A failed log or exit check counts even when every answer was right.
            outcome.failed += max(result.failed, bool(result.problems))
            outcome.problems += result.problems
            if outcome.problems:
                return outcome
            enough = len(rounds) >= (2 if trace else httpload.MIN_ROUNDS)
            if enough and time.perf_counter() >= deadline:
                break

        plain = [r for t, r in rounds if not t]
        durations = [d for r in plain for d in r.pass_durations]
        if not trace:
            outcome.metrics = {
                "setup_s": (statistics.median(r.setup_s for r in plain), "s"),
                "run_s": (statistics.median(durations), "s"),
                "reports_per_s": (statistics.median(pool_reports / d for d in durations),
                                  "1/s"),
                # Each round sees about one full garbage collection of the
                # collector's records; the median over rounds keeps one
                # round's longer pause from deciding the tail.
                "p50_ms": (statistics.median(percentile(r.latencies_ms, 50)
                                             for r in plain), "ms"),
                "p99_ms": (statistics.median(percentile(r.latencies_ms, 99)
                                             for r in plain), "ms"),
                "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in plain), "MB"),
            }
            return outcome

        from tracer import add_self_times, layer_metrics, load_dump

        times, counters = {}, Counter()
        traced = [r for t, r in rounds if t]
        for r in traced:
            spans, more = load_dump(r.spans_path)
            add_self_times(times, spans)
            counters.update(more)
        traced_durations = [d for r in traced for d in r.pass_durations]
        outcome.metrics = layer_metrics(
            times, counters, units=len(traced), queue_depth_max=0,
            log_bytes=sum(r.log_bytes for r in traced),
            late_p99_ms=percentile([ms for r in plain for ms in r.lateness_ms], 99),
            overhead_s=(statistics.median(traced_durations)
                        - statistics.median(durations)))
        shutil.copy(traced[-1].spans_path, _spans_path(workload, seed))
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


RUNNERS = {
    "sim_dead_collector": sim_workload,
    "sim_collector_chain": sim_workload,
    "http_ingest": http_workload,
}


# -- command line ------------------------------------------------------------


def _result_line(outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    })


def _print_outcome(workload: str, outcome: Outcome) -> None:
    for problem in outcome.problems:
        print(f"{workload} CHECK FAILED: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"{workload} failed_ratio = {ratio:.6g} ({outcome.failed} of "
          f"{outcome.attempted} operations)")


def _run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    total = Outcome()
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            total.problems.append(f"{workload} printed no result")
            continue
        total.attempted += result["attempted"]
        total.failed += result["failed"]
        if not result["correct"]:
            total.problems.append(f"{workload} failed its output checks")
        for name, metric in result["metrics"].items():
            total.metrics[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    print(_result_line(total))
    return 0 if total.correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nellab" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return _run_all(args)

    outcome = RUNNERS[args.workload](args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    _print_outcome(args.workload, outcome)
    print(_result_line(outcome))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
