"""Command-line entry point: run scenarios, serve a collector, audit headers.

Exit codes: 0 success, 2 usage or config problems, 3 network failures
(with the failing phase named, mirroring the NEL phase taxonomy).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import replace
from pathlib import Path

from .audit import (
    AuditNetworkError,
    DEFAULT_LONG_MAX_AGE_DAYS,
    analyze_headers,
    audit_fleet,
    audit_url,
    parse_headers_file,
    render_findings,
)
from .collector import Collector, CollectorConfig
from .headers import check_types, decode_json
from .server import make_server
from .sim import ConfigError, builtin_scenarios, collector_from_dict, config_from_dict, \
    run_scenario

SEED_ENV_VAR = "NEL_LAB_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nel-lab",
        description="Network Error Logging lab: scenarios, collector, audit.")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="run a builtin or file scenario")
    scenario.add_argument("target", help="builtin scenario name or config path")
    scenario.add_argument("--seed", type=int, default=None,
                          help=f"seed override (falls back to ${SEED_ENV_VAR})")
    scenario.add_argument("--out", default=None,
                          help="trace output path (default <name>.trace.json)")

    collect = sub.add_parser("collect", help="run the collector HTTP service")
    collect.add_argument("--config", required=True, help="collector config JSON")
    collect.add_argument("--listen", default=None,
                         help="override the config's listen address")
    collect.add_argument("--ip-mode", default=None,
                         help="override the config's ip_mode")
    collect.add_argument("--log-path", default=None,
                         help="override the config's persistence file")

    audit = sub.add_parser("audit", help="audit response headers for NEL risks")
    audit.add_argument("target", nargs="?", help="URL to fetch")
    audit.add_argument("--headers-file", default=None,
                       help="audit a file of raw response headers instead")
    audit.add_argument("--fleet", default=None,
                       help="file of target URLs, one per line")
    audit.add_argument("--json", action="store_true", dest="as_json",
                       help="emit JSON instead of human text")
    audit.add_argument("--long-max-age-days", type=int,
                       default=DEFAULT_LONG_MAX_AGE_DAYS,
                       help="LONG_MAX_AGE threshold in days")
    audit.add_argument("--host", default=None,
                       help="host label for --headers-file results")
    return parser


def _resolve_seed(cli_seed: int | None, config_seed: int) -> int | None:
    """Precedence: --seed, then $NEL_LAB_SEED, then the config's own seed."""
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"error: ${SEED_ENV_VAR} must be an integer, got {env!r}",
                  file=sys.stderr)
            return None
    return config_seed


def cmd_scenario(args: argparse.Namespace) -> int:
    builtins = builtin_scenarios()
    if args.target in builtins:
        config = builtins[args.target]
    elif Path(args.target).is_file():
        try:
            config = config_from_dict(decode_json(Path(args.target).read_text()))
        except (OSError, ValueError) as exc:
            print(f"error: bad scenario config {args.target}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        names = ", ".join(sorted(builtins))
        print(f"error: unknown scenario {args.target!r}; builtins: {names}",
              file=sys.stderr)
        return 2

    seed = _resolve_seed(args.seed, config.seed)
    if seed is None:
        return 2
    config.seed = seed

    try:
        trace = run_scenario(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out) if args.out else Path(f"{config.name}.trace.json")
    events = len(trace.events)  # before the write, which drops the events
    out.write_bytes(trace.to_json_bytes())
    print(f"wrote {out} ({events} events, seed {trace.seed})")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    overrides = {name: value for name in ("listen", "ip_mode", "log_path")
                 if (value := getattr(args, name)) is not None}
    try:
        config = collector_from_dict(decode_json(Path(args.config).read_text()))
        config = replace(config, **overrides)
        check_types(config, CollectorConfig, "collector")
    except (OSError, ValueError) as exc:
        print(f"error: bad collector config {args.config}: {exc}", file=sys.stderr)
        return 2

    try:
        collector = Collector(config)
    except OSError as exc:
        print(f"error: cannot open log {config.log_path}: {exc}", file=sys.stderr)
        return 2
    try:
        server = make_server(collector)
    except (OSError, ValueError) as exc:
        print(f"error: cannot bind {config.listen!r}: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    # SIGTERM, and SIGINT even when this process inherited it ignored, stop
    # the server as Ctrl-C does, from before the banner announces it; the
    # previous handlers come back afterwards.
    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, signal.default_int_handler)
        print(f"collector listening on {host}:{port} ip_mode={config.ip_mode} "
              f"log={config.log_path or '-'}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
    print(f"collector stopped; {collector.stored} records", flush=True)
    return 0


def _emit_audit(results: list[dict] | dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(results, indent=2, sort_keys=True))
        return
    for result in results if isinstance(results, list) else [results]:
        print(render_findings(result))


def cmd_audit(args: argparse.Namespace) -> int:
    if args.fleet is not None:
        try:
            text = Path(args.fleet).read_text()
        except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8
            print(f"error: cannot read fleet file {args.fleet}: {exc}", file=sys.stderr)
            return 2
        targets = [line.strip() for line in text.splitlines()
                   if line.strip() and not line.strip().startswith("#")]
        results = audit_fleet(targets, long_max_age_days=args.long_max_age_days)
        _emit_audit(results, args.as_json)
        return 0

    if args.headers_file is not None:
        path = Path(args.headers_file)
        try:
            text = path.read_text()
        except (OSError, ValueError) as exc:
            print(f"error: cannot read headers file {path}: {exc}", file=sys.stderr)
            return 2
        headers = parse_headers_file(text)
        host = args.host or path.name
        findings = analyze_headers(headers, host=host,
                                   long_max_age_days=args.long_max_age_days)
        result = {"target": str(path), "host": host,
                  "findings": [f.to_dict() for f in findings]}
        _emit_audit(result, args.as_json)
        return 0

    if not args.target:
        print("error: audit needs a URL, --headers-file, or --fleet",
              file=sys.stderr)
        return 2
    try:
        result = audit_url(args.target, long_max_age_days=args.long_max_age_days)
    except AuditNetworkError as exc:
        print(f"error: network failure during {exc.phase}: {exc}", file=sys.stderr)
        return 3
    _emit_audit(result, args.as_json)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "scenario":
        return cmd_scenario(args)
    if args.command == "collect":
        return cmd_collect(args)
    return cmd_audit(args)


if __name__ == "__main__":
    sys.exit(main())
