"""Runs ``nellab.cli.main`` in a child process for the ``http_ingest`` workload.

Usage: collector_child.py --summary PATH [--spans PATH] collect ARGS...

After the CLI returns (SIGINT stops ``collect``), writes a JSON summary
with the exit code and the process's peak RSS. With ``--spans`` the
program's public functions are traced for the whole life of the collector
and the spans are written there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from nellab.cli import main as cli_main

    code = cli_main(args.cli_args)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(args.spans))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.summary).write_text(json.dumps({"exit": code,
                                              "peak_rss_mb": peak_kib / 1024}))
    return code


if __name__ == "__main__":
    sys.exit(main())
