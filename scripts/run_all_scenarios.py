#!/usr/bin/env python3
"""Run every builtin scenario and summarize what each trace demonstrates.

Writes one trace file per scenario under ./traces/ and prints a compact
event summary, so the attack/mitigation narratives can be eyeballed
without reading JSON.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nellab.sim import builtin_scenarios, run_scenario  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="traces")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, config in builtin_scenarios().items():
        config.seed = args.seed
        trace = run_scenario(config)
        # Count before the write, which drops the events.
        counts = Counter(event.kind for event in trace.events)
        events = len(trace.events)
        path = out_dir / f"{name}.trace.json"
        path.write_bytes(trace.to_json_bytes())

        summary = ", ".join(f"{kind}={count}"
                            for kind, count in sorted(counts.items()))
        print(f"{name:20s} {events:3d} events  ({summary or 'empty'})")
        print(f"{'':20s} -> {path}")
        if config.description:
            print(f"{'':20s}    {config.description}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
