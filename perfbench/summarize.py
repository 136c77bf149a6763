"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout:

    python3 perfbench/summarize.py --seeds 101-110 --seconds 25 [--trace 0|1] [--workload NAME ...]

Runs are made one at a time.  For every workload and metric the JSON
summary on standard output gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST, inclusive")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    out = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            env = json.loads(lines[0].removeprefix("env "))
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, reading in result["metrics"].items():
                values.setdefault(metric, []).append(reading["value"])
                units[metric] = reading["unit"]
            print(f"{name} seed {seed}: correct={result['correct']}", file=sys.stderr)
        out["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": {metric: {"unit": units[metric], **summarize(v)} for metric, v in values.items()},
        }
    env.pop("seed")
    out["env"] = env
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
