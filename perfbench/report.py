#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json and print one table of metrics.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1|both] [--tiny]

Each workload runs in its own ``run.py`` process.  The table lists every
metric by name with its value and unit, plus ``failed_frac`` (failed
requests over attempted ones).  The exit code is 1 unless every run is
correct and prints exactly the metrics BENCHMARK.json names for its trace
mode, each with the unit named there.

Smoke check (tiny sizes, both modes, about a minute):

    python3 perfbench/report.py --tiny --seconds 1 --trace both
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for trace in modes:
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            print(f"\n{label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            print(f"  {'failed_frac':32s} {result['failed'] / result['attempted']:>16.6f} ratio")
            for name, m in metrics.items():
                print(f"  {name:32s} {m['value']:>16.6f} {m['unit']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs failed their checks\n{proc.stderr}")
            printed = {name: m["unit"] for name, m in metrics.items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(printed.items()))
                extra = sorted(set(printed.items()) - set(expected[trace].items()))
                problems.append(f"{label}: metrics differ from BENCHMARK.json; "
                                f"missing {missing}, extra {extra}")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
