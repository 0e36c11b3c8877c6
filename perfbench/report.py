"""Rerun every workload, untraced and traced, and print every metric by name.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs in its own process through run.py: once with tracing off
for the end-to-end metrics (named as in README.md, with units) and once with
tracing on for the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit", "dqn", "distance")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py --workload {workload} --trace {trace} "
                         f"exited with {done.returncode}")
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail.removeprefix("perfbench ")), json.loads(result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        detail, result = run(workload, args.seed, args.seconds, 0)
        print(f"== {workload} (seed {args.seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, (value, unit) in detail["metrics"].items():
            print(f"  {name:<16} {value:>14.6g} {unit}")
        t = detail["tail"]
        print(f"  tail = p{t['percentile']:.2f} of {t['samples']} {detail['op']} samples, "
              f"{t['beyond']} beyond it")
        for problem in detail["problems"]:
            print(f"  problem: {problem}")
        detail, result = run(workload, args.seed, args.seconds, 1)
        print(f"  traced: correct={result['correct']} "
              f"identical_outputs={detail['identical_outputs']} spans={detail['spans_file']}")
        for name, m in result["metrics"].items():
            print(f"    {name:<30} {m['value']:>14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
