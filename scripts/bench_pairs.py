#!/usr/bin/env python3
"""Benchmark a parent tree against a change tree in alternating pairs.

Runs the benchmark command that BENCHMARK.json declares (perfbench/run.py)
from each tree's root, so each side imports its own src/, and writes
BENCH_<label>.json to the current directory:

    python3 scripts/bench_pairs.py PARENT CHANGE --label fit_trial \\
        --workloads fit dqn distance --seed 21 --pairs 10 \\
        --claim fit ops_per_s --change "what the change does"

PARENT and CHANGE are two checkouts.  PARENT must be a git checkout of the
parent commit (`git clone`, not `git archive`), so the file records which
commit it was measured against; the script stops at the parent's first run
otherwise.  Pair i runs the parent first when i is even and the change first
when it is odd; every run lasts BENCHMARK.json's run_seconds, read from
PARENT.  Each workload also gets one traced run per side at seed 0,
recording whether both were correct and which counts moved.  The file
also records each side's BLAS thread count in effect, read from numpy's
bundled OpenBLAS (null where that library or its symbol is absent): a
threaded solve can wait on a busy second core.

For each workload and end-to-end metric the file holds each side's
quartiles over the pairs, `change_wins` (pairs where the change reads
better; ties count for neither), `median_change_rel` (the change of the
median relative to the parent's) and `parent_iqr` (the parent's q3 - q1).
Quartiles are the inclusive ones, numpy.percentile's default.  The script
prints two verdicts per metric:

* gain: the change wins at least 9/10 of the pairs and the medians differ
  by more than the parent's IQR;
* regression: the change's median is worse than the parent's by more than
  the bound BENCHMARK.json fixes, or `unresolved` when the parent's IQR is
  wider than that bound relative to its median, unless every run of the
  change reads better than every run of the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

TRACE_SEED = 0
GAIN_SHARE = 0.9   # share of pairs the change must win for a gain
# run by each side's interpreter in its tree: the OpenBLAS thread count in
# effect, or None where numpy bundles no library exporting the getter
BLAS_THREADS = """
import ctypes, glob, json, os, numpy
found = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        found = get()
print(json.dumps(found))
"""


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Summary of one metric over pairs: parent[i] and change[i] ran together."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    gap = sign * (c["median"] - p["median"])
    dominates = (min(change) > max(parent) if better == "higher"
                 else max(change) < min(parent))
    if -gap > bound * abs(p["median"]):
        regression = "worse"
    elif iqr > bound * abs(p["median"]) and not dominates:
        regression = "unresolved"
    else:
        regression = "within bound"
    return {"better": better, "parent": p, "change": c,
            "change_wins": f"{wins}/{len(parent)}",
            "median_change_rel": (c["median"] - p["median"]) / p["median"],
            "parent_iqr": iqr,
            "gain": wins >= GAIN_SHARE * len(parent) and gap > iqr,
            "regression": regression}


def run(tree: str, command: list, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One benchmark run in `tree`: its result line and its detail line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    detail = json.loads(next(s for s in lines if s.startswith("perfbench "))[10:])
    if "unit_s" in detail:
        unit_s = detail["unit_s"]
        detail["unit_s"] = {"count": len(unit_s), "median": statistics.median(unit_s)}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "command": " ".join(argv), "result": json.loads(lines[-1]),
            "detail": detail}


def blas_threads(tree: str, python: str):
    """The BLAS thread count a benchmark run in `tree` would use, or None."""
    done = subprocess.run([python, "-c", BLAS_THREADS], cwd=tree, check=True,
                          capture_output=True, text=True, timeout=600)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    ap.add_argument("--change", dest="change_text", default="")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2, the fewest that have quartiles")

    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}

    runs, summary, traced = [], [], []
    for workload in args.workloads:
        values = {side: {name: [] for name in metrics} for side in trees}
        failed = {side: 0 for side in trees}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                rec = run(trees[side], bench["command"], workload, args.seed, seconds, 0)
                if side == "parent" and rec["detail"]["env"]["git_commit"] is None:
                    raise SystemExit(f"bench_pairs: {trees[side]} has no git commit; "
                                     "make it with git clone")
                rec.update(side=side, pair=pair, first_in_pair=order[0])
                runs.append(rec)
                failed[side] += rec["result"]["failed"]
                for name in metrics:
                    values[side][name].append(rec["result"]["metrics"][name]["value"])
                print(f"{workload} pair {pair} {side}: " + ", ".join(
                    f"{k} {v[-1]:.4g}" for k, v in values[side].items()), file=sys.stderr)
        summary.append({
            "workload": workload, "seed": args.seed, "pairs": args.pairs, "failed": failed,
            "metrics": {name: compare(values["parent"][name], values["change"][name],
                                      m["better"], m["bound"])
                        for name, m in metrics.items()}})

        results = {}
        for side in trees:
            rec = run(trees[side], bench["command"], workload, TRACE_SEED, seconds, 1)
            rec.update(side=side, pair=0, first_in_pair="parent")
            runs.append(rec)
            results[side] = rec["result"]
        moved = {name: [results["parent"]["metrics"][name]["value"], m["value"]]
                 for name, m in results["change"]["metrics"].items()
                 if m["unit"] == "count"
                 and m["value"] != results["parent"]["metrics"][name]["value"]}
        traced.append({"workload": workload, "seed": TRACE_SEED,
                       "correct": [results[s]["correct"] for s in trees],
                       "counts_that_moved_parent_to_change": moved})

    # the parent runs first in pair 0
    env = runs[0]["detail"]["env"]
    doc = {"label": args.label, "change": args.change_text, "parent": env["git_commit"],
           "blas_threads": {side: blas_threads(tree, bench["command"][0])
                            for side, tree in trees.items()}}
    if args.claim:
        doc["claim"] = {"workload": args.claim[0], "metric": args.claim[1],
                        "rule": "change wins >= 9/10 pairs and the medians differ "
                                "by more than the parent's quartile spread"}
    doc.update({
        "protocol": f"{' '.join(bench['command'])} from the two trees, alternating "
                    f"which side runs first in each pair; --seconds {seconds:g}. Each "
                    "run's 'detail' is the perfbench detail line with its per-unit "
                    "times reduced to their count and median; 'result' is the result "
                    "line as printed. Quartiles are inclusive. Written by "
                    "scripts/bench_pairs.py.",
        "machine": f"{env['nproc']} cores, Python {env['python']}, numpy "
                   f"{env['numpy']}, {env['blas']['name']} {env['blas']['version']}",
        "summary": summary, "traced": traced, "runs": runs})
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

    for entry in summary:
        for name, s in entry["metrics"].items():
            claimed = args.claim == [entry["workload"], name]
            print(f"{entry['workload']:9s} {name:12s} {s['parent']['median']:.4g} -> "
                  f"{s['change']['median']:.4g} ({s['median_change_rel']:+.1%}), "
                  f"wins {s['change_wins']}, parent IQR {s['parent_iqr']:.3g}: "
                  f"gain {'yes' if s['gain'] else 'no'}, {s['regression']}"
                  + ("  [claimed]" if claimed else ""))
        print(f"{entry['workload']:9s} failed ops: parent {entry['failed']['parent']}, "
              f"change {entry['failed']['change']}")
    for entry in traced:
        print(f"{entry['workload']:9s} traced seed {entry['seed']}: correct "
              f"{entry['correct']}, counts moved "
              f"{entry['counts_that_moved_parent_to_change'] or 'none'}")
    print(f"BLAS threads: parent {doc['blas_threads']['parent']}, "
          f"change {doc['blas_threads']['change']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
