"""Run one ratnet benchmark workload; the last line of stdout is its result.

    python3 perfbench/run.py --workload {fit,dqn,distance} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload runs whole units until the next one would
end after ``--seconds`` (at least one unit) and reports the end-to-end
metrics.  With ``--trace 1`` it runs the workload's fixed trace plan once
untraced and once traced, checks that both give bitwise-identical outputs,
and reports the per-layer metrics and the tracing overhead; ``--seconds`` is
not used.  ratnet is imported from ``src/`` next to this directory, never
from an installed copy.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5   # set-ups per untraced run: this process plus four children
clock = time.perf_counter


def load_workloads():
    """Import the workloads, and through them numpy and this checkout's ratnet."""
    if not os.path.isfile(os.path.join(SRC, "ratnet", "__init__.py")):
        raise SystemExit(f"perfbench: no ratnet sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import ratnet
    import workloads
    if not os.path.abspath(ratnet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported ratnet from {ratnet.__file__}, not {SRC}")
    return workloads


def tail(values) -> tuple:
    """(value, percentile, samples beyond it) of the highest percentile with
    at least ten samples beyond it.  Below 11 samples no percentile
    qualifies, and the median stands in for it as percentile 50."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), 50.0, n // 2
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref))
    if direct:
        return direct
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = (_read(f"/sys/fs/cgroup/cpu/cpu.cfs_{k}_us") for k in ("quota", "period"))
        quota = None if q is None else f"{q} {p}"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ratnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": quota,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, import included."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_timed(wl, mod, seconds: float) -> tuple:
    """Whole units while the next one, at the median unit time so far, is
    expected to end by the deadline; always at least one."""
    rec = mod.Record()
    unit_s = []
    deadline = clock() + seconds
    while not unit_s or clock() + statistics.median(unit_s) <= deadline:
        t0 = clock()
        wl.check(wl.run_unit(len(unit_s), rec), rec)
        unit_s.append(clock() - t0)
    return rec, unit_s


def run_traced(wl, mod, seed: int) -> tuple:
    from spans import Tracer, layer_metrics
    plain = mod.Record()
    t0 = clock()
    out_plain = wl.trace_unit(plain, None)
    untraced_s = clock() - t0
    wl.check(out_plain, plain)

    traced = mod.Record()
    tracer = Tracer()
    with tracer.installed():
        t0 = clock()
        out_traced = wl.trace_unit(traced, tracer)
        traced_s = clock() - t0
    wl.check(out_traced, traced)
    identical = wl.fingerprint(out_plain) == wl.fingerprint(out_traced)
    if not identical:
        traced.fail(traced.attempted - traced.failed,
                    "traced outputs differ from untraced outputs")

    metrics = layer_metrics(tracer, traced.counters["fitting.iterations"])
    quality = wl.summarize_quality(traced.quality) if traced.quality else 0.0
    metrics["fitting.fit_mse"] = (quality if wl.name == "fit" else 0.0, "mse")
    metrics["distance.rnd_value"] = (quality if wl.name == "distance" else 0.0, "l1")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "elems"],
                   "spans": tracer.spans}, fh)
    detail = {"identical_outputs": identical, "spans_file": os.path.relpath(path, ROOT),
              "waiting": "absent: no workload waits on a queue or lock",
              "unmeasured": {"algebra": "set-up only (distance builds planted copies)",
                             "datasets": "not used by any workload",
                             "cli": "not used; the workloads call the library"}}
    return plain, traced, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fit", "dqn", "distance"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    t0 = clock()
    mod = load_workloads()
    wl = mod.WORKLOADS[args.workload](args.seed)
    setup_s = clock() - t0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    detail = {"workload": args.workload, "env": environment(args.seed)}
    if args.trace:
        plain, rec, layer, extra = run_traced(wl, mod, args.seed)
        attempted = plain.attempted + rec.attempted
        failed = plain.failed + rec.failed
        problems = plain.problems + rec.problems
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        detail.update(extra)
    else:
        rec, unit_s = run_timed(wl, mod, args.seconds)
        attempted, failed, problems = rec.attempted, rec.failed, rec.problems
        if not rec.op_s:
            print(json.dumps({"perfbench": detail, "problems": problems}), file=sys.stderr)
            raise SystemExit("perfbench: no operation succeeded, nothing to report")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [child_setup_s(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        tail_v, tail_pct, beyond = tail(rec.op_s)
        values = {"setup_s": (statistics.median(setups), "s"),
                  "peak_rss_mb": (peak_rss_mb, "MiB"),
                  "op_s.tail": (tail_v, "s"),
                  "ops_per_s": (len(rec.op_s) / rec.busy_s, "1/s")}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        # the median is reported but not gated: see README.md
        values["op_s.p50"] = (statistics.median(rec.op_s), "s")
        named = {"setup_s": [values["setup_s"][0], "s"],
                 "peak_rss_mb": [peak_rss_mb, "MiB"],
                 "failed_frac": [failed / attempted, "ratio"]}
        for key, (name, unit, scale) in wl.issue_names.items():
            if key == "quality":
                if rec.quality:
                    named[name] = [wl.summarize_quality(rec.quality), unit]
            else:
                named[name] = [values[key][0] * scale, unit]
        detail.update({"op": wl.op, "metrics": named,
                       "tail": {"percentile": tail_pct, "samples": len(rec.op_s),
                                "beyond": beyond},
                       "units_run": len(unit_s), "unit_s": unit_s,
                       "setup_samples_s": setups})
    detail.update({"attempted": attempted, "failed": failed, "problems": problems})
    print("perfbench " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
