#!/usr/bin/env python3
"""Fit rationals to several reference activations and export their profiles.

Writes one rational JSON and one profile CSV per reference into --out, plus
a summary of the achieved fit errors on stdout.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from ratnet.fitting import FitConfig, ReferenceActivation, fit, reference_eval
from ratnet.rational import eval_batch


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--refs", default="lrelu,tanh,sigmoid,silu,dsilu")
    ap.add_argument("--m", type=int, default=5)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-iters", type=int, default=FitConfig().max_iters)
    ap.add_argument("--out", default="profiles")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    xs = np.linspace(-3.0, 3.0, 601)
    summary = {}
    for name in args.refs.split(","):
        ref = ReferenceActivation(name.strip())
        cfg = FitConfig(seed=args.seed, max_iters=args.max_iters)
        rf, report = fit(args.m, args.n, ref, cfg)
        (out / f"{ref.name}.json").write_text(json.dumps(rf.to_dict(), indent=2))
        target = reference_eval(ref, xs)
        fitted = eval_batch(rf, xs)
        lines = ["x,target,fitted"]
        lines += [f"{x:.6g},{t:.6g},{v:.6g}" for x, t, v in zip(xs, target, fitted)]
        (out / f"{ref.name}_profile.csv").write_text("\n".join(lines) + "\n")
        summary[ref.name] = report.final_mse
        print(f"{ref.name:10s} mse={report.final_mse:.3e} "
              f"iters={report.iterations} converged={report.converged}")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
