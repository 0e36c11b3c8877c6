#!/usr/bin/env python3
"""Fit rationals to several reference activations and export their profiles.

Runs `ratnet fit` once per reference with --out <out>/<ref>, which writes that
reference's rational.json and fit_profile.csv, then writes summary.json with
the achieved fit errors into --out and one line per reference to stdout.
"""

import argparse
import json
from pathlib import Path

from ratnet import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--refs", default="lrelu,tanh,sigmoid,silu,dsilu")
    ap.add_argument("--m", type=int, default=5)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="profiles")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name in args.refs.split(","):
        name = name.strip()
        report = cli.cmd_fit(cli.build_parser().parse_args(
            ["fit", "--ref", name, "--m", str(args.m), "--n", str(args.n),
             "--seed", str(args.seed), "--out", str(out / name)]))
        summary[name] = report["final_mse"]
        print(f"{name:10s} mse={report['final_mse']:.3e} "
              f"iters={report['iterations']} converged={report['converged']}")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
