#!/usr/bin/env python3
"""Gridworld DQN comparison across activation configurations.

Runs `ratnet rl` once per activation and reports raw and normalized scores,
with the value-iteration optimum as the baseline and a seeded random policy
as the floor.
"""

import argparse

from ratnet import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--activations",
                    default="rational,shared-rational,lrelu,silu")
    ap.add_argument("--steps", type=int, default=30000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", type=int, default=5)
    args = ap.parse_args()

    results = {}
    for activation in args.activations.split(","):
        activation = activation.strip()
        results[activation] = cli.cmd_rl(cli.build_parser().parse_args(
            ["rl", "--activation", activation, "--steps", str(args.steps),
             "--seed", str(args.seed), "--width", str(args.size),
             "--height", str(args.size)]))

    first = next(iter(results.values()))
    print(f"value-iteration optimum {first['baseline']:.2f}, "
          f"random policy {first['random']:.2f}\n")
    print(f"{'activation':18s} {'return':>8s} {'normalized':>11s}")
    for activation, result in results.items():
        print(f"{activation:18s} {result['agent']:8.2f} {result['normalized']:10.1f}%")


if __name__ == "__main__":
    main()
