#!/usr/bin/env python3
"""Digest of what CLI invocations print and write, for byte-identity checks.

Runs each invocation in process through `ratnet.cli.main` and prints one
`<sha256>  <invocation>` line per invocation.  The hash covers stdout plus
the relative path and bytes of every artifact the invocation writes.  Run
it on two checkouts and diff the output to show that a change keeps the CLI
byte-identical.

Each invocation is one argument, split like a shell command line.  All of
them share one temporary directory, written `{tmp}` in an invocation, and
invocation k (counting from 0) gets `--out {tmp}/k`, so a later invocation
can read what an earlier one wrote.  `{tmp}/ident.json` holds the raw
identity rational of degrees (1, 0) before the first invocation runs.
With no arguments, a fixed list covering all six subcommands runs.

`--check FILE` compares the lines with a digest saved from an earlier run
instead of printing them: it prints only the lines that differ, as a
unified diff, and exits 1 when any do.  Lines of FILE that start with `#`
are skipped; `tests/cli_digest.txt` starts with the `versions()` line, since
the bits can move with numpy or the BLAS.

    python scripts/cli_digest.py
    python scripts/cli_digest.py "fit --ref tanh --seed 1" "rl --steps 600"
    python scripts/cli_digest.py > digest.txt   # on the base checkout
    python scripts/cli_digest.py --check digest.txt   # on the changed one

Regenerating the committed digest, from the repository root:

    { PYTHONPATH=src:scripts python -c "import cli_digest; print(cli_digest.versions())"
      PYTHONPATH=src python scripts/cli_digest.py; } > tests/cli_digest.txt
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from ratnet import cli
from ratnet.rational import RAW, init_identity

INVOCATIONS = (
    "fit --ref lrelu --m 3 --n 2 --seed 5 --max-iters 300",
    "distance --f1 sigmoid --f2 tanh --seed 5 --quad-points 301",
    "absorb --rf {tmp}/ident.json",
    "train --dataset blobs --samples 20 --hidden 4 --epochs 3 --seed 5",
    "rl --activation shared-rational --steps 600 --seed 5",
    "profile --rf {tmp}/ident.json --points 21",
    "fit --ref lrelu --m 3 --n 2 --seed 7 --max-iters 300",
    "distance --f1 sigmoid --f2 tanh --seed 7 --quad-points 301",
    "train --dataset blobs --samples 20 --hidden 4 --epochs 3 --seed 7",
    "rl --activation shared-rational --steps 600 --seed 7",
    "fit --seed 0",
    "fit --ref silu --seed 3",
    "fit --ref sigmoid --seed 3",
    "distance --f1 relu --f2 tanh",
    "train --dataset spirals --samples 100 --hidden 24,24 --activation rational"
    " --epochs 150 --lr 0.01 --seed 0",
    "rl --steps 3000 --seed 0",
    "rl --steps 2000 --init identity --seed 2",
    "rl --activation silu --steps 1500 --seed 1",
    "distance --f1 {tmp}/10/rational.json --f2 lrelu",
    "profile --rf {tmp}/10/rational.json",
    "profile --network {tmp}/14/network.json --points 51",
    "train --dataset spirals --activation shared-rational --epochs 20 --seed 0",
    "train --optimizer sgd --epochs 3 --init identity --seed 1",
)


def versions() -> str:
    """A `#` line naming numpy's version and the BLAS's name and version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, blas {blas['name']} {blas['version']}"


def digest(stdout: str, out_dir: Path) -> str:
    h = hashlib.sha256(stdout.encode())
    files = out_dir.rglob("*") if out_dir.exists() else ()
    for path in sorted(p for p in files if p.is_file()):
        data = path.read_bytes()
        h.update(f"\n{path.relative_to(out_dir).as_posix()} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("invocations", nargs="*", default=INVOCATIONS)
    ap.add_argument("--check", metavar="FILE",
                    help="print only the lines that differ from this saved digest")
    args = ap.parse_args()

    failed = 0
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        ident = init_identity(1, 0, variant=RAW).to_dict()
        Path(tmp, "ident.json").write_text(json.dumps(ident))
        for k, line in enumerate(args.invocations):
            out_dir = Path(tmp, str(k))
            argv = [tok.replace("{tmp}", tmp) for tok in shlex.split(line)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                failed += cli.main([*argv, "--out", str(out_dir)]) != 0
            text = stdout.getvalue().replace(tmp, "{tmp}")
            lines.append(f"{digest(text, out_dir)}  {' '.join(shlex.split(line))}")
            if not args.check:
                print(lines[-1], flush=True)
    if args.check:
        saved = [line for line in Path(args.check).read_text().splitlines()
                 if not line.startswith("#")]
        diff = list(difflib.unified_diff(saved, lines, args.check, "this run",
                                         lineterm="", n=0))
        if diff:
            print(*diff, sep="\n")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
