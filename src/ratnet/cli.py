"""Command-line front end: fit, distance, absorb, train, rl and profile.

Every invocation prints exactly one JSON object to stdout (logs go to
stderr) and exits 0 on success or 1 with {"error": ...} on any module error.
All randomness is driven by --seed, and artifacts are written with fixed
formatting, so repeated runs with the same arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import absorb_residual
from .datasets import load_csv, make_blobs, make_two_spirals
from .distance import DistanceConfig, nd
from .fitting import REFERENCE_NAMES, FitConfig, ReferenceActivation, fit
from .histogram import Histogram
from .network import NetworkSpec, TrainConfig, build_dense_network, train_classifier
from .rational import RationalFunction, eval_batch
from .rl import (DqnConfig, GridWorld, ScoreReport, dqn_train, greedy_return,
                 optimal_return, random_return)

# the one option table: each subcommand's flags, their defaults and (by the
# default's type, str where it is None) their argument types; a --config JSON
# may override the defaults and explicit flags override both
DEFAULTS = {
    "fit": {"ref": "lrelu", "m": 5, "n": 4, "lo": -3.0, "hi": 3.0,
            "points": 1000, "max_iters": FitConfig().max_iters, "slope": 0.01,
            "beta": 1.0, "seed": 0, "out": None},
    "distance": {"f1": None, "f2": None, "lo": -3.0, "hi": 3.0,
                 "quad_points": 2001, "refine_iters": 200, "seed": 0, "out": None},
    "absorb": {"rf": None, "out": None, "seed": 0},
    "train": {"data": None, "dataset": "blobs", "samples": 100,
              "hidden": "16,16", "activation": "rational", "m": 5, "n": 4,
              "init": "lrelu", "epochs": 20, "batch_size": 32, "lr": 0.05,
              "optimizer": "adam", "seed": 0, "out": None},
    "rl": {"activation": "rational", "m": 5, "n": 4, "init": "lrelu",
           "hidden": "64,64", "width": 5, "height": 5, "steps": 30000,
           "lr": 0.001, "seed": 0, "out": None},
    "profile": {"rf": None, "hist": None, "network": None, "lo": -3.0,
                "hi": 3.0, "points": 201, "seed": 0, "out": None},
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge hardcoded defaults, --config values and explicit flags."""
    merged = dict(DEFAULTS[command])
    if args.config is not None:
        doc = json.loads(Path(args.config).read_text())
        unknown = set(doc) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys for {command!r}: {sorted(unknown)}")
        merged.update(doc)
    for key in merged:
        given = getattr(args, key, None)
        if given is not None:
            merged[key] = given
    return merged


def _load_function(spec: str):
    """A named reference activation or a path to a rational JSON file."""
    if spec in REFERENCE_NAMES:
        return ReferenceActivation(spec)
    rf = RationalFunction.from_dict(json.loads(Path(spec).read_text()))
    return lambda x: eval_batch(rf, x)


def _profile_csv(xs: np.ndarray, values: np.ndarray, density: np.ndarray) -> str:
    lines = ["x,value,density"]
    for x, v, rho in zip(xs, values, density):
        lines.append(f"{x:.6g},{v:.6g},{rho:.6g}")
    return "\n".join(lines) + "\n"


def cmd_fit(args: argparse.Namespace) -> dict:
    opt = _resolve(args, "fit")
    if opt["m"] < 1:
        raise ValueError("fit needs numerator degree m >= 1 so the "
                         "identity start is representable")
    ref = ReferenceActivation(opt["ref"], slope=opt["slope"], beta=opt["beta"])
    cfg = FitConfig(interval=(opt["lo"], opt["hi"]), n_points=opt["points"],
                    max_iters=opt["max_iters"], seed=opt["seed"])
    rf, report = fit(opt["m"], opt["n"], ref, cfg)
    _log(f"fit {opt['ref']} (m={opt['m']}, n={opt['n']}): "
         f"mse={report.final_mse:.3e} after {report.iterations} iterations")
    if opt["out"] is not None:
        out = Path(opt["out"])
        _write(out / "rational.json", _json_text(rf.to_dict()))
        xs = np.linspace(opt["lo"], opt["hi"], opt["points"])
        target = ref(xs)
        fitted = eval_batch(rf, xs)
        lines = ["x,target,fitted"]
        lines += [f"{x:.6g},{t:.6g},{v:.6g}" for x, t, v in zip(xs, target, fitted)]
        _write(out / "fit_profile.csv", "\n".join(lines) + "\n")
    return {"rational": rf.to_dict(), **report.to_dict()}


def cmd_distance(args: argparse.Namespace) -> dict:
    opt = _resolve(args, "distance")
    if opt["f1"] is None or opt["f2"] is None:
        raise ValueError("distance needs --f1 and --f2 (rational JSON path or "
                         f"one of {REFERENCE_NAMES})")
    f1 = _load_function(opt["f1"])
    f2 = _load_function(opt["f2"])
    cfg = DistanceConfig(domain=(opt["lo"], opt["hi"]),
                         quad_points=opt["quad_points"],
                         refine_iters=opt["refine_iters"])
    value, rp = nd(f1, f2, cfg)
    result = {"value": value, **rp.to_dict()}
    if opt["out"] is not None:
        _write(Path(opt["out"]) / "distance.json", _json_text(result))
    return result


def cmd_absorb(args: argparse.Namespace) -> dict:
    opt = _resolve(args, "absorb")
    if opt["rf"] is None:
        raise ValueError("absorb needs --rf pointing at a raw rational JSON file")
    rf = RationalFunction.from_dict(json.loads(Path(opt["rf"]).read_text()))
    absorbed = absorb_residual(rf)
    if opt["out"] is not None:
        _write(Path(opt["out"]) / "absorbed.json", _json_text(absorbed.to_dict()))
    return absorbed.to_dict()


def _parse_hidden(text: str) -> list[int]:
    sizes = [int(tok) for tok in str(text).split(",") if tok.strip()]
    if not sizes:
        raise ValueError("hidden layer list is empty")
    return sizes


def cmd_train(args: argparse.Namespace) -> dict:
    opt = _resolve(args, "train")
    if opt["data"] is not None:
        dataset = load_csv(opt["data"])
    elif opt["dataset"] == "blobs":
        dataset = make_blobs(n_per_class=opt["samples"], seed=opt["seed"])
    elif opt["dataset"] == "spirals":
        dataset = make_two_spirals(n_per_class=opt["samples"], seed=opt["seed"])
    else:
        raise ValueError(f"unknown dataset {opt['dataset']!r}")
    x = np.asarray(dataset.x_train)
    n_classes = int(np.max(dataset.y_train)) + 1
    sizes = [x.shape[1], *_parse_hidden(opt["hidden"]), n_classes]
    net = build_dense_network(sizes, activation=opt["activation"],
                              degrees=(opt["m"], opt["n"]), init=opt["init"],
                              seed=opt["seed"], track_inputs=True)
    cfg = TrainConfig(learning_rate=opt["lr"], batch_size=opt["batch_size"],
                      epochs=opt["epochs"], seed=opt["seed"],
                      optimizer=opt["optimizer"])
    net, history = train_classifier(net, dataset, cfg)
    _log(f"train: final train accuracy {history['train_accuracy'][-1]:.3f}")
    if opt["out"] is not None:
        out = Path(opt["out"])
        _write(out / "network.json", _json_text(net.to_dict()))
        _write(out / "history.json", _json_text(history))
    return {"train_accuracy": history["train_accuracy"],
            "test_accuracy": history["test_accuracy"],
            "final_train_accuracy": history["train_accuracy"][-1]}


def cmd_rl(args: argparse.Namespace) -> dict:
    opt = _resolve(args, "rl")
    cfg = DqnConfig(train_steps=opt["steps"], learning_rate=opt["lr"],
                    seed=opt["seed"])
    env = GridWorld(width=opt["width"], height=opt["height"],
                    goal=(opt["width"] - 1, opt["height"] - 1))
    sizes = [env.n_states, *_parse_hidden(opt["hidden"]), env.n_actions]
    net = build_dense_network(sizes, activation=opt["activation"],
                              degrees=(opt["m"], opt["n"]), init=opt["init"],
                              seed=opt["seed"], track_inputs=True)
    net, curve = dqn_train(env, net, cfg)
    agent = greedy_return(env, net)
    rng = np.random.default_rng(cfg.seed + 1)
    rand = random_return(env, rng)
    baseline = optimal_return(env)
    report = ScoreReport(agent, rand, baseline)
    _log(f"rl: greedy return {agent:.2f} (optimal {baseline:.2f}), "
         f"normalized {report.normalized:.1f}%")
    result = {"curve": [[int(s), float(r)] for s, r in curve],
              "final_greedy_return": agent, **report.to_dict()}
    if opt["out"] is not None:
        out = Path(opt["out"])
        _write(out / "curve.json", _json_text(result["curve"]))
        _write(out / "scores.csv", report.to_csv())
        _write(out / "q_network.json", _json_text(net.to_dict()))
    return result


def cmd_profile(args: argparse.Namespace) -> dict:
    opt = _resolve(args, "profile")
    xs = np.linspace(opt["lo"], opt["hi"], opt["points"])
    if opt["network"] is not None:
        # one profile per slot of a serialized network, density from the
        # slot's own tracked histogram
        net = NetworkSpec.from_dict(json.loads(Path(opt["network"]).read_text()))
        written = []
        for sid in sorted(net.slots):
            slot = net.slots[sid]
            if not slot.trainable:
                continue
            values = eval_batch(slot.activation, xs)
            if slot.histogram is not None and slot.histogram.in_range > 0:
                density = slot.histogram.density(xs)
            else:
                density = np.zeros_like(xs)
            if opt["out"] is not None:
                _write(Path(opt["out"]) / f"profile_{sid}.csv",
                       _profile_csv(xs, values, density))
            written.append(sid)
        if not written:
            raise ValueError("network has no rational slots to profile")
        return {"rows": int(xs.size), "slots": written,
                "lo": opt["lo"], "hi": opt["hi"]}
    if opt["rf"] is None:
        raise ValueError("profile needs --rf (rational JSON) or --network "
                         "(network JSON)")
    rf = RationalFunction.from_dict(json.loads(Path(opt["rf"]).read_text()))
    values = eval_batch(rf, xs)
    if opt["hist"] is not None:
        hist = Histogram.from_dict(json.loads(Path(opt["hist"]).read_text()))
        density = hist.density(xs)
    else:
        density = np.zeros_like(xs)
    csv_text = _profile_csv(xs, values, density)
    if opt["out"] is not None:
        _write(Path(opt["out"]) / "profile.csv", csv_text)
    return {"rows": int(xs.size), "lo": opt["lo"], "hi": opt["hi"]}


COMMANDS = {
    "fit": cmd_fit,
    "distance": cmd_distance,
    "absorb": cmd_absorb,
    "train": cmd_train,
    "rl": cmd_rl,
    "profile": cmd_profile,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ratnet",
                                     description="rational activation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON file with defaults")
        for flag, default in defaults.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None,
                           type=str if default is None else type(default),
                           help="artifact output directory" if flag == "out" else None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
    except Exception as exc:  # single-line machine-parsable failure
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        return 1
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
