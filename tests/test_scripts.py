"""Smoke tests: each experiment script runs end to end at tiny sizes."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# the digest of cli_digest.py's default invocations; see that script for how
# to regenerate it when a change moves CLI bytes on purpose
COMMITTED_DIGEST = Path(__file__).resolve().parent / "cli_digest.txt"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_fit_reference_profiles(monkeypatch, capsys, tmp_path):
    run_script(monkeypatch, "fit_reference_profiles.py", "--refs", "tanh",
               "--out", str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tanh       mse=")
    assert "converged=True" in lines[0]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["tanh"] and summary["tanh"] <= 1e-6
    assert json.loads((tmp_path / "tanh" / "rational.json").read_text())["variant"] == "safe"
    profile = (tmp_path / "tanh" / "fit_profile.csv").read_text().splitlines()
    assert profile[0] == "x,target,fitted" and len(profile) == 1001


def test_gridworld_dqn(monkeypatch, capsys):
    run_script(monkeypatch, "gridworld_dqn.py", "--activations", "rational,lrelu",
               "--steps", "50")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("value-iteration optimum 2.00, random policy ")
    assert lines[1] == ""
    assert lines[2].split() == ["activation", "return", "normalized"]
    assert [line.split()[0] for line in lines[3:]] == ["rational", "lrelu"]
    assert all(line.endswith("%") for line in lines[3:])


def test_spirals_experiment(monkeypatch, capsys):
    run_script(monkeypatch, "spirals_experiment.py", "--epochs", "1",
               "--samples", "10", "--hidden", "4,4")
    out = capsys.readouterr().out
    for activation in ("rational", "shared-rational", "lrelu"):
        assert f"\n{activation:16s} final train accuracy " in "\n" + out
    assert "pairwise activation distances of the per-layer rational net:" in out
    assert out.rstrip().splitlines()[-1].startswith("suggested sharing at threshold 0.05: [")



def test_cli_digest(monkeypatch, capsys):
    invocation = "fit --ref tanh --m 3 --n 2 --max-iters 50 --seed 1"
    runs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            run_script(monkeypatch, "cli_digest.py", invocation)
        assert exit_info.value.code == 0
        runs.append(capsys.readouterr().out.splitlines())
    digest, argv = runs[0][0].split("  ", 1)
    assert len(runs[0]) == 1 and argv == invocation
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert runs[0] == runs[1]


def test_cli_digest_check(monkeypatch, capsys, tmp_path):
    invocation = "fit --ref tanh --m 3 --n 2 --max-iters 50 --seed 1"
    with pytest.raises(SystemExit):
        run_script(monkeypatch, "cli_digest.py", invocation)
    line = capsys.readouterr().out.splitlines()[0]
    saved = tmp_path / "digest.txt"
    saved.write_text(line + "\n")
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "cli_digest.py", "--check", str(saved), invocation)
    assert exit_info.value.code == 0 and capsys.readouterr().out == ""

    stale = ("0" if line[0] != "0" else "1") + line[1:]
    saved.write_text(stale + "\n")
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "cli_digest.py", "--check", str(saved), invocation)
    assert exit_info.value.code == 1
    out = capsys.readouterr().out.splitlines()
    assert f"-{stale}" in out and f"+{line}" in out and len(out) == 5


def test_cli_digest_matches_committed(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "cli_digest.py", "--check", str(COMMITTED_DIGEST))
    diff = capsys.readouterr().out
    saved = COMMITTED_DIGEST.read_text().splitlines()[0]
    here = runpy.run_path(str(SCRIPTS / "cli_digest.py"))["versions"]()
    assert exit_info.value.code == 0, (
        f"CLI output differs from {COMMITTED_DIGEST.name}\n"
        f"saved with:   {saved}\nthis machine: {here}\n{diff}")
