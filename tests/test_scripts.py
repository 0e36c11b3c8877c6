"""Smoke tests: each experiment script runs end to end at tiny sizes."""

import json
import runpy
import shutil
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
               "--steps", "600")
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


def test_bench_pairs_compare():
    compare = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["compare"]
    parent = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 100.0, 97.0, 105.0]
    change = [p * 1.3 for p in parent]
    out = compare(parent, change, "higher", 0.25)
    assert out["parent"] == {"q1": 99.25, "median": 100.5, "q3": 102.75}
    assert out["change_wins"] == "10/10" and out["gain"]
    assert out["regression"] == "within bound"
    # a tie counts for neither side, so nine wins with one tie still gain
    out = compare(parent, change[:-1] + [parent[-1]], "higher", 0.25)
    assert out["change_wins"] == "9/10" and out["gain"]
    # lower is better: the same numbers are a regression beyond a 0.25 bound
    out = compare(parent, change, "lower", 0.25)
    assert out["change_wins"] == "0/10" and not out["gain"]
    assert out["regression"] == "worse"
    # a spread wider than the bound leaves a small move unresolved
    wide = [50.0, 150.0] * 5
    out = compare(wide, [w * 1.01 for w in wide], "higher", 0.25)
    assert out["regression"] == "unresolved" and not out["gain"]


def test_bench_pairs_smoke(monkeypatch, capsys, tmp_path):
    # one copy of the tree serves as both sides, so traced runs write their
    # spans into the copy; its benchmark runs last 0.05 s
    tree = tmp_path / "tree"
    skip = shutil.ignore_patterns("out", "__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(SCRIPTS.parent / part, tree / part, ignore=skip)
    bench = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    (tree / "BENCHMARK.json").write_text(json.dumps({**bench, "run_seconds": 0.05}))
    monkeypatch.chdir(tmp_path)
    argv = (str(tree), str(tree), "--label", "smoke", "--workloads", "fit", "--seed", "1",
            "--pairs", "2", "--claim", "fit", "ops_per_s")
    # a copy without git history cannot name the parent commit
    with pytest.raises(SystemExit, match="has no git commit"):
        run_script(monkeypatch, "bench_pairs.py", *argv)
    # a detached checkout's HEAD holds its commit
    commit = "0123456789abcdef0123456789abcdef01234567"
    (tree / ".git").mkdir()
    (tree / ".git" / "HEAD").write_text(commit + "\n")
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "bench_pairs.py", *argv)
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "wrote BENCH_smoke.json"
    assert any(line.endswith("[claimed]") for line in lines)
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["parent"] == commit
    # each side's BLAS thread count, or null where it cannot be read
    assert set(doc["blas_threads"]) == {"parent", "change"}
    assert all(n is None or n >= 1 for n in doc["blas_threads"].values())
    assert all(r["seconds"] == 0.05 for r in doc["runs"])
    assert [r["side"] for r in doc["runs"]] == ["parent", "change", "change", "parent",
                                               "parent", "change"]
    entry = doc["summary"][0]
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert set(entry["metrics"]) == {"setup_s", "peak_rss_mb", "op_s.tail", "ops_per_s"}
    # one tree against itself: the traced runs agree on every count
    assert doc["traced"][0]["correct"] == [True, True]
    assert doc["traced"][0]["counts_that_moved_parent_to_change"] == {}
