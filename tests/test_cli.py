import json
import sys

import pytest

from ratnet.cli import DEFAULTS, _resolve, build_parser, main
from ratnet.rational import RAW, RationalFunction, init_identity


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [l for l in captured.out.strip().splitlines() if l]
    assert len(lines) == 1, "stdout must carry exactly one JSON object"
    return code, json.loads(lines[0])


def write_rf(tmp_path, rf, name="rf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rf.to_dict()))
    return str(path)


class TestFitCommand:
    def test_fit_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, result = run_cli(capsys, "fit", "--ref", "lrelu", "--m", "5",
                               "--n", "4", "--seed", "0", "--max-iters", "4000",
                               "--out", str(out))
        assert code == 0
        assert result["final_mse"] <= 1e-3
        rf = RationalFunction.from_dict(
            json.loads((out / "rational.json").read_text()))
        assert rf.m == 5 and rf.n == 4
        header = (out / "fit_profile.csv").read_text().splitlines()[0]
        assert header == "x,target,fitted"

    def test_fit_identity_recovers_coefficients(self, capsys):
        code, result = run_cli(capsys, "fit", "--ref", "identity", "--m", "1",
                               "--n", "0", "--seed", "0", "--max-iters", "2000")
        assert code == 0
        num = result["rational"]["numerator"]
        assert num[0] == pytest.approx(0.0, abs=1e-4)
        assert num[1] == pytest.approx(1.0, abs=1e-4)

    def test_degree_rule_usage_error(self, capsys):
        code, result = run_cli(capsys, "fit", "--ref", "lrelu", "--m", "0",
                               "--n", "4", "--max-iters", "100")
        assert code == 1
        assert "error" in result

    def test_negative_max_iters_usage_error(self, capsys):
        code, result = run_cli(capsys, "fit", "--ref", "lrelu", "--max-iters", "-1")
        assert code == 1
        assert "max_iters" in result["error"]

    def test_config_file_defaults_and_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ref": "identity", "m": 1, "n": 0,
                                   "max_iters": 1500}))
        code, result = run_cli(capsys, "fit", "--config", str(cfg))
        assert code == 0
        assert result["final_mse"] <= 1e-8
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        code, result = run_cli(capsys, "fit", "--config", str(bad))
        assert code == 1
        assert "nonsense" in result["error"]


class TestDistanceCommand:
    def test_same_file_twice(self, tmp_path, capsys):
        path = write_rf(tmp_path, init_identity(5, 4))
        code, result = run_cli(capsys, "distance", "--f1", path, "--f2", path,
                               "--quad-points", "501")
        assert code == 0
        assert result["value"] <= 1e-6
        assert set(result) >= {"value", "a", "b", "c", "d"}

    def test_named_references(self, capsys):
        code, result = run_cli(capsys, "distance", "--f1", "sigmoid",
                               "--f2", "tanh", "--quad-points", "501")
        assert code == 0
        assert result["value"] <= 1e-2

    def test_missing_argument_errors(self, capsys):
        code, result = run_cli(capsys, "distance", "--f1", "tanh")
        assert code == 1
        assert "error" in result


class TestAbsorbCommand:
    def test_identity_absorbs_to_two_x(self, tmp_path, capsys):
        path = write_rf(tmp_path, init_identity(1, 0, variant=RAW))
        code, result = run_cli(capsys, "absorb", "--rf", path)
        assert code == 0
        assert result["numerator"] == [0.0, 2.0]

    def test_safe_variant_errors(self, tmp_path, capsys):
        path = write_rf(tmp_path, init_identity(5, 4))
        code, result = run_cli(capsys, "absorb", "--rf", path)
        assert code == 1


class TestTrainCommand:
    def test_blobs_training(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, result = run_cli(capsys, "train", "--dataset", "blobs",
                               "--samples", "30", "--hidden", "8",
                               "--epochs", "10", "--lr", "0.05",
                               "--seed", "0", "--out", str(out))
        assert code == 0
        assert result["final_train_accuracy"] >= 0.95
        doc = json.loads((out / "network.json").read_text())
        assert len(doc["layers"]) == 2

    def test_csv_dataset_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = ["0,-1.0,-1.2", "0,-0.8,-1.1", "1,1.0,0.9", "1,1.2,1.1"]
        data.write_text("\n".join(rows) + "\n")
        code, result = run_cli(capsys, "train", "--data", str(data),
                               "--hidden", "4", "--epochs", "30",
                               "--lr", "0.05", "--seed", "1")
        assert code == 0
        assert result["final_train_accuracy"] == 1.0


class TestRlCommand:
    def test_short_run_emits_curve_and_scores(self, tmp_path, capsys):
        out = tmp_path / "rl"
        code, result = run_cli(capsys, "rl", "--activation", "lrelu",
                               "--steps", "400", "--seed", "0",
                               "--out", str(out))
        assert code == 0
        assert "curve" in result and "normalized" in result
        scores = (out / "scores.csv").read_text().splitlines()
        assert scores[0] == "agent,random,baseline,normalized"

    @pytest.mark.parametrize("flag, value, field", [
        ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
        ("--steps", "-1", "train_steps")])
    def test_bad_config_rejected_before_training(self, tmp_path, capsys,
                                                 flag, value, field):
        out = tmp_path / "rl"
        code, result = run_cli(capsys, "rl", flag, value, "--out", str(out))
        assert code == 1
        assert result["error"].startswith(f"ValueError: {field}")
        assert not out.exists()


class TestProfileCommand:
    def test_profile_csv_format(self, tmp_path, capsys):
        path = write_rf(tmp_path, init_identity(5, 4))
        out = tmp_path / "p"
        code, result = run_cli(capsys, "profile", "--rf", path,
                               "--points", "11", "--out", str(out))
        assert code == 0
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "x,value,density"
        assert len(lines) == 12
        mid = lines[6].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 0.0

    def test_per_slot_profiles_from_trained_network(self, tmp_path, capsys):
        # train writes a network with tracked histograms; profile exports
        # one CSV per rational slot
        run_dir = tmp_path / "run"
        code, _ = run_cli(capsys, "train", "--dataset", "blobs", "--samples",
                          "20", "--hidden", "4,4", "--epochs", "2",
                          "--seed", "0", "--out", str(run_dir))
        assert code == 0
        out = tmp_path / "profiles"
        code, result = run_cli(capsys, "profile", "--network",
                               str(run_dir / "network.json"),
                               "--points", "21", "--out", str(out))
        assert code == 0
        assert len(result["slots"]) == 2
        for sid in result["slots"]:
            lines = (out / f"profile_{sid}.csv").read_text().splitlines()
            assert lines[0] == "x,value,density"
            assert len(lines) == 22
            # tracked histograms give a real density column
            densities = [float(l.split(",")[2]) for l in lines[1:]]
            assert max(densities) > 0.0


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_parser_flags_match_defaults(self, command):
        args = vars(build_parser().parse_args([command]))
        assert set(args) - {"command", "config"} == set(DEFAULTS[command])

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_config_naming_every_key_accepted(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DEFAULTS[command]))
        args = build_parser().parse_args([command, "--config", str(cfg)])
        assert _resolve(args, command) == DEFAULTS[command]

    def test_distance_accepts_seed(self, capsys):
        argv = ("distance", "--f1", "sigmoid", "--f2", "tanh", "--quad-points", "301")
        code, result = run_cli(capsys, *argv, "--seed", "3")
        assert code == 0
        # the distance is deterministic, so the seed changes nothing
        assert run_cli(capsys, *argv, "--seed", "4") == (code, result)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("fit", "--ref", "lrelu", "--m", "3", "--n", "2", "--seed", "7",
         "--max-iters", "300"),
        ("distance", "--f1", "sigmoid", "--f2", "tanh", "--seed", "7",
         "--quad-points", "301"),
        ("train", "--dataset", "blobs", "--samples", "20", "--hidden", "4",
         "--epochs", "3", "--seed", "7"),
        ("rl", "--activation", "shared-rational", "--steps", "300",
         "--seed", "7"),
    ])
    def test_repeated_runs_byte_identical(self, tmp_path, capsys, argv):
        outputs = []
        artifacts = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            code = main([*argv, "--out", str(out)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
            artifacts.append(sorted(
                (p.name, p.read_bytes()) for p in out.rglob("*") if p.is_file()))
        assert outputs[0] == outputs[1]
        assert artifacts[0] == artifacts[1]
