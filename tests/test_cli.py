import subprocess
import sys

import numpy as np
import pytest

from roblearn import Dataset, LinearModel, load_csv, save_csv, save_model
from roblearn.cli import main


def run(argv):
    return main(list(argv))


def write_band(tmp_path, name="train.csv", n_side=10, seed=0):
    rng = np.random.default_rng(seed)
    xs = 1.5 + 0.3 * rng.random(n_side)
    X = np.concatenate([np.column_stack([xs, rng.random(n_side) - 0.5]),
                        np.column_stack([-xs, rng.random(n_side) - 0.5])])
    y = np.concatenate([np.ones(n_side), -np.ones(n_side)]).astype(np.int64)
    path = str(tmp_path / name)
    save_csv(path, Dataset(X, y))
    return path


def write_model(tmp_path, w=(1.0, 0.0), bias=0.0, name="model.txt"):
    path = str(tmp_path / name)
    save_model(path, LinearModel(np.array(w, dtype=float), bias))
    return path


def test_entry_point_subprocess(tmp_path):
    data = write_band(tmp_path)
    model = write_model(tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "roblearn.cli", "certify", "--model", model,
         "--input", data, "--gamma", "0.5"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "robust_accuracy: 1" in out.stdout


def test_missing_subcommand_is_config_error():
    assert run([]) == 2
    assert run(["certify"]) == 2  # required flags absent


def test_missing_file_is_data_error(tmp_path):
    model = write_model(tmp_path)
    code = run(["certify", "--model", model, "--input", str(tmp_path / "nope.csv"),
                "--gamma", "0.5"])
    assert code == 3


def test_unseparable_input_is_infeasible(tmp_path):
    path = str(tmp_path / "clash.csv")
    save_csv(path, Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1])))
    code = run(["rerm-ellipsoid", "--input", path, "--gamma", "0.2"])
    assert code == 4


def test_weak_learner_failure_is_optimizer_error(tmp_path):
    path = str(tmp_path / "clash.csv")
    save_csv(path, Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1])))
    code = run(["alpha-boost", "--input", path, "--rounds", "3"])
    assert code == 5


def test_bad_ball_is_config_error(tmp_path):
    data = write_band(tmp_path)
    model = write_model(tmp_path)
    code = run(["certify", "--model", model, "--input", data,
                "--gamma", "0.5", "--p", "0.5"])
    assert code == 2


def test_certify_writes_output_file(tmp_path):
    data = write_band(tmp_path)
    model = write_model(tmp_path)
    out = str(tmp_path / "res.txt")
    assert run(["certify", "--model", model, "--input", data, "--gamma", "0.5",
                "--output", out]) == 0
    text = open(out).read()
    assert "subcommand: certify" in text
    assert "robust_accuracy: 1" in text


def test_output_into_missing_directory_is_data_error(tmp_path, capsys):
    data = write_band(tmp_path)
    model = write_model(tmp_path)
    out = str(tmp_path / "absent" / "res.txt")
    assert run(["certify", "--model", model, "--input", data, "--gamma", "0.5",
                "--output", out]) == 3
    assert "IoError" in capsys.readouterr().err


def test_certify_methods_agree(tmp_path, capsys):
    data = write_band(tmp_path)
    model = write_model(tmp_path, w=(1.0, 0.2), bias=0.05)
    o1, o2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert run(["certify", "--model", model, "--input", data, "--gamma", "0.4",
                "--method", "closed", "--output", o1]) == 0
    assert run(["certify", "--model", model, "--input", data, "--gamma", "0.4",
                "--method", "ellipsoid", "--output", o2]) == 0
    line = [l for l in open(o1).read().splitlines() if "robust_accuracy" in l]
    line2 = [l for l in open(o2).read().splitlines() if "robust_accuracy" in l]
    assert line == line2


def test_gen_data_pipeline(tmp_path):
    csv = str(tmp_path / "gen.csv")
    assert run(["gen-data", "--gen", "gaussian", "--n", "50", "--sigma", "0.1",
                "--seed", "7", "--out-csv", csv,
                "--output", str(tmp_path / "gen.txt")]) == 0
    data = load_csv(csv)
    assert data.n == 50 and data.d == 2
    model = write_model(tmp_path)
    out = str(tmp_path / "cert.txt")
    assert run(["certify", "--model", model, "--input", csv, "--gamma", "0.5",
                "--output", out]) == 0
    assert "robust_accuracy: 1" in open(out).read()


def test_attack_saves_witnesses(tmp_path):
    data = write_band(tmp_path)
    model = write_model(tmp_path)
    wit = str(tmp_path / "wit.csv")
    out = str(tmp_path / "atk.txt")
    assert run(["attack", "--model", model, "--input", data, "--gamma", "2.5",
                "--save-witnesses", wit, "--output", out]) == 0
    text = open(out).read()
    assert "attacked_fraction: 1" in text
    witnesses = load_csv(wit)
    assert witnesses.n == 20


def test_negative_values_need_the_equals_form(tmp_path):
    data = write_band(tmp_path)
    out = str(tmp_path / "g.txt")
    code = run(["gen-data", "--gen", "gaussian", "--center-pos=-2,0",
                "--n", "10", "--out-csv", str(tmp_path / "neg.csv"),
                "--output", out])
    assert code == 0
    gen = load_csv(str(tmp_path / "neg.csv"))
    centers = {tuple(x) for x in np.abs(gen.X).round(6)}
    assert centers == {(2.0, 0.0)}


def test_subcommands_are_byte_deterministic(tmp_path):
    data = write_band(tmp_path)
    runs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"boost-{tag}.txt")
        assert run(["alpha-boost", "--input", data, "--rounds", "4",
                    "--seed", "3", "--output", out]) == 0
        runs.append(open(out, "rb").read())
    assert runs[0] == runs[1]

    runs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"ro-{tag}.txt")
        assert run(["roboost", "--gen", "gaussian", "--sigma", "0.1", "--n", "60",
                    "--eval-n", "100", "--gamma", "0.3", "--eps", "0.2",
                    "--beta", "0.5", "--rounds", "2", "--seed", "5",
                    "--output", out]) == 0
        runs.append(open(out, "rb").read())
    assert runs[0] == runs[1]


def test_rcn_train_on_noisy_planted_data(tmp_path):
    csv = str(tmp_path / "noisy.csv")
    assert run(["gen-data", "--gen", "gaussian", "--center-pos", "1,0,0,0",
                "--sigma", "0.2", "--n", "800", "--eta", "0.15", "--seed", "2",
                "--out-csv", csv, "--output", str(tmp_path / "g.txt")]) == 0
    out = str(tmp_path / "rcn.txt")
    assert run(["rcn-train", "--input", csv, "--gamma", "0.5", "--rcn-eta", "0.15",
                "--seed", "4", "--output", out]) == 0
    text = open(out).read()
    acc = float([l for l in text.splitlines() if "margin_accuracy" in l][0].split(":")[1])
    assert acc >= 0.75


def test_rejectron_cli_reports_rates(tmp_path):
    train = write_band(tmp_path, "train.csv", seed=1)
    test = write_band(tmp_path, "test.csv", seed=2)
    out = str(tmp_path / "rej.txt")
    sel = str(tmp_path / "sel.txt")
    assert run(["rejectron", "--input", train, "--test-input", test,
                "--eps", "0.2", "--save-selection", sel, "--output", out]) == 0
    text = open(out).read()
    assert "train_rejection_rate: 0" in text
    assert "selective_test_error" in text
    assert open(sel).read().startswith("selection-set v1")


def test_wm_cli_reports_bound(tmp_path):
    data = write_band(tmp_path)
    good = write_model(tmp_path, (1.0, 0.0), name="good.txt")
    bad = write_model(tmp_path, (-1.0, 0.0), name="bad.txt")
    out = str(tmp_path / "wm.txt")
    assert run(["wm", "--input", data, "--offset", "0,0", "--eta-wm", "0.5",
                "--pool", good, bad, "--output", out]) == 0
    text = open(out).read()
    assert "bound_holds: true" in text
    assert "pool_opt: 0" in text