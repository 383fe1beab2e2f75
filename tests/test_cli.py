import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roblearn import (AllZeroWeights, Dataset, EllipsoidDiverged, LinearModel, LpBall,
                      UnsupportedGeometry, ZeroPerceptron, ZeroWeight, finite_source, load_csv,
                      load_model, margin_attack, perceptron_init, save_csv, save_model)
from roblearn import cli, reductions
from roblearn.cli import _exit_code, main

from ._refs import one_pass_ref


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
    text = Path(out).read_text()
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
    line = [l for l in Path(o1).read_text().splitlines() if "robust_accuracy" in l]
    line2 = [l for l in Path(o2).read_text().splitlines() if "robust_accuracy" in l]
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
    assert "robust_accuracy: 1" in Path(out).read_text()


def test_attack_saves_witnesses(tmp_path):
    data = write_band(tmp_path)
    model = write_model(tmp_path)
    wit = str(tmp_path / "wit.csv")
    out = str(tmp_path / "atk.txt")
    assert run(["attack", "--model", model, "--input", data, "--gamma", "2.5",
                "--save-witnesses", wit, "--output", out]) == 0
    text = Path(out).read_text()
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
        runs.append(Path(out).read_bytes())
    assert runs[0] == runs[1]

    runs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"ro-{tag}.txt")
        assert run(["roboost", "--gen", "gaussian", "--sigma", "0.1", "--n", "60",
                    "--eval-n", "100", "--gamma", "0.3", "--eps", "0.2",
                    "--beta", "0.5", "--rounds", "2", "--seed", "5",
                    "--output", out]) == 0
        runs.append(Path(out).read_bytes())
    assert runs[0] == runs[1]


def test_uroboost_gen_draws_unlabeled_rows_from_the_generator(tmp_path):
    # 20 labeled rows cannot fill a 30-row round; an endless generator can
    out = str(tmp_path / "u.txt")
    assert run(["uroboost", "--input", write_band(tmp_path), "--gen", "gaussian",
                "--per-round-m", "30", "--rounds", "3", "--gamma", "0.3", "--eps", "0.2",
                "--beta", "0.5", "--output", out]) == 0
    assert "rounds:\n  - round: 1\n" in Path(out).read_text()


def test_rcn_train_on_noisy_planted_data(tmp_path):
    csv = str(tmp_path / "noisy.csv")
    assert run(["gen-data", "--gen", "gaussian", "--center-pos", "1,0,0,0",
                "--sigma", "0.2", "--n", "800", "--eta", "0.15", "--seed", "2",
                "--out-csv", csv, "--output", str(tmp_path / "g.txt")]) == 0
    out = str(tmp_path / "rcn.txt")
    assert run(["rcn-train", "--input", csv, "--gamma", "0.5", "--rcn-eta", "0.15",
                "--seed", "4", "--output", out]) == 0
    text = Path(out).read_text()
    acc = float([l for l in text.splitlines() if "margin_accuracy" in l][0].split(":")[1])
    assert acc >= 0.75


def test_rejectron_cli_reports_rates(tmp_path):
    train = write_band(tmp_path, "train.csv", seed=1)
    test = write_band(tmp_path, "test.csv", seed=2)
    out = str(tmp_path / "rej.txt")
    sel = str(tmp_path / "sel.txt")
    assert run(["rejectron", "--input", train, "--test-input", test,
                "--eps", "0.2", "--save-selection", sel, "--output", out]) == 0
    text = Path(out).read_text()
    assert "train_rejection_rate: 0" in text
    assert "selective_test_error" in text
    assert Path(sel).read_text().startswith("selection-set v1")


def test_wm_cli_reports_bound(tmp_path):
    data = write_band(tmp_path)
    good = write_model(tmp_path, (1.0, 0.0), name="good.txt")
    bad = write_model(tmp_path, (-1.0, 0.0), name="bad.txt")
    out = str(tmp_path / "wm.txt")
    assert run(["wm", "--input", data, "--offset", "0,0", "--eta-wm", "0.5",
                "--pool", good, bad, "--output", out]) == 0
    text = Path(out).read_text()
    assert "bound_holds: true" in text
    assert "pool_opt: 0" in text


def test_cli_cycle_and_wm_take_the_row_wise_scan(tmp_path, monkeypatch, capsys):
    # the one-row oracles call reductions.attack; the row-wise forms never do
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(60, 2))
    data = str(tmp_path / "rows.csv")
    save_csv(data, Dataset(X + np.sign(X[:, :1]) * [1.0, 0.0], np.where(X[:, 0] >= 0, 1, -1)))
    pool = []
    for i, w in enumerate(([1.0, 0.0], [0.3, 1.0])):
        pool.append(str(tmp_path / f"pool{i}.txt"))
        save_model(pool[-1], LinearModel(np.array(w)))
    argvs = [["cycle-robust", "--input", data, "--gamma", "0.2", "--mistake-cap", "50"],
             ["wm", "--input", data, "--offset", "0,0", "--offset", "0.5,0", "--eta-wm", "0.5",
              "--pool", *pool]]
    want = []
    for argv in argvs:
        assert run(argv) == 0
        want.append(capsys.readouterr().out)

    def one_row(*args, **kwargs):
        raise AssertionError("a one-row attack ran")

    monkeypatch.setattr(reductions, "attack", one_row)
    for argv, out in zip(argvs, want):
        assert run(argv) == 0
        assert capsys.readouterr().out == out
    assert "updates: 0" not in want[0] and "mistakes: 0" not in want[1]


# ---------------------------------------------------------------------------
# one test per documented exit code: 2 config, 3 data, 4 infeasible,
# 5 optimizer; every failure is one "error:" line, never a traceback. The
# cases the single tests above pin are not repeated here.
# ---------------------------------------------------------------------------


def _fail_with(tmp_path, capsys, argv, code):
    band = write_band(tmp_path)
    model = write_model(tmp_path)
    clash = str(tmp_path / "clash.csv")
    save_csv(clash, Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1])))
    fill = {"BAND": band, "MODEL": model, "CLASH": clash, "MISSING": str(tmp_path / "absent.txt")}
    assert run([fill.get(a, a) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


BOOST = ["--gamma", "0.3", "--eps", "0.2", "--beta", "0.5", "--rounds", "2"]


@pytest.mark.parametrize("argv", [
    ["fms", "--input", "BAND", "--offset", "0,0", "--rounds", "0"],
    ["rcn-train", "--method", "glm", "--input", "BAND", "--gamma", "0", "--rcn-eta", "0.1"],
    ["rcn-train", "--input", "BAND", "--gamma", "0.3", "--rcn-eta", "0.1", "--steps", "0"],
    ["rcn-train", "--method", "glm", "--input", "BAND", "--gamma", "0.3", "--rcn-eta", "0.1",
     "--steps", "0"],
    ["roboost", "--input", "BAND", *BOOST, "--per-round-m", "0", "--learner", "erm"],
    ["uroboost", "--input", "BAND", "--unlabeled-input", "BAND", *BOOST, "--per-round-m", "0"],
    ["wm", "--input", "BAND", "--eta-wm", "0.5", "--pool", "MODEL"],
    ["rcn-train", "--input", "BAND", "--gamma", "0.3", "--rcn-eta", "0.1", "--q", "nan"],
    ["rcn-train", "--method", "glm", "--input", "BAND", "--gamma", "0.3", "--rcn-eta", "0.1",
     "--q", "inf"],
    [],  # no subcommand
    ["certify"],  # required flags absent
    # alpha-boost never sparsified its vote, so --sparsify-n is gone
    ["alpha-boost", "--input", "BAND", "--rounds", "4", "--sparsify-n", "5"],
    # the online learners check their bounds before any row is drawn
    ["one-pass", "--input", "BAND", "--gamma", "0.1", "--eps", "0.5", "--mistake-cap", "5",
     "--delta", "0"],
    ["one-pass", "--input", "BAND", "--gamma", "0.1", "--eps", "0.5", "--mistake-cap", "5",
     "--delta=-1"],
    ["one-pass", "--input", "BAND", "--gamma", "0.1", "--eps", "0.5", "--mistake-cap", "5",
     "--delta", "nan"],
    ["one-pass", "--input", "BAND", "--gamma", "0.1", "--eps", "0.5", "--mistake-cap", "0"],
    ["cycle-robust", "--input", "BAND", "--gamma", "0.1", "--mistake-cap", "0"],
    ["wm", "--input", "BAND", "--offset", "0,0", "--eta-wm", "0.5", "--pool", "MODEL",
     "--rounds=-3"],
    ["wm", "--input", "BAND", "--offset", "0,0", "--eta-wm", "0.5", "--pool", "MODEL",
     "--rounds", "0"],
])
def test_config_errors_exit_2(tmp_path, capsys, argv):
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("method", ["md", "glm"])
@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_rcn_train_rejects_a_non_finite_gamma(tmp_path, capsys, method, gamma):
    # nan used to train and exit 0; glm at inf printed a numpy warning first
    argv = ["rcn-train", "--method", method, "--input", "BAND", "--gamma", gamma, "--rcn-eta", "0.1"]
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err == "error: ValueError: gamma must be positive and finite\n"


def test_urejectron_rejects_a_nan_lambda_weight(tmp_path, capsys):
    # every pair used to score nan, and each round kept one
    argv = ["urejectron", "--input", "BAND", "--test-input", "BAND", "--eps", "0.25",
            "--backend", "pairs", "--pool", "MODEL", "MODEL", "--lambda-weight", "nan"]
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err == "error: ValueError: the training weight must be at least 1\n"


def test_help_prints_usage_and_exits_0(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: roblearn")


@pytest.mark.parametrize("argv", [
    ["certify", "--model", "MISSING", "--input", "BAND", "--gamma", "0.5"],
    ["certify", "--model", "BAND", "--input", "BAND", "--gamma", "0.5"],
])
def test_data_errors_exit_3(tmp_path, capsys, argv):
    _fail_with(tmp_path, capsys, argv, 3)


@pytest.mark.parametrize("argv", [
    ["cycle-robust", "--input", "POSITIVE", "--gamma", "0.1", "--mistake-cap", "5"],
    # a run of 4 survivors ends before the row labeled -1
    ["one-pass", "--input", "LEADING", "--gamma", "0.1", "--eps", "1", "--mistake-cap", "2"],
])
def test_an_all_zero_perceptron_is_a_data_error(tmp_path, capsys, argv):
    # the zero state predicts +1 everywhere, so positive rows never update it
    X = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, -1.0], [0.5, 0.5], [-1.0, 0.0]])
    files = {"POSITIVE": Dataset(X[:4], np.ones(4, dtype=np.int64)),
             "LEADING": Dataset(X, np.array([1, 1, 1, 1, -1]))}
    for name, data in files.items():
        save_csv(str(tmp_path / name), data)
    err = _fail_with(tmp_path, capsys, [str(tmp_path / a) if a in files else a for a in argv], 3)
    assert err == ("error: ZeroPerceptron: the perceptron ended with all-zero weights: it made "
                   "no update, and the zero state predicts +1 everywhere, so no row labeled -1 "
                   "was reached\n")


def test_one_pass_input_reads_its_first_row(tmp_path):
    # row 0 is the only mistake; skipping it would leave the zero perceptron
    X = np.array([[-1.0, 0.5], [2.0, 0.0], [1.5, 1.0], [3.0, -1.0], [-2.0, 0.3], [2.5, 0.2]])
    y = np.array([-1, 1, 1, 1, -1, 1])
    path, model = str(tmp_path / "rows.csv"), str(tmp_path / "one-pass.model")
    save_csv(path, Dataset(X, y))
    out = str(tmp_path / "res.txt")
    assert run(["one-pass", "--input", path, "--gamma", "0.1", "--eps", "1", "--mistake-cap", "2",
                "--save-model", model, "--output", out]) == 0
    diag = {}
    state = one_pass_ref(finite_source(load_csv(path)), perceptron_init(2),
                         margin_attack(LpBall(2.0, 0.1)), 1.0, 0.05, 2, diagnostics=diag)
    assert load_model(model).w.tobytes() == state.w.tobytes()
    assert f"updates: {diag['updates']}" in Path(out).read_text() and diag["updates"] == 1


def test_error_classes_map_to_their_exit_codes():
    assert _exit_code(AllZeroWeights("no positive weight")) == 3
    assert _exit_code(ZeroPerceptron("all zero")) == 3
    assert _exit_code(ZeroWeight("all zero")) == 5
    assert _exit_code(EllipsoidDiverged("grew without bound")) == 5
    assert _exit_code(UnsupportedGeometry("no oracle")) == 2
    assert _exit_code(ValueError("bad value")) == 2


@pytest.mark.parametrize("argv", [
    ["transductive-pool", "--input", "BAND", "--test-input", "BAND", "--pool", "MODEL",
     "--gamma", "5.0"],
    ["cycle-robust", "--input", "CLASH", "--gamma", "0.1", "--mistake-cap", "3"],
    ["one-pass", "--input", "CLASH", "--gamma", "0.1", "--eps", "0.01", "--mistake-cap", "5"],
    ["roboost", "--input", "CLASH", *BOOST, "--per-round-m", "5"],
])
def test_infeasible_runs_exit_4(tmp_path, capsys, argv):
    _fail_with(tmp_path, capsys, argv, 4)


@pytest.mark.parametrize("argv", [
    ["robustify", "--input", "CLASH", "--offset", "0,0", "--rounds", "2", "--inner-rounds", "2"],
])
def test_optimizer_failures_exit_5(tmp_path, capsys, argv):
    _fail_with(tmp_path, capsys, argv, 5)


def test_every_command_row_has_a_handler_and_every_handler_a_row():
    handlers = {n for n, v in vars(cli).items() if n.startswith("_cmd_") and callable(v)}
    assert handlers == {"_cmd_" + name.replace("-", "_") for name in cli.COMMANDS}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_echoed_keys_name_flags_of_their_row(name):
    row = cli.COMMANDS[name]
    flags = {flag for flag, _kw in cli._row_flags(row)}
    assert {f"--{key}" for key in row.echo.split()} <= flags
