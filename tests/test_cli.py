import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roblearn import (AllZeroWeights, ConfigError, Dataset, EllipsoidDiverged, LinearModel, LpBall,
                      UnsupportedGeometry, WeightedDataset, ZeroPerceptron, ZeroWeight, erm_linear,
                      finite_source, load_csv, load_model, margin_attack, perceptron_init, save_csv,
                      save_model)
from roblearn import _kernels, cli
from roblearn.cli import EXIT_INTERNAL, _exit_code, main

from ._refs import dual_exponent_ref, norm_ref, one_pass_ref
from .test_golden import CASES, write_inputs
from .test_oracles import count_certify_steps


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


@pytest.mark.parametrize("p", ["2", "inf"])
def test_certify_methods_agree_on_balls_wider_than_the_default_start(tmp_path, capsys, p):
    # each ball crosses the decision boundary, 24 / sqrt 2 = 17.0 from its row
    # in l2 and 12 in l-inf, but a start ellipsoid of radius 10 does not reach
    # it, so the search certified both rows; the start radius now grows to the
    # ball's reach
    data = str(tmp_path / "far.csv")
    save_csv(data, Dataset(np.array([[12.0, 12.0], [-12.0, -12.0]]), np.array([1, -1])))
    model = write_model(tmp_path, w=(1.0, 1.0))
    for method in ("closed", "ellipsoid"):
        assert run(["certify", "--model", model, "--input", data, "--gamma", "19", "--p", p,
                    "--method", method]) == 0
        assert "  robust_accuracy: 0\n" in capsys.readouterr().out


def _rows_near(rng, w, bias, spread, n):
    """n rows about a biased model with decision values uniform in
    [-spread, spread], a tenth of the labels flipped."""
    X = rng.normal(0.0, 1.2, (n, w.size))
    X += np.outer(rng.uniform(-spread, spread, n) - (X @ w + bias), w / (w @ w))
    y = np.where(X @ w + bias >= 0.0, 1, -1)
    y[rng.random(n) < 0.1] *= -1
    return X, y


@pytest.mark.parametrize("p", ["1", "2", "inf"])
def test_ellipsoid_certify_cross_checks_the_closed_form(tmp_path, capsys, monkeypatch, p):
    # random rows around a biased model, about a third of them attacked; then
    # rows whose decision values lie within 3 gamma ||w||_* of 0, in R^3 and
    # in R^1 (bisection), so many searches take several cuts. Rows whose
    # robust margin is within rounding of 0 are left out, as the two methods
    # may break such ties apart
    rng = np.random.default_rng(["1", "2", "inf"].index(p))
    w, bias, gamma = np.array([1.0, -0.6, 0.3]), 0.25, 0.4
    X = rng.normal(0.0, 1.2, (300, 3))
    y = np.where(X @ w + bias >= 0.0, 1, -1)
    y[rng.random(300) < 0.1] *= -1
    inputs = [(w, X, y)]
    for v in (w, np.array([1.3])):
        spread = 3.0 * gamma * norm_ref(v, dual_exponent_ref(float(p)))
        inputs.append((v, *_rows_near(rng, v, bias, spread, 300)))
    steps = count_certify_steps(monkeypatch)
    for k, (w, X, y) in enumerate(inputs):
        raw, shift = y * (X @ w + bias), gamma * norm_ref(w, dual_exponent_ref(float(p)))
        clear = np.abs(raw - shift) > 1e-9 * (np.abs(raw) + shift)
        data = str(tmp_path / f"rows{k}.csv")
        model = write_model(tmp_path, w=tuple(w), bias=bias, name=f"model{k}.txt")
        save_csv(data, Dataset(X[clear], y[clear]))
        printed = []
        for method in ("closed", "ellipsoid"):
            assert run(["certify", "--model", model, "--input", data, "--gamma", str(gamma),
                        "--p", p, "--method", method]) == 0
            printed.append([l for l in capsys.readouterr().out.splitlines() if "robust_accuracy" in l])
        assert printed[0] == printed[1]
        assert 0.4 < float(printed[0][0].split(":")[1]) < 0.9
        assert np.count_nonzero(steps[-1] > 1) >= 50  # searches past their first cut


@pytest.mark.parametrize("gamma", ["0", "1e-9"])
def test_balls_below_volume_eps_still_query_every_row(tmp_path, capsys, gamma):
    # a row search over a ball of radius 0 or below volume_eps = 1e-6 starts
    # at radius volume_eps, which leaves one query, the row itself: certify
    # still finds the rows the model gets wrong at x, and rerm still fits
    # every row of the separable band
    band = write_band(tmp_path)
    rows = load_csv(band)
    w = (0.2, 1.0)
    model = write_model(tmp_path, w=w)
    right = rows.y * (rows.X @ np.array(w)) > 0.0
    assert 0 < np.count_nonzero(right) < rows.n
    for method in ("closed", "ellipsoid"):
        assert run(["certify", "--model", model, "--input", band, "--gamma", gamma,
                    "--method", method]) == 0
        printed = [l for l in capsys.readouterr().out.splitlines() if "robust_accuracy" in l]
        assert float(printed[0].split(":")[1]) == 1.0 - np.count_nonzero(~right) / rows.n
    fitted = str(tmp_path / "rerm.model")
    for p in ("2", "inf"):
        assert run(["rerm-ellipsoid", "--input", band, "--gamma", gamma, "--p", p,
                    "--save-model", fitted]) == 0
        assert "  robust_accuracy: 1\n" in capsys.readouterr().out
        assert np.all(rows.y * (rows.X @ load_model(fitted).w) > 0.0)


def test_a_malformed_vector_flag_is_a_config_error(tmp_path, capsys):
    err = _fail_with(tmp_path, capsys, ["fms", "--input", "BAND", "--offset", "1,x"], 2)
    assert "not a comma-separated vector: '1,x'" in err


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


# ---------------------------------------------------------------------------
# one test per documented exit code: 2 config, 3 data, 4 infeasible,
# 5 optimizer; every failure is one "error:" line, never a traceback. The
# cases the single tests above pin are not repeated here.
# ---------------------------------------------------------------------------


# model files that name a bad number, each a data error at its row and column
BAD_MODELS = {"W_ABC": "w: 1 abc", "W_NAN": "w: nan 1", "BIAS_INF": "w: 1 0\nbias: inf",
              "W_ZERO": "w: 0 0"}


def _fail_with(tmp_path, capsys, argv, code):
    band = write_band(tmp_path)
    model = write_model(tmp_path)
    clash = str(tmp_path / "clash.csv")
    save_csv(clash, Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1])))
    band3 = str(tmp_path / "band3.csv")  # the band rows with a third, zero column
    rows = load_csv(band)
    save_csv(band3, Dataset(np.column_stack([rows.X, np.zeros(rows.n)]), rows.y))
    fill = {"BAND": band, "MODEL": model, "CLASH": clash, "MISSING": str(tmp_path / "absent.txt"),
            "BAND3": band3, "MODEL3": write_model(tmp_path, (1.0, 0.0, 0.0), name="model3.txt")}
    for name, body in BAD_MODELS.items():
        fill[name] = str(tmp_path / name)
        Path(fill[name]).write_text(f"linear-model v1\n{body}\n")
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
    # a start ball wide enough to hold these balls cannot be searched
    ["certify", "--model", "MODEL", "--input", "BAND", "--gamma", "1e200", "--method", "ellipsoid"],
    ["certify", "--model", "MODEL", "--input", "BAND", "--gamma", "inf", "--method", "ellipsoid"],
    # a nan radius used to certify every row, attack none, or blame the vector entries
    ["certify", "--model", "MODEL", "--input", "BAND", "--gamma", "nan"],
    ["attack", "--model", "MODEL", "--input", "BAND", "--gamma", "nan"],
    ["cycle-robust", "--input", "BAND", "--gamma", "nan", "--mistake-cap", "5"],
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
    # alpha-boost checks its config before it divides by delta or reweights by alpha
    ["alpha-boost", "--input", "BAND", "--delta", "0"],
    ["alpha-boost", "--input", "BAND", "--delta=-0.0"],
    ["alpha-boost", "--input", "BAND", "--delta", "nan"],
    ["alpha-boost", "--input", "BAND", "--alpha", "inf"],
    ["alpha-boost", "--input", "BAND", "--agreement-mode", "--rounds", "0"],
    # a nan or negative radius used to run with no perturbation
    ["alpha-boost", "--input", "BAND", "--gamma", "nan"],
    ["alpha-boost", "--input", "BAND", "--gamma=-1"],
    ["robustify", "--input", "BAND", "--offset", "0,0", "--rounds", "0"],
    ["fms", "--input", "BAND", "--offset", "0,0", "--eps", "0"],
    ["fms", "--input", "BAND", "--offset", "0,0", "--eps=-1"],
    ["fms", "--input", "BAND", "--offset", "0,0", "--eta-mw", "nan"],
    ["fms", "--input", "BAND", "--offset", "0,0", "--eta-mw", "inf"],
    ["roboost", "--gen", "moons", "--noise", "nan", *BOOST],
    ["roboost", "--gen", "margin-union", "--cluster", "1,0:nan", *BOOST],
    # an infinite weight scores every pair that agrees on the training rows inf * 0
    ["urejectron", "--input", "BAND", "--test-input", "BAND", "--eps", "0.25",
     "--backend", "pairs", "--pool", "MODEL", "MODEL", "--lambda-weight", "inf"],
    # an infinite radius has no finite witness to save
    ["attack", "--model", "MODEL", "--input", "BAND", "--gamma", "inf",
     "--save-witnesses", "MISSING"],
    # inputs of another dimension than --input's used to end in a numpy error
    ["certify", "--model", "MODEL3", "--input", "BAND", "--gamma", "0.5"],
    ["certify", "--model", "MODEL3", "--input", "BAND", "--gamma", "0.5", "--method", "ellipsoid"],
    ["attack", "--model", "MODEL3", "--input", "BAND", "--gamma", "0.5"],
    ["transductive-pool", "--input", "BAND", "--test-input", "BAND", "--pool", "MODEL", "MODEL3",
     "--gamma", "0.2"],
    ["urejectron", "--input", "BAND", "--test-input", "BAND", "--eps", "0.25", "--backend", "pairs",
     "--pool", "MODEL", "MODEL3"],
    ["wm", "--input", "BAND", "--offset", "0,0", "--eta-wm", "0.5", "--pool", "MODEL", "MODEL3"],
    ["rcn-train", "--input", "BAND", "--test-input", "BAND3", "--gamma", "0.3", "--rcn-eta", "0.1",
     "--steps", "50"],
    ["one-pass", "--gen", "gaussian", "--sigma", "0.1", "--test-input", "BAND3", "--gamma", "0.2",
     "--eps", "0.5", "--mistake-cap", "50"],
    ["roboost", "--input", "BAND", "--test-input", "BAND3", *BOOST],
    ["roboost", "--gen", "gaussian", "--sigma", "0.1", "--test-input", "BAND3", *BOOST],
    ["uroboost", "--input", "BAND", "--unlabeled-input", "BAND3", *BOOST],
    ["uroboost", "--input", "BAND", "--unlabeled-input", "BAND", "--test-input", "BAND3", *BOOST],
    ["rejectron", "--input", "BAND", "--test-input", "BAND3", "--eps", "0.25"],
    ["urejectron", "--input", "BAND", "--test-input", "BAND3", "--eps", "0.25"],
    ["transductive-pool", "--input", "BAND", "--test-input", "BAND3", "--pool", "MODEL",
     "--gamma", "0.2"],
    ["wm", "--input", "BAND", "--offset", "0,0,0", "--eta-wm", "0.5", "--pool", "MODEL"],
    ["fms", "--input", "BAND", "--offset", "0,0,0"],
    ["robustify", "--input", "BAND", "--offset", "0,0", "--offset", "0.1,0,0"],
    ["transductive-pool", "--input", "BAND", "--test-input", "BAND", "--pool", "MODEL",
     "--offset", "0"],
    ["wm", "--input", "BAND", "--offset", "0,0", "--offset", "1", "--eta-wm", "0.5", "--pool", "MODEL"],
    ["alpha-boost", "--input", "BAND", "--offset", "0,0", "--offset", "1"],
    ["roboost", "--gen", "margin-union", "--cluster", "1,0:abc", *BOOST],
    ["roboost", "--gen", "margin-union", "--cluster", "1,0:1:zz", *BOOST],
    # no source ("provide --input or --gen", "provide --unlabeled-input or --gen ...") or
    # no cluster ("margin-union needs at least one --cluster")
    ["roboost", *BOOST],
    ["one-pass", "--gamma", "0.3", "--eps", "0.2", "--mistake-cap", "5"],
    ["uroboost", "--input", "BAND", *BOOST],
    ["roboost", "--gen", "margin-union", *BOOST],
    # a fourth field used to be dropped, and the junk echoed in the document
    ["gen-data", "--gen", "margin-union", "--cluster", "1,0:1:0:junk", "--out-csv", "MISSING"],
    # robustify checks its own ranges before it draws or sparsifies
    ["robustify", "--input", "BAND", "--offset", "0,0", "--subsample", "0"],
    ["robustify", "--input", "BAND", "--offset", "0,0", "--subsample=-1"],
    ["robustify", "--input", "BAND", "--offset", "0,0", "--sparsify-n", "0"],
    ["robustify", "--input", "BAND", "--offset", "0,0", "--sparsify-n=-1"],
])
def test_config_errors_exit_2(tmp_path, capsys, argv):
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err.count("\n") == 1 and err.endswith("\n")


def test_gen_data_without_gen_names_the_flag(tmp_path, capsys):
    # this used to say "unknown generator None"
    err = _fail_with(tmp_path, capsys, ["gen-data", "--out-csv", "MISSING"], 2)
    assert err == "error: ConfigError: provide --gen\n"


@pytest.mark.parametrize("method", ["md", "glm"])
@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_rcn_train_rejects_a_non_finite_gamma(tmp_path, capsys, method, gamma):
    # nan used to train and exit 0; glm at inf printed a numpy warning first
    argv = ["rcn-train", "--method", method, "--input", "BAND", "--gamma", gamma, "--rcn-eta", "0.1"]
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err == "error: ConfigError: gamma must be positive and finite\n"


def test_urejectron_pairs_without_a_pool_names_the_flag(tmp_path, capsys):
    argv = ["urejectron", "--input", "BAND", "--test-input", "BAND", "--eps", "0.25",
            "--backend", "pairs"]
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err == "error: ConfigError: pairs backend needs --pool model files\n"


def test_urejectron_rejects_a_nan_lambda_weight(tmp_path, capsys):
    # every pair used to score nan, and each round kept one
    argv = ["urejectron", "--input", "BAND", "--test-input", "BAND", "--eps", "0.25",
            "--backend", "pairs", "--pool", "MODEL", "MODEL", "--lambda-weight", "nan"]
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err == "error: ConfigError: the training weight must be at least 1\n"


def test_alpha_boost_agreement_mode_runs_on_one_row(tmp_path, capsys):
    # with one row, ln m = 0 gave zero rounds, and the agreement-mode alpha divided by them
    path = str(tmp_path / "one.csv")
    save_csv(path, Dataset(np.array([[1.5, 0.2]]), np.array([1])))
    assert run(["alpha-boost", "--input", path, "--agreement-mode"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and "  rounds: 78\n" in out.out


def test_fms_and_alpha_boost_train_each_distinct_problem_once(tmp_path, capsys, monkeypatch):
    # the band holds every offset, so fms's weights never move and
    # alpha-boost's cycle through two roundings of one distribution: every
    # repeated round reuses its fit instead of running the kernel again
    calls = []
    train = _kernels.hinge_train

    def counted(*args):
        calls.append(args[2].tobytes())
        return train(*args)

    monkeypatch.setattr(_kernels, "hinge_train", counted)
    data = write_band(tmp_path)
    offsets = ["--offset", "0,0", "--offset", "0.3,0", "--offset=-0.3,0"]
    assert run(["fms", "--input", data, *offsets, "--rounds", "12"]) == 0
    assert "  rounds: 12\n  eta:" in capsys.readouterr().out and len(calls) == 1
    calls.clear()
    assert run(["alpha-boost", "--input", data, *offsets, "--rounds", "12"]) == 0
    assert "  rounds: 12\n" in capsys.readouterr().out and len(calls) == len(set(calls)) <= 2


def test_urejectron_err_q_counts_over_the_scores_of_the_sweep(tmp_path, monkeypatch):
    # err_q at threshold t is the wrong share of the test rows the sweep scored >= t;
    # scores recomputed from the stored shifted model put 195 of 401 entries off here
    rng = np.random.default_rng(5)

    def pair(n):
        y = np.where(rng.random(n) < 0.5, 1, -1)
        return np.where((y == 1)[:, None], [2.0, 0.0], [-2.0, 0.0]) + 0.3 * rng.standard_normal((n, 2)), y

    train, test = Dataset(*pair(400)), Dataset(*pair(400))
    test.X[:200], test.y[:200] = [0.3, 6.0] + 0.2 * rng.standard_normal((200, 2)), -1
    paths = [str(tmp_path / name) for name in ("train.csv", "test.csv")]
    for path, data in zip(paths, (train, test)):
        save_csv(path, data)
    real, returned = cli.urejectron, []

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(cli, "urejectron", spy)
    doc = cli._cmd_urejectron(cli._parse(["urejectron", "--input", paths[0], "--test-input", paths[1],
                                          "--eps", "0.1", "--backend", "t1"]))
    _, scores, _ = returned[0]
    wrong = erm_linear(WeightedDataset.uniform(load_csv(paths[0]))).predict_batch(test.X) != test.y
    assert len(doc["tradeoff"]) == test.n + 1
    for row in doc["tradeoff"]:
        kept = scores >= row["threshold"]
        assert row["err_q"] == np.count_nonzero(kept & wrong) / max(np.count_nonzero(kept), 1)


def test_help_prints_usage_and_exits_0(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: roblearn")


@pytest.mark.parametrize("argv", [
    ["certify", "--model", "MISSING", "--input", "BAND", "--gamma", "0.5"],
    ["certify", "--model", "BAND", "--input", "BAND", "--gamma", "0.5"],
    *(["certify", "--model", name, "--input", "BAND", "--gamma", "0.5"] for name in BAD_MODELS),
    ["wm", "--input", "BAND", "--offset", "0,0", "--eta-wm", "0.5", "--pool", "MODEL", "W_ZERO"],
])
def test_data_errors_exit_3(tmp_path, capsys, argv):
    err = _fail_with(tmp_path, capsys, argv, 3)
    assert err.count("\n") == 1 and err.endswith("\n")


def test_an_input_of_another_dimension_names_both_sizes(tmp_path, capsys):
    argv = ["certify", "--model", "MODEL3", "--input", "BAND", "--gamma", "0.5"]
    err = _fail_with(tmp_path, capsys, argv, 2)
    assert err == (f"error: ConfigError: --model {tmp_path / 'model3.txt'} has dimension 3, "
                   "where 2 is expected\n")


def test_an_internal_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "_cmd_certify", broken)
    assert run(["certify", "--model", "m.txt", "--input", "i.csv", "--gamma", "0.5"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "error: TypeError: a bug\n"


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
    state, updates, _ = one_pass_ref(finite_source(load_csv(path)), perceptron_init(2),
                                     margin_attack(LpBall(2.0, 0.1)), 1.0, 0.05, 2)
    assert load_model(model).w.tobytes() == state.w.tobytes()
    assert f"updates: {updates}" in Path(out).read_text() and updates == 1


def test_error_classes_map_to_their_exit_codes():
    assert _exit_code(AllZeroWeights("no positive weight")) == 3
    assert _exit_code(ZeroPerceptron("all zero")) == 3
    assert _exit_code(ZeroWeight("all zero")) == 5
    assert _exit_code(EllipsoidDiverged("grew without bound")) == 5
    assert _exit_code(UnsupportedGeometry("no oracle")) == 2
    assert _exit_code(ConfigError("bad value")) == 2
    assert _exit_code(ValueError("bad value")) == EXIT_INTERNAL
    assert _exit_code(KeyError("x")) == EXIT_INTERNAL == 1


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


# every float flag of every subcommand, fed nan, inf and -0.0 on top of the
# subcommand's golden command lines
FLOAT_SWEEP = [(case, flag, value)
               for case, (argv, _side) in CASES.items()
               for flag, kw in cli._row_flags(cli.COMMANDS[argv[0]]) if kw.get("type") is float
               for value in ("nan", "inf", "-0.0")]


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sweep")
    write_inputs(workdir)
    return workdir


def _run_swept(golden_inputs, monkeypatch, capsys, case, flag, value):
    monkeypatch.chdir(golden_inputs)
    code = run([*CASES[case][0], f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4, 5)  # never EXIT_INTERNAL, which marks a bug
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


@pytest.mark.parametrize("case, flag, value", FLOAT_SWEEP)
def test_float_flags_exit_with_a_documented_code_and_one_line(golden_inputs, monkeypatch, capsys,
                                                             case, flag, value):
    _run_swept(golden_inputs, monkeypatch, capsys, case, flag, value)


# every int flag but --seed, fed 0 and -1 in the same way
INT_SWEEP = [(case, flag, value)
             for case, (argv, _side) in CASES.items()
             for flag, kw in cli._row_flags(cli.COMMANDS[argv[0]])
             if kw.get("type") is int and flag != "--seed"
             for value in ("0", "-1")]


@pytest.mark.parametrize("case, flag, value", INT_SWEEP)
def test_int_flags_exit_with_a_documented_code_and_one_line(golden_inputs, monkeypatch, capsys,
                                                           case, flag, value):
    _run_swept(golden_inputs, monkeypatch, capsys, case, flag, value)


def test_test_input_and_offset_runs_end_with_their_documents(tmp_path):
    # these flags used to run only as far as the dimension check
    train, model = write_band(tmp_path), write_model(tmp_path)
    test = write_band(tmp_path, name="test.csv", n_side=7, seed=1)
    rows = load_csv(train)
    negative_first = str(tmp_path / "negative-first.csv")  # the zero perceptron gets a mistake
    save_csv(negative_first, Dataset(rows.X[::-1], rows.y[::-1]))
    runs = {
        "roboost": ["--input", train, *BOOST],
        "uroboost": ["--input", train, "--unlabeled-input", train, *BOOST],
        "one-pass": ["--input", negative_first, "--gamma", "0.1", "--eps", "0.5",
                     "--mistake-cap", "2"],
        "rcn-train": ["--input", train, "--gamma", "0.3", "--rcn-eta", "0.1", "--steps", "50"],
    }
    for command, argv in runs.items():
        out = tmp_path / f"{command}.txt"
        assert run([command, *argv, "--test-input", test, "--output", str(out)]) == 0
        text = out.read_text()
        assert "eval_on: test-input" in text
        assert ("n_eval: 14" in text) == (command in ("roboost", "uroboost"))
    out = tmp_path / "alpha-boost.txt"
    assert run(["alpha-boost", "--input", train, "--offset", "0,0", "--offset", "0.1,0",
                "--output", str(out)]) == 0
    assert "majority_robust_accuracy: " in out.read_text()
    # transductive-pool still requires --gamma, which --offset makes it ignore
    out = tmp_path / "transductive-pool.txt"
    assert run(["transductive-pool", "--input", train, "--test-input", test, "--pool", model,
                "--offset", "0,0", "--gamma", "0.2", "--output", str(out)]) == 0
    assert "chosen_index: 0" in out.read_text()
