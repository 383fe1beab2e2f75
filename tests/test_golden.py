"""Byte-for-byte pins of every subcommand's results document and side files,
and of the CLI's help texts and one-line command-line errors.

Each case runs one CLI command inside a directory holding the shared inputs,
with relative paths (documents echo them), and compares every file it writes
with the copy under tests/golden/. Each text case runs one command line and
compares what it prints with its copy. A change that moves output bytes on
purpose rewrites the copies with `python tests/golden/regen.py` and says why
in CHANGES.md.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from roblearn import Dataset, LinearModel, save_csv, save_model
from roblearn.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"

BOOST_GEN = ["--gen", "gaussian", "--sigma", "0.1"]
OFFSETS = ["--offset", "0,0", "--offset", "0.3,0", "--offset=-0.3,0"]
# sign(x1 - a) at each cut a; no training row lies between the cuts of the
# pairs (-0.4, -0.38), (0.05, 0.2) and (0.3, 0.45), but test rows do
CUTS = (-0.4, -0.38, 0.05, 0.2, 0.3, 0.45)
CUT_FILES = [f"cut{i}.txt" for i in range(len(CUTS))]

# name -> (argv without --output, side files the command writes)
CASES = {
    "gen-data": (["gen-data", *BOOST_GEN, "--n", "30", "--seed", "3",
                  "--out-csv", "gen-data.csv"], ["gen-data.csv"]),
    "certify": (["certify", "--model", "good.txt", "--input", "train.csv", "--gamma", "0.5"], []),
    "attack": (["attack", "--model", "good.txt", "--input", "train.csv", "--gamma", "2.0",
                "--save-witnesses", "attack.witnesses.csv"], ["attack.witnesses.csv"]),
    "rerm-ellipsoid": (["rerm-ellipsoid", "--input", "train.csv", "--gamma", "0.3",
                        "--save-model", "rerm-ellipsoid.model"], ["rerm-ellipsoid.model"]),
    "roboost": (["roboost", *BOOST_GEN, "--n", "60", "--eval-n", "100", "--gamma", "0.3",
                 "--eps", "0.2", "--beta", "0.5", "--rounds", "2", "--seed", "5"], []),
    # wide clusters, so rejection sampling accepts rows and all three rounds run
    "roboost-three-rounds": (["roboost", "--gen", "gaussian", "--sigma", "1.0", "--eval-n", "200",
                              "--gamma", "0.3", "--eps", "0.05", "--beta", "0.5", "--rounds", "3",
                              "--per-round-m", "20", "--seed", "1"], []),
    "uroboost": (["uroboost", "--input", "train.csv", *BOOST_GEN, "--n", "40", "--eval-n", "80",
                  "--gamma", "0.3", "--eps", "0.2", "--beta", "0.5", "--rounds", "2",
                  "--seed", "6"], []),
    "alpha-boost": (["alpha-boost", "--input", "train.csv", "--rounds", "4", "--seed", "7"], []),
    "robustify": (["robustify", "--input", "train.csv", *OFFSETS, "--rounds", "5",
                   "--inner-rounds", "8", "--seed", "8"], []),
    "fms": (["fms", "--input", "train.csv", *OFFSETS, "--rounds", "60", "--seed", "9"], []),
    "cycle-robust": (["cycle-robust", "--input", "train.csv", "--gamma", "0.2",
                      "--mistake-cap", "300", "--seed", "10",
                      "--save-model", "cycle-robust.model"], ["cycle-robust.model"]),
    "one-pass": (["one-pass", *BOOST_GEN, "--eval-n", "80", "--gamma", "0.2", "--eps", "0.5",
                  "--mistake-cap", "50", "--seed", "11",
                  "--save-model", "one-pass.model"], ["one-pass.model"]),
    "wm": (["wm", "--input", "train.csv", "--offset", "0,0", "--eta-wm", "0.5",
            "--pool", "good.txt", "bad.txt", "--seed", "12"], []),
    "rcn-train": (["rcn-train", "--input", "train.csv", "--gamma", "0.3", "--rcn-eta", "0.1",
                   "--steps", "500", "--seed", "13",
                   "--save-model", "rcn-train.model"], ["rcn-train.model"]),
    "rejectron": (["rejectron", "--input", "train.csv", "--test-input", "test.csv",
                   "--eps", "0.25", "--seed", "14",
                   "--save-selection", "rejectron.selection"], ["rejectron.selection"]),
    "urejectron": (["urejectron", "--input", "train.csv", "--test-input", "test.csv",
                    "--eps", "0.25", "--seed", "15",
                    "--save-selection", "urejectron.selection"], ["urejectron.selection"]),
    "urejectron-pairs": (["urejectron", "--input", "train.csv", "--test-input", "test.csv",
                          "--eps", "0.05", "--backend", "pairs", "--pool", *CUT_FILES,
                          "--seed", "15", "--save-selection", "urejectron-pairs.selection"],
                         ["urejectron-pairs.selection"]),
    "transductive-pool": (["transductive-pool", "--input", "train.csv", "--test-input", "test.csv",
                           "--pool", "good.txt", "bad.txt", "--gamma", "0.2",
                           "--mode", "agnostic", "--seed", "16",
                           "--save-labels", "transductive-pool.labels.csv"],
                          ["transductive-pool.labels.csv"]),
}

SUBCOMMANDS = list(dict.fromkeys(argv[0] for argv, _side in CASES.values()))

# name -> argv of a command that prints a help text (exit 0) or one error line (exit 2)
TEXT_CASES = {
    "help": ["--help"],
    **{f"help-{c}": [c, "--help"] for c in SUBCOMMANDS},
    "error-no-subcommand": [],
    "error-unknown-subcommand": ["frobnicate"],
    "error-certify-no-flags": ["certify"],
    "error-unknown-flag": ["gen-data", "--out-csv", "x.csv", "--bogus"],
    "error-flag-before-subcommand": ["--bogus", "gen-data", "--out-csv", "x.csv"],
    "error-bad-float": ["certify", "--model", "m.txt", "--input", "i.csv", "--gamma", "abc"],
    "error-bad-learner": ["roboost", "--eps", "0.1", "--beta", "0.5", "--gamma", "0.3",
                          "--learner", "tree"],
}
# argparse wraps help to the terminal width, which it reads from COLUMNS
TEXT_COLUMNS = "80"


def _band(path: Path, seed: int, n_side: int = 10) -> None:
    # two vertical bands at |x0| in [1.2, 1.8], labeled by side
    rng = np.random.default_rng(seed)
    xs = 1.2 + 0.6 * rng.random(n_side)
    X = np.concatenate([np.column_stack([xs, rng.random(n_side) - 0.5]),
                        np.column_stack([-xs, rng.random(n_side) - 0.5])])
    y = np.concatenate([np.ones(n_side), -np.ones(n_side)]).astype(np.int64)
    save_csv(str(path), Dataset(X, y))


def write_inputs(workdir: Path) -> None:
    _band(workdir / "train.csv", seed=1)
    _band(workdir / "test.csv", seed=2)
    save_model(str(workdir / "good.txt"), LinearModel(np.array([1.0, 0.0])))
    save_model(str(workdir / "bad.txt"), LinearModel(np.array([-1.0, 0.0])))
    for fname, a in zip(CUT_FILES, CUTS):
        save_model(str(workdir / fname), LinearModel(np.array([0.0, 1.0]), -a))


def golden_names(name: str) -> list[str]:
    """The files a case pins: its results document, then its side files."""
    return [f"{name}.txt", *CASES[name][1]]


def run_case(name: str) -> dict[str, bytes]:
    """Run one case in the current directory; return each pinned file's bytes."""
    argv, _side = CASES[name]
    code = cli_main([*argv, "--output", f"{name}.txt"])
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    return {f: Path(f).read_bytes() for f in golden_names(name)}


def run_text_case(name: str) -> tuple[int, str, str]:
    """Run one text case; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(TEXT_CASES[name]))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    write_inputs(workdir)
    return workdir


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    for fname, blob in run_case(name).items():
        assert blob == (GOLDEN_DIR / fname).read_bytes(), f"{fname} differs from its golden copy"


@pytest.mark.parametrize("name", list(TEXT_CASES))
def test_help_and_errors_match_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", TEXT_COLUMNS)
    code, out, err = run_text_case(name)
    printed, silent = (out, err) if name.startswith("help") else (err, out)
    assert code == (0 if name.startswith("help") else 2)
    assert silent == ""
    assert printed.encode() == (GOLDEN_DIR / f"{name}.txt").read_bytes(), f"{name} differs"


def test_every_golden_file_belongs_to_a_case():
    pinned = {f for name in CASES for f in golden_names(name)} | {f"{n}.txt" for n in TEXT_CASES}
    on_disk = {p.name for p in GOLDEN_DIR.iterdir() if p.is_file() and p.suffix != ".py"}
    assert on_disk == pinned


# run in a fresh `python -O` process, where assert statements are compiled out
_OPTIMIZED_RUN = """
import sys
from tests.test_golden import CASES, GOLDEN_DIR, run_case
if sys.flags.optimize != 1:
    sys.exit("not optimized")
differ = [f for name in CASES for f, blob in run_case(name).items()
          if blob != (GOLDEN_DIR / f).read_bytes()]
sys.exit(f"differ from their golden copies: {differ}" if differ else 0)
"""


def test_goldens_hold_under_python_O(tmp_path):
    write_inputs(tmp_path)
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_RUN], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
