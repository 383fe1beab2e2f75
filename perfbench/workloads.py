"""Workload definitions: seeded inputs and the job list of each workload.

Every input CSV and model file is drawn here from the workload seed with the
benchmark's own numpy code, so the program under test sees only files. The
two boosting jobs also pass the seed to the program's `--gen` stream, which
is the only way to give rejection sampling an endless source.

A job is one CLI invocation. Its check recomputes the job's key result from
the inputs (see checks.py); the runner also requires every document and side
file to be byte-identical across the passes of a run.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# sizes are chosen so that one pass takes a few seconds on one core; the
# runner repeats passes for --seconds and reports the median
SIZES = {
    "eval-lp": {"rows": 20_000, "dim": 5, "eval_rows": 2_500},
    "train": {"rows": 8_000, "dim": 10, "steps": 6_000, "rounds": 6, "per_round_m": 150,
              "cycle_rows": 1_500},
    "ellipsoid": {"rerm_rows": 70, "certify_rows": 150},
    "finite-sets": {"boost_rows": 400, "boost_rounds": 30, "reduce_rows": 60,
                    "wm_rows": 2_000, "redact_rows": 2_000},
}

WORKLOADS = tuple(SIZES)

# the three-cluster mixture of the README's boosting example
MIXTURE = ((np.array([0.0, 8.0]), 0.5, 0.05),
           (np.array([3.5, 1.0]), 0.3, 0.05),
           (np.array([2.4, 0.3]), 0.2, 0.05))
MIXTURE_FLAGS = ["--gen", "margin-union", "--cluster", "0,8:0.5:0.05",
                 "--cluster", "3.5,1:0.3:0.05", "--cluster", "2.4,0.3:0.2:0.05"]
OFFSETS = np.array([[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0]])
OFFSET_FLAGS = ["--offset", "0,0", "--offset", "0.3,0", "--offset=-0.3,0"]


@dataclass
class Job:
    name: str
    argv: list
    check: Callable[[dict], list]  # results document -> problems
    side_files: list  # every output, compared across passes; the document first


# ---------------------------------------------------------------------------
# file writers (formats the CLI reads; 17 significant digits round-trip)
# ---------------------------------------------------------------------------


def _write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    rows = np.column_stack([X, y])
    fmt = ["%.17g"] * X.shape[1] + ["%d"]
    np.savetxt(path, rows, fmt=fmt, delimiter=",")


def _write_model(path: str, w: np.ndarray, bias: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("linear-model v1\n")
        fh.write("w: " + " ".join("%.17g" % v for v in w) + "\n")
        fh.write("bias: %.17g\n" % bias)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _rng(seed: int, name: str, part: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(f"{name}/{part}".encode())])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _labels(rng, n) -> np.ndarray:
    return np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)


def _noisy_linear(rng, n, d):
    """Gaussian rows labeled by a planted direction plus noise, and a model
    that roughly agrees with it."""
    w_star = _unit(rng.standard_normal(d))
    X = rng.standard_normal((n, d))
    y = np.where(X @ w_star + 0.25 * rng.standard_normal(n) >= 0.0, 1, -1).astype(np.int64)
    w = w_star + 0.15 * rng.standard_normal(d)
    return X, y, w, 0.05 * float(rng.standard_normal())


def _mixture(rng, n):
    weights = np.array([c[1] for c in MIXTURE])
    which = rng.choice(len(MIXTURE), size=n, p=weights / weights.sum())
    y = _labels(rng, n)
    centers = np.stack([c[0] for c in MIXTURE])
    spreads = np.array([c[2] for c in MIXTURE])
    X = y[:, None] * centers[which] + spreads[which][:, None] * rng.standard_normal((n, 2))
    return X, y


def _unit_ball_margin(rng, n, d, gamma):
    """Unit-ball rows with planted functional margin >= gamma along w*."""
    w_star = _unit(rng.standard_normal(d))
    y = _labels(rng, n)
    mag = gamma + (0.95 - gamma) * rng.random(n)
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ w_star, w_star)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / (d - 1))
    X = (y * mag)[:, None] * w_star + (np.sqrt(1.0 - mag ** 2) * r)[:, None] * g
    return X, y


def _separable(rng, n, d, low, spread):
    """Rows at signed distance >= low along w*, with spread across it."""
    w_star = _unit(rng.standard_normal(d))
    y = _labels(rng, n)
    mag = low + rng.random(n)
    perp = rng.standard_normal((n, d))
    perp -= np.outer(perp @ w_star, w_star)
    perp = perp / np.linalg.norm(perp, axis=1, keepdims=True) * (spread * rng.random(n))[:, None]
    return (y * mag)[:, None] * w_star + perp, y, w_star


def _gaussian_pair(rng, n):
    """Labels +1 around (2, 0), -1 around (-2, 0)."""
    y = _labels(rng, n)
    return np.where((y == 1)[:, None], [2.0, 0.0], [-2.0, 0.0]) + 0.3 * rng.standard_normal((n, 2)), y


def _bands(rng, n):
    """Two vertical bands at x1 = +-[1.2, 1.8], robust to the +-0.3 offsets."""
    y = _labels(rng, n)
    x1 = y * (1.2 + 0.6 * rng.random(n))
    return np.column_stack([x1, rng.random(n) - 0.5]), y


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _job(out, name, argv, check, side=()):
    doc = os.path.join(out, f"{name}.txt")
    return Job(name, argv + ["--output", doc], check, [doc] + list(side))


def _eval_lp(seed, inp, out, write):
    size = SIZES["eval-lp"]
    rng = _rng(seed, "eval-lp", "rows")
    X, y, w, bias = _noisy_linear(rng, size["rows"], size["dim"])
    EX, Ey = _mixture(_rng(seed, "eval-lp", "mixture"), size["eval_rows"])
    rows, model, mix = (os.path.join(inp, f) for f in ("rows.csv", "model.txt", "mixture.csv"))
    if write:
        _write_csv(rows, X, y)
        _write_model(model, w, bias)
        _write_csv(mix, EX, Ey)
    g_cert = 0.4
    # attack radius at the first quartile of the l-inf signed margins, so
    # about a quarter of the rows are attacked
    g_att = float("%.4g" % np.quantile(checks.signed_margins(w, bias, X, y, math.inf), 0.25))
    witnesses = os.path.join(out, "witnesses.csv")
    return [
        _job(out, "certify-closed",
             ["certify", "--method", "closed", "--model", model, "--input", rows,
              "--gamma", str(g_cert), "--p", "2"],
             lambda doc: checks.check_certify(doc, X, y, w, bias, 2.0, g_cert)),
        _job(out, "attack-linf",
             ["attack", "--model", model, "--input", rows, "--gamma", repr(g_att), "--p", "inf",
              "--save-witnesses", witnesses],
             lambda doc: checks.check_attack(doc, _read(witnesses), X, y, w, bias, math.inf, g_att),
             [witnesses]),
        _job(out, "roboost",
             ["roboost", *MIXTURE_FLAGS, "--test-input", mix, "--gamma", "1.6", "--eps", "0.05",
              "--beta", "0.4", "--rounds", "3", "--per-round-m", "150", "--seed", str(seed)],
             lambda doc: checks.check_cascade(doc, size["eval_rows"], 3, 150)),
    ]


def _train(seed, inp, out, write):
    size = SIZES["train"]
    gamma, eta = 0.3, 0.1
    rng = _rng(seed, "train", "rows")
    X, clean = _unit_ball_margin(rng, size["rows"], size["dim"], gamma)
    y = np.where(rng.random(size["rows"]) < eta, -clean, clean)
    MX, My = _mixture(_rng(seed, "train", "mixture"), 200)
    CX, Cy, _ = _separable(_rng(seed, "train", "cycle"), size["cycle_rows"], 3, 1.0, 2.0)
    cap = 400
    rows, mix, cyc = (os.path.join(inp, f) for f in ("unit_ball.csv", "mixture.csv", "cycle.csv"))
    if write:
        _write_csv(rows, X, y)
        _write_csv(mix, MX, My)
        _write_csv(cyc, CX, Cy)
    jobs = []
    for name, method, q in (("rcn-md-q2", "md", "2"), ("rcn-md-q1.5", "md", "1.5"),
                            ("rcn-glm", "glm", "2")):
        model = os.path.join(out, f"{name}.model")
        jobs.append(_job(
            out, name,
            ["rcn-train", "--method", method, "--input", rows, "--gamma", str(gamma),
             "--rcn-eta", str(eta), "--q", q, "--steps", str(size["steps"]),
             "--seed", str(seed), "--save-model", model],
            lambda doc, model=model: checks.check_rcn(doc, _read(model), X, y, gamma),
            [model]))
    jobs.append(_job(
        out, "roboost",
        ["roboost", *MIXTURE_FLAGS, "--test-input", mix, "--gamma", "1.6", "--eps", "0.05",
         "--beta", "0.4", "--rounds", str(size["rounds"]), "--per-round-m", str(size["per_round_m"]),
         "--seed", str(seed)],
        lambda doc: checks.check_cascade(doc, 200, size["rounds"], size["per_round_m"])))
    cyc_model = os.path.join(out, "cycle.model")
    jobs.append(_job(
        out, "cycle-robust",
        ["cycle-robust", "--input", cyc, "--gamma", "0.5", "--mistake-cap", str(cap),
         "--seed", str(seed), "--save-model", cyc_model],
        lambda doc: checks.check_cycle(doc, _read(cyc_model), CX, Cy, 0.5, cap),
        [cyc_model]))
    return jobs


def _ellipsoid(seed, inp, out, write):
    size = SIZES["ellipsoid"]
    gamma = 0.4
    tau = gamma / 10.0
    rng = _rng(seed, "ellipsoid", "rerm")
    # the l-inf ball needs margin gamma * ||w*||_1 <= gamma * sqrt(2) along w*
    RX, Ry, w_star = _separable(rng, size["rerm_rows"], 2, gamma * math.sqrt(2.0) + 2.0 * tau, 3.0)
    # hardest rows first: each weight-space query then stops at an early
    # failing row, and the run's cost hardly depends on the seed
    order = np.argsort(Ry * (RX @ w_star))
    RX, Ry = RX[order], Ry[order]
    CX, Cy, w, bias = _noisy_linear(_rng(seed, "ellipsoid", "certify"), size["certify_rows"], 2)
    rerm, rows, model = (os.path.join(inp, f) for f in ("separable.csv", "rows.csv", "model.txt"))
    if write:
        _write_csv(rerm, RX, Ry)
        _write_csv(rows, CX, Cy)
        _write_model(model, w, bias)
    jobs = []
    for name, p in (("rerm-p2", 2.0), ("rerm-pinf", math.inf)):
        saved = os.path.join(out, f"{name}.model")
        jobs.append(_job(
            out, name,
            ["rerm-ellipsoid", "--input", rerm, "--gamma", str(gamma), "--p", str(p),
             "--seed", str(seed), "--save-model", saved],
            lambda doc, saved=saved, p=p: checks.check_certified_model(doc, _read(saved), RX, Ry, p, gamma),
            [saved]))
    jobs.append(_job(
        out, "certify-ellipsoid",
        ["certify", "--method", "ellipsoid", "--model", model, "--input", rows,
         "--gamma", str(gamma), "--p", "2"],
        lambda doc: checks.check_certify(doc, CX, Cy, w, bias, 2.0, gamma)))
    return jobs


def _finite_sets(seed, inp, out, write):
    size = SIZES["finite-sets"]
    BX, By = _bands(_rng(seed, "finite-sets", "boost"), size["boost_rows"])
    SX, Sy = _bands(_rng(seed, "finite-sets", "reduce"), size["reduce_rows"])
    rng = _rng(seed, "finite-sets", "wm")
    WX, Wy = _bands(rng, size["wm_rows"])
    Wy = np.where(rng.random(size["wm_rows"]) < 0.05, -Wy, Wy)  # some rows no member holds
    pool = [(np.array([1.0, 0.0]), 0.0), (np.array([1.0, 0.8]), 0.1), (np.array([-1.0, 0.2]), 0.0)]
    rng = _rng(seed, "finite-sets", "redact")
    n = size["redact_rows"]
    TX, Ty = _gaussian_pair(rng, n)
    QX, Qy = _gaussian_pair(rng, n)
    drift = n // 2  # half the test rows move to a cluster the training rows never reach
    QX[:drift] = np.array([0.3, 6.0]) + 0.2 * rng.standard_normal((drift, 2))
    Qy[:drift] = -1
    names = ("boost.csv", "reduce.csv", "wm.csv", "train.csv", "test.csv")
    boost, reduce_, wm, train, test = (os.path.join(inp, f) for f in names)
    pool_paths = [os.path.join(inp, f"pool{i}.txt") for i in range(len(pool))]
    if write:
        for path, (X, y) in zip((boost, reduce_, wm, train, test),
                                ((BX, By), (SX, Sy), (WX, Wy), (TX, Ty), (QX, Qy))):
            _write_csv(path, X, y)
        for path, (w, b) in zip(pool_paths, pool):
            _write_model(path, w, b)
    eps = 0.1
    sel_r, sel_u = (os.path.join(out, f) for f in ("rejectron.sel", "urejectron.sel"))
    rounds = size["boost_rounds"]
    return [
        _job(out, "alpha-boost",
             ["alpha-boost", "--input", boost, *OFFSET_FLAGS, "--rounds", str(rounds),
              "--seed", str(seed)],
             lambda doc: checks.check_alpha_boost(doc, rounds)),
        _job(out, "robustify",
             ["robustify", "--input", reduce_, *OFFSET_FLAGS, "--rounds", "5",
              "--inner-rounds", "8", "--seed", str(seed)],
             lambda doc: checks.check_robustify(doc, SX.shape[0] * len(OFFSETS))),
        _job(out, "fms",
             ["fms", "--input", reduce_, *OFFSET_FLAGS, "--rounds", "60", "--seed", str(seed)],
             lambda doc: checks.check_fms(doc, 60)),
        _job(out, "wm",
             ["wm", "--input", wm, *OFFSET_FLAGS, "--eta-wm", "0.5", "--pool", *pool_paths,
              "--seed", str(seed)],
             lambda doc: checks.check_wm(doc, [_read(p) for p in pool_paths], WX, Wy, OFFSETS, 0.5)),
        _job(out, "rejectron",
             ["rejectron", "--input", train, "--test-input", test, "--eps", str(eps),
              "--lambda-weight", "50", "--seed", str(seed), "--save-selection", sel_r],
             lambda doc: checks.check_rejectron(doc, _read(sel_r), TX, Ty, QX, Qy, eps),
             [sel_r]),
        _job(out, "urejectron",
             ["urejectron", "--input", train, "--test-input", test, "--eps", str(eps),
              "--backend", "t1", "--seed", str(seed), "--save-selection", sel_u],
             lambda doc: checks.check_urejectron(doc, _read(sel_u), TX, QX),
             [sel_u]),
    ]


_BUILDERS = {"eval-lp": _eval_lp, "train": _train, "ellipsoid": _ellipsoid,
             "finite-sets": _finite_sets}


def build(name: str, seed: int, workdir: str, write: bool) -> list:
    """Draw the workload's inputs from the seed and return its jobs. With
    write set the input files are (re)written under workdir/inputs."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}")
    inp, out = os.path.join(workdir, "inputs"), os.path.join(workdir, "out")
    if write:
        os.makedirs(inp, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    return _BUILDERS[name](seed, inp, out, write)
