"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerances inline and is deterministic given its seeds.
They are heavier than the unit tests but each stays within its stated time
budget on a laptop-class machine.
"""

import math
import os
import time
from pathlib import Path
from dataclasses import dataclass

import numpy as np
import pytest

from roblearn import (
    AlphaBoostConfig,
    BoostConfig,
    ConstantModel,
    Dataset,
    FiniteOffsets,
    GaussianPair,
    GenSpec,
    GlmConfig,
    LinearModel,
    LpBall,
    MarginCluster,
    MarginUnion,
    Polytope,
    RcnConfig,
    RedactConfig,
    SvmConfig,
    alpha_boost,
    apply_rcn,
    beta_roboost,
    cycle_robust,
    default_ellipsoid_config,
    enumeration_attack,
    fms_agnostic,
    generate,
    glm_link_u,
    glm_loss,
    glm_train,
    inverse_blowup,
    make_pool_erm,
    margin_attack,
    margins_batch,
    perceptron_init,
    perceptron_model,
    rcn_phi,
    rcn_train_md,
    rejectron,
    rerm_ellipsoid,
    robust_loss,
    robust_risk,
    save_csv,
    save_model,
    select_members,
    svm_margin,
    urejectron,
    vote_agreement,
    weighted_majority_robust,
    wm_constants,
)
from roblearn.boosting import finite_source
from roblearn.cli import main as cli_main
from roblearn.redaction import DistinguisherT1

from ._refs import (brute_ball_loss, brute_margin_certified, brute_pool_optimum, central_difference,
                    gen_stream)


def vec(*vals):
    return np.array(vals, dtype=float)


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# 1. closed-form robust loss == brute-force ball check
# ---------------------------------------------------------------------------


def test_c01_closed_form_matches_brute_force_on_balls():
    rng = np.random.default_rng(20240801)
    start = time.monotonic()
    disagreements = 0
    for trial in range(1000):
        d = int(rng.integers(1, 6))
        p = 2.0 if trial % 2 == 0 else math.inf
        gamma = float(rng.uniform(0.01, 1.99))
        w = rng.standard_normal(d)
        while not np.any(w):
            w = rng.standard_normal(d)
        bias = 0.5 * float(rng.standard_normal())
        x = 2.0 * rng.standard_normal(d)
        y = 1 if rng.random() < 0.5 else -1
        closed = robust_loss(LinearModel(w, bias), x, y, LpBall(p, gamma))
        brute = brute_ball_loss(w, bias, x, y, p, gamma, count=10_000, rng=rng)
        disagreements += int(closed != brute)
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. cascade boosting beats its own first stage
# ---------------------------------------------------------------------------


THREE_CLUSTERS = MarginUnion((
    MarginCluster(vec(0.0, 8.0), 0.5, 0.05),
    MarginCluster(vec(3.5, 1.0), 0.3, 0.05),
    MarginCluster(vec(2.4, 0.3), 0.2, 0.05),
))


def test_c02_cascade_improves_heldout_robust_accuracy():
    start = time.monotonic()
    gamma = 1.6
    ball = LpBall(2.0, gamma)
    learner = lambda d: svm_margin(d, 2.0 * gamma, SvmConfig()).model
    cfg = BoostConfig(beta=0.4, eps=0.05, rounds=3, per_round_m=150)
    cascade, rounds = beta_roboost(gen_stream(THREE_CLUSTERS, 11), learner, cfg, ball)
    assert len(cascade.stages) == 3
    beta1 = rounds[0][0]
    assert abs(beta1 - 0.5) <= 0.15  # the single model is engineered to be barely robust

    eval_data = generate(GenSpec(THREE_CLUSTERS, 2000, rng_seed=999))
    single_acc = 1.0 - robust_risk(cascade.stages[0].model, eval_data, ball)
    cascade_acc = 1.0 - robust_risk(cascade, eval_data, ball)
    assert cascade_acc - single_acc >= 0.15

    # mass where no stage is robust at twice its radius, against the product bound
    all_bad = np.ones(eval_data.n, dtype=bool)
    for stage in cascade.stages:
        r = inverse_blowup(stage.abstain_spec).gamma
        held = eval_data.y * margins_batch(stage.model, eval_data.X, 2.0) > r
        all_bad &= ~held
    measured = float(all_bad.mean())
    bound = float(np.prod([1.0 - b for b, _ in rounds]))
    sigma = math.sqrt(max(bound * (1.0 - bound), 1e-12) / eval_data.n)
    assert measured <= bound + 3.0 * sigma
    assert time.monotonic() - start < 60.0


MNIST_TRAIN = os.environ.get("ROBLEARN_MNIST_TRAIN_CSV")
MNIST_TEST = os.environ.get("ROBLEARN_MNIST_TEST_CSV")


@pytest.mark.skipif(not (MNIST_TRAIN and MNIST_TEST),
                    reason="set ROBLEARN_MNIST_TRAIN_CSV / ROBLEARN_MNIST_TEST_CSV to run")
def test_c02_optional_mnist_reference_numbers():
    from roblearn import load_csv

    ball = LpBall(2.0, 1.0)
    train = load_csv(MNIST_TRAIN)
    test = load_csv(MNIST_TEST)
    source = finite_source(train)
    learner = lambda d: svm_margin(d, 2.0, SvmConfig()).model
    cascade, _ = beta_roboost(source, learner, BoostConfig(beta=0.4, eps=0.1, rounds=3,
                                                           per_round_m=min(2000, train.n // 3)),
                              ball)
    single_acc = 1.0 - robust_risk(cascade.stages[0].model, test, ball)
    cascade_acc = 1.0 - robust_risk(cascade, test, ball)
    assert abs(single_acc - 0.481) <= 0.05
    assert abs(cascade_acc - 0.7012) <= 0.05


# ---------------------------------------------------------------------------
# 3. vote agreement from a contract-honoring weak learner
# ---------------------------------------------------------------------------


@dataclass
class TableModel:
    """Labels canonical integer-coordinate points by table lookup."""

    outputs: np.ndarray

    def predict(self, x) -> int:
        return int(self.outputs[int(round(float(np.asarray(x).ravel()[0])))])

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.outputs[np.rint(X[:, 0]).astype(int)]


def test_c03_boost_reaches_agreement_floor_on_all_seeds():
    passes = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(10, 41))
        y = np.where(rng.random(m) < 0.5, 1, -1).astype(np.int64)
        data = Dataset(np.arange(m, dtype=float).reshape(-1, 1), y)
        # pool member i is wrong exactly on example i, so its weighted error is
        # min_i D(i) <= 1/m <= 1/3 under every reachable distribution
        pool = []
        for i in range(m):
            out = y.copy()
            out[i] = -out[i]
            pool.append(TableModel(out))
        cfg = AlphaBoostConfig(agreement_mode=True)
        models, vote, _ = alpha_boost(data, make_pool_erm(pool), cfg)
        agreement = vote_agreement(models, data)
        majority_errs = int(np.sum(vote.predict_batch(data.X) != y))
        if agreement.min() >= 5.0 / 9.0 - 1e-12 and majority_errs == 0:
            passes += 1
    assert passes == 20


# ---------------------------------------------------------------------------
# 4. selective classification, realizable guarantees
# ---------------------------------------------------------------------------


def test_c04_rejectron_realizable_guarantees():
    eps = 0.25
    max_rounds = math.floor(1.0 / eps)
    ok = 0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        pool = [LinearModel(rng.standard_normal(2), 0.3 * float(rng.standard_normal()))
                for _ in range(8)]
        truth = pool[int(rng.integers(len(pool)))]
        X = rng.standard_normal((40, 2))
        train = Dataset(X, truth.predict_batch(X))
        tests = rng.standard_normal((60, 2))
        h, S, _ = rejectron(train, tests, RedactConfig(eps), erm=make_pool_erm(pool))
        rounds_ok = len(S.members) <= max_rounds
        train_ok = select_members(S, train.X).all()
        kept = select_members(S, tests)
        disagree = kept & (h.predict_batch(tests) != truth.predict_batch(tests))
        mass_ok = disagree.mean() <= eps + 1e-12

        # adversarial repetition: a point the base model gets wrong fills half
        # the test set and must be redacted
        rng2 = np.random.default_rng(7000 + seed)
        x1 = np.concatenate([0.5 + rng2.exponential(0.4, 15), -0.5 - rng2.exponential(0.4, 15)])
        Xb = np.column_stack([x1, rng2.standard_normal(30)])
        h_a = LinearModel(vec(1.0, 0.0))
        h_b = LinearModel(vec(1.0, 0.0), bias=0.3)
        band_train = Dataset(Xb, h_b.predict_batch(Xb))
        adv = vec(-0.28 * float(rng2.random()) - 0.005, float(rng2.standard_normal()))
        test_pts = np.concatenate([Xb, np.tile(adv, (30, 1))])
        test_truth = np.concatenate([band_train.y, np.ones(30, dtype=np.int64)])
        h2, S2, _ = rejectron(band_train, test_pts, RedactConfig(eps),
                              erm=make_pool_erm([h_a, h_b]))
        assert h2.predict(adv) != 1  # the planted point really is misclassified
        kept2 = select_members(S2, test_pts)
        sel_err = float(np.mean(kept2 & (h2.predict_batch(test_pts) != test_truth)))
        rep_ok = sel_err <= eps and not select_members(S2, [adv])[0]

        ok += int(rounds_ok and train_ok and mass_ok and rep_ok)
    assert ok == 50


# ---------------------------------------------------------------------------
# 5. unsupervised single-round redaction tradeoff
# ---------------------------------------------------------------------------


def test_c05_urejectron_t1_has_a_good_threshold():
    pair = GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), sigma=0.15)
    train = generate(GenSpec(pair, 100, rng_seed=31))
    indist = generate(GenSpec(pair, 50, rng_seed=32))
    rng = np.random.default_rng(33)
    drifted = np.tile(vec(1.5, 6.0), (50, 1)) + 0.15 * rng.standard_normal((50, 2))
    Q = np.concatenate([indist.X, drifted])
    Q_labels = np.concatenate([indist.y, -np.ones(50, dtype=np.int64)])

    _, scores, rows = urejectron(train.X, Q, RedactConfig(0.2), DistinguisherT1())
    for a, b in zip(rows, rows[1:]):
        assert b["rej_train"] >= a["rej_train"] and b["rej_test"] >= a["rej_test"]

    from roblearn import ErmConfig, WeightedDataset, erm_linear

    h = erm_linear(WeightedDataset.uniform(train))
    found = False
    for row in rows:
        kept = scores >= row["threshold"]
        rej_p_half = 1.0 - float(kept[:50].mean())
        if kept.any():
            err_sel = float(np.mean(h.predict_batch(Q[kept]) != Q_labels[kept]))
        else:
            err_sel = 0.0
        if rej_p_half <= 0.10 and err_sel <= 0.05:
            found = True
    assert found


# ---------------------------------------------------------------------------
# 6. noise-tolerant margin training
# ---------------------------------------------------------------------------


def planted_margin_halfspace(seed: int, n: int, d: int, gamma: float):
    """Unit-ball points with planted functional margin >= gamma along w*."""
    rng = np.random.default_rng(seed)
    w_star = unit(rng.standard_normal(d))
    y = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
    mag = gamma + (0.95 - gamma) * rng.random(n)
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ w_star, w_star)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / (d - 1))
    X = (y * mag)[:, None] * w_star + (np.sqrt(1.0 - mag ** 2) * r)[:, None] * g
    return Dataset(X, y)


def test_c06_rcn_training_tolerates_flipped_labels():
    gamma, eta, n, d = 0.5, 0.2, 20_000, 20
    deadline = 60.0
    results = {"md": 0, "glm": 0}
    times = {"md": 0.0, "glm": 0.0}
    for seed in range(10):
        clean = planted_margin_halfspace(3000 + seed, n, d, gamma)
        noisy = apply_rcn(clean, eta, seed=4000 + seed)

        t0 = time.monotonic()
        w_md = rcn_train_md(noisy, RcnConfig(gamma=gamma, eta=eta, rng_seed=seed)).w
        times["md"] += time.monotonic() - t0
        err_md = float(np.mean(clean.y * (clean.X @ w_md) <= gamma / 2.0))
        results["md"] += int(err_md <= eta + 0.05)

        t0 = time.monotonic()
        w_glm = glm_train(noisy, GlmConfig(gamma=gamma, eta=eta, rng_seed=seed)).w
        times["glm"] += time.monotonic() - t0
        err_glm = float(np.mean(clean.y * (clean.X @ w_glm) <= gamma / 2.0))
        results["glm"] += int(err_glm <= eta + 0.05)
    assert results["md"] >= 9
    assert results["glm"] >= 9
    assert times["md"] < deadline and times["glm"] < deadline


# ---------------------------------------------------------------------------
# 7. agnostic finite-perturbation majority vs brute-forced optimum
# ---------------------------------------------------------------------------


def test_c07_fms_majority_is_within_twice_the_optimum():
    good = 0
    for seed in range(30):
        rng = np.random.default_rng(5000 + seed)
        m = int(rng.integers(3, 9))
        X = np.sort(rng.uniform(-4.0, 4.0, size=m)).reshape(-1, 1)
        y = np.where(rng.random(m) < 0.5, 1, -1).astype(np.int64)
        data = Dataset(X, y)
        delta = float(rng.uniform(0.1, 0.6))
        spec = FiniteOffsets([vec(0.0), vec(delta), vec(-delta)])
        pool = [LinearModel(vec(s), bias=-s * b)
                for s in (1.0, -1.0)
                for b in np.linspace(-4.5, 4.5, 6)]
        vote, _ = fms_agnostic(data, spec, make_pool_erm(pool))
        lists = [spec.points(X[i]) for i in range(m)]
        opt = brute_pool_optimum(pool, lists, y)
        vote_loss = robust_risk(vote, data, spec)
        good += int(vote_loss <= 2.0 * opt + 0.1)
    assert good == 30


# ---------------------------------------------------------------------------
# 8. cycling against the attack oracle until certified
# ---------------------------------------------------------------------------


def test_c08_cycle_robust_terminates_within_the_call_budget():
    ok = 0
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        d, m = 3, 60
        w_star = unit(rng.standard_normal(d))
        y = np.where(rng.random(m) < 0.5, 1, -1).astype(np.int64)
        mag = 1.0 + rng.random(m)
        perp = rng.standard_normal((m, d))
        perp -= np.outer(perp @ w_star, w_star)
        perp = perp / np.linalg.norm(perp, axis=1, keepdims=True) * (2.0 * rng.random(m))[:, None]
        data = Dataset((y * mag)[:, None] * w_star + perp, y)
        ball = LpBall(2.0, 0.5)
        radius = float(np.max(np.linalg.norm(data.X, axis=1))) + ball.gamma
        residual = float(mag.min()) - ball.gamma
        cap = math.ceil((radius / residual) ** 2)
        state, _, passes = cycle_robust(data, perceptron_init(d), margin_attack(ball), cap)
        model = perceptron_model(state)
        certified = robust_risk(model, data, ball) == 0.0
        oracle_calls = passes * m  # a run that returns examined every row on every pass
        ok += int(certified and oracle_calls <= m * cap)
    assert ok == 20


# ---------------------------------------------------------------------------
# 9. weighted majority against hand-built adversarial sequences
# ---------------------------------------------------------------------------


def _wm_mistakes(pool, X, y, eta_wm):
    stream = finite_source(Dataset(X, y))
    return weighted_majority_robust(list(pool), stream, enumeration_attack(FiniteOffsets([vec(0.0)])),
                                    eta_wm)[2]


def test_c09_weighted_majority_respects_the_mistake_bound():
    xs = np.arange(40, dtype=float).reshape(-1, 1)
    sequences = []
    # one good member hidden among 99 constant liars, all labels -1
    pool_a = [ConstantModel(1)] * 99 + [ConstantModel(-1)]
    sequences.append((pool_a, xs, np.full(40, -1, dtype=np.int64), 0))
    # two constants, labels mostly -1 with a +1 tail: the best member errs 5 times
    pool_b = [ConstantModel(1), ConstantModel(-1)]
    y_b = np.concatenate([np.full(10, -1), np.full(5, 1)]).astype(np.int64)
    sequences.append((pool_b, xs[:15], y_b, 5))
    # alternating labels, the worst case for both constants
    y_c = np.where(np.arange(30) % 2 == 0, 1, -1).astype(np.int64)
    sequences.append((pool_b, xs[:30], y_c, 15))

    for eta_wm in (0.3, 0.5, 0.7):
        a, b = wm_constants(eta_wm)
        for pool, X, y, opt in sequences:
            mistakes = _wm_mistakes(pool, X, y, eta_wm)
            assert mistakes <= a * opt + b * math.log(len(pool)) + 1e-9


# ---------------------------------------------------------------------------
# 10. ellipsoid robust ERM, certified by the independent margin route
# ---------------------------------------------------------------------------


BOX = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
               np.full(4, 0.4))


def test_c10_ellipsoid_rerm_returns_certified_separators():
    gamma = 0.4
    cfg = default_ellipsoid_config(LpBall(2.0, gamma), 2)
    tau = cfg.feas_slack
    certified = 0
    for seed in range(50):
        rng = np.random.default_rng(8000 + seed)
        kind = seed % 3  # l2 ball, linf ball, box polytope
        w_star = unit(rng.standard_normal(2))
        dual = 1.0 if kind == 0 else float(np.sum(np.abs(w_star)))
        n = 14
        y = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
        margin = gamma * dual + 2.0 * tau + 0.5 * rng.random(n)
        perp = np.array([-w_star[1], w_star[0]])
        X = (y * margin)[:, None] * w_star + rng.uniform(-1.5, 1.5, n)[:, None] * perp
        data = Dataset(X, y)
        if kind == 0:
            descriptor, p = LpBall(2.0, gamma), 2.0
        elif kind == 1:
            descriptor, p = LpBall(math.inf, gamma), math.inf
        else:
            descriptor, p = BOX, None
        model = rerm_ellipsoid(data, descriptor, cfg)
        if p is not None:
            good = all(
                brute_margin_certified(model.w, model.bias, X[i], int(y[i]), p, gamma)
                for i in range(n)
            )
        else:
            corners = np.array([[sx, sy] for sx in (-0.4, 0.4) for sy in (-0.4, 0.4)])
            good = all(
                min(y[i] * ((X[i] + c) @ model.w + model.bias) for c in corners) > 0.0
                for i in range(n)
            )
        certified += int(good)
    assert certified == 50


# ---------------------------------------------------------------------------
# 11. subgradients against finite differences
# ---------------------------------------------------------------------------


def test_c11_losses_match_finite_differences():
    rng = np.random.default_rng(42)
    reltol = 1e-4
    for _ in range(1000):
        gamma = float(rng.uniform(0.2, 1.5))
        lam = float(rng.uniform(0.05, 0.95))
        s = float(rng.uniform(-3.0, 3.0))
        while abs(s - gamma) < 1e-3:
            s = float(rng.uniform(-3.0, 3.0))
        _, g = rcn_phi(s, lam, gamma)
        num = central_difference(lambda t: rcn_phi(t, lam, gamma)[0], s)
        assert abs(num - g) <= reltol * max(abs(g), 1e-8)

    for _ in range(1000):
        gamma = float(rng.uniform(0.2, 1.5))
        eta = float(rng.uniform(0.0, 0.45))
        y01 = float(rng.integers(0, 2))
        w = rng.standard_normal(4)
        x = rng.standard_normal(4)
        s = float(w @ x)
        if min(abs(s - gamma), abs(s + gamma)) < 1e-3:
            continue
        grad = (glm_link_u(s, eta, gamma) - y01) * x
        direction = unit(rng.standard_normal(4))
        num = central_difference(lambda t: glm_loss(w + t * direction, x, y01, eta, gamma), 0.0)
        ana = float(grad @ direction)
        assert abs(num - ana) <= reltol * max(abs(ana), 1e-8)


# ---------------------------------------------------------------------------
# 12. CLI byte-level determinism
# ---------------------------------------------------------------------------


def _band_csv(tmp_path, name, seed=0, n_side=10):
    rng = np.random.default_rng(seed)
    xs = 1.2 + 0.6 * rng.random(n_side)
    X = np.concatenate([np.column_stack([xs, rng.random(n_side) - 0.5]),
                        np.column_stack([-xs, rng.random(n_side) - 0.5])])
    y = np.concatenate([np.ones(n_side), -np.ones(n_side)]).astype(np.int64)
    path = str(tmp_path / name)
    save_csv(path, Dataset(X, y))
    return path


def test_c12_every_subcommand_is_deterministic(tmp_path):
    train = _band_csv(tmp_path, "train.csv", seed=1)
    test = _band_csv(tmp_path, "test.csv", seed=2)
    good = str(tmp_path / "good.txt")
    save_model(good, LinearModel(vec(1.0, 0.0)))
    bad = str(tmp_path / "bad.txt")
    save_model(bad, LinearModel(vec(-1.0, 0.0)))
    gen_csv = str(tmp_path / "gen.csv")

    commands = {
        "gen-data": ["gen-data", "--gen", "gaussian", "--sigma", "0.1", "--n", "30",
                     "--seed", "3", "--out-csv", gen_csv],
        "certify": ["certify", "--model", good, "--input", train, "--gamma", "0.5"],
        "attack": ["attack", "--model", good, "--input", train, "--gamma", "2.0"],
        "rerm-ellipsoid": ["rerm-ellipsoid", "--input", train, "--gamma", "0.3"],
        "roboost": ["roboost", "--gen", "gaussian", "--sigma", "0.1", "--n", "60",
                    "--eval-n", "100", "--gamma", "0.3", "--eps", "0.2", "--beta", "0.5",
                    "--rounds", "2", "--seed", "5"],
        "uroboost": ["uroboost", "--input", train, "--gen", "gaussian", "--sigma", "0.1",
                     "--n", "40", "--eval-n", "80", "--gamma", "0.3", "--eps", "0.2",
                     "--beta", "0.5", "--rounds", "2", "--seed", "6"],
        "alpha-boost": ["alpha-boost", "--input", train, "--rounds", "4", "--seed", "7"],
        "robustify": ["robustify", "--input", train, "--offset", "0,0", "--offset", "0.3,0",
                      "--offset=-0.3,0", "--rounds", "5", "--inner-rounds", "8",
                      "--seed", "8"],
        "fms": ["fms", "--input", train, "--offset", "0,0", "--offset", "0.3,0",
                "--offset=-0.3,0", "--rounds", "60", "--seed", "9"],
        "cycle-robust": ["cycle-robust", "--input", train, "--gamma", "0.2",
                         "--mistake-cap", "300", "--seed", "10"],
        "one-pass": ["one-pass", "--gen", "gaussian", "--sigma", "0.1", "--eval-n", "80",
                     "--gamma", "0.2", "--eps", "0.5", "--mistake-cap", "50", "--seed", "11"],
        "wm": ["wm", "--input", train, "--offset", "0,0", "--eta-wm", "0.5",
               "--pool", good, bad, "--seed", "12"],
        "rcn-train": ["rcn-train", "--input", train, "--gamma", "0.3", "--rcn-eta", "0.1",
                      "--steps", "500", "--seed", "13"],
        "rejectron": ["rejectron", "--input", train, "--test-input", test, "--eps", "0.25",
                      "--seed", "14"],
        "urejectron": ["urejectron", "--input", train, "--test-input", test, "--eps", "0.25",
                       "--seed", "15"],
        "transductive-pool": ["transductive-pool", "--input", train, "--test-input", test,
                              "--pool", good, bad, "--gamma", "0.2", "--mode", "agnostic",
                              "--seed", "16"],
    }
    for name, argv in commands.items():
        out = str(tmp_path / f"{name}.txt")
        args = argv + ["--output", out]
        outputs = []
        for _ in range(2):
            code = cli_main(list(args))
            assert code == 0, f"{name} exited {code}"
            blob = Path(out).read_bytes()
            if name == "gen-data":
                blob += Path(gen_csv).read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"{name} output differs between identical runs"