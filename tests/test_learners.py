import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from roblearn import (
    AllZeroWeights,
    BoostConfig,
    Dataset,
    EmptyDataset,
    EmptyPool,
    GlmConfig,
    InvalidNorm,
    LinearModel,
    LpBall,
    RcnConfig,
    WeightedDataset,
    ZeroPerceptron,
    beta_roboost,
    erm_linear,
    finite_source,
    glm_link_u,
    glm_loss,
    glm_train,
    lp_norm,
    make_pool_erm,
    mirror_step,
    perceptron_init,
    perceptron_model,
    perceptron_update,
    pool_erm,
    rcn_lambda,
    rcn_phi,
    rcn_train_md,
    reuse_fits,
    svm_margin,
)
from roblearn import _kernels
from roblearn.data import apply_rcn, substream
from roblearn.learners import ERM_EPOCHS, ERM_LR0, ERM_REG, SVM_C, SVM_EPOCHS

from ._refs import central_difference, q_ball_step_decimal


def vec(*vals):
    return np.array(vals, dtype=float)


def planted_margin_data(n: int, d: int, gamma: float, seed: int) -> tuple[Dataset, np.ndarray]:
    """Unit-ball points labeled by a halfspace, with |<w*, x>| >= gamma."""
    rng = np.random.default_rng(seed)
    w_star = np.zeros(d)
    w_star[0] = 1.0
    rows = []
    while len(rows) < n:
        pts = rng.standard_normal((4 * n, d))
        pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12)
        pts *= rng.random((4 * n, 1)) ** (1.0 / d)
        keep = np.abs(pts @ w_star) >= gamma
        rows.extend(pts[keep])
    X = np.array(rows[:n])
    y = np.where(X @ w_star >= 0, 1, -1).astype(np.int64)
    return Dataset(X, y), w_star


# ---------------------------------------------------------------------------
# weighted ERM
# ---------------------------------------------------------------------------


def test_weighted_dataset_validation():
    data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
    with pytest.raises(ValueError):
        WeightedDataset(data, [1.0])
    with pytest.raises(ValueError):
        WeightedDataset(data, [1.0, -0.5])
    assert WeightedDataset.uniform(data).total == pytest.approx(1.0)


def test_erm_separates_clean_data():
    data = Dataset(np.array([[1.0, 0.2], [2.0, -0.3], [-1.5, 0.1], [-0.8, -0.4]]),
                   np.array([1, 1, -1, -1]))
    model = erm_linear(WeightedDataset.uniform(data))
    assert np.array_equal(model.predict_batch(data.X), data.y)


def test_erm_ignores_zero_weight_rows():
    # the contradicting row carries no weight, so it cannot steer the model
    data = Dataset(np.array([[1.0], [2.0], [1.5]]), np.array([1, 1, -1]))
    model = erm_linear(WeightedDataset(data, [1.0, 1.0, 0.0]))
    assert model.predict_batch([[1.5]])[0] == 1


def test_erm_requires_positive_total_weight():
    data = Dataset(np.array([[1.0]]), np.array([1]))
    with pytest.raises(AllZeroWeights):
        erm_linear(WeightedDataset(data, [0.0]))
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(AllZeroWeights):
        erm_linear(WeightedDataset.uniform(empty))


@pytest.mark.parametrize("train", [svm_margin,
                                   lambda data: rcn_train_md(data, RcnConfig(gamma=0.1, eta=0.1)),
                                   lambda data: glm_train(data, GlmConfig(gamma=0.1, eta=0.1))],
                         ids=["svm_margin", "rcn_train_md", "glm_train"])
def test_trainers_refuse_an_empty_dataset(train):
    with pytest.raises(EmptyDataset):
        train(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)))


def test_erm_fit_bias_handles_offset_classes():
    data = Dataset(np.array([[3.0], [4.0], [1.0], [2.0]]), np.array([1, 1, -1, -1]))
    blind = erm_linear(WeightedDataset.uniform(data))
    witheta = erm_linear(WeightedDataset.uniform(data), fit_bias=True)
    assert np.array_equal(witheta.predict_batch(data.X), data.y)
    # without an intercept this split is not representable
    assert not np.array_equal(blind.predict_batch(data.X), data.y)


def test_erm_is_deterministic():
    data = Dataset(np.array([[0.3, 1.0], [-0.4, -1.0], [0.9, 0.5]]), np.array([1, -1, 1]))
    a = erm_linear(WeightedDataset.uniform(data))
    b = erm_linear(WeightedDataset.uniform(data))
    assert np.array_equal(a.w, b.w) and a.bias == b.bias


def test_erm_falls_back_when_no_step_leaves_the_origin():
    # antisymmetric rows: the subgradient at the origin is exactly zero, and
    # so is the fallback direction X^T (y sw), which leaves e1
    flat = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([1, -1]))
    assert erm_linear(WeightedDataset.uniform(flat)).w.tolist() == [1.0, 0.0]
    # a subgradient of the least subnormal: every step of at most 0.5 times
    # it rounds to zero, so the kernel ends at the origin and the fallback
    # direction X^T (y sw) itself is returned
    tiny = Dataset(np.array([[5e-324, 0.0]]), np.array([1]))
    w, _ = _kernels.hinge_train(tiny.X, np.ones(1), np.ones(1), ERM_EPOCHS, ERM_LR0, ERM_REG, False)
    assert not np.any(w)
    assert erm_linear(WeightedDataset.uniform(tiny)).w.tobytes() == tiny.X[0].tobytes()


# weight vectors on a 4-row dataset: a first, one an ulp from it, a third,
# the first with -0.0 for its zero weight, and twice the first, which
# normalizes to the first's bits
_A = np.array([0.5, 0.0, 0.25, 0.25])
_WEIGHTS = [_A, np.array([0.5, 0.0, 0.25, 0.25000000000000006]), np.array([0.1, 0.0, 0.3, 0.6]),
            np.array([0.5, -0.0, 0.25, 0.25]), 2.0 * _A]
_ERM_DATA = Dataset(np.array([[1.0, 0.2], [-0.5, 0.9], [-1.5, 0.1], [0.8, -0.4]]),
                    np.array([1, 1, -1, -1]))


@given(st.lists(st.integers(0, len(_WEIGHTS) - 1), max_size=12))
@example([0, 0, 1] * 4)
@example([0, 4, 1] * 4)  # alpha_boost's cycle: three vectors, two distributions
@example([0, 1, 2] * 4)  # a 3-cycle of distributions: every call misses
@example([0, 3, 0, 3, 3, 0])  # +0.0 and -0.0 are different bits
def test_reuse_fits_trains_each_miss_of_two_once(picks):
    def erm(wd):
        # deterministic and cheap, and like erm_linear it reads only wd.data
        # and the normalized weights
        return LinearModel(wd.data.X.T @ (wd.data.y * (wd.weights / wd.total)))

    trained = []

    def counted(wd):
        trained.append((wd.weights / wd.total).tobytes())
        return erm(wd)

    fit = reuse_fits(counted)
    memory, misses = [], []  # the last two distinct distributions, oldest first
    for i in picks:
        wd = WeightedDataset(_ERM_DATA, _WEIGHTS[i].copy())
        got, want = fit(wd), erm(wd)
        assert got.w.tobytes() == want.w.tobytes() and got.bias == want.bias
        key = (_WEIGHTS[i] / _WEIGHTS[i].sum()).tobytes()
        if key in memory:
            memory.remove(key)
        else:
            misses.append(key)
        memory = [*memory[-1:], key]
    assert trained == misses
    if picks:
        # the same weights with another data object train again, and so do
        # the old data's weights after it
        last = WeightedDataset(_ERM_DATA, _WEIGHTS[picks[-1]])
        again = WeightedDataset(Dataset(_ERM_DATA.X, _ERM_DATA.y), last.weights)
        assert fit(again).w.tobytes() == erm(again).w.tobytes()
        fit(last)
        assert trained == [*misses, memory[-1], memory[-1]]


def test_reuse_fits_leaves_a_zero_total_to_the_learner():
    with pytest.raises(AllZeroWeights):
        reuse_fits(erm_linear)(WeightedDataset(_ERM_DATA, np.zeros(4)))


# ---------------------------------------------------------------------------
# margin-threshold SVM wrapper
# ---------------------------------------------------------------------------


def test_svm_margin_splits_two_rings():
    # equal-mass clusters on one axis at normalized margins 3g and 1.5g: the
    # fit lies along the axis, and as beta_roboost's learner only the far
    # cluster clears the round's 2g threshold
    g = 0.4
    X = np.array([[3 * g, 0.0], [-3 * g, 0.0], [1.5 * g, 0.0], [-1.5 * g, 0.0]] * 25)
    y = np.array([1, -1, 1, -1] * 25, dtype=np.int64)
    data = Dataset(X, y)
    model = svm_margin(data)
    assert abs(model.w[0]) > 100 * abs(model.w[1])
    cfg = BoostConfig(beta=0.5, eps=0.2, rounds=1, per_round_m=data.n)
    cascade, rounds = beta_roboost(finite_source(data), svm_margin, cfg, LpBall(2.0, g))
    assert rounds == [(0.5, data.n)]
    assert cascade.stages[0].model.w.tobytes() == model.w.tobytes()


def test_svm_margin_runs_the_tiny_c_recipe():
    # uniform weights, penalty 1 / (2 C n), base step 1 / (2 reg) and no
    # intercept: the same bits as the kernel called with those settings
    data, _ = planted_margin_data(60, 3, 0.2, seed=4)
    reg = 1.0 / (2.0 * SVM_C * data.n)
    w, b = _kernels.hinge_train(np.ascontiguousarray(data.X), data.y.astype(float),
                                np.full(data.n, 1.0 / data.n), SVM_EPOCHS, 1.0 / (2.0 * reg), reg, False)
    model = svm_margin(data)
    assert b == 0.0 and model.bias == 0.0
    assert model.w.tobytes() == np.asarray(w).tobytes()


def test_svm_margin_falls_back_when_no_step_leaves_the_origin():
    # every step on the least subnormal rounds to zero, so the shared hinge
    # fit returns the fallback direction X^T (y sw), as erm_linear does
    tiny = Dataset(np.array([[5e-324, 0.0]]), np.array([1]))
    assert svm_margin(tiny).w.tobytes() == tiny.X[0].tobytes()


def test_pool_erm_prefers_lowest_index_on_ties():
    data = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
    pool = [LinearModel(vec(1.0, 0.0)), LinearModel(vec(2.0, 0.0))]
    picked = pool_erm(pool, WeightedDataset.uniform(data))
    assert picked is pool[0]
    with pytest.raises(EmptyPool):
        pool_erm([], WeightedDataset.uniform(data))
    with pytest.raises(AllZeroWeights):
        pool_erm(pool, WeightedDataset(data, [0.0, 0.0]))
    learner = make_pool_erm(pool)
    assert learner(WeightedDataset.uniform(data)) is pool[0]


def test_pool_erm_weighs_errors():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 1]))
    pool = [LinearModel(vec(1.0)), LinearModel(vec(-1.0))]
    # nearly all the mass sits on the second example, where only pool[1] is right
    picked = pool_erm(pool, WeightedDataset(data, [0.05, 0.95]))
    assert picked is pool[1]


# ---------------------------------------------------------------------------
# conservative perceptron
# ---------------------------------------------------------------------------


def test_perceptron_updates_only_on_mistakes():
    st0 = perceptron_init(2)
    assert np.array_equal(st0.w, vec(0.0, 0.0))
    # zero scores predict +1, so a +1 example is already correct
    st1 = perceptron_update(st0, vec(1.0, 0.0), 1)
    assert st1 is st0 or np.array_equal(st1.w, st0.w)
    st2 = perceptron_update(st0, vec(1.0, 0.0), -1)
    assert np.array_equal(st2.w, vec(-1.0, 0.0))
    # the original state is untouched
    assert np.array_equal(st0.w, vec(0.0, 0.0))
    assert perceptron_model(st2).predict_batch([[1.0, 0.0]])[0] == -1
    # a +1 mistake on the same point takes w back to zero
    st3 = perceptron_update(st2, vec(1.0, 0.0), 1)
    assert st3.mistakes == 2 and not np.any(st3.w)
    with pytest.raises(ZeroPerceptron, match="its 2 updates cancelled out$"):
        perceptron_model(st3)


def test_perceptron_mistake_bound_on_separable_stream():
    data, w_star = planted_margin_data(400, 4, 0.3, seed=5)
    state = perceptron_init(4)
    mistakes = 0
    for _ in range(10):
        for i in range(data.n):
            x, y = data.X[i], int(data.y[i])
            if state.predict(x) != y:
                mistakes += 1
                state = state.update(x, y)
    assert state.mistakes == mistakes
    assert mistakes <= math.ceil((1.0 / 0.3) ** 2)
    assert np.array_equal(perceptron_model(state).predict_batch(data.X), data.y)


# ---------------------------------------------------------------------------
# flip-tolerant slope mix and surrogate
# ---------------------------------------------------------------------------


def test_rcn_lambda_hand_value_and_range():
    assert rcn_lambda(0.1, 0.5, 0.2) == pytest.approx(0.225 / 1.05)
    for eps in (0.01, 0.3, 0.9):
        for eta in (0.0, 0.2, 0.49):
            lam = rcn_lambda(eps, 0.7, eta)
            assert eta <= lam <= 0.5
    with pytest.raises(ValueError):
        rcn_lambda(0.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        rcn_lambda(0.1, -1.0, 0.1)
    with pytest.raises(ValueError):
        rcn_lambda(0.1, 0.5, 0.5)


def test_surrogate_values_and_boundary_branch():
    lam, gamma = 0.3, 0.5
    v, g = rcn_phi(1.0, lam, gamma)  # above the margin
    assert v == pytest.approx(0.3 * (1 - 2.0)) and g == pytest.approx(-0.6)
    v, g = rcn_phi(0.0, lam, gamma)
    assert v == pytest.approx(0.7) and g == pytest.approx(-1.4)
    # the kink itself uses the steeper branch
    v, g = rcn_phi(gamma, lam, gamma)
    assert v == pytest.approx(0.0) and g == pytest.approx(-(1 - lam) / gamma)


@given(st.floats(-2.0, 2.0), st.floats(0.05, 0.45), st.floats(0.2, 1.5))
def test_surrogate_subgradient_matches_finite_difference(s, lam, gamma):
    if abs(s - gamma) < 1e-3:
        return  # the kink has no classical derivative
    _, g = rcn_phi(s, lam, gamma)
    num = central_difference(lambda t: rcn_phi(t, lam, gamma)[0], s, h=1e-7)
    assert g == pytest.approx(num, rel=1e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# mirror step
# ---------------------------------------------------------------------------


def test_mirror_step_euclidean_case_is_projected_gradient():
    w2 = mirror_step(vec(0.6, 0.0), vec(-1.0, 0.0), 0.2, 2.0)
    assert np.allclose(w2, [0.8, 0.0])
    w3 = mirror_step(vec(0.9, 0.0), vec(-1.0, 0.0), 0.5, 2.0)
    assert np.allclose(w3, [1.0, 0.0])  # radial projection back to the ball


def test_mirror_step_zero_gradient_is_identity():
    for q in (1.5, 2.0, 3.0):
        w = vec(0.3, -0.2, 0.1)
        out = mirror_step(w, np.zeros(3), 0.7, q)
        assert np.allclose(out, w, atol=1e-12)


def test_mirror_step_rejects_q_at_most_one():
    for q in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(InvalidNorm):
            mirror_step(vec(0.1), vec(0.0), 0.1, q)


def test_mirror_step_rejects_a_bad_gradient():
    # a nan gradient used to return the zero vector without a word
    for g in (vec(math.nan, 0.0), vec(math.inf, 0.0), vec(1.0)):
        with pytest.raises(ValueError):
            mirror_step(vec(0.3, 0.2), g, 1.0, 1.5)


def _normal_pair(draw):
    seed, d, scale = draw
    rng = np.random.default_rng(seed)
    return rng.standard_normal(d) * scale, rng.standard_normal(d)


# an entry of theta that nearly cancels loses relative bits in any float form,
# and the back map multiplies that loss by p - 1, so small entries are held to
# 1e-12 of the largest one
@given(
    st.sampled_from([1.01, 1.1, 1.5, 3.0, 4.0]),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([1e-6, 1.0, 1e3]))
    .map(_normal_pair),
)
# powers of |theta| overflowed at q = 1.01 (p = 101) in the unscaled form
@example(1.01, ([0.3, -0.2], [-2000.0, 1000.0]))
# and underflowed for a tiny w
@example(1.01, ([1e-5, -1e-5], [0.0, 0.0]))
def test_mirror_step_matches_decimal_reference(q, wg):
    w, g = wg
    out = mirror_step(w, g, 1.0, q)
    want = q_ball_step_decimal(w, g, q, q / (q - 1.0))
    assert np.all(np.isfinite(out)) and lp_norm(out, q) <= 1.0 + 1e-12
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@given(
    st.integers(0, 2_000),
    st.sampled_from([1.5, 2.0, 4.0]),
    st.floats(0.01, 1.0),
)
def test_mirror_step_stays_in_unit_ball(seed, q, step):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(4)
    w /= max(lp_norm(w, q), 1.0)
    g = rng.standard_normal(4)
    out = mirror_step(w, g, step, q)
    assert lp_norm(out, q) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# noise-tolerant training
# ---------------------------------------------------------------------------


def test_rcn_training_recovers_planted_halfspace():
    gamma, eta = 0.25, 0.1
    clean, _ = planted_margin_data(1500, 5, gamma, seed=9)
    noisy = apply_rcn(clean, eta, seed=9)
    model = rcn_train_md(noisy, RcnConfig(gamma=gamma, eta=eta, rng_seed=9))
    clean_err = float(np.mean(model.predict_batch(clean.X) != clean.y))
    assert clean_err <= 0.1


def test_rcn_training_is_seed_deterministic():
    clean, _ = planted_margin_data(300, 3, 0.3, seed=2)
    noisy = apply_rcn(clean, 0.15, seed=2)
    cfg = RcnConfig(gamma=0.3, eta=0.15, rng_seed=7)
    a = rcn_train_md(noisy, cfg)
    b = rcn_train_md(noisy, cfg)
    assert np.array_equal(a.w, b.w)


def test_link_is_a_clamped_ramp():
    eta, gamma = 0.1, 0.5
    assert glm_link_u(-1.0, eta, gamma) == pytest.approx(eta)
    assert glm_link_u(1.0, eta, gamma) == pytest.approx(1 - eta)
    assert glm_link_u(0.0, eta, gamma) == pytest.approx(0.5)
    assert glm_link_u(0.25, eta, gamma) == pytest.approx(0.7)
    # monotone over the whole line
    xs = np.linspace(-2, 2, 101)
    vals = [glm_link_u(float(s), eta, gamma) for s in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@given(st.integers(0, 2_000))
def test_link_integral_gradient_identity(seed):
    rng = np.random.default_rng(seed)
    eta, gamma = 0.15, 0.4
    w = rng.standard_normal(3) * 0.5
    x = rng.standard_normal(3)
    y01 = float(rng.integers(0, 2))
    s = float(w @ x)
    if abs(abs(s) - gamma) < 1e-3:
        return
    want = (glm_link_u(s, eta, gamma) - y01) * x
    got = np.array([
        central_difference(lambda t, j=j: glm_loss(w + t * np.eye(3)[j], x, y01, eta, gamma), 0.0)
        for j in range(3)
    ])
    assert np.allclose(got, want, rtol=1e-4, atol=1e-6)


def test_glm_training_recovers_planted_halfspace():
    gamma, eta = 0.25, 0.1
    clean, _ = planted_margin_data(1500, 5, gamma, seed=13)
    noisy = apply_rcn(clean, eta, seed=13)
    model = glm_train(noisy, GlmConfig(gamma=gamma, eta=eta, rng_seed=13))
    clean_err = float(np.mean(model.predict_batch(clean.X) != clean.y))
    assert clean_err <= 0.1


def test_glm_config_validation():
    with pytest.raises(InvalidNorm):
        GlmConfig(gamma=0.3, eta=0.1, q=0.5)
    with pytest.raises(ValueError):
        GlmConfig(gamma=0.3, eta=0.6)


def test_training_substreams_are_label_separated():
    # different purposes draw from different substreams of one seed
    a = substream(3, "rcn-md").integers(0, 100, size=5)
    b = substream(3, "glm-md").integers(0, 100, size=5)
    assert not np.array_equal(a, b)


def _md_kernel_call(label, data, cfg, steps):
    # what each trainer hands the kernel: contiguous X, float labels (in {0,1}
    # for glm, with base step 2 gamma / (1 - 2 eta)) and rows drawn from the
    # seed's substream for its label
    idx = substream(cfg.rng_seed, label).integers(0, data.n, size=steps)
    X, yf = np.ascontiguousarray(data.X), data.y.astype(float)
    if label == "rcn-md":
        return _kernels.md_rcn(X, yf, cfg.gamma, cfg.lam, float(cfg.q), idx)
    lr0 = 2.0 * cfg.gamma / (1.0 - 2.0 * cfg.eta)
    return _kernels.md_glm(X, (yf + 1.0) / 2.0, cfg.gamma, cfg.eta, float(cfg.q), lr0, idx)


_MD_TRAINERS = [(rcn_train_md, RcnConfig, "rcn-md"), (glm_train, GlmConfig, "glm-md")]


@pytest.mark.parametrize("train,config,label", _MD_TRAINERS, ids=["rcn_train_md", "glm_train"])
def test_md_trainers_draw_their_rows_from_their_own_substream(train, config, label):
    noisy = apply_rcn(planted_margin_data(80, 3, 0.3, seed=5)[0], 0.1, seed=5)
    cfg = config(gamma=0.3, eta=0.1, steps=50, rng_seed=6)
    want = np.asarray(_md_kernel_call(label, noisy, cfg, 50))
    assert np.any(want)
    assert train(noisy, cfg).w.tobytes() == want.tobytes()


@pytest.mark.parametrize("train,config,label", _MD_TRAINERS, ids=["rcn_train_md", "glm_train"])
def test_md_trainers_default_to_two_n_draws(train, config, label):
    noisy = apply_rcn(planted_margin_data(40, 3, 0.3, seed=8)[0], 0.1, seed=8)
    bits = lambda steps: train(noisy, config(gamma=0.3, eta=0.1, steps=steps, rng_seed=1)).w.tobytes()
    assert bits(None) == bits(2 * noisy.n) != bits(2 * noisy.n - 1)
