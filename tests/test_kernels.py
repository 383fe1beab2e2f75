"""The numpy kernels against the explicit-loop references in tests/_refs.py.

Both sides sum in different orders, so they agree to float rounding, not bit
for bit. The hinge trainer is also checked bit for bit against the dense
numpy loop, which evaluates every step in full.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from roblearn import Dataset, WeightedDataset, erm_linear, lp_norm, mirror_step
from roblearn._kernels import _q_ball_step, glm_link_u, hinge_train, md_glm, md_rcn
from roblearn.learners import ERM_EPOCHS, ERM_LR0, ERM_REG

from ._refs import (hinge_train_dense_ref, hinge_train_ref, md_glm_ref, md_rcn_ref, q_ball_step_decimal,
                    q_ball_step_ref)


def random_problem(seed, n=60, d=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    sw = rng.random(n)
    sw = sw / sw.sum()
    return X, y, sw


@pytest.mark.parametrize("fit_bias", [False, True])
def test_hinge_train_matches_loops(fit_bias):
    X, y, sw = random_problem(1)
    w, b = hinge_train(X, y, sw, 150, 0.5, 0.01, fit_bias)
    w_ref, b_ref = hinge_train_ref(X, y, sw, 150, 0.5, 0.01, fit_bias)
    np.testing.assert_allclose(w, w_ref, rtol=1e-9, atol=1e-12)
    assert b == pytest.approx(b_ref, rel=1e-9, abs=1e-12)


def same_bits(got, want):
    return got[0].tobytes() == want[0].tobytes() and np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


@st.composite
def hinge_problems(draw):
    """Small problems whose margins land exactly on 1: integer or one-decimal
    features (or normal draws), some rows all zero, labels +-1."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["int", "decimal", "normal"]))
    if kind == "normal":
        X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d))
    else:
        X = np.array(draw(st.lists(st.integers(-20, 20), min_size=n * d, max_size=n * d)), dtype=float)
        X = X.reshape(n, d) / (10.0 if kind == "decimal" else 1.0)
    X[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    if draw(st.booleans()):
        sw = np.full(n, 1.0 / n)
    else:
        sw = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=float)
        sw = sw / sw.sum()
    return (X, y, sw, draw(st.integers(1, 400)), draw(st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0])),
            draw(st.sampled_from([0.0, 1e-4, 0.5])), draw(st.booleans()))


# Problems at the edges of a run: one exact evaluation certifies all 50
# steps; a single step; and a row of +-1e308 entries, whose margins overflow
# from step 2 on, so R is -inf or nan and every step evaluates in full.
ONE_RUN_TO_THE_LAST_STEP = (np.array([[2.0]]), np.array([1.0]), np.array([1.0]), 50, 0.01, 0.0, False)
ONE_STEP = (np.array([[1.0, -2.0], [0.5, 0.0]]), np.array([1.0, -1.0]), np.array([0.5, 0.5]), 1, 0.5, 1e-4, True)
OVERFLOWING_MARGINS = (np.array([[1e308, -1e308], [1.0, 0.5]]), np.array([1.0, -1.0]), np.array([0.5, 0.5]), 20, 0.5,
                       0.0, True)


@settings(max_examples=200)
@given(hinge_problems())
@example((np.array([[1.0]]), np.array([1.0]), np.array([1.0]), 400, 1.0, 0.0, False))  # n = 1, lands on margin 1
@example((np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]), np.full(3, 1 / 3), 50, 0.5, 1e-4, True))
@example(ONE_RUN_TO_THE_LAST_STEP)
@example(ONE_STEP)
@example(OVERFLOWING_MARGINS)
def test_hinge_train_is_the_dense_loop_bit_for_bit(problem):
    got = hinge_train(*problem)
    assert isinstance(got[0], np.ndarray) and got[0].dtype == np.float64 and got[0].shape == (problem[0].shape[1],)
    assert same_bits(got, hinge_train_dense_ref(*problem))


def bands(seed, n):
    """Two bands x1 = +-[1.2, 1.8], robust to the offsets (0, 0) and (+-0.3, 0):
    the rows alpha-boost trains its weak learners on."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return np.column_stack([y * (1.2 + 0.6 * rng.random(n)), rng.random(n) - 0.5]), y


class CountingMatrix(np.ndarray):
    """Counts the products X @ w and X.T @ coef; each returns a plain array."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(np.ndarray.__matmul__(self, other))


@pytest.mark.parametrize("fit_bias, evaluations", [(False, [3, 3, 3, 3]), (True, [9, 3, 3, 3])])
def test_hinge_train_skips_most_margin_evaluations_on_bands(fit_bias, evaluations):
    counts = []
    for seed in range(4):
        X, y = bands(seed, 400)
        rng = np.random.default_rng(100 + seed)
        sw = rng.random(y.shape[0]) if seed % 2 else np.ones(y.shape[0])
        sw = sw / sw.sum()
        args = (y, sw, ERM_EPOCHS, ERM_LR0, ERM_REG, fit_bias)
        CountingMatrix.products = 0
        assert same_bits(hinge_train(X.view(CountingMatrix), *args), hinge_train_dense_ref(X, *args))
        # an exact evaluation makes two products: the margins and the gradient
        counts.append(CountingMatrix.products // 2)
    assert sum(counts) < 0.1 * 4 * ERM_EPOCHS
    assert counts == evaluations


@pytest.mark.parametrize("problem, evaluations", [(ONE_RUN_TO_THE_LAST_STEP, 1), (ONE_STEP, 1),
                                                   (OVERFLOWING_MARGINS, 20)],
                         ids=["one-run-to-the-last-step", "one-step", "overflowing-margins"])
def test_hinge_train_evaluates_the_run_edges_as_expected(problem, evaluations):
    CountingMatrix.products = 0
    hinge_train(problem[0].view(CountingMatrix), *problem[1:])
    assert CountingMatrix.products == 2 * evaluations


@pytest.mark.parametrize("fit_bias, evaluations", [(False, [56, 44, 37, 26]), (True, [125, 82, 50, 40])])
def test_hinge_train_keeps_every_exact_evaluation_on_fms_rounds(fit_bias, evaluations):
    """The oracle calls of fms: band rows times the offsets (0, 0) and
    (+-0.3, 0), reweighted by multiplicative-weights rounds that double every
    row below the round's median margin, so rows hover at margin 1. The exact
    evaluations per call are pinned, so a kernel change that adds or drops
    one shows here."""
    X, y = bands(0, 60)
    Z = (X[:, None, :] + np.array([[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0]])).reshape(-1, 2)
    yz = np.repeat(y, 3)
    weights = np.ones(yz.shape[0])
    counts = []
    for _ in evaluations:
        args = (yz, weights / weights.sum(), ERM_EPOCHS, ERM_LR0, ERM_REG, fit_bias)
        CountingMatrix.products = 0
        w, b = got = hinge_train(Z.view(CountingMatrix), *args)
        counts.append(CountingMatrix.products // 2)
        assert same_bits(got, hinge_train_dense_ref(Z, *args))
        margins = yz * (Z @ w + b)
        assert margins.min() < 1.01  # some rows sit at margin 1
        weights = weights * np.where(margins < np.median(margins), 2.0, 1.0)
    assert counts == evaluations


@pytest.mark.parametrize("fit_bias", [False, True])
@pytest.mark.parametrize("zero_rows", [[1, 3], [0, 1, 2, 3]])
def test_hinge_train_zero_rows_raise_no_warning(fit_bias, zero_rows):
    X, y, sw = random_problem(8, n=4, d=3)
    X[zero_rows] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hinge_train(X, y, sw, 120, 0.5, 1e-4, fit_bias)
    assert same_bits(got, hinge_train_dense_ref(X, y, sw, 120, 0.5, 1e-4, fit_bias))


@pytest.mark.parametrize("q", [2.0, 1.5, 1.0])
def test_md_rcn_matches_loops(q):
    X, y, _ = random_problem(2, n=80, d=4)
    idx = np.random.default_rng(3).integers(0, 80, size=200)
    w = md_rcn(X, y, 0.4, 0.3, q, idx)
    np.testing.assert_allclose(w, md_rcn_ref(X, y, 0.4, 0.3, q, idx), rtol=1e-9, atol=1e-12)
    assert np.sum(np.abs(w) ** q) ** (1.0 / q) <= 1.0 + 1e-9


@pytest.mark.parametrize("q", [2.0, 1.5, 1.0])
def test_md_glm_matches_loops(q):
    X, y, _ = random_problem(4, n=70, d=3)
    y01 = (y > 0).astype(float)
    idx = np.random.default_rng(5).integers(0, 70, size=180)
    w = md_glm(X, y01, 0.5, 0.1, q, 0.8, idx)
    np.testing.assert_allclose(w, md_glm_ref(X, y01, 0.5, 0.1, q, 0.8, idx), rtol=1e-9, atol=1e-12)


@st.composite
def md_problems(draw):
    """Normal rows scaled so that some runs stay inside the ball and others
    are projected at every step, up to d = 100."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 100))
    X = rng.standard_normal((n, d)) * draw(st.sampled_from([0.05, 1.0, 20.0]))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    idx = rng.integers(0, n, size=draw(st.integers(1, 40)))
    return X, y, idx, draw(st.sampled_from([1.5, 2.0, 3.0]))


def q_norm_at_most_one(w, q):
    return lp_norm(w, q) <= 1.0 + 1e-12


# The kernel keeps the dual iterate (q != 2) or the primal one (q = 2) where
# the loop maps w both ways each step, so the two round differently; the
# averaged iterate, whose entries are at most 1, is held to 1e-12. 20k drawn
# problems differed by at most 5e-15.
@given(md_problems(), st.booleans())
def test_mirror_descent_matches_the_scalar_loop(problem, glm):
    X, y, idx, q = problem
    if glm:
        y01 = (y > 0).astype(float)
        got, want = md_glm(X, y01, 0.5, 0.1, q, 0.8, idx), md_glm_ref(X, y01, 0.5, 0.1, q, 0.8, idx)
    else:
        got, want = md_rcn(X, y, 0.4, 0.3, q, idx), md_rcn_ref(X, y, 0.4, 0.3, q, idx)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert q_norm_at_most_one(got, q)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_mirror_descent_with_huge_rates_matches_the_scalar_loop(q):
    # a step 1e40 times the ball's radius swamps the previous iterate, and each
    # projection rescales by about 1e-40
    X, y, _ = random_problem(9, n=6, d=4)
    y01 = (y > 0).astype(float)
    idx = np.random.default_rng(10).integers(0, 6, size=20)
    got = md_glm(X, y01, 0.5, 0.1, q, 1e40, idx)
    want = md_glm_ref(X, y01, 0.5, 0.1, q, 1e40, idx)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    assert q_norm_at_most_one(got, q)


def test_q2_mirror_descent_projects_steps_whose_squares_overflow():
    # at 1e200 the loop's squares overflow, so the reference is mirror_step,
    # which rescales by the scaled norm
    X, y, _ = random_problem(11, n=6, d=4)
    y01 = (y > 0).astype(float)
    idx = np.random.default_rng(12).integers(0, 6, size=20)
    w, acc = np.zeros(4), np.zeros(4)
    for t, i in enumerate(idx, 1):
        g = (glm_link_u(float(X[i] @ w), 0.1, 0.5) - y01[i]) * X[i]
        w = mirror_step(w, g, 1e200 / math.sqrt(t), 2.0)
        acc += w
    got = md_glm(X, y01, 0.5, 0.1, 2.0, 1e200, idx)
    np.testing.assert_allclose(got, acc / 20, rtol=1e-12, atol=1e-14)
    assert q_norm_at_most_one(got, 2.0)


@pytest.mark.parametrize("q", [1.3, 1.5, 2.0, 3.0])
def test_kernel_step_matches_reference_step(q):
    rng = np.random.default_rng(7)
    p = q / (q - 1.0)
    for _ in range(20):
        w = rng.standard_normal(6)
        w *= rng.random() / np.sum(np.abs(w) ** q) ** (1.0 / q)  # strictly inside the unit q-ball
        sg = rng.uniform(0.01, 1.0) * rng.standard_normal(6)
        np.testing.assert_allclose(_q_ball_step(w, sg, q, p), q_ball_step_ref(w, sg, q, p),
                                   rtol=1e-9, atol=1e-12)


# zeros of either sign, entries whose squares underflow or overflow, and
# ordinary values; a True flag copies w_j into sg_j so the entry cancels
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-200, 1e-170, 1e200]),
                  st.floats(-3.0, 3.0))


# The step's float form rounds each entry of the link, of theta = link(w) - sg
# and of the back map a few times, and each norm once per entry. So an entry
# is held to (d + 4) ulp of its own size, plus as many of the input scale
# max(|w|, |sg|) that a cancelling entry of theta keeps, shrunk by the final
# rescale; plus one subnormal spacing for entries on the subnormal grid. 20k
# drawn examples used at most 0.13 of that.
@given(st.lists(st.tuples(ENTRY, ENTRY, st.booleans()), min_size=1, max_size=5))
@example([(-0.0, 0.0, False), (-0.0, 0.0, False)])  # an all -0.0 w maps to zeros
@example([(0.5, 0.0, True), (-0.0, 0.0, False)])  # theta = [+0.0, -0.0]
@example([(0.5, 0.0, False), (-0.0, 0.0, False)])  # a -0.0 entry beside a non-zero one
@example([(1e-200, 0.5, False), (-1e-170, 0.0, False)])  # ||w||^2 underflows
@example([(1e-200, 0.0, False), (0.0, 0.0, False)])  # a tiny w is kept, not zeroed
@example([(0.5, -1e200, False), (0.0, 0.0, False)])  # ||theta||^2 overflows; the step is [1, 0]
def test_q2_step_matches_decimal_reference(cols):
    w = np.array([c[0] for c in cols])
    sg = np.array([c[0] if c[2] else c[1] for c in cols])
    got = _q_ball_step(w.copy(), sg, 2.0, 2.0)
    want = q_ball_step_decimal(w, sg, 2.0, 2.0)
    scale = max(np.max(np.abs(w)), np.max(np.abs(sg))) / max(1.0, lp_norm(w - sg, 2.0))
    ulp = (w.shape[0] + 4) * 2.0**-52
    assert np.all(np.abs(got - want) <= ulp * (np.abs(want) + scale) + 2.0**-1074)


def test_erm_linear_matches_loop_trainer():
    rng = np.random.default_rng(6)
    X = np.concatenate([rng.standard_normal((30, 3)) + [2, 0, 0],
                        rng.standard_normal((30, 3)) - [2, 0, 0]])
    y = np.concatenate([np.ones(30), -np.ones(30)]).astype(np.int64)
    model = erm_linear(WeightedDataset.uniform(Dataset(X, y)))
    w_ref, _ = hinge_train_ref(X, y.astype(float), np.full(60, 1.0 / 60), ERM_EPOCHS, ERM_LR0, ERM_REG, False)
    np.testing.assert_allclose(model.w, w_ref, rtol=1e-9, atol=1e-12)
    assert np.array_equal(model.predict_batch(X), np.where(X @ w_ref >= 0.0, 1, -1))
