"""The numpy kernels against the explicit-loop references in tests/_refs.py.

Both sides sum in different orders, so they agree to float rounding, not bit
for bit.
"""

import numpy as np
import pytest

from roblearn import Dataset, ErmConfig, WeightedDataset, erm_linear, mirror_step
from roblearn._kernels import _q_ball_step, hinge_train, md_glm, md_rcn

from ._refs import hinge_train_ref, md_glm_ref, md_rcn_ref


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


@pytest.mark.parametrize("q", [1.3, 1.5, 2.0, 3.0])
def test_kernel_step_matches_public_mirror_step(q):
    rng = np.random.default_rng(7)
    p = q / (q - 1.0)
    for _ in range(20):
        w = rng.standard_normal(6)
        w *= rng.random() / np.sum(np.abs(w) ** q) ** (1.0 / q)  # strictly inside the unit q-ball
        g = rng.standard_normal(6)
        step = rng.uniform(0.01, 1.0)
        np.testing.assert_allclose(_q_ball_step(w, step * g, q, p), mirror_step(w, g, step, q),
                                   rtol=1e-9, atol=1e-12)


def test_erm_linear_matches_loop_trainer():
    rng = np.random.default_rng(6)
    X = np.concatenate([rng.standard_normal((30, 3)) + [2, 0, 0],
                        rng.standard_normal((30, 3)) - [2, 0, 0]])
    y = np.concatenate([np.ones(30), -np.ones(30)]).astype(np.int64)
    cfg = ErmConfig()
    model = erm_linear(WeightedDataset.uniform(Dataset(X, y)), cfg)
    w_ref, _ = hinge_train_ref(X, y.astype(float), np.full(60, 1.0 / 60), cfg.epochs, cfg.lr0, cfg.reg, False)
    np.testing.assert_allclose(model.w, w_ref, rtol=1e-9, atol=1e-12)
    assert np.array_equal(model.predict_batch(X), np.where(X @ w_ref >= 0.0, 1, -1))
