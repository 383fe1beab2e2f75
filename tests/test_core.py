import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from roblearn import (
    Cascade,
    ConfigError,
    Dataset,
    EllipsoidConfig,
    EmptyDataset,
    FiniteOffsets,
    FinitePerExample,
    InvalidNorm,
    LinearModel,
    LpBall,
    MajorityVote,
    PerceptronState,
    SelectiveClassifier,
    SizeLimit,
    Unsupported,
    ZeroWeight,
    attack,
    dual_exponent,
    dual_maximizer,
    dual_norm,
    ellipsoid_certify,
    inflate,
    inverse_blowup,
    lp_norm,
    margin_attack,
    margins_batch,
    robust_loss,
    robust_losses,
    robust_risk,
    separation_oracle,
    worst_case_point,
)

from ._refs import brute_ball_loss, brute_finite_loss, norm_ref, dual_exponent_ref


def vec(*vals):
    return np.array(vals, dtype=float)


# ---------------------------------------------------------------------------
# norms and duality
# ---------------------------------------------------------------------------


def test_dual_exponent_pairs():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(3.0) == pytest.approx(1.5)


def test_dual_exponent_rejects_bad_p():
    with pytest.raises(InvalidNorm):
        dual_exponent(0.5)


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
    st.sampled_from([1.0, 2.0, math.inf]),
)
def test_lp_norm_matches_reference(vals, p):
    v = np.array(vals)
    assert lp_norm(v, p) == pytest.approx(norm_ref(v, p), abs=1e-12)


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
    st.sampled_from([1.0, 2.0, math.inf]),
)
@example([5e-324, 5e-324], 2.0)  # the norm rounds to the subnormal 5e-324
@example([5e-324, 5e-324], 3.0)
def test_dual_maximizer_attains_dual_norm(vals, p):
    w = np.array(vals)
    if not np.any(w):
        w[0] = 1.0
    v = dual_maximizer(w, p)
    assert abs(lp_norm(v, p) - 1.0) <= 1e-12
    assert float(w @ v) == pytest.approx(norm_ref(w, dual_exponent_ref(p)), abs=1e-9)


def test_dual_maximizer_tie_breaks():
    # two coordinates tied in magnitude: lowest index wins under the 1-norm
    v = dual_maximizer(vec(3.0, -3.0), 1.0)
    assert np.array_equal(v, vec(1.0, 0.0))
    # zero coordinates map to +1 under the sup norm
    v = dual_maximizer(vec(0.0, -2.0), math.inf)
    assert np.array_equal(v, vec(1.0, -1.0))


def test_dual_norm_is_norm_of_dual_exponent():
    w = vec(1.0, -2.0, 3.0)
    for p in (1.0, 2.0, math.inf):
        assert dual_norm(w, p) == pytest.approx(norm_ref(w, dual_exponent_ref(p)))


# ---------------------------------------------------------------------------
# core containers, and the one-point queries that check their (x, y)
# ---------------------------------------------------------------------------


AXIS, BALL = LinearModel(vec(1.0, 0.0)), LpBall(2.0, 1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: robust_loss(AXIS, vec(1.0, 0.0), 0, BALL), "label must be -1 or"),
    (lambda: attack(AXIS, vec(1.0, 0.0), 0.5, BALL), "label must be -1 or"),
    (lambda: ellipsoid_certify(AXIS, vec(1.0, 0.0), 2, separation_oracle(BALL, vec(1.0, 0.0)),
                               EllipsoidConfig()), "label must be -1 or"),
    (lambda: robust_loss(AXIS, np.zeros((1, 2)), 1, BALL), "expected a 1-d vector"),
    (lambda: ellipsoid_certify(AXIS, np.zeros((1, 2)), 1, separation_oracle(BALL, vec(1.0, 0.0)),
                               EllipsoidConfig()), "expected a 1-d vector"),
    (lambda: attack(AXIS, vec(np.inf, 0.0), 1, BALL), "vector entries must be finite"),
    (lambda: Dataset(vec(1.0, 2.0), np.array([1, -1])), "X must be 2-d"),
    (lambda: Dataset(np.array([[1.0], [np.nan]]), np.array([1, -1])), "features must be finite"),
    (lambda: Dataset(np.zeros((2, 1)), np.array([1, 0])), "labels must be -1 or"),
    (lambda: FiniteOffsets(vec(0.0, 1.0)), "offsets must be a list of vectors"),
    (lambda: FiniteOffsets([vec(1.0, 0.0)]), "must include the zero vector"),
    (lambda: FinitePerExample({3: np.zeros((0, 2))}), "index 3 must be non-empty 2-d"),
], ids=["loss-label", "attack-label", "certify-label", "loss-2d", "certify-2d", "attack-inf",
        "dataset-1d", "dataset-nan", "dataset-label", "offsets-1d",
        "offsets-no-zero", "per-example-empty"])
def test_containers_refuse_malformed_input(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_dataset_shapes_and_subset():
    data = Dataset(np.arange(6, dtype=float).reshape(3, 2), np.array([1, -1, 1]))
    assert data.n == 3 and data.d == 2
    sub = data.subset([2, 0])
    assert np.array_equal(sub.X, np.array([[4.0, 5.0], [0.0, 1.0]]))
    assert np.array_equal(sub.y, np.array([1, 1]))


def test_dataset_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1]))


def test_linear_model_boundary_is_positive():
    m = LinearModel(vec(1.0, 0.0))
    assert m.predict(vec(0.0, 5.0)) == 1
    assert np.array_equal(m.predict_batch(np.array([[0.0, 1.0], [-1.0, 0.0]])), [1, -1])


def test_linear_model_refuses_all_zero_weights():
    with pytest.raises(ZeroWeight, match="must not be all zero"):
        LinearModel(vec(0.0, -0.0))
    with pytest.raises(ZeroWeight, match="dual maximizer of the zero vector"):
        dual_maximizer(vec(0.0, -0.0), 2.0)


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 40), st.sampled_from([1, 2]),
       st.sampled_from(["C", "F", "sliced"]))
def test_a_rows_decision_value_does_not_depend_on_its_block(seed, d, n, decimals, layout):
    # X @ w rounds a row by the block it arrives in; the decision value must not
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(-2.0, 2.0, (n, d)), decimals)
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "sliced":
        X = np.repeat(X, 2, axis=1)[:, ::2]  # every other column of a wider matrix
    model = LinearModel(rng.standard_normal(d), bias=float(rng.standard_normal()))
    i = int(rng.integers(n))
    k = int(rng.integers(1, n - i + 1))
    block, alone = model.decisions(X)[i], model.decisions(X[i:i + k])[0]
    assert _bits(block) == _bits(alone) == _bits(model.decisions(X[i]))
    assert model.predict_batch(X)[i] == model.predict_batch(X[i:i + k])[0] == model.predict(X[i])
    assert PerceptronState(model.w).predict(X[i]) == LinearModel(model.w).predict_batch(X)[i]


def test_a_nan_margin_is_a_loss_everywhere():
    # ||w||_1 overflows to inf, and so does <w, x> (or it is inf - inf): the margin is nan
    w, x = vec(1e308, 1e308), vec(1e308, -1e308)
    model, ball = LinearModel(w), LpBall(math.inf, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(margins_batch(model, x[None], ball.p)[0])
        assert robust_losses(model, Dataset(x[None], [1]), ball).tolist() == [1]
        assert attack(model, x, 1, ball) is not None
        hit, _witness = margin_attack(ball)(PerceptronState(w), x[None], np.array([1]), 0)
        # a stage with a nan margin abstains, so a wrong fallback decides the row
        stage = SelectiveClassifier(model, LpBall(math.inf, 0.5))
        cascade = Cascade([stage], LinearModel(vec(-1.0, 0.0)))
        assert robust_losses(cascade, Dataset(x[None], [1]), ball).tolist() == [1]
    assert hit.tolist() == [True]


# ---------------------------------------------------------------------------
# margins and worst-case points
# ---------------------------------------------------------------------------


def test_margin_is_distance_scaled_decision():
    m = LinearModel(vec(3.0, 4.0), bias=5.0)
    x = vec(1.0, 1.0)
    assert margins_batch(m, x[None], 2.0)[0] == pytest.approx((3 + 4 + 5) / 5.0)
    assert margins_batch(m, x[None], math.inf)[0] == pytest.approx(12 / 7.0)
    assert margins_batch(m, x[None], 1.0)[0] == pytest.approx(12 / 4.0)


@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=4),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.floats(0.05, 2.0),
    st.sampled_from([1, -1]),
)
def test_worst_case_point_stays_in_ball_and_minimizes(wvals, p, gamma, y):
    w = np.array(wvals)
    if not np.any(w):
        w[0] = 1.0
    model = LinearModel(w)
    x = np.linspace(-1, 1, w.size)
    ball = LpBall(p, gamma)
    z = worst_case_point(model, x, y, ball)
    assert lp_norm(z - x, p) <= gamma * (1 + 1e-9)
    # no ball point does worse than the analytic one
    assert y * float(w @ z) == pytest.approx(
        y * float(w @ x) - gamma * norm_ref(w, dual_exponent_ref(p)), abs=1e-9
    )


# ---------------------------------------------------------------------------
# robust loss: closed form against brute force
# ---------------------------------------------------------------------------


def test_robust_loss_boundary_counts_as_loss():
    m = LinearModel(vec(1.0, 0.0))
    ball = LpBall(2.0, 1.0)
    assert robust_loss(m, vec(1.0, 0.0), 1, ball) == 1  # margin == gamma
    assert robust_loss(m, vec(1.0 + 1e-9, 0.0), 1, ball) == 0


def test_robust_loss_zero_radius_is_plain_error():
    m = LinearModel(vec(1.0, -1.0))
    ball = LpBall(2.0, 0.0)
    assert robust_loss(m, vec(1.0, 0.0), 1, ball) == 0
    assert robust_loss(m, vec(0.0, 1.0), 1, ball) == 1  # misclassified as is
    assert robust_loss(m, vec(0.0, 0.0), -1, ball) == 1  # boundary tie goes to +1


@given(
    st.integers(0, 10_000),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.integers(1, 5),
    st.floats(0.05, 2.0),
)
def test_robust_loss_matches_brute_force(seed, p, d, gamma):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    if not np.any(w):
        w = np.ones(d)
    bias = float(rng.standard_normal()) * 0.5
    x = rng.standard_normal(d)
    y = 1 if rng.random() < 0.5 else -1
    model = LinearModel(w, bias=bias)
    got = robust_loss(model, x, y, LpBall(p, gamma))
    # the analytic witness makes the sampled check exact for linear models
    want = brute_ball_loss(w, bias, x, y, p, gamma, 512, rng)
    assert got == want


@given(st.integers(0, 5_000), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_robust_loss_monotone_in_radius(seed, g_small, g_extra):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(3)
    if not np.any(w):
        w = np.ones(3)
    model = LinearModel(w, bias=float(rng.standard_normal()) * 0.3)
    x, y = rng.standard_normal(3), 1 if rng.random() < 0.5 else -1
    small = robust_loss(model, x, y, LpBall(2.0, g_small))
    big = robust_loss(model, x, y, LpBall(2.0, g_small + g_extra))
    assert small <= big


def test_robust_loss_finite_offsets_enumerates():
    m = LinearModel(vec(1.0, 0.0))
    spec = FiniteOffsets([vec(0.0, 0.0), vec(-2.0, 0.0)])
    x = vec(1.0, 0.0)
    assert robust_loss(m, x, 1, spec) == 1  # the shifted copy lands at (-1, 0)
    assert brute_finite_loss(m.predict, spec.points(x), 1) == 1


def test_robust_loss_per_example_table_uses_index():
    m = LinearModel(vec(1.0, 0.0))
    table = FinitePerExample({0: np.array([[1.0, 0.0]]), 1: np.array([[-1.0, 0.0]])})
    assert robust_loss(m, vec(1.0, 0.0), 1, table, index=0) == 0
    assert robust_loss(m, vec(1.0, 0.0), 1, table, index=1) == 1


def test_robust_risk_averages():
    m = LinearModel(vec(1.0, 0.0))
    data = Dataset(np.array([[2.0, 0.0], [0.5, 0.0], [-2.0, 0.0]]), np.array([1, 1, -1]))
    assert robust_risk(m, data, LpBall(2.0, 1.0)) == pytest.approx(1.0 / 3.0)
    with pytest.raises(EmptyDataset):
        robust_risk(m, Dataset(np.zeros((0, 2)), np.zeros(0)), None)
    # a vote has no closed-form ball loss
    with pytest.raises(Unsupported, match="no closed form for MajorityVote"):
        robust_risk(MajorityVote([m]), data, LpBall(2.0, 1.0))


# ---------------------------------------------------------------------------
# inverse blowup and inflation
# ---------------------------------------------------------------------------


def test_inverse_blowup_doubles_ball_radius():
    ball = LpBall(2.0, 0.7)
    doubled = inverse_blowup(ball)
    assert isinstance(doubled, LpBall)
    assert doubled.p == 2.0 and doubled.gamma == pytest.approx(1.4)
    # applying it twice quadruples the radius
    assert inverse_blowup(doubled).gamma == pytest.approx(2.8)


def test_inverse_blowup_offsets_are_differences():
    spec = FiniteOffsets([vec(0.0), vec(1.0)])
    doubled = inverse_blowup(spec)
    got = sorted(float(o[0]) for o in doubled.offsets)
    assert got == [-1.0, 0.0, 1.0]


def test_inverse_blowup_offsets_dedupes():
    spec = FiniteOffsets([vec(0.0), vec(1.0), vec(-1.0)])
    doubled = inverse_blowup(spec)
    got = sorted(float(o[0]) for o in doubled.offsets)
    assert got == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_inflate_enumerates_and_tracks_origins():
    data = Dataset(np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([1, -1]))
    spec = FiniteOffsets([vec(0.0, 0.0), vec(1.0, 0.0)])
    out = inflate(data, spec)
    assert out.data.n == 4
    assert np.array_equal(out.origins, np.array([0, 0, 1, 1]))
    assert np.array_equal(out.data.y, np.array([1, 1, -1, -1]))
    assert np.allclose(out.data.X[1], [1.0, 0.0])


def test_inflate_per_example_table_keys_by_row():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([1, -1]))
    spec = FinitePerExample({0: np.array([[5.0]]), 1: np.array([[6.0], [7.0]])})
    out = inflate(data, spec)
    assert out.data.n == 3
    assert np.allclose(out.data.X.ravel(), [5.0, 6.0, 7.0])
    assert np.array_equal(out.origins, np.array([0, 1, 1]))


def test_inflate_rejects_balls_and_caps_size():
    data = Dataset(np.zeros((2, 1)), np.array([1, 1]))
    with pytest.raises(Unsupported):
        inflate(data, LpBall(2.0, 0.1))
    big = FiniteOffsets(np.zeros((600, 1)) + np.arange(600)[:, None])
    with pytest.raises(SizeLimit):
        inflate(data, big, cap=1000)
