import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roblearn import (
    ConstantModel,
    Dataset,
    EmptyPool,
    EnsembleWeights,
    FiniteOffsets,
    FinitePerExample,
    GaussianPair,
    GenSpec,
    LinearModel,
    LpBall,
    MistakeCapExceeded,
    RobustifyConfig,
    Sample,
    SourceExhausted,
    StreamExhausted,
    Unsupported,
    WeakLearnerFailed,
    WeightedDataset,
    WeightedMajority,
    cycle_robust,
    enumeration_attack,
    erm_linear,
    finite_source,
    fms_agnostic,
    generate,
    lp_norm,
    make_pool_erm,
    margin_attack,
    one_pass_robust,
    perceptron_init,
    robust_risk,
    robustify_nonrobust,
    weighted_majority_robust,
    wm_constants,
    zero_robust_loss,
)
from roblearn.reductions import PerExampleWeights

from ._refs import brute_pool_optimum, gen_stream


def vec(*vals):
    return np.array(vals, dtype=float)


# ---------------------------------------------------------------------------
# attack-oracle adapters
# ---------------------------------------------------------------------------


def test_enumeration_attack_finds_listed_counterexample():
    spec = FiniteOffsets([vec(0.0), vec(-2.0)])
    oracle = enumeration_attack(spec)
    h = LinearModel(vec(1.0))
    z = oracle(h, Sample(vec(1.0), 1))
    assert np.allclose(z, [-1.0])
    assert oracle(h, Sample(vec(3.0), 1)) is None
    with pytest.raises(Unsupported):
        enumeration_attack(LpBall(2.0, 1.0))


def test_enumeration_attack_per_example_uses_index():
    spec = FinitePerExample({0: np.array([[5.0]]), 1: np.array([[-5.0]])})
    oracle = enumeration_attack(spec)
    h = LinearModel(vec(1.0))
    assert oracle(h, Sample(vec(5.0), 1), 0) is None
    assert np.allclose(oracle(h, Sample(vec(5.0), 1), 1), [-5.0])


def test_margin_attack_handles_the_zero_state():
    oracle = margin_attack(LpBall(2.0, 0.5))
    state = perceptron_init(2)
    # the empty state predicts +1 everywhere: only negative samples witness
    assert oracle(state, Sample(vec(1.0, 0.0), 1)) is None
    z = oracle(state, Sample(vec(1.0, 0.0), -1))
    assert np.allclose(z, [1.0, 0.0])


def test_margin_attack_returns_ball_witness():
    oracle = margin_attack(LpBall(2.0, 0.5))
    state = perceptron_init(2).update(vec(-1.0, 0.0), -1)  # w = (1, 0)
    s = Sample(vec(0.3, 0.0), 1)
    z = oracle(state, s)
    assert lp_norm(z - s.x, 2.0) <= 0.5 + 1e-9
    assert float(z[0]) <= 0.0 + 1e-9  # pushed across the boundary
    assert oracle(state, Sample(vec(5.0, 0.0), 1)) is None


# ---------------------------------------------------------------------------
# realizable robustification
# ---------------------------------------------------------------------------


SHIFTS = FiniteOffsets([vec(0.0, 0.0), vec(0.5, 0.0), vec(-0.5, 0.0)])


def separable_band() -> Dataset:
    X = np.array([[1.5, 0.4], [2.0, -0.2], [1.2, 0.9], [-1.4, 0.1], [-2.2, -0.6], [-1.1, 0.7]])
    y = np.array([1, 1, 1, -1, -1, -1], dtype=np.int64)
    return Dataset(X, y)


def test_zero_robust_loss_holds_every_perturbation():
    data = separable_band()
    vote = zero_robust_loss(data, SHIFTS, erm_linear)
    assert robust_risk(vote, data, SHIFTS) == 0.0


def test_zero_robust_loss_per_example_needs_indices():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    table = FinitePerExample({0: np.array([[1.0], [0.6]]), 1: np.array([[-1.0]])})
    with pytest.raises(ValueError):
        zero_robust_loss(data, table, erm_linear)
    vote = zero_robust_loss(data, table, erm_linear, indices=[0, 1])
    assert robust_risk(vote, data, table) == 0.0


def test_zero_robust_loss_rejects_unrealizable_input():
    clash = Dataset(np.array([[1.0], [1.0]]), np.array([1, -1]))
    with pytest.raises(WeakLearnerFailed):
        zero_robust_loss(clash, FiniteOffsets([vec(0.0)]), erm_linear,
                         RobustifyConfig(inner_rounds=4))


def test_robustify_reaches_zero_robust_loss():
    data = separable_band()
    diag = {}
    vote = robustify_nonrobust(data, SHIFTS, erm_linear, diagnostics=diag)
    assert robust_risk(vote, data, SHIFTS) == 0.0
    assert diag["inflated_size"] == 3 * data.n
    assert diag["rounds_run"] >= 1
    assert all(e <= 1.0 / 3.0 for e in diag["round_errors"])
    with pytest.raises(Unsupported):
        robustify_nonrobust(data, LpBall(2.0, 0.5), erm_linear)


# ---------------------------------------------------------------------------
# agnostic finite-perturbation game
# ---------------------------------------------------------------------------


def test_perturbation_weights_stay_normalized_and_monotone():
    w = PerExampleWeights([2, 3])
    w.scale_up(0, np.array([True, False]), 1.5)
    for p in w.normalized():
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)
    with pytest.raises(ValueError):
        w.scale_up(0, np.array([True, False]), 0.9)
    with pytest.raises(ValueError):
        PerExampleWeights([0])


def test_fms_vote_is_near_the_pool_optimum():
    # tiny agnostic instance: no pool member is perfect, the vote must land
    # within twice the brute-forced optimum
    X = np.array([[1.0], [2.0], [-1.5], [-0.7]])
    y = np.array([1, 1, -1, -1], dtype=np.int64)
    data = Dataset(X, y)
    spec = FiniteOffsets([vec(0.0), vec(0.9), vec(-0.9)])
    pool = [LinearModel(vec(1.0), bias=b) for b in (-0.6, -0.2, 0.0, 0.2, 0.6)]
    pool += [LinearModel(vec(-1.0), bias=0.1)]
    diag = {}
    vote = fms_agnostic(data, spec, make_pool_erm(pool), rounds=40, diagnostics=diag)
    lists = [spec.points(X[i]) for i in range(data.n)]
    opt = brute_pool_optimum(pool, lists, y)
    assert robust_risk(vote, data, spec) <= 2.0 * opt + 0.1
    assert diag["rounds"] == 40 and diag["eta"] > 0


def test_fms_round_count_default():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    spec = FiniteOffsets([vec(0.0), vec(0.1), vec(-0.1)])
    diag = {}
    fms_agnostic(data, spec, erm_linear, eps=0.5, diagnostics=diag)
    assert diag["rounds"] == math.ceil(32.0 * math.log(3) / 0.25)


# ---------------------------------------------------------------------------
# online conversions
# ---------------------------------------------------------------------------


def test_one_pass_learns_from_a_stream():
    pair = GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), sigma=0.1)
    ball = LpBall(2.0, 0.2)
    diag = {}
    state = one_pass_robust(gen_stream(pair, 3), perceptron_init(2), margin_attack(ball),
                            eps=0.25, delta=0.05, mistake_cap=100, diagnostics=diag)
    assert diag["run_length"] == math.ceil(4.0 * math.log(100 / 0.05))
    oracle = margin_attack(ball)
    fresh = generate(GenSpec(pair, 60, rng_seed=77))
    survived = sum(oracle(state, fresh.sample(i)) is None for i in range(fresh.n))
    assert survived >= 54


def test_one_pass_wraps_a_dry_stream():
    pair = GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), sigma=0.1)
    tiny = finite_source(generate(GenSpec(pair, 5, rng_seed=1)))
    with pytest.raises(StreamExhausted):
        one_pass_robust(tiny, perceptron_init(2), margin_attack(LpBall(2.0, 0.2)),
                        eps=0.25, delta=0.05, mistake_cap=100)


def test_cycle_terminates_with_certified_robust_state():
    pair = GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), sigma=0.1)
    data = generate(GenSpec(pair, 80, rng_seed=4))
    ball = LpBall(2.0, 0.3)
    oracle = margin_attack(ball)
    diag = {}
    cap = 200
    state = cycle_robust(data, perceptron_init(2), oracle, mistake_cap=cap, diagnostics=diag)
    assert all(oracle(state, data.sample(i), i) is None for i in range(data.n))
    assert diag["updates"] <= cap
    assert diag["oracle_calls"] <= data.n * cap


def test_cycle_aborts_past_the_mistake_cap():
    clash = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
    with pytest.raises(MistakeCapExceeded):
        cycle_robust(clash, perceptron_init(2), margin_attack(LpBall(2.0, 0.1)), mistake_cap=5)


# ---------------------------------------------------------------------------
# weighted majority against an attacker
# ---------------------------------------------------------------------------


def test_ensemble_weights_validation():
    with pytest.raises(EmptyPool):
        EnsembleWeights(np.array([]))
    with pytest.raises(ValueError):
        EnsembleWeights(np.array([0.5, 1.2]))


def test_weighted_majority_tie_goes_positive():
    wm = WeightedMajority([ConstantModel(1), ConstantModel(-1)],
                          EnsembleWeights(np.array([0.5, 0.5])))
    assert wm.predict(vec(0.0)) == 1
    assert np.array_equal(wm.predict_batch([[0.0], [1.0]]), [1, 1])


def test_wm_constants_hand_values():
    a, b = wm_constants(0.5)
    assert a == pytest.approx(2.409420839653209)
    assert b == pytest.approx(3.476059496782207)
    with pytest.raises(ValueError):
        wm_constants(0.0)
    with pytest.raises(ValueError):
        wm_constants(1.0)


def test_weighted_majority_suppresses_the_bad_member():
    # first tie resolves +1 and is wrong; the mistake halves the bad member,
    # after which the vote is robustly correct
    pool = [ConstantModel(1), ConstantModel(-1)]
    X = np.full((12, 1), 3.0)
    y = np.full(12, -1, dtype=np.int64)
    stream = finite_source(Dataset(X, y))
    oracle = enumeration_attack(FiniteOffsets([vec(0.0)]))
    diag = {}
    weights, predictor = weighted_majority_robust(pool, stream, oracle, eta_wm=0.5,
                                                  diagnostics=diag)
    assert diag["mistakes"] == 1 and diag["examples_seen"] == 12
    assert np.allclose(weights.weights, [0.5, 1.0])
    assert predictor.predict(vec(3.0)) == -1
    a, b = wm_constants(0.5)
    assert diag["mistakes"] <= a * 0.0 + b * math.log(len(pool))


def test_weighted_majority_respects_the_general_bound():
    rng = np.random.default_rng(8)
    truth = LinearModel(vec(1.0, -0.5))
    pool = [LinearModel(rng.standard_normal(2)) for _ in range(19)] + [truth]
    pair = GaussianPair((vec(2.0, -1.0), vec(-2.0, 1.0)), sigma=0.2)
    stream = finite_source(generate(GenSpec(pair, 300, rng_seed=6)))
    ball = LpBall(2.0, 0.1)

    def oracle(predictor, sample, index=None):
        # exhaustive-enough witness search for a vote: center plus pushed points
        cands = [sample.x]
        for h in pool:
            nrm = np.linalg.norm(h.w)
            if nrm > 0:
                cands.append(sample.x - 0.1 * sample.y * h.w / nrm)
        for z in cands:
            if predictor.predict(z) != sample.y:
                return z
        return None

    diag = {}
    weighted_majority_robust(pool, stream, oracle, eta_wm=0.5, diagnostics=diag)
    a, b = wm_constants(0.5)
    # the pool contains a zero-mistake member, so the bound is pure overhead
    assert diag["mistakes"] <= a * 0.0 + b * math.log(len(pool))