"""The batch evaluation layer against explicit per-row references.

robust_losses, the margins, the selective labels, the cascade walk, the votes,
the one-sided expansion and the selection sets each evaluate whole arrays;
every test here rebuilds the same answer one row at a time from the
definitions in _refs.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roblearn import (
    Cascade,
    Dataset,
    EnsembleWeights,
    FiniteOffsets,
    FinitePerExample,
    LinearModel,
    LpBall,
    MajorityVote,
    SelectionSet,
    SelectiveClassifier,
    WeightedMajority,
    expand_g,
    inflate,
    margins_batch,
    robust_losses,
    robust_risk,
    select_members,
    selective_labels,
)

from ._refs import (
    brute_ball_loss,
    brute_finite_loss,
    cascade_ball_loss_ref,
    cascade_ref,
    expanded_ref,
    margin_ref,
    predict_ref,
    select_ref,
    selective_ref,
    vote_ref,
)

seeds = st.integers(0, 100_000)
norms = st.sampled_from([1.0, 2.0, math.inf])


def rand_model(rng, d):
    w = rng.standard_normal(d)
    if np.linalg.norm(w) < 0.2:
        w[0] = 1.0
    return LinearModel(w, bias=float(rng.standard_normal()) * 0.3)


def rand_data(rng, n, d, scale=1.5):
    return Dataset(rng.standard_normal((n, d)) * scale, np.where(rng.random(n) < 0.5, 1, -1))


def rand_offsets(rng, d, k):
    return FiniteOffsets(np.vstack([np.zeros(d), rng.standard_normal((k - 1, d)) * 0.6]))


def predict_of(model):
    return lambda z: predict_ref(model.w, model.bias, z)


@given(seeds, norms, st.floats(0.0, 1.0))
def test_ball_losses_match_brute_force(seed, p, gamma):
    rng = np.random.default_rng(seed)
    data = rand_data(rng, 12, 3)
    model = rand_model(rng, 3)
    got = robust_losses(model, data, LpBall(p, gamma))
    want = [brute_ball_loss(model.w, model.bias, x, int(y), p, gamma, 40, rng)
            for x, y in zip(data.X, data.y)]
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert robust_risk(model, data, LpBall(p, gamma)) == sum(want) / data.n


@given(seeds, st.integers(1, 5))
def test_offset_losses_match_enumeration(seed, k):
    rng = np.random.default_rng(seed)
    data = rand_data(rng, 10, 2)
    model = rand_model(rng, 2)
    U = rand_offsets(rng, 2, k)
    want = [brute_finite_loss(predict_of(model), x + U.offsets, int(y))
            for x, y in zip(data.X, data.y)]
    assert robust_losses(model, data, U).tolist() == want
    flat = inflate(data, U)
    assert np.array_equal(flat.data.X, np.vstack([x + U.offsets for x in data.X]))
    assert np.array_equal(flat.origins, np.repeat(np.arange(data.n), k))


@given(seeds)
def test_per_example_losses_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    data = rand_data(rng, 8, 2)
    model = rand_model(rng, 2)
    table = {i: rng.standard_normal((int(rng.integers(1, 5)), 2)) * 1.5 for i in range(data.n)}
    want = [brute_finite_loss(predict_of(model), table[i], int(data.y[i])) for i in range(data.n)]
    assert robust_losses(model, data, FinitePerExample(table)).tolist() == want


@given(seeds)
def test_plain_losses_are_the_zero_one_loss(seed):
    rng = np.random.default_rng(seed)
    data = rand_data(rng, 15, 3)
    model = rand_model(rng, 3)
    want = [int(predict_ref(model.w, model.bias, x) != y) for x, y in zip(data.X, data.y)]
    assert robust_losses(model, data, None).tolist() == want


@given(seeds, st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]), st.integers(1, 4))
def test_margins_match_per_row_margins(seed, p, d):
    rng = np.random.default_rng(seed)
    model = rand_model(rng, d)
    X = rng.uniform(-3.0, 3.0, (8, d))
    want = [margin_ref(model, x, p) for x in X]
    assert margins_batch(model, X, p) == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(seeds, st.sampled_from([1.0, 2.0, math.inf, "offsets"]), st.integers(1, 3),
       st.floats(0.05, 1.0))
def test_selective_labels_match_per_row_rule(seed, kind, d, gamma):
    rng = np.random.default_rng(seed)
    model = rand_model(rng, d)
    spec = rand_offsets(rng, d, 4) if kind == "offsets" else LpBall(kind, gamma)
    Z = rng.standard_normal((16, d)) * 1.5
    want = [selective_ref(model, spec, z) for z in Z]
    assert selective_labels(SelectiveClassifier(model, spec), Z).tolist() == want


def rand_cascade(rng, d, p, offsets=False):
    specs = [rand_offsets(rng, d, 3) if offsets and i == 1 else LpBall(p, float(rng.uniform(0.0, 0.6)))
             for i in range(3)]
    stages = [SelectiveClassifier(rand_model(rng, d), s) for s in specs]
    return Cascade(stages, fallback=rand_model(rng, d))


@given(seeds, norms, st.booleans())
def test_cascade_predict_batch_matches_stage_walk(seed, p, offsets):
    rng = np.random.default_rng(seed)
    c = rand_cascade(rng, 2, p, offsets)
    Z = rng.standard_normal((25, 2)) * 1.5
    want = [cascade_ref(c.stages, c.fallback, z) for z in Z]
    assert c.predict_batch(Z).tolist() == want


@given(seeds, norms, st.floats(0.0, 0.8))
def test_cascade_ball_losses_match_stage_walk(seed, p, gamma):
    rng = np.random.default_rng(seed)
    c = rand_cascade(rng, 2, p)
    data = rand_data(rng, 25, 2)
    want = [cascade_ball_loss_ref(c.stages, c.fallback, x, int(y), p, gamma)
            for x, y in zip(data.X, data.y)]
    assert c.robust_losses_lp(data, LpBall(p, gamma)).tolist() == want
    assert robust_losses(c, data, LpBall(p, gamma)).tolist() == want


@given(seeds, st.integers(1, 6))
def test_votes_match_per_row_sums(seed, size):
    rng = np.random.default_rng(seed)
    models = [rand_model(rng, 3) for _ in range(size)]
    weights = rng.random(size)
    Z = rng.standard_normal((30, 3))
    majority = MajorityVote(models)
    weighted = WeightedMajority(models, EnsembleWeights(weights))
    assert majority.predict_batch(Z).tolist() == [vote_ref(models, [1.0] * size, z) for z in Z]
    assert weighted.predict_batch(Z).tolist() == [vote_ref(models, weights, z) for z in Z]


@given(seeds, norms, st.floats(0.0, 1.0), st.sampled_from([1, -1]))
def test_expanded_predictor_matches_per_row_rule(seed, p, gamma, y):
    rng = np.random.default_rng(seed)
    model = rand_model(rng, 3)
    g = expand_g(model, LpBall(p, gamma), y)
    Z = rng.standard_normal((30, 3))
    want = [expanded_ref(model, p, gamma, y, z) for z in Z]
    assert g.predict_batch(Z).tolist() == want


@given(seeds, st.integers(0, 3))
def test_select_members_matches_per_row_rule(seed, size):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 2))
    base = rand_model(rng, 2)
    members = [rand_model(rng, 2) for _ in range(size)]
    pairs = [(rand_model(rng, 2), rand_model(rng, 2)) for _ in range(size)]
    for S, mode, stored in ((SelectionSet("rejectron", members, base=base), "rejectron", members),
                            (SelectionSet("urejectron", pairs), "urejectron", pairs)):
        want = [select_ref(mode, base, stored, x) for x in X]
        assert select_members(S, X).tolist() == want
