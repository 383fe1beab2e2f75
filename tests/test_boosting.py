import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roblearn import (
    AlphaBoostConfig,
    BoostConfig,
    Cascade,
    ConfigError,
    Dataset,
    FiniteOffsets,
    FinitePerExample,
    GenSpec,
    LinearModel,
    LpBall,
    MajorityVote,
    MarginCluster,
    MarginUnion,
    Polytope,
    RetryLimit,
    SelectiveClassifier,
    SourceExhausted,
    SvmConfig,
    Unsupported,
    WeakLearnerFailed,
    WeightedDataset,
    alpha_boost,
    beta_roboost,
    beta_uroboost,
    expand_g,
    finite_source,
    generate,
    margins_batch,
    rejection_sample,
    robust_loss,
    robust_risk,
    selective_labels,
    sparsify_majority,
    strong_to_barely,
    svm_margin,
    vote_agreement,
    worst_case_point,
)
from roblearn.boosting import _accept, _doubled_stages, _round_radius, _stage_labels
from roblearn.data import substream

from ._refs import accept_ref, ball_samples, gen_stream, nonrobust_ref, stable_ref


def vec(*vals):
    return np.array(vals, dtype=float)


def nonrobust(models, U, X):
    """Per row of X: every model's prediction can be flipped or silenced within U."""
    return _stage_labels(_doubled_stages(models, [U] * len(models)), np.atleast_2d(X)) == 0


# margins under the class-mean directions the rounds will train: the far
# cluster is held immediately, the other two stay natural-correct for every
# round mixture so later stages can pick them up
THREE_CLUSTERS = MarginUnion((
    MarginCluster(vec(0.0, 8.0), 0.5, 0.05),
    MarginCluster(vec(3.5, 1.0), 0.3, 0.05),
    MarginCluster(vec(2.4, 0.3), 0.2, 0.05),
))


# ---------------------------------------------------------------------------
# selective classifiers
# ---------------------------------------------------------------------------


def test_selective_labels_ball_closed_form():
    sc = SelectiveClassifier(LinearModel(vec(1.0, 0.0)), LpBall(2.0, 1.0))
    # the exact boundary (1, 0) abstains
    got = selective_labels(sc, [[3.0, 0.0], [0.5, 0.0], [-2.0, 0.0], [1.0, 0.0]])
    assert got.tolist() == [1, 0, -1, 0]


def test_selective_labels_offsets_require_unanimity():
    sc = SelectiveClassifier(LinearModel(vec(1.0, 0.0)),
                             FiniteOffsets([vec(0.0, 0.0), vec(2.0, 0.0)]))
    # at (1, 0) the preimage (-1, 0) disagrees
    assert selective_labels(sc, [[3.0, 0.0], [1.0, 0.0]]).tolist() == [1, 0]


def test_selective_labels_rejects_per_example_tables():
    sc = SelectiveClassifier(LinearModel(vec(1.0)), FinitePerExample({0: np.array([[0.0]])}))
    with pytest.raises(Unsupported):
        selective_labels(sc, [[0.0]])
    with pytest.raises(Unsupported, match="no abstention rule for Polytope"):
        selective_labels(SelectiveClassifier(LinearModel(vec(1.0)), Polytope(np.eye(1), np.ones(1))),
                         [[0.0]])


@given(st.integers(0, 3_000), st.sampled_from([2.0, math.inf]))
def test_stable_points_keep_their_prediction_under_perturbation(seed, p):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(3)
    if np.linalg.norm(w) < 0.2:
        w = vec(1.0, 0.0, 0.0)
    h = LinearModel(w, bias=float(rng.standard_normal()) * 0.2)
    gamma = 0.5
    x = rng.standard_normal(3) * 2.0
    if abs(margins_batch(h, x[None], p)[0]) <= 2 * gamma:
        return  # only the doubly-stable region carries the guarantee
    sc = SelectiveClassifier(h, LpBall(p, gamma))
    label = h.predict(x)
    z_star = worst_case_point(h, x, label, LpBall(p, gamma))
    assert selective_labels(sc, [x, z_star]).tolist() == [label, label]
    assert set(selective_labels(sc, ball_samples(x, p, gamma, 60, rng)).tolist()) <= {label, 0}


# ---------------------------------------------------------------------------
# cascades
# ---------------------------------------------------------------------------


def test_cascade_first_speaking_stage_wins():
    wide = SelectiveClassifier(LinearModel(vec(1.0, 0.0)), LpBall(2.0, 2.0))
    narrow = SelectiveClassifier(LinearModel(vec(0.0, -1.0)), LpBall(2.0, 0.1))
    c = Cascade([wide, narrow], fallback=LinearModel(vec(0.0, 1.0)))
    # stage 1 speaks; stage 1 abstains and stage 2 speaks; all abstain: fallback
    assert c.predict_batch([[5.0, 5.0], [0.5, 5.0], [0.5, 0.05]]).tolist() == [1, -1, 1]


def test_cascade_requires_stages_and_fallback():
    stage = SelectiveClassifier(LinearModel(vec(1.0)), LpBall(2.0, 1.0))
    with pytest.raises(ValueError):
        Cascade([], fallback=LinearModel(vec(1.0)))
    with pytest.raises(ValueError):
        Cascade([stage], fallback=None)


def test_cascade_ball_loss_requires_matching_norm():
    stage = SelectiveClassifier(LinearModel(vec(1.0, 0.0)), LpBall(2.0, 0.5))
    c = Cascade([stage], fallback=LinearModel(vec(1.0, 0.0)))
    with pytest.raises(Unsupported):
        c.robust_losses_lp(Dataset([vec(1.0, 0.0)], [1]), LpBall(math.inf, 0.5))


@given(st.integers(0, 4_000), st.sampled_from([2.0, math.inf]))
def test_cascade_ball_loss_never_underreports(seed, p):
    rng = np.random.default_rng(seed)
    gamma = 0.4

    def rand_model():
        w = rng.standard_normal(2)
        if np.linalg.norm(w) < 0.2:
            w = vec(1.0, 0.3)
        return LinearModel(w, bias=float(rng.standard_normal()) * 0.3)

    stages = [SelectiveClassifier(rand_model(), LpBall(p, gamma)) for _ in range(2)]
    c = Cascade(stages, fallback=stages[-1].model)
    x = rng.standard_normal(2) * 1.5
    y = 1 if rng.random() < 0.5 else -1
    claimed = int(c.robust_losses_lp(Dataset([x], [y]), LpBall(p, gamma))[0])
    assert robust_loss(c, x, y, LpBall(p, gamma)) == claimed  # core dispatches to the walk
    if claimed == 0:
        assert np.all(c.predict_batch(ball_samples(x, p, gamma, 80, rng)) == y)


# ---------------------------------------------------------------------------
# non-robust region and rejection sampling
# ---------------------------------------------------------------------------


def test_nonrobust_region_closed_form():
    h = LinearModel(vec(1.0, 0.0))
    ball = LpBall(2.0, 1.0)
    assert nonrobust([h], ball, [[1.5, 0.0], [3.0, 0.0]]).tolist() == [True, False]  # 1.5 <= 2 < 3
    stable = LinearModel(vec(0.0, 1.0))                          # margin 5 at this x
    assert not nonrobust([h, stable], ball, vec(1.5, 5.0))[0]


def _region_case(seed, kind, gamma, two_models):
    """Models, per-model specs and rows for the region tests. The first model
    is 2 * e_0, whose margin is exactly x_0 under every norm, so rows at
    x_0 = +-2 gamma sit exactly on a ball's boundary and rows at x_0 = -d_0
    put a point of x + (O - O) exactly on the decision boundary."""
    rng = np.random.default_rng(seed)
    d = 3
    axis = LinearModel(vec(2.0, 0.0, 0.0))
    X = rng.standard_normal((24, d)) * 2.0 * max(gamma, 0.3)
    if kind == "offsets":
        U = FiniteOffsets(np.vstack([np.zeros(d), rng.standard_normal((2, d)) * gamma]))
        diffs = (U.offsets[:, None, :] - U.offsets[None, :, :]).reshape(-1, d)
        X[:6, 0] = -diffs[rng.integers(0, len(diffs), size=6), 0]
        second = U
    else:
        U = LpBall(kind, gamma)
        X[:6, 0] = np.array([1.0, -1.0] * 3) * 2.0 * gamma
        second = LpBall(kind, gamma / 2.0)  # a later round's radius, as in multi-granularity
    models, specs = [axis], [U]
    if two_models:
        w = rng.standard_normal(d)
        w[0] = 1.0 if abs(w[0]) < 0.2 else w[0]
        models.append(LinearModel(w, bias=float(rng.standard_normal()) * 0.3))
        specs.append(second)
    y = np.where(rng.random(24) < 0.5, 1, -1)
    return models, specs, U, Dataset(X, y)


region_kinds = st.sampled_from([1.0, 2.0, math.inf, "offsets"])


@given(st.integers(0, 100_000), region_kinds, st.floats(0.05, 1.0), st.booleans())
def test_nonrobust_region_matches_reference(seed, kind, gamma, two_models):
    models, specs, U, data = _region_case(seed, kind, gamma, two_models)
    assert nonrobust(models, U, data.X).tolist() == [nonrobust_ref(models, [U] * len(models), x)
                                                     for x in data.X]
    # boundary rows of a ball are non-robust for the axis model
    if kind != "offsets":
        assert nonrobust(models[:1], U, data.X[:6]).all()
    flags = [nonrobust_ref(models, specs, x) for x in data.X]
    want = [i for i, f in enumerate(flags) if f]
    source = finite_source(data)
    if not want:
        with pytest.raises(SourceExhausted):
            rejection_sample(source, models, 1, data.n + 1, U, specs=specs)
        return
    got = rejection_sample(source, models, len(want), data.n, U, specs=specs)
    assert np.array_equal(got.X, data.X[want]) and np.array_equal(got.y, data.y[want])


@given(st.integers(0, 100_000), st.sampled_from([1.0, 2.0, math.inf]), st.floats(0.05, 1.0))
def test_strong_to_barely_reads_the_stable_rows(seed, p, gamma):
    models, _specs, U, data = _region_case(seed, p, gamma, False)
    stable = [i for i, x in enumerate(data.X) if stable_ref(models[0], U, x)]
    if not stable:
        with pytest.raises(SourceExhausted):
            strong_to_barely(models[0], finite_source(data), U, m_tilde=1, budget_per_draw=data.n + 1)
        return
    g = strong_to_barely(models[0], finite_source(data), U, m_tilde=len(stable),
                         budget_per_draw=data.n)
    assert g.y == (1 if np.mean(data.y[stable] == 1) >= 0.5 else -1)


def test_per_example_tables_have_no_region():
    h = LinearModel(vec(1.0, 0.0))
    table = FinitePerExample({0: [[0.0, 0.0]]})
    data = Dataset(np.zeros((3, 2)), np.ones(3, dtype=np.int64))
    with pytest.raises(Unsupported):
        nonrobust([h], table, vec(0.0, 0.0))
    with pytest.raises(Unsupported):
        rejection_sample(finite_source(data), [h], 1, 3, table)
    with pytest.raises(Unsupported):
        strong_to_barely(h, finite_source(data), table)


def test_finite_source_walks_forward_then_raises():
    data = Dataset(np.arange(4, dtype=float)[:, None], np.array([1, -1, 1, -1]))
    draw = finite_source(data)
    first = draw(3)
    assert np.allclose(first.X.ravel(), [0.0, 1.0, 2.0])
    assert draw(1).X[0, 0] == 3.0
    with pytest.raises(SourceExhausted):
        draw(1)


def test_rejection_sample_filters_to_the_region():
    ball = LpBall(2.0, 1.0)
    h = LinearModel(vec(1.0, 0.0))
    X = np.array([[5.0, 0.0], [0.5, 0.0], [6.0, 0.0], [1.0, 1.0], [0.2, -1.0], [7.0, 2.0]])
    y = np.array([1, 1, 1, 1, -1, 1])
    got = rejection_sample(finite_source(Dataset(X, y)), [h], 2, 10, ball)
    assert got.n == 2
    assert np.allclose(got.X, [[0.5, 0.0], [1.0, 1.0]])
    assert nonrobust([h], ball, got.X).all()


def test_rejection_sample_gives_up_on_empty_region():
    ball = LpBall(2.0, 1.0)
    h = LinearModel(vec(1.0, 0.0))
    far = Dataset(np.full((40, 2), 9.0), np.ones(40, dtype=np.int64))
    assert rejection_sample(finite_source(far), [h], 1, 5, ball) is None


def _recording(source):
    """The source, plus the sizes of the requests made of it."""
    sizes = []

    def draw(k: int) -> Dataset:
        sizes.append(k)
        return source(k)

    return draw, sizes


def _outcome(run):
    try:
        return run()
    except SourceExhausted:
        return SourceExhausted


# a gap is the number of rejected rows before an accept: codes below 10 give
# a gap the budget allows, 10 the budget itself (its last row), 11 one too many
accept_gaps = st.lists(st.integers(0, 11), max_size=8)


@given(st.integers(0, 100_000), region_kinds, st.floats(0.05, 1.0), st.booleans(),
       st.booleans(), st.integers(0, 6), st.integers(1, 6), accept_gaps, st.integers(0, 8))
def test_block_accept_matches_the_one_row_loop(seed, kind, gamma, two_models, abstained,
                                               m, budget, gaps, tail):
    models, specs, _U, pool = _region_case(seed, kind, gamma, two_models)
    stages = _doubled_stages(models, specs)
    flags = np.array([nonrobust_ref(models, specs, x) == abstained for x in pool.X])
    hit_rows, miss_rows = np.flatnonzero(flags), np.flatnonzero(~flags)
    gaps = [g % (budget + 1) if g < 10 else budget + g - 10 for g in gaps]
    # a pool without one of the two kinds of rows fills the pattern with the other
    pattern = [r for g in gaps for r in [False] * g + [True]] + [False] * tail
    pattern = [hit if (hit_rows.size if hit else miss_rows.size) else not hit for hit in pattern]
    rng = np.random.default_rng(seed)
    order = [rng.choice(hit_rows if hit else miss_rows) for hit in pattern]
    data = pool.subset(np.array(order, dtype=np.int64))

    ref_source, ref_sizes = _recording(finite_source(data))
    new_source, new_sizes = _recording(finite_source(data))
    want = _outcome(lambda: accept_ref(ref_source, stages, m, budget, abstained))
    got = _outcome(lambda: _accept(new_source, stages, m, budget, abstained))
    if want is SourceExhausted or want is None:
        assert got is want
    else:
        assert got is not None and got is not SourceExhausted
        assert np.array_equal(np.array(got[0]), np.array(want[0]))
        assert np.array_equal(np.array(got[1]), np.array(want[1]))
    if want is SourceExhausted:
        # the one-row loop reads every row, then asks for one more; the block
        # loop's last request is larger than what is left
        assert sum(ref_sizes) == data.n + 1
        assert sum(new_sizes[:-1]) <= data.n < sum(new_sizes)
        return
    assert sum(new_sizes) == sum(ref_sizes)
    following = [_outcome(lambda s=s: s(1)) for s in (ref_source, new_source)]
    if following[0] is SourceExhausted:
        assert following[1] is SourceExhausted
    else:
        assert np.array_equal(following[0].X, following[1].X)


# ---------------------------------------------------------------------------
# boost configuration
# ---------------------------------------------------------------------------


def test_boost_config_resolved_defaults():
    cfg = BoostConfig(beta=0.4, eps=0.2)
    assert cfg.rounds_resolved == 6          # ceil(ln(10) / 0.4)
    assert cfg.per_round_m_resolved == 22    # ceil(4 ln(240))
    assert cfg.budget_per_draw_resolved == 20
    assert BoostConfig(beta=0.4, eps=0.2, learner_m=100).per_round_m_resolved == 100


def test_boost_config_validation():
    with pytest.raises(ValueError):
        BoostConfig(beta=0.0, eps=0.2)
    with pytest.raises(ValueError):
        BoostConfig(beta=0.5, eps=1.0)
    with pytest.raises(ValueError):
        BoostConfig(beta=0.5, eps=0.2, rounds=0)


def test_round_radius_halves_in_multi_granularity_mode():
    ball = LpBall(2.0, 1.6)
    flat = BoostConfig(beta=0.5, eps=0.2)
    assert _round_radius(flat, ball, 3).gamma == pytest.approx(1.6)
    multi = BoostConfig(beta=0.5, eps=0.2, multi_granularity=True)
    assert [_round_radius(multi, ball, t).gamma for t in (1, 2, 3)] == \
        pytest.approx([1.6, 0.8, 0.4])


# ---------------------------------------------------------------------------
# cascading a barely robust learner
# ---------------------------------------------------------------------------


def barely_svm(two_gamma: float):
    return lambda data: svm_margin(data, two_gamma, SvmConfig()).model


def test_roboost_cascade_beats_single_model_on_cluster_mix():
    # three planted clusters; round 1 robustly holds only the far one, the
    # later rounds chase whatever the earlier stages cannot hold
    gamma = 1.6
    ball = LpBall(2.0, gamma)
    cfg = BoostConfig(beta=0.4, eps=0.05, rounds=3, per_round_m=150)
    cascade, rounds = beta_roboost(gen_stream(THREE_CLUSTERS, 11), barely_svm(2 * gamma), cfg, ball)
    assert len(cascade.stages) == len(rounds) == cfg.rounds_resolved == 3  # ran all, not stopped early
    assert 0.3 <= rounds[0][0] <= 0.7  # only the far cluster holds at 2 gamma
    eval_data = generate(GenSpec(THREE_CLUSTERS, 800, rng_seed=999))
    single = cascade.stages[0].model
    cascade_err = robust_risk(cascade, eval_data, ball)
    single_err = robust_risk(single, eval_data, ball)
    assert cascade_err <= 0.05
    assert single_err - cascade_err >= 0.15


def test_roboost_stops_when_learner_is_already_robust():
    # one well-separated pair: round 1 holds everything, round 2 finds nothing
    wide = MarginUnion((MarginCluster(vec(0.0, 9.0), 1.0, 0.01),))
    cfg = BoostConfig(beta=1.0, eps=0.2, per_round_m=60)
    cascade, rounds = beta_roboost(gen_stream(wide, 7), barely_svm(3.2), cfg, LpBall(2.0, 1.6))
    assert rounds[0][0] == pytest.approx(1.0)
    assert len(rounds) == 1 < cfg.rounds_resolved  # stopped early
    assert len(cascade.stages) == 1


def test_roboost_finite_source_dry_after_first_round_stops_cleanly():
    data = generate(GenSpec(THREE_CLUSTERS, 70, rng_seed=2))
    cfg = BoostConfig(beta=0.4, eps=0.2, rounds=3, per_round_m=60)
    cascade, rounds = beta_roboost(finite_source(data), barely_svm(3.2), cfg, LpBall(2.0, 1.6))
    assert len(rounds) == 1 < cfg.rounds_resolved  # stopped early
    assert len(cascade.stages) == 1


def test_uroboost_with_faithful_pseudo_labels_matches_roboost():
    gamma = 1.6
    ball = LpBall(2.0, gamma)
    labeled = generate(GenSpec(THREE_CLUSTERS, 400, rng_seed=21))
    cfg = BoostConfig(beta=0.4, eps=0.2, rounds=2, per_round_m=150)
    cascade, _ = beta_uroboost(labeled, gen_stream(THREE_CLUSTERS, 31), barely_svm(2 * gamma),
                               cfg, ball)
    eval_data = generate(GenSpec(THREE_CLUSTERS, 800, rng_seed=998))
    assert robust_risk(cascade, eval_data, ball) <= 0.35


def test_uroboost_empty_unlabeled_source_degenerates():
    labeled = generate(GenSpec(THREE_CLUSTERS, 200, rng_seed=5))
    empty = finite_source(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)))
    cfg = BoostConfig(beta=0.4, eps=0.2, per_round_m=50)
    cascade, rounds = beta_uroboost(labeled, empty, barely_svm(3.2), cfg, LpBall(2.0, 1.6))
    assert len(cascade.stages) == 1 and rounds == [] and len(rounds) < cfg.rounds_resolved
    assert cascade.fallback is cascade.stages[0].model


# ---------------------------------------------------------------------------
# majority votes and multiplicative-weights boosting
# ---------------------------------------------------------------------------


def test_majority_vote_ties_go_positive():
    vote = MajorityVote([LinearModel(vec(1.0)), LinearModel(vec(-1.0))])
    assert np.array_equal(vote.predict_batch([[2.0], [-2.0]]), [1, 1])
    with pytest.raises(ValueError):
        MajorityVote([])


def test_alpha_boost_config_resolved_pairs():
    alpha, T = AlphaBoostConfig().resolved(100)
    assert alpha == pytest.approx(0.125) and T == 223
    alpha, T = AlphaBoostConfig(agreement_mode=True).resolved(100)
    assert T == 516 and alpha == pytest.approx(0.0627, abs=5e-4)
    with pytest.raises(ValueError):
        AlphaBoostConfig(alpha=-1.0).resolved(10)


def test_alpha_boost_downweights_held_examples():
    # update arithmetic: a held example shrinks by e^(-1/4) before renormalizing,
    # so from uniform over {held, missed} the pair becomes (0.4378, 0.5622)
    a = math.exp(-0.25)
    assert a / (a + 1.0) == pytest.approx(0.4378, abs=5e-5)
    assert 1.0 / (a + 1.0) == pytest.approx(0.5622, abs=5e-5)

    # end-to-end: round 1 holds examples 1 and 2 (weighted error exactly 1/3,
    # inside the weak-learner contract) and misses example 3; round 2 then
    # sees the reweighted distribution
    data = Dataset(np.array([[1.0, 1.0], [2.0, 1.0], [-1.0, 1.0]]), np.array([1, 1, 1]))
    seen = []

    def capture(wdata: WeightedDataset) -> LinearModel:
        seen.append(wdata.weights.copy())
        return LinearModel(vec(1.0, 0.0)) if len(seen) == 1 else LinearModel(vec(0.0, 1.0))

    alpha_boost(data, capture, AlphaBoostConfig(alpha=0.125, rounds=2))
    assert np.allclose(seen[0], [1 / 3, 1 / 3, 1 / 3])
    want = np.array([a, a, 1.0]) / (2 * a + 1.0)
    assert np.allclose(seen[1], want)


def test_alpha_boost_perfect_learner_zero_error():
    data = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
    models, vote, round_errors = alpha_boost(data, lambda wd: LinearModel(vec(1.0, 0.0)),
                                             AlphaBoostConfig(rounds=5))
    assert len(models) == 5
    assert round_errors == [0.0] * 5
    assert np.array_equal(vote.predict_batch(data.X), data.y)


def test_alpha_boost_early_stop_cuts_rounds_short():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    models, _, _ = alpha_boost(data, lambda wd: LinearModel(vec(1.0)),
                               AlphaBoostConfig(rounds=50, early_stop=True))
    assert len(models) == 1


def test_alpha_boost_gives_up_on_hopeless_learner():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1, 1]))
    with pytest.raises(WeakLearnerFailed):
        alpha_boost(data, lambda wd: LinearModel(vec(-1.0)), AlphaBoostConfig(rounds=3))
    with pytest.raises(ConfigError, match="empty dataset"):
        alpha_boost(data.subset([]), lambda wd: LinearModel(vec(1.0)), AlphaBoostConfig(rounds=3))


def test_alpha_boost_retries_a_weak_learner_that_gives_up():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    seen = []

    def twice_failing(wd):
        seen.append(wd.weights.copy())
        if len(seen) <= 2:
            raise WeakLearnerFailed("not this subsample")
        return LinearModel(vec(1.0))

    models, _, round_errors = alpha_boost(data, twice_failing, AlphaBoostConfig(rounds=2))
    assert len(seen) == 4 and len(models) == 2 and round_errors == [0.0, 0.0]
    assert np.array_equal(seen[0], seen[2])  # a failed attempt leaves the weights alone

    attempts = []

    def hopeless(wd):
        attempts.append(1)
        raise WeakLearnerFailed("never")

    # ceil(ln(2 * 3 / 0.05)) = 5 attempts, and the first round gives up
    with pytest.raises(WeakLearnerFailed, match="for 5 attempts"):
        alpha_boost(data, hopeless, AlphaBoostConfig(rounds=3))
    assert len(attempts) == 5


@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.0), dict(alpha=-1.0), dict(alpha=math.nan), dict(alpha=math.inf),
    dict(rounds=0), dict(rounds=0, agreement_mode=True),
    dict(delta=0.0), dict(delta=-0.0), dict(delta=1.0), dict(delta=math.nan),
])
def test_alpha_boost_config_rejects_values_out_of_range(kwargs):
    with pytest.raises(ValueError):
        AlphaBoostConfig(**kwargs)


def test_alpha_boost_config_resolves_one_example_as_two():
    for agreement_mode in (False, True):
        cfg = AlphaBoostConfig(agreement_mode=agreement_mode)
        assert cfg.resolved(1) == cfg.resolved(2)
    assert AlphaBoostConfig(agreement_mode=True).resolved(1)[1] == 78


def test_alpha_boost_robust_mode_uses_ball_loss():
    ball = LpBall(2.0, 1.0)
    # margins sit below the radius, so the 0-1-perfect model still fails the
    # robust gate and the boost gives up
    tight = Dataset(np.array([[0.5], [-0.5]]), np.array([1, -1]))
    with pytest.raises(WeakLearnerFailed):
        alpha_boost(tight, lambda wd: LinearModel(vec(1.0)),
                    AlphaBoostConfig(rounds=2), U=ball)
    # with real margin every member is robust, hence so is the vote
    wide = Dataset(np.array([[3.0], [-3.0]]), np.array([1, -1]))
    models, vote, _ = alpha_boost(wide, lambda wd: LinearModel(vec(1.0)),
                                  AlphaBoostConfig(rounds=2), U=ball)
    assert all(robust_risk(h, wide, ball) == 0.0 for h in models)


def test_vote_agreement_counts_holding_models():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    right = LinearModel(vec(1.0))
    wrong = LinearModel(vec(-1.0))
    agree = vote_agreement([right, right, wrong], data)
    assert np.allclose(agree, [2 / 3, 2 / 3])


def test_sparsify_keeps_a_zero_loss_subvote():
    data = Dataset(np.array([[1.0], [-2.0]]), np.array([1, -1]))
    good = LinearModel(vec(1.0))
    bad = LinearModel(vec(-1.0))
    sub = sparsify_majority([good, good, good, bad], data, N=3, seed=0)
    assert len(sub) == 3
    assert np.array_equal(MajorityVote(sub).predict_batch(data.X), data.y)


def test_sparsify_demands_zero_loss_input_and_finite_spec():
    data = Dataset(np.array([[1.0]]), np.array([1]))
    bad = LinearModel(vec(-1.0))
    with pytest.raises(ValueError):
        sparsify_majority([bad], data, N=1, seed=0)
    good = LinearModel(vec(1.0))
    with pytest.raises(Unsupported):
        sparsify_majority([good], data, N=1, seed=0, U=LpBall(2.0, 0.5))


def test_sparsify_retry_limit_surfaces():
    # vote of {good, bad} is a tie resolved to +1, so the pair has zero loss,
    # but a single-model subsample that lands on `bad` never does
    data = Dataset(np.array([[1.0]]), np.array([1]))
    good = LinearModel(vec(1.0))
    bad = LinearModel(vec(-1.0))
    seed = next(s for s in range(50)
                if int(substream(s, "sparsify").integers(0, 2, size=1)[0]) == 1)
    with pytest.raises(RetryLimit):
        sparsify_majority([good, bad], data, N=1, seed=seed, retry_limit=1)


# ---------------------------------------------------------------------------
# strong robustness to barely robust
# ---------------------------------------------------------------------------


def test_expanded_predictor_closed_form():
    g_plus = expand_g(LinearModel(vec(1.0, 0.0)), LpBall(2.0, 1.0), 1)
    # (-0.5, 0) lies inside the blown-up positive region, (-2, 0) outside
    assert g_plus.predict_batch([[-0.5, 0.0], [-2.0, 0.0]]).tolist() == [1, -1]
    with pytest.raises(ValueError):
        expand_g(LinearModel(vec(1.0)), LpBall(2.0, 1.0), 0)


@given(st.integers(0, 2_000))
def test_expansion_agrees_with_base_on_its_robust_region(seed):
    rng = np.random.default_rng(seed)
    h = LinearModel(rng.standard_normal(2) + vec(0.1, 0.0))
    ball = LpBall(2.0, 0.5)
    x = rng.standard_normal(2) * 2
    label = h.predict(x)
    if label * margins_batch(h, x[None], 2.0)[0] <= ball.gamma:
        return
    g = expand_g(h, ball, label)
    assert g.predict_batch(x[None])[0] == label


def test_strong_to_barely_picks_the_dominant_label():
    h = LinearModel(vec(1.0, 0.0))
    ball = LpBall(2.0, 0.5)
    X = np.tile(vec(5.0, 0.0), (200, 1))
    src = finite_source(Dataset(X, np.ones(200, dtype=np.int64)))
    g = strong_to_barely(h, src, ball, delta=0.05)
    assert g.y == 1
    assert g.predict_batch([[-0.3, 0.0]])[0] == 1
    # default sample size: ceil((64/9) ln(1/delta)) = 22 at delta = 0.05
    assert math.ceil(64.0 / 9.0 * math.log(1.0 / 0.05)) == 22


def test_strong_to_barely_needs_a_reachable_robust_region():
    h = LinearModel(vec(1.0, 0.0))
    ball = LpBall(2.0, 2.0)

    def src(k):
        return Dataset(np.zeros((k, 2)), np.ones(k, dtype=np.int64))  # never robust

    with pytest.raises(SourceExhausted):
        strong_to_barely(h, src, ball, budget_per_draw=8)
