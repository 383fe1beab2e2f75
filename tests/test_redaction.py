import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from roblearn import (
    ConstantModel,
    Dataset,
    DistinguisherT1,
    EmptyDataset,
    EmptyPool,
    FiniteOffsets,
    FinitePoolPairs,
    GaussianPair,
    GenSpec,
    IoError,
    LinearModel,
    LpBall,
    NoRealizableMember,
    ParseError,
    PoolHypotheses,
    RedactConfig,
    SelectionSet,
    Unsupported,
    apply_rcn,
    generate,
    lambda_star,
    load_selection,
    make_pool_erm,
    massart_denoise_rejectron,
    rejectron,
    save_selection,
    select_member,
    select_members,
    transductive_pool,
    urejectron,
)
from roblearn.cli import _kept_error
from roblearn.redaction import _tradeoff_rows

from ._refs import kept_error_ref, tradeoff_rows_ref, urejectron_pairs_ref

# tied integer and one-decimal scores, signed zeros, infinities and nan
SCORE = st.one_of(st.integers(-4, 4).map(float), st.integers(-40, 40).map(lambda k: k / 10),
                  st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats())
SCORES = st.lists(SCORE, min_size=1, max_size=50).map(lambda v: np.array(v, dtype=float))


def vec(*vals):
    return np.array(vals, dtype=float)


def classify(h, S, X):
    """h's labels on the rows of X the selection set keeps, 0 (abstain) elsewhere."""
    X = np.asarray(X, dtype=float)
    return np.where(select_members(S, X), h.predict_batch(X), 0)


AXIS = LinearModel(vec(1.0, 0.0))
# matches AXIS wherever x2 = 0 but flips on the upper cluster
FLIP_UP = LinearModel(vec(1.0, -1.0))


def band_train(n_side: int = 10) -> Dataset:
    xs = np.linspace(1.2, 2.0, n_side)
    X = np.concatenate([np.column_stack([xs, np.zeros(n_side)]),
                        np.column_stack([-xs, np.zeros(n_side)])])
    y = np.concatenate([np.ones(n_side), -np.ones(n_side)]).astype(np.int64)
    return Dataset(X, y)


def mixed_tests(n_side: int = 10) -> np.ndarray:
    indist = band_train(n_side).X
    drift = np.column_stack([np.zeros(n_side * 2) + 0.3, np.full(n_side * 2, 3.0)])
    return np.concatenate([indist, drift])


def test_constant_model_contract():
    c = ConstantModel(-1)
    assert c.predict(vec(9.0)) == -1
    assert np.array_equal(c.predict_batch([[1.0], [2.0]]), [-1, -1])
    with pytest.raises(ValueError):
        ConstantModel(0)


def test_redact_config_validation():
    assert RedactConfig(0.2).resolved_weight(10) == 11.0
    assert RedactConfig(0.2, weight=3.0).resolved_weight(10) == 3.0
    with pytest.raises(ValueError):
        RedactConfig(0.0)
    with pytest.raises(ValueError):
        RedactConfig(0.2, weight=0.5)


def test_selection_set_modes():
    S = SelectionSet("rejectron", [FLIP_UP], base=AXIS)
    assert select_member(S, vec(1.5, 0.0))
    assert not select_member(S, vec(0.3, 3.0))
    assert classify(AXIS, S, [[1.5, 0.0], [0.3, 3.0]]).tolist() == [1, 0]
    with pytest.raises(ValueError):
        SelectionSet("other", [])
    with pytest.raises(ValueError):
        SelectionSet("rejectron", [])


def test_rejectron_redacts_the_drifted_cluster():
    train = band_train()
    tests = mixed_tests()
    erm = make_pool_erm([AXIS, FLIP_UP])
    h, S, _ = rejectron(train, tests, RedactConfig(0.2), erm=erm)
    assert len(S.members) == 1
    assert len(S.members) <= math.floor(1.0 / 0.2)
    assert select_members(S, tests).mean() == 0.5  # the selected test fraction
    # the high training weight protects every training point from redaction
    assert select_members(S, train.X).all()
    assert np.array_equal(classify(h, S, train.X), train.y)
    assert not classify(h, S, tests[20:]).any()


def test_rejectron_keeps_everything_without_drift():
    train = band_train()
    h, S, _ = rejectron(train, train.X.copy(), RedactConfig(0.25), erm=make_pool_erm([AXIS, FLIP_UP]))
    assert S.members == ()  # no round kept
    assert select_members(S, train.X).mean() == 1.0


def test_rejectron_handles_empty_test_sets():
    h, S, scores = rejectron(band_train(), np.empty(0), RedactConfig(0.5), erm=make_pool_erm([AXIS]))
    # no test row, so no round runs: the selected test fraction is 1.0 by definition
    assert S.members == () and scores == []


def test_rejectron_keeps_a_round_whose_score_clears_eps_by_an_ulp():
    # FLIP_UP disagrees with AXIS on the 5 drift points of 6 test rows and on
    # no training row, so the round scores 5/6 against the eps just below it.
    # It redacts 5 > eps * 6 rows, though eps * 6 rounds to 5.0.
    eps = math.nextafter(5.0 / 6.0, 0.0)
    tests = np.vstack([np.tile(vec(0.3, 3.0), (5, 1)), [[1.5, 0.0]]])
    h, S, scores = rejectron(band_train(), tests, RedactConfig(eps), erm=make_pool_erm([AXIS, FLIP_UP]))
    assert eps * 6 == 5.0 and scores == [5.0 / 6.0]
    assert h is AXIS and S.members == (FLIP_UP,)
    assert select_members(S, tests).tolist() == [False] * 5 + [True]


def test_rejectron_redacts_a_repeated_adversarial_point():
    # half the test stream is one crafted point the base model gets wrong;
    # redaction must reject it rather than eat the error
    train = band_train()
    adv = vec(1.5, 3.0)  # base says +1, truth is -1
    tests = np.concatenate([band_train().X, np.tile(adv, (20, 1))])
    truth = np.concatenate([band_train().y, -np.ones(20)]).astype(np.int64)
    h, S, _ = rejectron(train, tests, RedactConfig(0.2), erm=make_pool_erm([AXIS, FLIP_UP]))
    preds = classify(h, S, tests)
    errs = np.count_nonzero((preds != 0) & (preds != truth))
    assert errs / len(tests) <= 0.2
    assert classify(h, S, [adv])[0] == 0


def test_urejectron_pool_pairs_split_only_on_drift():
    tests = mixed_tests()
    S, _, tradeoff = urejectron(band_train().X, tests, RedactConfig(0.2), FinitePoolPairs([AXIS, FLIP_UP]))
    assert len(S.members) == 1 and tradeoff == []
    assert select_members(S, band_train().X).all()
    assert not select_members(S, tests[20:]).any()
    # no test point: no round runs
    S, scores, _ = urejectron(band_train().X, [], RedactConfig(0.2), FinitePoolPairs([AXIS, FLIP_UP]))
    assert S.members == () and scores == []
    with pytest.raises(EmptyPool):
        FinitePoolPairs([])


def test_urejectron_t1_threshold_tradeoff():
    rng_train = generate(GenSpec(GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), 0.1), 40, rng_seed=5))
    indist = generate(GenSpec(GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), 0.1), 20, rng_seed=6))
    drift = np.tile(vec(0.0, 6.0), (20, 1)) + 0.1 * np.random.default_rng(7).standard_normal((20, 2))
    tests = np.concatenate([indist.X, drift])
    S, scores, rows = urejectron(rng_train.X, tests, RedactConfig(0.2), DistinguisherT1())
    assert len(rows) == len(scores) + 1 == tests.shape[0] + 1
    # sweeping the threshold upward only ever rejects more on both sides
    for a, b in zip(rows, rows[1:]):
        assert b["threshold"] >= a["threshold"]
        assert b["rej_train"] >= a["rej_train"]
        assert b["rej_test"] >= a["rej_test"]
    assert any(r["rej_train"] <= 0.10 and r["rej_test"] >= 0.45 for r in rows)
    # the returned set keeps every training point by construction
    assert select_members(S, rng_train.X).all()
    assert not select_members(S, drift).any()
    with pytest.raises(Unsupported):
        urejectron(rng_train.X, tests, RedactConfig(0.2), backend="nope")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 30), st.integers(1, 30),
       st.sampled_from([0.05, 0.1, 0.3]), st.sampled_from([None, 1.0, 2.5]))
def test_urejectron_pairs_is_the_per_round_search(seed, k, n, n_test, eps, weight):
    # small-integer points and models, so pairs tie and split rows often
    rng = np.random.default_rng(seed)
    pool = [LinearModel(rng.choice([-2.0, -1.0, 1.0, 2.0], 2), float(rng.integers(-2, 3)))
            for _ in range(k)]
    train, tests = (rng.integers(-3, 4, (rows, 2)).astype(float) for rows in (n, n_test))
    cfg = RedactConfig(eps, weight)
    S, got, _ = urejectron(train, tests, cfg, FinitePoolPairs(pool))
    members, scores = urejectron_pairs_ref(train, tests, eps, cfg.resolved_weight(n), pool)
    assert S.members == tuple((pool[i], pool[j]) for i, j in members)
    assert [repr(v) for v in got] == [repr(v) for v in scores]


@pytest.mark.parametrize("side", ["train", "test"])
def test_urejectron_t1_needs_both_samples(side):
    X = band_train().X
    empty = np.empty((0, 2))
    train, tests = (empty, X) if side == "train" else (X, empty)
    with pytest.raises(EmptyDataset):
        urejectron(train, tests, RedactConfig(0.2), DistinguisherT1())


@settings(max_examples=300, deadline=None)
@given(SCORES, SCORES)
@example(np.array([1.0]), np.array([math.nan]))
@example(np.array([math.nan, 0.0, -0.0]), np.array([0.0, -0.0, 1.0, 1.0]))
@example(np.array([-math.inf, 2.0]), np.array([math.inf, -math.inf, math.nan, 2.0]))
def test_tradeoff_rows_are_the_per_threshold_loop(train_scores, test_scores):
    got = _tradeoff_rows(train_scores, test_scores)
    want = tradeoff_rows_ref(train_scores, test_scores)
    assert [{k: repr(v) for k, v in r.items()} for r in got] == \
        [{k: repr(v) for k, v in r.items()} for r in want]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(SCORE, st.booleans()), min_size=1, max_size=50),
       st.lists(SCORE, max_size=20))
@example([(math.nan, True), (1.0, False), (1.0, True)], [math.nan, 1.0, -0.0, math.inf])
def test_kept_error_is_the_per_threshold_loop(rows, extra):
    # the CLI's err_q column; its thresholds are the scores themselves, plus others
    raw = np.array([r for r, _ in rows])
    wrong = np.array([w for _, w in rows])
    thresholds = [*raw.tolist(), *extra]
    preds = np.where(wrong, -1, 1)
    want = kept_error_ref(raw, preds, np.ones_like(preds), thresholds)
    assert [repr(v) for v in _kept_error(raw, wrong, thresholds)] == [repr(v) for v in want]


def test_lambda_star_matches_its_formula():
    eps_star, lam = lambda_star(0.02, 100_000, 5, 0.05)
    want_eps = 4.0 * math.sqrt((5 * math.log(200_000) + math.log(48 / 0.05)) / 100_000)
    assert eps_star == pytest.approx(want_eps)
    assert lam == pytest.approx(math.sqrt(1.0 / (8 * 0.02 + want_eps ** 2)))
    with pytest.raises(ValueError):
        lambda_star(1.0, 100, 5, 0.05)
    with pytest.raises(ValueError):
        lambda_star(0.1, 0, 5, 0.05)


def test_massart_denoise_relabels_before_redacting():
    pair = GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), sigma=0.2)
    noisy = apply_rcn(generate(GenSpec(pair, 600, rng_seed=11)), eta=0.2, seed=12)
    heldout = generate(GenSpec(pair, 40, rng_seed=13))
    tests = generate(GenSpec(pair, 40, rng_seed=14))
    h, S, _ = massart_denoise_rejectron(noisy, heldout, tests.X, RedactConfig(0.2))
    preds = classify(h, S, tests.X)
    errs = np.count_nonzero((preds != 0) & (preds != tests.y))
    abstains = np.count_nonzero(preds == 0)
    assert errs <= 2 and abstains <= 8


def test_transductive_pool_realizable_prefers_first_stable():
    train = band_train()
    pool = PoolHypotheses((AXIS, LinearModel(vec(2.0, 0.0))))
    ball = LpBall(2.0, 0.3)
    h, labels, scores = transductive_pool(pool, train, train.X, ball)
    assert h is pool.models[0]
    assert np.array_equal(labels, train.y)
    assert scores[0] == (0.0, 0.0)  # (labeled, unlabeled)
    with pytest.raises(EmptyPool):
        PoolHypotheses(())


def test_transductive_pool_realizable_failure():
    train = band_train()
    wide = LpBall(2.0, 5.0)  # swallows every margin
    with pytest.raises(NoRealizableMember):
        transductive_pool(PoolHypotheses((AXIS,)), train, train.X, wide)
    with pytest.raises(ValueError):
        transductive_pool(PoolHypotheses((AXIS,)), train, train.X, wide, mode="other")


def test_transductive_pool_agnostic_minimizes_the_worse_risk():
    train = band_train()
    tests = np.concatenate([band_train().X, [[0.05, 0.0]]])  # one point hugs the boundary
    good = AXIS
    bad = LinearModel(vec(0.0, 1.0))  # unstable everywhere on the band
    h, _, _ = transductive_pool(PoolHypotheses((bad, good)), train, tests,
                                LpBall(2.0, 0.3), mode="agnostic")
    assert h is good


def test_transductive_pool_finite_offsets_risks():
    train = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    shifts = FiniteOffsets([vec(0.0), vec(1.5)])
    h, _, scores = transductive_pool(PoolHypotheses((LinearModel(vec(1.0)),)), train,
                                     np.array([[4.0], [0.5]]), shifts, mode="agnostic")
    # the -1 training point crosses the origin under the 1.5 shift, and the
    # 0.5 test point splits its preimage predictions
    assert scores[0] == (0.5, 0.5)  # (labeled, unlabeled)
    # no test point: the unlabeled risk is 0, and only the labeled one counts
    for empty in (np.empty((0, 1)), []):
        _, labels, scores = transductive_pool(PoolHypotheses((h,)), train, empty, shifts,
                                              mode="agnostic")
        assert labels.shape == (0,) and scores == [(0.5, 0.0)]
    with pytest.raises(Unsupported):
        transductive_pool(PoolHypotheses((h,)), train, train.X, object(), mode="agnostic")


def test_selection_round_trip(tmp_path):
    S = SelectionSet("rejectron", [FLIP_UP, LinearModel(vec(0.25, -1.0), bias=0.5)],
                     base=AXIS, eps=0.2)
    path = str(tmp_path / "sel.txt")
    save_selection(path, S)
    back = load_selection(path)
    assert back.mode == "rejectron" and back.eps == 0.2
    assert np.array_equal(back.base.w, AXIS.w)
    assert len(back.members) == 2
    assert back.members[1].bias == 0.5

    pairs = SelectionSet("urejectron", [(AXIS, ConstantModel(1))], eps=0.5)
    save_selection(path, pairs)
    back = load_selection(path)
    assert back.mode == "urejectron"
    assert isinstance(back.members[0][1], ConstantModel)
    x = vec(1.0, 0.0)
    assert select_member(back, x) == select_member(pairs, x)


def test_selection_load_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a selection file\n")
    with pytest.raises(ParseError):
        load_selection(str(p))
    p.write_text("selection-set v1\nmode: rejectron\nbase: linear 0 1 0\nwhat: ever\n")
    with pytest.raises(ParseError):
        load_selection(str(p))
    p.write_text("selection-set v1\neps: 0.25\n")
    with pytest.raises(ParseError, match="missing mode line"):
        load_selection(str(p))
    with pytest.raises(IoError):
        load_selection(str(tmp_path / "missing.txt"))
    with pytest.raises(IoError):
        save_selection(str(tmp_path / "nodir" / "x.txt"),
                       SelectionSet("urejectron", []))

@pytest.mark.parametrize("mode, lines, row, col", [("urejectron", line, 3, col) for line, col in [
    ("eps: zz", 2),
    ("eps: nan", 2),
    ("base: linear 0 1 abc", 5),
    ("base: linear inf 1", 3),
    ("base: linear 0 0 0", 2),
    ("base: linear 0", 2),
    ("c: const", 2),
    ("c: const 2", 2),
    ("c:", 2),
    ("pair: linear 0 1 0 | const", 7),
    ("pair: linear 0 1 0 | const x", 8),
    ("mode: frob", 2),
    # a member line of the other mode used to load and fail in select_member
    ("c: linear 0 1 0", 1),
]] + [
    ("rejectron", "base: linear 0 1 0\npair: linear 0 1 0 | const 1", 4, 1),
    # a rejectron file needs its base model; this used to be a ConfigError with no place
    ("rejectron", "c: linear 0 1 0", 1, 1),
])
def test_selection_files_with_bad_numbers_are_parse_errors(tmp_path, mode, lines, row, col):
    # these used to raise a bare ValueError or IndexError
    p = tmp_path / "sel.txt"
    p.write_text(f"selection-set v1\nmode: {mode}\n{lines}\n")
    with pytest.raises(ParseError) as exc:
        load_selection(str(p))
    assert (exc.value.row, exc.value.col) == (row, col)
