import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    MissingPerturbations,
    MistakeCapExceeded,
    PerceptronState,
    RobustifyConfig,
    RoblearnError,
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
from roblearn import reductions
from roblearn.reductions import PerExampleWeights

from ._refs import (brute_pool_optimum, cycle_ref, fms_sample_weights_ref, gen_stream,
                    one_pass_ref, weighted_majority_ref)


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


def test_robustify_retries_a_failed_attempt_with_the_next_seed(monkeypatch):
    data = separable_band()
    inner = reductions.zero_robust_loss
    seeds = []

    def recording(L, U, learner, cfg, indices=None):
        seeds.append(cfg.rng_seed)
        return inner(L, U, learner, cfg, indices)

    monkeypatch.setattr(reductions, "zero_robust_loss", recording)

    def run():
        calls = []

        def flaky(wd):
            # the first inner boost misses its edge on all ceil(ln(2 * 2 / 0.05)) = 5
            # attempts, so the first outer attempt fails and is retried
            calls.append(1)
            return LinearModel(vec(-1.0, 0.0)) if len(calls) <= 5 else erm_linear(wd)

        seeds.clear()
        diag = {}
        vote = robustify_nonrobust(data, SHIFTS, flaky, RobustifyConfig(inner_rounds=2, rng_seed=3),
                                   diagnostics=diag)
        grid = np.mgrid[-3:3:13j, -3:3:13j].reshape(2, -1).T
        return list(seeds), diag, vote.predict_batch(grid), robust_risk(vote, data, SHIFTS)

    seeds_a, diag_a, pred_a, risk = run()
    seeds_b, diag_b, pred_b, _ = run()
    # attempt k of the run seeds its inner boost with rng_seed + k
    assert seeds_a == list(range(4, 4 + len(seeds_a)))
    assert len(seeds_a) > diag_a["rounds_run"] and risk == 0.0
    assert (seeds_a, diag_a) == (seeds_b, diag_b)
    assert np.array_equal(pred_a, pred_b)


# ---------------------------------------------------------------------------
# agnostic finite-perturbation game
# ---------------------------------------------------------------------------


def test_perturbation_weights_stay_normalized_and_monotone():
    w = PerExampleWeights([2, 3])
    first = np.array([True, False, False, False, False])
    w.scale_up(first, 1.5)
    for p in np.split(w.normalized(), [2]):
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)
    with pytest.raises(ValueError):
        w.scale_up(first, 0.9)
    with pytest.raises(ValueError):
        PerExampleWeights([0])


class _Scripted:
    """A model whose predictions on the flat rows are fixed in advance."""

    def __init__(self, labels):
        self.labels = labels

    def predict_batch(self, X):
        return self.labels


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=12),
       st.sampled_from([0.01, 0.3, 1.0, 7.0, 60.0]), st.integers(1, 25),
       st.integers(0, 2 ** 32 - 1))
def test_fms_weights_are_the_per_example_game_bit_for_bit(counts, eta, rounds, seed):
    # each flat row is wrong with its own probability, so after a few rounds
    # the weights of one example span many magnitudes
    rng = np.random.default_rng(seed)
    table = {i: rng.standard_normal((k, 2)) for i, k in enumerate(counts)}
    data = Dataset(rng.standard_normal((len(counts), 2)),
                   np.where(rng.random(len(counts)) < 0.5, 1, -1))
    y_flat = np.repeat(data.y, counts)
    p_wrong = rng.random(y_flat.size)
    labels = [np.where(rng.random(y_flat.size) < p_wrong, -y_flat, y_flat) for _ in range(rounds)]
    seen = []

    def erm(wd):
        seen.append(wd.weights)
        return _Scripted(labels[len(seen) - 1])

    fms_agnostic(data, FinitePerExample(table), erm, eta_mw=eta, rounds=rounds)
    want = fms_sample_weights_ref(counts, [lab != y_flat for lab in labels], eta)
    assert len(seen) == rounds
    for got, ref in zip(seen, want):
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in ref.tolist()]


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
    with pytest.raises(ValueError):
        EnsembleWeights(np.array([0.5, np.nan]))


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

# ---------------------------------------------------------------------------
# the block mistake scan against the one-row loops of tests/_refs.py
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchPerceptron:
    """A perceptron with predict_batch, so enumeration oracles can attack it."""

    state: PerceptronState

    def predict_batch(self, Z):
        return np.where(np.asarray(Z, dtype=float) @ self.state.w >= 0.0, 1, -1)

    def update(self, z, y):
        return BatchPerceptron(self.state.update(z, y))


ORACLE_KINDS = ["ball", "offsets", "table"]


def _case(seed, n, d, decimals):
    """Rows rounded so that ties and repeats occur, labeled by a planted
    halfspace with a seed-drawn share of flips, so runs both end and fail."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(-2.0, 2.0, size=(n, d)), decimals)
    flip = rng.random(n) < rng.choice([0.0, 0.1, 0.5])
    y = np.where((X @ rng.standard_normal(d) >= 0) != flip, 1, -1).astype(np.int64)
    return rng, Dataset(X, y)


def _oracle(kind, rng, data, plain, log):
    """One attack oracle of the kind, and the learner it attacks. A plain
    oracle hides the row-wise form and logs every call it answers."""
    d = data.d
    if kind == "ball":
        p = [1.0, 2.0, math.inf][int(rng.integers(3))]
        # round radii put rows on the sphere of integer rows, where attack counts the tie
        gamma = float(rng.choice([0.0, 0.5, 1.0, round(rng.uniform(0.0, 1.0), 2)]))
        oracle, learner = margin_attack(LpBall(p, gamma)), perceptron_init(d)
    else:
        learner = BatchPerceptron(perceptron_init(d))
        if kind == "offsets":
            offsets = np.vstack([np.zeros(d), np.round(rng.uniform(-1, 1, size=(3, d)), 1)])
            oracle = enumeration_attack(FiniteOffsets(offsets))
        else:
            # about one row in eight has no list, so the scan must stop there
            table = {i: data.X[i] + rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), d))
                     for i in range(data.n) if rng.random() > 0.125}
            oracle = enumeration_attack(FinitePerExample(table))
    if not plain:
        return oracle, learner

    def logged(state, sample, *index):
        log.append((sample.x.tobytes(), sample.y, index))
        return oracle(state, sample, *index)

    return logged, learner


def _result(run):
    """Weight bytes and diagnostics, or the class and message of the error."""
    diag = {}
    try:
        out = run(diag)
    except (RoblearnError, ValueError) as exc:
        return type(exc), str(exc)
    w = out[0].weights if isinstance(out, tuple) else getattr(out, "state", out).w
    return w.tobytes(), diag


def _next_row(source):
    try:
        return source(1).X.tobytes()
    except SourceExhausted:
        return None


rows_case = [st.integers(0, 100_000), st.integers(0, 24), st.integers(1, 3), st.integers(0, 2)]


@settings(max_examples=200)
@given(*rows_case, st.sampled_from(ORACLE_KINDS), st.booleans(), st.integers(1, 8))
@example(1271, 16, 2, 1, "ball", False, 4)  # a margin at the radius that X @ w rounded by block
def test_cycle_matches_the_one_row_loop(seed, n, d, decimals, kind, plain, cap):
    rng, data = _case(seed, n, d, decimals)
    state = rng.bit_generator.state
    logs = [], []
    results = []
    for loop, log in zip((cycle_ref, cycle_robust), logs):
        rng.bit_generator.state = state
        oracle, learner = _oracle(kind, rng, data, plain, log)
        results.append(_result(lambda diag: loop(data, learner, oracle, cap, diagnostics=diag)))
    assert results[1] == results[0]
    assert logs[1] == logs[0]


@settings(max_examples=200)
@given(*rows_case, st.sampled_from(ORACLE_KINDS), st.booleans(), st.integers(1, 8),
       st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.1, 0.5, 0.9]))
def test_one_pass_matches_the_one_row_loop(seed, n, d, decimals, kind, plain, cap, eps, delta):
    rng, data = _case(seed, n, d, decimals)
    state = rng.bit_generator.state
    logs, sources, results = ([], []), [], []
    for loop, log in zip((one_pass_ref, one_pass_robust), logs):
        rng.bit_generator.state = state
        oracle, learner = _oracle(kind, rng, data, plain, log)
        sources.append(finite_source(data))
        results.append(_result(lambda diag: loop(sources[-1], learner, oracle, eps, delta, cap,
                                                 diagnostics=diag)))
    assert results[1] == results[0]
    assert logs[1] == logs[0]
    if results[0][0] in (StreamExhausted,) or isinstance(results[0][0], bytes):
        # both loops read the same rows, including a source run dry mid-block
        assert _next_row(sources[1]) == _next_row(sources[0])


@settings(max_examples=200)
@given(*rows_case, st.sampled_from(["offsets", "table"]), st.booleans(),
       st.one_of(st.none(), st.integers(1, 40)), st.sampled_from([0.0, 0.25, 0.5, 0.9]),
       st.integers(1, 3))
def test_weighted_majority_matches_the_one_row_loop(seed, n, d, decimals, kind, plain, rounds,
                                                    eta, members):
    rng, data = _case(seed, n, d, decimals)
    pool = [LinearModel(rng.uniform(0.1, 1.0, d) * rng.choice([-1.0, 1.0], d),
                        float(rng.uniform(-0.5, 0.5))) for _ in range(members)]
    state = rng.bit_generator.state
    logs, sources, results = ([], []), [], []
    for loop, log in zip((weighted_majority_ref, weighted_majority_robust), logs):
        rng.bit_generator.state = state
        oracle, _ = _oracle(kind, rng, data, plain, log)
        sources.append(finite_source(data))
        results.append(_result(lambda diag: loop(pool, sources[-1], oracle, eta, rounds,
                                                 diagnostics=diag)))
    assert results[1] == results[0]
    assert logs[1] == logs[0]
    if isinstance(results[0][0], bytes):
        assert _next_row(sources[1]) == _next_row(sources[0])


def _ball_outcomes(X, y, cap, gamma=0.1):
    data = Dataset(np.array(X, dtype=float), np.array(y))
    oracle = margin_attack(LpBall(2.0, gamma))
    return [_result(lambda diag: loop(data, perceptron_init(data.d), oracle, cap, diagnostics=diag))
            for loop in (cycle_ref, cycle_robust)]


def test_cycle_hits_both_caps_as_the_one_row_loop_does():
    # two labels on one point: every pass updates, so the update cap trips
    want, got = _ball_outcomes([[1.0, 0.0], [1.0, 0.0]], [1, -1], 5)
    assert got == want == (MistakeCapExceeded, "learner needed more than 5 updates")
    # one update in the only pass the call budget allows: the next pass is over budget
    want, got = _ball_outcomes([[2.0, 0.0], [-2.0, 0.0], [3.0, 0.0]], [1, -1, 1], 1)
    assert got == want == (MistakeCapExceeded, "exceeded 3 x 1 oracle calls without a clean pass")


def test_rows_on_the_sphere_count_as_attacked():
    # after the first update w = (1,), so rows 0 and 1 have margin exactly
    # gamma; their witnesses lie on the boundary and never move w, so the
    # run ends at the update cap instead of in a clean second pass
    want, got = _ball_outcomes([[-1.0], [1.0], [3.0]], [-1, 1, 1], 4, gamma=1.0)
    assert got == want == (MistakeCapExceeded, "learner needed more than 4 updates")


def test_one_pass_reads_no_row_past_the_survivor_run():
    # run length 2: row 0 updates, rows 1 and 2 survive, rows 3 and 4 stay unread
    data = Dataset(np.array([[-1.0], [2.0], [3.0], [-2.0], [4.0]]), np.array([-1, 1, 1, -1, 1]))
    sources = [finite_source(data), finite_source(data)]
    runs = [_result(lambda diag: loop(src, perceptron_init(1), margin_attack(LpBall(2.0, 0.1)),
                                      1.0, 0.5, 2, diagnostics=diag))
            for loop, src in zip((one_pass_ref, one_pass_robust), sources)]
    assert runs[1] == runs[0] and runs[0][1] == {"updates": 1, "run_length": 2}
    assert _next_row(sources[1]) == _next_row(sources[0]) == vec(-2.0).tobytes()


def test_cycle_passes_row_indices_to_per_example_oracles():
    # row 1 is attackable only through its own list, row 2 has none
    data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.array([1, 1, 1]))
    U = FinitePerExample({0: [[1.0, 0.0]], 1: [[2.0, 0.0], [-5.0, 0.0]]})
    outcomes = [_result(lambda diag: loop(data, BatchPerceptron(perceptron_init(2)),
                                          enumeration_attack(U), 4, diagnostics=diag))
                for loop in (cycle_ref, cycle_robust)]
    assert outcomes[1] == outcomes[0]
    assert outcomes[0] == (MissingPerturbations, "no perturbation list for example index 2")


def test_streams_that_run_dry_mid_block_end_as_the_one_row_loops_do():
    data = Dataset(np.array([[1.0], [-1.0], [2.0], [3.0], [-2.0]]), np.array([1, -1, 1, 1, -1]))
    oracle = margin_attack(LpBall(2.0, 0.1))
    passes = [_result(lambda diag: loop(finite_source(data), perceptron_init(1), oracle,
                                        0.25, 0.5, 4, diagnostics=diag))
              for loop in (one_pass_ref, one_pass_robust)]
    assert passes[1] == passes[0] == (StreamExhausted, "stream ended with survivor streak 3 of 9")
    vote = enumeration_attack(FiniteOffsets([[0.0], [0.5]]))
    pool = [LinearModel(vec(1.0)), LinearModel(vec(-1.0))]
    for rounds in (None, 4, 5, 6, 50):
        runs = [_result(lambda diag: loop(pool, finite_source(data), vote, 0.5, rounds,
                                          diagnostics=diag))
                for loop in (weighted_majority_ref, weighted_majority_robust)]
        assert runs[1] == runs[0]
        assert runs[0][1]["examples_seen"] == min(5, rounds or 5)

