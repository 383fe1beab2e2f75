import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from roblearn import (
    ConstantModel,
    Dataset,
    EmptyPool,
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
    SourceExhausted,
    StreamExhausted,
    Unsupported,
    WeakLearnerFailed,
    WeightedDataset,
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
    hit, witness = oracle(h, np.array([[3.0], [1.0]]), np.array([1, 1]), None)
    assert hit.tolist() == [False, True]
    assert np.allclose(witness(1), [-1.0])
    with pytest.raises(Unsupported):
        enumeration_attack(LpBall(2.0, 1.0))


def test_enumeration_attack_per_example_uses_index():
    spec = FinitePerExample({0: np.array([[5.0]]), 1: np.array([[-5.0]])})
    oracle = enumeration_attack(spec)
    h = LinearModel(vec(1.0))
    hit, witness = oracle(h, np.array([[5.0], [5.0]]), np.array([1, 1]), 0)
    assert hit.tolist() == [False, True]
    assert np.allclose(witness(1), [-5.0])
    # start is the index of row 0: the same row reads the list of index 1
    hit, witness = oracle(h, np.array([[5.0]]), np.array([1]), 1)
    assert hit.tolist() == [True] and np.allclose(witness(0), [-5.0])


def test_margin_attack_handles_the_zero_state():
    oracle = margin_attack(LpBall(2.0, 0.5))
    state = perceptron_init(2)
    # the empty state predicts +1 everywhere: only negative rows are hit, each its own witness
    hit, witness = oracle(state, np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1]), None)
    assert hit.tolist() == [False, True]
    assert np.allclose(witness(1), [1.0, 0.0])


def test_margin_attack_returns_ball_witness():
    oracle = margin_attack(LpBall(2.0, 0.5))
    state = perceptron_init(2).update(vec(-1.0, 0.0), -1)  # w = (1, 0)
    X = np.array([[0.3, 0.0], [5.0, 0.0]])
    hit, witness = oracle(state, X, np.array([1, 1]), None)
    assert hit.tolist() == [True, False]
    z = witness(0)
    assert lp_norm(z - X[0], 2.0) <= 0.5 + 1e-9
    assert float(z[0]) <= 0.0 + 1e-9  # pushed across the boundary


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
    # one round of a learner that is wrong on 1 row of 4: each round meets the
    # 1/3 edge, and the vote still errs, inner and outer
    data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1, 1, 1, -1]))
    one = make_pool_erm([LinearModel(vec(1.0))])
    with pytest.raises(WeakLearnerFailed, match="^boosting did not reach zero loss in 1 rounds$"):
        zero_robust_loss(data, FiniteOffsets([vec(0.0)]), one, RobustifyConfig(inner_rounds=1))
    with pytest.raises(WeakLearnerFailed, match="^boosting did not reach zero loss in 1 rounds$"):
        robustify_nonrobust(data, FiniteOffsets([vec(0.0)]), one,
                            RobustifyConfig(outer_rounds=1, subsample=1))


def test_robustify_reaches_zero_robust_loss(monkeypatch):
    data = separable_band()
    boosts = []  # (rows boosted on, round errors) of each alpha_boost run, the outer one last

    def recording(flat, learner, cfg, U=None):
        models, vote, errors = boost(flat, learner, cfg, U)
        boosts.append((flat.n, errors))
        return models, vote, errors

    boost = reductions.alpha_boost
    monkeypatch.setattr(reductions, "alpha_boost", recording)
    vote, rounds_run = robustify_nonrobust(data, SHIFTS, erm_linear)
    assert robust_risk(vote, data, SHIFTS) == 0.0
    inflated_size, round_errors = boosts[-1]
    assert inflated_size == 3 * data.n
    assert rounds_run >= 1 and len(round_errors) == rounds_run
    assert all(e <= 1.0 / 3.0 for e in round_errors)
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
        vote, rounds_run = robustify_nonrobust(data, SHIFTS, flaky, RobustifyConfig(inner_rounds=2, rng_seed=3))
        grid = np.mgrid[-3:3:13j, -3:3:13j].reshape(2, -1).T
        return list(seeds), rounds_run, vote.predict_batch(grid), robust_risk(vote, data, SHIFTS)

    seeds_a, rounds_a, pred_a, risk = run()
    seeds_b, rounds_b, pred_b, _ = run()
    # attempt k of the run seeds its inner boost with rng_seed + k
    assert seeds_a == list(range(4, 4 + len(seeds_a)))
    assert len(seeds_a) > rounds_a and risk == 0.0
    assert (seeds_a, rounds_a) == (seeds_b, rounds_b)
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
    vote, eta = fms_agnostic(data, spec, make_pool_erm(pool), rounds=40)
    lists = [spec.points(X[i]) for i in range(data.n)]
    opt = brute_pool_optimum(pool, lists, y)
    assert robust_risk(vote, data, spec) <= 2.0 * opt + 0.1
    assert len(vote.models) == 40 and eta > 0


def test_fms_round_count_default():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    spec = FiniteOffsets([vec(0.0), vec(0.1), vec(-0.1)])
    vote, _ = fms_agnostic(data, spec, erm_linear, eps=0.5)
    assert len(vote.models) == math.ceil(32.0 * math.log(3) / 0.25)


# ---------------------------------------------------------------------------
# online conversions
# ---------------------------------------------------------------------------


def test_one_pass_learns_from_a_stream():
    pair = GaussianPair((vec(2.0, 0.0), vec(-2.0, 0.0)), sigma=0.1)
    ball = LpBall(2.0, 0.2)
    state, _, run_length = one_pass_robust(gen_stream(pair, 3), perceptron_init(2), margin_attack(ball),
                                           eps=0.25, delta=0.05, mistake_cap=100)
    assert run_length == math.ceil(4.0 * math.log(100 / 0.05))
    oracle = margin_attack(ball)
    fresh = generate(GenSpec(pair, 60, rng_seed=77))
    hit, _ = oracle(state, fresh.X, fresh.y, None)
    assert np.count_nonzero(~hit) >= 54


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
    cap = 200
    state, updates, passes = cycle_robust(data, perceptron_init(2), oracle, mistake_cap=cap)
    assert not oracle(state, data.X, data.y, 0)[0].any()
    assert updates <= cap
    oracle_calls = passes * data.n  # a run that returns examined every row on every pass
    assert oracle_calls <= data.n * cap


def test_cycle_aborts_past_the_mistake_cap():
    clash = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
    with pytest.raises(MistakeCapExceeded):
        cycle_robust(clash, perceptron_init(2), margin_attack(LpBall(2.0, 0.1)), mistake_cap=5)


# ---------------------------------------------------------------------------
# weighted majority against an attacker
# ---------------------------------------------------------------------------


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
    U = FiniteOffsets([vec(0.0)])
    weights, predictor, mistakes, seen = weighted_majority_robust(pool, stream, U, eta_wm=0.5)
    assert mistakes == 1 and seen == 12
    assert np.allclose(weights, [0.5, 1.0]) and predictor.weights is weights
    assert predictor.predict_batch([[3.0]])[0] == -1
    a, b = wm_constants(0.5)
    assert mistakes <= a * 0.0 + b * math.log(len(pool))
    with pytest.raises(EmptyPool):
        weighted_majority_robust([], stream, U, eta_wm=0.5)
    with pytest.raises(Unsupported, match="finite perturbation set"):
        weighted_majority_robust(pool, stream, LpBall(2.0, 0.1), eta_wm=0.5)
    # drawn rows carry no example index, so a per-example table has no list for them
    with pytest.raises(MissingPerturbations, match="^no perturbation list for example index None$"):
        weighted_majority_robust(pool, finite_source(Dataset(X, y)), FinitePerExample({0: X[:1]}), 0.5)


def test_weighted_majority_respects_the_general_bound():
    rng = np.random.default_rng(8)
    truth = LinearModel(vec(1.0, -0.5))
    pool = [LinearModel(rng.standard_normal(2)) for _ in range(19)] + [truth]
    pair = GaussianPair((vec(2.0, -1.0), vec(-2.0, 1.0)), sigma=0.2)
    stream = finite_source(generate(GenSpec(pair, 300, rng_seed=6)))
    # each row plus its points pushed 0.1 either way along every member's normal
    U = FiniteOffsets([np.zeros(2)] + [s * 0.1 * h.w / np.linalg.norm(h.w) for h in pool for s in (1, -1)])
    mistakes = weighted_majority_robust(pool, stream, U, eta_wm=0.5)[2]
    a, b = wm_constants(0.5)
    # the pool contains a zero-mistake member, so the bound is pure overhead
    assert mistakes <= a * 0.0 + b * math.log(len(pool))

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


def _oracle(kind, rng, data):
    """One attack oracle of the kind, and the learner it attacks."""
    if kind == "ball":
        p = [1.0, 2.0, math.inf][int(rng.integers(3))]
        # round radii put rows on the sphere of integer rows, where attack counts the tie
        gamma = float(rng.choice([0.0, 0.5, 1.0, round(rng.uniform(0.0, 1.0), 2)]))
        return margin_attack(LpBall(p, gamma)), perceptron_init(data.d)
    return enumeration_attack(_finite_set(kind, rng, data)), BatchPerceptron(perceptron_init(data.d))


def _finite_set(kind, rng, data):
    """Four rounded offsets, zero among them, or a per-example table."""
    d = data.d
    if kind == "offsets":
        return FiniteOffsets(np.vstack([np.zeros(d), np.round(rng.uniform(-1, 1, size=(3, d)), 1)]))
    # about one row in eight has no list, so the scan must stop there
    table = {i: data.X[i] + rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), d))
             for i in range(data.n) if rng.random() > 0.125}
    return FinitePerExample(table)


def _result(run):
    """Weight bytes and the loop's counts, or the class and message of the error."""
    try:
        first, *rest = run()
    except (RoblearnError, ValueError) as exc:
        return type(exc), str(exc)
    w = first if isinstance(first, np.ndarray) else getattr(first, "state", first).w
    return w.tobytes(), tuple(v for v in rest if isinstance(v, int))


def _next_row(source):
    try:
        return source(1).X.tobytes()
    except SourceExhausted:
        return None


rows_case = [st.integers(0, 100_000), st.integers(0, 24), st.integers(1, 3), st.integers(0, 2)]


@settings(max_examples=200)
@given(*rows_case, st.sampled_from(ORACLE_KINDS), st.integers(1, 8))
@example(1271, 16, 2, 1, "ball", 4)  # a margin at the radius that X @ w rounded by block
def test_cycle_matches_the_one_row_loop(seed, n, d, decimals, kind, cap):
    rng, data = _case(seed, n, d, decimals)
    state = rng.bit_generator.state
    results = []
    for loop in (cycle_ref, cycle_robust):
        rng.bit_generator.state = state
        oracle, learner = _oracle(kind, rng, data)
        results.append(_result(lambda: loop(data, learner, oracle, cap)))
    assert results[1] == results[0]


@settings(max_examples=200)
@given(*rows_case, st.sampled_from(ORACLE_KINDS), st.integers(1, 8),
       st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.1, 0.5, 0.9]))
def test_one_pass_matches_the_one_row_loop(seed, n, d, decimals, kind, cap, eps, delta):
    rng, data = _case(seed, n, d, decimals)
    state = rng.bit_generator.state
    sources, results = [], []
    for loop in (one_pass_ref, one_pass_robust):
        rng.bit_generator.state = state
        oracle, learner = _oracle(kind, rng, data)
        sources.append(finite_source(data))
        results.append(_result(lambda: loop(sources[-1], learner, oracle, eps, delta, cap)))
    assert results[1] == results[0]
    if results[0][0] in (StreamExhausted,) or isinstance(results[0][0], bytes):
        # both loops read the same rows, including a source run dry mid-block
        assert _next_row(sources[1]) == _next_row(sources[0])


@settings(max_examples=200)
@given(*rows_case, st.sampled_from(["offsets", "table"]),
       st.one_of(st.none(), st.integers(1, 40)), st.sampled_from([0.0, 0.25, 0.5, 0.9]),
       st.integers(1, 5))
def test_weighted_majority_matches_the_one_row_loop(seed, n, d, decimals, kind, rounds,
                                                    eta, members):
    # the package votes from each block's prediction matrix; the reference asks
    # an enumeration oracle one row at a time and each member about the witness
    rng, data = _case(seed, n, d, decimals)
    pool = [LinearModel(rng.uniform(0.1, 1.0, d) * rng.choice([-1.0, 1.0], d),
                        float(rng.uniform(-0.5, 0.5))) for _ in range(members)]
    U = _finite_set(kind, rng, data)
    sources = [finite_source(data), finite_source(data)]
    results = [_result(lambda: weighted_majority_ref(pool, sources[0], enumeration_attack(U), eta, rounds)),
               _result(lambda: weighted_majority_robust(pool, sources[1], U, eta, rounds))]
    assert results[1] == results[0]
    if isinstance(results[0][0], bytes):
        assert _next_row(sources[1]) == _next_row(sources[0])


def _ball_outcomes(X, y, cap, gamma=0.1):
    data = Dataset(np.array(X, dtype=float), np.array(y))
    oracle = margin_attack(LpBall(2.0, gamma))
    return [_result(lambda: loop(data, perceptron_init(data.d), oracle, cap))
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
    runs = [_result(lambda: loop(src, perceptron_init(1), margin_attack(LpBall(2.0, 0.1)),
                                 1.0, 0.5, 2))
            for loop, src in zip((one_pass_ref, one_pass_robust), sources)]
    assert runs[1] == runs[0] and runs[0][1] == (1, 2)  # (updates, run length)
    assert _next_row(sources[1]) == _next_row(sources[0]) == vec(-2.0).tobytes()


def test_cycle_passes_row_indices_to_per_example_oracles():
    # row 1 is attackable only through its own list, row 2 has none
    data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.array([1, 1, 1]))
    U = FinitePerExample({0: [[1.0, 0.0]], 1: [[2.0, 0.0], [-5.0, 0.0]]})
    outcomes = [_result(lambda: loop(data, BatchPerceptron(perceptron_init(2)),
                                     enumeration_attack(U), 4))
                for loop in (cycle_ref, cycle_robust)]
    assert outcomes[1] == outcomes[0]
    assert outcomes[0] == (MissingPerturbations, "no perturbation list for example index 2")


def test_streams_that_run_dry_mid_block_end_as_the_one_row_loops_do():
    data = Dataset(np.array([[1.0], [-1.0], [2.0], [3.0], [-2.0]]), np.array([1, -1, 1, 1, -1]))
    oracle = margin_attack(LpBall(2.0, 0.1))
    passes = [_result(lambda: loop(finite_source(data), perceptron_init(1), oracle,
                                   0.25, 0.5, 4))
              for loop in (one_pass_ref, one_pass_robust)]
    assert passes[1] == passes[0] == (StreamExhausted, "stream ended with survivor streak 3 of 9")
    U = FiniteOffsets([[0.0], [0.5]])
    pool = [LinearModel(vec(1.0)), LinearModel(vec(-1.0))]
    for rounds in (None, 4, 5, 6, 50):
        runs = [_result(lambda: weighted_majority_ref(pool, finite_source(data), enumeration_attack(U),
                                                      0.5, rounds)),
                _result(lambda: weighted_majority_robust(pool, finite_source(data), U, 0.5, rounds))]
        assert runs[1] == runs[0]
        assert runs[0][1][1] == min(5, rounds or 5)  # (mistakes, examples seen)



@dataclass(frozen=True)
class AskedPerceptron:
    """A perceptron that counts the oracle calls that consult it: margin_attack
    reads w once per call, and enumeration_attack calls predict_batch once."""

    state: PerceptronState
    asked: list

    @property
    def w(self):
        self.asked.append(1)
        return self.state.w

    def predict_batch(self, Z):
        self.asked.append(1)
        return BatchPerceptron(self.state).predict_batch(Z)

    def update(self, z, y):
        return AskedPerceptron(self.state.update(z, y), self.asked)


@pytest.mark.parametrize("loop, kind", [("cycle", "ball"), ("cycle", "offsets"),
                                        ("one-pass", "ball"), ("one-pass", "offsets")])
def test_a_wrapped_oracle_takes_the_same_path(loop, kind):
    # a forwarding wrapper, such as a call counter, must not change how the
    # loops ask the oracle: same result, same oracle calls
    pair = GaussianPair((vec(1.0, 0.5), vec(-1.0, -0.5)), sigma=0.35)
    data = generate(GenSpec(pair, 300, rng_seed=10))  # two to four updates in every loop
    runs = []
    for wrapped in (False, True):
        asked, calls = [], []
        oracle = (margin_attack(LpBall(2.0, 0.1)) if kind == "ball"
                  else enumeration_attack(FiniteOffsets([vec(0.0, 0.0), vec(0.1, -0.1)])))
        if wrapped:
            inner = oracle
            oracle = lambda *a: calls.append(1) or inner(*a)  # noqa: E731
        learner = AskedPerceptron(perceptron_init(2), asked)
        if loop == "cycle":
            result = _result(lambda: cycle_robust(data, learner, oracle, 100))
        else:
            result = _result(lambda: one_pass_robust(finite_source(data), learner, oracle,
                                                     0.1, 0.1, 20))
        assert isinstance(result[0], bytes) and max(result[1]) > 0  # a run with updates
        if wrapped:
            assert len(calls) == len(asked)
        runs.append((result, len(asked)))
    assert runs[1] == runs[0]
    assert runs[0][1] < data.n  # the rows went to the oracle in blocks


@dataclass(frozen=True)
class AskedMember:
    """A pool member that counts the blocks it is asked to label."""

    model: LinearModel
    asked: list

    def predict_batch(self, Z):
        self.asked.append(len(Z))
        return self.model.predict_batch(Z)


def test_weighted_majority_asks_each_member_once_per_drawn_block():
    pair = GaussianPair((vec(1.0, 0.5), vec(-1.0, -0.5)), sigma=0.35)
    data = generate(GenSpec(pair, 300, rng_seed=10))
    U = FiniteOffsets([vec(0.0, 0.0), vec(0.1, -0.1)])
    ws = (vec(1.0, 0.3), vec(-0.2, 1.0), vec(0.5, -1.0))
    source, blocks = finite_source(data), []

    def stream(k):
        batch = source(k)
        blocks.append(batch.n)
        return batch

    pool = [AskedMember(LinearModel(w), []) for w in ws]
    result = _result(lambda: weighted_majority_robust(pool, stream, U, 0.5))
    want = _result(lambda: weighted_majority_ref([LinearModel(w) for w in ws], finite_source(data),
                                                 enumeration_attack(U), 0.5))
    assert result == want and result[1][0] > 1  # several mistakes, each with the one-row bits
    assert blocks == [256, 32, 8, 4]  # a 4096-row request halved until the 300 rows are read
    for member in pool:
        assert member.asked == [U.k * n for n in blocks]
