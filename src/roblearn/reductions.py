"""Robust learning through non-robust oracles and online attack oracles.

The finite-perturbation reductions work by inflating the training set and
boosting a plain PAC learner over it. The online algorithms instead drive a
conservative mistake-bounded learner (or a fixed hypothesis pool) with a
perfect attack oracle, feeding counterexamples back as updates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    FiniteOffsets,
    FinitePerExample,
    LinearModel,
    LpBall,
    as_vector,
    ball_hits,
    inflate,
    worst_case_point,
)
from .boosting import (
    AlphaBoostConfig,
    MajorityVote,
    WeightedDataset,
    _weighted_vote,
    alpha_boost,
    sparsify_majority,
)
from .data import substream
from .errors import (
    ConfigError,
    EmptyPool,
    MistakeCapExceeded,
    SourceExhausted,
    StreamExhausted,
    Unsupported,
)


# ---------------------------------------------------------------------------
# attack oracles: oracle(state, X, y, start) -> (hit, witness) attacks the
# block of rows (X, y) under a fixed learner state. hit is a boolean mask over
# the rows, witness(j) the point in U(X[j]) that the state gets wrong for a hit
# row j, and start the dataset index of row 0 (per-example tables need it), or
# None.
# ---------------------------------------------------------------------------


def enumeration_attack(U):
    """Attack oracle over a finite perturbation list, for any predictor
    exposing predict_batch(): one batch attacks a block of rows, and a row is
    hit when some listed point of it is misclassified; its witness is the
    first such point."""
    if not isinstance(U, (FiniteOffsets, FinitePerExample)):
        raise Unsupported("enumeration needs a finite perturbation set")

    def oracle(predictor, X, y, start):
        if isinstance(U, FiniteOffsets):
            known, sizes = len(y), np.full(len(y), U.k)
            Z = U.points(X).reshape(-1, X.shape[1])
        else:
            # rows end at the first index without a list; that row counts as
            # hit and its witness raises MissingPerturbations
            idx = range(start, start + len(y)) if start is not None else ()
            lists = [U.table[i] for i in itertools.takewhile(U.table.__contains__, idx)]
            known, sizes = len(lists), np.array([len(P) for P in lists], dtype=np.int64)
            Z = np.concatenate(lists) if lists else None
        starts = np.cumsum(sizes) - sizes
        hit = np.ones(len(y), dtype=bool)
        if known:
            wrong = predictor.predict_batch(Z) != np.repeat(y[:known], sizes)
            hit[:known] = np.logical_or.reduceat(wrong, starts)

        def witness(j):
            if j == known:
                U.points(None if start is None else start + j)
            return Z[starts[j] + int(wrong[starts[j]:starts[j] + sizes[j]].argmax())].copy()

        return hit, witness

    return oracle


def margin_attack(U: LpBall):
    """Attack oracle for perceptron-style states with a weight vector, one
    closed-form batch per block of rows; the all-zero state predicts +1
    everywhere, so only negative rows are hit, each its own witness."""

    def oracle(state, X, y, start):
        w = np.asarray(state.w, dtype=float)
        if not np.any(w):
            return y == -1, lambda j: X[j].copy()
        model = LinearModel(w)
        return ball_hits(model, X, y, U), lambda j: worst_case_point(model, X[j], y[j], U)

    return oracle


# ---------------------------------------------------------------------------
# robustify-the-non-robust (finite perturbation sets, realizable)
# ---------------------------------------------------------------------------


@dataclass
class RobustifyConfig:
    outer_rounds: int | None = None  # None means ceil(1 + 48 ln |S_U|)
    inner_rounds: int | None = None  # None means ceil(1 + 48 ln |L_U|)
    subsample: int = 32
    sparsify_N: int = 25
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("subsample", "sparsify_N"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


def zero_robust_loss(L: Dataset, U, base_learner, cfg: RobustifyConfig | None = None, indices=None):
    """Boost the base learner on the inflated copy of L until the majority
    classifies every perturbation correctly, then sparsify the vote.

    indices carries the original example positions of L's rows, needed when U
    is a per-example table. alpha_boost's early stop raises WeakLearnerFailed
    when its rounds end without zero loss on the inflated set (non-realizable
    input).
    """
    cfg = cfg or RobustifyConfig()
    flat = inflate(L, _reindexed(U, indices, L.n)).data
    boost_cfg = AlphaBoostConfig(rounds=cfg.inner_rounds, early_stop=True)
    models, _, _ = alpha_boost(flat, base_learner, boost_cfg)
    return MajorityVote(sparsify_majority(models, flat, N=cfg.sparsify_N, seed=cfg.rng_seed))


def _reindexed(U, indices, n: int):
    # rows of a subsample keep their original per-example perturbation lists
    if not isinstance(U, FinitePerExample):
        return U
    if indices is None:
        raise ConfigError("per-example tables need the rows' original indices")
    return FinitePerExample({j: U.points(int(indices[j])) for j in range(n)})


def robustify_nonrobust(data: Dataset, U, base_learner, cfg: RobustifyConfig | None = None):
    """alpha_boost over the inflated training set with a weak learner that
    draws a subsample from the round's distribution, projects it back to its
    origin examples and runs zero_robust_loss on them; an attempt whose
    subsample is not robustly realizable fails and is retried. The outer run
    stops early at zero robust loss, or raises WeakLearnerFailed when its
    rounds end before it; the vote is then sparsified, keeping that zero loss.
    Returns the sparsified vote and the number of outer rounds run.
    """
    cfg = cfg or RobustifyConfig()
    if not isinstance(U, (FiniteOffsets, FinitePerExample)):
        raise Unsupported("robustification needs a finite perturbation set")
    inflated = inflate(data, U)
    flat, origins = inflated.data, inflated.origins
    rng = substream(cfg.rng_seed, "robustify")
    inner_seeds = itertools.count(cfg.rng_seed + 1)  # the k-th attempt of the run seeds rng_seed + k

    def weak_learner(wd):
        origin_rows = origins[rng.choice(flat.n, size=min(cfg.subsample, flat.n), replace=True, p=wd.weights)]
        inner_cfg = replace(cfg, rng_seed=next(inner_seeds))
        return zero_robust_loss(data.subset(origin_rows), U, base_learner, inner_cfg, indices=origin_rows)

    boost_cfg = AlphaBoostConfig(rounds=cfg.outer_rounds, early_stop=True)
    models, _, _ = alpha_boost(flat, weak_learner, boost_cfg)
    sub = sparsify_majority(models, flat, N=cfg.sparsify_N, seed=cfg.rng_seed)
    return MajorityVote(sub), len(models)


# ---------------------------------------------------------------------------
# agnostic finite-perturbation reduction (per-perturbation weights)
# ---------------------------------------------------------------------------


class PerExampleWeights:
    """One positive weight per (example, perturbation) pair, flat in example
    order, with a per-example normalized view. Updates only multiply by >= 1."""

    def __init__(self, counts):
        self.sizes = np.asarray(counts, dtype=np.int64)
        if np.any(self.sizes < 1):
            raise ConfigError("every example needs at least one perturbation")
        self.w = np.ones(int(self.sizes.sum()))
        # each (examples, count) block's row sums are each example's .sum() bit for bit, as reduceat's are not
        starts = np.cumsum(self.sizes) - self.sizes
        self.blocks = [(rows, starts[rows, None] + np.arange(k)) for k in set(self.sizes.tolist())
                       for rows in [np.flatnonzero(self.sizes == k)]]

    def normalized(self) -> np.ndarray:
        sums = np.empty(self.sizes.size)
        for rows, at in self.blocks:
            sums[rows] = self.w[at].sum(axis=1)
        return self.w / np.repeat(sums, self.sizes)

    def scale_up(self, mask: np.ndarray, factor: float) -> None:
        if not (1.0 <= factor < math.inf):
            raise ConfigError("weights must be non-decreasing and finite")
        self.w = self.w * np.where(mask, factor, 1.0)


def fms_agnostic(data: Dataset, U, erm, eta_mw: float | None = None, rounds: int | None = None,
                 eps: float = 0.2):
    """Multiplicative-weights game over perturbations: each round the ERM
    fits the current per-perturbation distribution, then every perturbation
    the round's model got wrong is up-weighted by (1 + eta). Returns the
    majority vote of the round models and the eta used.

    erm is called every round, even when the weights did not move, as a
    stateful learner may answer differently; a caller whose erm is
    deterministic may wrap it in reuse_fits.
    """
    if rounds is not None and rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if not (0.0 < eps <= 1.0):
        raise ConfigError("eps must lie in (0, 1]")
    if eta_mw is not None and not (0.0 <= eta_mw < math.inf):
        raise ConfigError("eta_mw must be finite and non-negative")
    inflated = inflate(data, U, cap=math.inf)
    flat = inflated.data
    sizes = np.bincount(inflated.origins, minlength=data.n)
    k_max = int(sizes.max())
    T = rounds if rounds is not None else math.ceil(32.0 * math.log(max(k_max, 2)) / eps ** 2)
    eta = eta_mw if eta_mw is not None else math.sqrt(math.log(max(k_max, 2)) / T)
    weights = PerExampleWeights(sizes)
    models = []
    for _ in range(T):
        h_t = erm(WeightedDataset(flat, weights.normalized() / data.n))
        models.append(h_t)
        weights.scale_up(h_t.predict_batch(flat.X) != flat.y, 1.0 + eta)
    return MajorityVote(models), eta


# ---------------------------------------------------------------------------
# online conversions
# ---------------------------------------------------------------------------


_MAX_DRAW = 4096  # rows per stream request, so a long survivor run stays small in memory


def _scan(oracle, state, X, y, start, on_hit):
    """Run the rows (X, y) past the learner in order and return its final
    state. The learner changes only at a hit, so one oracle call finds the
    next one: the lowest hit row j gets state = on_hit(state, j, witness), and
    the rows after it are attacked again under the new state. start is the
    index of row 0 for per-example oracles, or None.

    A call takes a window of the rows not yet passed: it doubles after a
    window with no hit and drops to twice the last gap (at least 64 rows)
    after a hit, so dense hits re-attack few rows and sparse ones take few
    calls. The window changes the work, never the outcome."""
    i, n, span = 0, len(y), 64
    while i < n:
        k = min(n - i, span)
        hit, witness = oracle(state, X[i:i + k], y[i:i + k], None if start is None else start + i)
        j = int(np.argmax(hit))
        if not hit[j]:
            i += k
            span *= 2
            continue
        state = on_hit(state, i + j, witness(j))
        i += j + 1
        span = max(64, 2 * (j + 1))
    return state


def _draw(stream, k: int) -> Dataset:
    """At most k rows from the stream. A request the stream cannot cover
    (SourceExhausted) is halved until it can, so a finite source hands out
    every row a one-row loop would read; a refused one-row request raises."""
    k = min(k, _MAX_DRAW)
    while True:
        try:
            return stream(k)
        except SourceExhausted:
            if k == 1:
                raise
            k //= 2


def one_pass_robust(stream, online_learner, attack_oracle, eps: float, delta: float,
                    mistake_cap: int):
    """Single pass over an i.i.d. stream: update on every attackable example,
    return the first hypothesis that survives ceil((1/eps) ln(cap/delta))
    consecutive robust-correct draws, with the number of updates and that
    run length. Never updates on a survivor example. attack_oracle is asked
    block by block (see _scan), with no row index.

    Rows are drawn in blocks no longer than the rest of the survivor run, so
    a finite source gives up no row a one-row loop would not have read."""
    if not (0.0 < eps <= 1.0):
        raise ConfigError("eps must lie in (0, 1]")
    if not (0.0 < delta < 1.0):
        raise ConfigError("delta must lie in (0, 1)")
    if mistake_cap < 1:
        raise ConfigError("mistake_cap must be >= 1")
    run_len = max(1, math.ceil((1.0 / eps) * math.log(mistake_cap / delta)))
    streak = 0
    updates = 0

    def on_hit(learner, j, z):
        nonlocal updates, last
        updates += 1
        last = j
        return learner.update(as_vector(z), int(batch.y[j]))

    learner = online_learner
    while streak < run_len:
        try:
            batch = _draw(stream, run_len - streak)
        except SourceExhausted as exc:
            raise StreamExhausted(
                f"stream ended with survivor streak {streak} of {run_len}"
            ) from exc
        last = -1
        learner = _scan(attack_oracle, learner, batch.X, batch.y, None, on_hit)
        streak = batch.n - 1 - last if last >= 0 else streak + batch.n
    return learner, updates, run_len


def cycle_robust(data: Dataset, online_learner, attack_oracle, mistake_cap: int):
    """Cycle over the training set feeding attack witnesses to the learner
    until one full pass draws no successful attack. Learner updates beyond
    the mistake cap, or oracle usage beyond m * cap calls, abort the run.
    Each row examined counts as one oracle call, however the rows are batched,
    so a run that returns made passes * m calls. attack_oracle is asked block
    by block (see _scan), with the blocks' row indices. Returns the learner,
    the number of updates and the number of passes."""
    if mistake_cap < 1:
        raise ConfigError("mistake_cap must be >= 1")
    m = data.n
    calls = 0
    updates = 0
    passes = 0

    def on_hit(learner, i, z):
        nonlocal updates
        updates += 1
        if updates > mistake_cap:
            raise MistakeCapExceeded(f"learner needed more than {mistake_cap} updates")
        return learner.update(as_vector(z), int(data.y[i]))

    learner = online_learner
    while True:
        passes += 1
        before = updates
        rows = min(m, m * mistake_cap - calls)
        learner = _scan(attack_oracle, learner, data.X[:rows], data.y[:rows], 0, on_hit)
        calls += rows
        if rows < m:
            raise MistakeCapExceeded(
                f"exceeded {m} x {mistake_cap} oracle calls without a clean pass"
            )
        if updates == before:
            break
    return learner, updates, passes


# ---------------------------------------------------------------------------
# weighted majority over a fixed pool
# ---------------------------------------------------------------------------


def wm_constants(eta: float) -> tuple[float, float]:
    """Mistake-bound multipliers (a, b): mistakes <= a * OPT + b * ln(pool size)."""
    if not (0.0 < eta < 1.0):
        raise ConfigError("the bound constants need eta in (0, 1)")
    denom = math.log(2.0 / (1.0 + eta))
    return math.log(1.0 / eta) / denom, 1.0 / denom


def weighted_majority_robust(pool, stream, U, eta_wm: float, rounds: int | None = None):
    """Run the weighted-majority vote against a perfect attacker over the
    FiniteOffsets U (drawn rows carry no index, so a FinitePerExample raises
    MissingPerturbations); every member wrong on the first misclassified point
    of an attacked row is down-weighted by eta. Stops after `rounds` draws or
    when a finite stream runs dry; rows are drawn and attacked in blocks, as
    in one_pass_robust. Returns the weights (one float per member), the
    MajorityVote that holds them, the number of mistakes and the number of
    examples drawn. Each member labels a drawn block's n * k points once, kept
    as int8: an m-member block costs m * n * k bytes, and every vote and
    down-weighting reads them."""
    if not isinstance(U, (FiniteOffsets, FinitePerExample)):
        raise Unsupported("weighted majority needs a finite perturbation set")
    pool = list(pool)
    if not pool:
        raise EmptyPool("hypothesis pool must be non-empty")
    if not (0.0 <= eta_wm < 1.0):
        raise ConfigError("eta must lie in [0, 1)")
    if rounds is not None and rounds < 1:
        raise ConfigError("rounds must be >= 1")
    weights = np.ones(len(pool))
    mistakes = 0
    seen = 0

    def attack(weights, rows, y, start):
        # rows index the block and a row's k points are k adjacent columns of P
        cols = slice(int(rows[0]) * k, (int(rows[-1]) + 1) * k)
        wrong = _weighted_vote(weights, P[:, cols], k * len(rows)) != np.repeat(y, k)
        hit = np.logical_or.reduceat(wrong, np.arange(0, wrong.size, k))
        return hit, lambda j: cols.start + j * k + int(wrong[j * k:(j + 1) * k].argmax())

    def on_hit(weights, j, col):
        nonlocal mistakes
        mistakes += 1
        weights[P[:, col] != batch.y[j]] *= eta_wm
        return weights

    while rounds is None or seen < rounds:
        try:
            batch = _draw(stream, _MAX_DRAW if rounds is None else rounds - seen)
        except SourceExhausted:
            break
        seen += batch.n
        # a per-example table raises here, at the first block
        Z = U.points(None if isinstance(U, FinitePerExample) else batch.X)
        k = Z.shape[1]
        P = np.array([h.predict_batch(Z.reshape(-1, batch.d)) for h in pool], dtype=np.int8)
        _scan(attack, weights, np.arange(batch.n), batch.y, None, on_hit)
    return weights, MajorityVote(pool, weights), mistakes, seen
