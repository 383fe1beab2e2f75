"""Cascades of abstaining classifiers and the boosting loops that build them.

Two regimes live here. beta_roboost turns a learner that is only robust on a
beta fraction of its input into a cascade whose non-robust mass decays like
prod(1 - beta_hat_t); alpha_boost aggregates weak robust learners into a
majority vote, which the finite-set reductions thin with sparsify_majority.
The cascade's stage walk also decides the non-robust region for sampling.
expand_g and strong_to_barely go the other way, degrading a strong robust
learner into a one-sided barely-robust one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FiniteOffsets,
    FinitePerExample,
    LinearModel,
    LpBall,
    ball_hits,
    inverse_blowup,
    margins_batch,
    robust_losses,
)
from .data import substream
from .errors import (
    ConfigError,
    RetryLimit,
    SourceExhausted,
    Unsupported,
    WeakLearnerFailed,
)
from .learners import WeightedDataset


# ---------------------------------------------------------------------------
# selective classifiers and cascades
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectiveClassifier:
    """A model that only speaks when every candidate preimage of the input
    agrees; otherwise it abstains, which selective_labels marks 0."""

    model: LinearModel
    abstain_spec: object


def selective_labels(sc: SelectiveClassifier, Z) -> np.ndarray:
    """Labels of the selective classifier on the rows of Z; 0 marks abstention."""
    Z = np.asarray(Z, dtype=float)
    spec = sc.abstain_spec
    if isinstance(spec, LpBall):
        # closed form: prediction is stable on the inverse ball iff the
        # normalized margin clears the radius; its sign is the label, ties abstain
        m = margins_batch(sc.model, Z, spec.p)
        return (m > spec.gamma).astype(np.int64) - (m < -spec.gamma)
    if isinstance(spec, FiniteOffsets):
        pre = (Z[:, None, :] - spec.offsets).reshape(-1, Z.shape[1])
        preds = sc.model.predict_batch(pre).reshape(Z.shape[0], spec.k)
        return np.where(np.all(preds == preds[:, :1], axis=1), preds[:, 0], 0)
    if isinstance(spec, FinitePerExample):
        raise Unsupported("per-example tables have no input-indexed inverse")
    raise Unsupported(f"no abstention rule for {type(spec).__name__}")


class Cascade:
    """Ordered abstaining stages with a last-resort raw predictor.

    The fallback answers only when every stage abstains; by construction a
    non-abstaining earlier stage is never contradicted.
    """

    def __init__(self, stages, fallback: LinearModel):
        stages = list(stages)
        if not stages:
            raise ConfigError("a cascade needs at least one stage")
        if fallback is None:
            raise ConfigError("a cascade needs a fallback model")
        self.stages = stages
        self.fallback = fallback

    def predict_batch(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        out = _stage_labels(self.stages, Z)
        open_ = out == 0
        out[open_] = self.fallback.predict_batch(Z[open_])
        return out

    def robust_losses_lp(self, data: Dataset, ball: LpBall) -> np.ndarray:
        """Sound worst-case losses over the ball, never under-reporting.

        Normalized margins move by at most the ball radius, so each stage is
        classified from its margin at the center alone: surely-correct (and
        non-abstaining) everywhere, possibly-wrong somewhere, or safe
        (correct-or-abstaining) everywhere. A possibly-wrong stage counts as
        a loss; a safe stage defers the row to the rest of the cascade.
        """
        r = ball.gamma
        losses = np.zeros(data.n, dtype=np.int64)
        open_ = np.ones(data.n, dtype=bool)
        for stage in self.stages:
            if not open_.any():
                return losses
            spec = stage.abstain_spec
            if not isinstance(spec, LpBall) or spec.p != ball.p:
                raise Unsupported("stage abstention norm must match the evaluation ball")
            ym = data.y * margins_batch(stage.model, data.X, ball.p)
            losses[open_ & (ym < r - spec.gamma)] = 1
            open_ &= ~((ym > spec.gamma + r) | (ym < r - spec.gamma))  # a nan stage abstains
        losses[open_ & ball_hits(self.fallback, data.X, data.y, ball)] = 1
        return losses


def _stage_labels(stages, Z) -> np.ndarray:
    """Label of each row's first non-abstaining stage; 0 where every stage
    abstains. The walk stops once no row is left open."""
    Z = np.asarray(Z, dtype=float)
    out = np.zeros(Z.shape[0], dtype=np.int64)
    open_ = slice(None)  # every row, before the first stage
    for stage in stages:
        out[open_] = selective_labels(stage, Z[open_])
        open_ = np.flatnonzero(out == 0)
        if not open_.size:
            break
    return out


# ---------------------------------------------------------------------------
# non-robust region and rejection sampling
# ---------------------------------------------------------------------------


def _doubled_stages(models, specs) -> list:
    # a model's prediction can be flipped or silenced within U at x exactly
    # where it abstains on the inverse blowup of U: |margin| <= 2 gamma for a
    # ball, and for offsets x - (O - O) is the symmetric set x + (O - O)
    return [SelectiveClassifier(m, inverse_blowup(s)) for m, s in zip(models, specs)]


def finite_source(data: Dataset):
    """Consume a dataset front to back; raises SourceExhausted when the
    remaining rows cannot cover a request."""
    cursor = {"i": 0}

    def draw(k: int) -> Dataset:
        i = cursor["i"]
        if i + k > data.n:
            raise SourceExhausted(f"source has {data.n - i} rows left, needs {k}")
        cursor["i"] = i + k
        return data.subset(np.arange(i, i + k))

    return draw


def rejection_sample(source, models, m: int, budget_per_draw: int, U, specs=None):
    """Accept m labeled samples lying in the joint non-robust region of the
    models, or None once any single accept costs more than budget_per_draw
    rows examined (evidence the region's mass is too small to matter). Rows
    are requested in blocks; see _accept."""
    models = list(models)
    specs = list(specs) if specs is not None else [U] * len(models)
    got = _accept(source, _doubled_stages(models, specs), m, budget_per_draw, abstained=True)
    return None if got is None else Dataset(np.array(got[0]), np.array(got[1], dtype=np.int64))


def _accept(source, stages, m: int, budget_per_draw: int, abstained: bool):
    """Keep rows where every stage abstains (or, with abstained False, where
    some stage speaks) until m are kept. Returns the kept (rows, labels), or
    None once one accept costs more than budget_per_draw rows examined.

    Each request is for k = min(m - kept, budget_per_draw - since) rows, with
    since counting the rows rejected after the last accept. A one-row loop
    would examine every row of such a block too, as it cannot overfill m and
    the budget can run out only at its last row, so on a finite source the
    kept rows, the None outcome and the cursor are the same. The exception: a
    source with fewer than k rows left raises SourceExhausted before reading
    them, where a one-row loop raises after (they could neither fill m nor
    exhaust the budget).
    """
    xs, ys, since = [], [], 0
    while len(xs) < m:
        if since >= budget_per_draw:
            return None
        k = min(m - len(xs), budget_per_draw - since)
        batch = source(k)
        hits = np.flatnonzero((_stage_labels(stages, batch.X) == 0) == abstained)
        xs.extend(batch.X[hits])
        ys.extend(batch.y[hits])
        since = k - 1 - hits[-1] if hits.size else since + k
    return xs, ys


# ---------------------------------------------------------------------------
# beta-RoBoost
# ---------------------------------------------------------------------------


@dataclass
class BoostConfig:
    beta: float
    eps: float
    delta: float = 0.05
    rounds: int | None = None
    per_round_m: int | None = None
    learner_m: int = 0  # sample size the base learner asks for
    multi_granularity: bool = False

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ConfigError("beta must lie in (0, 1]")
        if not (0.0 < self.eps < 1.0):
            raise ConfigError("eps must lie in (0, 1)")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta must lie in (0, 1)")
        if self.rounds is not None and self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.per_round_m is not None and self.per_round_m < 1:
            raise ConfigError("per_round_m must be >= 1")

    @property
    def rounds_resolved(self) -> int:
        if self.rounds is not None:
            return self.rounds
        return math.ceil(math.log(2.0 / self.eps) / self.beta)

    @property
    def per_round_m_resolved(self) -> int:
        if self.per_round_m is not None:
            return self.per_round_m
        T = self.rounds_resolved
        return max(self.learner_m, math.ceil(4.0 * math.log(2.0 * T / self.delta)))

    @property
    def budget_per_draw_resolved(self) -> int:
        return math.ceil(4.0 / self.eps)


def _round_radius(cfg: BoostConfig, U: LpBall, t: int) -> LpBall:
    if not cfg.multi_granularity:
        return U
    return LpBall(U.p, U.gamma / (2.0 ** (t - 1)))


def beta_roboost(source, barely_learner, cfg: BoostConfig, U: LpBall):
    """Round t trains on samples where all earlier models are unstable, then
    wraps each model in an abstaining stage at its round's radius.

    Round 1 trains on the raw source. Sampling that comes up empty (budget
    exceeded, or a finite source running dry after round 1) ends the loop
    early; the cascade then has fewer stages, with the last trained model as
    fallback. Returns the cascade and one (beta_hat, sample_size) per trained
    round, beta_hat being the fraction of the round's sample that the round's
    model holds at twice the radius; fewer than cfg.rounds_resolved pairs
    means the loop stopped early.
    """
    T = cfg.rounds_resolved
    m = cfg.per_round_m_resolved
    budget = cfg.budget_per_draw_resolved
    models, specs, rounds = [], [], []
    for t in range(1, T + 1):
        ball_t = _round_radius(cfg, U, t)
        if t == 1:
            round_data = source(m)
        else:
            try:
                round_data = rejection_sample(source, models, m, budget, U, specs=specs)
            except SourceExhausted:
                round_data = None
            if round_data is None:
                break
        h_t = barely_learner(round_data)
        models.append(h_t)
        specs.append(ball_t)
        held = int(np.sum(robust_losses(h_t, round_data, inverse_blowup(ball_t)) == 0))
        rounds.append((held / round_data.n, round_data.n))
    stages = [SelectiveClassifier(h, s) for h, s in zip(models, specs)]
    return Cascade(stages, fallback=models[-1]), rounds


def beta_uroboost(labeled: Dataset, unlabeled_source, learner, cfg: BoostConfig, U: LpBall):
    """Pseudo-label an unlabeled source with a model trained on the labeled
    seed set, then boost as usual, returning what beta_roboost returns. An
    empty unlabeled source degenerates to a single abstaining stage around
    the seed model, with no trained round."""
    h_hat = learner(labeled)

    def pseudo_source(k: int) -> Dataset:
        batch = unlabeled_source(k)
        return Dataset(batch.X, h_hat.predict_batch(batch.X))

    try:
        return beta_roboost(pseudo_source, learner, cfg, U)
    except SourceExhausted:
        return Cascade([SelectiveClassifier(h_hat, U)], fallback=h_hat), []


# ---------------------------------------------------------------------------
# alpha-Boost and sparsification
# ---------------------------------------------------------------------------


def _distinct(models) -> list:
    """(model, count) of each distinct model object in the list, in order of
    first appearance: a vote whose members repeat evaluates each once."""
    counts = Counter(map(id, models))
    return [(m, counts[key]) for key, m in {id(m): m for m in models}.items()]


class MajorityVote:
    """Unweighted vote over ±1 predictors; exact ties go to +1. Each distinct
    member is evaluated once and counted as often as it appears; the sums are
    integers, exact in float64, so the vote is the member-by-member one."""

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ConfigError("need at least one model")
        self.models = models

    def predict_batch(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        total = np.zeros(Z.shape[0])
        for m, count in _distinct(self.models):
            total = total + count * m.predict_batch(Z)
        return np.where(total >= 0, 1, -1).astype(np.int64)


@dataclass
class AlphaBoostConfig:
    alpha: float | None = None  # None means 1/8, or the agreement-mode pairing with T
    rounds: int | None = None  # None means ceil(1 + 48 ln m), or ceil(112 ln m) in agreement mode
    delta: float = 0.05
    agreement_mode: bool = False  # alternative (T, alpha) pairing with the 5/9 agreement floor
    early_stop: bool = False  # break once the running majority has zero loss on the data

    def __post_init__(self):
        if self.alpha is not None and not (0.0 < self.alpha < math.inf):
            raise ConfigError("alpha must be positive and finite")
        if self.rounds is not None and not (self.rounds >= 1):
            raise ConfigError("rounds must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta must lie in (0, 1)")

    def resolved(self, m: int) -> tuple[float, int]:
        ln_m = math.log(max(m, 2))
        if self.agreement_mode:
            T = self.rounds or math.ceil(112.0 * ln_m)
            return self.alpha or 0.5 * math.log(1.0 + math.sqrt(2.0 * ln_m / T)), T
        return self.alpha or 0.125, self.rounds or math.ceil(1.0 + 48.0 * ln_m)


def alpha_boost(data: Dataset, weak_learner, cfg: AlphaBoostConfig, U=None):
    """Multiplicative-weights boosting of a weak (robust) learner.

    Examples the round's model holds (loss 0, robust when U is given) are
    downweighted by e^{-2 alpha}; the weak learner must reach weighted error
    <= 1/3 within ceil(ln(2T/delta)) attempts per round. A weak learner may
    raise WeakLearnerFailed to give up an attempt; a round whose attempts all
    fail raises WeakLearnerFailed. Returns the model list, their unweighted
    majority vote, and the weighted error of each round's model.

    The weak learner is called for every attempt of every round, even when
    the weights repeat, as a stateful learner may answer differently; a
    caller whose learner is deterministic may wrap it in reuse_fits.
    """
    m = data.n
    if m == 0:
        raise ConfigError("cannot boost on an empty dataset")
    alpha, T = cfg.resolved(m)
    retries = max(1, math.ceil(math.log(2.0 * T / cfg.delta)))
    D = np.full(m, 1.0 / m)
    models = []
    errors = []
    for _ in range(T):
        for _attempt in range(retries):
            try:
                h = weak_learner(WeightedDataset(data, D))
            except WeakLearnerFailed:
                continue
            losses = robust_losses(h, data, U).astype(float)
            err = float(D @ losses)
            if err <= 1.0 / 3.0:
                break
        else:
            raise WeakLearnerFailed(
                f"weighted error stayed above 1/3 for {retries} attempts"
            )
        models.append(h)
        errors.append(err)
        D = D * np.where(losses == 0.0, math.exp(-2.0 * alpha), 1.0)
        D = D / D.sum()
        if cfg.early_stop and _zero_loss(MajorityVote(models), data, U):
            break
    return models, MajorityVote(models), errors


def vote_agreement(models, data: Dataset, U=None) -> np.ndarray:
    """Per-example fraction of models with zero (robust) loss; a model that
    appears more than once is evaluated once (see _distinct)."""
    agree = np.zeros(data.n)
    for h, count in _distinct(models):
        agree += count * (1.0 - robust_losses(h, data, U))
    return agree / len(models)


def _zero_loss(predictor, data: Dataset, U) -> bool:
    return not robust_losses(predictor, data, U).any()


def sparsify_majority(models, check_data: Dataset, N: int = 25, seed: int = 0, U=None, retry_limit: int = 100):
    """Uniform with-replacement subsample of N vote members that still has
    zero (robust) loss on check_data; redraws until one does."""
    models = list(models)
    if isinstance(U, LpBall) and U.gamma > 0:
        raise Unsupported("majority votes over a ball need a finite perturbation set")
    if not _zero_loss(MajorityVote(models), check_data, U):
        raise ConfigError("the full majority must have zero loss on check_data")
    rng = substream(seed, "sparsify")
    for _ in range(retry_limit):
        idx = rng.integers(0, len(models), size=N)
        sub = [models[i] for i in idx]
        if _zero_loss(MajorityVote(sub), check_data, U):
            return sub
    raise RetryLimit(f"no zero-loss subsample of size {N} in {retry_limit} attempts")


# ---------------------------------------------------------------------------
# strong robustness -> barely robust (one-sided expansion)
# ---------------------------------------------------------------------------


class ExpandedPredictor:
    """g_y: predicts y on the blowup of the region the base model labels y
    robustly; for a halfspace this is y * margin(x) > -gamma."""

    def __init__(self, model: LinearModel, ball: LpBall, y: int):
        if y not in (1, -1):
            raise ConfigError("expansion label must be +1 or -1")
        self.model = model
        self.ball = ball
        self.y = y

    def predict_batch(self, Z) -> np.ndarray:
        m = margins_batch(self.model, Z, self.ball.p)
        return np.where(self.y * m > -self.ball.gamma, self.y, -self.y).astype(np.int64)


def expand_g(h_hat: LinearModel, U: LpBall, y: int) -> ExpandedPredictor:
    return ExpandedPredictor(h_hat, U, y)


def strong_to_barely(h_hat: LinearModel, source, U: LpBall, delta: float = 0.05, m_tilde: int | None = None, budget_per_draw: int = 1000):
    """Estimate which label dominates the robust region of h_hat from
    m_tilde = ceil((64/9) ln(1/delta)) samples of that region, then return
    the matching one-sided expansion."""
    if m_tilde is None:
        m_tilde = math.ceil(64.0 / 9.0 * math.log(1.0 / delta))
    got = _accept(source, _doubled_stages([h_hat], [U]), m_tilde, budget_per_draw, abstained=False)
    if got is None:
        raise SourceExhausted("robust region of the base model is too rare to sample")
    m_plus = np.mean(np.array(got[1]) == 1)
    return expand_g(h_hat, U, 1 if m_plus >= 0.5 else -1)
