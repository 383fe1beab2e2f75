"""Transductive selective classification: learn where to stay silent.

rejectron trains a base hypothesis, then repeatedly hunts for a discriminator
that disagrees with it on many still-selected test points but on few training
points; such a discriminator marks a region where the test distribution has
drifted, and the selection set shrinks away from it. urejectron does the same
without labels by finding pairs of classifiers that agree on the training
points but split the test points. transductive_pool is the finite-pool
variant that picks a single hypothesis by its two-sided stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boosting import SelectiveClassifier, selective_labels
from .core import (
    Dataset,
    FiniteOffsets,
    LinearModel,
    LpBall,
    as_vector,
    robust_risk,
)
from .data import fmt_float, parse_float, read_text, write_text
from .errors import ConfigError, EmptyDataset, EmptyPool, NoRealizableMember, ParseError, Unsupported
from .learners import ErmConfig, WeightedDataset, erm_linear


@dataclass(frozen=True)
class ConstantModel:
    """Always answers the same label; the degenerate half of a T=1 pair."""

    label: int = 1

    def __post_init__(self):
        if self.label not in (1, -1):
            raise ConfigError("label must be +1 or -1")

    def predict(self, x) -> int:
        return self.label

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.full(X.shape[0], self.label, dtype=np.int64)


@dataclass(frozen=True)
class RedactConfig:
    eps: float
    weight: float | None = None  # None means n + 1, the realizable choice

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ConfigError("eps must lie in (0, 1]")
        if self.weight is not None and not (self.weight >= 1.0):
            raise ConfigError("the training weight must be at least 1")
        if self.weight == math.inf:  # inf * 0 would score agreeing pairs nan
            raise ConfigError("the training weight must be finite")

    def resolved_weight(self, n_train: int) -> float:
        return float(self.weight) if self.weight is not None else float(n_train + 1)


_MODES = ("rejectron", "urejectron")  # the selection-set kinds


@dataclass(frozen=True)
class SelectionSet:
    """Region kept for prediction. Rejectron keeps x while every stored
    discriminator agrees with the base model there; the unsupervised variant
    keeps x while every stored pair agrees with itself."""

    mode: str
    members: tuple
    base: LinearModel | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "rejectron" and self.base is None:
            raise ConfigError("rejectron selection sets carry their base model")
        object.__setattr__(self, "members", tuple(self.members))


def select_members(S: SelectionSet, X) -> np.ndarray:
    """Boolean mask of the rows of X that the selection set keeps."""
    X = np.asarray(X, dtype=float)
    keep = np.ones(X.shape[0], dtype=bool)
    if S.mode == "rejectron":
        hx = S.base.predict_batch(X)
        for c in S.members:
            keep &= c.predict_batch(X) == hx
    else:
        for c, c2 in S.members:
            keep &= c.predict_batch(X) == c2.predict_batch(X)
    return keep


def select_member(S: SelectionSet, x) -> bool:
    return bool(select_members(S, as_vector(x)[None, :])[0])


def _as_points(points, d: int = 0) -> np.ndarray:
    """Points as rows; an empty list is the (0, d) block."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(0, d) if pts.size == 0 else pts.reshape(1, -1)
    return pts


def rejectron(train: Dataset, test_points, cfg: RedactConfig, erm=None):
    """Iteratively redact test regions where some hypothesis can disagree
    with the base model cheaply on test but barely on train.

    Each round fits a discriminator on the artificial mixture: training
    points labeled by the base model with weight Lambda / n each, selected
    test points with the flipped label and weight 1 / n_test each. The round
    score err_test(disagreement on selected) - Lambda * err_train(disagreement)
    stopping when it drops to eps. Runs at most floor(1 / eps) rounds, and
    every completed round removes strictly more than eps * n_test points.
    Returns the base model, the selection set (one member per completed
    round) and the score of every round run.
    """
    if erm is None:
        erm = erm_linear
    tests = _as_points(test_points, train.d)
    n, n_test = train.n, tests.shape[0]
    lam = cfg.resolved_weight(n)
    h = erm(WeightedDataset.uniform(train))
    train_pred = h.predict_batch(train.X)
    selected = np.ones(n_test, dtype=bool)
    members = []
    scores = []
    max_rounds = int(math.floor(1.0 / cfg.eps))
    for _ in range(max_rounds):
        if n_test == 0 or not selected.any():
            break
        sel_idx = np.nonzero(selected)[0]
        X_art = np.concatenate([train.X, tests[sel_idx]])
        y_art = np.concatenate([train_pred, -h.predict_batch(tests[sel_idx])])
        w_art = np.concatenate(
            [np.full(n, lam / n), np.full(sel_idx.size, 1.0 / n_test)]
        )
        c = erm(WeightedDataset(Dataset(X_art, y_art), w_art))
        c_test = c.predict_batch(tests)
        c_train = c.predict_batch(train.X)
        disagree_sel = selected & (c_test != h.predict_batch(tests))
        err_test = disagree_sel.sum() / n_test
        err_train = float(np.mean(c_train != train_pred))
        s = err_test - lam * err_train
        scores.append(float(s))
        if s <= cfg.eps:  # s <= err_test, so a kept round redacts > eps * n_test rows
            break
        members.append(c)
        selected = selected & ~disagree_sel
    return h, SelectionSet("rejectron", members, base=h, eps=cfg.eps), scores


# ---------------------------------------------------------------------------
# unsupervised variant
# ---------------------------------------------------------------------------


@dataclass
class FinitePoolPairs:
    """Exhaustive pairwise search over a candidate pool; the maximizing pair
    is the lexicographically first among ties."""

    pool: list

    def __post_init__(self):
        self.pool = list(self.pool)
        if not self.pool:
            raise EmptyPool("candidate pool must be non-empty")


@dataclass
class DistinguisherT1:
    """Single-round practical mode: one classifier trained to tell train from
    test, thresholded; the selection set keeps points scored train-like."""

    cfg: ErmConfig = field(default_factory=lambda: ErmConfig(fit_bias=True))


def _tradeoff_rows(train_scores, test_scores) -> list:
    """Each test score as a threshold, after one below every score, with the share of each
    sample scored below it, counted in one sort: a nan is below nothing and has nothing below it."""
    grid = np.concatenate([[min(test_scores.min(), train_scores.min()) - 1.0], np.sort(test_scores)])
    below = [(np.where(np.isnan(grid), 0, np.searchsorted(np.sort(s), grid)) / s.size).tolist()
             for s in (train_scores, test_scores)]
    return [{"threshold": t, "rej_train": a, "rej_test": b} for t, a, b in zip(grid.tolist(), *below)]


def urejectron(train_points, test_points, cfg: RedactConfig, backend):
    """Label-free redaction, returning (selection set, scores, tradeoff).
    With a finite pool, iterate the best agree-on-train / split-on-test pair
    until its score falls to eps; the scores are the rounds' best scores and
    the tradeoff is empty. In the single-round mode, fit one train-vs-test
    separator and keep everything on the train side of a threshold; the
    scores are the test rows' separator scores and the tradeoff is the
    threshold sweep over them (_tradeoff_rows).
    """
    train = _as_points(train_points)
    tests = _as_points(test_points, train.shape[1])
    n, n_test = train.shape[0], tests.shape[0]
    lam = cfg.resolved_weight(n)
    if isinstance(backend, FinitePoolPairs):
        pool = backend.pool
        preds_train = [c.predict_batch(train) for c in pool]
        preds_test = [c.predict_batch(tests) for c in pool]
        # (i, j, test rows the pair splits, its training penalty) in search order
        table = [(i, j, preds_test[i] != preds_test[j],
                  lam * (float(np.mean(preds_train[i] != preds_train[j])) if n else 0.0))
                 for i in range(len(pool)) for j in range(i + 1, len(pool))]
        selected = np.ones(n_test, dtype=bool)
        members = []
        scores = []
        for _ in range(int(math.floor(1.0 / cfg.eps))):
            if n_test == 0 or not selected.any():
                break
            best = None
            for i, j, differs, penalty in table:
                split = selected & differs
                s = split.sum() / n_test - penalty
                if best is None or s > best[0]:
                    best = (s, i, j, split)
            if best is None or best[0] <= cfg.eps:
                if best is not None:
                    scores.append(float(best[0]))
                break
            s, i, j, split = best
            scores.append(float(s))
            members.append((pool[i], pool[j]))
            selected = selected & ~split
        return SelectionSet("urejectron", members, eps=cfg.eps), scores, []
    if isinstance(backend, DistinguisherT1):
        if not (n and n_test):
            raise EmptyDataset("the t1 mode needs at least one training and one test point")
        X = np.concatenate([train, tests])
        y = np.concatenate([np.ones(n), -np.ones(n_test)]).astype(np.int64)
        d = erm_linear(WeightedDataset.uniform(Dataset(X, y)), backend.cfg)
        train_scores = d.decisions(train)
        tau_star = float(train_scores.min())  # keeps every training point
        # the member recomputes the score in a different association order, so
        # back the threshold off by a relative ulp or the argmin point can drop
        tau_star -= 1e-9 * (1.0 + abs(tau_star))
        shifted = LinearModel(d.w, d.bias - tau_star)
        test_scores = d.decisions(tests)
        return (SelectionSet("urejectron", [(shifted, ConstantModel(1))], eps=cfg.eps),
                test_scores, _tradeoff_rows(train_scores, test_scores))
    raise Unsupported(f"unknown backend {type(backend).__name__}")


def lambda_star(eta: float, n: int, d_proxy: int, delta: float) -> tuple[float, float]:
    """Agnostic parameter pair: the generalization radius eps* and the
    training weight 1 / sqrt(8 eta + eps*^2) it implies."""
    if not (0.0 <= eta < 1.0):
        raise ConfigError("eta must lie in [0, 1)")
    if n < 1:
        raise ConfigError("n must be >= 1")
    eps_star = 4.0 * math.sqrt((d_proxy * math.log(2.0 * n) + math.log(48.0 / delta)) / n)
    lam_star = math.sqrt(1.0 / (8.0 * eta + eps_star ** 2))
    return eps_star, lam_star


def massart_denoise_rejectron(extra_noisy: Dataset, heldout: Dataset, test_points,
                              cfg: RedactConfig, erm=None):
    """Fit on the large noisy sample, relabel the held-out set with that fit,
    then run the usual redaction on the cleaned labels; returns what
    rejectron returns."""
    if erm is None:
        erm = erm_linear
    h_hat = erm(WeightedDataset.uniform(extra_noisy))
    relabeled = Dataset(heldout.X, h_hat.predict_batch(heldout.X))
    return rejectron(relabeled, test_points, cfg, erm=erm)


# ---------------------------------------------------------------------------
# finite-pool transductive selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolHypotheses:
    models: tuple

    def __post_init__(self):
        models = tuple(self.models)
        if not models:
            raise EmptyPool("hypothesis pool must be non-empty")
        object.__setattr__(self, "models", models)


def _preimage_risks(h: LinearModel, train: Dataset, tests: np.ndarray, U) -> tuple[float, float]:
    # labeled: some preimage x - u is misclassified; unlabeled: the
    # preimages disagree, i.e. h abstains as a selective classifier over U
    if isinstance(U, LpBall):
        pre = U
    elif isinstance(U, FiniteOffsets):
        pre = FiniteOffsets(-U.offsets)
    else:
        raise Unsupported("preimage risks need a ball or a shared offset set")
    r_lab = robust_risk(h, train, pre)
    if tests.shape[0] == 0:
        return r_lab, 0.0
    return r_lab, float(np.mean(selective_labels(SelectiveClassifier(h, U), tests) == 0))


def transductive_pool(pool: PoolHypotheses, train: Dataset, test_points, U,
                      mode: str = "realizable"):
    """Pick the pool member whose predictions are stable on the preimages of
    both samples. Realizable mode demands both risks be exactly zero;
    agnostic mode minimizes the larger of the two (lowest index on ties).
    Returns the chosen model, its labels for the test points, and every
    member's (labeled, unlabeled) risk pair."""
    tests = _as_points(test_points, train.d)
    if mode not in ("realizable", "agnostic"):
        raise ConfigError(f"unknown mode {mode!r}")
    scores = [_preimage_risks(h, train, tests, U) for h in pool.models]
    if mode == "realizable":
        for h, (r_lab, r_unl) in zip(pool.models, scores):
            if r_lab == 0.0 and r_unl == 0.0:
                return h, h.predict_batch(tests), scores
        raise NoRealizableMember("no pool member is stable on both samples")
    best_i = min(range(len(scores)), key=lambda i: max(scores[i]))
    h = pool.models[best_i]
    return h, h.predict_batch(tests), scores


# ---------------------------------------------------------------------------
# selection-set serialization
# ---------------------------------------------------------------------------


def _model_token(m) -> str:
    if isinstance(m, ConstantModel):
        return f"const {m.label:+d}"
    return "linear " + fmt_float(m.bias) + " " + " ".join(fmt_float(v) for v in m.w)


def _parse_model_token(fields: list, path: str, row: int, col: int):
    """The model a selection file writes as fields, the first at column col."""
    kind, *vals = fields or [""]
    nums = [parse_float(t, row, j) for j, t in enumerate(vals, col + 1)]
    if kind == "const" and nums in ([1.0], [-1.0]):
        return ConstantModel(int(nums[0]))
    if kind == "linear" and any(nums[1:]):
        return LinearModel(np.array(nums[1:]), nums[0])
    raise ParseError(f"{path}: not 'const <+1 or -1>' or 'linear <bias> <weights not all zero>': "
                     f"{' '.join(fields)!r}", row=row, col=col)


def save_selection(path: str, S: SelectionSet) -> None:
    lines = ["selection-set v1", f"mode: {S.mode}"]
    if S.eps is not None:
        lines.append("eps: " + fmt_float(S.eps))
    if S.base is not None:
        lines.append("base: " + _model_token(S.base))
    for member in S.members:
        if S.mode == "rejectron":
            lines.append("c: " + _model_token(member))
        else:
            lines.append("pair: " + _model_token(member[0]) + " | " + _model_token(member[1]))
    write_text(path, "\n".join(lines) + "\n")


def load_selection(path: str) -> SelectionSet:
    lines = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    if not lines or lines[0] != "selection-set v1":
        raise ParseError(f"{path} is not a selection-set file", row=1, col=1)
    mode = eps = base = None
    members, first_row = [], {}
    for row, ln in enumerate(lines[1:], start=2):
        key, _, rest = ln.partition(":")
        first_row.setdefault(key, row)
        if key == "mode":
            mode = rest.strip()
            if mode not in _MODES:
                raise ParseError(f"{path}: unknown mode {mode!r}", row=row, col=2)
        elif key == "eps":
            eps = parse_float(rest.strip(), row, 2)
        elif key == "base":
            base = _parse_model_token(rest.split(), path, row, 2)
        elif key == "c":
            members.append(_parse_model_token(rest.split(), path, row, 2))
        elif key == "pair":
            left, _, right = (side.split() for side in rest.partition("|"))
            members.append((_parse_model_token(left, path, row, 2),
                            _parse_model_token(right, path, row, len(left) + 3)))
        else:
            raise ParseError(f"{path}: unrecognized line", row=row, col=1)
    if mode is None:
        raise ParseError(f"{path}: missing mode line", row=1, col=1)
    other = "pair" if mode == "rejectron" else "c"  # the other mode's member line
    if other in first_row:
        raise ParseError(f"{path}: a {other!r} line in a {mode} file", row=first_row[other], col=1)
    if mode == "rejectron" and base is None:
        raise ParseError(f"{path}: missing base line", row=1, col=1)
    return SelectionSet(mode, members, base=base, eps=eps)
