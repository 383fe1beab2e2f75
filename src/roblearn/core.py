"""Domain types and exact robust-loss evaluation for linear predictors.

Perturbation sets are closed lp balls or explicit finite point sets. For a
linear model and an lp ball the robust loss has a closed form: the attacker
wins iff the signed dual-normalized margin is at most the radius. Finite sets
are evaluated by enumeration against any predictor exposing .predict_batch.
Every loss is computed for a whole dataset at once by robust_losses, and
robust_loss asks it about one labeled point. Every decision value comes
from decision_values and every closed-form ball loss from ball_hits, so a row's
decision value and robust loss have the same bits alone or in any block, and a
boundary or NaN margin is a loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyDataset,
    InvalidNorm,
    MissingPerturbations,
    SizeLimit,
    Unsupported,
    ZeroWeight,
)

DEFAULT_INFLATE_CAP = 2_000_000


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ConfigError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError("vector entries must be finite")
    return v


def labeled_point(x, y) -> tuple[np.ndarray, int]:
    """(x, y) checked: x a finite 1-d vector, y a label -1 or +1."""
    if y not in (-1, 1):
        raise ConfigError(f"label must be -1 or +1, got {y}")
    return as_vector(x), int(y)


class Dataset:
    """Ordered labeled samples stored as an (n, d) matrix plus a label vector."""

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ConfigError(f"X must be 2-d, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ConfigError("label vector length must match row count")
        if not np.all(np.isfinite(X)):
            raise ConfigError("features must be finite")
        if X.shape[0] and not np.all(np.isin(y, (-1, 1))):
            raise ConfigError("labels must be -1 or +1")
        self.X = X
        self.y = y.astype(np.int64)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.X[idx], self.y[idx])


@dataclass(frozen=True)
class LinearModel:
    w: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", as_vector(self.w))
        object.__setattr__(self, "bias", float(self.bias))
        if not np.any(self.w):
            raise ZeroWeight("linear model weights must not be all zero")

    def decisions(self, X) -> np.ndarray:
        return decision_values(X, self.w, self.bias)

    def predict(self, x) -> int:
        return 1 if self.decisions(x) >= 0.0 else -1

    def predict_batch(self, X) -> np.ndarray:
        return np.where(self.decisions(X) >= 0.0, 1, -1)


@dataclass(frozen=True)
class LpBall:
    p: float
    gamma: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise InvalidNorm(f"p must be >= 1, got {self.p}")
        if not (self.gamma >= 0.0):
            raise ConfigError(f"radius must be non-negative, got {self.gamma}")


class FiniteOffsets:
    """Shared offset list applied to every example; must contain the zero offset."""

    def __init__(self, offsets):
        O = np.asarray(offsets, dtype=float)
        if O.ndim != 2:
            raise ConfigError("offsets must be a list of vectors")
        if not np.any(np.all(O == 0.0, axis=1)):
            raise ConfigError("offset list must include the zero vector")
        self.offsets = O

    @property
    def k(self) -> int:
        return self.offsets.shape[0]

    def points(self, x) -> np.ndarray:
        """(k, d) perturbed copies of a point, or (n, k, d) for an (n, d) matrix."""
        return np.asarray(x, dtype=float)[..., None, :] + self.offsets


class FinitePerExample:
    """Explicit perturbation points per example index; every listed set non-empty."""

    def __init__(self, table: dict):
        self.table = {}
        for i, pts in table.items():
            P = np.asarray(pts, dtype=float)
            if P.ndim != 2 or P.shape[0] == 0:
                raise ConfigError(f"perturbation list for index {i} must be non-empty 2-d")
            self.table[int(i)] = P

    def points(self, index: int) -> np.ndarray:
        if index is None or index not in self.table:
            raise MissingPerturbations(f"no perturbation list for example index {index}")
        return self.table[index]


PerturbationSpec = LpBall | FiniteOffsets | FinitePerExample


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; p in [1, inf]."""
    if not (p >= 1.0):
        raise InvalidNorm(f"p must be >= 1, got {p}")
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def lp_norm(v: np.ndarray, p: float) -> float:
    # np.sum/np.max's own ufunc reductions without their Python wrappers
    a = np.abs(np.asarray(v, dtype=float))
    if math.isinf(p):
        return float(np.maximum.reduce(a, axis=None)) if a.size else 0.0
    if p == 1.0:
        return float(np.add.reduce(a, axis=None))
    # factor out the peak so powers of tiny or huge entries cannot under/overflow
    peak = float(np.maximum.reduce(a, axis=None)) if a.size else 0.0
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    if p == 2.0:
        return peak * float(np.sqrt(np.add.reduce((a / peak) ** 2, axis=None)))
    return peak * float(np.add.reduce((a / peak) ** p, axis=None) ** (1.0 / p))


def dual_norm(w: np.ndarray, p: float) -> float:
    """||w||_q for the exponent dual to p."""
    return lp_norm(np.asarray(w, dtype=float), dual_exponent(p))


def dual_maximizer(w: np.ndarray, p: float) -> np.ndarray:
    """Unit-lp-norm direction v with <w, v> = ||w||_q.

    Ties are broken deterministically: sign(0) maps to +1 for p = inf, and the
    p = 1 case picks the lowest index among maximal |w_j|.
    """
    w = as_vector(w)
    q = dual_exponent(p)
    nq = lp_norm(w, q)
    if nq == 0.0:
        raise ZeroWeight("dual maximizer of the zero vector is undefined")
    if nq < 2.0**-1022:  # a subnormal norm has lost bits: scale w by an exact power of two
        w = w * 2.0**600
        nq = lp_norm(w, q)
    if p == 2.0:
        return w / nq
    if math.isinf(p):
        return np.where(w >= 0.0, 1.0, -1.0)
    if p == 1.0:
        j = int(np.argmax(np.abs(w)))
        v = np.zeros_like(w)
        v[j] = 1.0 if w[j] >= 0.0 else -1.0
        return v
    return np.sign(w) * (np.abs(w) / nq) ** (q / p)


def decision_values(X, w, bias: float = 0.0) -> np.ndarray:
    """<w, x> + bias for each row x of X (or X itself, one vector), with the bits of the
    one-row w @ x + bias whatever block or memory layout x arrives in, unlike X @ w."""
    return np.vecdot(np.ascontiguousarray(X, dtype=float), w) + bias


def margins_batch(model: LinearModel, X, p: float) -> np.ndarray:
    """(<w, x> + bias) / ||w||_q for each row x of X, the signed distance
    scale of Lemma-style margin analysis; q dual to p."""
    # a LinearModel's weights are finite and not all zero, so the norm is at
    # least their largest |entry| > 0
    return model.decisions(X) / dual_norm(model.w, p)


def ball_hits(model: LinearModel, X, y, ball: LpBall) -> np.ndarray:
    """The closed-form ball attack test per row: y * margin <= gamma, or a NaN margin."""
    return ~(y * margins_batch(model, X, ball.p) > ball.gamma)


def worst_case_point(model: LinearModel, x, y, ball: LpBall) -> np.ndarray:
    """The analytic attack point x - gamma * y * v, v the dual maximizer of w;
    x may also be an (n, d) matrix with y its label vector.

    Achieves the infimum of y * (<w, z> + bias) over the closed ball."""
    if ball.gamma == math.inf:
        raise ConfigError("an infinite radius has no finite worst-case point")
    v = dual_maximizer(model.w, ball.p)
    x = np.asarray(x, dtype=float)
    return (as_vector(x) if x.ndim == 1 else x) - ball.gamma * np.asarray(y)[..., None] * v


def robust_losses(predictor, data: Dataset, U: PerturbationSpec | None) -> np.ndarray:
    """Per-row 0/1 vector: 1 iff some allowed perturbation of the row is
    misclassified; U=None gives the plain 0-1 loss.

    LpBall has a closed form for a LinearModel (ball_hits: a boundary or NaN
    margin counts as loss) and otherwise needs the predictor's own
    robust_losses_lp; finite specs classify every listed point in one batch.
    """
    if U is None:
        return (predictor.predict_batch(data.X) != data.y).astype(np.int64)
    if isinstance(U, LpBall):
        if isinstance(predictor, LinearModel):
            return ball_hits(predictor, data.X, data.y, U).astype(np.int64)
        lp = getattr(predictor, "robust_losses_lp", None)
        if lp is None:
            raise Unsupported(
                f"ball robust loss has no closed form for {type(predictor).__name__}"
            )
        return lp(data, U)
    flat = inflate(data, U, cap=math.inf)
    wrong = predictor.predict_batch(flat.data.X) != flat.data.y
    return (np.bincount(flat.origins, weights=wrong, minlength=data.n) > 0).astype(np.int64)


def robust_loss(predictor, x, y, U: PerturbationSpec, index: int | None = None) -> int:
    """robust_losses of the one point x labeled y; a per-example table is read at `index`."""
    x, y = labeled_point(x, y)
    if isinstance(U, FinitePerExample):
        U = FinitePerExample({0: U.points(index)})
    return int(robust_losses(predictor, Dataset(x[None, :], [y]), U)[0])


def robust_risk(predictor, data: Dataset, U: PerturbationSpec | None) -> float:
    """Mean robust loss over the dataset."""
    if data.n == 0:
        raise EmptyDataset("robust risk needs at least one sample")
    return int(robust_losses(predictor, data, U).sum()) / data.n


def inverse_blowup(U: PerturbationSpec) -> PerturbationSpec:
    """The perturbation set of U-inverse-of-U: natural points sharing an
    allowed perturbation. A gamma ball doubles its radius; a finite offset set
    becomes the deduplicated difference set O + (-O)."""
    if isinstance(U, LpBall):
        return LpBall(U.p, 2.0 * U.gamma)
    if isinstance(U, FiniteOffsets):
        O = U.offsets
        diffs = (O[:, None, :] - O[None, :, :]).reshape(-1, O.shape[1])
        uniq = sorted({tuple(row) for row in diffs})
        return FiniteOffsets(np.array(uniq))
    raise Unsupported("no closed-form inverse blowup for per-example perturbation tables")


@dataclass
class InflatedDataset:
    data: Dataset
    origins: np.ndarray  # origins[j] = index of the example row j came from


def inflate(data: Dataset, U: PerturbationSpec, cap: int = DEFAULT_INFLATE_CAP) -> InflatedDataset:
    """Expand every example into its perturbation list, keeping origin tags.

    Output order is example-major, perturbation-minor."""
    if isinstance(U, FiniteOffsets):
        sizes = np.full(data.n, U.k, dtype=np.int64)
    elif isinstance(U, FinitePerExample):
        blocks = [U.points(i) for i in range(data.n)]
        sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)
    else:
        raise Unsupported("only finite perturbation specs can be inflated")
    total = int(sizes.sum())
    if total > cap:
        raise SizeLimit(f"inflated size {total} exceeds cap {cap}")
    if isinstance(U, FiniteOffsets):
        rows = U.points(data.X).reshape(total, data.d)
    else:
        rows = np.concatenate(blocks) if blocks else np.empty((0, data.d))
    origins = np.repeat(np.arange(data.n), sizes)
    return InflatedDataset(Dataset(rows, data.y[origins]), origins)
