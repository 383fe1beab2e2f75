"""Base learners consumed by the boosting and reduction loops.

erm_linear is the workhorse: weighted hinge subgradient descent, deterministic
for a fixed input, adequate as an approximate ERM oracle. pool_erm is the
exact counterpart over a finite candidate list and is what invariant tests use
when exactness matters. The two mirror-descent trainers tolerate random label
flips: one minimizes a reweighted-slope margin surrogate, the other the
integral loss of a monotone link function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import glm_link_u, rcn_phi  # noqa: F401  (re-exported)
from .core import Dataset, LinearModel, LpBall, as_vector, decision_values, robust_losses
from .data import substream
from .errors import (AllZeroWeights, ConfigError, EmptyDataset, EmptyPool, InvalidNorm, TrainingDiverged,
                     ZeroPerceptron)


class WeightedDataset:
    """Samples with non-negative real weights; the currency of boosting loops."""

    def __init__(self, data: Dataset, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (data.n,):
            raise ConfigError("one weight per sample required")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ConfigError("weights must be finite and non-negative")
        self.data = data
        self.weights = weights

    @classmethod
    def uniform(cls, data: Dataset) -> "WeightedDataset":
        return cls(data, np.full(data.n, 1.0 / max(data.n, 1)))

    @property
    def total(self) -> float:
        return float(self.weights.sum())


@dataclass
class ErmConfig:
    epochs: int = 300
    lr0: float = 0.5
    reg: float = 1e-4
    fit_bias: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (0.0 <= self.reg < math.inf):
            raise ConfigError("regularization must be non-negative and finite")


def _nonzero_or_fallback(w: np.ndarray, fallback_dir: np.ndarray) -> np.ndarray:
    if np.any(w):
        return w
    if np.any(fallback_dir):
        return fallback_dir.copy()
    e1 = np.zeros(w.shape[0])
    e1[0] = 1.0
    return e1


def erm_linear(wdata: WeightedDataset, cfg: ErmConfig | None = None) -> LinearModel:
    """Approximate weighted ERM for halfspaces via hinge subgradient descent.

    Deterministic: the default path uses no randomness at all, so identical
    inputs give identical models, and it reads nothing of wdata beyond
    wdata.data and the normalized weights wdata.weights / wdata.total. A
    caller that asks again with the same problem may therefore reuse the fit;
    reuse_fits does that. The returned weights are never all zero; on
    perfectly antisymmetric data where the subgradient vanishes at the
    origin, a fixed fallback direction is used.
    """
    cfg = cfg or ErmConfig()
    total = wdata.total
    if total <= 0.0:
        # covers the empty dataset too: no rows means no positive weight
        raise AllZeroWeights("training needs at least one positive weight")
    sw = wdata.weights / total
    X = np.ascontiguousarray(wdata.data.X)
    yf = wdata.data.y.astype(float)
    w, b = _kernels.hinge_train(X, yf, sw, cfg.epochs, cfg.lr0, cfg.reg, cfg.fit_bias)
    b = b if cfg.fit_bias else 0.0
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise TrainingDiverged("hinge descent ended with non-finite weights: "
                               "a step overflowed on features this large")
    w = _nonzero_or_fallback(np.asarray(w), X.T @ (yf * sw))
    return LinearModel(w, b)


def reuse_fits(erm):
    """The learner wd -> erm(wd), which trains each distinct weighted problem
    once: asked again with the same data object and the same normalized
    weights wd.weights / wd.total bit for bit, it returns the stored model (a
    frozen LinearModel for erm_linear). Exact for a deterministic erm that
    reads only wd.data and the normalized weights, as erm_linear does.

    It keeps the fits of the last two distinct weight vectors and forgets
    them all when the data object changes, so it holds at most 2 n floats of
    keys. Two because once every row holds, alpha_boost only rescales its
    weights, and their rounding can cycle: on 400 rows of band data it
    repeats three vectors, which normalize to A, A, B, so two entries hold
    every distinct problem.
    """
    data, fits = None, {}  # normalized weights' bytes -> model, least recently used first

    def fit(wd):
        nonlocal data, fits
        total = wd.total
        if total <= 0.0:
            return erm(wd)  # no distribution to key on; erm_linear refuses it
        if wd.data is not data:
            data, fits = wd.data, {}
        key = (wd.weights / total).tobytes()
        model = fits.pop(key) if key in fits else erm(wd)
        fits[key] = model
        if len(fits) > 2:
            del fits[next(iter(fits))]
        return model

    return fit


@dataclass
class SvmConfig:
    c_hinge: float = 1e-6  # LinearSVC-style C; regularization is 1/(2 C n)
    epochs: int = 400
    lr0: float | None = None
    fit_bias: bool = False
    p: float = 2.0  # perturbation norm the margins are normalized against


@dataclass
class SvmResult:
    model: LinearModel
    beta_hat: float


def svm_margin(data: Dataset, two_gamma: float, cfg: SvmConfig | None = None) -> SvmResult:
    """Hinge-trained halfspace with its achieved robust fraction at radius
    two_gamma: beta_hat = fraction of training points with y*margin strictly
    above two_gamma (dual-normalized margin).

    The default c_hinge mirrors the tiny-C linear-SVM recipe, which at desk
    scales makes the minimizer track the class-mean direction.
    """
    cfg = cfg or SvmConfig()
    if data.n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    n = data.n
    reg = 1.0 / (2.0 * cfg.c_hinge * n)
    lr0 = cfg.lr0 if cfg.lr0 is not None else 1.0 / (2.0 * reg)
    sw = np.full(n, 1.0 / n)
    X = np.ascontiguousarray(data.X)
    yf = data.y.astype(float)
    w, b = _kernels.hinge_train(X, yf, sw, cfg.epochs, lr0, reg, cfg.fit_bias)
    w = _nonzero_or_fallback(np.asarray(w), X.T @ (yf * sw))
    model = LinearModel(w, b if cfg.fit_bias else 0.0)
    beta_hat = float(np.mean(robust_losses(model, data, LpBall(cfg.p, two_gamma)) == 0))
    return SvmResult(model, beta_hat)


def pool_erm(pool, wdata: WeightedDataset) -> LinearModel:
    """Exact weighted 0-1 ERM over a finite candidate pool, lowest index wins ties."""
    pool = list(pool)
    if not pool:
        raise EmptyPool("candidate pool must be non-empty")
    if wdata.total <= 0.0:
        raise AllZeroWeights("training needs at least one positive weight")
    best, best_err = None, math.inf
    for cand in pool:
        wrong = cand.predict_batch(wdata.data.X) != wdata.data.y
        err = float(wdata.weights[wrong].sum())
        if err < best_err:
            best, best_err = cand, err
    return best


def make_pool_erm(pool):
    pool = list(pool)
    return lambda wdata: pool_erm(pool, wdata)


# ---------------------------------------------------------------------------
# online perceptron
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerceptronState:
    w: np.ndarray
    mistakes: int = 0

    def predict(self, z) -> int:
        return 1 if decision_values(z, self.w) >= 0.0 else -1

    def update(self, z, y: int) -> "PerceptronState":
        return perceptron_update(self, z, y)


def perceptron_init(d: int) -> PerceptronState:
    return PerceptronState(np.zeros(d), 0)


def perceptron_update(state: PerceptronState, z, y: int) -> PerceptronState:
    """Conservative update: returns the state unchanged on a correct
    prediction, otherwise w + y z with the mistake counter bumped."""
    z = as_vector(z)
    if state.predict(z) == y:
        return state
    return PerceptronState(state.w + y * z, state.mistakes + 1)


def perceptron_model(state: PerceptronState) -> LinearModel:
    """The state's halfspace; ZeroPerceptron when its weights are all zero."""
    if not np.any(state.w):
        cause = ("it made no update, and the zero state predicts +1 everywhere, so no row "
                 "labeled -1 was reached" if state.mistakes == 0
                 else f"its {state.mistakes} updates cancelled out")
        raise ZeroPerceptron(f"the perceptron ended with all-zero weights: {cause}")
    return LinearModel(state.w.copy())


# ---------------------------------------------------------------------------
# noise-tolerant trainers
# ---------------------------------------------------------------------------


def rcn_lambda(eps: float, gamma: float, eta: float) -> float:
    """Surrogate slope mix (eps*gamma/2 + eta) / (1 + eps*gamma); always lands
    in [eta, 1/2] for eta < 1/2."""
    if not (0.0 < eps < 1.0):
        raise ConfigError("eps must lie in (0, 1)")
    if not (0.0 < gamma < math.inf):
        raise ConfigError("gamma must be positive and finite")
    if not (0.0 <= eta < 0.5):
        raise ConfigError("eta must lie in [0, 0.5)")
    return (eps * gamma / 2.0 + eta) / (1.0 + eps * gamma)


def mirror_step(w: np.ndarray, g: np.ndarray, step: float, q: float) -> np.ndarray:
    """One mirror-descent step under the half-squared-q-norm potential (q > 1),
    then the exact Bregman projection onto the unit q-ball (radial rescale)."""
    if not 1.0 < q < math.inf:
        raise InvalidNorm(f"mirror_step requires 1 < q < inf, got {q}; q = 1 uses the simplex embedding")
    w = as_vector(w)
    sg = as_vector(step * np.asarray(g, dtype=float))
    if sg.shape != w.shape:
        raise ConfigError(f"gradient has {sg.shape[0]} entries, w has {w.shape[0]}")
    return _kernels._q_ball_step(w, sg, q, q / (q - 1.0))


@dataclass
class RcnConfig:
    gamma: float
    eta: float
    eps: float = 0.05
    q: float = 2.0
    steps: int | None = None  # None means 2n draws with replacement
    rng_seed: int = 0

    def __post_init__(self):
        if not 1.0 <= self.q < math.inf:
            raise InvalidNorm(f"q must lie in [1, inf), got {self.q}")
        if self.steps is not None and self.steps < 1:
            raise ConfigError("steps must be >= 1")
        rcn_lambda(self.eps, self.gamma, self.eta)  # checks eps, gamma and eta

    @property
    def lam(self) -> float:
        return rcn_lambda(self.eps, self.gamma, self.eta)


def rcn_train_md(data: Dataset, cfg: RcnConfig) -> LinearModel:
    """Stochastic mirror descent on the flip-tolerant margin surrogate,
    constrained to the unit q-ball; returns the averaged iterate.

    The caller provides label-noisy data with ||x||_p <= 1; sampling is with
    replacement from the dataset, seeded.
    """
    if data.n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    steps = cfg.steps if cfg.steps is not None else 2 * data.n
    idx = substream(cfg.rng_seed, "rcn-md").integers(0, data.n, size=steps)
    X = np.ascontiguousarray(data.X)
    yf = data.y.astype(float)
    w = _kernels.md_rcn(X, yf, cfg.gamma, cfg.lam, float(cfg.q), idx)
    w = _nonzero_or_fallback(np.asarray(w), X.T @ yf)
    return LinearModel(w)


def glm_loss(w: np.ndarray, x: np.ndarray, y01: float, eta: float, gamma: float) -> float:
    """Integral loss: antiderivative of the link at <w, x> minus y01 <w, x>.

    Piecewise quadratic; its gradient in w is (u(<w,x>) - y01) x.
    """
    s = float(np.asarray(w, dtype=float) @ np.asarray(x, dtype=float))
    slope = (1.0 - 2.0 * eta) / (2.0 * gamma)
    if -gamma <= s <= gamma:
        A = slope * s * s / 2.0 + s / 2.0
    elif s > gamma:
        A_g = slope * gamma * gamma / 2.0 + gamma / 2.0
        A = A_g + (1.0 - eta) * (s - gamma)
    else:
        A_mg = slope * gamma * gamma / 2.0 - gamma / 2.0
        A = A_mg + eta * (s + gamma)
    return A - y01 * s


@dataclass
class GlmConfig:
    gamma: float
    eta: float
    q: float = 2.0
    steps: int | None = None
    lr0: float | None = None  # None means 2 gamma / (1 - 2 eta)
    rng_seed: int = 0

    def __post_init__(self):
        if not 1.0 <= self.q < math.inf:
            raise InvalidNorm(f"q must lie in [1, inf), got {self.q}")
        if not (0.0 <= self.eta < 0.5):
            raise ConfigError("eta must lie in [0, 0.5)")
        if not (0.0 < self.gamma < math.inf):
            raise ConfigError("gamma must be positive and finite")
        if self.steps is not None and self.steps < 1:
            raise ConfigError("steps must be >= 1")


def glm_train(data: Dataset, cfg: GlmConfig) -> LinearModel:
    """Mirror descent on the link-integral loss; labels are mapped to {0,1}
    internally. Same constraint set and averaging as rcn_train_md."""
    if data.n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    steps = cfg.steps if cfg.steps is not None else 2 * data.n
    lr0 = cfg.lr0 if cfg.lr0 is not None else 2.0 * cfg.gamma / (1.0 - 2.0 * cfg.eta)
    idx = substream(cfg.rng_seed, "glm-md").integers(0, data.n, size=steps)
    X = np.ascontiguousarray(data.X)
    y01 = (data.y.astype(float) + 1.0) / 2.0
    w = _kernels.md_glm(X, y01, cfg.gamma, cfg.eta, float(cfg.q), lr0, idx)
    w = _nonzero_or_fallback(np.asarray(w), X.T @ data.y.astype(float))
    return LinearModel(w)
