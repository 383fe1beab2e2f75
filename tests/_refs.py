"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, on purpose: no calls into
roblearn's closed forms, so a bug there cannot hide a bug here.
"""

from __future__ import annotations

import math

import numpy as np


def dual_exponent_ref(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def norm_ref(v: np.ndarray, p: float) -> float:
    v = np.asarray(v, dtype=float)
    if math.isinf(p):
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def sign_ref(s: float) -> int:
    return 1 if s >= 0.0 else -1


def predict_ref(w, bias, z) -> int:
    return sign_ref(float(np.dot(w, z)) + bias)


def ball_samples(x: np.ndarray, p: float, gamma: float, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish cloud inside the closed lp ball of radius gamma around x."""
    d = x.shape[0]
    if math.isinf(p):
        offs = rng.uniform(-gamma, gamma, size=(count, d))
    elif p == 2.0:
        dirs = rng.standard_normal((count, d))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        radii = gamma * rng.random(count) ** (1.0 / d)
        offs = dirs * radii[:, None]
    elif p == 1.0:
        mags = rng.standard_exponential((count, d))
        mags /= np.maximum(mags.sum(axis=1, keepdims=True), 1e-300)
        signs = np.where(rng.random((count, d)) < 0.5, 1.0, -1.0)
        radii = gamma * rng.random(count) ** (1.0 / d)
        offs = signs * mags * radii[:, None]
    else:
        raise ValueError(f"unsupported exponent {p}")
    return x[None, :] + offs


def worst_point_ref(w: np.ndarray, x: np.ndarray, y: int, p: float, gamma: float) -> np.ndarray:
    """Minimizer of y * <w, z> over the closed ball, from the dual-norm
    equality case. Independent of the package's maximizer tie-breaks; any
    maximizer gives the same objective value."""
    w = np.asarray(w, dtype=float)
    if math.isinf(p):
        v = np.where(w >= 0.0, 1.0, -1.0)
    elif p == 2.0:
        n2 = float(np.linalg.norm(w))
        v = w / n2 if n2 > 0 else np.zeros_like(w)
    elif p == 1.0:
        v = np.zeros_like(w)
        if np.any(w != 0):
            j = int(np.argmax(np.abs(w)))
            v[j] = 1.0 if w[j] >= 0 else -1.0
    else:
        raise ValueError(f"unsupported exponent {p}")
    return x - gamma * y * v


def brute_ball_loss(w, bias: float, x, y: int, p: float, gamma: float,
                    count: int, rng: np.random.Generator) -> int:
    """1 iff any sampled ball point, or the analytic worst case, is classified
    against the label (boundary included since sign(0) = +1)."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    pts = ball_samples(x, p, gamma, count, rng)
    pts = np.vstack([pts, worst_point_ref(w, x, y, p, gamma)[None, :]])
    scores = pts @ w + bias
    preds = np.where(scores >= 0.0, 1, -1)
    return int(np.any(preds != y))


def brute_finite_loss(predict, points: np.ndarray, y: int) -> int:
    """Exhaustive check over an explicit perturbation list."""
    for row in np.asarray(points, dtype=float):
        if predict(row) != y:
            return 1
    return 0


def brute_margin_certified(w, bias: float, x, y: int, p: float, gamma: float) -> bool:
    """Certify strictly positive worst-case decision value via the dual norm.

    True iff every point of the closed ball is classified as y, i.e.
    y*(<w,x>+bias) > gamma * ||w||_dual.
    """
    q = dual_exponent_ref(p)
    return y * (float(np.dot(w, x)) + bias) > gamma * norm_ref(np.asarray(w, dtype=float), q)


def brute_pool_optimum(pool, X_lists, y) -> float:
    """Smallest fraction of examples with a misclassified perturbation, over
    an explicit model pool. X_lists[i] is the array of allowed points for
    example i (the point itself included by the caller if wanted)."""
    best = math.inf
    for model in pool:
        losses = 0
        for pts, label in zip(X_lists, y):
            preds = np.where(np.asarray(pts, dtype=float) @ model.w + model.bias >= 0.0, 1, -1)
            losses += int(np.any(preds != label))
        best = min(best, losses / len(y))
    return best


def central_difference(f, s: float, h: float = 1e-6) -> float:
    return (f(s + h) - f(s - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# explicit-loop twins of the numpy kernels in roblearn._kernels
# ---------------------------------------------------------------------------


def hinge_train_ref(X, y, sw, steps, lr0, reg, fit_bias):
    """Full-batch hinge subgradient descent, one scalar at a time."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    gw = np.zeros(d)
    for t in range(1, steps + 1):
        for j in range(d):
            gw[j] = reg * w[j]
        gb = 0.0
        for i in range(n):
            m = b
            for j in range(d):
                m += w[j] * X[i, j]
            if y[i] * m < 1.0:
                c = y[i] * sw[i]
                for j in range(d):
                    gw[j] -= c * X[i, j]
                gb += c
        step = lr0 / math.sqrt(t)
        for j in range(d):
            w[j] -= step * gw[j]
        if fit_bias:
            b += step * gb
    return w, b


def _md_ref(X, idx, q, step_at, coef):
    """Stochastic mirror descent over the unit q-ball, one scalar at a time.

    step_at(t) is the rate of 1-based step t and coef(i, s) the gradient
    coefficient of sample i at s = <w, x_i>. q = 1 runs exponentiated gradient
    on 2d+1 doubled coordinates; q > 1 the signed-power mirror maps of the
    half-squared-q-norm followed by radial rescaling. Returns the average
    iterate.
    """
    n, d = X.shape
    steps = idx.shape[0]
    w = np.zeros(d)
    acc = np.zeros(d)
    if q == 1.0:
        m2 = 2 * d + 1
        u = np.full(m2, 1.0 / m2)
        for t in range(1, steps + 1):
            i = idx[t - 1]
            s = 0.0
            for j in range(d):
                s += w[j] * X[i, j]
            c = coef(i, s)
            step = step_at(t)
            tot = u[m2 - 1]
            for j in range(d):
                a = min(max(-step * c * X[i, j], -60.0), 60.0)
                u[j] = u[j] * math.exp(a)
                u[d + j] = u[d + j] * math.exp(-a)
                tot += u[j] + u[d + j]
            for j in range(m2):
                u[j] /= tot
            for j in range(d):
                w[j] = u[j] - u[d + j]
                acc[j] += w[j]
        return acc / steps
    p = q / (q - 1.0)
    theta = np.zeros(d)
    for t in range(1, steps + 1):
        i = idx[t - 1]
        s = 0.0
        for j in range(d):
            s += w[j] * X[i, j]
        c = coef(i, s)
        step = step_at(t)
        nw = sum(abs(w[j]) ** q for j in range(d)) ** (1.0 / q)
        for j in range(d):
            theta[j] = math.copysign(abs(w[j]) ** (q - 1.0), w[j]) * nw ** (2.0 - q) if w[j] != 0.0 else 0.0
            theta[j] -= step * c * X[i, j]
        nt = sum(abs(theta[j]) ** p for j in range(d)) ** (1.0 / p)
        for j in range(d):
            w[j] = math.copysign(abs(theta[j]) ** (p - 1.0), theta[j]) * nt ** (2.0 - p) if theta[j] != 0.0 else 0.0
        nw = sum(abs(w[j]) ** q for j in range(d)) ** (1.0 / q)
        if nw > 1.0:
            for j in range(d):
                w[j] /= nw
        for j in range(d):
            acc[j] += w[j]
    return acc / steps


def md_rcn_ref(X, y, gamma, lam, q, idx):
    """Mirror descent on phi(y <w, x>) with slope -lam/gamma above the margin
    and -(1-lam)/gamma at or below it; step 1/(L sqrt(t)), L the larger slope."""
    L = max(lam, 1.0 - lam) / gamma

    def coef(i, s):
        slope = -lam / gamma if y[i] * s > gamma else -(1.0 - lam) / gamma
        return slope * y[i]

    return _md_ref(X, idx, q, lambda t: 1.0 / (L * math.sqrt(t)), coef)


def md_glm_ref(X, y01, gamma, eta, q, lr0, idx):
    """Mirror descent on the link-integral loss, gradient (u(<w, x>) - y01) x
    with u clipped to [eta, 1 - eta] outside [-gamma, gamma]; step lr0/sqrt(t)."""

    def coef(i, s):
        if s < -gamma:
            u = eta
        elif s > gamma:
            u = 1.0 - eta
        else:
            u = (1.0 - 2.0 * eta) / (2.0 * gamma) * s + 0.5
        return u - y01[i]

    return _md_ref(X, idx, q, lambda t: lr0 / math.sqrt(t), coef)
