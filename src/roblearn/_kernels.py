"""Numeric kernels: the hot loops of the package, one numpy implementation each.

The weighted hinge trainer is called by every boosting round; the stochastic
mirror-descent loop runs both noise-tolerant trainers, which differ only in
their step schedule and per-sample gradient coefficient. Explicit-loop
references of every kernel live in tests/_refs.py and are checked against
these to float rounding.
"""

from __future__ import annotations

import math

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, for run stamps."""
    return "numpy"


# ---------------------------------------------------------------------------
# weighted hinge trainer
#
# Full-batch subgradient descent on
#   F(w, b) = sum_i sw_i * max(0, 1 - y_i (<w, x_i> + b)) + reg/2 ||w||^2
# with step lr0/sqrt(t). sw must already be normalized to sum 1. The bias is
# only trained when fit_bias is set; it is never regularized.
# ---------------------------------------------------------------------------


def hinge_train(X, y, sw, steps, lr0, reg, fit_bias):
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    ysw = y * sw
    for t in range(1, steps + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        coef = np.where(active, ysw, 0.0)
        gw = -(X.T @ coef) + reg * w
        step = lr0 / math.sqrt(t)
        w = w - step * gw
        if fit_bias:
            b = b + step * float(coef.sum())
    return w, b


# ---------------------------------------------------------------------------
# stochastic mirror descent over the unit q-ball
#
# Each step draws sample i = idx[t], asks the caller's coefficient rule for
# c = coef(i, <w, x_i>) and moves along the stochastic gradient c x_i with
# step rates[t]. q > 1 uses the half-squared-q-norm potential; its mirror maps
# are the signed-power pair below and the exact Bregman projection onto the
# ball is radial rescaling. q = 1 runs exponentiated gradient on 2d+1 doubled
# coordinates (plus slack). The pre-drawn indices keep the RNG outside the
# kernel. Returns the averaged iterate.
# ---------------------------------------------------------------------------


def _q_ball_step(w, sg, q, p):
    """Map w to the dual space, subtract the scaled gradient sg, map back and
    rescale onto the unit q-ball; p is the dual exponent of q."""
    nw = float(np.sum(np.abs(w) ** q)) ** (1.0 / q) if np.any(w) else 0.0
    if nw > 0.0:
        theta = np.sign(w) * np.abs(w) ** (q - 1.0) * nw ** (2.0 - q)
    else:
        theta = np.zeros(w.shape[0])
    theta = theta - sg
    nt = float(np.sum(np.abs(theta) ** p)) ** (1.0 / p) if np.any(theta) else 0.0
    if nt > 0.0:
        w = np.sign(theta) * np.abs(theta) ** (p - 1.0) * nt ** (2.0 - p)
    else:
        w = np.zeros(theta.shape[0])
    nw = float(np.sum(np.abs(w) ** q)) ** (1.0 / q)
    if nw > 1.0:
        w = w / nw
    return w


def _mirror_descent(X, idx, q, rates, coef):
    d = X.shape[1]
    steps = idx.shape[0]
    w = np.zeros(d)
    acc = np.zeros(d)
    if q == 1.0:
        u = np.full(2 * d + 1, 1.0 / (2 * d + 1))
        for t in range(steps):
            i = idx[t]
            g = coef(i, float(X[i] @ w)) * X[i]
            arg = np.concatenate((-rates[t] * g, rates[t] * g, (0.0,)))
            u = u * np.exp(np.clip(arg, -60.0, 60.0))
            u = u / u.sum()
            w = u[:d] - u[d : 2 * d]
            acc += w
        return acc / steps
    p = q / (q - 1.0)
    for t in range(steps):
        i = idx[t]
        g = coef(i, float(X[i] @ w)) * X[i]
        w = _q_ball_step(w, rates[t] * g, q, p)
        acc += w
    return acc / steps


# ---------------------------------------------------------------------------
# noise-tolerant margin surrogate
#
# Minimizes the empirical average of phi(y <w, x>), where
#   phi(s) = lam * (1 - s/gamma)        if s >  gamma
#            (1 - lam) * (1 - s/gamma)  if s <= gamma,
# with step 1/(L sqrt(t)), L the larger slope.
# ---------------------------------------------------------------------------


def rcn_phi(s: float, lam: float, gamma: float) -> tuple[float, float]:
    """Piecewise-linear margin surrogate value and subgradient in s.

    Slope -lam/gamma above the margin, -(1-lam)/gamma at or below it; the
    boundary s == gamma uses the lower branch.
    """
    if s > gamma:
        return lam * (1.0 - s / gamma), -lam / gamma
    return (1.0 - lam) * (1.0 - s / gamma), -(1.0 - lam) / gamma


def md_rcn(X, y, gamma, lam, q, idx):
    L = max(lam, 1.0 - lam) / gamma
    rates = 1.0 / (L * np.sqrt(np.arange(1, idx.shape[0] + 1)))
    return _mirror_descent(X, idx, q, rates, lambda i, s: rcn_phi(y[i] * s, lam, gamma)[1] * y[i])


# ---------------------------------------------------------------------------
# monotone-link loss
#
# Labels arrive in {0, 1}. The per-sample gradient is (u(<w, x>) - y) x with
# the link u below; the step is lr0/sqrt(t) with lr0 chosen by the caller.
# ---------------------------------------------------------------------------


def glm_link_u(s: float, eta: float, gamma: float) -> float:
    """Monotone link: eta below -gamma, 1-eta above, linear in between."""
    if s < -gamma:
        return eta
    if s > gamma:
        return 1.0 - eta
    return (1.0 - 2.0 * eta) / (2.0 * gamma) * s + 0.5


def md_glm(X, y01, gamma, eta, q, lr0, idx):
    rates = lr0 / np.sqrt(np.arange(1, idx.shape[0] + 1))
    return _mirror_descent(X, idx, q, rates, lambda i, s: glm_link_u(s, eta, gamma) - y01[i])
