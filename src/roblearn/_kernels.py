"""Numeric kernels: the hot loops of the package, one numpy implementation each.

The weighted hinge trainer is called by every boosting round; the stochastic
mirror-descent loop runs both noise-tolerant trainers, which differ only in
their step schedule and per-sample gradient coefficient. Explicit-loop
references of every kernel live in tests/_refs.py and are checked against
these to float rounding; the hinge trainer is also checked bit for bit against
the dense numpy loop, which evaluates every step in full.
"""

from __future__ import annotations

import math

import numpy as np

from .core import lp_norm


def active_backend() -> str:
    """Name of the kernel implementation, for run stamps."""
    return "numpy"


# ---------------------------------------------------------------------------
# weighted hinge trainer
#
# Full-batch subgradient descent on
#   F(w, b) = sum_i sw_i * max(0, 1 - y_i (<w, x_i> + b)) + reg/2 ||w||^2
# with step lr0/sqrt(t). sw must already be normalized to sum 1 and y is in
# {-1, +1}. The bias is only trained when fit_bias is set; it is never
# regularized.
#
# Every step is taken, with the dense loop's arithmetic, but a step's O(n)
# part -- the margins m = y (X w + b), the active set m < 1, coef and
# g = -X.T coef -- depends on (w, b) only through the active set. After an
# exact evaluation at (w0, b0) the kernel certifies the radius
#   R = min_i (|m_i - 1| - kappa (|b0| + 1)) / (||x_i|| + fit_bias)
#       - kappa (||w0|| + max_i |m_i - 1|),
# which is at most min_i (|m_i - 1| - err_i) / (||x_i|| + fit_bias) with
# err_i = kappa (||x_i|| ||w0|| + |b0| + 1). With kappa = max(1e-12,
# 8 (d+2) 2^-53), err_i bounds the rounding of the computed margin both at
# (w0, b0) and at any point within R. The max term costs nothing in practice
# and makes R -inf or nan once a margin overflows, so R is never +inf.
# `moved` bounds ||w - w0|| + |b - b0| from each step's size, the rounding of
# the update included. While moved < R no computed margin can cross 1, so the
# active set, coef, g and sum(coef) are bit for bit those already computed;
# the output equals the dense loop's (tests/_refs.py::hinge_train_dense_ref).
# A nan in R or moved, or an inf moved, fails the test and takes the exact
# path. Where margins sit near 1 no step is skipped; a radius that skipped
# nothing makes the next 1, 2, 4, ... evaluations skip the radius.
#
# So the loop runs over exact evaluations, not over steps. The evaluation at
# step t starts a run: steps t, t+1, ... share its g and csum, and the run
# ends before the first later step at which moved < R fails (or at the last
# step). The kernel first advances `moved` over the run to find its end, then
# applies the run one coordinate at a time: w_j = w_j - s (g_j + reg w_j)
# over the run's step sizes s, and b = b + s csum. Each coordinate sees the
# same IEEE-754 operations on the same operands in the same order as in the
# dense loop, with no fused multiply-add (lr0 and reg are taken as Python
# floats for this), so the bits are the same. w is a list of d Python floats;
# an exact evaluation packs it into one array for X @ w and ||w||. Per
# 300-step call on band data (n = 400 for d <= 32, else 1000; 2-core x86 VM,
# numpy 2.4) the run form costs, against the per-step loop it replaced (one
# list update per step) and against the numpy form before that, at
#   d      2            10           32           64           256
#   step   0.48-0.53x   0.53-0.57x   0.62-0.66x   0.68-0.72x   0.80-0.82x
#   numpy  0.21x        0.32-0.36x   0.69-0.72x   1.15-1.36x   1.76-1.82x
# (ranges of medians over repeated runs of 21-31 interleaved calls). Every
# hinge call of the benchmark is at d = 2.
# ---------------------------------------------------------------------------


def hinge_train(X, y, sw, steps, lr0, reg, fit_bias):
    n, d = X.shape
    lr0, reg = float(lr0), float(reg)
    w = [0.0] * d
    b = 0.0
    ysw = y * sw
    kappa = max(1e-12, 8 * (d + 2) * 2.0**-53)
    areg = abs(reg)
    grow = 1.0 + kappa
    reach = moved = wn = wnb = gn = 0.0
    last, wait, backoff = -1, 0, 1
    t = 1
    with np.errstate(all="ignore"):  # an overflowing X @ w only makes R -inf or nan, see above
        # the floor keeps zero rows finite and only shrinks R
        inv = 1.0 / np.maximum(np.sqrt(np.einsum("ij,ij->i", X, X)) + fit_bias, 2.0**-1023)
        while t <= steps:
            wa = np.array(w)
            margins = y * (X @ wa + b)
            coef = np.where(margins < 1.0, ysw, 0.0)
            g = -(X.T @ coef)
            csum = float(coef.sum()) if fit_bias else 0.0
            if last == t - 1:
                wait, backoff = backoff, 2 * backoff
            if wait:
                wait -= 1
                reach = 0.0
            else:
                last, moved, nb = t, 0.0, abs(b)
                wn = math.sqrt(wa @ wa)
                gn = math.sqrt(g @ g) + abs(csum)
                gap = np.abs(margins - 1.0)
                reach = (float(np.minimum.reduce((gap - kappa * (nb + 1.0)) * inv))
                         - kappa * (wn + float(np.maximum.reduce(gap))))
                wnb = wn + nb
            # the run: step t, then every step that starts with moved < reach
            run = []
            while True:
                step = lr0 / math.sqrt(t)
                run.append(step)
                moved += grow * abs(step) * (gn + areg * (wn + moved)) + kappa * (wnb + 2.0 * moved)
                if t == steps or not moved < reach:
                    break
                t += 1
            if len(run) > 1:
                backoff = 1
            for j, gj in enumerate(g.tolist()):
                wj = w[j]
                for step in run:
                    wj = wj - step * (gj + reg * wj)
                w[j] = wj
            if fit_bias:
                for step in run:
                    b = b + step * csum
            t += 1
    return np.array(w), b


# ---------------------------------------------------------------------------
# stochastic mirror descent over the unit q-ball
#
# Each step draws sample i = idx[t], asks the caller's coefficient rule for
# c = coef(i, <w, x_i>) and moves along the stochastic gradient c x_i with
# step rates[t]. q > 1 uses the half-squared-q-norm potential, whose exact
# Bregman projection onto the ball is radial rescaling. Its link is
# homogeneous of degree 1 and the links at q and p invert each other, so the
# link of the rescaled w is theta / max(1, ||theta||_p): q != 2 keeps the dual
# iterate theta and maps it back once per step. At q = 2 both links are
# identities and the step works on w alone. q = 1 runs exponentiated gradient
# on 2d+1 doubled coordinates (plus slack). The pre-drawn indices keep the RNG
# outside the kernel. Returns the averaged iterate.
# ---------------------------------------------------------------------------


def _mirror_map(v, r):
    """(grad 1/2 ||v||_r^2, n) with n = ||v||_r, the link written as
    sign(v) b^(r-1) (peak/n)^(r-1) n with b = |v|/peak: every base is in
    [0, 1], so no power overflows and only entries negligible next to the peak
    underflow. A zero or non-finite vector maps to +0.0 entries."""
    a = np.abs(v)
    peak = float(np.maximum.reduce(a)) if a.size else 0.0
    if not 0.0 < peak < math.inf:
        return np.zeros(v.shape[0]), peak
    b = a / peak
    bp = b ** (r - 1.0)
    n = peak * float(bp @ b) ** (1.0 / r)
    return np.copysign(bp, v) * ((peak / n) ** (r - 1.0) * n), n


def _q_ball_step(w, sg, q, p):
    """Map w to the dual space, subtract the scaled gradient sg, map back and
    rescale onto the unit q-ball; p is the dual exponent of q."""
    # the back map's q-norm is ||theta||_p, its second return value
    w, nw = _mirror_map(_mirror_map(w, q)[0] - sg, p)
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
    if q == 2.0:
        with np.errstate(over="ignore"):  # an overflowing w @ w rescales by lp_norm
            for t in range(steps):
                i = idx[t]
                x = X[i]
                w -= (rates[t] * coef(i, float(x @ w))) * x
                n = math.sqrt(w @ w)
                if n > 1.0:
                    w /= n if n < math.inf else lp_norm(w, 2.0)
                acc += w
        return acc / steps
    p = q / (q - 1.0)
    theta = np.zeros(d)
    for t in range(steps):
        i = idx[t]
        x = X[i]
        theta -= (rates[t] * coef(i, float(x @ w))) * x
        w, n = _mirror_map(theta, p)
        if n > 1.0:
            w /= n
            theta /= n
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
