"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, on purpose: no calls into
roblearn's closed forms, so a bug there cannot hide a bug here. Only its
vector check, its errors and its text read and write are shared, plus its
generator for test streams, the stage walk that accept_ref's loop calls
(nonrobust_ref checks that walk on its own) and the weighted vote the
one-row weighted-majority loop updates. The scalar separation-oracle
answers (INSIDE or a Hyperplane) live here, with one_row, which asks a
scalar oracle as the package's row-wise contract does.
"""

from __future__ import annotations

import dataclasses
import decimal
import math

import numpy as np

from roblearn.boosting import MajorityVote, _stage_labels
from roblearn.core import Dataset, as_vector
from roblearn.data import GenSpec, generate, read_text, write_text
from roblearn.errors import (ConfigError, EllipsoidDiverged, EmptyDataset, EmptyPool,
                             MistakeCapExceeded, NotSeparable, OracleViolation, ParseError,
                             SourceExhausted, StreamExhausted)


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


def hinge_train_dense_ref(X, y, sw, steps, lr0, reg, fit_bias):
    """The same descent with every step's margins and gradient evaluated in
    full, in the order the numpy kernel rounds them: the kernel must equal it
    bit for bit. Overflow and nan are silent, as in the kernel."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    ysw = y * sw
    with np.errstate(all="ignore"):
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


def q_ball_step_ref(w, sg, q, p):
    """One q > 1 mirror step in the general signed-power form at every q:
    map w to the dual space, subtract sg, map back, rescale onto the ball."""
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


def q_ball_step_decimal(w, sg, q, p, digits=40):
    """q_ball_step_ref's formula in decimal arithmetic with `digits` significant
    digits, whose exponent range is wide enough that no power under- or
    overflows; the exact inputs and exponents, one rounding back to floats."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        q, p = D(q), D(p)

        def norm(v, r):
            s = sum(abs(x) ** r for x in v)
            return s ** (1 / r) if s else D(0)

        def link(v, r):
            n = norm(v, r)
            return [(abs(x) ** (r - 1) * n ** (2 - r)).copy_sign(x) if x else D(0) for x in v]

        theta = [a - D(b) for a, b in zip(link([D(x) for x in w], q), sg)]
        out = link(theta, p)
        n = norm(out, q)
        if n > 1:
            out = [x / n for x in out]
        return np.array([float(x) for x in out])


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


# ---------------------------------------------------------------------------
# per-row references for the batch evaluation layer; models are read only
# through their w and bias, specs through p, gamma and offsets
# ---------------------------------------------------------------------------


def margin_ref(model, x, p: float) -> float:
    """(<w, x> + bias) / ||w||_q with q dual to p."""
    return (float(np.dot(model.w, x)) + model.bias) / norm_ref(model.w, dual_exponent_ref(p))


def selective_ref(model, spec, z) -> int:
    """The model's label if every preimage of z under the spec gets the same
    label, else 0 (abstain). A ball's preimages are a ball of the same radius."""
    if hasattr(spec, "offsets"):
        labels = {predict_ref(model.w, model.bias, z - o) for o in spec.offsets}
        return labels.pop() if len(labels) == 1 else 0
    m = margin_ref(model, z, spec.p)
    return sign_ref(m) if abs(m) > spec.gamma else 0


def stable_ref(model, spec, x) -> bool:
    """The model's prediction is constant over every natural point sharing a
    perturbation with x: |margin(x)| > 2 gamma for a ball, one label over
    x + (O - O) for offsets."""
    if hasattr(spec, "offsets"):
        labels = {predict_ref(model.w, model.bias, x + (a - b))
                  for a in spec.offsets for b in spec.offsets}
        return len(labels) == 1
    return abs(margin_ref(model, x, spec.p)) > 2.0 * spec.gamma


def nonrobust_ref(models, specs, x) -> bool:
    """x lies in the joint non-robust region: no model is stable there."""
    return not any(stable_ref(m, s, x) for m, s in zip(models, specs))


def cascade_ref(stages, fallback, z) -> int:
    """First non-abstaining stage speaks; the fallback answers otherwise."""
    for stage in stages:
        label = selective_ref(stage.model, stage.abstain_spec, z)
        if label != 0:
            return label
    return predict_ref(fallback.w, fallback.bias, z)


def cascade_ball_loss_ref(stages, fallback, x, y: int, p: float, gamma: float) -> int:
    """Stage-by-stage sound bound over the gamma ball: a stage whose margin
    clears its abstention radius plus gamma is correct everywhere (0); one
    below gamma minus that radius may be wrong somewhere (1); otherwise it
    is correct-or-abstaining and the next stage decides."""
    for stage in stages:
        g = stage.abstain_spec.gamma
        ym = y * margin_ref(stage.model, x, p)
        if ym > g + gamma:
            return 0
        if ym < gamma - g:
            return 1
    return 0 if y * margin_ref(fallback, x, p) > gamma else 1


def vote_ref(models, weights, z) -> int:
    """sign(sum_i weights_i * h_i(z)), ties to +1."""
    return sign_ref(sum(wi * predict_ref(m.w, m.bias, z) for wi, m in zip(weights, models)))


def expanded_ref(model, p: float, gamma: float, y: int, z) -> int:
    """y on the gamma-blowup of the region the model labels y robustly."""
    return y if y * margin_ref(model, z, p) > -gamma else -y


def select_ref(mode: str, base, members, x) -> bool:
    """Rejectron keeps x while every member agrees with the base model;
    the unsupervised variant keeps x while every pair agrees with itself."""
    if mode == "rejectron":
        hx = predict_ref(base.w, base.bias, x)
        return all(predict_ref(c.w, c.bias, x) == hx for c in members)
    return all(predict_ref(a.w, a.bias, x) == predict_ref(b.w, b.bias, x) for a, b in members)


# ---------------------------------------------------------------------------
# the ellipsoid method as it was written before the loop validated only at
# its boundary: every answer is a validated Hyperplane, every query is
# re-validated, and Q is rebuilt out of place and re-symmetrized each step
# ---------------------------------------------------------------------------


class _Inside:
    def __repr__(self):
        return "Inside"


INSIDE = _Inside()


@dataclasses.dataclass(frozen=True)
class Hyperplane:
    """Certificate that the query lies outside: <normal, z'> <= offset for all
    z' in the region while <normal, query> > offset."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not np.any(self.normal):
            raise ConfigError("hyperplane normal must be non-zero")

    def __iter__(self):  # unpacks like a raw (normal, offset) cut
        return iter((self.normal, self.offset))


def one_row(sep):
    """The scalar oracle sep(z), answering INSIDE or a (normal, offset) cut,
    as the row-wise oracle sep(rows, Z) of a single-row search."""
    def answer(_, Z):
        ans = sep(Z[0])
        if ans is INSIDE:
            return np.ones(1, dtype=bool), np.zeros_like(Z), np.zeros(1)
        normal, offset = ans
        return (np.zeros(1, dtype=bool), np.asarray(normal, dtype=float)[None],
                np.array([offset], dtype=float))
    return answer


def separation_ref(U, x, z):
    """INSIDE, or a Hyperplane separating z from U(x) (an lp ball or a polytope)."""
    x = as_vector(x)
    z = as_vector(z)
    delta = z - x
    if hasattr(U, "A"):
        viol = np.nonzero(U.A @ delta > U.b)[0]
        if viol.size == 0:
            return INSIDE
        row = U.A[int(viol[0])]
        return Hyperplane(row, float(row @ x) + float(U.b[int(viol[0])]))
    p, gamma = U.p, U.gamma
    if p == 2.0:
        dist = float(np.linalg.norm(delta))
        if dist <= gamma:
            return INSIDE
        normal = delta / dist
    elif math.isinf(p):
        if float(np.max(np.abs(delta))) <= gamma:
            return INSIDE
        j = int(np.argmax(np.abs(delta)))
        normal = np.zeros_like(x)
        normal[j] = 1.0 if delta[j] > 0 else -1.0
    else:
        if float(np.sum(np.abs(delta))) <= gamma:
            return INSIDE
        normal = np.sign(delta)
    return Hyperplane(normal, float(normal @ x) + gamma)


def halfspace_misses_ref(g, c, off: float, Q) -> bool:
    """Whether the cut <g, z> <= off misses the ellipsoid
    {z : (z - c)^T Q^-1 (z - c) <= 1}, whose least <g, z> is
    <g, c> - sqrt(g^T Q g): the gap <g, c> - off, less its rounding bound,
    beats the half-width plus its rounding bound (u = 2^-53, and 2^-1074 per
    product that may underflow)."""
    d = g.shape[0]
    kappa, tiny = 8 * (d + 2) * 2.0**-53, (d + 1) * 2.0**-1074
    gap, denom = float(g @ c) - off, float(g @ (Q @ g))
    if not gap > math.sqrt(denom):
        return False
    ag = np.abs(g)
    low = gap - kappa * (float(ag @ np.abs(c)) + abs(off)) - tiny
    return low > math.sqrt(denom + kappa * float(ag @ (np.abs(Q) @ ag))
                            + tiny * (1.0 + float(ag.sum())))


def row_config_ref(U, d: int, cfg):
    """The config of a row search over U(x) from x, as the batch certifier
    and RERM's row searches use it: for an lp ball (p in 1, 2, inf) the start
    radius is its farthest point from x, gamma along an axis for p <= 2 and
    the cube corner gamma sqrt(d) for p = inf, times 1 + 2^-30, at least
    volume_eps; a ball reaching past init_radius raises. A polytope keeps
    cfg."""
    if hasattr(U, "A"):
        return cfg
    reach = U.gamma * math.sqrt(d) if math.isinf(U.p) else U.gamma
    if reach > cfg.init_radius:
        raise EllipsoidDiverged("the ball leaves the start ball")
    r = min(cfg.init_radius, max(reach * (1.0 + 2.0**-30), cfg.volume_eps))
    return dataclasses.replace(cfg, init_radius=r)


def ellipsoid_feasible_ref(sep, d: int, cfg, center=None, stop=True):
    """Central-cut ellipsoid search; sep answers INSIDE or a Hyperplane. It
    ends empty after cfg.resolved_max_iters(d) cuts or, with `stop` and
    d >= 2, at the first cut that misses the ellipsoid. A point sep accepts
    farther than init_radius (times 1 + 1e-9) from the start center is cut
    by the start ball, so only the region's part in that ball is searched."""
    c = np.zeros(d) if center is None else as_vector(center).copy()
    start, R = c.copy(), cfg.init_radius

    def held(z):
        ans = sep(z)
        dist = math.sqrt(float((z - start) @ (z - start)))
        if ans is INSIDE and dist > R * (1.0 + 1e-9):
            normal = (z - start) / dist
            return Hyperplane(normal, float(normal @ start) + R)
        return ans

    max_iters = cfg.resolved_max_iters(d)
    if d == 1:
        r = cfg.init_radius
        for _ in range(max_iters):
            ans = held(c)
            if ans is INSIDE:
                return c
            g = float(ans.normal[0])
            if g * c[0] - ans.offset < -1e-12 * (1.0 + abs(ans.offset)):
                raise OracleViolation("separating hyperplane does not cut the center")
            c = c - np.array([math.copysign(r / 2.0, g)])
            r /= 2.0
            if r < cfg.volume_eps:
                return None
        return None
    Q = np.eye(d) * cfg.init_radius**2
    nsq = d * d / (d * d - 1.0)
    for _ in range(max_iters):
        ans = held(c)
        if ans is INSIDE:
            return c
        g = ans.normal
        if float(g @ c) - ans.offset < -1e-12 * (1.0 + abs(ans.offset)):
            raise OracleViolation("separating hyperplane does not cut the center")
        Qg = Q @ g
        denom = float(g @ Qg)
        if denom <= 0.0 or stop and halfspace_misses_ref(g, c, ans.offset, Q):
            return None
        bvec = Qg / math.sqrt(denom)
        c = c - bvec / (d + 1.0)
        Q = nsq * (Q - (2.0 / (d + 1.0)) * np.outer(bvec, bvec))
        Q = 0.5 * (Q + Q.T)
    return None


def ellipsoid_certify_ref(w, bias: float, x, y: int, sepU, cfg, slack: float = 0.0, stop=True):
    """A point of U(x) within init_radius of x with decision value at most
    slack against y, or None; sepU answers for U(x)."""
    y = float(y)
    off = slack - y * bias

    def composed(z):
        if y * (float(w @ z) + bias) > slack:
            return Hyperplane(y * w, off)
        return sepU(z)

    return ellipsoid_feasible_ref(composed, x.shape[0], cfg, center=x, stop=stop)


def rerm_ellipsoid_ref(X, y, U, cfg, stop=True):
    """Weights of a homogeneous halfspace certified at margin feas_slack on
    every row, found by ellipsoid search in weight space, or None. The
    weight search starts at init_radius, each row search at row_config_ref."""
    n, d = X.shape
    tau = cfg.feas_slack
    row_cfg = row_config_ref(U, d, cfg)
    oracles = [lambda z, x=x: separation_ref(U, x, z) for x in X]

    def weight_oracle(wvec):
        for i in range(n):
            if not np.any(wvec):
                z = ellipsoid_feasible_ref(oracles[i], d, row_cfg, center=X[i], stop=stop)
            else:
                z = ellipsoid_certify_ref(wvec, 0.0, X[i].copy(), int(y[i]), oracles[i], row_cfg,
                                          slack=tau, stop=stop)
            if z is None:
                continue
            normal = -int(y[i]) * np.asarray(z, dtype=float)
            if not np.any(normal):
                raise NotSeparable("a perturbation at the origin blocks every halfspace")
            return Hyperplane(normal, -tau)
        return INSIDE

    return ellipsoid_feasible_ref(weight_oracle, d, cfg, stop=stop)


# ---------------------------------------------------------------------------
# sources and the one-row accept loop
# ---------------------------------------------------------------------------


def gen_stream(kind, seed: int):
    """Independent draws per call: each request uses a fresh derived seed."""
    state = {"t": 0}

    def draw(k: int) -> Dataset:
        state["t"] += 1
        return generate(GenSpec(kind, k, rng_seed=seed * 100_003 + state["t"]))

    return draw


def accept_ref(source, stages, m: int, budget_per_draw: int, abstained: bool):
    """Draw one row at a time, keeping rows where every stage abstains (or,
    with abstained False, where some stage speaks) until m are kept. Returns
    the kept (rows, labels), or None once one accept costs more than
    budget_per_draw draws."""
    xs, ys = [], []
    while len(xs) < m:
        for _ in range(budget_per_draw):
            batch = source(1)
            if (_stage_labels(stages, batch.X)[0] == 0) == abstained:
                xs.append(batch.X[0])
                ys.append(batch.y[0])
                break
        else:
            return None
    return xs, ys


# ---------------------------------------------------------------------------
# the one-row online loops: one draw, one attack, one update at a time
# ---------------------------------------------------------------------------


def label_ref(h, z) -> int:
    """The label a batch predictor gives the one point z, asked as a one-row block."""
    return int(h.predict_batch(as_vector(z)[None])[0])


def attack_one_ref(attack_oracle, state, x, y: int, index=None):
    """The row-wise oracle asked about the single row (x, y): its witness,
    or None when the row is not hit."""
    hit, witness = attack_oracle(state, as_vector(x)[None], np.array([y]), index)
    return witness(0) if hit[0] else None



def one_pass_ref(stream, online_learner, attack_oracle, eps: float, delta: float,
                 mistake_cap: int):
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    run_len = max(1, math.ceil((1.0 / eps) * math.log(mistake_cap / delta)))
    streak = 0
    updates = 0
    learner = online_learner
    while streak < run_len:
        try:
            batch = stream(1)
        except SourceExhausted as exc:
            raise StreamExhausted(
                f"stream ended with survivor streak {streak} of {run_len}"
            ) from exc
        x, y = batch.X[0], int(batch.y[0])
        z = attack_one_ref(attack_oracle, learner, x, y)
        if z is None:
            streak += 1
        else:
            learner = learner.update(as_vector(z), y)
            updates += 1
            streak = 0
    return learner, updates, run_len


def cycle_ref(data: Dataset, online_learner, attack_oracle, mistake_cap: int):
    m = data.n
    learner = online_learner
    calls = 0
    updates = 0
    passes = 0
    clean = False
    while not clean:
        clean = True
        passes += 1
        for i, (x, y) in enumerate(zip(data.X, data.y.tolist())):
            if calls + 1 > m * mistake_cap:
                raise MistakeCapExceeded(
                    f"exceeded {m} x {mistake_cap} oracle calls without a clean pass"
                )
            calls += 1
            z = attack_one_ref(attack_oracle, learner, x, y, i)
            if z is not None:
                updates += 1
                if updates > mistake_cap:
                    raise MistakeCapExceeded(
                        f"learner needed more than {mistake_cap} updates"
                    )
                learner = learner.update(as_vector(z), y)
                clean = False
    return learner, updates, passes


def weighted_majority_ref(pool, stream, attack_oracle, eta_wm: float, rounds: int | None = None):
    pool = list(pool)
    if not pool:
        raise EmptyPool("hypothesis pool must be non-empty")
    if not (0.0 <= eta_wm < 1.0):
        raise ValueError("eta must lie in [0, 1)")
    weights = np.ones(len(pool))
    predictor = MajorityVote(pool, weights)
    mistakes = 0
    seen = 0
    while rounds is None or seen < rounds:
        try:
            batch = stream(1)
        except SourceExhausted:
            break
        seen += 1
        x, y = batch.X[0], int(batch.y[0])
        z = attack_one_ref(attack_oracle, predictor, x, y)
        if z is None:
            continue
        mistakes += 1
        for j, h in enumerate(pool):
            if label_ref(h, z) != y:
                weights[j] *= eta_wm
    return weights, predictor, mistakes, seen


# ---------------------------------------------------------------------------
# the field-by-field CSV scan and the value-by-value CSV writer
# ---------------------------------------------------------------------------


def save_csv_ref(path: str, data: Dataset) -> None:
    """One row per example: each feature in 17 significant digits, then the label."""
    rows = (",".join("%.17g" % float(v) for v in data.X[i]) + f",{int(data.y[i])}\n" for i in range(data.n))
    write_text(path, "".join(rows))


def load_csv_ref(path: str) -> Dataset:
    """Comma-separated reals, final column the label in {-1, +1}.

    A header line is detected by its first field failing to parse as a
    number. Row/column positions in errors are 1-based over the raw file.
    """
    raw = read_text(path)
    rows = []
    lines = [(i + 1, ln) for i, ln in enumerate(raw.splitlines()) if ln.strip()]
    if not lines:
        raise EmptyDataset(f"{path} contains no data rows")
    first_tok = lines[0][1].split(",")[0].strip()
    try:
        float(first_tok)
    except ValueError:
        lines = lines[1:]
        if not lines:
            raise EmptyDataset(f"{path} contains no data rows")
    width = None
    for rownum, line in lines:
        fields = [f.strip() for f in line.split(",")]
        if width is None:
            width = len(fields)
            if width < 2:
                raise ParseError("need at least one feature column and a label", row=rownum, col=1)
        elif len(fields) != width:
            raise ParseError(f"expected {width} columns, got {len(fields)}", row=rownum, col=len(fields))
        vals = []
        for colnum, tok in enumerate(fields, start=1):
            try:
                vals.append(float(tok))
            except ValueError:
                raise ParseError(f"not a number: {tok!r}", row=rownum, col=colnum) from None
        label = vals[-1]
        if label not in (1.0, -1.0):
            raise ParseError(f"label must be +1 or -1, got {fields[-1]!r}", row=rownum, col=width)
        rows.append((vals[:-1], int(label)))
    X = np.array([r[0] for r in rows], dtype=float)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        i, j = bad[0]
        raise ParseError("feature must be finite", row=lines[i][0], col=int(j) + 1)
    y = np.array([r[1] for r in rows], dtype=np.int64)
    return Dataset(X, y)


# ---------------------------------------------------------------------------
# one-threshold-at-a-time twins of the urejectron sweep and the fms game
# ---------------------------------------------------------------------------


def tradeoff_rows_ref(train_scores, test_scores):
    """urejectron's threshold sweep, rescanning both samples per threshold:
    every test score, after one that keeps everything."""
    n, n_test = train_scores.shape[0], test_scores.shape[0]
    grid = np.concatenate([[min(test_scores.min(), train_scores.min()) - 1.0], np.sort(test_scores)])
    rows = []
    for tau in grid:
        rows.append(
            {
                "threshold": float(tau),
                "rej_train": float(np.mean(train_scores < tau)) if n else 0.0,
                "rej_test": float(np.mean(test_scores < tau)) if n_test else 0.0,
            }
        )
    return rows


def kept_error_ref(raw_scores, test_preds, test_y, thresholds):
    """The error rate among the rows with raw >= t for each threshold t, or
    0.0 where none is kept, one threshold at a time."""
    out = []
    for t in thresholds:
        keep_mask = raw_scores >= t
        out.append(float(np.mean(test_preds[keep_mask] != test_y[keep_mask])) if keep_mask.any() else 0.0)
    return out


class PerExampleWeightsRef:
    """The fms weights as one array per example."""

    def __init__(self, counts):
        self.w = [np.ones(int(k), dtype=float) for k in counts]
        for k in counts:
            if k < 1:
                raise ValueError("every example needs at least one perturbation")

    def normalized(self) -> list:
        return [wi / wi.sum() for wi in self.w]

    def scale_up(self, i: int, mask: np.ndarray, factor: float) -> None:
        if factor < 1.0:
            raise ValueError("weights must be non-decreasing")
        self.w[i] = self.w[i] * np.where(mask, factor, 1.0)


def fms_sample_weights_ref(sizes, wrong_rounds, eta: float):
    """The sample weights each round of the fms game hands its learner, when
    round t's model is wrong on the flat mask wrong_rounds[t]."""
    weights = PerExampleWeightsRef(sizes)
    m = len(sizes)
    out = []
    for wrong in wrong_rounds:
        P = weights.normalized()
        out.append(np.concatenate([Pi / m for Pi in P]))
        for i, mask in enumerate(np.split(wrong, np.cumsum(sizes)[:-1])):
            weights.scale_up(i, mask, 1.0 + eta)
    return out


def urejectron_pairs_ref(train, tests, eps: float, lam: float, pool):
    """urejectron's pool search with each pair's training disagreement
    recomputed every round; returns the chosen index pairs and the scores."""
    n_test = tests.shape[0]
    preds_train = [c.predict_batch(train) for c in pool]
    preds_test = [c.predict_batch(tests) for c in pool]
    selected = np.ones(n_test, dtype=bool)
    members = []
    scores = []
    for _ in range(int(math.floor(1.0 / eps))):
        if n_test == 0 or not selected.any():
            break
        best = None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                split = selected & (preds_test[i] != preds_test[j])
                err_test = split.sum() / n_test
                err_train = float(np.mean(preds_train[i] != preds_train[j]))
                s = err_test - lam * err_train
                if best is None or s > best[0]:
                    best = (s, i, j, split)
        if best is None or best[0] <= eps:
            if best is not None:
                scores.append(float(best[0]))
            break
        s, i, j, split = best
        scores.append(float(s))
        members.append((i, j))
        selected = selected & ~split
    return members, scores
