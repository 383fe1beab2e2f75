"""Attack, separation, and certification oracles.

The attack oracle is closed-form for lp balls (dual-norm worst case) and a
scan for finite sets. Certification against arbitrary convex perturbation
regions goes through the ellipsoid method: a separation oracle for U(x) is
composed with the misclassification halfspace, and robust ERM runs a second
ellipsoid in weight space whose cuts come from failed certifications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FiniteOffsets,
    FinitePerExample,
    LinearModel,
    LpBall,
    PerturbationSpec,
    Sample,
    as_vector,
    dual_norm,
    margin,
    worst_case_point,
)
from .errors import EllipsoidDiverged, NotSeparable, OracleViolation, UnsupportedGeometry


class _Inside:
    def __repr__(self):
        return "Inside"


INSIDE = _Inside()


@dataclass(frozen=True)
class Hyperplane:
    """Certificate that the query lies outside: <normal, z'> <= offset for all
    z' in the region while <normal, query> > offset."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not np.any(self.normal):
            raise ValueError("hyperplane normal must be non-zero")

    def __iter__(self):  # unpacks like a raw (normal, offset) cut
        return iter((self.normal, self.offset))


@dataclass(frozen=True)
class Polytope:
    """Region {z : A (z - x) <= b} relative to a center x supplied at query time."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError("need A of shape (m, d) and b of shape (m,)")
        if not (np.isfinite(A).all() and np.isfinite(b).all() and A.any(axis=1).all()):
            raise ValueError("A and b must be finite and every row of A non-zero")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass
class EllipsoidConfig:
    max_iters: int | None = None  # None derives 50 d^2 ceil(log2(r/vol_eps))
    init_radius: float = 10.0
    feas_slack: float = 0.1
    volume_eps: float = 1e-6

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.init_radius <= 0 or self.feas_slack <= 0 or self.volume_eps <= 0:
            raise ValueError("config values must be positive")

    def resolved_max_iters(self, d: int) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return 50 * d * d * math.ceil(math.log2(self.init_radius / self.volume_eps))


def default_ellipsoid_config(gamma: float) -> EllipsoidConfig:
    """Spec defaults, with the certification slack tied to the working radius."""
    slack = gamma / 10.0 if gamma > 0 else 1e-3
    return EllipsoidConfig(feas_slack=slack)


def attack(model: LinearModel, sample: Sample, U: PerturbationSpec, index: int | None = None):
    """Perfect attack oracle: None iff the sample is robust; otherwise a
    misclassified (or boundary) witness in U(x).

    For lp balls the witness is the analytic worst-case point; for finite
    specs it is the first misclassified listed point, and the model may be
    any predictor exposing predict_batch.
    """
    if isinstance(U, LpBall):
        if sample.y * margin(model, sample.x, U.p) > U.gamma:
            return None
        return worst_case_point(model, sample.x, sample.y, U)
    if isinstance(U, FiniteOffsets):
        Z = U.points(sample.x)
    elif isinstance(U, FinitePerExample):
        Z = U.points(index)
    else:
        raise UnsupportedGeometry(f"attack does not support {type(U).__name__}")
    preds = model.predict_batch(Z)
    bad = np.nonzero(preds != sample.y)[0]
    if bad.size == 0:
        return None
    return Z[int(bad[0])].copy()


def _separate(U_descriptor, x: np.ndarray, z: np.ndarray):
    """INSIDE or a raw cut (normal, offset), for already validated x and z."""
    if isinstance(U_descriptor, LpBall):
        p, gamma = U_descriptor.p, U_descriptor.gamma
        delta = z - x
        if p == 2.0:
            dist = float(np.linalg.norm(delta))
            if dist <= gamma:
                return INSIDE
            normal = delta / dist
        elif math.isinf(p):
            dist = float(np.max(np.abs(delta)))
            if dist <= gamma:
                return INSIDE
            j = int(np.argmax(np.abs(delta)))
            normal = np.zeros_like(x)
            normal[j] = 1.0 if delta[j] > 0 else -1.0
        elif p == 1.0:
            dist = float(np.sum(np.abs(delta)))
            if dist <= gamma:
                return INSIDE
            normal = np.sign(delta)
        else:
            raise UnsupportedGeometry(f"no separation oracle for p={p}")
        return normal, float(normal @ x) + gamma
    if isinstance(U_descriptor, Polytope):
        vals = U_descriptor.A @ (z - x)
        viol = np.nonzero(vals > U_descriptor.b)[0]
        if viol.size == 0:
            return INSIDE
        i = int(viol[0])
        row = U_descriptor.A[i]
        return row, float(row @ x) + float(U_descriptor.b[i])
    raise UnsupportedGeometry(f"no separation oracle for {type(U_descriptor).__name__}")


def separation_oracle(U_descriptor, x, z) -> _Inside | Hyperplane:
    """Membership-or-separating-hyperplane for z against U(x)."""
    ans = _separate(U_descriptor, as_vector(x), as_vector(z))
    return ans if ans is INSIDE else Hyperplane(*ans)


def bound_separation(U_descriptor, x):
    """Close the oracle over a center validated here, once. The query-only
    callable answers INSIDE or a raw cut; the ellipsoid checks its queries."""
    x = as_vector(x)
    return lambda z: _separate(U_descriptor, x, z)


def check_disjoint_balls(data: Dataset, ball: LpBall) -> None:
    """Raise NotSeparable when the balls of two rows with opposite labels meet
    (distance <= 2 gamma): no halfspace has a positive margin on both."""
    if ball.p not in (1.0, 2.0, math.inf):
        raise UnsupportedGeometry(f"no separation oracle for p={ball.p}")
    neg = np.nonzero(data.y == -1)[0]
    X_neg = data.X[neg]
    for i in np.nonzero(data.y == 1)[0]:
        near = np.linalg.norm(X_neg - data.X[i], ord=ball.p, axis=1) <= 2.0 * ball.gamma
        if near.any():
            raise NotSeparable(f"rows {i} and {neg[near.argmax()]} have opposite labels "
                               "and intersecting perturbation balls")


def ellipsoid_feasible(sep, d: int, cfg: EllipsoidConfig, center=None):
    """Find a point the separation oracle accepts, or None when the region is
    empty up to volume_eps (budget exhausted or every semi-axis shrunk away).

    sep answers INSIDE or a (normal, offset) cut. The caller guarantees the
    region, if non-empty with volume_eps slack, is in the init_radius ball at center.
    """
    c = np.zeros(d) if center is None else as_vector(center).copy()
    max_iters = cfg.resolved_max_iters(d)
    if d == 1:
        r = cfg.init_radius
        for _ in range(max_iters):
            ans = sep(c)
            if ans is INSIDE:
                return c
            normal, off = ans
            g = float(normal[0])
            if g * c[0] - off < -1e-12 * (1.0 + abs(off)):
                raise OracleViolation("separating hyperplane does not cut the center")
            c = c - np.array([math.copysign(r / 2.0, g)])
            r /= 2.0
            if r < cfg.volume_eps:
                return None
        return None
    Q = np.eye(d) * cfg.init_radius**2
    nsq = d * d / (d * d - 1.0)
    for _ in range(max_iters):
        if not np.isfinite(c).all():
            raise ValueError("vector entries must be finite")
        ans = sep(c)
        if ans is INSIDE:
            return c
        g, off = ans
        if float(g @ c) - off < -1e-12 * (1.0 + abs(off)):
            raise OracleViolation("separating hyperplane does not cut the center")
        Qg = Q @ g
        denom = float(g @ Qg)
        if denom <= 0.0:
            return None
        b = Qg / math.sqrt(denom)
        c = c - b / (d + 1.0)
        Q -= 2.0 / (d + 1.0) * (b[:, None] * b)
        Q *= nsq
        # Q stays exactly symmetric, but entries beyond max_float / 2 overflow here
        Q = 0.5 * (Q + Q.T)
        size = math.sqrt(max(float(Q.trace()), 0.0))
        if size < cfg.volume_eps:
            return None
        # Uncut axes grow by a constant factor per query: an empty slab in d = 2
        # stops near 1e59 init radii, a region outside the start overflows Q near
        # 1e154. On 14.4k property-test searches this bound stopped only the latter.
        if size > 1e100 * cfg.init_radius:
            raise EllipsoidDiverged("the ellipsoid grew past 1e100 initial radii "
                                    "instead of closing in on the region")
    return None


def ellipsoid_certify(model: LinearModel, sample: Sample, sepU, cfg: EllipsoidConfig,
                      slack: float = 0.0):
    """Search U(x) for a point the model gets wrong (decision value at most
    `slack` against the label). Returns the counterexample vector, or None
    when the intersection is empty up to volume_eps (certified robust).

    sepU must be a query-only separation oracle for U(x); the search ellipsoid
    is centered at x, so U(x) must fit in the init_radius ball around it.
    """
    y = float(sample.y)
    w = model.w
    miss = (y * w, slack - y * model.bias)

    def composed(z):
        if y * (float(w @ z) + model.bias) > slack:
            return miss
        return sepU(z)

    return ellipsoid_feasible(composed, sample.x.shape[0], cfg, center=sample.x)


def rerm_ellipsoid(data: Dataset, sep_for_example, cfg: EllipsoidConfig,
                   ball: LpBall | None = None) -> LinearModel:
    """Robust ERM for homogeneous halfspaces by ellipsoid search in weight
    space. Feasibility means every sample certifies robust at margin slack
    feas_slack; each failed certification contributes the cut -y_i z_i.

    sep_for_example(i) must return a query-only separation oracle for U(x_i).
    With `ball`, the lp ball each U(x_i) is around x_i, every weight query skips
    the rows whose closed-form robust margin y_i <w, x_i> - gamma ||w||_* beats
    feas_slack by a relative 1e-9, as their certification can only return None;
    the rest run in order, so the failing row and its cut stay the same.
    Raises NotSeparable when the budget is exhausted without a feasible point.
    """
    d = data.d
    tau = cfg.feas_slack
    rows = [(data.sample(i), sep_for_example(i)) for i in range(data.n)]

    def weight_oracle(wvec):
        nrm = float(np.linalg.norm(wvec))
        if nrm > cfg.init_radius:
            return wvec / nrm, float(cfg.init_radius)
        # w = 0 violates every margin constraint; any point of U(x_i) cuts
        model = LinearModel(wvec) if np.any(wvec) else None
        todo = rows
        if ball is not None:  # at w = 0 no row is proven
            raw = data.y * (data.X @ wvec)
            shift = ball.gamma * dual_norm(wvec, ball.p)
            proven = raw - shift - tau > 1e-9 * (np.abs(raw) + shift + tau)
            todo = [rows[i] for i in np.flatnonzero(~proven)]
        for s, sep in todo:
            if model is None:
                z = ellipsoid_feasible(sep, d, cfg, center=s.x)
            else:
                z = ellipsoid_certify(model, s, sep, cfg, slack=tau)
            if z is None:
                continue
            normal = -s.y * np.asarray(z, dtype=float)
            if not np.any(normal):
                # constraint y <w, 0> >= tau > 0 can never hold
                raise NotSeparable("a perturbation at the origin blocks every halfspace")
            return normal, -tau
        return INSIDE

    w = ellipsoid_feasible(weight_oracle, d, cfg)
    if w is None:
        raise NotSeparable("no robustly separating halfspace within the search budget")
    return LinearModel(w)
