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
    margin,
    worst_case_point,
)
from .errors import NotSeparable, OracleViolation, UnsupportedGeometry


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


SeparationAnswer = _Inside | Hyperplane


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


def separation_oracle(U_descriptor, x, z) -> SeparationAnswer:
    """Membership-or-separating-hyperplane for z against U(x)."""
    x = as_vector(x)
    z = as_vector(z)
    if isinstance(U_descriptor, LpBall):
        p, gamma = U_descriptor.p, U_descriptor.gamma
        delta = z - x
        if p == 2.0:
            dist = float(np.linalg.norm(delta))
            if dist <= gamma:
                return INSIDE
            normal = delta / dist
            return Hyperplane(normal, float(normal @ x) + gamma)
        if math.isinf(p):
            dist = float(np.max(np.abs(delta)))
            if dist <= gamma:
                return INSIDE
            j = int(np.argmax(np.abs(delta)))
            normal = np.zeros_like(x)
            normal[j] = 1.0 if delta[j] > 0 else -1.0
            return Hyperplane(normal, float(normal @ x) + gamma)
        if p == 1.0:
            dist = float(np.sum(np.abs(delta)))
            if dist <= gamma:
                return INSIDE
            normal = np.sign(delta)
            return Hyperplane(normal, float(normal @ x) + gamma)
        raise UnsupportedGeometry(f"no separation oracle for p={p}")
    if isinstance(U_descriptor, Polytope):
        vals = U_descriptor.A @ (z - x)
        viol = np.nonzero(vals > U_descriptor.b)[0]
        if viol.size == 0:
            return INSIDE
        i = int(viol[0])
        row = U_descriptor.A[i]
        return Hyperplane(row, float(row @ x) + float(U_descriptor.b[i]))
    raise UnsupportedGeometry(f"no separation oracle for {type(U_descriptor).__name__}")


def bound_separation(U_descriptor, x):
    """Close the oracle over a fixed center, giving a query-only callable."""
    return lambda z: separation_oracle(U_descriptor, x, z)


def ellipsoid_feasible(sep, d: int, cfg: EllipsoidConfig, center=None):
    """Find a point the separation oracle accepts, or None when the region is
    empty up to volume_eps (budget exhausted or every semi-axis shrunk away).

    The caller guarantees the region, if non-empty with volume_eps slack, lies
    inside the init_radius ball around center.
    """
    c = np.zeros(d) if center is None else as_vector(center).copy()
    max_iters = cfg.resolved_max_iters(d)
    if d == 1:
        r = cfg.init_radius
        for _ in range(max_iters):
            ans = sep(c)
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
        ans = sep(c)
        if ans is INSIDE:
            return c
        g = ans.normal
        if float(g @ c) - ans.offset < -1e-12 * (1.0 + abs(ans.offset)):
            raise OracleViolation("separating hyperplane does not cut the center")
        Qg = Q @ g
        denom = float(g @ Qg)
        if denom <= 0.0:
            return None
        bvec = Qg / math.sqrt(denom)
        c = c - bvec / (d + 1.0)
        Q = nsq * (Q - (2.0 / (d + 1.0)) * np.outer(bvec, bvec))
        Q = 0.5 * (Q + Q.T)
        if math.sqrt(max(float(np.trace(Q)), 0.0)) < cfg.volume_eps:
            return None
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
    off = slack - y * model.bias

    def composed(z):
        if y * (float(w @ z) + model.bias) > slack:
            return Hyperplane(y * w, off)
        return sepU(z)

    return ellipsoid_feasible(composed, sample.x.shape[0], cfg, center=sample.x)


def rerm_ellipsoid(data: Dataset, sep_for_example, cfg: EllipsoidConfig) -> LinearModel:
    """Robust ERM for homogeneous halfspaces by ellipsoid search in weight
    space. Feasibility means every sample certifies robust at margin slack
    feas_slack; each failed certification contributes the cut -y_i z_i.

    sep_for_example(i) must return a query-only separation oracle for U(x_i).
    Raises NotSeparable when the budget is exhausted without a feasible point.
    """
    d = data.d
    tau = cfg.feas_slack
    oracles = [sep_for_example(i) for i in range(data.n)]

    def weight_oracle(wvec):
        nrm = float(np.linalg.norm(wvec))
        if nrm > cfg.init_radius:
            return Hyperplane(wvec / nrm, cfg.init_radius)
        for i in range(data.n):
            y = int(data.y[i])
            if not np.any(wvec):
                # w = 0 violates every margin constraint; any point of U(x_i) cuts
                z = ellipsoid_feasible(oracles[i], d, cfg, center=data.X[i])
            else:
                z = ellipsoid_certify(
                    LinearModel(wvec), data.sample(i), oracles[i], cfg, slack=tau
                )
            if z is None:
                continue
            normal = -y * np.asarray(z, dtype=float)
            if not np.any(normal):
                # constraint y <w, 0> >= tau > 0 can never hold
                raise NotSeparable("a perturbation at the origin blocks every halfspace")
            return Hyperplane(normal, -tau)
        return INSIDE

    w = ellipsoid_feasible(weight_oracle, d, cfg)
    if w is None:
        raise NotSeparable("no robustly separating halfspace within the search budget")
    return LinearModel(w)
