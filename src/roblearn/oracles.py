"""Attack, separation, and certification oracles.

The attack oracle is closed-form for lp balls (dual-norm worst case) and a
scan for finite sets. Certification against arbitrary convex perturbation
regions goes through the ellipsoid method: a separation oracle for U(x) is
composed with the misclassification halfspace, and robust ERM runs a second
ellipsoid in weight space whose cuts come from failed certifications.

Every separation oracle has one form, sep(rows, Z) -> (inside, normals,
offsets): for the queries Z[j] of the open rows `rows`, a mask of the
accepted ones and, for each other row, a cut <normals[j], z'> <= offsets[j]
that contains its region. There is one central-cut loop, `_lockstep`: it
runs k searches side by side as stacked centers and shapes, asking the
oracle for all open rows at once, so certifying a dataset costs one numpy
step per iteration rather than one per row and iteration. A single search
(`ellipsoid_feasible`, `ellipsoid_certify`) is its one-row case, and
`_separate` answers for lp balls and polytopes row by row
(`separation_oracle` closes it over one center).
Every search holds its region in its start ball by cutting with the ball
itself, so in d >= 2 a search that proves the region empty (a cut whose
halfspace misses the ellipsoid) ends there rather than at its cut count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    ball_hits,
    decision_values,
    dual_norm,
    worst_case_point,
)
from .errors import ConfigError, EllipsoidDiverged, NotSeparable, OracleViolation, UnsupportedGeometry, ZeroWeight


@dataclass(frozen=True)
class Polytope:
    """Region {z : A (z - x) <= b} relative to a center x supplied at query time."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ConfigError("need A of shape (m, d) and b of shape (m,)")
        if not (np.isfinite(A).all() and np.isfinite(b).all() and A.any(axis=1).all()):
            raise ConfigError("A and b must be finite and every row of A non-zero")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass
class EllipsoidConfig:
    """Budget and tolerances of the ellipsoid searches. A search starts in
    the init_radius ball around its center and searches only that ball: a
    point its oracle accepts farther out is cut by the ball (see _lockstep).
    The row searches of ellipsoid_certify_batch and rerm_ellipsoid over an lp
    ball start at the ball's own l2 reach when that is smaller, and refuse a
    ball that reaches past init_radius (_row_config). feas_slack is RERM's
    certification margin."""

    # None caps each search at the cut count that takes the ellipsoid's volume
    # below the volume_eps ball's (resolved_max_iters); a set value caps it
    # lower
    max_iters: int | None = None
    init_radius: float = 10.0
    feas_slack: float = 0.1
    volume_eps: float = 1e-6

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError("max_iters must be positive")
        values = (self.init_radius, self.feas_slack, self.volume_eps)
        if not all(0.0 < v < math.inf for v in values):
            raise ConfigError("config values must be positive and finite")
        if self.init_radius * self.init_radius == math.inf:  # the start shape is r^2 I
            raise ConfigError(f"init_radius {self.init_radius:.6g} is too large: "
                             "its square overflows")

    def resolved_max_iters(self, d: int) -> int:
        """The least cut count N_d after which every search ellipsoid in R^d
        is smaller than the volume_eps ball, capped by max_iters. It caps a
        search's cuts: a search that proves its region empty ends earlier
        (see _search). A central cut multiplies det Q by
        rho_d = (d^2/(d^2-1))^d (d-1)/(d+1), so N_d is the least N with
        r^(2d) rho_d^N < volume_eps^(2d); in d = 1 it is the least number of
        halvings that takes r below volume_eps."""
        r, eps = self.init_radius, self.volume_eps
        if d == 1:
            (mr, er), (me, ee) = math.frexp(r), math.frexp(eps)
            n = er - ee + (mr >= me)  # exact: r / 2^n < eps first at this n
        else:
            rho = (d * d / (d * d - 1.0)) ** d * (d - 1.0) / (d + 1.0)
            n = math.floor(2 * d * (math.log(r) - math.log(eps)) / -math.log(rho)) + 1
        n = max(n, 0)
        return n if self.max_iters is None else min(n, self.max_iters)


def default_ellipsoid_config(ball: LpBall, d: int) -> EllipsoidConfig:
    """Spec defaults, with the certification slack tied to the working radius
    and init_radius wide enough to hold the lp ball around its center. The
    weight search starts at init_radius; the row searches of
    ellipsoid_certify_batch and rerm_ellipsoid start at the ball's own l2
    reach (_row_config)."""
    slack = ball.gamma / 10.0 if ball.gamma > 0 else 1e-3
    return EllipsoidConfig(init_radius=max(10.0, _l2_reach(ball, d)), feas_slack=slack)


def _l2_reach(ball: LpBall, d: int) -> float:
    """How far in l2 the lp ball in R^d reaches from its center."""
    return ball.gamma * d ** max(0.0, 0.5 - 1.0 / ball.p)


def _row_config(U, d: int, cfg: EllipsoidConfig) -> EllipsoidConfig:
    """The config of a search over U(x) from the center x: for an lp ball the
    start radius is its l2 reach, with a relative 2^-30 to spare for the
    rounding of the reach and of r^2, so U(x) still lies in the start ball.
    It is at least volume_eps, so the search makes at least one query (the
    center), and at most init_radius. A ball that reaches past init_radius
    raises EllipsoidDiverged: the search would hold only its part within
    init_radius, where the closed form speaks of the whole ball. Other
    regions keep cfg."""
    if not isinstance(U, LpBall):
        return cfg
    reach = _l2_reach(U, d)
    if reach > cfg.init_radius:
        raise EllipsoidDiverged(f"the region reaches {reach:.6g} from the search center, "
                                f"past init_radius {cfg.init_radius:.6g}")
    r = max(reach * (1.0 + 2.0**-30), cfg.volume_eps)
    return replace(cfg, init_radius=min(r, cfg.init_radius))


def attack(model: LinearModel, sample: Sample, U: PerturbationSpec, index: int | None = None):
    """Perfect attack oracle: None iff the sample is robust; otherwise a
    misclassified (or boundary) witness in U(x).

    For lp balls the witness is the analytic worst-case point; for finite
    specs it is the first misclassified listed point, and the model may be
    any predictor exposing predict_batch.
    """
    if isinstance(U, LpBall):
        hit = ball_hits(model, sample.x[None], sample.y, U)[0]
        return worst_case_point(model, sample.x, sample.y, U) if hit else None
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


def _separate(U_descriptor, X: np.ndarray, Z: np.ndarray):
    """Row-wise membership of Z[i] in U(X[i]) for validated (k, d) stacks:
    (inside, normals, offsets), where row i outside is cut by
    <normals[i], z'> <= offsets[i]; the cuts of rows inside mean nothing."""
    if isinstance(U_descriptor, LpBall):
        p, gamma = U_descriptor.p, U_descriptor.gamma
        delta = Z - X
        if p == 2.0:
            dist = np.sqrt(np.vecdot(delta, delta))
            inside = dist <= gamma
            normal = delta / np.where(inside, 1.0, dist)[:, None]
        elif math.isinf(p):
            rows, j = np.arange(len(delta)), np.abs(delta).argmax(axis=1)
            top = delta[rows, j]  # |top| is the largest |delta| entry
            inside = np.abs(top) <= gamma
            normal = np.zeros_like(delta)
            normal[rows, j] = np.where(top > 0, 1.0, -1.0)
        elif p == 1.0:
            inside = np.abs(delta).sum(axis=1) <= gamma
            normal = np.sign(delta)
        else:
            raise UnsupportedGeometry(f"no separation oracle for p={p}")
        return inside, normal, np.vecdot(normal, X) + gamma
    if isinstance(U_descriptor, Polytope):
        viol = np.matmul(U_descriptor.A, (Z - X)[..., None])[..., 0] > U_descriptor.b
        i = viol.argmax(axis=1)
        normal = U_descriptor.A[i]
        return ~viol.any(axis=1), normal, np.vecdot(normal, X) + U_descriptor.b[i]
    raise UnsupportedGeometry(f"no separation oracle for {type(U_descriptor).__name__}")


def separation_oracle(U_descriptor, x):
    """The row-wise separation oracle for U(x), an lp ball or polytope around
    x, with x validated here, once: sep(rows, Z) answers every query Z[j]
    against U(x), whatever its row."""
    X = as_vector(x)[None]
    return lambda rows, Z: _separate(U_descriptor, X, Z)


# The searches of one lockstep run hold at most this many floats of stacked
# shapes (k d^2, 8 MiB), and a block of check_disjoint_balls as many row
# differences; more rows go in chunks, in order.
_STACK_FLOATS = 1 << 20


def check_disjoint_balls(data: Dataset, ball: LpBall) -> None:
    """Raise NotSeparable when the balls of two rows with opposite labels meet
    (distance <= 2 gamma): no halfspace has a positive margin on both."""
    if ball.p not in (1.0, 2.0, math.inf):
        raise UnsupportedGeometry(f"no separation oracle for p={ball.p}")
    pos, neg = np.flatnonzero(data.y == 1), np.flatnonzero(data.y == -1)
    X_neg = data.X[neg]
    # blocks of positive rows against every negative row, in row order, so the
    # first block that clashes holds the first clashing positive row
    block = max(1, _STACK_FLOATS // max(1, neg.size * data.d))
    for lo in range(0, pos.size, block):
        P = data.X[pos[lo:lo + block]]
        near = np.linalg.norm(X_neg - P[:, None], ord=ball.p, axis=2) <= 2.0 * ball.gamma
        if np.count_nonzero(near):
            i, j = divmod(int(near.argmax()), neg.size)
            raise NotSeparable(f"rows {pos[lo + i]} and {neg[j]} have opposite labels "
                               "and intersecting perturbation balls")


def _lockstep(sep, C: np.ndarray, cfg: EllipsoidConfig) -> list:
    """Central-cut ellipsoid searches from the k rows of C, one per row, run
    side by side: for each row a point its oracle row accepts within
    R = cfg.init_radius of the row's center, or None when there is none up
    to volume_eps (the search reached its cut count, a cut's halfspace missed
    the ellipsoid, or a cut left nothing). Every row starts in the ball
    B(c, R) around its center c, and a point z its oracle accepts farther out
    is answered with the ball's own cut, normal (z - c) / ||z - c|| and offset
    <normal, c> + R. So each row searches the part of its region in B(c, R),
    which its start ellipsoid holds, and the stop at a cut that misses the
    ellipsoid needs nothing of the oracle but cuts that contain its region. A
    point within a relative 1e-9 past R is accepted, not cut, so that a
    region whose reach is R (an lp ball searched from its own reach) is never
    cut by rounding.

    sep(rows, Z) answers the queries Z[j] of the open rows `rows` at once with
    (inside, normals, offsets): a mask, and for each row outside a raw cut
    <normals[j], z'> <= offsets[j], in new arrays that the search may write.
    Each row takes exactly the steps of its own search. A failing row stops
    the rows after it, and once the rows before it are done its error is
    raised, as a loop over the rows would raise it.
    """
    k, d = C.shape
    found = [None] * k
    chunk = max(1, _STACK_FLOATS // (d * d))
    for lo in range(0, k, chunk):
        # no overflow warns, in the search or in the oracles it asks: _search
        # rescales a cut whose Q g overflows, and raises for a center that is
        # not finite
        with np.errstate(over="ignore", invalid="ignore"):
            failure = _search(sep, C[lo:lo + chunk], lo, cfg, found)
        if failure is not None:
            raise failure
    return found


def _search(sep, C, lo, cfg, found):
    """One lockstep run over the rows lo, lo + 1, ... that C holds; fills
    found and returns the error of the lowest failing row, if any.

    Every row runs at most cfg.resolved_max_iters(d) steps: a row still open
    after that many cuts has an ellipsoid smaller than the volume_eps ball and
    ends with None. In d >= 2 a row also ends with None at the first cut that
    leaves nothing, or whose halfspace misses its ellipsoid beyond rounding
    (see _misses): its region is then empty, so the remaining cuts could only
    end in None. Over the cut count an uncut axis grows at most
    (init_radius / volume_eps)^1.1-fold in length. Every step pays a fixed
    number of numpy calls whatever k is; the masks are tested with
    count_nonzero, and the state is compacted only on the steps where a row
    leaves. Q is updated in place and stays exactly symmetric, as
    b_i b_j == b_j b_i."""
    k, d = C.shape
    rows = np.arange(lo, lo + k)
    start = C
    r = cfg.init_radius
    Q = np.broadcast_to(np.eye(d) * r**2, (k, d, d)).copy()
    nsq = d * d / (d * d - 1.0) if d > 1 else 0.0
    cut = 2.0 / (d + 1.0)
    failure = None
    for step in range(cfg.resolved_max_iters(d)):
        finite = np.isfinite(C)
        if np.count_nonzero(finite) < finite.size:
            failure = ConfigError("vector entries must be finite")
            n = int(np.argmin(finite.all(axis=1)))
            rows, C, Q = rows[:n], C[:n], Q[:n]
            if not n:
                break
        inside, G, off = sep(rows, C)
        if np.count_nonzero(inside):
            acc = np.flatnonzero(inside)
            # an accepted point past the start ball gets the ball's own cut;
            # the first step asks the start centers themselves
            if step:
                D = C[acc] - start[rows[acc] - lo]
                dist = np.sqrt(np.vecdot(D, D))
                far = dist > cfg.init_radius * (1.0 + 1e-9)
                if np.count_nonzero(far):
                    out = acc[far]
                    inside[out] = False
                    G[out] = D[far] / dist[far, None]
                    off[out] = np.vecdot(G[out], start[rows[out] - lo]) + cfg.init_radius
                    acc = acc[~far]
            for j in acc:
                found[rows[j]] = C[j].copy()
            keep = ~inside
            rows, C, Q, G, off = rows[keep], C[keep], Q[keep], G[keep], off[keep]
            if not rows.size:
                break
        gap = np.vecdot(G, C) - off
        finite = np.isfinite(gap)
        overflow = np.count_nonzero(finite) < finite.size  # or a non-finite cut
        if overflow:
            cut_ok = np.isfinite(G).all(axis=1) & np.isfinite(off)
            if not cut_ok.all():  # each cut is checked once, when it arrives
                failure = ConfigError("vector entries must be finite")
                n = int(np.argmin(cut_ok))
                rows, C, Q, G, off, gap = rows[:n], C[:n], Q[:n], G[:n], off[:n], gap[:n]
        unit = 1.0
        if d > 1:
            # matmul and vecdot round each row like the one-row Q @ g and
            # g @ Qg; einsum does not
            Qg = np.matmul(Q, G[..., None])[..., 0]
            denom = np.vecdot(G, Qg)
            if overflow or not math.isfinite(denom.sum()):
                # a finite cut whose gap or Q g overflowed is scaled by the
                # power of two 2^-e that takes its largest |g_j| into [1/2, 1),
                # which keeps its halfspace. Qg, gap, width and the violation
                # tolerance scale by 2^-e and denom by 2^-2e exactly, so every
                # test and b = Qg / width are those of every power-of-two
                # multiple of the cut that does not overflow, unless the
                # scaling pushes an entry or product below 2^-1022.
                big = ~(np.isfinite(denom) & np.isfinite(gap))
                e = np.where(big, np.frexp(np.abs(G).max(axis=1))[1], 0)
                G, off, unit = np.ldexp(G, -e[:, None]), np.ldexp(off, -e), np.ldexp(1.0, -e)
                gap = np.vecdot(G, C) - off
                Qg = np.matmul(Q, G[..., None])[..., 0]
                denom = np.vecdot(G, Qg)
        bad = gap < -1e-12 * (unit + np.abs(off))
        if np.count_nonzero(bad):
            failure = OracleViolation("separating hyperplane does not cut the center")
            n = int(np.argmax(bad))
            rows, C, Q, G, off, gap = rows[:n], C[:n], Q[:n], G[:n], off[:n], gap[:n]
            if d > 1:
                Qg, denom = Qg[:n], denom[:n]
        if not rows.size:
            break
        if d == 1:  # bisection: the interval is the ellipsoid
            C = C - np.copysign(r / 2.0, G)
            r /= 2.0
            continue
        empty = denom <= 0.0
        if np.count_nonzero(empty):
            keep = ~empty
            rows, C, Q, G, Qg, denom, off, gap = (rows[keep], C[keep], Q[keep], G[keep], Qg[keep],
                                                  denom[keep], off[keep], gap[keep])
            if not rows.size:
                break
        width = np.sqrt(denom)  # the ellipsoid's half-width along the cut normal
        missed = gap > width
        if np.count_nonzero(missed):
            missed[missed] = _misses(gap[missed], G[missed], C[missed], off[missed], Q[missed],
                                     denom[missed])
            if np.count_nonzero(missed):
                keep = ~missed
                rows, C, Q, Qg, width = rows[keep], C[keep], Q[keep], Qg[keep], width[keep]
                if not rows.size:
                    break
        b = Qg / width[:, None]
        C = C - b / (d + 1.0)
        Q -= cut * (b[:, :, None] * b[:, None, :])
        Q *= nsq
    return failure


# The emptiness stop. A cut {z : <g, z> <= off} contains the region, and so
# does the ellipsoid E = {c + Q^(1/2) u : ||u|| <= 1}: E starts as the
# init_radius ball, which holds the region as the ball's own cut keeps the
# search inside it (see _lockstep), and each central cut keeps the half of E
# the region lies in. As min over E of <g, z> is <g, c> - sqrt(g^T Q g), a
# gap <g, c> - off above the half-width sqrt(g^T Q g) means the cut's
# halfspace misses E: the region is empty, and the row ends with the None its
# remaining cuts would reach.
#
# The screen gap > sqrt(denom) compares computed values, so _misses confirms
# it beyond their rounding. With u = 2^-53, a dot product of d terms rounds
# by at most d u / (1 - d u) times the sum of the |terms|, plus 2^-1075 per
# product that underflows. So the computed gap is within
# (d + 1) u (|g|.|c| + |off|) + d 2^-1075 of the exact one, and the computed
# denom = g^T Q g within (2d + 1) u |g|^T |Q| |g| + d 2^-1075 (1 + ||g||_1);
# the bound does not use that Q is positive definite, which holds only up to
# rounding. _misses asks
#   gap - kappa (|g|.|c| + |off|) - t > sqrt(denom + kappa |g|^T |Q| |g| + t (1 + ||g||_1))
# with kappa = 8 (d + 2) u and t = (d + 1) 2^-1074. The right side bounds the
# exact half-width from above, up to its own rounding of 2u relative; the left
# side bounds the exact gap from below, with more than 4u (|g|.|c| + |off|) to
# spare. A test that passes has a right side below about |g|.|c| + |off|, so
# the spare covers the 2u and the rounding of the test itself.
def _misses(gap, G, C, off, Q, denom):
    """Of the rows whose computed gap exceeds sqrt(denom), those whose exact
    gap exceeds the exact half-width (see the comment above)."""
    d = G.shape[1]
    kappa, t = 8 * (d + 2) * 2.0**-53, (d + 1) * 2.0**-1074
    absG = np.abs(G)
    spread = np.vecdot(absG, np.matmul(np.abs(Q), absG[..., None])[..., 0])
    width = np.sqrt(denom + kappa * spread + t * (1.0 + absG.sum(axis=1)))
    return gap - kappa * (np.vecdot(absG, np.abs(C)) + np.abs(off)) - t > width


def ellipsoid_feasible(sep, d: int, cfg: EllipsoidConfig, center=None):
    """Find a point the separation oracle accepts within init_radius of
    center, or None when there is none up to volume_eps (the search reached
    its cut count, a cut's halfspace missed the ellipsoid, or a cut left
    nothing).

    sep is a row-wise oracle, asked for the one row 0 (see _lockstep), and
    each cut must contain the region. A point sep accepts past init_radius is
    cut by the start ball, so the search holds the region's part within
    init_radius and may end at a cut that misses the ellipsoid.
    """
    c = np.zeros(d) if center is None else as_vector(center)
    if c.shape != (d,):
        raise ConfigError(f"center must have {d} entries, got {c.shape[0]}")
    return _lockstep(sep, np.array([c]), cfg)[0]


def _certify_oracle(w, bias: float, y: np.ndarray, slack: float, region):
    """Row-wise oracle for {z in U(x_i) : y_i (<w, z> + bias) <= slack}: the
    misclassification cut where the decision value clears slack, and the
    answer of region(rows, Z) for U(x_i) only where it does not."""
    miss_normal, miss_offset = y[:, None] * w, slack - y * bias

    def composed(rows, Z):
        ask = ~(y[rows] * decision_values(Z, w, bias) > slack)
        n = np.count_nonzero(ask)
        if n == len(ask):
            return region(rows, Z)
        normal, offset = miss_normal[rows], miss_offset[rows]
        if not n:
            return ask, normal, offset
        inside = np.zeros_like(ask)
        inside[ask], normal[ask], offset[ask] = region(rows[ask], Z[ask])
        return inside, normal, offset

    return composed


def ellipsoid_certify(model: LinearModel, sample: Sample, sepU, cfg: EllipsoidConfig,
                      slack: float = 0.0):
    """Search U(x) for a point the model gets wrong (decision value at most
    `slack` against the label). Returns the counterexample vector, or None
    when no such point lies within init_radius of x, up to volume_eps
    (certified robust there); the search ends as soon as a cut, from sepU,
    the model or the start ball, misses its ellipsoid.

    sepU must be a row-wise separation oracle for U(x), such as
    separation_oracle(U, x), whose cuts contain U(x). The search starts in
    the init_radius ball around x and holds U(x) in it, as
    ellipsoid_feasible does.
    """
    x = as_vector(sample.x)
    sep = _certify_oracle(model.w, model.bias, np.array([float(sample.y)]), slack, sepU)
    return _lockstep(sep, x[None], cfg)[0]


def ellipsoid_certify_batch(model: LinearModel, data: Dataset, U, cfg: EllipsoidConfig) -> list:
    """ellipsoid_certify on every row of data against U(x_i), for an lp ball
    or polytope U, as one lockstep search: per row the counterexample or
    None, each row ending at its own step, at the latest its cut count.
    Raises the error the first failing row would raise on its own, and
    EllipsoidDiverged before any query for an lp ball that reaches past
    init_radius. Each row's search starts at x_i, in the init_radius ball for
    a polytope, whose None then means no counterexample within init_radius
    of x_i, and for an lp ball in the ball of its own l2 reach (_row_config),
    so a row whose misclassification halfspace misses that ball ends at its
    first cut."""
    sep = _certify_oracle(model.w, model.bias, data.y.astype(float), 0.0,
                          lambda rows, Z: _separate(U, data.X[rows], Z))
    return _lockstep(sep, data.X, _row_config(U, data.d, cfg))


def rerm_ellipsoid(data: Dataset, U, cfg: EllipsoidConfig) -> LinearModel:
    """Robust ERM for homogeneous halfspaces by ellipsoid search in weight
    space, against the lp ball or polytope U around each row. Feasibility
    means every sample certifies robust at margin slack feas_slack; each
    failed certification contributes the cut -y_i z_i. Row i is asked through
    separation_oracle(U, x_i), built when a weight query first gets to it. The
    weight search starts at the init_radius ball around 0 and, like every
    search, is held in it by the ball's cut (_lockstep). Each row search
    starts at x_i, for an lp ball in the ball of its own l2 reach
    (_row_config), for a polytope in the init_radius ball, which it then
    certifies only within init_radius of x_i.

    Over an lp ball every weight query skips the rows whose closed-form robust
    margin y_i <w, x_i> - gamma ||w||_* beats feas_slack by a relative 1e-9,
    as their certification can only return None; the rest run in order, so
    the failing row and its cut stay the same. An lp ball that reaches past
    init_radius raises EllipsoidDiverged at once. Raises NotSeparable when the
    budget is exhausted without a feasible point, and ZeroWeight when the
    search accepts w = 0, which it does when no row's region has a point
    within init_radius of the row, as no row then constrains w.
    """
    d = data.d
    tau = cfg.feas_slack
    screen = isinstance(U, LpBall)
    row_cfg = _row_config(U, d, cfg)

    def weight_oracle(_, W):
        # w = 0 violates every margin constraint; any point of U(x_i) cuts
        wvec = W[0]
        model = LinearModel(wvec) if np.any(wvec) else None
        todo = range(data.n)
        if screen:  # at w = 0 no row is proven
            raw = data.y * decision_values(data.X, wvec)
            shift = U.gamma * dual_norm(wvec, U.p)
            proven = raw - shift - tau > 1e-9 * (np.abs(raw) + shift + tau)
            todo = np.flatnonzero(~proven)
        for i in todo:
            s, sep = data.sample(i), separation_oracle(U, data.X[i])
            if model is None:
                z = ellipsoid_feasible(sep, d, row_cfg, center=s.x)
            else:
                z = ellipsoid_certify(model, s, sep, row_cfg, slack=tau)
            if z is None:
                continue
            normal = -s.y * z
            if not np.any(normal):
                # constraint y <w, 0> >= tau > 0 can never hold
                raise NotSeparable("a perturbation at the origin blocks every halfspace")
            return np.zeros(1, dtype=bool), normal[None], np.array([-tau])
        return np.ones(1, dtype=bool), np.zeros_like(W), np.zeros(1)

    w = ellipsoid_feasible(weight_oracle, d, cfg)
    if w is None:
        raise NotSeparable("no robustly separating halfspace within the search budget")
    if not np.any(w):
        raise ZeroWeight(f"no row's perturbation region reaches within init_radius "
                         f"{cfg.init_radius:.6g} of the row, so no row constrains w "
                         "and the search accepted w = 0")
    return LinearModel(w)
