import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from roblearn import (
    Dataset,
    EllipsoidConfig,
    FiniteOffsets,
    FinitePerExample,
    LinearModel,
    LpBall,
    NotSeparable,
    OracleViolation,
    Polytope,
    attack,
    default_ellipsoid_config,
    dual_norm,
    ellipsoid_certify,
    ellipsoid_feasible,
    lp_norm,
    margins_batch,
    rerm_ellipsoid,
    separation_oracle,
)
from roblearn import oracles
from roblearn.errors import (ConfigError, EllipsoidDiverged, RoblearnError, UnsupportedGeometry,
                             ZeroWeight)
from roblearn.oracles import check_disjoint_balls, ellipsoid_certify_batch

from ._refs import (
    INSIDE,
    Hyperplane,
    ball_samples,
    brute_margin_certified,
    ellipsoid_certify_ref,
    ellipsoid_feasible_ref,
    one_row,
    rerm_ellipsoid_ref,
    row_config_ref,
    separation_ref,
)


def vec(*vals):
    return np.array(vals, dtype=float)


# ---------------------------------------------------------------------------
# attack oracle
# ---------------------------------------------------------------------------


@given(
    st.integers(0, 5_000),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.floats(0.05, 1.5),
)
def test_attack_ball_matches_robustness(seed, p, gamma):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(3)
    if not np.any(w):
        w = np.ones(3)
    model = LinearModel(w, bias=float(rng.standard_normal()) * 0.3)
    x, y = rng.standard_normal(3), 1 if rng.random() < 0.5 else -1
    ball = LpBall(p, gamma)
    z = attack(model, x, y, ball)
    if y * margins_batch(model, x[None], p)[0] > gamma:
        assert z is None
    else:
        assert z is not None
        assert lp_norm(z - x, p) <= gamma * (1 + 1e-9)
        # witness decision value is against (or exactly on) the label
        assert y * model.decisions(z) <= 1e-9


def test_attack_finite_offsets_returns_first_bad_point():
    model = LinearModel(vec(1.0, 0.0))
    spec = FiniteOffsets([vec(0.0, 0.0), vec(-3.0, 0.0), vec(-5.0, 0.0)])
    z = attack(model, vec(1.0, 0.0), 1, spec)
    assert np.allclose(z, [-2.0, 0.0])
    assert attack(model, vec(10.0, 0.0), 1, spec) is None


def test_attack_per_example_table_needs_index():
    model = LinearModel(vec(1.0))
    table = FinitePerExample({0: np.array([[2.0]]), 1: np.array([[-2.0]])})
    assert attack(model, vec(1.0), 1, table, index=0) is None
    z = attack(model, vec(1.0), 1, table, index=1)
    assert np.allclose(z, [-2.0])


# ---------------------------------------------------------------------------
# separation oracles
# ---------------------------------------------------------------------------


@given(
    st.integers(0, 5_000),
    st.sampled_from([1.0, 2.0, math.inf]),
)
def test_ball_separation_cuts_query_not_region(seed, p):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    gamma = 0.5
    ball = LpBall(p, gamma)
    z = x + rng.standard_normal(3) * 1.5
    (inside,), (normal,), (offset,) = separation_oracle(ball, x)(np.arange(1), z[None])
    if lp_norm(z - x, p) <= gamma:
        assert inside
    else:
        assert not inside and float(normal @ z) > offset - 1e-12
        inside_pts = ball_samples(x, p, gamma, 200, rng)
        assert np.all(inside_pts @ normal <= offset + 1e-9)


def test_polytope_separation_matches_box():
    box = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.full(4, 0.5))
    Z = np.array([[1.4, 0.8], [1.7, 1.0]])
    inside, normal, offset = separation_oracle(box, vec(1.0, 1.0))(np.arange(2), Z)
    assert inside.tolist() == [True, False]
    assert float(normal[1] @ Z[1]) > offset[1]


def test_polytope_validates_shapes():
    with pytest.raises(ValueError):
        Polytope(np.zeros((2, 2)), np.zeros(3))


@pytest.mark.parametrize("A, b", [
    ([[1.0, 0.0], [0.0, 0.0]], [1.0, -1.0]),  # a zero row cannot cut
    ([[1.0, np.nan]], [1.0]),
    ([[1.0, 0.0]], [np.inf]),
])
def test_polytope_rejects_rows_that_cannot_cut(A, b):
    with pytest.raises(ValueError):
        Polytope(np.array(A), np.array(b))


@pytest.mark.parametrize("U", [LpBall(1.0, 0.5), LpBall(2.0, 0.5), LpBall(math.inf, 0.5),
                               Polytope(np.eye(2), np.full(2, 0.5))])
def test_public_separation_oracle_validates_and_answers_hyperplanes(U):
    # the factory refuses a center that is not finite; the oracle it returns
    # answers a stack of queries with the scalar reference's cuts, bit for bit
    x = vec(0.3, -0.7)
    Z = np.array([[2.0, 1.0], [0.4, -0.5], [-3.0, 0.25], [0.3, -1.9]])
    inside, normals, offsets = separation_oracle(U, x)(np.arange(4), Z)
    want = [separation_ref(U, x, z) for z in Z]
    assert inside.tolist() == [ans is INSIDE for ans in want] and not inside.all()
    for normal, offset, ans in zip(normals, offsets, want):
        assert ans is INSIDE or (normal.tobytes() == ans.normal.tobytes() and offset == ans.offset)
    for bad in (vec(np.nan, 0.0), vec(0.0, np.inf)):
        with pytest.raises(ValueError):
            separation_oracle(U, bad)


# ---------------------------------------------------------------------------
# ellipsoid feasibility search
# ---------------------------------------------------------------------------


def test_feasible_point_found_in_shifted_ball():
    cfg = EllipsoidConfig()
    target = LpBall(2.0, 0.2)
    center = vec(3.0, 4.0)
    z = ellipsoid_feasible(separation_oracle(target, center), 2, cfg, center=vec(0.0, 0.0))
    assert z is not None
    assert np.linalg.norm(z - center) <= 0.2 + 1e-9


def test_a_center_of_the_wrong_length_is_a_config_error():
    sep = separation_oracle(LpBall(2.0, 0.5), vec(0.0, 0.0))
    with pytest.raises(ConfigError, match="center must have 2 entries, got 3"):
        ellipsoid_feasible(sep, 2, EllipsoidConfig(), center=vec(0.0, 0.0, 0.0))


def test_feasible_one_dimensional_interval():
    cfg = EllipsoidConfig()
    strip = Polytope(np.array([[1.0], [-1.0]]), np.array([0.4, -0.3]))
    z = ellipsoid_feasible(separation_oracle(strip, vec(0.0)), 1, cfg)
    assert z is not None and 0.3 <= z[0] <= 0.4


def test_feasible_returns_none_on_empty_region():
    cfg = EllipsoidConfig()
    empty = Polytope(np.array([[1.0], [-1.0]]), np.array([0.3, -0.4]))  # z <= .3 and z >= .4
    assert ellipsoid_feasible(separation_oracle(empty, vec(0.0)), 1, cfg) is None
    empty2 = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.3, -0.4]))
    assert ellipsoid_feasible(separation_oracle(empty2, vec(0.0, 0.0)), 2, cfg) is None


def test_bogus_oracle_cut_is_detected():
    cfg = EllipsoidConfig()

    def lying(z):
        # claims the center is cut by a hyperplane that does not contain it
        return Hyperplane(vec(1.0, 0.0), float(z[0]) + 1.0)

    with pytest.raises(OracleViolation):
        ellipsoid_feasible(one_row(lying), 2, cfg)


def test_user_oracle_answering_hyperplanes_drives_the_search():
    cfg = EllipsoidConfig()
    for d, U in ((1, Polytope(np.array([[1.0], [-1.0]]), np.array([0.4, -0.3]))),
                 (2, LpBall(2.0, 0.2)), (3, LpBall(1.0, 0.3))):
        x = np.linspace(1.0, 2.0, d)
        calls = []

        def user(z):
            calls.append(z.copy())
            return separation_ref(U, x, z)

        got = ellipsoid_feasible(one_row(user), d, cfg)
        assert np.array_equal(got, ellipsoid_feasible(separation_oracle(U, x), d, cfg))
        assert len(calls) > 1 and separation_ref(U, x, got) is INSIDE


def test_non_finite_center_raises_before_the_next_query():
    calls = []

    def poisoned(normal, offset):
        # an unvalidated raw cut: a NaN normal sends the center to NaN, and a
        # NaN offset (or any NaN cut in d = 1) used to run on to "region empty"
        def sep(z):
            calls.append(z.copy())
            return normal, offset
        return sep

    for d, normal, offset in ((2, vec(np.nan, 1.0), 0.0), (1, vec(np.nan), 0.0),
                              (2, vec(1.0, 0.0), np.nan), (1, vec(1.0), np.nan)):
        calls.clear()
        with pytest.raises(ValueError, match="finite"):
            ellipsoid_feasible(one_row(poisoned(normal, offset)), d, EllipsoidConfig())
        assert len(calls) == 1
    with pytest.raises(ValueError, match="finite"):
        ellipsoid_feasible(one_row(poisoned(vec(np.nan, 1.0), 0.0)), 2, EllipsoidConfig(),
                           center=vec(np.inf, 0.0))


def test_a_center_that_overflows_raises_before_the_next_query():
    # from a start ball of radius 1.3e154, whose r^2 is finite, a cut along
    # z_1 grows the z_2 axis of Q past the largest float, and a cut along z_2
    # then sends the center to NaN: the row raises before its third query,
    # alone and in lockstep after a row found at its first
    cuts = {0: vec(1.0, 0.0), 1: vec(0.0, 1.0)}
    asked = []

    def sep(z):
        g = cuts[len(asked)]
        asked.append(z.copy())
        return g, float(g @ z)

    def rowwise(rows, Z):
        inside = rows == 0
        cut = [(np.zeros(2), 0.0) if i == 0 else sep(z) for i, z in zip(rows, Z)]
        return inside, np.array([g for g, _ in cut]), np.array([off for _, off in cut])

    cfg = EllipsoidConfig(init_radius=1.3e154)
    alone = _outcome(lambda s: ellipsoid_feasible(one_row(s), 2, cfg), sep)
    asked.clear()
    with pytest.raises(ValueError, match="finite"):
        oracles._lockstep(rowwise, np.zeros((2, 2)), cfg)
    assert alone[1:] == (ConfigError, 2) and len(asked) == 2


def test_a_cut_with_a_huge_normal_searches_like_its_unit_scaled_twin():
    # rows of norm 1e307 would overflow Q g; the search scales each cut by a
    # power of two first, so it takes the steps of the polytope whose rows
    # that power takes into [1/2, 1), alone and beside another row
    m, e = math.frexp(1e307)
    huge = Polytope(np.array([[1e307, 1e307], [-1e307, 0.0]]), np.array([-1e307, -0.5e307]))
    twin = Polytope(np.array([[m, m], [-m, 0.0]]), np.array([-m, -m / 2.0]))
    x, cfg = vec(0.0, 0.0), EllipsoidConfig(init_radius=2.0)
    ball = separation_oracle(LpBall(2.0, 0.1), vec(1.0, 1.0))
    alone, lockstep = [], []
    for U in (huge, twin):
        alone.append(_outcome(lambda s: ellipsoid_feasible(s, 2, cfg), separation_oracle(U, x)))
        lockstep.append(oracles._lockstep(_stacked([ball, separation_oracle(U, x)]),
                                          np.zeros((2, 2)), cfg))
    assert alone[0][1:] == alone[1][1:] == (None, 9)
    assert alone[0][0].tobytes() == alone[1][0].tobytes() == lockstep[0][1].tobytes()
    assert [z.tobytes() for z in lockstep[0]] == [z.tobytes() for z in lockstep[1]]
    # from a center 20 away the gap <g, c> - off overflows as well: it is
    # taken again from the scaled cut, which finds the twin's point
    far = [ellipsoid_feasible(separation_oracle(Polytope(np.array([[a, 0.0]]), np.zeros(1)), x), 2,
                              EllipsoidConfig(init_radius=30.0), center=vec(20.0, 0.0))
           for a in (1e307, m)]
    assert far[0] is not None and far[0].tobytes() == far[1].tobytes()
    # and a gap that overflows to nan still shows a cut that misses the center
    for a in (1e307, m):
        with pytest.raises(OracleViolation):
            ellipsoid_feasible(one_row(lambda z: (vec(a, a), a / 10.0)), 2, cfg,
                               center=vec(20.0, -20.0))


def test_config_validation_and_defaults():
    with pytest.raises(ValueError):
        EllipsoidConfig(max_iters=0)
    for bad in (dict(init_radius=-1.0), dict(volume_eps=math.nan), dict(feas_slack=math.inf),
                dict(init_radius=1e200)):  # 1e200 squared overflows
        with pytest.raises(ValueError):
            EllipsoidConfig(**bad)
    assert default_ellipsoid_config(LpBall(2.0, 1.0), 2).feas_slack == pytest.approx(0.1)
    assert default_ellipsoid_config(LpBall(2.0, 0.0), 2).feas_slack == pytest.approx(1e-3)
    # the start ball holds the lp ball: 19 sqrt(3) for the l-inf ball in R^3
    assert default_ellipsoid_config(LpBall(2.0, 9.0), 3).init_radius == 10.0
    assert default_ellipsoid_config(LpBall(1.0, 19.0), 3).init_radius == 19.0
    assert default_ellipsoid_config(LpBall(math.inf, 19.0), 3).init_radius == \
        pytest.approx(19.0 * math.sqrt(3.0))


def test_one_dimensional_count_is_the_number_of_halvings():
    # the least n with init_radius / 2^n < volume_eps, capped by max_iters
    for r, eps, n in ((10.0, 1e-6, 24), (1.0, 2.0**-10, 11), (1.0, 1.0, 1), (1.0, 2.0, 0),
                      (3.0, 1.0, 2), (4.0, 1.0, 3), (1e150, 1e-300, 1495), (1.0, 5e-324, 1075)):
        assert EllipsoidConfig(init_radius=r, volume_eps=eps).resolved_max_iters(1) == n
    assert EllipsoidConfig(max_iters=5).resolved_max_iters(1) == 5


@pytest.mark.parametrize("d", range(2, 11))
def test_count_stop_is_where_the_volume_falls_below_the_eps_ball(d):
    # every central cut scales det Q by the same factor, whatever the cut:
    # after N_d - 1 cuts log det Q is still at least 2d ln(volume_eps), after
    # N_d cuts it is below
    cfg = EllipsoidConfig()
    n = cfg.resolved_max_iters(d)
    capped = [EllipsoidConfig(max_iters=m).resolved_max_iters(d) for m in (n - 1, n + 1)]
    assert capped == [n - 1, n]
    rng = np.random.default_rng(d)
    Q = np.eye(d) * cfg.init_radius**2
    logdets = []
    for _ in range(n):
        g = rng.standard_normal(d)
        b = Q @ g / math.sqrt(float(g @ Q @ g))
        Q = d * d / (d * d - 1.0) * (Q - 2.0 / (d + 1.0) * np.outer(b, b))
        logdets.append(np.linalg.slogdet(Q)[1])
    bound = 2 * d * math.log(cfg.volume_eps)
    assert logdets[-2] >= bound > logdets[-1]


# ---------------------------------------------------------------------------
# certification: ellipsoid search against the closed-form margin route
# ---------------------------------------------------------------------------


@given(st.integers(0, 3_000), st.sampled_from([2.0, math.inf]))
def test_certify_agrees_with_margin_route_when_clear(seed, p):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(2)
    if np.linalg.norm(w) < 0.3:
        w = vec(1.0, 0.5)
    model = LinearModel(w, bias=float(rng.standard_normal()) * 0.2)
    x = rng.standard_normal(2)
    y = 1 if rng.random() < 0.5 else -1
    gamma = 0.4
    # skip the thin band where finite volume tolerance may legitimately differ
    worst = y * model.decisions(x) - gamma * lp_norm(w, 1.0 if math.isinf(p) else 2.0)
    if abs(worst) < 0.05:
        return
    cfg = EllipsoidConfig(feas_slack=1e-9, volume_eps=1e-8)
    hit = ellipsoid_certify(model, x, y, LpBall(p, gamma), cfg)
    certified = brute_margin_certified(w, model.bias, x, y, p, gamma)
    if certified:
        assert hit is None
    else:
        assert hit is not None
        assert lp_norm(hit - x, p) <= gamma + 1e-6
        assert y * model.decisions(hit) <= 1e-9


def test_rerm_finds_robust_separator_in_two_dimensions():
    data = Dataset(np.array([[2.0, 0.1], [1.5, -0.5], [-2.0, 0.3], [-1.7, 0.6]]),
                   np.array([1, 1, -1, -1]))
    gamma = 0.3
    for ball in (LpBall(2.0, gamma), LpBall(math.inf, gamma)):
        cfg = default_ellipsoid_config(ball, 2)
        model = rerm_ellipsoid(data, ball, cfg)
        for i in range(data.n):
            assert brute_margin_certified(model.w, model.bias, data.X[i], int(data.y[i]),
                                          ball.p, gamma)


@pytest.mark.parametrize("rows, message", [
    ([[1.0, 0.0], [1.0, 0.0]], "no robustly separating halfspace"),  # the labels collide
    # the origin lies in row 0's ball, and y <w, 0> >= feas_slack holds for no w
    ([[0.0, 0.0], [3.0, 0.0]], "a perturbation at the origin"),
], ids=["labels-collide", "origin"])
def test_rerm_raises_when_no_halfspace_separates(rows, message):
    data = Dataset(np.array(rows), np.array([1, -1]))
    ball = LpBall(2.0, 0.1)
    cfg = EllipsoidConfig(max_iters=2000)
    with pytest.raises(NotSeparable, match=f"^{message}"):
        rerm_ellipsoid(data, ball, cfg)


# ---------------------------------------------------------------------------
# the loop against the reference that validates every query and answer,
# builds Q out of place and re-symmetrizes it
# ---------------------------------------------------------------------------


def _region(kind, rng, d):
    """A ball or polytope; about a fifth are a single point or empty, so the
    search runs until the ellipsoid shrinks below volume_eps. Half the other
    polytopes are closed by d + 1 rows that span R^d positively, reaching a
    few units; the rest are mostly unbounded."""
    degenerate = rng.random() < 0.2
    if kind == "poly":
        m = int(rng.integers(1, 5))
        A = rng.standard_normal((m, d))
        A[np.all(A == 0.0, axis=1), 0] = 1.0
        b = rng.uniform(-0.4, 1.0, m)
        if rng.random() < 0.5:
            G = rng.standard_normal((d, d))
            A, b = np.vstack([A, G, -G.sum(axis=0)]), np.append(b, rng.uniform(0.2, 2.0, d + 1))
        if degenerate:  # a_0 (z - x) <= b_0 and -a_0 (z - x) <= -b_0 - 0.1 clash
            A, b = np.vstack([A, -A[0]]), np.append(b, -b[0] - 0.1)
        return Polytope(A, b)
    gamma = 0.0 if degenerate else float(rng.uniform(0.0, 1.5))
    return LpBall({"l1": 1.0, "l2": 2.0, "linf": math.inf}[kind], gamma)


REGIONS = st.sampled_from(["l1", "l2", "linf", "poly"])


def _outcome(search, sep):
    """A search's result or error class, and how many queries sep answered:
    sep is a scalar reference oracle or the row-wise oracle of one row."""
    answered = []

    def counted(*query):
        ans = sep(*query)
        answered.append(1)
        return ans

    try:
        return search(counted), None, len(answered)
    except (ValueError, RoblearnError) as exc:
        return None, type(exc), len(answered)


def _assert_same_outcome(got, want, queries=True):
    assert got[1:] == want[1:] if queries else got[1] == want[1]
    assert (got[0] is None) == (want[0] is None)
    assert got[0] is None or np.array_equal(got[0], want[0])


def _feasible_outcomes(seed, kind, d, max_iters, volume_eps):
    """The search's outcome, and the reference's with and without the stop."""
    rng = np.random.default_rng(seed)
    cfg = EllipsoidConfig(max_iters=max_iters, init_radius=float(rng.uniform(1.0, 10.0)),
                          volume_eps=volume_eps)
    U = _region(kind, rng, d)
    x = rng.standard_normal(d) * 2.0
    center = None if rng.random() < 0.3 else rng.standard_normal(d)
    got = _outcome(lambda sep: ellipsoid_feasible(sep, d, cfg, center=center),
                   separation_oracle(U, x))
    want, unstopped = (
        _outcome(lambda sep: ellipsoid_feasible_ref(sep, d, cfg, center=center, stop=stop),
                 lambda z: separation_ref(U, x, z)) for stop in (True, False))
    return got, want, unstopped


@given(st.integers(0, 10_000), REGIONS, st.integers(1, 3),
       st.one_of(st.none(), st.integers(1, 400)), st.sampled_from([1e-3, 1e-6]))
def test_feasible_matches_reference(seed, kind, d, max_iters, volume_eps):
    got, want, unstopped = _feasible_outcomes(seed, kind, d, max_iters, volume_eps)
    _assert_same_outcome(got, want)
    _assert_same_outcome(got, unstopped, queries=False)


def test_region_outside_the_initial_ellipsoid_ends_at_its_first_cut():
    # an l-inf box wholly outside the start ball: its first cut misses the
    # ball, so the search ends at once with the None that the search without
    # the stop reaches after its 266 cuts, through separation_oracle and
    # through a caller's scalar oracle alike
    got, want, unstopped = _feasible_outcomes(2, "linf", 3, None, 1e-6)
    _assert_same_outcome(got, want)
    assert got == (None, None, 1) and unstopped == (None, None, 266)
    rng = np.random.default_rng(2)  # the draws of _feasible_outcomes, center 0
    cfg = EllipsoidConfig(init_radius=float(rng.uniform(1.0, 10.0)), volume_eps=1e-6)
    U, x = _region("linf", rng, 3), rng.standard_normal(3) * 2.0
    assert rng.random() < 0.3 and np.linalg.norm(x) - U.gamma * math.sqrt(3.0) > cfg.init_radius
    assert cfg.resolved_max_iters(3) == 266
    assert _outcome(lambda sep: ellipsoid_feasible(one_row(sep), 3, cfg),
                    lambda z: separation_ref(U, x, z)) == got


def test_lp_balls_past_the_start_are_refused_before_any_query(monkeypatch):
    # the l-inf ball of radius 0.8 reaches 0.8 sqrt 2 > 1 from its center in
    # l2, the l2 ball of radius 0.8 only 0.8
    data = Dataset(np.array([[2.0, 0.0], [-2.0, 0.0]]), np.array([1, -1]))
    model, cfg = LinearModel(vec(1.0, 0.0)), EllipsoidConfig(init_radius=1.0)
    wide = LpBall(math.inf, 0.8)
    monkeypatch.setattr(oracles, "_separate", None)  # any query fails
    for search in (lambda: ellipsoid_certify_batch(model, data, wide, cfg),
                   lambda: ellipsoid_certify(model, data.X[0], data.y[0], wide, cfg),
                   lambda: rerm_ellipsoid(data, wide, cfg)):
        with pytest.raises(EllipsoidDiverged):
            search()
    monkeypatch.undo()
    assert ellipsoid_certify_batch(model, data, LpBall(2.0, 0.8), cfg) == [None, None]


@pytest.mark.parametrize("U, radius", [(LpBall(1.0, 0.3), 10.0), (LpBall(math.inf, 1e-9), 1.0),
                                       (LpBall(2.0, 1.0), 1.0), (Polytope(np.eye(2), np.ones(2)), 1.0)])
def test_row_config_returns_a_resolved_config_as_it_is(U, radius):
    # RERM resolves its row config once and passes it to every row's
    # ellipsoid_certify, which resolves it again: no copy is made then, nor
    # where the start radius is init_radius already (the unit l2 ball)
    cfg = EllipsoidConfig(init_radius=radius)
    row_cfg = oracles._row_config(U, 2, cfg)
    assert row_cfg == row_config_ref(U, 2, cfg)
    assert (row_cfg is cfg) == (row_cfg.init_radius == radius)
    assert oracles._row_config(U, 2, row_cfg) is row_cfg


def test_polytopes_past_the_start_are_searched_within_init_radius():
    # U(x) = {z : z_1 - x_1 <= -20} holds points the model gets wrong, all
    # 20 or more from x, and so does the box -21 <= z_1 - x_1 <= -20,
    # |z_2| <= 1. From a start ball of radius 2 every search finds no point
    # and certifies the row, and RERM finds every row's region empty, so it
    # accepts w = 0 and says that no row constrains w; from radius 30 the searches
    # find a counterexample within the ball. An empty strip has none.
    data = Dataset(np.array([[2.0, 0.0], [-2.0, 0.0]]), np.array([1, -1]))
    model, x = LinearModel(vec(1.0, 0.0), bias=-0.5), data.X[0]
    half = Polytope(np.array([[1.0, 0.0]]), np.array([-20.0]))
    box = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([-20.0, 1.0, 21.0, 1.0]))
    empty = Polytope(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([0.3, -0.4]))
    for U in (half, box):
        sep = separation_oracle(U, x)
        for r in (2.0, 30.0):
            cfg = EllipsoidConfig(init_radius=r)
            batch = ellipsoid_certify_batch(model, data, U, cfg)
            z = ellipsoid_certify(model, x, data.y[0], U, cfg)
            found = ellipsoid_feasible(sep, 2, cfg, center=x)
            assert batch[1] is None and (z is None) == (found is None) == (r == 2.0)
            assert z is None or (z.tobytes() == batch[0].tobytes() and model.decisions(z) <= 0
                                 and np.linalg.norm(z - x) <= r * (1.0 + 1e-9))
            assert found is None or sep(np.arange(1), found[None])[0][0]
        with pytest.raises(ZeroWeight, match="no row's perturbation region reaches within init_radius 2 "):
            rerm_ellipsoid(data, U, EllipsoidConfig(init_radius=2.0))
    assert ellipsoid_certify_batch(model, data, empty, EllipsoidConfig(init_radius=2.0)) == \
        [None, None]


def test_an_unbounded_polytope_is_searched_within_init_radius():
    # three random rows in R^3 leave an unbounded cone. Row 1's region (its
    # cone minus the points the model gets right) has no point within 10 of
    # x: the stop certifies it, as the search without the stop does, which
    # without the start ball's cut let its ellipsoids grow and found a point
    # 35.8 from x. From radius 30 the batch and the reference find the same
    # point, past 10.
    rng = np.random.default_rng(45)
    cfg = EllipsoidConfig(init_radius=float(rng.choice([0.3, 10.0])),
                          volume_eps=float(rng.choice([1e-3, 1e-6])))
    assert not rng.random() < 0.2 and int(rng.integers(1, 5)) == 3
    U = Polytope(rng.standard_normal((3, 3)), rng.uniform(-0.4, 1.0, 3))
    model = LinearModel(rng.standard_normal(3) + 0.1, bias=float(rng.standard_normal()) * 0.5)
    X = rng.standard_normal((4, 3))
    y = np.where(X @ model.w + model.bias >= 0.0, 1, -1) * np.where(rng.random(4) < 0.8, 1, -1)
    unstopped, stopped = (_outcome(lambda sep: ellipsoid_certify_ref(model.w, model.bias, X[1],
                                                                     int(y[1]), sep, cfg,
                                                                     stop=stop),
                                   lambda z: separation_ref(U, X[1], z))
                          for stop in (False, True))
    assert cfg.init_radius == 10.0 and unstopped[:2] == stopped[:2] == (None, None)
    assert stopped[2] < unstopped[2]
    assert ellipsoid_certify_batch(model, Dataset(X, y), U, cfg)[1] is None
    wide = EllipsoidConfig(init_radius=30.0, volume_eps=cfg.volume_eps)
    z = ellipsoid_certify_batch(model, Dataset(X, y), U, wide)[1]
    want = ellipsoid_certify_ref(model.w, model.bias, X[1], int(y[1]),
                                 lambda z: separation_ref(U, X[1], z), wide)
    assert z.tobytes() == want.tobytes() and 10.0 < np.linalg.norm(z - X[1]) <= 30.0 * (1.0 + 1e-9)


@given(st.integers(0, 10_000), REGIONS, st.integers(1, 3), st.sampled_from([0.0, 0.05]))
def test_certify_matches_reference(seed, kind, d, slack):
    # the reference starts at row_config_ref, and an lp ball past a start
    # radius of 0.3 is refused before any query; the queries counted are the
    # row oracle's answers, those of _separate inside the search
    rng = np.random.default_rng(seed)
    cfg = EllipsoidConfig(init_radius=float(rng.choice([0.3, 10.0])),
                          volume_eps=float(rng.choice([1e-3, 1e-6])))
    U = _region(kind, rng, d)
    model = LinearModel(rng.standard_normal(d) + 0.1, bias=float(rng.standard_normal()) * 0.5)
    x = rng.standard_normal(d)
    y = 1 if rng.random() < 0.5 else -1

    def certify(sep):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_separate", sep)
            return ellipsoid_certify(model, x, y, U, cfg, slack=slack)

    got = _outcome(certify, oracles._separate)
    want, unstopped = (_outcome(lambda sep: ellipsoid_certify_ref(model.w, model.bias, x, y, sep,
                                                                  row_config_ref(U, d, cfg),
                                                                  slack=slack, stop=stop),
                                lambda z: separation_ref(U, x, z)) for stop in (True, False))
    _assert_same_outcome(got, want)
    _assert_same_outcome(got, unstopped, queries=False)
    if slack == 0.0:  # the one-row batch, bit for bit and error for error
        batch, err = _rows_outcome(lambda: ellipsoid_certify_batch(model, Dataset(x[None], [y]),
                                                                   U, cfg))
        assert err is got[1]
        if err is None:
            assert (got[0] is None) == (batch[0] is None)
            assert got[0] is None or got[0].tobytes() == batch[0].tobytes()


def _rows_outcome(search):
    """A batch's per-row results, or its error class."""
    try:
        return search(), None
    except (ValueError, RoblearnError) as exc:
        return None, type(exc)


def _exact_misses(g, c, off, Q) -> bool:
    """<g, c> - off > sqrt(g^T Q g), in rational arithmetic on the floats."""
    g, c, Q = ([Fraction(float(v)) for v in a.ravel()] for a in (g, c, Q))
    d = len(g)
    gap = sum(a * b for a, b in zip(g, c)) - Fraction(float(off))
    denom = sum(g[i] * Q[i * d + j] * g[j] for i in range(d) for j in range(d))
    return gap > 0 and gap * gap > denom


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(0, 0), (-260, -260), (-500, 0), (0, -500),
                                                 (-30, 40), (240, 0), (0, 240)]))
def test_the_emptiness_stop_holds_in_exact_arithmetic(seed, exps):
    # cuts whose gap sits within a few ulps of the half-width sqrt(g^T Q g),
    # scaled by 2^g_exp and 2^q_exp, from a g^T Q g of 2^-1040 (underflowing
    # products) to 2^480: the stop never closes a row the exact test keeps
    # open, and it closes every row ahead by 1e-9 whose g^T Q g is a normal
    # float (a subnormal one has lost the digits to tell)
    g_exp, q_exp = exps
    rng = np.random.default_rng(seed)
    k, d = 40, int(rng.integers(2, 5))
    G = rng.standard_normal((k, d)) * 2.0**g_exp
    M = rng.standard_normal((k, d, d)) * 2.0**q_exp
    Q = np.matmul(M, M.transpose(0, 2, 1))
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    C = rng.standard_normal((k, d)) * 2.0**q_exp
    denom = np.vecdot(G, np.matmul(Q, G[..., None])[..., 0])
    ahead = rng.choice([-4e-16, -1e-16, 0.0, 1e-16, 4e-16, 1e-15, 1e-9], k)
    off = np.vecdot(G, C) - np.sqrt(denom) * (1.0 + ahead)
    gap = np.vecdot(G, C) - off
    assert np.isfinite(gap).all() and (denom > 0.0).all()
    got = oracles._misses(gap, G, C, off, Q, denom)
    exact = np.array([_exact_misses(G[i], C[i], off[i], Q[i]) for i in range(k)])
    assert not (got & ~exact).any()
    assert got[(ahead == 1e-9) & (denom >= 2.0**-1022)].all()


def count_certify_steps(monkeypatch) -> list:
    """Count the lockstep steps of each row in every ellipsoid_certify_batch
    call from now on: the list gets one array of per-row counts per call."""
    runs, certify_oracle = [], oracles._certify_oracle

    def counted_oracle(w, bias, y, slack, region):
        composed, steps = certify_oracle(w, bias, y, slack, region), np.zeros(len(y), dtype=int)
        runs.append(steps)

        def counted(rows, Z):
            steps[rows] += 1
            return composed(rows, Z)
        return counted

    monkeypatch.setattr(oracles, "_certify_oracle", counted_oracle)
    return runs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), REGIONS, st.integers(1, 3), st.integers(1, 12),
       st.sampled_from([2, 3]))
def test_certify_batch_matches_reference_row_by_row(seed, kind, d, n, chunk_rows):
    # most rows are right at x, so they are attacked after a few cuts or
    # certified once the ellipsoid shrinks away; the rest are attacked at x.
    # A start radius of 0.3 leaves some regions partly outside the start, and
    # most open polytopes are unbounded: the searches hold them in the start
    # ball, and an lp ball past it is refused before any query.
    # The batch certifies at slack 0; test_certify_matches_reference covers
    # a positive slack through the same composed oracle.
    rng = np.random.default_rng(seed)
    cfg = EllipsoidConfig(init_radius=float(rng.choice([0.3, 10.0])),
                          volume_eps=float(rng.choice([1e-3, 1e-6])))
    U = _region(kind, rng, d)
    model = LinearModel(rng.standard_normal(d) + 0.1, bias=float(rng.standard_normal()) * 0.5)
    X = rng.standard_normal((n, d))
    y = np.where(X @ model.w + model.bias >= 0.0, 1, -1) * np.where(rng.random(n) < 0.8, 1, -1)
    want, unstopped = ([_outcome(lambda sep: ellipsoid_certify_ref(model.w, model.bias, X[i],
                                                                   int(y[i]), sep,
                                                                   row_config_ref(U, d, cfg),
                                                                   stop=stop),
                                 lambda z, x=X[i]: separation_ref(U, x, z)) for i in range(n)]
                       for stop in (True, False))
    failed = [err for _, err, _ in want if err is not None]
    assert failed == [err for _, err, _ in unstopped if err is not None]
    data = Dataset(X, y)
    whole = _rows_outcome(lambda: ellipsoid_certify_batch(model, data, U, cfg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_STACK_FLOATS", chunk_rows * d * d)
        chunked = _rows_outcome(lambda: ellipsoid_certify_batch(model, data, U, cfg))
    for got, err in (whole, chunked):
        # the error of the lowest failing row, the first a row loop meets
        assert err is (failed[0] if failed else None)
        for i, (z, (ref, _, _)) in enumerate(zip(got or [], want)):
            assert (z is None) == (ref is None)
            assert z is None or z.tobytes() == ref.tobytes()
            _assert_same_outcome((z, None), unstopped[i], queries=False)


@pytest.mark.parametrize("U", [LpBall(2.0, 0.3), LpBall(math.inf, 0.2),
                               Polytope(np.array([[1.0, 0.2], [-0.5, 1.0], [0.0, -1.0]]),
                                        np.array([0.3, 0.2, 0.25]))])
def test_certify_batch_matches_reference_across_closing_steps(monkeypatch, U):
    # most rows are right at x, with margins spread around the radius: they
    # are attacked after one to dozens of cuts or certified once the ellipsoid
    # shrinks away, so rows leave the lockstep at many different steps. The
    # steps are counted on the lockstep's composed oracle: from a start ball
    # that is the l2 ball itself, U(x) is asked at most once per row.
    rng = np.random.default_rng(5)
    model = LinearModel(vec(1.0, -0.5), bias=0.1)
    X = rng.standard_normal((40, 2))
    y = np.where(X @ model.w + model.bias >= 0.0, 1, -1) * np.where(rng.random(40) < 0.85, 1, -1)
    cfg = EllipsoidConfig()
    row_cfg = row_config_ref(U, 2, cfg)
    want, unstopped = ([_outcome(lambda sep: ellipsoid_certify_ref(model.w, model.bias, X[i],
                                                                   int(y[i]), sep, row_cfg,
                                                                   stop=stop),
                                 lambda z, x=X[i]: separation_ref(U, x, z)) for i in range(40)]
                       for stop in (True, False))
    with pytest.MonkeyPatch.context() as mp:
        steps = count_certify_steps(mp)
        got = ellipsoid_certify_batch(model, Dataset(X, y), U, cfg)
    assert len(set(steps[0].tolist())) >= 6
    monkeypatch.setattr(oracles, "_STACK_FLOATS", 3 * 2 * 2)  # chunks of 3 rows
    assert [z is None or z.tobytes() for z in ellipsoid_certify_batch(model, Dataset(X, y), U, cfg)] \
        == [z is None or z.tobytes() for z in got]
    for z, (ref, err, _), old in zip(got, want, unstopped):
        assert err is None and (z is None) == (ref is None)
        assert z is None or z.tobytes() == ref.tobytes()
        _assert_same_outcome((z, None), old, queries=False)


def _stacked(seps):
    """A row-wise oracle that asks row i's query of the row-wise oracle
    seps[i], one row at a time."""
    def sep(rows, Z):
        answers = [seps[i](rows[j:j + 1], Z[j:j + 1]) for j, i in enumerate(rows)]
        return tuple(np.concatenate(parts) for parts in zip(*answers))
    return sep


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.lists(REGIONS, min_size=1, max_size=5), st.integers(1, 3),
       st.sampled_from([1e-3, 1e-6]))
def test_lockstep_matches_reference_searches_row_by_row(seed, kinds, d, volume_eps):
    # each row searches its own region from its own center: rows are found,
    # shrink away, run empty along a slab or leave the start ball, each at its
    # own step
    rng = np.random.default_rng(seed)
    cfg = EllipsoidConfig(init_radius=float(rng.uniform(1.0, 10.0)), volume_eps=volume_eps)
    regions = [_region(kind, rng, d) for kind in kinds]
    X = rng.standard_normal((len(kinds), d)) * 2.0
    C = rng.standard_normal((len(kinds), d))
    want, unstopped = ([_outcome(lambda sep: ellipsoid_feasible_ref(sep, d, cfg, center=C[i],
                                                                    stop=stop),
                                 lambda z, i=i: separation_ref(regions[i], X[i], z))
                        for i in range(len(kinds))] for stop in (True, False))
    failed = [err for _, err, _ in want if err is not None]
    sep = _stacked([separation_oracle(U, x) for U, x in zip(regions, X)])
    got, err = _rows_outcome(lambda: oracles._lockstep(sep, C, cfg))
    assert err is (failed[0] if failed else None)
    for i, (z, (ref, _, _)) in enumerate(zip(got or [], want)):
        assert (z is None) == (ref is None)
        assert z is None or z.tobytes() == ref.tobytes()
        _assert_same_outcome((z, None), unstopped[i], queries=False)


def test_lockstep_rows_leave_at_their_own_steps():
    # under the budget of 53 cuts: a ball found at once; an empty diagonal slab
    # whose cut misses the ellipsoid at query 14 (g Q g reached 0 at query 38
    # without the stop); slabs 1e-5 and 1e-6 wide found at queries 29 and 37;
    # a single point, which ends at the budget; an empty slab along an axis,
    # missed at query 13 (at the budget without the stop); and a ball of
    # radius 1e-3 found one query before the budget
    cfg = EllipsoidConfig(volume_eps=1e-2)
    assert cfg.resolved_max_iters(2) == 53
    slab, slab2 = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]])
    regions = [LpBall(2.0, 0.5), Polytope(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([0.3, -0.4])),
               Polytope(slab, np.array([0.3, -0.3 + 1e-5])), LpBall(2.0, 0.0),
               Polytope(slab2, np.array([0.2, -0.2 + 1e-6])), Polytope(slab, np.array([0.3, -0.4])),
               LpBall(2.0, 1e-3)]
    X = np.array([[0.2, 0.1], [0.0, 0.0], [0.1, 0.4], [0.5, -0.2], [-0.3, 0.1], [0.0, 0.0],
                  [0.5, -0.2]])
    C = np.zeros((7, 2))
    want, unstopped = ([_outcome(lambda sep: ellipsoid_feasible_ref(sep, 2, cfg, center=C[i],
                                                                    stop=stop),
                                 lambda z, i=i: separation_ref(regions[i], X[i], z))
                        for i in range(7)] for stop in (True, False))
    assert [(ref is None, steps) for ref, _, steps in want] == \
        [(False, 1), (True, 14), (False, 29), (True, 53), (False, 37), (True, 13), (False, 52)]
    assert [steps for _, _, steps in unstopped] == [1, 38, 29, 53, 37, 53, 52]
    got = oracles._lockstep(_stacked([separation_oracle(U, x) for U, x in zip(regions, X)]), C, cfg)
    for z, (ref, _, _), old in zip(got, want, unstopped):
        assert (z is None) == (ref is None)
        assert z is None or z.tobytes() == ref.tobytes()
        _assert_same_outcome((z, None), old, queries=False)


@pytest.mark.parametrize("row0_fails", [False, True])
def test_lockstep_raises_the_error_of_the_lowest_failing_row(row0_fails):
    # row 2's cut misses its center at the first query and row 1 sends a NaN
    # cut at the second; row 0 is accepted (or misses) at the third, and row
    # 3 is accepted at once. Rows after a failure stop; row 0 runs to its end.
    asked = dict.fromkeys(range(4), 0)

    def sep(rows, Z):
        inside, offsets = np.zeros(rows.size, dtype=bool), Z[:, 0].copy()
        for j, i in enumerate(rows):
            asked[i] += 1
            inside[j] = i == 3 or (i == 0 and asked[i] == 3 and not row0_fails)
            if (i, asked[i]) == (1, 2):
                offsets[j] = np.nan
            elif i == 2 or (i == 0 and asked[i] == 3):
                offsets[j] += 1.0
        return inside, np.tile(vec(1.0, 0.0), (rows.size, 1)), offsets

    error = OracleViolation if row0_fails else ValueError
    with pytest.raises(error):
        oracles._lockstep(sep, np.zeros((4, 2)), EllipsoidConfig())
    assert asked == {0: 3, 1: 2, 2: 1, 3: 1}


def _separable(rng, n, d, gamma):
    """Rows robustly separated by a unit w_star with room to spare."""
    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    X = rng.uniform(-2.0, 2.0, (n, d))
    X += np.outer(np.sign(X @ w_star) * (gamma * math.sqrt(d) + 0.5), w_star)
    return X, np.where(X @ w_star >= 0.0, 1, -1), w_star


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, math.inf]), st.integers(2, 3))
def test_rerm_matches_reference(seed, p, d):
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(0.05, 0.3))
    X, y, _ = _separable(rng, 6, d, gamma)
    data, ball = Dataset(X, y), LpBall(p, gamma)
    cfg = default_ellipsoid_config(ball, d)
    got = rerm_ellipsoid(data, ball, cfg)
    for stop in (True, False):
        want = rerm_ellipsoid_ref(X, y, ball, cfg, stop=stop)
        assert want is not None and np.array_equal(got.w, want)


# ---------------------------------------------------------------------------
# the closed-form screen: rows whose robust margin already clears feas_slack
# skip their certification, and nothing else changes
# ---------------------------------------------------------------------------


def _first_weight_query(x0, y0, cfg):
    """The second center of the weight search: the zero center is cut by
    -y0 x0, the point row 0's search returns at once."""
    d = x0.shape[0]
    g = -y0 * x0
    Qg = (np.eye(d) * cfg.init_radius**2) @ g
    return -(Qg / math.sqrt(float(g @ Qg))) / (d + 1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, math.inf]), st.integers(2, 3),
       st.lists(st.sampled_from([-1e-12, 0.0, 1e-12, -1e-3]), min_size=1, max_size=3))
@example(29, 2.0, 2, [1e-12, -1e-3, 1e-12])
def test_screen_keeps_rerm_on_rows_at_the_slack(seed, p, d, gaps):
    # rows 1.. are moved along w_1's part orthogonal to w_star so that their
    # robust margin at the first non-zero query w_1 is feas_slack + gap; a
    # gap of -1e-3 is a row that fails there and must not be screened. In the
    # example, a row search whose start ball is the l2 ball itself is cut
    # along w alone until g^T Q g rounds to 0, and ends there ("a cut left
    # nothing")
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(0.05, 0.3))
    ball = LpBall(p, gamma)
    cfg = default_ellipsoid_config(ball, d)
    X, y, w_star = _separable(rng, 6, d, gamma)
    w1 = _first_weight_query(X[0], y[0], cfg)
    v = w1 - (w1 @ w_star) * w_star
    shift = gamma * dual_norm(w1, p)
    for j, gap in enumerate(gaps, start=1):
        step = (y[j] * (cfg.feas_slack + gap + shift) - w1 @ X[j]) / (w1 @ v)
        assume(abs(step) * np.linalg.norm(v) < 4.0)
        X[j] += step * v
        assert abs(y[j] * (w1 @ X[j]) - shift - cfg.feas_slack - gap) < 1e-14
    data = Dataset(X, y)
    want = _outcome(lambda _: rerm_ellipsoid_ref(X, y, ball, cfg), None)
    _assert_same_outcome(_outcome(lambda _: rerm_ellipsoid(data, ball, cfg).w, None), want)


def _screen_run(monkeypatch, data, ball, cfg):
    """The weight queries of one rerm run, and for each the rows whose
    search it ran, in order, with the row that found a counterexample."""
    weights, asked, failed = [], [], []
    search, certify = oracles.ellipsoid_feasible, oracles.ellipsoid_certify

    def row_of(x):
        return int(np.flatnonzero((data.X == x).all(axis=1))[0])

    def found(row, z):
        asked[-1].append(row)
        if z is not None:
            failed[-1] = row
        return z

    def feasible_spy(sep, d, cfg, center=None):
        if center is not None:  # the search at w = 0 for a point of U(x_i)
            return found(row_of(center), search(sep, d, cfg, center=center))

        def weight_sep(rows, W):  # the weight-space search
            weights.append(W[0].copy())
            asked.append([])
            failed.append(None)
            return sep(rows, W)

        return search(weight_sep, d, cfg)

    def certify_spy(model, x, y, U, cfg, slack=0.0):
        return found(row_of(x), certify(model, x, y, U, cfg, slack=slack))

    monkeypatch.setattr(oracles, "ellipsoid_feasible", feasible_spy)
    monkeypatch.setattr(oracles, "ellipsoid_certify", certify_spy)
    model = rerm_ellipsoid(data, ball, cfg)
    monkeypatch.undo()
    return model, weights, asked, failed


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_screen_asks_no_proven_row(monkeypatch, p):
    # 2-d rows just past the margin the l-inf ball needs, hardest first, with
    # a wide spread across w_star so the search takes several weight queries
    rng = np.random.default_rng(1)
    w_star = rng.standard_normal(2)
    w_star /= np.linalg.norm(w_star)
    y = np.where(rng.random(24) < 0.5, 1, -1)
    mag = np.sort(0.2 * math.sqrt(2.0) + 0.04 + 2.0 * rng.random(24))
    X = (y * mag)[:, None] * w_star + np.outer(rng.uniform(-3.0, 3.0, 24), [-w_star[1], w_star[0]])
    data, ball = Dataset(X, y), LpBall(p, 0.2)
    cfg = default_ellipsoid_config(ball, 2)
    model, weights, asked, failed = _screen_run(monkeypatch, data, ball, cfg)
    assert np.array_equal(model.w, rerm_ellipsoid_ref(X, y, ball, cfg))
    # every query inside the radius asks the rows up to the first failing
    # one in order, minus the rows the closed form proves; the accepting
    # last query has no failing row
    assert failed[-1] is None and len(weights) > 2
    skipped = 0
    for w, rows, fail in zip(weights, asked, failed):
        if np.linalg.norm(w) > cfg.init_radius:
            assert rows == []
            continue
        raw = y * (X @ w)
        shift = 0.2 * dual_norm(w, p)
        proven = raw - shift - cfg.feas_slack > 1e-9 * (np.abs(raw) + shift + cfg.feas_slack)
        upto = data.n if fail is None else fail + 1
        assert rows == [i for i in range(upto) if not proven[i]]
        skipped += int(np.count_nonzero(proven[:upto]))
    assert skipped > 0


# ---------------------------------------------------------------------------
# early infeasibility: opposite-label rows whose balls meet
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_disjoint_balls_check_fires_at_exactly_two_gamma(p):
    gamma = 0.01
    data = Dataset(np.array([[0.5, 0.3], [0.01, 0.0], [-0.01, 0.0]]), np.array([1, 1, -1]))
    with pytest.raises(NotSeparable, match="rows 1 and 2"):
        check_disjoint_balls(data, LpBall(p, gamma))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_disjoint_balls_check_passes_just_beyond_two_gamma(p):
    gamma = 0.01
    half = (2.0 * gamma + 1e-3) / 2.0
    data = Dataset(np.array([[half, 0.0], [-half, 0.0]]), np.array([1, -1]))
    ball = LpBall(p, gamma)
    check_disjoint_balls(data, ball)
    model = rerm_ellipsoid(data, ball, default_ellipsoid_config(ball, 2))
    for i in range(data.n):
        assert brute_margin_certified(model.w, model.bias, data.X[i], int(data.y[i]), p, gamma)


@pytest.mark.parametrize("search", [
    lambda model, data: check_disjoint_balls(data, LpBall(3.0, 0.1)),
    lambda model, data: attack(model, data.X[0], data.y[0], Polytope(np.eye(2), np.ones(2))),
    lambda model, data: ellipsoid_certify_batch(model, data, LpBall(3.0, 0.1), EllipsoidConfig()),
    lambda model, data: ellipsoid_certify_batch(model, data, FiniteOffsets(np.zeros((1, 2))),
                                                EllipsoidConfig()),
], ids=["disjoint-l3", "attack-polytope", "batch-l3", "batch-finite"])
def test_unsupported_geometries_stay_unsupported(search):
    data = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
    with pytest.raises(UnsupportedGeometry):
        search(LinearModel(vec(1.0, 0.0)), data)


def _clash_of_the_row_loop(data, ball):
    """The pair check_disjoint_balls names, found as it once was, with one
    norm per positive row; None when no balls meet."""
    neg = np.nonzero(data.y == -1)[0]
    for i in np.nonzero(data.y == 1)[0]:
        near = np.linalg.norm(data.X[neg] - data.X[i], ord=ball.p, axis=1) <= 2.0 * ball.gamma
        if near.any():
            return f"rows {i} and {neg[near.argmax()]} "
    return None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, math.inf]),
       st.sampled_from([1 / 16, 1 / 8, 5 / 16]), st.sampled_from([1, 2, 3, 1 << 20]))
def test_disjoint_balls_check_names_the_pair_the_row_loop_names(seed, p, gamma, block):
    # rows on a grid of eighths, so many pairs sit at exactly 2 gamma (3-4-5
    # triangles in l2), labelled at random or moved apart by label, 1 beyond
    # the widest 2 gamma; a small _STACK_FLOATS splits the positive rows into
    # blocks of a few rows
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 40)), int(rng.integers(2, 4))
    X = rng.integers(-8, 9, (n, d)) / 8.0
    y = np.where(rng.random(n) < 0.5, 1, -1)
    if rng.random() < 0.3:
        X[:, 0] += 1.5 * y
    data, ball = Dataset(X, y), LpBall(p, gamma)
    want = _clash_of_the_row_loop(data, ball)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_STACK_FLOATS", block * d * max(1, int(np.sum(data.y == -1))))
        if want is None:
            check_disjoint_balls(data, ball)
        else:
            with pytest.raises(NotSeparable, match=f"^{want}"):
                check_disjoint_balls(data, ball)
