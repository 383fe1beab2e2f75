import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roblearn import (
    Dataset,
    EmptyDataset,
    GaussianPair,
    GenSpec,
    IoError,
    LinearModel,
    MarginCluster,
    MarginUnion,
    ParseError,
    TwoMoons,
    apply_rcn,
    generate,
    load_csv,
    load_model,
    results_text,
    save_csv,
    save_model,
    save_results,
    substream,
)
from roblearn.data import fmt_float


def vec(*vals):
    return np.array(vals, dtype=float)


# ---------------------------------------------------------------------------
# seeded substreams
# ---------------------------------------------------------------------------


def test_substream_is_deterministic_and_label_separated():
    a = substream(7, "noise").random(5)
    b = substream(7, "noise").random(5)
    assert np.array_equal(a, b)
    c = substream(7, "labels").random(5)
    assert not np.array_equal(a, c)
    d = substream(8, "noise").random(5)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generate_is_deterministic_per_seed():
    spec = GenSpec(TwoMoons(noise=0.05), 30, rng_seed=3)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = generate(GenSpec(TwoMoons(noise=0.05), 30, rng_seed=4))
    assert not np.array_equal(a.X, c.X)


def test_gaussian_pair_sigma_zero_sits_on_centers():
    pair = GaussianPair((vec(1.0, 2.0), vec(-3.0, 0.0)))
    data = generate(GenSpec(pair, 40, rng_seed=1))
    for i in range(data.n):
        want = pair.centers[0] if data.y[i] == 1 else pair.centers[1]
        assert np.array_equal(data.X[i], want)
    assert 5 < (data.y == 1).sum() < 35
    with pytest.raises(ValueError):
        GaussianPair((vec(1.0), vec(1.0, 2.0)))
    with pytest.raises(ValueError):
        GaussianPair((vec(1.0), vec(2.0)), sigma=-0.1)


def test_two_moons_noiseless_points_sit_on_arcs():
    data = generate(GenSpec(TwoMoons(), 80, rng_seed=2))
    for i in range(data.n):
        x = data.X[i]
        if data.y[i] == 1:
            assert np.hypot(x[0], x[1]) == pytest.approx(1.0)
            assert x[1] >= -1e-12
        else:
            assert np.hypot(x[0] - 1.0, x[1] - 0.5) == pytest.approx(1.0)
            assert x[1] <= 0.5 + 1e-12
    with pytest.raises(ValueError):
        TwoMoons(noise=-0.5)


def test_margin_union_places_points_at_signed_centers():
    union = MarginUnion((MarginCluster((2.0, 0.0), weight=0.75),
                         MarginCluster((0.0, 1.0), weight=0.25)))
    data = generate(GenSpec(union, 400, rng_seed=5))
    on_first = 0
    for i in range(data.n):
        x, y = data.X[i], data.y[i]
        hit = [np.array_equal(x, y * c.center) for c in union.clusters]
        assert any(hit)
        on_first += hit[0]
    # weights steer the assignment split
    assert 240 <= on_first <= 360
    with pytest.raises(ValueError):
        MarginUnion(())
    with pytest.raises(ValueError):
        MarginCluster((1.0,), weight=0.0)
    with pytest.raises(ValueError):
        MarginCluster((1.0,), spread=-1.0)


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(TwoMoons(), 0)
    with pytest.raises(ValueError):
        GenSpec(object(), 5)


def test_single_draws_follow_the_bulk_distribution():
    # size-1 draws with fresh seeds must hit the light cluster at its weight
    union = MarginUnion((MarginCluster((2.0, 0.0), weight=0.8),
                         MarginCluster((0.0, 1.0), weight=0.2)))
    hits = 0
    n = 400
    for t in range(n):
        data = generate(GenSpec(union, 1, rng_seed=9000 + t))
        if abs(float(data.X[0, 1])) == 1.0:
            hits += 1
    # binomial(400, 0.2): mean 80, sd 8
    assert 56 <= hits <= 104


# ---------------------------------------------------------------------------
# label noise
# ---------------------------------------------------------------------------


def test_apply_rcn_flips_a_binomial_fraction():
    data = generate(GenSpec(GaussianPair((vec(1.0), vec(-1.0))), 3000, rng_seed=6))
    noisy = apply_rcn(data, eta=0.2, seed=7)
    flipped = int((noisy.y != data.y).sum())
    # binomial(3000, 0.2): mean 600, sd ~21.9
    assert 534 <= flipped <= 666
    assert np.array_equal(noisy.X, data.X)
    assert apply_rcn(data, eta=0.0, seed=7).y.tolist() == data.y.tolist()
    with pytest.raises(ValueError):
        apply_rcn(data, eta=0.5, seed=7)


def test_apply_rcn_is_not_an_involution():
    data = generate(GenSpec(GaussianPair((vec(1.0), vec(-1.0))), 500, rng_seed=8))
    once = apply_rcn(data, eta=0.3, seed=9)
    twice = apply_rcn(once, eta=0.3, seed=9)
    assert np.array_equal(twice.y, data.y)  # same flip mask applied twice
    fresh = apply_rcn(once, eta=0.3, seed=10)
    assert not np.array_equal(fresh.y, data.y)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = Dataset(rng.standard_normal((25, 3)) * 1e3,
                   np.where(rng.random(25) < 0.5, 1, -1).astype(np.int64))
    path = str(tmp_path / "d.csv")
    save_csv(path, data)
    back = load_csv(path)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.y, data.y)


def test_csv_header_is_skipped(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("f1,f2,label\n0.5,1.5,1\n-0.5,2.0,-1\n")
    data = load_csv(str(p))
    assert data.n == 2 and data.d == 2
    assert data.y.tolist() == [1, -1]


def test_csv_error_positions(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0,1\n3.0,oops,1\n")
    with pytest.raises(ParseError) as exc:
        load_csv(str(p))
    assert exc.value.row == 2 and exc.value.col == 2

    p.write_text("1.0,2.0,1\n3.0,1\n")
    with pytest.raises(ParseError) as exc:
        load_csv(str(p))
    assert exc.value.row == 2

    p.write_text("1.0,2.0,3\n")
    with pytest.raises(ParseError) as exc:
        load_csv(str(p))
    assert exc.value.col == 3

    for token in ("nan", "inf", "-Infinity"):
        p.write_text(f"f1,f2,label\n1.0,2.0,1\n\n3.0,{token},-1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(str(p))
        assert exc.value.row == 4 and exc.value.col == 2

    p.write_text("header,only\n")
    with pytest.raises(EmptyDataset):
        load_csv(str(p))
    p.write_text("")
    with pytest.raises(EmptyDataset):
        load_csv(str(p))
    with pytest.raises(IoError):
        load_csv(str(tmp_path / "absent.csv"))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips(v):
    assert float(fmt_float(v)) == v


# ---------------------------------------------------------------------------
# results rendering
# ---------------------------------------------------------------------------


def test_results_text_frozen_layout():
    doc = {
        "task": "demo",
        "err": 0.25,
        "flag": True,
        "counts": [1, 2, 3],
        "rows": [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}],
        "nested": {"x": 1, "empty": {}},
        "none_list": [],
    }
    want = (
        "task: demo\n"
        "err: 0.25\n"
        "flag: true\n"
        "counts: [1, 2, 3]\n"
        "rows:\n"
        "  - a: 1\n"
        "    b: 2.5\n"
        "  - a: 3\n"
        "    b: 4\n"
        "nested:\n"
        "  x: 1\n"
        "  empty: {}\n"
        "none_list: []\n"
    )
    assert results_text(doc) == want


def test_results_text_rejects_multiline_scalars(tmp_path):
    with pytest.raises(ValueError):
        results_text({"bad": "two\nlines"})
    path = str(tmp_path / "r.txt")
    save_results(path, {"ok": 1})
    assert open(path).read() == "ok: 1\n"


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    m = LinearModel(vec(0.1, -2.5e-17, 3.0), bias=-0.75)
    path = str(tmp_path / "m.txt")
    save_model(path, m)
    back = load_model(path)
    assert np.array_equal(back.w, m.w)
    assert back.bias == m.bias


def test_model_load_errors(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("something else\n")
    with pytest.raises(ParseError):
        load_model(str(p))
    p.write_text("linear-model v1\nbias: 0.5\n")
    with pytest.raises(ParseError):
        load_model(str(p))
    with pytest.raises(IoError):
        load_model(str(tmp_path / "absent.txt"))