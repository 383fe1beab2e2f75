import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from roblearn.errors import RoblearnError

from ._refs import load_csv_ref, save_csv_ref


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
    with pytest.raises(ValueError, match="share a dimension"):
        MarginUnion((MarginCluster((1.0,)), MarginCluster((1.0, 0.0))))
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


def test_header_then_blank_lines_is_empty_without_a_warning(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("f1,f2,label\n\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataset):
            load_csv(str(p))


# the last sampled_from of _FIELDS and the last four _LINE_ENDS are where
# numpy's text reader and float()/str.splitlines could part ways
_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["1", "-1", "+1", "1.0", "-1e0", " -1 ", "\t1", "0", "2", "-0.0", "1_0"]),
    st.sampled_from(["nan", "inf", "-Infinity", "", "oops", "1 2", "0x1"]),
    st.sampled_from(["\u0661", "1#2", "1e500", '"1"', "1e5 1"]),
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"])


@st.composite
def _csv_texts(draw):
    """Rows of a common width with some ragged, bad-token, bad-label and
    non-finite fields, padded fields, blank lines, a header and mixed line ends."""
    width = draw(st.integers(2, 4))
    lines = [draw(st.sampled_from(["f1,f2,label", "x,y", "# a,b"]))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        w = width + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 14)) == 0 else 0)
        clean = draw(st.integers(0, 3)) > 0  # most rows parse
        fields = []
        for c in range(max(w, 1)):
            if c == w - 1 and clean:
                tok = draw(st.sampled_from(["1", "-1", "1.0", " -1", "+1 "]))
            elif clean:
                tok = repr(draw(st.floats(-1e6, 1e6)))
            else:
                tok = draw(_FIELDS)
            fields.append(draw(st.sampled_from(["", " ", "\t"])) + tok + draw(st.sampled_from(["", " "])))
        lines.append(",".join(fields))
    ends = [draw(_LINE_ENDS) for _ in lines]
    return "".join(ln + end for ln, end in zip(lines, ends))[:None if draw(st.booleans()) else -1]


def _load_outcome(load, path):
    try:
        data = load(path)
    except (ValueError, RoblearnError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return data.X.shape, data.X.dtype, data.X.tobytes(), data.y.dtype, data.y.tobytes()


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
@example("1\n-1\n")  # no feature column, though every token parses
@example("f1,f2,label\r\n 0.5, 1.5 ,1\r\n\r\n-0.5,2.0,-1")
@example("f1,f2,label\n")  # header only
@example("f1,f2,label\n\n\n")  # header, then blank lines
@example("1_0,1\n2,-1\n")  # float() reads 1_0 and numpy's reader does not: the scan parses it
def test_load_csv_matches_the_field_scan(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _load_outcome(load_csv, str(path)) == _load_outcome(load_csv_ref, str(path))


_EXTREME_FLOATS = st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])


@st.composite
def _datasets(draw):
    """d in 1..4, zero to five rows, ordinary and extreme finite features."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EXTREME_FLOATS)
    X = np.array([draw(values) for _ in range(n * d)], dtype=float).reshape(n, d)
    return Dataset(X, np.array([draw(st.sampled_from([1, -1])) for _ in range(n)], dtype=np.int64))


@given(_datasets())
@example(Dataset(np.array([[-0.0, 5e-324, 1.7976931348623157e308]]), np.array([-1])))
@example(Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64)))
def test_save_csv_matches_the_per_value_writer(tmp_path_factory, data):
    out = tmp_path_factory.mktemp("csv")
    save_csv(str(out / "fast.csv"), data)
    save_csv_ref(str(out / "ref.csv"), data)
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


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
        "rows": [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}, {"a": np.int64(5), "b": np.float32(0.5), "ok": True},
                 {"a": 6, "sub": {"c": np.float64(0.1), "d": [7]}}, {}],
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
        "  - a: 5\n"
        "    b: 0.5\n"
        "    ok: true\n"
        "  - a: 6\n"
        "    sub:\n"
        "      c: 0.10000000000000001\n"
        "      d: [7]\n"
        "  - {}\n"
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
    assert Path(path).read_text() == "ok: 1\n"


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

@pytest.mark.parametrize("body, row, col", [
    ("w: 1 abc\n", 2, 3),
    ("w: nan 1\n", 2, 2),
    ("w: 1 0\nbias: inf\n", 3, 2),
    ("w: 1 0\nbias: 1 2\n", 3, 2),
    ("w: 0 0\n", 2, 2),
    ("w:\n", 2, 2),
])
def test_model_files_with_bad_numbers_are_parse_errors(tmp_path, body, row, col):
    # a bad token used to raise a bare ValueError, and zero weights ZeroWeight
    p = tmp_path / "m.txt"
    p.write_text("linear-model v1\n" + body)
    with pytest.raises(ParseError) as exc:
        load_model(str(p))
    assert (exc.value.row, exc.value.col) == (row, col)
