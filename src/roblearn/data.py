"""Synthetic data generators, label-noise injection, and text I/O.

Everything here is seed-deterministic. Randomness is drawn from labeled
substreams of one root seed, so adding a new consumer of randomness never
perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, LinearModel, as_vector
from .errors import ConfigError, EmptyDataset, IoError, ParseError


def substream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for (seed, label); stable across runs and platforms."""
    digest = hashlib.blake2s(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPair:
    """Two spherical Gaussians, one per label; label +1 points come from
    centers[0], label -1 points from centers[1]."""

    centers: tuple
    sigma: float = 0.0

    def __post_init__(self):
        c_pos = as_vector(self.centers[0])
        c_neg = as_vector(self.centers[1])
        if c_pos.shape != c_neg.shape:
            raise ConfigError("centers must share a dimension")
        if not (0.0 <= self.sigma < math.inf):
            raise ConfigError("sigma must be non-negative and finite")
        object.__setattr__(self, "centers", (c_pos, c_neg))


@dataclass(frozen=True)
class TwoMoons:
    """Interleaved half-circles; outer moon labeled +1, inner -1."""

    noise: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.noise < math.inf):
            raise ConfigError("noise must be non-negative and finite")


@dataclass(frozen=True)
class MarginCluster:
    """A symmetric pair of point masses at +/- center carrying labels +/- 1.

    Under a direction w, every clean point of the cluster has functional
    margin y <w, x> = <w, center>, so the cluster's margin is plantable by
    choosing the center. weight is the relative mass, spread the per-point
    Gaussian jitter.
    """

    center: tuple
    weight: float = 1.0
    spread: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not (0.0 < self.weight < math.inf):
            raise ConfigError("cluster weight must be positive and finite")
        if not (0.0 <= self.spread < math.inf):
            raise ConfigError("spread must be non-negative and finite")


@dataclass(frozen=True)
class MarginUnion:
    clusters: tuple

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if not clusters:
            raise ConfigError("at least one cluster required")
        d = clusters[0].center.shape[0]
        if any(c.center.shape[0] != d for c in clusters):
            raise ConfigError("all cluster centers must share a dimension")
        object.__setattr__(self, "clusters", clusters)


@dataclass(frozen=True)
class GenSpec:
    kind: object
    n: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not isinstance(self.kind, (GaussianPair, TwoMoons, MarginUnion)):
            raise ConfigError(f"unknown generator kind: {type(self.kind).__name__}")


def generate(spec: GenSpec) -> Dataset:
    """Draw n i.i.d. points. Every per-point choice is independent, so a
    stream of size-1 draws with fresh seeds follows the same distribution as
    one big draw."""
    kind = spec.kind
    n = spec.n
    if isinstance(kind, GaussianPair):
        coin = substream(spec.rng_seed, "labels")
        y = np.where(coin.random(n) < 0.5, 1, -1).astype(np.int64)
        d = kind.centers[0].shape[0]
        noise = substream(spec.rng_seed, "noise").standard_normal((n, d))
        X = np.where((y == 1)[:, None], kind.centers[0], kind.centers[1]) + kind.sigma * noise
        return Dataset(X, y)
    if isinstance(kind, TwoMoons):
        coin = substream(spec.rng_seed, "labels")
        y = np.where(coin.random(n) < 0.5, 1, -1).astype(np.int64)
        t = substream(spec.rng_seed, "angle").random(n) * math.pi
        outer = np.column_stack([np.cos(t), np.sin(t)])
        inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
        X = np.where((y == 1)[:, None], outer, inner)
        if kind.noise > 0:
            X = X + kind.noise * substream(spec.rng_seed, "noise").standard_normal(X.shape)
        return Dataset(X, y)
    # MarginUnion: pick a cluster by weight, a label by fair coin, and place
    # the point at label * center plus jitter
    weights = np.array([c.weight for c in kind.clusters], dtype=float)
    weights = weights / weights.sum()
    which = substream(spec.rng_seed, "assign").choice(len(kind.clusters), size=n, p=weights)
    coin = substream(spec.rng_seed, "labels")
    y = np.where(coin.random(n) < 0.5, 1, -1).astype(np.int64)
    centers = np.stack([c.center for c in kind.clusters])
    spreads = np.array([c.spread for c in kind.clusters])
    X = y[:, None] * centers[which]
    jitter = substream(spec.rng_seed, "noise").standard_normal(X.shape)
    X = X + spreads[which][:, None] * jitter
    return Dataset(X, y)


def apply_rcn(data: Dataset, eta: float, seed: int) -> Dataset:
    """Flip each label independently with probability eta.

    Flips are fresh draws: applying twice with the same seed flips the same
    subset again relative to the *current* labels, which does not restore the
    original dataset.
    """
    if not (0.0 <= eta < 0.5):
        raise ConfigError("eta must lie in [0, 0.5)")
    flips = substream(seed, "rcn-flips").random(data.n) < eta
    y = np.where(flips, -data.y, data.y).astype(np.int64)
    return Dataset(data.X.copy(), y)


# ---------------------------------------------------------------------------
# text I/O
# ---------------------------------------------------------------------------

FLOAT_FMT = "%.17g"  # round-trip exact for binary64


def fmt_float(v: float) -> str:
    return FLOAT_FMT % float(v)


def read_text(path: str) -> str:
    """The whole UTF-8 file; an unreadable path raises IoError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Replace the file with text in UTF-8; an unwritable path raises IoError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_csv(path: str) -> Dataset:
    """Comma-separated reals, final column the label in {-1, +1}.

    Every field reads as float() reads it; '#' starts no comment and quoted
    fields are errors. A header is a first line whose first field is not a
    number. Errors name a 1-based row and column of the raw file.
    """
    text = read_text(path).splitlines()
    start = next((i for i, ln in enumerate(text) if ln.strip()), len(text))
    if start < len(text):
        try:
            float(text[start].split(",")[0].strip())
        except ValueError:
            start += 1
    body = text[start:]
    # numpy's reader converts fields as float() does and raises wherever the two
    # differ; such input, and an all-empty body (numpy would warn), go to the scan
    if any(body):
        try:
            vals = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            pass
        else:
            X, label = vals[:, :-1], vals[:, -1]
            if vals.shape[1] > 1 and ((label == 1.0) | (label == -1.0)).all() and np.isfinite(X).all():
                return Dataset(np.ascontiguousarray(X), label.astype(np.int64))
    lines = [(i + 1, ln) for i, ln in enumerate(body, start) if ln.strip()]
    if not lines:
        raise EmptyDataset(f"{path} contains no data rows")
    return _scan_csv(lines)


def _scan_csv(lines) -> Dataset:
    """Parse numbered lines field by field, raising ParseError at the first fault."""
    rows = []
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


def save_csv(path: str, data: Dataset) -> None:
    row = ",".join([FLOAT_FMT] * data.d) + ",%d\n"
    write_text(path, "".join([row % (*x, y) for x, y in zip(data.X.tolist(), data.y.tolist())]))


def _emit_scalar(v) -> str:
    # float first: the common case, np.float64 included; bool is no float
    if isinstance(v, float):
        return FLOAT_FMT % v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.floating):
        return fmt_float(v)
    s = str(v)
    if "\n" in s:
        raise ConfigError("scalar values must be single-line")
    return s


def _emit(node, indent: int, lines: list) -> None:
    pad = "  " * indent
    for key, val in node.items():
        if isinstance(val, dict):
            if not val:
                lines.append(f"{pad}{key}: {{}}")
            else:
                lines.append(f"{pad}{key}:")
                _emit(val, indent + 1, lines)
        elif isinstance(val, (list, tuple)):
            items = list(val)
            if not items:
                lines.append(f"{pad}{key}: []")
            elif all(isinstance(it, dict) for it in items):
                lines.append(f"{pad}{key}:")
                for it in items:
                    if not it:
                        lines.append(f"{pad}  - {{}}")
                    elif any(isinstance(v, (dict, list, tuple)) for v in it.values()):
                        sub: list = []
                        _emit(it, 0, sub)
                        lines.append(f"{pad}  - {sub[0]}")
                        lines.extend(f"{pad}    {s}" for s in sub[1:])
                    else:  # all scalars, the common case: no sub-list
                        lead = f"{pad}  - "
                        for k, v in it.items():
                            lines.append(f"{lead}{k}: {_emit_scalar(v)}")
                            lead = f"{pad}    "
            else:
                joined = ", ".join(_emit_scalar(it) for it in items)
                lines.append(f"{pad}{key}: [{joined}]")
        else:
            lines.append(f"{pad}{key}: {_emit_scalar(val)}")


def results_text(document: dict) -> str:
    """Render a key-value tree as deterministic indented text. Keys keep
    insertion order; floats use 17 significant digits."""
    lines: list = []
    _emit(document, 0, lines)
    return "\n".join(lines) + "\n"


def save_results(path: str, document: dict) -> None:
    write_text(path, results_text(document))


def save_model(path: str, model: LinearModel) -> None:
    lines = ["linear-model v1"]
    lines.append("w: " + " ".join(fmt_float(v) for v in model.w))
    lines.append("bias: " + fmt_float(model.bias))
    write_text(path, "\n".join(lines) + "\n")


def parse_float(tok: str, row: int, col: int) -> float:
    """A finite number of a model or selection file, or a ParseError at its
    1-based row and column (a line's key, such as "w:", is column 1)."""
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"not a number: {tok!r}", row=row, col=col) from None
    if not math.isfinite(v):
        raise ParseError(f"number must be finite: {tok!r}", row=row, col=col)
    return v


def load_model(path: str) -> LinearModel:
    lines = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    if not lines or lines[0] != "linear-model v1":
        raise ParseError(f"{path} is not a linear-model file", row=1, col=1)
    w, bias = None, 0.0
    for row, ln in enumerate(lines[1:], start=2):
        key, _, rest = ln.partition(":")
        if key == "w":
            w, w_row = np.array([parse_float(t, row, j) for j, t in enumerate(rest.split(), 2)]), row
        elif key == "bias":
            bias = parse_float(rest.strip(), row, 2)
    if w is None:
        raise ParseError(f"{path} is missing the weight line", row=2, col=1)
    if not np.any(w):
        raise ParseError(f"{path}: the weights must not all be zero", row=w_row, col=2)
    return LinearModel(w, bias)
