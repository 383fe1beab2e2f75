"""Output checks that do not trust the code under test.

Every check recomputes a job's key result from the job's own inputs with plain
numpy and compares it with the results document the program wrote. Documents
and side files (models, witnesses, selection sets) are parsed here, not with
roblearn's own readers.

A check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import math

import numpy as np

# rows whose signed margin lies this close to the radius may land on either
# side depending on summation order; they widen the accepted count range
BAND = 1e-9


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _scalar(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_doc(text: str) -> dict:
    """Parse the indented key-value text that results documents use."""
    lines = text.splitlines()
    pos = 0

    def indent_of(line: str) -> int:
        return len(line) - len(line.lstrip(" "))

    def block(indent: int) -> dict:
        nonlocal pos
        out: dict = {}
        while pos < len(lines):
            line = lines[pos]
            if indent_of(line) != indent or line.lstrip().startswith("- "):
                break
            key, _, rest = line.strip().partition(":")
            rest = rest.strip()
            pos += 1
            if rest == "{}":
                out[key] = {}
            elif rest == "[]":
                out[key] = []
            elif rest.startswith("[") and rest.endswith("]"):
                out[key] = [_scalar(t) for t in rest[1:-1].split(", ")]
            elif rest:
                out[key] = _scalar(rest)
            elif pos < len(lines) and lines[pos].lstrip().startswith("- "):
                items = []
                while (pos < len(lines) and indent_of(lines[pos]) == indent + 2
                       and lines[pos].lstrip().startswith("- ")):
                    lines[pos] = " " * (indent + 4) + lines[pos].lstrip()[2:]
                    items.append(block(indent + 4))
                out[key] = items
            else:
                out[key] = block(indent + 2)
        return out

    doc = block(0)
    if pos != len(lines):
        raise ValueError(f"unparsed document line {pos + 1}: {lines[pos]!r}")
    return doc


def parse_model(text: str) -> tuple[np.ndarray, float]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "linear-model v1":
        raise ValueError("not a linear-model file")
    w, bias = None, 0.0
    for ln in lines[1:]:
        if ln.startswith("w:"):
            w = np.array([float(t) for t in ln[2:].split()])
        elif ln.startswith("bias:"):
            bias = float(ln[5:])
    if w is None:
        raise ValueError("model file has no weight line")
    return w, bias


def _token_predict(token: str, X: np.ndarray) -> np.ndarray:
    parts = token.split()
    if parts[0] == "const":
        return np.full(X.shape[0], int(parts[1]), dtype=np.int64)
    if parts[0] == "linear":
        bias = float(parts[1])
        w = np.array([float(t) for t in parts[2:]])
        return predict(w, bias, X)
    raise ValueError(f"unknown model token {parts[0]!r}")


def selection_keeps(text: str, X: np.ndarray) -> np.ndarray:
    """Evaluate a saved selection set on the rows of X: True where kept."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "selection-set v1":
        raise ValueError("not a selection-set file")
    base = None
    keep = np.ones(X.shape[0], dtype=bool)
    for ln in lines[1:]:
        if ln.startswith("base:"):
            base = _token_predict(ln[5:].strip(), X)
        elif ln.startswith("c:"):
            if base is None:
                raise ValueError("discriminator listed before the base model")
            keep &= _token_predict(ln[2:].strip(), X) == base
        elif ln.startswith("pair:"):
            left, _, right = ln[5:].partition("|")
            keep &= _token_predict(left.strip(), X) == _token_predict(right.strip(), X)
    return keep


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def dual(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def norm(w: np.ndarray, q: float) -> float:
    return float(np.linalg.norm(w, ord=q))


def predict(w: np.ndarray, bias: float, X: np.ndarray) -> np.ndarray:
    return np.where(X @ w + bias >= 0.0, 1, -1)


def signed_margins(w: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """y * (<w, x> + bias) / ||w||_q, q dual to p."""
    return y * (X @ w + bias) / norm(w, dual(p))


def count_range(values: np.ndarray, threshold: float) -> tuple[int, int]:
    """Smallest and largest possible count of values <= threshold when the
    values within BAND of it could fall either way."""
    slack = BAND * (1.0 + abs(threshold))
    return int(np.sum(values <= threshold - slack)), int(np.sum(values <= threshold + slack))


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def metric(doc: dict, key: str):
    metrics = doc.get("metrics", {})
    if key not in metrics:
        raise KeyError(f"metrics.{key} missing")
    return metrics[key]


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def accuracy_in_range(value: float, n: int, lo_bad: int, hi_bad: int) -> bool:
    """value equals 1 - k / n for some loss count k in [lo_bad, hi_bad]."""
    return any(close(value, 1.0 - k / n, 1e-12) for k in range(lo_bad, hi_bad + 1))


def standard_accuracy_ok(value: float, w, bias, X, y) -> bool:
    lo, hi = count_range(y * (X @ w + bias), 0.0)
    return accuracy_in_range(value, X.shape[0], lo, hi)


# ---------------------------------------------------------------------------
# per-subcommand checks
# ---------------------------------------------------------------------------


def check_certify(doc, X, y, w, bias, p, gamma) -> list:
    """Closed-form certified count: a row is robust iff y * margin > gamma."""
    problems: list = []
    n = X.shape[0]
    lo, hi = count_range(signed_margins(w, bias, X, y, p), gamma)
    expect(problems, metric(doc, "n") == n, f"n {metric(doc, 'n')} != {n}")
    acc = metric(doc, "robust_accuracy")
    expect(problems, accuracy_in_range(acc, n, lo, hi),
           f"robust_accuracy {acc!r} outside closed form 1-[{lo},{hi}]/{n}")
    std = metric(doc, "standard_accuracy")
    expect(problems, standard_accuracy_ok(std, w, bias, X, y), f"standard_accuracy {std!r} wrong")
    return problems


def check_attack(doc, witness_text, X, y, w, bias, p, gamma) -> list:
    """Attacked count from the closed form; every witness lies in the ball
    around its row and is misclassified or on the decision boundary."""
    problems: list = []
    n = X.shape[0]
    m = signed_margins(w, bias, X, y, p)
    lo, hi = count_range(m, gamma)
    attacked = metric(doc, "attacked")
    expect(problems, lo <= attacked <= hi, f"attacked {attacked} outside closed form [{lo},{hi}]")
    expect(problems, close(metric(doc, "attacked_fraction"), attacked / n, 1e-12),
           "attacked_fraction != attacked / n")
    expect(problems, close(metric(doc, "mean_margin"), float(np.mean(m)), 1e-9),
           "mean_margin differs from the closed form")
    rows = np.loadtxt(witness_text.splitlines(), delimiter=",", ndmin=2)
    expect(problems, rows.shape[0] == attacked, f"{rows.shape[0]} witnesses for {attacked} attacked rows")
    idx = np.nonzero(m <= gamma)[0]
    if problems or idx.size != attacked:
        # a row within BAND of the radius makes the alignment ambiguous
        return problems
    Z, zy = rows[:, :-1], rows[:, -1].astype(np.int64)
    expect(problems, np.array_equal(zy, y[idx]), "witness labels differ from their rows")
    dist = np.max(np.abs(Z - X[idx]), axis=1) if math.isinf(p) else np.linalg.norm(Z - X[idx], ord=p, axis=1)
    expect(problems, bool(np.all(dist <= gamma * (1.0 + 1e-9) + 1e-12)),
           f"a witness lies {float(dist.max()):.3g} from its row, radius {gamma}")
    scale = 1.0 + abs(bias) + norm(w, 1.0) * float(np.max(np.abs(Z)))
    yd = zy * (Z @ w + bias)
    expect(problems, bool(np.all(yd <= 1e-9 * scale)), "a witness is correctly classified off the boundary")
    return problems


def check_certified_model(doc, model_text, X, y, p, gamma) -> list:
    """The saved model certifies every row in closed form."""
    problems: list = []
    w, bias = parse_model(model_text)
    m = signed_margins(w, bias, X, y, p)
    expect(problems, bool(np.all(m > gamma)),
           f"{int(np.sum(m <= gamma))} rows not certified by the saved model")
    expect(problems, metric(doc, "robust_accuracy") == 1, "robust_accuracy is not 1")
    return problems


def check_cascade(doc, n_eval: int, rounds: int, per_round_m: int) -> list:
    problems: list = []
    casc = metric(doc, "cascade_robust_accuracy")
    single = metric(doc, "single_model_robust_accuracy")
    expect(problems, metric(doc, "n_eval") == n_eval, "n_eval differs from the eval rows")
    for key in ("cascade_robust_accuracy", "single_model_robust_accuracy",
                "cascade_standard_accuracy", "single_model_standard_accuracy"):
        expect(problems, in_unit(metric(doc, key)), f"{key} outside [0, 1]")
    expect(problems, casc >= single, f"cascade robust accuracy {casc} below single model {single}")
    trail = doc.get("rounds", [])
    expect(problems, 1 <= len(trail) <= rounds, f"{len(trail)} rounds reported, limit {rounds}")
    expect(problems, all(r.get("sample_size") == per_round_m for r in trail),
           "a round sample size differs from per-round-m")
    return problems


def check_rcn(doc, model_text, X, y, gamma) -> list:
    """Accuracies recomputed from the saved model on the training rows."""
    problems: list = []
    w, bias = parse_model(model_text)
    n = X.shape[0]
    expect(problems, standard_accuracy_ok(metric(doc, "standard_accuracy"), w, bias, X, y),
           "standard_accuracy differs from the saved model")
    lo, hi = count_range(signed_margins(w, bias, X, y, 2.0), gamma / 2.0)
    expect(problems, accuracy_in_range(metric(doc, "margin_accuracy"), n, lo, hi),
           "margin_accuracy differs from the saved model")
    return problems


def check_cycle(doc, model_text, X, y, gamma, cap) -> list:
    problems = check_certified_model(doc, model_text, X, y, 2.0, gamma)
    expect(problems, metric(doc, "updates") <= cap, "updates exceed the mistake cap")
    expect(problems, metric(doc, "oracle_calls") <= X.shape[0] * cap, "oracle calls exceed m * cap")
    expect(problems, metric(doc, "standard_accuracy") == 1, "standard_accuracy is not 1")
    return problems


def finite_losses(w, bias, X, y, offsets) -> np.ndarray:
    """Per-row robust loss over an explicit offset list, by enumeration."""
    loss = np.zeros(X.shape[0], dtype=bool)
    for o in offsets:
        loss |= predict(w, bias, X + o) != y
    return loss


def check_wm(doc, pool_texts, X, y, offsets, eta) -> list:
    """Pool optimum by enumeration; mistakes within a * OPT + b * ln(pool size)
    with a = ln(1/eta) / ln(2/(1+eta)) and b = 1 / ln(2/(1+eta))."""
    problems: list = []
    opt = min(int(np.sum(finite_losses(*parse_model(t), X, y, offsets))) for t in pool_texts)
    denom = math.log(2.0 / (1.0 + eta))
    bound = math.log(1.0 / eta) / denom * opt + math.log(len(pool_texts)) / denom
    expect(problems, metric(doc, "pool_opt") == opt, f"pool_opt {metric(doc, 'pool_opt')} != brute force {opt}")
    expect(problems, metric(doc, "bound_holds") is True, "bound_holds is not true")
    expect(problems, metric(doc, "mistakes") <= bound, f"mistakes above the bound {bound:.6g}")
    expect(problems, close(metric(doc, "mistake_bound"), bound), "mistake_bound differs from the formula")
    expect(problems, metric(doc, "examples_seen") == X.shape[0], "examples_seen differs from the input rows")
    weights = metric(doc, "final_weights")
    expect(problems, len(weights) == len(pool_texts) and all(in_unit(v) for v in weights),
           "final_weights malformed")
    return problems


def check_rejectron(doc, selection_text, train_X, train_y, test_X, test_y, eps) -> list:
    """Rejection rates and selective error from the saved selection set."""
    problems: list = []
    kept_test = selection_keeps(selection_text, test_X)
    kept_train = selection_keeps(selection_text, train_X)
    expect(problems, close(metric(doc, "test_rejection_rate"), 1.0 - kept_test.mean(), 1e-12),
           "test_rejection_rate differs from the saved selection")
    expect(problems, close(metric(doc, "train_rejection_rate"), 1.0 - kept_train.mean(), 1e-12),
           "train_rejection_rate differs from the saved selection")
    rounds = metric(doc, "rounds")
    expect(problems, 0 <= rounds <= math.floor(1.0 / eps), f"rounds {rounds} above floor(1/eps)")
    expect(problems, len(doc.get("scores", [])) in (rounds, rounds + 1), "score trail length wrong")
    if kept_test.any():
        base = selection_text.split("base:", 1)[1].splitlines()[0].strip()
        preds = _token_predict(base, test_X[kept_test])
        err = float(np.mean(preds != test_y[kept_test]))
        expect(problems, close(metric(doc, "selective_test_error"), err, 1e-12),
               "selective_test_error differs from the saved selection")
    return problems


def check_urejectron(doc, selection_text, train_X, test_X) -> list:
    problems: list = []
    kept_test = selection_keeps(selection_text, test_X)
    kept_train = selection_keeps(selection_text, train_X)
    expect(problems, close(metric(doc, "test_rejection_rate"), 1.0 - kept_test.mean(), 1e-12),
           "test_rejection_rate differs from the saved selection")
    expect(problems, close(metric(doc, "train_rejection_rate"), 1.0 - kept_train.mean(), 1e-12),
           "train_rejection_rate differs from the saved selection")
    expect(problems, metric(doc, "train_rejection_rate") == 0, "the selection rejects a training row")
    rows = doc.get("tradeoff", [])
    expect(problems, len(rows) == test_X.shape[0] + 1, f"{len(rows)} tradeoff rows, want {test_X.shape[0] + 1}")
    for key in ("rej_p", "rej_q", "err_q"):
        vals = [r[key] for r in rows]
        expect(problems, all(in_unit(v) for v in vals), f"tradeoff {key} outside [0, 1]")
        if key != "err_q":
            expect(problems, all(a <= b for a, b in zip(vals, vals[1:])), f"tradeoff {key} not monotone")
    return problems


def check_alpha_boost(doc, rounds: int) -> list:
    """With finite offsets that include zero, robust correctness implies
    correctness, and a strict majority of robustly correct members on every
    example makes the vote robustly correct everywhere."""
    problems: list = []
    expect(problems, metric(doc, "rounds") == rounds, "rounds differs from --rounds")
    expect(problems, metric(doc, "mean_round_error") <= 1.0 / 3.0, "a round exceeded weighted error 1/3")
    robust = metric(doc, "majority_robust_accuracy")
    agreement = metric(doc, "min_agreement")
    for key in ("min_agreement", "majority_standard_accuracy", "majority_robust_accuracy"):
        expect(problems, in_unit(metric(doc, key)), f"{key} outside [0, 1]")
    expect(problems, robust <= metric(doc, "majority_standard_accuracy"),
           "robust accuracy above standard accuracy")
    if agreement > 0.5:
        expect(problems, robust == 1, "every example has a robust majority, yet the vote is not robust")
    return problems


def check_robustify(doc, inflated_size: int) -> list:
    """The realizable reduction ends with zero robust loss on its data."""
    problems: list = []
    expect(problems, metric(doc, "robust_risk") == 0, "robust_risk is not 0")
    expect(problems, metric(doc, "standard_accuracy") == 1, "standard_accuracy is not 1")
    expect(problems, metric(doc, "inflated_size") == inflated_size, "inflated_size differs from rows x offsets")
    return problems


def check_fms(doc, rounds: int) -> list:
    problems: list = []
    risk = metric(doc, "majority_robust_risk")
    expect(problems, metric(doc, "rounds") == rounds, "rounds differs from --rounds")
    expect(problems, in_unit(risk), "majority_robust_risk outside [0, 1]")
    expect(problems, metric(doc, "standard_accuracy") >= 1.0 - risk,
           "standard accuracy below robust accuracy")
    return problems
