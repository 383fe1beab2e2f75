"""Tests of the benchmark itself: output checks, span arithmetic, and wrapper
removal. Run from the repository root:

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import roblearn  # noqa: E402
import roblearn.cli  # noqa: E402
from roblearn.data import results_text  # noqa: E402


def _write_case(tmp_path, n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = np.where(X[:, 0] + 0.3 * rng.standard_normal(n) >= 0, 1, -1)
    w, bias = np.array([1.0, 0.2, -0.1]), 0.05
    rows = str(tmp_path / "rows.csv")
    np.savetxt(rows, np.column_stack([X, y]), fmt=["%.17g"] * 3 + ["%d"], delimiter=",")
    model = str(tmp_path / "model.txt")
    with open(model, "w") as fh:
        fh.write("linear-model v1\nw: %s\nbias: %.17g\n" % (" ".join("%.17g" % v for v in w), bias))
    return X, y, w, bias, rows, model


def _run(argv, out):
    assert roblearn.cli.main(argv + ["--output", out]) == 0
    with open(out) as fh:
        return fh.read()


def _corrupt(text, key, change):
    """Rewrite one metric line with change(old value): a one-row miscount."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        name, _, value = line.strip().partition(": ")
        if name == key:
            lines[i] = line[: line.index(name)] + f"{name}: {change(checks._scalar(value))!r}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"{key} not in document")


def test_certify_check_rejects_one_corrupted_metric(tmp_path):
    X, y, w, bias, rows, model = _write_case(tmp_path)
    text = _run(["certify", "--model", model, "--input", rows, "--gamma", "0.3"], str(tmp_path / "c.txt"))
    assert checks.check_certify(checks.parse_doc(text), X, y, w, bias, 2.0, 0.3) == []
    for key, change in (("robust_accuracy", lambda v: v - 1 / 200),
                        ("standard_accuracy", lambda v: v + 1 / 200), ("n", lambda v: v + 1)):
        bad = checks.parse_doc(_corrupt(text, key, change))
        assert checks.check_certify(bad, X, y, w, bias, 2.0, 0.3) != [], key


def test_attack_check_rejects_a_moved_witness(tmp_path):
    X, y, w, bias, rows, model = _write_case(tmp_path)
    wit = str(tmp_path / "w.csv")
    text = _run(["attack", "--model", model, "--input", rows, "--gamma", "0.2", "--p", "inf",
                 "--save-witnesses", wit], str(tmp_path / "a.txt"))
    doc = checks.parse_doc(text)
    with open(wit) as fh:
        witnesses = fh.read()
    assert checks.check_attack(doc, witnesses, X, y, w, bias, np.inf, 0.2) == []
    assert checks.check_attack(checks.parse_doc(_corrupt(text, "attacked", lambda v: v - 1)), witnesses,
                               X, y, w, bias, np.inf, 0.2) != []
    first, rest = witnesses.split("\n", 1)
    vals = first.split(",")
    vals[0] = repr(float(vals[0]) + 0.5)  # push one witness out of its ball
    assert checks.check_attack(doc, ",".join(vals) + "\n" + rest, X, y, w, bias, np.inf, 0.2) != []


def test_parse_doc_reads_what_results_text_writes():
    doc = {
        "config": {"subcommand": "x", "cluster": ["0,8:0.5:0.05", "1,2"], "gamma": 0.1},
        "rounds": [{"round": 1, "beta_hat": 0.25}, {"round": 2, "beta_hat": 1.0}],
        "empty": {},
        "metrics": {"n": 3, "ok": True, "acc": 1.0 / 3.0, "weights": [0.5, 1e-30], "none": []},
    }
    parsed = checks.parse_doc(results_text(doc))
    assert parsed["rounds"] == [{"round": 1, "beta_hat": 0.25}, {"round": 2, "beta_hat": 1}]
    assert parsed["config"]["cluster"] == ["0,8:0.5:0.05", "1,2"]
    assert parsed["metrics"] == {"n": 3, "ok": True, "acc": 1.0 / 3.0, "weights": [0.5, 1e-30], "none": []}
    assert parsed["empty"] == {}


def test_self_times_on_a_nested_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.5, 9.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter("root")      # 0
    t.enter("a")         # 1
    t.enter("b")         # 2
    t.exit()             # 3   b = 1
    t.exit()             # 4   a = 3, self 2
    t.enter("a")         # 5
    t.enter("c")         # 6
    t.exit()             # 8.5 c = 2.5
    t.exit()             # 9   a = 4, self 1.5
    t.exit()             # 10  root = 10, self 10 - 3 - 4 = 3
    own = tracing.self_times(t.spans)
    assert own == pytest.approx({"root": 3.0, "a": 3.5, "b": 1.0, "c": 2.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_reported_self_times_add_up_to_the_traced_pass():
    tracers = []
    for length in (4.0, 9.0, 5.0):
        ticks = iter([0.0, 1.0, 2.0, length])
        t = tracing.Tracer(clock=lambda ticks=ticks: next(ticks))
        t.enter(tracing.Tracer.ROOT)
        t.enter("core.robust_risk")
        t.exit()
        t.exit()
        tracers.append(t)
    values = tracing.layer_metrics(tracers, untraced_pass_s=4.0)
    assert values["trace.pass_s"] == 5.0
    assert sum(v for k, v in values.items() if k.endswith(".self_s")) == pytest.approx(5.0)
    assert values["core.robust_risk.self_s"] == 1.0
    assert values["trace.overhead_ratio"] == 1.25


def _bindings():
    spaces = {name: dict(vars(m)) for name, m in sys.modules.items()
              if m is not None and (name == "roblearn" or name.startswith("roblearn."))}
    spaces["Cascade"] = dict(vars(roblearn.Cascade))
    return spaces


def _same(before, after):
    return before.keys() == after.keys() and all(
        before[k].keys() == after[k].keys() and all(before[k][a] is after[k][a] for a in before[k])
        for k in before)


def test_wrappers_are_fully_removed(tmp_path):
    _, _, _, _, rows, model = _write_case(tmp_path)
    argv = ["certify", "--model", model, "--input", rows, "--gamma", "0.3", "--output", str(tmp_path / "o")]
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        assert not _same(before, _bindings())
        assert roblearn.cli.main(list(argv)) == 0
    assert _same(before, _bindings())
    assert tracer.counters["core.robust_loss.calls"] == 200
    assert tracer.counters["data.load_csv.rows"] == 200
    assert {s[0] for s in tracer.spans} >= {"cli.main", "cli.handler", "data.load_csv", "core.robust_risk"}

    with pytest.raises(RuntimeError):
        with tracing.Instrumented(tracing.Tracer()):
            raise RuntimeError("escapes the block")
    assert _same(before, _bindings())


def test_benchmark_json_lists_the_metrics_the_runner_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.LAYER_METRICS]
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-lp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
