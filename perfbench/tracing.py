"""Outside-in tracing of roblearn's layers.

The traced run wraps public functions of the program from the benchmark's own
files: it rebinds each name in every `roblearn.*` namespace that imported it,
records a span (name, parent, start, end) around layer boundaries and plain
counters around fine-grained calls, and restores every original binding when
it ends. The untraced run never installs a wrapper.

A span's self time is its duration minus the time its child spans cover; the
self times of all spans in a pass, root included, add up to the pass time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("data.load_csv.rows", "count", "lower"),
    ("data.load_csv.self_s", "s", "lower"),
    ("data.generate.calls", "count", "lower"),
    ("data.generate.self_s", "s", "lower"),
    ("data.save_csv.rows", "count", "lower"),
    ("data.results_text.bytes", "bytes", "lower"),
    ("data.results_text.self_s", "s", "lower"),
    ("core.robust_risk.calls", "count", "lower"),
    ("core.robust_risk.rows", "count", "lower"),
    ("core.robust_risk.self_s", "s", "lower"),
    ("core.robust_loss.calls", "count", "lower"),
    ("core.margins_batch.calls", "count", "lower"),
    ("core.inflate.rows", "count", "lower"),
    ("core.inflate.self_s", "s", "lower"),
    ("oracles.attack.calls", "count", "lower"),
    ("oracles.attack.self_s", "s", "lower"),
    ("oracles.separation_oracle.calls", "count", "lower"),
    ("oracles.ellipsoid_feasible.calls", "count", "lower"),
    ("oracles.ellipsoid_feasible.iterations", "count", "lower"),
    ("oracles.ellipsoid_feasible.self_s", "s", "lower"),
    ("oracles.ellipsoid_certify.calls", "count", "lower"),
    ("oracles.ellipsoid_certify.certified_ratio", "ratio", "higher"),
    ("oracles.rerm_ellipsoid.self_s", "s", "lower"),
    ("kernels.hinge_train.calls", "count", "lower"),
    ("kernels.hinge_train.steps", "count", "lower"),
    ("kernels.hinge_train.self_s", "s", "lower"),
    ("kernels.md_rcn.steps", "count", "lower"),
    ("kernels.md_rcn.self_s", "s", "lower"),
    ("kernels.md_glm.steps", "count", "lower"),
    ("kernels.md_glm.self_s", "s", "lower"),
    ("learners.svm_margin.calls", "count", "lower"),
    ("learners.erm_linear.calls", "count", "lower"),
    ("learners.self_s", "s", "lower"),
    ("boosting.rejection_sample.draws", "count", "lower"),
    ("boosting.rejection_sample.accepts", "count", "lower"),
    ("boosting.rejection_sample.accept_ratio", "ratio", "higher"),
    ("boosting.rejection_sample.self_s", "s", "lower"),
    ("boosting.alpha_boost.rounds", "count", "lower"),
    ("boosting.alpha_boost.self_s", "s", "lower"),
    ("boosting.vote_agreement.self_s", "s", "lower"),
    ("boosting.Cascade.predict_batch.rows", "count", "lower"),
    ("boosting.Cascade.predict_batch.self_s", "s", "lower"),
    ("reductions.robustify_nonrobust.self_s", "s", "lower"),
    ("reductions.fms_agnostic.self_s", "s", "lower"),
    ("reductions.weighted_majority_robust.self_s", "s", "lower"),
    ("reductions.cycle_robust.self_s", "s", "lower"),
    ("reductions.oracle.calls", "count", "lower"),
    ("redaction.select_member.calls", "count", "lower"),
    ("redaction.rejectron.self_s", "s", "lower"),
    ("redaction.urejectron.self_s", "s", "lower"),
    ("cli.handler.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.harness.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

class Tracer:
    """Spans kept in memory plus named counters, for one single-threaded pass."""

    ROOT = "trace.harness"  # the span the runner opens around a whole pass

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.stack: list = []
        self.counters: Counter = Counter()

    def enter(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, parent, self.clock(), None])

    def exit(self) -> None:
        self.spans[self.stack.pop()][3] = self.clock()


def self_times(spans) -> dict:
    """Sum over spans of each name: duration minus the durations of direct
    children. Spans of one thread nest, so children never overlap."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict = defaultdict(float)
    for (name, _, _, _), value in zip(spans, own):
        totals[name] += value
    return dict(totals)


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------


def _add(key, amount_of):
    def count(c, args, kwargs, result):
        c[key] += amount_of(args, kwargs, result)
    return count


def _calls(key):
    count = _add(key, lambda a, k, r: 1)
    count.plain_key = key  # lets the wrapper use the cheaper call counter
    return count


def _counted(fn, counters, key):
    def counted(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)
    return counted


def _certify_count(c, args, kwargs, result):
    c["oracles.ellipsoid_certify.calls"] += 1
    c["oracles.ellipsoid_certify.certified"] += result is None


def _wrap_first_arg(key):
    """Replace the first positional argument (a source or separation
    oracle) by a counting twin, so calls made inside the loop are seen."""
    def hook(tracer, args, kwargs):
        return (_counted(args[0], tracer.counters, key),) + tuple(args[1:]), kwargs
    return hook


def _wrap_result(key):
    """Count the calls of the closure a factory returns."""
    def post(tracer, result):
        return _counted(result, tracer.counters, key)
    return post


# (module, attribute, span name or None, counters, argument hook, result hook)
TARGETS = [
    ("roblearn.data", "load_csv", "data.load_csv", [_add("data.load_csv.rows", lambda a, k, r: r.n)], None, None),
    ("roblearn.data", "generate", "data.generate", [_calls("data.generate.calls")], None, None),
    ("roblearn.data", "save_csv", None, [_add("data.save_csv.rows", lambda a, k, r: a[1].n)], None, None),
    ("roblearn.data", "results_text", "data.results_text",
     [_add("data.results_text.bytes", lambda a, k, r: len(r.encode("utf-8")))], None, None),
    ("roblearn.core", "robust_risk", "core.robust_risk",
     [_calls("core.robust_risk.calls"), _add("core.robust_risk.rows", lambda a, k, r: a[1].n)], None, None),
    ("roblearn.core", "robust_loss", None, [_calls("core.robust_loss.calls")], None, None),
    ("roblearn.core", "margins_batch", None, [_calls("core.margins_batch.calls")], None, None),
    ("roblearn.core", "inflate", "core.inflate", [_add("core.inflate.rows", lambda a, k, r: r.data.n)], None, None),
    ("roblearn.oracles", "attack", "oracles.attack", [_calls("oracles.attack.calls")], None, None),
    ("roblearn.oracles", "separation_oracle", None, [_calls("oracles.separation_oracle.calls")], None, None),
    ("roblearn.oracles", "ellipsoid_feasible", "oracles.ellipsoid_feasible",
     [_calls("oracles.ellipsoid_feasible.calls")], _wrap_first_arg("oracles.ellipsoid_feasible.iterations"), None),
    ("roblearn.oracles", "ellipsoid_certify", None, [_certify_count], None, None),
    ("roblearn.oracles", "rerm_ellipsoid", "oracles.rerm_ellipsoid", [], None, None),
    ("roblearn._kernels", "hinge_train", "kernels.hinge_train",
     [_calls("kernels.hinge_train.calls"), _add("kernels.hinge_train.steps", lambda a, k, r: a[3])], None, None),
    ("roblearn._kernels", "md_rcn", "kernels.md_rcn", [_add("kernels.md_rcn.steps", lambda a, k, r: len(a[5]))], None, None),
    ("roblearn._kernels", "md_glm", "kernels.md_glm", [_add("kernels.md_glm.steps", lambda a, k, r: len(a[6]))], None, None),
    ("roblearn.learners", "svm_margin", "learners", [_calls("learners.svm_margin.calls")], None, None),
    ("roblearn.learners", "erm_linear", "learners", [_calls("learners.erm_linear.calls")], None, None),
    ("roblearn.learners", "rcn_train_md", "learners", [], None, None),
    ("roblearn.learners", "glm_train", "learners", [], None, None),
    ("roblearn.boosting", "rejection_sample", "boosting.rejection_sample",
     [_add("boosting.rejection_sample.accepts", lambda a, k, r: 0 if r is None else r.n)],
     _wrap_first_arg("boosting.rejection_sample.draws"), None),
    ("roblearn.boosting", "alpha_boost", "boosting.alpha_boost",
     [_add("boosting.alpha_boost.rounds", lambda a, k, r: len(r[0]))], None, None),
    ("roblearn.boosting", "vote_agreement", "boosting.vote_agreement", [], None, None),
    ("roblearn.boosting", "Cascade.predict_batch", "boosting.Cascade.predict_batch",
     [_add("boosting.Cascade.predict_batch.rows", lambda a, k, r: len(r))], None, None),
    ("roblearn.reductions", "robustify_nonrobust", "reductions.robustify_nonrobust", [], None, None),
    ("roblearn.reductions", "fms_agnostic", "reductions.fms_agnostic", [], None, None),
    ("roblearn.reductions", "weighted_majority_robust", "reductions.weighted_majority_robust", [], None, None),
    ("roblearn.reductions", "cycle_robust", "reductions.cycle_robust", [], None, None),
    ("roblearn.reductions", "enumeration_attack", None, [], None, _wrap_result("reductions.oracle.calls")),
    ("roblearn.reductions", "margin_attack", None, [], None, _wrap_result("reductions.oracle.calls")),
    ("roblearn.redaction", "select_member", None, [_calls("redaction.select_member.calls")], None, None),
    ("roblearn.redaction", "rejectron", "redaction.rejectron", [], None, None),
    ("roblearn.redaction", "urejectron", "redaction.urejectron", [], None, None),
    ("roblearn.cli", "main", "cli.main", [], None, None),
    ("roblearn.cli", "_cmd_*", "cli.handler", [], None, None),
]


def _wrapper(tracer, fn, span, counts, arg_hook, result_hook):
    counters = tracer.counters
    if span is None and arg_hook is None and result_hook is None and len(counts) == 1 \
            and hasattr(counts[0], "plain_key"):
        return _counted(fn, counters, counts[0].plain_key)

    def wrapper(*args, **kwargs):
        if arg_hook is not None:
            args, kwargs = arg_hook(tracer, args, kwargs)
        if span is not None:
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
        else:
            result = fn(*args, **kwargs)
        for count in counts:
            count(counters, args, kwargs, result)
        if result_hook is not None:
            result = result_hook(tracer, result)
        return result

    return wrapper


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "roblearn" or name.startswith("roblearn."))]


class Instrumented:
    """Context manager: wraps every target for the duration of the block and
    puts every original binding back on exit, even when the block raises."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches: list = []  # (owner, attribute, original)

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        try:
            for module, attr, span, counts, arg_hook, result_hook in TARGETS:
                home = importlib.import_module(module)
                if "." in attr:  # a method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = cls.__dict__[meth]
                    self._patch(cls, meth, _wrapper(self.tracer, fn, span, counts, arg_hook, result_hook))
                    continue
                if attr.endswith("*"):
                    names = [n for n in vars(home) if n.startswith(attr[:-1]) and callable(vars(home)[n])]
                else:
                    names = [attr]
                for name in names:
                    fn = vars(home)[name]
                    wrapped = _wrapper(self.tracer, fn, span, counts, arg_hook, result_hook)
                    for ns in _namespaces():
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                self._patch(ns, key, wrapped)
        except BaseException:
            self.restore()
            raise
        return self.tracer

    def restore(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(tracers: list, untraced_pass_s: float) -> dict:
    """Per-layer metric values from the traced pass of median length, so that
    its self times add up to trace.pass_s exactly."""
    per_pass = [self_times(t.spans) for t in tracers]
    totals = [sum(p.values()) for p in per_pass]
    pick = totals.index(statistics.median_low(totals))
    own, counters = per_pass[pick], tracers[pick].counters
    values: dict = {}
    for name, unit, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = own.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = float(counters.get(name, 0))
    draws = counters.get("boosting.rejection_sample.draws", 0)
    values["boosting.rejection_sample.accept_ratio"] = (
        counters.get("boosting.rejection_sample.accepts", 0) / draws if draws else 0.0)
    calls = counters.get("oracles.ellipsoid_certify.calls", 0)
    values["oracles.ellipsoid_certify.certified_ratio"] = (
        counters.get("oracles.ellipsoid_certify.certified", 0) / calls if calls else 0.0)
    values["trace.pass_s"] = totals[pick]
    values["trace.untraced_pass_s"] = untraced_pass_s
    values["trace.overhead_ratio"] = totals[pick] / untraced_pass_s
    return values
