"""Command-line harness: every algorithm as a subcommand, every run a
deterministic function of its flags and seed, every result a structured text
document."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FiniteOffsets,
    LpBall,
    losses_on,
    margins_batch,
    robust_losses,
    robust_risk,
    worst_case_point,
)
from .oracles import (
    check_disjoint_balls,
    default_ellipsoid_config,
    ellipsoid_certify_batch,
    rerm_ellipsoid,
)
from .learners import (
    GlmConfig,
    RcnConfig,
    WeightedDataset,
    erm_linear,
    glm_train,
    perceptron_init,
    perceptron_model,
    rcn_train_md,
    reuse_fits,
    svm_margin,
)
from .boosting import (
    AlphaBoostConfig,
    BoostConfig,
    alpha_boost,
    beta_roboost,
    beta_uroboost,
    finite_source,
    vote_agreement,
)
from .reductions import (
    RobustifyConfig,
    cycle_robust,
    fms_agnostic,
    margin_attack,
    one_pass_robust,
    robustify_nonrobust,
    weighted_majority_robust,
    wm_constants,
)
from .redaction import (
    DistinguisherT1,
    FinitePoolPairs,
    PoolHypotheses,
    RedactConfig,
    rejectron,
    save_selection,
    select_members,
    transductive_pool,
    urejectron,
)
from .data import (
    GaussianPair,
    GenSpec,
    MarginCluster,
    MarginUnion,
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
from .errors import ConfigError, RoblearnError

EXIT_OK = 0
EXIT_INTERNAL = 1  # an exception that is not a RoblearnError: a bug in the program


def _exit_code(exc: BaseException) -> int:
    """The error class's own code for a RoblearnError, else EXIT_INTERNAL."""
    return exc.exit_code if isinstance(exc, RoblearnError) else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _vec(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"not a comma-separated vector: {text!r}") from None


def _cluster(text: str) -> MarginCluster:
    parts = text.split(":")
    if len(parts) > 3:
        raise ConfigError(f"not a cluster center:weight:spread: {text!r}")
    try:
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        spread = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
    except ValueError:
        raise ConfigError(f"not a cluster center:weight:spread: {text!r}") from None
    return MarginCluster(tuple(_vec(parts[0])), weight, spread)


def _check_width(what: str, width: int, d: int) -> None:
    if width != d:
        raise ConfigError(f"{what} has dimension {width}, where {d} is expected")


def _load(read, path: str, d: int, flag: str):
    """read(path), a model or rows whose dimension must be d, that of the rows it runs with."""
    obj = read(path)
    _check_width(f"{flag} {path}", obj.d if isinstance(obj, Dataset) else obj.w.size, d)
    return obj


def _gen_kind(args):
    if args.gen == "gaussian":
        pos = _vec(args.center_pos)
        neg = _vec(args.center_neg) if args.center_neg else -pos
        return GaussianPair((pos, neg), args.sigma)
    if args.gen == "moons":
        return TwoMoons(args.noise)
    if args.gen == "margin-union":
        if not args.cluster:
            raise ConfigError("margin-union needs at least one --cluster")
        return MarginUnion(tuple(_cluster(c) for c in args.cluster))
    raise ConfigError("provide --gen")


def _stream(args, data: Dataset | None):
    """A labeled source: finite over already loaded rows, endless for generators."""
    if data is not None:
        return finite_source(data)
    if args.gen:
        kind = _gen_kind(args)
        rng = substream(args.seed, "source")

        def draw(k: int) -> Dataset:
            return generate(GenSpec(kind, k, rng_seed=int(rng.integers(0, 2**31))))

        return draw
    raise ConfigError("provide --input or --gen")


def _eval_data(args, train: Dataset | None, d: int) -> tuple[Dataset, str]:
    if args.test_input:
        return _load(load_csv, args.test_input, d, "--test-input"), "test-input"
    if getattr(args, "gen", None):
        eval_seed = int(substream(args.seed, "eval").integers(0, 2**31))
        return generate(GenSpec(_gen_kind(args), args.eval_n, rng_seed=eval_seed)), "generated"
    return train, "train"


def _offsets(args, d: int) -> FiniteOffsets:
    if not args.offset:
        raise ConfigError("this subcommand needs --offset entries (include 0)")
    offsets = [_vec(o) for o in args.offset]
    for text, o in zip(args.offset, offsets):
        _check_width(f"--offset {text}", o.size, d)
    return FiniteOffsets(np.stack(offsets))


def _ball(args) -> LpBall:
    return LpBall(args.p, args.gamma)


def _std_acc(model, data: Dataset) -> float:
    return float(np.mean(model.predict_batch(data.X) == data.y))


def _echo(args, keys: str) -> dict:
    out = {"subcommand": args.command}
    for k in keys.split():
        v = getattr(args, k.replace("-", "_"))
        if v is not None:
            out[k] = list(v) if isinstance(v, (list, tuple)) else v
    return out


def _barely_learner(name: str):
    if name == "svm":
        return svm_margin
    return lambda d: erm_linear(WeightedDataset.uniform(d))


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the results document)
# ---------------------------------------------------------------------------


def _cmd_certify(args) -> dict:
    data = load_csv(args.input)
    model = _load(load_model, args.model, data.d, "--model")
    ball = _ball(args)
    if args.method == "closed":
        risk = robust_risk(model, data, ball)
    else:
        cfg = default_ellipsoid_config(ball, data.d)
        bad = sum(z is not None for z in ellipsoid_certify_batch(model, data, ball, cfg))
        risk = bad / data.n
    return {
        "metrics": {
            "n": data.n,
            "robust_accuracy": 1.0 - risk,
            "standard_accuracy": _std_acc(model, data),
        },
    }


def _cmd_attack(args) -> dict:
    data = load_csv(args.input)
    model = _load(load_model, args.model, data.d, "--model")
    ball = _ball(args)
    lost = np.flatnonzero(robust_losses(model, data, ball))
    if args.save_witnesses and lost.size:
        witnesses = worst_case_point(model, data.X[lost], data.y[lost], ball)
        save_csv(args.save_witnesses, Dataset(witnesses, data.y[lost]))
    return {
        "metrics": {
            "n": data.n,
            "attacked": int(lost.size),
            "attacked_fraction": int(lost.size) / data.n,
            "mean_margin": float(np.mean(data.y * margins_batch(model, data.X, args.p))),
        },
    }


def _cmd_rerm_ellipsoid(args) -> dict:
    data = load_csv(args.input)
    ball = _ball(args)
    check_disjoint_balls(data, ball)
    cfg = default_ellipsoid_config(ball, data.d)
    model = rerm_ellipsoid(data, ball, cfg)
    if args.save_model:
        save_model(args.save_model, model)
    return {
        "metrics": {
            "n": data.n,
            "robust_accuracy": 1.0 - robust_risk(model, data, ball),
            "standard_accuracy": _std_acc(model, data),
        },
    }


def _cascade_metrics(cascade, data: Dataset, ball: LpBall) -> dict:
    first = cascade.stages[0].model
    return {
        "n_eval": data.n,
        "cascade_robust_accuracy": 1.0 - robust_risk(cascade, data, ball),
        "single_model_robust_accuracy": 1.0 - robust_risk(first, data, ball),
        "cascade_standard_accuracy": _std_acc(cascade, data),
        "single_model_standard_accuracy": _std_acc(first, data),
    }


def _boost_config(args) -> BoostConfig:
    return BoostConfig(
        beta=args.beta,
        eps=args.eps,
        delta=args.delta,
        rounds=args.rounds,
        per_round_m=args.per_round_m,
        multi_granularity=args.multi_granularity,
    )


def _cmd_roboost(args) -> dict:
    ball = _ball(args)
    train = load_csv(args.input) if args.input else None
    source = _stream(args, train)
    learner = _barely_learner(args.learner)
    cfg = _boost_config(args)
    cascade, rounds = beta_roboost(source, learner, cfg, ball)
    eval_data, eval_kind = _eval_data(args, train, cascade.fallback.w.size)
    return {
        "rounds": [{"round": i, "beta_hat": bh, "sample_size": sz}
                   for i, (bh, sz) in enumerate(rounds, 1)],
        "stopped_early": len(rounds) < cfg.rounds_resolved,
        "eval_on": eval_kind,
        "metrics": _cascade_metrics(cascade, eval_data, ball),
    }


def _cmd_uroboost(args) -> dict:
    ball = _ball(args)
    labeled = load_csv(args.input)
    if args.unlabeled_input:
        unlabeled = finite_source(_load(load_csv, args.unlabeled_input, labeled.d, "--unlabeled-input"))
    elif args.gen:
        unlabeled = _stream(args, None)
    else:
        raise ConfigError("provide --unlabeled-input or --gen for the unlabeled source")
    learner = _barely_learner(args.learner)
    cfg = _boost_config(args)
    cascade, rounds = beta_uroboost(labeled, unlabeled, learner, cfg, ball)
    eval_data, eval_kind = _eval_data(args, labeled, labeled.d)
    return {
        "rounds": [{"round": i, "beta_hat": bh} for i, (bh, _) in enumerate(rounds, 1)],
        "stopped_early": len(rounds) < cfg.rounds_resolved,
        "eval_on": eval_kind,
        "metrics": _cascade_metrics(cascade, eval_data, ball),
    }


def _cmd_alpha_boost(args) -> dict:
    data = load_csv(args.input)
    U = _offsets(args, data.d) if args.offset else _ball(args) if args.gamma != 0 else None
    cfg = AlphaBoostConfig(
        alpha=args.alpha,
        rounds=args.rounds,
        delta=args.delta,
        agreement_mode=args.agreement_mode,
    )
    models, vote, round_errors = alpha_boost(data, reuse_fits(erm_linear), cfg, U=U)
    alpha, rounds = cfg.resolved(data.n)
    metrics = {
        "rounds": rounds,
        "alpha": alpha,
        "min_agreement": float(vote_agreement(models, data, U=U).min()),
        "mean_round_error": float(np.mean(round_errors)),
        "majority_standard_accuracy": _std_acc(vote, data),
    }
    if U is None or isinstance(U, FiniteOffsets):
        metrics["majority_robust_accuracy"] = (
            1.0 - robust_risk(vote, data, U) if U is not None else _std_acc(vote, data)
        )
    return {"metrics": metrics}


def _cmd_robustify(args) -> dict:
    data = load_csv(args.input)
    U = _offsets(args, data.d)
    cfg = RobustifyConfig(
        outer_rounds=args.rounds,
        inner_rounds=args.inner_rounds,
        subsample=args.subsample,
        sparsify_N=args.sparsify_n,
        rng_seed=args.seed,
    )
    vote, rounds_run = robustify_nonrobust(data, U, reuse_fits(erm_linear), cfg)
    return {
        "metrics": {
            "rounds_run": rounds_run,
            "inflated_size": data.n * U.k,
            "robust_risk": robust_risk(vote, data, U),
            "standard_accuracy": _std_acc(vote, data),
        },
    }


def _cmd_fms(args) -> dict:
    data = load_csv(args.input)
    U = _offsets(args, data.d)
    vote, eta = fms_agnostic(data, U, reuse_fits(erm_linear), eta_mw=args.eta_mw, rounds=args.rounds,
                             eps=args.eps)
    return {
        "metrics": {
            "rounds": len(vote.models),
            "eta": eta,
            "majority_robust_risk": robust_risk(vote, data, U),
            "standard_accuracy": _std_acc(vote, data),
        },
    }


def _cmd_cycle_robust(args) -> dict:
    data = load_csv(args.input)
    ball = _ball(args)
    oracle = margin_attack(ball)
    state, updates, passes = cycle_robust(data, perceptron_init(data.d), oracle, args.mistake_cap)
    model = perceptron_model(state)
    if args.save_model:
        save_model(args.save_model, model)
    return {
        "metrics": {
            "oracle_calls": passes * data.n,
            "updates": updates,
            "passes": passes,
            "robust_accuracy": 1.0 - robust_risk(model, data, ball),
            "standard_accuracy": _std_acc(model, data),
        },
    }


def _cmd_one_pass(args) -> dict:
    ball = _ball(args)
    train = load_csv(args.input) if args.input else None
    stream = _stream(args, train)
    oracle = margin_attack(ball)
    probe = stream(1)
    d = probe.d

    def stream_with_probe(k: int):
        # the probe row leads the first block, whatever its size
        nonlocal probe
        if probe is None:
            return stream(k)
        rest = stream(k - 1) if k > 1 else None  # may raise; the probe stays first
        head, probe = probe, None
        return head if rest is None else Dataset(np.vstack([head.X, rest.X]),
                                                 np.concatenate([head.y, rest.y]))

    state, updates, run_length = one_pass_robust(
        stream_with_probe, perceptron_init(d), oracle, args.eps, args.delta, args.mistake_cap)
    model = perceptron_model(state)
    if args.save_model:
        save_model(args.save_model, model)
    eval_data, eval_kind = _eval_data(args, train, d)
    return {
        "eval_on": eval_kind,
        "metrics": {
            "updates": updates,
            "run_length": run_length,
            "robust_accuracy": 1.0 - robust_risk(model, eval_data, ball),
            "standard_accuracy": _std_acc(model, eval_data),
        },
    }


def _cmd_wm(args) -> dict:
    data = load_csv(args.input)
    U = _offsets(args, data.d)
    pool = [_load(load_model, p, data.d, "--pool") for p in args.pool]
    weights, _, mistakes, seen = weighted_majority_robust(
        pool, finite_source(data), U, args.eta_wm, rounds=args.rounds)
    opt = min(int(losses.sum()) for losses in map(losses_on(data, U), pool))
    doc = {
        "metrics": {
            "mistakes": mistakes,
            "examples_seen": seen,
            "pool_opt": opt,
            "final_weights": [float(w) for w in weights.weights],
        },
    }
    if 0.0 < args.eta_wm < 1.0:
        a, b = wm_constants(args.eta_wm)
        bound = a * opt + b * math.log(len(pool))
        doc["metrics"]["bound_a"] = a
        doc["metrics"]["bound_b"] = b
        doc["metrics"]["mistake_bound"] = bound
        doc["metrics"]["bound_holds"] = mistakes <= bound
    return doc


def _cmd_rcn_train(args) -> dict:
    data = load_csv(args.input)
    shared = dict(gamma=args.gamma, eta=args.rcn_eta, q=args.q, steps=args.steps,
                  rng_seed=args.seed)
    if args.method == "md":
        model = rcn_train_md(data, RcnConfig(eps=args.eps, **shared))
    else:
        model = glm_train(data, GlmConfig(**shared))
    if args.save_model:
        save_model(args.save_model, model)
    eval_data, eval_kind = _eval_data(args, data, data.d)
    return {
        "eval_on": eval_kind,
        "metrics": {
            "standard_accuracy": _std_acc(model, eval_data),
            "margin_accuracy": float(
                np.mean(robust_losses(model, eval_data, LpBall(2.0, args.gamma / 2.0)) == 0)
            ),
        },
    }


def _rejection(selection, train: Dataset, test: Dataset):
    """The test rows a selection keeps, and its rejection rate on each sample."""
    kept = select_members(selection, test.X)
    kept_train = select_members(selection, train.X)
    return kept, {
        "test_rejection_rate": float(1.0 - kept.mean()) if test.n else 0.0,
        "train_rejection_rate": float(1.0 - kept_train.mean()),
    }


def _cmd_rejectron(args) -> dict:
    train = load_csv(args.input)
    test = _load(load_csv, args.test_input, train.d, "--test-input")
    cfg = RedactConfig(eps=args.eps, weight=args.lambda_weight)
    h, selection, scores = rejectron(train, test.X, cfg)
    if args.save_selection:
        save_selection(args.save_selection, selection)
    kept, rates = _rejection(selection, train, test)
    metrics = {"rounds": len(selection.members), **rates}
    if kept.any():
        preds = h.predict_batch(test.X[kept])
        metrics["selective_test_error"] = float(np.mean(preds != test.y[kept]))
    return {
        "scores": scores,
        "metrics": metrics,
    }


def _kept_error(raw, wrong, thresholds) -> list:
    """The share of wrong rows among those with raw >= t for each threshold
    t, or 0.0 where none is kept. A nan row is never kept; a nan t keeps none."""
    valid = ~np.isnan(raw)
    kept, errors = (s.size - np.searchsorted(np.sort(s), thresholds)
                    for s in (raw[valid], raw[valid & wrong]))
    return (errors / np.maximum(kept, 1)).tolist()


def _cmd_urejectron(args) -> dict:
    train = load_csv(args.input)
    test = _load(load_csv, args.test_input, train.d, "--test-input")
    cfg = RedactConfig(eps=args.eps, weight=args.lambda_weight)
    if args.backend == "pairs":
        if not args.pool:
            raise ConfigError("pairs backend needs --pool model files")
        backend = FinitePoolPairs([_load(load_model, p, train.d, "--pool") for p in args.pool])
    else:
        backend = DistinguisherT1()
    selection, scores, tradeoff = urejectron(train.X, test.X, cfg, backend)
    doc = {"metrics": _rejection(selection, train, test)[1]}
    if args.backend == "t1":
        wrong = erm_linear(WeightedDataset.uniform(train)).predict_batch(test.X) != test.y
        errs = _kept_error(scores, wrong, [r["threshold"] for r in tradeoff])
        doc["tradeoff"] = [{"threshold": r["threshold"], "rej_p": r["rej_train"], "rej_q": r["rej_test"],
                            "err_q": e} for r, e in zip(tradeoff, errs)]
    if args.save_selection:
        save_selection(args.save_selection, selection)
    return doc


def _cmd_transductive_pool(args) -> dict:
    train = load_csv(args.input)
    test = _load(load_csv, args.test_input, train.d, "--test-input")
    pool = PoolHypotheses(tuple(_load(load_model, p, train.d, "--pool") for p in args.pool))
    U = _offsets(args, train.d) if args.offset else _ball(args)
    model, labels, scores = transductive_pool(pool, train, test.X, U, mode=args.mode)
    chosen = next(i for i, h in enumerate(pool.models) if h is model)
    if args.save_labels:
        save_csv(args.save_labels, Dataset(test.X, labels))
    return {
        "scores": [{"labeled": rl, "unlabeled": ru} for rl, ru in scores],
        "metrics": {
            "chosen_index": chosen,
            "test_agreement_with_csv_labels": float(np.mean(labels == test.y)),
            "labeled_positive": int(np.sum(labels == 1)),
            "labeled_negative": int(np.sum(labels == -1)),
        },
    }


def _cmd_gen_data(args) -> dict:
    data = generate(GenSpec(_gen_kind(args), args.n, rng_seed=args.seed))
    if args.eta:
        data = apply_rcn(data, args.eta, args.seed)
    save_csv(args.out_csv, data)
    return {
        "written": {"path": args.out_csv, "rows": data.n, "dim": data.d},
    }


# ---------------------------------------------------------------------------
# subcommand table
# ---------------------------------------------------------------------------


# add_argument keywords of each flag that a row names by itself
_FLAGS = {
    "--model": dict(required=True),
    "--input": dict(required=True),
    "--test-input": dict(default=None),
    "--gamma": dict(type=float, required=True),
    "--p": dict(type=float, default=2.0),
    "--gen": dict(choices=["gaussian", "moons", "margin-union"]),
    "--n": dict(type=int, default=200),
    "--center-pos": dict(default="2,0"),
    "--center-neg": dict(default=None),
    "--sigma": dict(type=float, default=0.0),
    "--noise": dict(type=float, default=0.0),
    "--cluster": dict(action="append", default=[]),
    "--eval-n": dict(type=int, default=2000),
    "--eps": dict(type=float, required=True),
    "--beta": dict(type=float, required=True),
    "--delta": dict(type=float, default=0.05),
    "--rounds": dict(type=int, default=None),
    "--per-round-m": dict(type=int, default=None),
    "--learner": dict(choices=["svm", "erm"], default="svm"),
    "--multi-granularity": dict(action="store_true"),
    "--offset": dict(action="append", default=[]),
    "--mistake-cap": dict(type=int, required=True),
    "--save-model": dict(default=None),
    "--lambda-weight": dict(type=float, default=None),
    "--save-selection": dict(default=None),
    "--pool": dict(nargs="+", required=True),
    "--seed": dict(type=int, default=0),
    "--output": dict(default=None, help="results document path (default stdout)"),
}
_BALL = ("--gamma", "--p")
_GEN = ("--gen", "--n", "--center-pos", "--center-neg", "--sigma", "--noise", "--cluster",
        "--eval-n")
_BOOST = ("--test-input", "--eps", "--beta", "--delta", "--rounds", "--per-round-m", "--learner",
          "--multi-granularity", *_BALL, *_GEN)
_COMMON = ("--seed", "--output")  # the last flags of every subcommand


@dataclass(frozen=True)
class Command:
    """One subcommand. Its handler is the module's `_cmd_<name>`, dashes as
    underscores, looked up when it runs, so a wrapper bound over that name
    (perfbench's tracer) is the one called. The handler returns the results
    document without its "config" entry, which main puts first."""

    help: str
    echo: str  # the flags the "config" entry echoes, in order, without "--"
    flags: tuple  # names of _FLAGS entries, or (name, add_argument keywords)


COMMANDS = {
    "certify": Command(
        "robust accuracy of a saved model", "model input gamma p method",
        ("--model", "--input", ("--method", dict(choices=["closed", "ellipsoid"], default="closed")),
         *_BALL)),
    "attack": Command(
        "worst-case witnesses against a saved model", "model input gamma p",
        ("--model", "--input", ("--save-witnesses", dict(default=None)), *_BALL)),
    "rerm-ellipsoid": Command(
        "robust ERM via ellipsoid search", "input gamma p seed",
        ("--input", "--save-model", *_BALL)),
    "roboost": Command(
        "boost a barely robust learner into a cascade",
        "input gen n gamma p eps beta delta rounds per-round-m learner multi-granularity seed",
        (("--input", dict(default=None)), *_BOOST)),
    "uroboost": Command(
        "boost robustness with unlabeled data",
        "input unlabeled-input gen n gamma p eps beta delta rounds per-round-m learner seed",
        ("--input", ("--unlabeled-input", dict(default=None)), *_BOOST)),
    "alpha-boost": Command(
        "multiplicative-weights boosting", "input gamma p offset alpha rounds agreement-mode seed",
        ("--input", ("--gamma", dict(type=float, default=0.0)), "--p", "--offset",
         ("--alpha", dict(type=float, default=None)), "--rounds", "--delta",
         ("--agreement-mode", dict(action="store_true")))),
    "robustify": Command(
        "robust learner from a non-robust one (finite sets)",
        "input offset rounds inner-rounds subsample seed",
        ("--input", "--offset", "--rounds", ("--inner-rounds", dict(type=int, default=None)),
         ("--subsample", dict(type=int, default=32)),
         ("--sparsify-n", dict(type=int, default=25)))),
    "fms": Command(
        "agnostic finite-set reduction", "input offset eta-mw rounds eps seed",
        ("--input", "--offset", ("--eta-mw", dict(type=float, default=None)), "--rounds",
         ("--eps", dict(type=float, default=0.2)))),
    "cycle-robust": Command(
        "perceptron cycled against the attack oracle", "input gamma p mistake-cap seed",
        ("--input", "--mistake-cap", "--save-model", *_BALL)),
    "one-pass": Command(
        "single-pass online robust training", "input gen gamma p eps delta mistake-cap seed",
        (("--input", dict(default=None)), "--test-input", "--eps", "--delta", "--mistake-cap",
         "--save-model", *_BALL, *_GEN)),
    "wm": Command(
        "weighted majority over a model pool", "input offset eta-wm rounds pool seed",
        ("--input", "--offset", ("--eta-wm", dict(type=float, required=True)), "--rounds",
         "--pool")),
    "rcn-train": Command(
        "noise-tolerant margin training", "input method gamma rcn-eta eps q steps seed",
        (("--method", dict(choices=["md", "glm"], default="md")), "--input", "--test-input",
         "--gamma", ("--rcn-eta", dict(type=float, required=True)),
         ("--eps", dict(type=float, default=0.05)), ("--q", dict(type=float, default=2.0)),
         ("--steps", dict(type=int, default=None)), "--save-model")),
    "rejectron": Command(
        "selective classification under test-time drift",
        "input test-input eps lambda-weight seed",
        ("--input", ("--test-input", dict(required=True)), "--eps", "--lambda-weight",
         "--save-selection")),
    "urejectron": Command(
        "unsupervised selective classification",
        "input test-input eps lambda-weight backend seed",
        ("--input", ("--test-input", dict(required=True)), "--eps", "--lambda-weight",
         ("--backend", dict(choices=["pairs", "t1"], default="t1")),
         ("--pool", dict(nargs="*", default=None)), "--save-selection")),
    "transductive-pool": Command(
        "pick a pool member stable on both samples", "input test-input pool gamma p mode seed",
        ("--input", ("--test-input", dict(required=True)), "--pool", "--offset",
         ("--mode", dict(choices=["realizable", "agnostic"], default="realizable")),
         ("--save-labels", dict(default=None)), *_BALL)),
    "gen-data": Command(
        "write a synthetic dataset as CSV", "gen n sigma noise cluster eta seed",
        (("--out-csv", dict(required=True)), ("--eta", dict(type=float, default=0.0)), *_GEN)),
}


def _row_flags(row: Command):
    """(flag, add_argument keywords) of each flag of a row, in help order."""
    for flag in (*row.flags, *_COMMON):
        yield (flag, _FLAGS[flag]) if isinstance(flag, str) else flag


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, so it prints one line."""

    def error(self, message):
        raise ConfigError(message)


def _parse(argv: list) -> argparse.Namespace:
    """Parse a command line. One that starts with a subcommand builds only
    that subcommand's parser. Any other (help, a missing or unknown
    subcommand, flags before it) lists every subcommand with its help line,
    and only the one it names gets its flags."""
    named = next((a for a in argv if a in COMMANDS), None)
    table = {named: COMMANDS[named]} if argv and argv[0] == named else COMMANDS
    ap = _Parser(prog="roblearn")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, row in table.items():
        sp = sub.add_parser(name, help=row.help)
        if name == named:
            for flag, kw in _row_flags(row):
                sp.add_argument(flag, **kw)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        doc = {"config": _echo(args, COMMANDS[args.command].echo), **handler(args)}
        if args.output:
            save_results(args.output, doc)
        else:
            sys.stdout.write(results_text(doc))
    except SystemExit as exc:  # --help, after printing the help text
        return exc.code
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
