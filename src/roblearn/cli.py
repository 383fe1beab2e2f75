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
    margins_batch,
    robust_losses,
    robust_risk,
    worst_case_point,
)
from .oracles import (
    bound_separation,
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
    enumeration_attack,
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
from .errors import (
    AllZeroWeights,
    ConfigError,
    EllipsoidDiverged,
    EmptyDataset,
    IoError,
    MissingPerturbations,
    MistakeCapExceeded,
    NoRealizableMember,
    NotSeparable,
    OracleViolation,
    ParseError,
    RetryLimit,
    RoblearnError,
    SizeLimit,
    SourceExhausted,
    StreamExhausted,
    WeakLearnerFailed,
    ZeroPerceptron,
    ZeroWeight,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4
EXIT_OPTIMIZER = 5

# exit code per error class; everything else (ConfigError, InvalidNorm,
# Unsupported, EmptyPool, a bad ValueError) is a configuration error
_EXIT_CODES = {
    **dict.fromkeys((ParseError, EmptyDataset, IoError, MissingPerturbations, AllZeroWeights,
                     ZeroPerceptron), EXIT_DATA),
    **dict.fromkeys((NotSeparable, NoRealizableMember, MistakeCapExceeded, StreamExhausted,
                     SourceExhausted, SizeLimit), EXIT_INFEASIBLE),
    **dict.fromkeys((WeakLearnerFailed, RetryLimit, OracleViolation, ZeroWeight,
                     EllipsoidDiverged), EXIT_OPTIMIZER),
}


def _exit_code(exc: BaseException) -> int:
    """The code of the nearest mapped class in the error's ancestry."""
    return next((_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES), EXIT_CONFIG)


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
    center = _vec(parts[0])
    weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
    spread = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
    return MarginCluster(tuple(center), weight, spread)


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
    raise ConfigError(f"unknown generator {args.gen!r}")


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


def _eval_data(args, train: Dataset) -> tuple[Dataset, str]:
    if args.test_input:
        return load_csv(args.test_input), "test-input"
    if getattr(args, "gen", None):
        eval_seed = int(substream(args.seed, "eval").integers(0, 2**31))
        return generate(GenSpec(_gen_kind(args), args.eval_n, rng_seed=eval_seed)), "generated"
    return train, "train"


def _offsets(args) -> FiniteOffsets:
    if not args.offset:
        raise ConfigError("this subcommand needs --offset entries (include 0)")
    return FiniteOffsets(np.stack([_vec(o) for o in args.offset]))


def _ball(args) -> LpBall:
    return LpBall(args.p, args.gamma)


def _perturbation(args):
    if args.offset:
        return _offsets(args)
    return _ball(args)


def _std_acc(model, data: Dataset) -> float:
    return float(np.mean(model.predict_batch(data.X) == data.y))


def _echo(args, keys: str) -> dict:
    out = {"subcommand": args.command}
    for k in keys.split():
        v = getattr(args, k.replace("-", "_"))
        if v is not None:
            out[k] = list(v) if isinstance(v, (list, tuple)) else v
    return out


def _barely_learner(name: str, gamma: float):
    if name == "svm":
        return lambda d: svm_margin(d, 2.0 * gamma).model
    if name == "erm":
        return lambda d: erm_linear(WeightedDataset.uniform(d))
    raise ConfigError(f"unknown learner {name!r}")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the results document)
# ---------------------------------------------------------------------------


def _cmd_certify(args) -> dict:
    model = load_model(args.model)
    data = load_csv(args.input)
    ball = _ball(args)
    if args.method == "closed":
        risk = robust_risk(model, data, ball)
    else:
        cfg = default_ellipsoid_config(args.gamma)
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
    model = load_model(args.model)
    data = load_csv(args.input)
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
    cfg = default_ellipsoid_config(args.gamma)
    check_disjoint_balls(data, ball)
    model = rerm_ellipsoid(data, lambda i: bound_separation(ball, data.X[i]), cfg, ball=ball)
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
    learner = _barely_learner(args.learner, args.gamma)
    cfg = _boost_config(args)
    diag: dict = {}
    cascade = beta_roboost(source, learner, cfg, ball, diagnostics=diag)
    eval_data, eval_kind = _eval_data(args, train)
    return {
        "rounds": [
            {"round": i + 1, "beta_hat": bh, "sample_size": sz}
            for i, (bh, sz) in enumerate(zip(diag["beta_hats"], diag["round_sizes"]))
        ],
        "stopped_early": diag["stopped_early"],
        "eval_on": eval_kind,
        "metrics": _cascade_metrics(cascade, eval_data, ball),
    }


def _cmd_uroboost(args) -> dict:
    ball = _ball(args)
    labeled = load_csv(args.input)
    if args.unlabeled_input:
        unlabeled = finite_source(load_csv(args.unlabeled_input))
    elif args.gen:
        unlabeled = _stream(args, None)
    else:
        raise ConfigError("provide --unlabeled-input or --gen for the unlabeled source")
    learner = _barely_learner(args.learner, args.gamma)
    cfg = _boost_config(args)
    diag: dict = {}
    cascade = beta_uroboost(labeled, unlabeled, learner, cfg, ball, diagnostics=diag)
    eval_data, eval_kind = _eval_data(args, labeled)
    return {
        "rounds": [
            {"round": i + 1, "beta_hat": bh}
            for i, bh in enumerate(diag.get("beta_hats", []))
        ],
        "stopped_early": diag.get("stopped_early", False),
        "eval_on": eval_kind,
        "metrics": _cascade_metrics(cascade, eval_data, ball),
    }


def _cmd_alpha_boost(args) -> dict:
    data = load_csv(args.input)
    U = _perturbation(args) if (args.offset or args.gamma > 0) else None
    cfg = AlphaBoostConfig(
        alpha=args.alpha,
        rounds=args.rounds,
        delta=args.delta,
        agreement_mode=args.agreement_mode,
    )
    diag: dict = {}
    models, vote = alpha_boost(data, erm_linear, cfg, U=U, diagnostics=diag)
    agreement = vote_agreement(models, data, U=U)
    metrics = {
        "rounds": diag["rounds"],
        "alpha": diag["alpha"],
        "min_agreement": float(agreement.min()),
        "mean_round_error": float(np.mean(diag["round_errors"])),
        "majority_standard_accuracy": _std_acc(vote, data),
    }
    if U is None or isinstance(U, FiniteOffsets):
        metrics["majority_robust_accuracy"] = (
            1.0 - robust_risk(vote, data, U) if U is not None else _std_acc(vote, data)
        )
    return {"metrics": metrics}


def _cmd_robustify(args) -> dict:
    data = load_csv(args.input)
    U = _offsets(args)
    cfg = RobustifyConfig(
        outer_rounds=args.rounds,
        inner_rounds=args.inner_rounds,
        subsample=args.subsample,
        sparsify_N=args.sparsify_n,
        rng_seed=args.seed,
    )
    diag: dict = {}
    vote = robustify_nonrobust(data, U, erm_linear, cfg, diagnostics=diag)
    return {
        "metrics": {
            "rounds_run": diag["rounds_run"],
            "inflated_size": diag["inflated_size"],
            "robust_risk": robust_risk(vote, data, U),
            "standard_accuracy": _std_acc(vote, data),
        },
    }


def _cmd_fms(args) -> dict:
    data = load_csv(args.input)
    U = _offsets(args)
    diag: dict = {}
    vote = fms_agnostic(data, U, erm_linear, eta_mw=args.eta_mw, rounds=args.rounds,
                        eps=args.eps, diagnostics=diag)
    return {
        "metrics": {
            "rounds": diag["rounds"],
            "eta": diag["eta"],
            "majority_robust_risk": robust_risk(vote, data, U),
            "standard_accuracy": _std_acc(vote, data),
        },
    }


def _cmd_cycle_robust(args) -> dict:
    data = load_csv(args.input)
    ball = _ball(args)
    oracle = margin_attack(ball)
    diag: dict = {}
    state = cycle_robust(data, perceptron_init(data.d), oracle, args.mistake_cap, diagnostics=diag)
    model = perceptron_model(state)
    if args.save_model:
        save_model(args.save_model, model)
    return {
        "metrics": {
            "oracle_calls": diag["oracle_calls"],
            "updates": diag["updates"],
            "passes": diag["passes"],
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

    diag: dict = {}
    state = one_pass_robust(
        stream_with_probe, perceptron_init(d), oracle, args.eps, args.delta,
        args.mistake_cap, diagnostics=diag,
    )
    model = perceptron_model(state)
    if args.save_model:
        save_model(args.save_model, model)
    eval_data, eval_kind = _eval_data(args, train)
    return {
        "eval_on": eval_kind,
        "metrics": {
            "updates": diag["updates"],
            "run_length": diag["run_length"],
            "robust_accuracy": 1.0 - robust_risk(model, eval_data, ball),
            "standard_accuracy": _std_acc(model, eval_data),
        },
    }


def _cmd_wm(args) -> dict:
    data = load_csv(args.input)
    U = _offsets(args)
    pool = [load_model(p) for p in args.pool]
    oracle = enumeration_attack(U)
    diag: dict = {}
    weights, predictor = weighted_majority_robust(
        pool, finite_source(data), oracle, args.eta_wm, rounds=args.rounds, diagnostics=diag
    )
    opt = min(int(robust_losses(h, data, U).sum()) for h in pool)
    doc = {
        "metrics": {
            "mistakes": diag["mistakes"],
            "examples_seen": diag["examples_seen"],
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
        doc["metrics"]["bound_holds"] = diag["mistakes"] <= bound
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
    eval_data, eval_kind = _eval_data(args, data)
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
    test = load_csv(args.test_input)
    cfg = RedactConfig(eps=args.eps, weight=args.lambda_weight)
    diag: dict = {}
    h, selection = rejectron(train, test.X, cfg, diagnostics=diag)
    if args.save_selection:
        save_selection(args.save_selection, selection)
    kept, rates = _rejection(selection, train, test)
    metrics = {"rounds": diag["rounds"], **rates}
    if kept.any():
        preds = h.predict_batch(test.X[kept])
        metrics["selective_test_error"] = float(np.mean(preds != test.y[kept]))
    return {
        "scores": [float(s) for s in diag["scores"]],
        "metrics": metrics,
    }


def _cmd_urejectron(args) -> dict:
    train = load_csv(args.input)
    test = load_csv(args.test_input)
    cfg = RedactConfig(eps=args.eps, weight=args.lambda_weight)
    if args.backend == "pairs":
        pool = [load_model(p) for p in args.pool] if args.pool else None
        if not pool:
            raise ConfigError("pairs backend needs --pool model files")
        backend = FinitePoolPairs(pool)
    else:
        backend = DistinguisherT1()
    diag: dict = {}
    selection = urejectron(train.X, test.X, cfg, backend, diagnostics=diag)
    doc = {"metrics": _rejection(selection, train, test)[1]}
    if args.backend == "t1":
        h = erm_linear(WeightedDataset.uniform(train))
        test_preds = h.predict_batch(test.X)
        shifted, _const = selection.members[0]
        # the stored model is shifted so its own threshold sits at zero;
        # undo the shift to score rows of the sweep on the raw scale
        raw_scores = test.X @ shifted.w + shifted.bias + diag["threshold"]
        rows = []
        for row in diag["tradeoff"]:
            keep_mask = raw_scores >= row["threshold"]
            err_q = float(np.mean(test_preds[keep_mask] != test.y[keep_mask])) if keep_mask.any() else 0.0
            rows.append(
                {
                    "threshold": row["threshold"],
                    "rej_p": row["rej_train"],
                    "rej_q": row["rej_test"],
                    "err_q": err_q,
                }
            )
        doc["tradeoff"] = rows
    if args.save_selection:
        save_selection(args.save_selection, selection)
    return doc


def _cmd_transductive_pool(args) -> dict:
    train = load_csv(args.input)
    test = load_csv(args.test_input)
    pool = PoolHypotheses(tuple(load_model(p) for p in args.pool))
    U = _perturbation(args)
    diag: dict = {}
    model, labels = transductive_pool(pool, train, test.X, U, mode=args.mode, diagnostics=diag)
    chosen = next(i for i, h in enumerate(pool.models) if h is model)
    if args.save_labels:
        save_csv(args.save_labels, Dataset(test.X, labels))
    return {
        "scores": diag["scores"],
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
    """Parse a command line. Every subcommand is listed with its help line,
    but only the one the command line names gets its flags."""
    named = next((a for a in argv if a in COMMANDS), None)
    ap = _Parser(prog="roblearn")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
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
    except (RoblearnError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except SystemExit as exc:  # --help, after printing the help text
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
