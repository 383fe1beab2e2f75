"""Command-line harness: every algorithm as a subcommand, every run a
deterministic function of its flags and seed, every result a structured text
document."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .core import (
    Dataset,
    FiniteOffsets,
    LinearModel,
    LpBall,
    inverse_blowup,
    margins_batch,
    robust_loss,
    robust_risk,
)
from .oracles import (
    attack,
    bound_separation,
    default_ellipsoid_config,
    ellipsoid_certify,
    rerm_ellipsoid,
)
from .learners import (
    ErmConfig,
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
    MajorityVote,
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
    select_member,
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
    ConfigError,
    EmptyDataset,
    EmptyPool,
    InvalidNorm,
    IoError,
    MissingPerturbations,
    MistakeCapExceeded,
    NoRealizableMember,
    NotSeparable,
    OracleViolation,
    ParseError,
    RetryLimit,
    SizeLimit,
    SourceExhausted,
    StreamExhausted,
    Unsupported,
    WeakLearnerFailed,
    ZeroWeight,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4
EXIT_OPTIMIZER = 5

_DATA_ERRORS = (ParseError, EmptyDataset, IoError, MissingPerturbations)
_INFEASIBLE_ERRORS = (
    NotSeparable,
    NoRealizableMember,
    MistakeCapExceeded,
    StreamExhausted,
    SourceExhausted,
    SizeLimit,
)
_OPTIMIZER_ERRORS = (WeakLearnerFailed, RetryLimit, OracleViolation, ZeroWeight)
_CONFIG_ERRORS = (ConfigError, InvalidNorm, Unsupported, EmptyPool, ValueError)


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


def _dataset(args) -> Dataset:
    if getattr(args, "input", None):
        data = load_csv(args.input)
    elif getattr(args, "gen", None):
        data = generate(GenSpec(_gen_kind(args), args.n, rng_seed=args.seed))
    else:
        raise ConfigError("provide --input or --gen")
    eta = getattr(args, "eta", None)
    if eta:
        data = apply_rcn(data, eta, args.seed)
    return data


def _stream(args):
    """A labeled source: finite for CSV input, endless for generators."""
    if getattr(args, "input", None):
        return finite_source(load_csv(args.input))
    if getattr(args, "gen", None):
        kind = _gen_kind(args)
        rng = substream(args.seed, "source")
        eta = getattr(args, "eta", None)

        def draw(k: int) -> Dataset:
            s = int(rng.integers(0, 2**31))
            batch = generate(GenSpec(kind, k, rng_seed=s))
            if eta:
                batch = apply_rcn(batch, eta, s + 1)
            return batch

        return draw
    raise ConfigError("provide --input or --gen")


def _eval_data(args, train: Dataset) -> tuple[Dataset, str]:
    if getattr(args, "test_input", None):
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
    if getattr(args, "offset", None):
        return _offsets(args)
    return _ball(args)


def _std_acc(model, data: Dataset) -> float:
    return float(np.mean(model.predict_batch(data.X) == data.y))


def _echo(args, keys) -> dict:
    out = {"subcommand": args.command}
    for k in keys:
        v = getattr(args, k.replace("-", "_"), None)
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
    data = _dataset(args)
    ball = _ball(args)
    if args.method == "closed":
        risk = robust_risk(model, data, ball)
    else:
        cfg = default_ellipsoid_config(args.gamma)
        sep = lambda i: bound_separation(ball, data.X[i])
        bad = sum(
            ellipsoid_certify(model, data.sample(i), sep(i), cfg) is not None
            for i in range(data.n)
        )
        risk = bad / data.n
    return {
        "config": _echo(args, ["model", "input", "gamma", "p", "method"]),
        "metrics": {
            "n": data.n,
            "robust_accuracy": 1.0 - risk,
            "standard_accuracy": _std_acc(model, data),
        },
    }


def _cmd_attack(args) -> dict:
    model = load_model(args.model)
    data = _dataset(args)
    ball = _ball(args)
    witnesses, labels = [], []
    for i in range(data.n):
        z = attack(model, data.sample(i), ball)
        if z is not None:
            witnesses.append(z)
            labels.append(int(data.y[i]))
    if args.save_witnesses and witnesses:
        save_csv(args.save_witnesses, Dataset(np.stack(witnesses), np.array(labels)))
    return {
        "config": _echo(args, ["model", "input", "gamma", "p"]),
        "metrics": {
            "n": data.n,
            "attacked": len(witnesses),
            "attacked_fraction": len(witnesses) / data.n,
            "mean_margin": float(np.mean(data.y * margins_batch(model, data.X, args.p))),
        },
    }


def _cmd_rerm(args) -> dict:
    data = _dataset(args)
    ball = _ball(args)
    cfg = default_ellipsoid_config(args.gamma)
    model = rerm_ellipsoid(data, lambda i: bound_separation(ball, data.X[i]), cfg)
    if args.save_model:
        save_model(args.save_model, model)
    return {
        "config": _echo(args, ["input", "gamma", "p", "seed"]),
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


def _cmd_roboost(args) -> dict:
    ball = _ball(args)
    source = _stream(args)
    learner = _barely_learner(args.learner, args.gamma)
    cfg = BoostConfig(
        beta=args.beta,
        eps=args.eps,
        delta=args.delta,
        rounds=args.rounds,
        per_round_m=args.per_round_m,
        multi_granularity=args.multi_granularity,
        rng_seed=args.seed,
    )
    diag: dict = {}
    cascade = beta_roboost(source, learner, cfg, ball, diagnostics=diag)
    eval_data, eval_kind = _eval_data(args, None) if args.test_input or args.gen else (load_csv(args.input), "train")
    doc = {
        "config": _echo(
            args,
            ["input", "gen", "n", "gamma", "p", "eps", "beta", "delta", "rounds",
             "per-round-m", "learner", "multi-granularity", "seed"],
        ),
        "rounds": [
            {"round": i + 1, "beta_hat": bh, "sample_size": sz}
            for i, (bh, sz) in enumerate(zip(diag["beta_hats"], diag["round_sizes"]))
        ],
        "stopped_early": diag["stopped_early"],
        "eval_on": eval_kind,
        "metrics": _cascade_metrics(cascade, eval_data, ball),
    }
    return doc


def _cmd_uroboost(args) -> dict:
    ball = _ball(args)
    labeled = load_csv(args.input)
    if args.unlabeled_input:
        unlabeled = finite_source(load_csv(args.unlabeled_input))
    elif args.gen:
        unlabeled = _stream(args)
    else:
        raise ConfigError("provide --unlabeled-input or --gen for the unlabeled source")
    learner = _barely_learner(args.learner, args.gamma)
    cfg = BoostConfig(
        beta=args.beta,
        eps=args.eps,
        delta=args.delta,
        rounds=args.rounds,
        per_round_m=args.per_round_m,
        multi_granularity=args.multi_granularity,
        rng_seed=args.seed,
    )
    diag: dict = {}
    cascade = beta_uroboost(labeled, unlabeled, learner, cfg, ball, diagnostics=diag)
    eval_data, eval_kind = _eval_data(args, labeled)
    return {
        "config": _echo(
            args,
            ["input", "unlabeled-input", "gen", "n", "gamma", "p", "eps", "beta",
             "delta", "rounds", "per-round-m", "learner", "seed"],
        ),
        "rounds": [
            {"round": i + 1, "beta_hat": bh}
            for i, bh in enumerate(diag.get("beta_hats", []))
        ],
        "stopped_early": diag.get("stopped_early", False),
        "eval_on": eval_kind,
        "metrics": _cascade_metrics(cascade, eval_data, ball),
    }


def _cmd_alpha_boost(args) -> dict:
    data = _dataset(args)
    U = _perturbation(args) if (args.offset or args.gamma > 0) else None
    cfg = AlphaBoostConfig(
        alpha=args.alpha,
        rounds=args.rounds,
        sparsify_N=args.sparsify_n,
        delta=args.delta,
        agreement_mode=args.agreement_mode,
        rng_seed=args.seed,
    )
    erm = lambda wd: erm_linear(wd, ErmConfig())
    diag: dict = {}
    models, vote = alpha_boost(data, erm, cfg, U=U, diagnostics=diag)
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
    return {
        "config": _echo(
            args, ["input", "gamma", "p", "offset", "alpha", "rounds", "agreement-mode", "seed"]
        ),
        "metrics": metrics,
    }


def _cmd_robustify(args) -> dict:
    data = _dataset(args)
    U = _offsets(args)
    cfg = RobustifyConfig(
        outer_rounds=args.rounds,
        inner_rounds=args.inner_rounds,
        subsample=args.subsample,
        sparsify_N=args.sparsify_n,
        rng_seed=args.seed,
    )
    base = lambda wd: erm_linear(wd, ErmConfig())
    diag: dict = {}
    vote = robustify_nonrobust(data, U, base, cfg, diagnostics=diag)
    return {
        "config": _echo(args, ["input", "offset", "rounds", "inner-rounds", "subsample", "seed"]),
        "metrics": {
            "rounds_run": diag["rounds_run"],
            "inflated_size": diag["inflated_size"],
            "robust_risk": robust_risk(vote, data, U),
            "standard_accuracy": _std_acc(vote, data),
        },
    }


def _cmd_fms(args) -> dict:
    data = _dataset(args)
    U = _offsets(args)
    erm = lambda wd: erm_linear(wd, ErmConfig())
    diag: dict = {}
    vote = fms_agnostic(data, U, erm, eta_mw=args.eta_mw, rounds=args.rounds,
                        eps=args.eps, diagnostics=diag)
    return {
        "config": _echo(args, ["input", "offset", "eta-mw", "rounds", "eps", "seed"]),
        "metrics": {
            "rounds": diag["rounds"],
            "eta": diag["eta"],
            "majority_robust_risk": robust_risk(vote, data, U),
            "standard_accuracy": _std_acc(vote, data),
        },
    }


def _cmd_cycle_robust(args) -> dict:
    data = _dataset(args)
    ball = _ball(args)
    oracle = margin_attack(ball)
    diag: dict = {}
    state = cycle_robust(data, perceptron_init(data.d), oracle, args.mistake_cap, diagnostics=diag)
    model = perceptron_model(state)
    if args.save_model:
        save_model(args.save_model, model)
    return {
        "config": _echo(args, ["input", "gamma", "p", "mistake-cap", "seed"]),
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
    stream = _stream(args)
    oracle = margin_attack(ball)
    probe = stream(1)
    d = probe.d

    def stream_with_probe(k: int, _first=[probe]):
        if _first and k == 1:
            return _first.pop()
        return stream(k)

    diag: dict = {}
    state = one_pass_robust(
        stream_with_probe, perceptron_init(d), oracle, args.eps, args.delta,
        args.mistake_cap, diagnostics=diag,
    )
    model = perceptron_model(state)
    if args.save_model:
        save_model(args.save_model, model)
    eval_data, eval_kind = _eval_data(args, None) if (args.test_input or args.gen) else (load_csv(args.input), "train")
    return {
        "config": _echo(args, ["input", "gen", "gamma", "p", "eps", "delta", "mistake-cap", "seed"]),
        "eval_on": eval_kind,
        "metrics": {
            "updates": diag["updates"],
            "run_length": diag["run_length"],
            "robust_accuracy": 1.0 - robust_risk(model, eval_data, ball),
            "standard_accuracy": _std_acc(model, eval_data),
        },
    }


def _cmd_wm(args) -> dict:
    data = _dataset(args)
    U = _offsets(args)
    pool = [load_model(p) for p in args.pool]
    oracle = enumeration_attack(U)
    diag: dict = {}
    weights, predictor = weighted_majority_robust(
        pool, finite_source(data), oracle, args.eta_wm, rounds=args.rounds, diagnostics=diag
    )
    opt = min(
        sum(
            robust_loss(h, data.sample(i), U, index=i) for i in range(data.n)
        )
        for h in pool
    )
    doc = {
        "config": _echo(args, ["input", "offset", "eta-wm", "rounds", "pool", "seed"]),
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
    data = _dataset(args)
    if args.method == "md":
        model = rcn_train_md(
            data,
            RcnConfig(gamma=args.gamma, eta=args.rcn_eta, eps=args.eps, q=args.q,
                      steps=args.steps, rng_seed=args.seed),
        )
    else:
        model = glm_train(
            data,
            GlmConfig(gamma=args.gamma, eta=args.rcn_eta, q=args.q,
                      steps=args.steps, rng_seed=args.seed),
        )
    if args.save_model:
        save_model(args.save_model, model)
    eval_data, eval_kind = _eval_data(args, data)
    return {
        "config": _echo(args, ["input", "method", "gamma", "rcn-eta", "eps", "q", "steps", "seed"]),
        "eval_on": eval_kind,
        "metrics": {
            "standard_accuracy": _std_acc(model, eval_data),
            "margin_accuracy": float(
                np.mean(eval_data.y * margins_batch(model, eval_data.X, 2.0) > args.gamma / 2.0)
            ),
        },
    }


def _cmd_rejectron(args) -> dict:
    train = load_csv(args.input)
    test = load_csv(args.test_input)
    cfg = RedactConfig(eps=args.eps, weight=args.lambda_weight, rng_seed=args.seed)
    diag: dict = {}
    h, selection = rejectron(train, test.X, cfg, diagnostics=diag)
    if args.save_selection:
        save_selection(args.save_selection, selection)
    kept = np.array([select_member(selection, test.X[i]) for i in range(test.n)])
    kept_train = np.array([select_member(selection, train.X[i]) for i in range(train.n)])
    metrics = {
        "rounds": diag["rounds"],
        "test_rejection_rate": float(1.0 - kept.mean()) if test.n else 0.0,
        "train_rejection_rate": float(1.0 - kept_train.mean()),
    }
    if kept.any():
        preds = h.predict_batch(test.X[kept])
        metrics["selective_test_error"] = float(np.mean(preds != test.y[kept]))
    return {
        "config": _echo(args, ["input", "test-input", "eps", "lambda-weight", "seed"]),
        "scores": [float(s) for s in diag["scores"]],
        "metrics": metrics,
    }


def _cmd_urejectron(args) -> dict:
    train = load_csv(args.input)
    test = load_csv(args.test_input)
    cfg = RedactConfig(eps=args.eps, weight=args.lambda_weight, rng_seed=args.seed)
    if args.backend == "pairs":
        pool = [load_model(p) for p in args.pool] if args.pool else None
        if not pool:
            raise ConfigError("pairs backend needs --pool model files")
        backend = FinitePoolPairs(pool)
    else:
        backend = DistinguisherT1()
    diag: dict = {}
    selection = urejectron(train.X, test.X, cfg, backend, diagnostics=diag)
    kept = np.array([select_member(selection, test.X[i]) for i in range(test.n)])
    kept_train = np.array([select_member(selection, train.X[i]) for i in range(train.n)])
    doc = {
        "config": _echo(args, ["input", "test-input", "eps", "lambda-weight", "backend", "seed"]),
        "metrics": {
            "test_rejection_rate": float(1.0 - kept.mean()) if test.n else 0.0,
            "train_rejection_rate": float(1.0 - kept_train.mean()),
        },
    }
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


def _cmd_transductive(args) -> dict:
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
        "config": _echo(args, ["input", "test-input", "pool", "gamma", "p", "mode", "seed"]),
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
        "config": _echo(args, ["gen", "n", "sigma", "noise", "cluster", "eta", "seed"]),
        "written": {"path": args.out_csv, "rows": data.n, "dim": data.d},
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp, *, ball=False, gen=False, seed=True, output=True):
    if ball:
        sp.add_argument("--gamma", type=float, required=True)
        sp.add_argument("--p", type=float, default=2.0)
    if gen:
        sp.add_argument("--gen", choices=["gaussian", "moons", "margin-union"])
        sp.add_argument("--n", type=int, default=200)
        sp.add_argument("--center-pos", default="2,0")
        sp.add_argument("--center-neg", default=None)
        sp.add_argument("--sigma", type=float, default=0.0)
        sp.add_argument("--noise", type=float, default=0.0)
        sp.add_argument("--cluster", action="append", default=[])
        sp.add_argument("--eval-n", type=int, default=2000)
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    if output:
        sp.add_argument("--output", default=None, help="results document path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="roblearn")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("certify", help="robust accuracy of a saved model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--method", choices=["closed", "ellipsoid"], default="closed")
    _add_common(sp, ball=True)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("attack", help="worst-case witnesses against a saved model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--save-witnesses", default=None)
    _add_common(sp, ball=True)
    sp.set_defaults(func=_cmd_attack)

    sp = sub.add_parser("rerm-ellipsoid", help="robust ERM via ellipsoid search")
    sp.add_argument("--input", required=True)
    sp.add_argument("--save-model", default=None)
    _add_common(sp, ball=True)
    sp.set_defaults(func=_cmd_rerm)

    sp = sub.add_parser("roboost", help="boost a barely robust learner into a cascade")
    sp.add_argument("--input", default=None)
    sp.add_argument("--test-input", default=None)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--per-round-m", type=int, default=None)
    sp.add_argument("--learner", choices=["svm", "erm"], default="svm")
    sp.add_argument("--multi-granularity", action="store_true")
    _add_common(sp, ball=True, gen=True)
    sp.set_defaults(func=_cmd_roboost)

    sp = sub.add_parser("uroboost", help="boost robustness with unlabeled data")
    sp.add_argument("--input", required=True)
    sp.add_argument("--unlabeled-input", default=None)
    sp.add_argument("--test-input", default=None)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--per-round-m", type=int, default=None)
    sp.add_argument("--learner", choices=["svm", "erm"], default="svm")
    sp.add_argument("--multi-granularity", action="store_true")
    _add_common(sp, ball=True, gen=True)
    sp.set_defaults(func=_cmd_uroboost)

    sp = sub.add_parser("alpha-boost", help="multiplicative-weights boosting")
    sp.add_argument("--input", required=True)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--offset", action="append", default=[])
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--sparsify-n", type=int, default=25)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--agreement-mode", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_alpha_boost)

    sp = sub.add_parser("robustify", help="robust learner from a non-robust one (finite sets)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--offset", action="append", default=[])
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--inner-rounds", type=int, default=None)
    sp.add_argument("--subsample", type=int, default=32)
    sp.add_argument("--sparsify-n", type=int, default=25)
    _add_common(sp)
    sp.set_defaults(func=_cmd_robustify)

    sp = sub.add_parser("fms", help="agnostic finite-set reduction")
    sp.add_argument("--input", required=True)
    sp.add_argument("--offset", action="append", default=[])
    sp.add_argument("--eta-mw", type=float, default=None)
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--eps", type=float, default=0.2)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fms)

    sp = sub.add_parser("cycle-robust", help="perceptron cycled against the attack oracle")
    sp.add_argument("--input", required=True)
    sp.add_argument("--mistake-cap", type=int, required=True)
    sp.add_argument("--save-model", default=None)
    _add_common(sp, ball=True)
    sp.set_defaults(func=_cmd_cycle_robust)

    sp = sub.add_parser("one-pass", help="single-pass online robust training")
    sp.add_argument("--input", default=None)
    sp.add_argument("--test-input", default=None)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--mistake-cap", type=int, required=True)
    sp.add_argument("--save-model", default=None)
    _add_common(sp, ball=True, gen=True)
    sp.set_defaults(func=_cmd_one_pass)

    sp = sub.add_parser("wm", help="weighted majority over a model pool")
    sp.add_argument("--input", required=True)
    sp.add_argument("--offset", action="append", default=[])
    sp.add_argument("--eta-wm", type=float, required=True)
    sp.add_argument("--rounds", type=int, default=None)
    sp.add_argument("--pool", nargs="+", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_wm)

    sp = sub.add_parser("rcn-train", help="noise-tolerant margin training")
    sp.add_argument("--method", choices=["md", "glm"], default="md")
    sp.add_argument("--input", required=True)
    sp.add_argument("--test-input", default=None)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--rcn-eta", type=float, required=True)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--save-model", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rcn_train)

    sp = sub.add_parser("rejectron", help="selective classification under test-time drift")
    sp.add_argument("--input", required=True)
    sp.add_argument("--test-input", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--lambda-weight", type=float, default=None)
    sp.add_argument("--save-selection", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rejectron)

    sp = sub.add_parser("urejectron", help="unsupervised selective classification")
    sp.add_argument("--input", required=True)
    sp.add_argument("--test-input", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--lambda-weight", type=float, default=None)
    sp.add_argument("--backend", choices=["pairs", "t1"], default="t1")
    sp.add_argument("--pool", nargs="*", default=None)
    sp.add_argument("--save-selection", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_urejectron)

    sp = sub.add_parser("transductive-pool", help="pick a pool member stable on both samples")
    sp.add_argument("--input", required=True)
    sp.add_argument("--test-input", required=True)
    sp.add_argument("--pool", nargs="+", required=True)
    sp.add_argument("--offset", action="append", default=[])
    sp.add_argument("--mode", choices=["realizable", "agnostic"], default="realizable")
    sp.add_argument("--save-labels", default=None)
    _add_common(sp, ball=True)
    sp.set_defaults(func=_cmd_transductive)

    sp = sub.add_parser("gen-data", help="write a synthetic dataset as CSV")
    sp.add_argument("--out-csv", required=True)
    sp.add_argument("--eta", type=float, default=0.0)
    _add_common(sp, gen=True)
    sp.set_defaults(func=_cmd_gen_data)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        doc = args.func(args)
        if getattr(args, "output", None):
            save_results(args.output, doc)
        else:
            sys.stdout.write(results_text(doc))
    except _DATA_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _INFEASIBLE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _OPTIMIZER_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except _CONFIG_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
