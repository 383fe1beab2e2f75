"""Provably robust learning of halfspaces under test-time perturbations.

Margins, certification, boosting of barely-robust learners, finite-set
reductions, online attack-driven training, and transductive redaction, all
behind one deterministic, seed-threaded API.
"""

import os as _os

# cap numeric-library parallelism before numpy loads; default single
# thread for reproducible runs, ROBLEARN_THREADS raises it explicitly
_threads = _os.environ.get("ROBLEARN_THREADS", "1")
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_var, _threads)

from ._kernels import active_backend
from .core import (
    Dataset,
    FiniteOffsets,
    FinitePerExample,
    InflatedDataset,
    LinearModel,
    LpBall,
    ball_hits,
    dual_exponent,
    dual_maximizer,
    dual_norm,
    inflate,
    inverse_blowup,
    lp_norm,
    margins_batch,
    robust_loss,
    robust_losses,
    robust_risk,
    worst_case_point,
)
from .oracles import (
    EllipsoidConfig,
    Polytope,
    attack,
    default_ellipsoid_config,
    ellipsoid_certify,
    ellipsoid_feasible,
    rerm_ellipsoid,
    separation_oracle,
)
from .learners import (
    ErmConfig,
    GlmConfig,
    PerceptronState,
    RcnConfig,
    SvmConfig,
    SvmResult,
    WeightedDataset,
    erm_linear,
    glm_link_u,
    glm_loss,
    glm_train,
    make_pool_erm,
    mirror_step,
    perceptron_init,
    perceptron_model,
    perceptron_update,
    pool_erm,
    rcn_lambda,
    rcn_phi,
    rcn_train_md,
    reuse_fits,
    svm_margin,
)
from .boosting import (
    AlphaBoostConfig,
    BoostConfig,
    Cascade,
    MajorityVote,
    SelectiveClassifier,
    alpha_boost,
    beta_roboost,
    beta_uroboost,
    expand_g,
    finite_source,
    rejection_sample,
    selective_labels,
    sparsify_majority,
    strong_to_barely,
    vote_agreement,
)
from .reductions import (
    EnsembleWeights,
    PerExampleWeights,
    RobustifyConfig,
    WeightedMajority,
    cycle_robust,
    enumeration_attack,
    fms_agnostic,
    margin_attack,
    one_pass_robust,
    robustify_nonrobust,
    weighted_majority_robust,
    wm_constants,
    zero_robust_loss,
)
from .redaction import (
    ConstantModel,
    DistinguisherT1,
    FinitePoolPairs,
    PoolHypotheses,
    RedactConfig,
    SelectionSet,
    lambda_star,
    load_selection,
    massart_denoise_rejectron,
    rejectron,
    save_selection,
    select_member,
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
from . import errors
from .errors import (
    AllZeroWeights,
    ConfigError,
    EllipsoidDiverged,
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
    RoblearnError,
    SizeLimit,
    SourceExhausted,
    StreamExhausted,
    TrainingDiverged,
    Unsupported,
    UnsupportedGeometry,
    WeakLearnerFailed,
    ZeroPerceptron,
    ZeroWeight,
)

__version__ = "0.1.0"
