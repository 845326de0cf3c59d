"""Locally weighted linear pools of predictive distributions.

Combine expert predictive densities with weights that vary over a
pooling space: estimate each expert's local skill by averaging realised
log scores inside a caliper, turn skill into simplex weights (softmax or
log-score-optimal), and evaluate the resulting pools in a rolling
one-step-ahead protocol with dynamic hyperparameter selection.
"""

__version__ = "0.1.0"

from .densities import (
    Gaussian,
    Mixture,
    PoolWeights,
    PredictiveDensity,
    StudentT,
)
from .evaluation import (
    ALL_SCHEMES,
    DEFAULT_SCALING_GRID,
    DEFAULT_WIDTH_GRID,
    SCHEME_EQUAL,
    SCHEME_GLOBAL_OPT,
    SCHEME_LOCAL_OPT,
    SCHEME_LOCAL_SOFTMAX,
    EvaluationConfig,
    EvaluationResult,
    EvaluationStream,
    rolling_evaluate,
    select_hyperparameters,
)
from .experts import (
    NigPosterior,
    design_matrix,
    design_vector,
    diffuse_nig,
    nig_log_scores,
    nig_predictive,
    nig_update,
)
from .history import History, PredictionRecord
from .local_elpd import LocalElpdEstimate, caliper_elpd, true_local_elpd
from .pools import (
    NATURAL,
    FixedScaling,
    NaturalScaling,
    equal_weights,
    local_opt_weights,
    optimize_pool_weights,
    pooled_log_scores,
    softmax_weights,
)
from .simulation import (
    DgpConfig,
    ErrorStudyResult,
    PoolStudyResult,
    SimulatedData,
    default_experts,
    estimator_error_study,
    generate_dgp,
    nig_evaluation_stream,
    pool_comparison_study,
    replication_studies,
)

__all__ = [
    "__version__",
    "PredictiveDensity",
    "Gaussian",
    "StudentT",
    "Mixture",
    "PoolWeights",
    "NigPosterior",
    "diffuse_nig",
    "design_vector",
    "design_matrix",
    "nig_update",
    "nig_predictive",
    "nig_log_scores",
    "History",
    "PredictionRecord",
    "LocalElpdEstimate",
    "caliper_elpd",
    "true_local_elpd",
    "NaturalScaling",
    "FixedScaling",
    "NATURAL",
    "equal_weights",
    "softmax_weights",
    "optimize_pool_weights",
    "pooled_log_scores",
    "local_opt_weights",
    "EvaluationConfig",
    "EvaluationStream",
    "EvaluationResult",
    "rolling_evaluate",
    "select_hyperparameters",
    "ALL_SCHEMES",
    "SCHEME_LOCAL_SOFTMAX",
    "SCHEME_EQUAL",
    "SCHEME_GLOBAL_OPT",
    "SCHEME_LOCAL_OPT",
    "DEFAULT_WIDTH_GRID",
    "DEFAULT_SCALING_GRID",
    "DgpConfig",
    "SimulatedData",
    "generate_dgp",
    "default_experts",
    "nig_evaluation_stream",
    "ErrorStudyResult",
    "estimator_error_study",
    "PoolStudyResult",
    "pool_comparison_study",
    "replication_studies",
]
