"""rdsgls: referral-driven sampling with generalized least squares estimation.

Simulates chain-referral samples over social networks (tree-indexed walks
and without-replacement waves), builds the distance-indexed covariances
those samples obey, and provides the estimator family from the plain mean
through degree-weighted and feasible-GLS variants, plus diagnostics and a
Monte Carlo experiment harness.
"""

from .covariance import (
    AutoCovariance,
    GlsResult,
    critical_threshold,
    one_sigma_inv_one_ranktwo,
    ranktwo_inverse_apply,
    ranktwo_solve_ones,
    theorem2_limit,
)
from .diagnostics import (
    DiagnosticPoint,
    JensenResult,
    jensen_check,
    ranktwo_rse_curve,
    ranktwo_rse_value,
)
from .errors import (
    CapacityError,
    DegenerateNodeError,
    InsufficientDepthError,
    InvalidParametersError,
    InvalidSampleError,
    MissingLabelError,
    ParseError,
    RdsglsError,
    ReducedSystemError,
    ReversibilityError,
    SamplingFailedError,
    SingularCovarianceError,
)
from .estimators import (
    ESTIMATORS,
    EstimateReport,
    LagStatistics,
    apply_estimator,
    fgls_reweight,
    lag_statistics,
    oracle_gls,
    qhat_spectrum,
    reweight,
    run_recipe,
    run_recipe_batch,
    sbm_fgls,
    vandermonde_estimator,
    vandermonde_weights,
)
from .experiment import (
    DiagnosticDataset,
    ExperimentConfig,
    OutcomeSpec,
    RmseRow,
    RmseTable,
    emit_diagnostics,
    figure1_ratio,
    run_rmse_experiment,
)
from .netmodel import (
    BlockSpectrum,
    DcSbmParams,
    SpectralDecomp,
    TransitionModel,
    WeightedGraph,
    beta_coefficients,
    blockmodel_spectrum,
    build_transition,
    dcsbm_expected_matrices,
    dcsbm_sample,
    expected_transition_model,
    spectral_decompose,
)
from .reference import CovarianceMatrix, build_sigma, gls_solve, rse
from .referral import (
    DistanceDistribution,
    ReferralTree,
    complete_binary_distance_distribution,
    complete_binary_tree,
    galton_watson_tree,
    tree_distance_distribution,
)
from .sampler import (
    RdsSample,
    WalkConfig,
    markov_walk,
    markov_walk_batch,
    rds_without_replacement,
    referral_counts,
)
from .seeding import DEFAULT_SEED, as_rng, derive_rng

__version__ = "0.1.0"
