"""Cache-aware recommendation: models, optimizers, simulator, experiments.

The package optimizes a row-stochastic recommendation matrix so that a
user population following recommendations generates requests that are
cheap to serve from a local cache, subject to per-row quality floors.
It provides the request-chain model, exact and iterative stationary
solves, a myopic per-row LP policy, an alternating augmented-Lagrangian
stationary-cost policy, dataset preparation, a Monte-Carlo session
simulator, and a reproducible experiment sweep driver.

Solver warnings, such as a subproblem stopped at its iteration cap, go to
the ``cacherec`` logger, which carries only a `logging.NullHandler`:
configure logging (for example ``logging.basicConfig()``) to see them.
"""

import logging

from .datasets import (
    RatingsTable,
    SyntheticSimilaritySpec,
    anchored_similarity,
    binarize,
    cf_fill,
    cosine_similarity,
    load_lastfm_triplets,
    load_movielens_csv,
    prepare_lastfm,
    prepare_movielens,
    symmetrize_max,
    synthetic_similarity,
    zipf_popularity,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    emit_convergence_trace,
    run_experiment,
    write_results,
)
from .markov import (
    build_transition,
    cache_hit_ratio,
    expected_cost,
    finite_horizon_cost,
    quality_of,
    stationary_direct,
    stationary_power,
)
from .model import (
    CostVector,
    PopularityVector,
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    StationaryVector,
    Violation,
    validate_rec_matrix,
)
from .optim import (
    CarsConfig,
    CarsResult,
    InfeasibleQualityError,
    OptimInputs,
    augmented_lagrangian,
    cars_pi_step,
    cars_solve,
    cars_y_step,
    myopic_solve,
    residual_c,
    select_best,
    top_n_similarity,
)
from .qp import (
    MAXITER,
    OPTIMAL,
    InfeasiblePolytopeError,
    QpProblem,
    QpSolution,
    project_row_polytope,
    project_simplex,
    solve_qp,
)
from .serialize import (
    file_sha256,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
    write_provenance,
)
from .simulate import (
    CachePlacement,
    SessionConfig,
    SimMetrics,
    empirical_content_distribution,
    sample_rec_list,
    simulate,
    top_c_cache,
)

__version__ = "1.0.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    # model
    "SimilarityMatrix",
    "PopularityVector",
    "CostVector",
    "RecMatrix",
    "RequestModel",
    "StationaryVector",
    "Violation",
    "validate_rec_matrix",
    # markov
    "build_transition",
    "stationary_direct",
    "stationary_power",
    "expected_cost",
    "finite_horizon_cost",
    "cache_hit_ratio",
    "quality_of",
    # qp
    "QpProblem",
    "QpSolution",
    "InfeasiblePolytopeError",
    "solve_qp",
    "project_simplex",
    "project_row_polytope",
    "OPTIMAL",
    "MAXITER",
    # optim
    "OptimInputs",
    "CarsConfig",
    "CarsResult",
    "InfeasibleQualityError",
    "top_n_similarity",
    "myopic_solve",
    "residual_c",
    "augmented_lagrangian",
    "cars_pi_step",
    "cars_y_step",
    "cars_solve",
    "select_best",
    # datasets
    "RatingsTable",
    "SyntheticSimilaritySpec",
    "cf_fill",
    "cosine_similarity",
    "symmetrize_max",
    "binarize",
    "synthetic_similarity",
    "anchored_similarity",
    "zipf_popularity",
    "load_movielens_csv",
    "load_lastfm_triplets",
    "prepare_movielens",
    "prepare_lastfm",
    # simulate
    "CachePlacement",
    "SessionConfig",
    "SimMetrics",
    "top_c_cache",
    "sample_rec_list",
    "simulate",
    "empirical_content_distribution",
    # serialize
    "save_matrix",
    "load_matrix",
    "save_vector",
    "load_vector",
    "write_provenance",
    "file_sha256",
    # experiments
    "ScenarioConfig",
    "ConfigError",
    "run_experiment",
    "write_results",
    "emit_convergence_trace",
]
