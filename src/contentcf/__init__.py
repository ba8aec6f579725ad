"""User-based collaborative filtering with content-weighted Pearson similarity.

Neighbor similarity between users is Pearson correlation over co-rated items
whose per-item deviations are scaled by content weights: each catalog movie
is weighted by how similar its genre/director/actor profile is to the movie
whose rating is being predicted. The package also ships the MovieLens-1M
ingestion pipeline (including a SPARQL metadata client) and a 5-fold MAE
evaluation harness comparing the weighted method against the plain baseline.
"""

from .cf import (
    NeighborSet,
    Prediction,
    SimilarityScore,
    pearson,
    predict,
    rank_candidates,
    select_neighbors,
    significance_factor,
    weighted_pearson,
)
from .data import (
    FeatureVector,
    MovieProfile,
    ProfileSource,
    Rating,
    RatingColumns,
    RatingMatrix,
    build_matrix,
)
from .evaluation import (
    ExperimentReport,
    FoldAssignment,
    RunConfig,
    emit_report,
    mae,
    run_experiment,
    split_folds,
)
from .ingest import (
    ProfileStore,
    SparqlMovieResult,
    assemble_profiles,
    build_sparql_query,
    fetch_profile,
    load_overrides,
    load_profiles,
    parse_movies,
    parse_ratings,
    save_profiles,
)
from .weighting import (
    WeightCalculator,
    WeightVector,
    build_vectors,
    cosine,
    item_weight,
    weights_for_target,
)

__version__ = "0.1.0"

__all__ = [
    "FeatureVector",
    "MovieProfile",
    "ProfileSource",
    "Rating",
    "RatingColumns",
    "RatingMatrix",
    "build_matrix",
    "NeighborSet",
    "Prediction",
    "SimilarityScore",
    "pearson",
    "predict",
    "rank_candidates",
    "select_neighbors",
    "significance_factor",
    "weighted_pearson",
    "WeightCalculator",
    "WeightVector",
    "build_vectors",
    "cosine",
    "item_weight",
    "weights_for_target",
    "ProfileStore",
    "SparqlMovieResult",
    "assemble_profiles",
    "build_sparql_query",
    "fetch_profile",
    "load_overrides",
    "load_profiles",
    "parse_movies",
    "parse_ratings",
    "save_profiles",
    "ExperimentReport",
    "FoldAssignment",
    "RunConfig",
    "emit_report",
    "mae",
    "run_experiment",
    "split_folds",
    "__version__",
]
