"""Budget-elastic data mining.

A hierarchical coding component (R-trees or divisive k-means) turns a
training set into per-depth codes; elastic kNN classification and elastic
neighbourhood collaborative filtering mine those codes so that result
quality grows with the processed code length, results refine from saved
states, and an elasticity calculus plus a fixed/spot-price planner relate
quality to spent budget.
"""

from .datasets import (
    LabeledDataset,
    NEGATIVE,
    POSITIVE,
    RatingMatrix,
    SplitSpec,
    parse_libsvm,
    parse_ratings_csv,
    split_dataset,
    split_ratings,
    write_libsvm,
    write_ratings_csv,
)
from .errors import (
    DimensionMismatchError,
    ElasticMineError,
    ForeignStateError,
    TrainingConfigError,
    UnknownUserError,
)
from .coding import (
    Aggregates,
    Code,
    CodeBook,
    ItemAggregate,
    Mbr,
    NodeArrays,
    State,
    aggregate_ratings,
    build_cf_codebook,
    build_dual_rtrees,
    build_kmeans_codebook,
    cf_book_from_hierarchy,
    dual_book_from_hierarchy,
    dump_codebook,
    kmeans,
    load_codebook,
    save_codebook,
    select_code,
    state_of,
    total_mbr_volume,
)
from .knn import (
    KnnApproxResult,
    KnnQuery,
    accuracy,
    auc,
    classify,
    dist_max,
    dist_min,
    exact_knn,
    maintain_state,
)
from .cf import (
    CfApproxResult,
    CfQuery,
    exact_cf_predict,
    maintain_cf_state,
    node_weight,
    predict,
    relative_error,
    rmse,
    train_incremental_svd,
)
from .elasticity import (
    ElasticityReport,
    InvestmentPoint,
    ResolutionReport,
    audit_entropy_monotonicity,
    audit_quality_monotonicity,
    investment_elasticity,
    log_binomial,
    resolution,
    resource_and_price_elasticity,
)
from .planner import (
    PlanAnswer,
    PriceSchedule,
    ResultPoint,
    ThroughputProfile,
    calibrate,
    fixed_plan,
    length_budget,
    spot_availability,
    spot_elasticity_bids,
    spot_plan,
)
from .baselines import (
    anytime_knn_ranking,
    anytime_knn_rtree,
    cf_clustering,
    cf_recttree,
    cf_sampling,
    rank_training_points,
)
from . import synthetic

__version__ = "0.1.0"
