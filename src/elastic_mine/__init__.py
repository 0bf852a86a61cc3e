"""Budget-elastic data mining.

A hierarchical coding component (R-trees or divisive k-means) turns a
training set into per-depth codes; elastic kNN classification and elastic
neighbourhood collaborative filtering mine those codes so that result
quality grows with the processed code length, results refine from saved
states, and an elasticity calculus plus a fixed/spot-price planner relate
quality to spent budget.

Every name below is resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are used.
"""

import importlib as _importlib

_EXPORTS = {  # module -> the names the package re-exports from it
    "datasets": (
        "LabeledDataset", "NEGATIVE", "POSITIVE", "RatingMatrix", "SplitSpec", "parse_libsvm",
        "parse_ratings_csv", "split_dataset", "split_ratings", "write_libsvm", "write_ratings_csv",
    ),
    "errors": (
        "DimensionMismatchError", "ElasticMineError", "ForeignStateError", "TrainingConfigError",
        "UnknownUserError",
    ),
    "coding": (
        "Aggregates", "Code", "CodeBook", "NodeArrays", "State", "build_cf_codebook",
        "build_dual_rtrees", "build_kmeans_codebook", "dump_codebook", "kmeans", "load_codebook",
        "save_codebook", "select_code", "state_of", "total_mbr_volume",
    ),
    "knn": (
        "KnnApproxResult", "KnnQuery", "accuracy", "auc", "classify", "exact_knn",
        "maintain_state",
    ),
    "cf": (
        "CfApproxResult", "CfQuery", "exact_cf_predict", "predict", "relative_error", "rmse",
        "train_incremental_svd",
    ),
    "elasticity": (
        "ElasticityReport", "InvestmentPoint", "ResolutionReport", "audit_entropy_monotonicity",
        "audit_quality_monotonicity", "investment_elasticity", "log_binomial", "resolution",
        "resource_and_price_elasticity",
    ),
    "planner": (
        "PlanAnswer", "PriceSchedule", "ResultPoint", "ThroughputProfile", "calibrate",
        "fixed_plan", "length_budget", "spot_availability", "spot_elasticity_bids", "spot_plan",
    ),
    "baselines": (
        "anytime_knn_ranking", "anytime_knn_rtree", "cf_clustering", "cf_recttree",
        "cf_sampling", "rank_training_points",
    ),
    "synthetic": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
