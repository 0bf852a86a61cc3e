"""Elastic neighbourhood collaborative filtering.

User feature vectors come from an incremental (gradient-descent) SVD over
the observed ratings; the codebook aggregates raw ratings per node. A
prediction for (user, item) correlates the user's rating row against each
candidate node's aggregated deviations and takes the weighted average of
the nodes' deviations for the target item. The exact oracle applies the
same two formulas at user granularity over the raw matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .coding import Code, CodeBook, ItemAggregate, state_filter
from .datasets import RatingMatrix
from .errors import DivergenceError, UndefinedMetricError


@dataclass(frozen=True)
class UserFeatureMatrix:
    """Dense (m, d) user features; row u-1 belongs to user u."""

    values: np.ndarray
    config: dict

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def num_users(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1]


def train_incremental_svd(
    matrix: RatingMatrix,
    d: int = 3,
    learning_rate: float = 0.001,
    epochs_per_feature: int = 120,
    seed: int = 0,
    return_item_features: bool = False,
):
    """Gradient-descent matrix factorisation, one feature at a time.

    Minimises squared reconstruction error on observed cells only, so the
    cost is O(d * epochs * ratings) regardless of matrix shape. Features
    initialise at 0.1 plus a seeded jitter of +-1e-4; ratings are visited
    in (user, item) order, making training deterministic under the seed.
    Item features steer the fit but only user features are returned.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if epochs_per_feature < 1:
        raise ValueError("epochs_per_feature must be >= 1")
    m, n = matrix.num_users, matrix.num_items
    rng = np.random.default_rng(seed)
    U = 0.1 + rng.uniform(-1e-4, 1e-4, size=(m, d))
    V = 0.1 + rng.uniform(-1e-4, 1e-4, size=(n, d))
    keys = sorted(matrix.ratings)
    users = [u - 1 for u, _ in keys]
    items = [i - 1 for _, i in keys]
    values = [float(matrix.ratings[k]) for k in keys]
    residual = list(values)  # rating minus contribution of trained features
    lr = learning_rate
    for f in range(d):
        uf = U[:, f].tolist()
        vf = V[:, f].tolist()
        for epoch in range(epochs_per_feature):
            for j in range(len(values)):
                u = users[j]
                i = items[j]
                err = residual[j] - uf[u] * vf[i]
                u_old = uf[u]
                uf[u] = u_old + lr * err * vf[i]
                vf[i] += lr * err * u_old
            if not (math.isfinite(uf[users[0]]) and math.isfinite(vf[items[0]])):
                raise DivergenceError(
                    f"non-finite parameters at feature {f}, epoch {epoch}", feature=f, epoch=epoch
                )
        U[:, f] = uf
        V[:, f] = vf
        for j in range(len(values)):
            residual[j] -= uf[users[j]] * vf[items[j]]
    if not np.all(np.isfinite(U)):
        raise DivergenceError("non-finite user features after training")
    config = {"d": d, "learning_rate": learning_rate,
              "epochs_per_feature": epochs_per_feature, "seed": seed}
    features = UserFeatureMatrix(U, config)
    if return_item_features:
        return features, V
    return features


@dataclass(frozen=True)
class CfQuery:
    """An active user's known rating row, their mean, and the target item."""

    user: int
    item: int
    ratings: Mapping[int, float]
    mean: float
    cold: bool = False  # mean fell back to the global mean (user had no ratings)

    @classmethod
    def from_matrix(cls, matrix: RatingMatrix, user: int, item: int) -> "CfQuery":
        row = matrix.user_ratings(user)
        mean = matrix.user_mean(user)
        if mean is None:
            return cls(user, item, {}, matrix.global_mean(), cold=True)
        return cls(user, item, dict(row), mean)


@dataclass(frozen=True)
class CfApproxResult:
    depth: int
    rater_node_ids: tuple[int, ...]  # nodes whose weight entered the prediction
    weights: tuple[float, ...]
    all_rater_node_ids: tuple[int, ...]  # every candidate that rated the item
    prediction: float
    scanned: int
    fallback: bool
    clamped: bool


@dataclass(frozen=True)
class CfState:
    depth: int
    retained: frozenset[int]


def node_weight(
    user_ratings: Mapping[int, float], user_mean: float, aggregates: Mapping[int, ItemAggregate]
) -> float | None:
    """Pearson-style correlation between a user's and a node's rating deviations.

    Runs over the items both sides rated. Returns None when there is no
    overlap, and 0.0 when either side's deviations vanish on the overlap
    (a zero-variance side carries no correlation signal).
    """
    num = du = dn = 0.0
    overlap = 0
    for item, r in user_ratings.items():
        agg = aggregates.get(item)
        if agg is None:
            continue
        overlap += 1
        x = r - user_mean
        y = agg.rating - agg.rater_mean
        num += x * y
        du += x * x
        dn += y * y
    if overlap == 0:
        return None
    if du <= 0.0 or dn <= 0.0:
        return 0.0
    return num / math.sqrt(du * dn)


def _weighted_prediction(query: CfQuery, contributions, scale) -> tuple[float, bool, bool]:
    """Shared recommendation step: weighted deviation average with fallback and clamp.

    Sums are exactly rounded (fsum), so the result does not depend on the
    order candidates were scanned in: code-level and user-level routes over
    the same contributions agree bit for bit.
    """
    num = math.fsum(w * dev for w, dev in contributions)
    den = math.fsum(abs(w) for w, _ in contributions)
    fallback = den == 0.0
    raw = query.mean if fallback else query.mean + num / den
    clamped = min(max(raw, scale[0]), scale[1])
    return clamped, fallback, clamped != raw


def _score(query: CfQuery, depth: int, sources, scanned: int, scale) -> CfApproxResult:
    """The recommendation step of :func:`predict` over ``(id, item aggregates)`` candidates."""
    raters: list[int] = []
    weighted: list[tuple[int, float, float]] = []  # (id, weight, deviation of target item)
    for cid, aggs in sources:
        agg = aggs.get(query.item) if aggs else None
        if agg is None:
            continue
        raters.append(cid)
        w = node_weight(query.ratings, query.mean, aggs)
        if w is None or w == 0.0:
            continue
        weighted.append((cid, w, agg.rating - agg.rater_mean))
    prediction, fallback, clamped = _weighted_prediction(
        query, [(w, dev) for _, w, dev in weighted], scale
    )
    return CfApproxResult(
        depth=depth,
        rater_node_ids=tuple(cid for cid, _, _ in weighted),
        weights=tuple(w for _, w, _ in weighted),
        all_rater_node_ids=tuple(raters),
        prediction=prediction,
        scanned=scanned,
        fallback=fallback,
        clamped=clamped,
    )


def predict(
    book: CodeBook,
    code: Code | int,
    query: CfQuery,
    state: CfState | None = None,
    matrix: RatingMatrix | None = None,
) -> CfApproxResult:
    """Predict the active user's rating of the target item from a code.

    Candidates are the code's nodes, filtered through the state when one is
    given (a node survives iff its ancestor at the state depth rated the
    item). Nodes that rated the item but have no defined, non-degenerate
    weight still count as raters (they stay in the next state) without
    entering the weighted average. An empty weighted set falls back to the
    user's mean; predictions clamp to the rating scale.
    """
    if isinstance(code, int):
        code = book.code_at_depth(code)
    candidates = code.node_ids
    if state is not None:
        keep = state_filter(book, code.depth, state)
        candidates = book.columns(code.depth).ids[keep].tolist()
    scale = matrix.rating_scale if matrix is not None else (1.0, 5.0)
    sources = ((nid, book.node(nid).aggregates) for nid in candidates)
    return _score(query, code.depth, sources, len(candidates), scale)


def maintain_cf_state(result: CfApproxResult) -> CfState:
    """The state is the full rater set: every scanned node that rated the item."""
    return CfState(depth=result.depth, retained=frozenset(result.all_rater_node_ids))


def refine_chain(book: CodeBook, query: CfQuery, depths=None, matrix=None) -> list[CfApproxResult]:
    """Produce one prediction per depth, each refined from the previous state."""
    depths = list(depths) if depths is not None else list(book.depths())
    results = []
    state = None
    for depth in depths:
        result = predict(book, depth, query, state, matrix=matrix)
        results.append(result)
        state = maintain_cf_state(result)
    return results


EXACT_DEPTH = -1


def _user_sources(matrix: RatingMatrix, query: CfQuery, users):
    """Each listed user other than the active one who rated the target item,
    as a single-rater node: ``(user, {item: ItemAggregate(r, user mean, 1)})``."""
    for v in users:
        if v == query.user:
            continue
        row = matrix.user_ratings(v)
        if query.item in row:
            v_mean = matrix.user_mean(v)
            yield v, {i: ItemAggregate(r, v_mean, 1) for i, r in row.items()}


def _predict_over_users(matrix: RatingMatrix, query: CfQuery, users) -> CfApproxResult:
    """User-granularity prediction restricted to the given 1-based user ids."""
    return _score(query, EXACT_DEPTH, _user_sources(matrix, query, users), len(users),
                  matrix.rating_scale)


def exact_cf_predict(matrix: RatingMatrix, query: CfQuery) -> CfApproxResult:
    """User-granularity prediction over the full matrix: the exact oracle.

    Applies the user-user correlation and weighted-average formulas with
    the same degenerate-weight, fallback and clamping rules as
    :func:`predict`, scanning every user who rated the target item.
    """
    users = range(1, matrix.num_users + 1)
    return _score(query, EXACT_DEPTH, _user_sources(matrix, query, users), matrix.num_users - 1,
                  matrix.rating_scale)


def rmse(predictions, actuals) -> float:
    """Root-mean-square error between predictions and actual ratings."""
    predictions = np.asarray(predictions, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    if predictions.shape != actuals.shape or len(predictions) == 0:
        raise ValueError("predictions and actuals must be equal-length and non-empty")
    return float(np.sqrt(np.mean((predictions - actuals) ** 2)))


def relative_error(rmse_approx: float, rmse_exact: float) -> float:
    """(approximate RMSE - exact RMSE) / exact RMSE; negative when the
    approximation happens to beat the exact result on a test set."""
    if rmse_exact <= 0.0:
        raise UndefinedMetricError("relative error is undefined for exact RMSE of 0")
    return (rmse_approx - rmse_exact) / rmse_exact
