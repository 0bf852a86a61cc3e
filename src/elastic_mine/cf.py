"""Elastic neighbourhood collaborative filtering.

User feature vectors come from an incremental (gradient-descent) SVD over
the observed ratings; the codebook aggregates raw ratings per node. A
prediction for (user, item) correlates the user's rating row against each
candidate node's aggregated deviations and takes the weighted average of
the nodes' deviations for the target item. The exact oracle applies the
same two formulas at user granularity over the raw matrix.

Every route scores through one array kernel over an item-major deviation
table, whose entry (i, c) is candidate c's ``rating - rater_mean`` for
item i, NaN where c did not rate i. For a codebook the candidates are the
nodes of one depth (:meth:`CodeBook.deviations`, items x nodes x 8 bytes
per depth); for the exact oracle and the user-subset baselines they are
the users (:meth:`RatingMatrix.deviations`, items x users x 8 bytes). Both
are built on first use and cached, never dumped. A :class:`CfQuery`
builds its item ids and deviations once, for every route and depth. A
prediction picks the candidates that rated the target item, gathers the
(query items x raters) block with two ``take`` calls, the query's rows
and then the raters' columns, and takes the three correlation sums of
every candidate in one reduction: a fixed number of numpy calls and
O(candidates + ratings x raters) array work, with no per-candidate
Python step. The sums add the rows in ``query.ratings`` order, so
weights equal an item-by-item loop's bit for bit; that loop,
``node_weight`` in ``tests/reference.py``, is what the tests check the
kernel against.

A code-level result carries its raters as its state (the ``coding.State``
kNN uses too), so a deeper prediction scans only their subtrees;
``result.state`` is the hand-off to the next depth, as in kNN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coding import EXACT_DEPTH, Code, CodeBook, State, _column_sums, state_filter
from .datasets import RATING_SCALE, RatingMatrix
from .errors import DivergenceError, InvalidQueryError, TrainingConfigError, UndefinedMetricError, _integer


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
    initialise at 0.1 plus a seeded jitter of +-1e-4; each epoch updates
    the ratings in (user, item) order, making training deterministic under
    the seed. Returns the (m, d) user features U (row u-1 for user u), or
    ``(U, V)`` with the item features V when ``return_item_features``.

    The updates run as a wavefront: a rating's level is one more than the
    larger of the levels of its user's previous rating and its item's
    previous rating, so the ratings of one level share no user and no item
    and update together as one array step. Each rating still reads exactly
    the values it would read in the sequential loop, and the step applies
    the loop's IEEE operations in the same order, so the features are the
    same bit for bit. There are at most ``users + items - 1`` levels per
    epoch whatever the number of ratings (381 levels for the 38,724
    training ratings of ``ratings_like()``). Narrow levels pay numpy call
    overhead per step: on small dense matrices the wavefront is slower than
    a Python loop (about 21 against 5.8 ms for 3 features x 20 epochs on
    20 x 15), with break-even near 100 x 70.

    Raises :class:`TrainingConfigError` for ``d`` or ``epochs_per_feature``
    below 1, a negative seed and a learning rate that is not positive and finite, and
    :class:`DivergenceError`, naming the feature and the epoch, when any
    user or item value of a feature is non-finite at the end of an epoch.
    """
    d = _integer(TrainingConfigError, "d", d, 1)
    epochs_per_feature = _integer(TrainingConfigError, "epochs_per_feature", epochs_per_feature, 1)
    seed = _integer(TrainingConfigError, "seed", seed, 0)
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise TrainingConfigError(f"learning_rate must be positive and finite, got {learning_rate!r}")
    m, n = matrix.num_users, matrix.num_items
    rng = np.random.default_rng(seed)
    U = 0.1 + rng.uniform(-1e-4, 1e-4, size=(m, d))
    V = 0.1 + rng.uniform(-1e-4, 1e-4, size=(n, d))
    cells, spans = _wavefront(sorted(matrix.ratings), m, n)
    users, items = (np.array(cells, dtype=np.intp) - 1).T.copy()
    # rating minus the contribution of the features trained so far
    residual = np.array([float(matrix.ratings[c]) for c in cells])
    levels = [(users[span], items[span]) for span in spans]
    lr = float(learning_rate)
    # Python floats overflow to inf and nan silently; so does the array step
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(d):
            uf = U[:, f].copy()
            vf = V[:, f].copy()
            steps = [(u, i, residual[span]) for (u, i), span in zip(levels, spans)]
            for epoch in range(epochs_per_feature):
                for u, i, r in steps:
                    a = uf[u]
                    b = vf[i]
                    g = lr * (r - a * b)
                    uf[u] = a + g * b
                    vf[i] = b + g * a
                if not (np.isfinite(uf).all() and np.isfinite(vf).all()):
                    raise DivergenceError(
                        f"non-finite parameters at feature {f}, epoch {epoch}", feature=f, epoch=epoch
                    )
            U[:, f] = uf
            V[:, f] = vf
            residual = residual - uf[users] * vf[items]
    return (U, V) if return_item_features else U


def _wavefront(cells: list[tuple[int, int]], m: int, n: int) -> tuple[list, list[slice]]:
    """Group (user, item) cells into wavefront levels.

    A cell's level is one more than the larger of the levels of the
    previous cell of its user and of its item. No two cells of a level
    share a user or an item, and a cell's level is above the level of
    every earlier cell that shares its user or its item. Returns the cells
    level by level, each level in the given order, and each level's slice
    of that list.
    """
    user_level = [-1] * (m + 1)
    item_level = [-1] * (n + 1)
    levels: list[list[tuple[int, int]]] = []
    for cell in cells:
        u, i = cell
        level = max(user_level[u], item_level[i]) + 1
        user_level[u] = item_level[i] = level
        if level == len(levels):
            levels.append([])
        levels[level].append(cell)
    order: list[tuple[int, int]] = []
    spans = []
    for level in levels:
        spans.append(slice(len(order), len(order) + len(level)))
        order.extend(level)
    return order, spans


@dataclass(frozen=True)
class CfQuery:
    """An active user's known rating row, their mean, and the target item.

    The query keeps its own copy of ``ratings``, to be read and never
    changed, and builds the arrays the kernel reads from it once: every
    route and every depth reuses them. A user or item id that is not an
    integer, or a NaN or infinite mean or rating, raises
    :class:`InvalidQueryError`. Any integer id is valid: a user without
    ratings or outside the matrix, and an item beyond every table, get an
    answer (the routing baselines reject a user without a feature row).
    """

    user: int
    item: int
    ratings: Mapping[int, float]
    mean: float
    # rated item ids, x = rating - mean and x * x as columns, min and max item id
    _prepared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "user", _integer(InvalidQueryError, "user", self.user))
        object.__setattr__(self, "item", _integer(InvalidQueryError, "item", self.item))
        ratings = dict(self.ratings)
        count = len(ratings)
        items = np.fromiter(ratings, dtype=np.intp, count=count)
        x = (np.fromiter(ratings.values(), dtype=float, count=count) - self.mean)[:, None]
        if not (math.isfinite(self.mean) and np.isfinite(x).all()):
            raise InvalidQueryError("the mean or a rating of the query is NaN or infinite")
        bounds = (min(ratings), max(ratings)) if ratings else (0, -1)
        object.__setattr__(self, "ratings", ratings)
        object.__setattr__(self, "_prepared", (items, x, x * x, *bounds))

    def _rows(self, num_rows: int):
        """The prepared item ids, x and x * x of the rated items below ``num_rows``."""
        items, x, xx, low, high = self._prepared
        if 0 <= low and high < num_rows:
            return items, x, xx
        known = (items >= 0) & (items < num_rows)
        return items[known], x[known], xx[known]

    @classmethod
    def from_matrix(cls, matrix: RatingMatrix, user: int, item: int) -> "CfQuery":
        """The user's rating row and mean; a user without ratings has the global mean."""
        mean = matrix.user_mean(user)
        return cls(user, item, matrix.user_ratings(user), matrix.global_mean() if mean is None else mean)


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
    # every rater, handed on as the next state; None for user-level routes
    state: State | None = field(default=None, repr=False)


def _score(query: CfQuery, depth: int, table: np.ndarray, cols: np.ndarray, ids: np.ndarray,
           scanned: int, scale, view: Code | None = None) -> CfApproxResult:
    """The recommendation step over candidate columns of an item-major deviation table.

    ``table[i, c]`` is candidate c's ``rating - rater_mean`` for item i, NaN
    where c did not rate i; ``cols`` are the candidates' columns in scan
    order and ``ids[c]`` the id reported for column c. Every candidate that
    rated the target item is a rater. Its weight is the Pearson-style
    correlation of the query's and the candidate's deviations over the
    items both rated: undefined without such an item, 0 when either
    side's deviations vanish there. Two ``take`` calls gather the block of
    the query's items by the raters, rows and then columns (about half the
    time of numpy's 2-D fancy index ``table[items[:, None], cols]``), and one
    reduction takes the three correlation sums,
    each adding the rows in ``query.ratings`` order, so that the weights
    equal the scalar definition bit for bit. A non-rated cell adds a zero
    whose sign may differ from the scalar loop's; only a zero sum can
    show it, and a zero weight is never used. With the view that
    ``cols`` index, the result carries its raters as its state.
    """
    if 0 <= query.item < len(table):
        target = table[query.item].take(cols)
    else:
        target = np.full(len(cols), np.nan)
    rated = target == target
    cols, target = cols[rated], target[rated]
    items, x, xx = query._rows(len(table))
    y = table.take(items, axis=0).take(cols, axis=1)
    overlap = y == y
    y = np.where(overlap, y, 0.0)
    terms = np.empty((3, *y.shape))
    np.multiply(x, y, out=terms[0])
    np.multiply(xx, overlap, out=terms[1])
    np.multiply(y, y, out=terms[2])
    num, du, dn = _column_sums(terms)
    defined = (du > 0.0) & (dn > 0.0)  # du > 0 needs an overlap
    weights = np.divide(num, np.sqrt(du * dn), out=np.zeros(len(cols)), where=defined)
    used = weights != 0.0  # no overlap (None) and degenerate (0.0) weights are skipped
    used_weights = weights[used]
    weight_list = used_weights.tolist()
    ids = ids[cols]
    # exactly rounded sums, so the result does not depend on the scan order:
    # code-level and user-level routes over the same contributions agree bit for bit
    shift = math.fsum((used_weights * target[used]).tolist())
    total = math.fsum(map(abs, weight_list))
    fallback = total == 0.0
    raw = query.mean if fallback else query.mean + shift / total
    prediction = min(max(raw, scale[0]), scale[1])
    return CfApproxResult(
        depth=depth,
        rater_node_ids=tuple(ids[used].tolist()),
        weights=tuple(weight_list),
        all_rater_node_ids=tuple(ids.tolist()),
        prediction=prediction,
        scanned=scanned,
        fallback=fallback,
        clamped=prediction != raw,
        # cols ascend (every row or state_filter's rows, filtered), so the state skips the row check
        state=None if view is None else State._built(view, cols),
    )


def predict(
    book: CodeBook,
    depth: int,
    query: CfQuery,
    state: State | None = None,
    matrix: RatingMatrix | None = None,
) -> CfApproxResult:
    """Predict the active user's rating of the target item from the code of a depth.

    Candidates are the code's nodes, filtered through the state when one is
    given (a node survives iff its ancestor at the state depth rated the
    item). Nodes that rated the item but have no defined, non-degenerate
    weight still count as raters (they stay in the next state) without
    entering the weighted average. An empty weighted set falls back to the
    user's mean; predictions clamp to the rating scale. A book without
    rating aggregates raises :class:`BookKindError`.
    """
    view = book.code_at_depth(depth)
    cols = np.arange(len(view.ids)) if state is None else state_filter(book, depth, state)
    scale = matrix.rating_scale if matrix is not None else RATING_SCALE
    return _score(query, view.depth, book.deviations(depth), cols, view.ids, len(cols), scale, view)


def refine_chain(book: CodeBook, query: CfQuery, matrix=None) -> list[CfApproxResult]:
    """Produce one prediction per depth, each refined from the raters the
    previous result hands on as ``result.state``; the first is one-shot."""
    results, state = [], None
    for depth in book.depths():
        result = predict(book, depth, query, state, matrix=matrix)
        results.append(result)
        state = result.state
    return results


def _predict_over_users(matrix: RatingMatrix, query: CfQuery, users, scanned=None):
    """User-granularity prediction restricted to the given 1-based user ids,
    scanned in their order; ``scanned`` defaults to the number of ids."""
    users = np.asarray(users, dtype=np.intp)
    others = users[users != query.user]
    return _score(query, EXACT_DEPTH, matrix.deviations(), others - 1,
                  np.arange(1, matrix.num_users + 1), len(users) if scanned is None else scanned,
                  matrix.rating_scale)


def exact_cf_predict(matrix: RatingMatrix, query: CfQuery) -> CfApproxResult:
    """User-granularity prediction over the full matrix: the exact oracle.

    Applies the user-user correlation and weighted-average formulas with
    the same degenerate-weight, fallback and clamping rules as
    :func:`predict`, scanning every user who rated the target item.
    """
    users = np.arange(1, matrix.num_users + 1)
    return _predict_over_users(matrix, query, users, scanned=matrix.num_users - 1)


def rmse(predictions, actuals) -> float:
    """Root-mean-square error between predictions and actual ratings."""
    predictions = np.asarray(predictions, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    if predictions.shape != actuals.shape or len(predictions) == 0:
        raise UndefinedMetricError("predictions and actuals must be equal-length and non-empty")
    return float(np.sqrt(np.mean((predictions - actuals) ** 2)))


def relative_error(rmse_approx: float, rmse_exact: float) -> float:
    """(approximate RMSE - exact RMSE) / exact RMSE; negative when the
    approximation happens to beat the exact result on a test set."""
    if rmse_exact <= 0.0:
        raise UndefinedMetricError("relative error is undefined for exact RMSE of 0")
    return (rmse_approx - rmse_exact) / rmse_exact
