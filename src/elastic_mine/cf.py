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
``result.state`` is the hand-off to the next depth, as in kNN. A refined
prediction from a chain's state at depth >= 1 equals the one-shot at its
depth in every field but ``scanned``: by the book's rater rule a node below
depth 1 aggregates only its parent's items, so no rater is filtered out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coding import EXACT_DEPTH, Code, CodeBook, State, _column_sums, _ptr, state_filter
from .datasets import RATING_SCALE, RatingMatrix
from .errors import DivergenceError, InvalidQueryError, TrainingConfigError, UndefinedMetricError, _integer


_EPOCH_BLOCK = 4  # epochs whose updates one wavefront schedule interleaves


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

    The updates run as a wavefront over blocks of four epochs, the last
    block holding the rest: within a block, an update's level is one more
    than the larger of the levels of the previous update of its user and of
    its item, in this epoch or an earlier one of the block, so the updates
    of one level share no user and no item and run together as one array
    step (see :class:`_Schedule`). Each update still reads exactly the
    values it would read in the sequential loop, and the step applies the
    loop's IEEE operations in the same order, so the features are the same
    bit for bit. For the 38,724 training ratings of ``ratings_like()`` one
    epoch has 381 levels and a block of four 970, not 1,524; training 3
    features x 120 epochs takes 0.44-0.58 s raw, against 0.73-0.81 s with
    one epoch per wavefront and separate user and item gathers, and about
    2.7 s for the loop (one core of a shared x86-64 machine). Narrow levels pay numpy
    call overhead per step, so on small dense matrices the loop is faster
    (about 5 against 3 ms for 3 features x 20 epochs on 20 x 15; break-even
    near 40 x 30).

    Raises :class:`TrainingConfigError` for ``d`` or ``epochs_per_feature``
    below 1, a negative seed and a learning rate that is not positive and finite, and
    :class:`DivergenceError`, naming the feature and the epoch, when any
    user or item value of a feature is non-finite at the end of an epoch.
    Finiteness is checked once per block; a block that ends non-finite is
    run again from its start one epoch at a time to find that epoch.
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
    users, items, ratings = matrix.rating_arrays()
    users, items = users - 1, items - 1
    firsts = range(0, epochs_per_feature, _EPOCH_BLOCK)  # the first epoch of each block
    sizes = {min(_EPOCH_BLOCK, epochs_per_feature - first) for first in firsts}
    schedules = {passes: _Schedule(users, items, m, n, passes) for passes in sizes}
    residual = ratings  # rating minus the contribution of the features trained so far
    lr = float(learning_rate)
    # Python floats overflow to inf and nan silently; so does the array step
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(d):
            # a feature's user values, then its item values at m + item
            w = np.concatenate((U[:, f], V[:, f]))
            steps = {passes: schedule.steps(residual) for passes, schedule in schedules.items()}
            for first in firsts:
                passes = min(_EPOCH_BLOCK, epochs_per_feature - first)
                start = w.copy()
                _sweep(w, steps[passes], lr)
                if np.isfinite(w).all():
                    continue
                # a non-finite value stays non-finite under the update, so replaying
                # the block one epoch at a time finds the first epoch that ends non-finite
                w = start
                one = steps[1] if 1 in steps else _Schedule(users, items, m, n, 1).steps(residual)
                for epoch in range(first, first + passes):
                    _sweep(w, one, lr)
                    if not np.isfinite(w).all():
                        raise DivergenceError(
                            f"non-finite parameters at feature {f}, epoch {epoch}", feature=f, epoch=epoch
                        )
            del steps  # this feature's residuals go before the next feature gathers its own
            U[:, f] = w[:m]
            V[:, f] = w[m:]
            residual = residual - w[users] * w[m + items]
    return (U, V) if return_item_features else U


def _sweep(w: np.ndarray, steps: list, lr: float) -> None:
    """Run a schedule's levels on ``w`` in place, one array step per level."""
    for slots, r in steps:
        x = w[slots]
        y = x[::-1]  # each slot's partner: a user's item, an item's user
        w[slots] = x + lr * (r - x * y) * y


class _Schedule:
    """The wavefront levels of ``passes`` consecutive epochs over the cells.

    ``users`` and ``items`` are the cells' 0-based user and item ids in
    (user, item) order; an epoch updates the cells in that order. A cell's
    level in a pass is one more than the larger of the levels of the
    previous update of its user and of its item, in this pass or an earlier
    one, so no two updates of a level share a user or an item, and an
    update's level is above that of every earlier update it depends on.

    A level of L cells is 2L slots of the parameter vector ``w`` (users
    first, then item i at ``m + i``): its users in cell order, then its
    items in reverse cell order, so that slot k's partner is slot 2L-1-k.
    All levels' slots are one flat array, and so are the cells that give
    each slot its residual, so a feature gathers its residuals once.
    """

    def __init__(self, users: np.ndarray, items: np.ndarray, m: int, n: int, passes: int):
        levels = _levels(users, items, n, passes).ravel()
        bounds = _ptr(np.bincount(levels)).tolist()
        # a level's updates keep their sequential order; levels that fit 16 bits sort by radix
        cell = np.argsort(levels.astype(np.min_scalar_type(len(bounds))), kind="stable")
        del levels
        cell %= len(users)
        self.slots = np.empty(2 * len(cell), dtype=np.intp)
        self.cells = np.empty(2 * len(cell), dtype=np.int32 if len(users) < 1 << 31 else np.intp)
        self.spans = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            level = cell[a:b]
            self.slots[2 * a:a + b] = users[level]
            self.slots[a + b:2 * b] = m + items[level[::-1]]
            self.cells[2 * a:a + b] = level
            self.cells[a + b:2 * b] = level[::-1]
            self.spans.append(slice(2 * a, 2 * b))

    def steps(self, residual: np.ndarray) -> list:
        """Each level's slots and the residual of each slot's cell."""
        r = residual[self.cells]
        return [(self.slots[span], r[span]) for span in self.spans]


def _levels(users: np.ndarray, items: np.ndarray, n: int, passes: int) -> np.ndarray:
    """The (passes, cells) wavefront level of every cell in every pass.

    Along one user's cells, level j is the running maximum of the item
    levels before it less their offsets, and of the user's last level, plus
    j + 1: a few array calls per (pass, user) instead of one step per cell.
    """
    count = len(users)
    starts = np.flatnonzero(np.diff(users, prepend=-1))
    runs = [(a, b, items[a:b]) for a, b in zip(starts.tolist(), [*starts[1:].tolist(), count])]
    offset = np.arange(max(b - a for a, b, _ in runs) + 1)
    item_level = np.full(n, -1, dtype=np.intp)
    levels = np.empty((passes, count), dtype=np.intp)
    for p in range(passes):
        for a, b, row in runs:
            k = offset[: b - a]
            last = levels[p - 1, b - 1] if p else -1
            level = np.maximum.accumulate(np.maximum(item_level[row] - k, last)) + k + 1
            item_level[row] = levels[p, a:b] = level
    return levels


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
