"""Elastic k-nearest-neighbour classification over codebook nodes.

A query is answered by linearly scanning a code and voting among the k
nodes closest to the query point, where node distance is the maximal
Euclidean distance to any point of the node's bounding box. A state (a
``coding.State``, as in CF) keeps the scanned nodes that could still
matter as rows of its book's view; deeper codes of that book alone are
then filtered through it, which only ever shrinks the scan.

The kernel works on the book's columnar per-depth view
(:meth:`CodeBook.code_at_depth`): the boxes of a code as two (L, d) arrays, a
label array and, per shallower depth, the range of this code's rows that
lies below each node of that depth. A scan is one vector expression
over the (state-filtered) rows and the one nearest-k rule, :func:`_nearest`:
a partial sort to the k-th distance, then a sort of the few entries at or
below it by distance and node id. The exact oracle and both anytime
baselines select through the same rule and vote through :func:`_result`.
A one-shot query at a code of length L costs O(L * d) array work, with no
per-node Python step; the view is built once per book, on first use.

State filtering gathers the subtree row ranges of the retained rows, so
a refined query costs O(candidates * d). A refined result also carries
its own state: the scanned nodes whose minimal distance is within the
threshold, which :func:`maintain_state` returns as they are. For a state
built by :func:`maintain_state` they are exactly the nodes a scan of the
whole code would keep (child boxes lie inside their parent's box, so the
threshold never grows down a chain and every such node lies under a
retained one); for a hand-made, narrower state they are fewer.

Distance comparisons run on squared values internally; every distance a
caller sees is a true (un-squared) Euclidean distance. Squared norms go
through the same dot routine for a single box and for a whole code, so
a vectorised scan returns the same bits as a box-by-box one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coding import EXACT_DEPTH, KIND_DUAL, Code, CodeBook, Mbr, State, state_filter
from .datasets import LabeledDataset, POSITIVE, NEGATIVE
from .errors import (
    BookKindError, DimensionMismatchError, ForeignStateError, InsufficientCandidatesError,
    InvalidQueryError, UndefinedMetricError,
)


def _check_dim(q: np.ndarray, dimensionality: int):
    if q.shape != (dimensionality,):
        raise DimensionMismatchError(
            f"query of shape {q.shape} against {dimensionality}-dimensional boxes"
        )


def _check_train(train: LabeledDataset, query: KnnQuery):
    """Raise unless the training set holds k points of the query's dimensionality."""
    if query.k > len(train):
        raise InsufficientCandidatesError(f"k={query.k} exceeds training size {len(train)}")
    _check_dim(query.point, train.dimensionality)


def _norm_sq(d: np.ndarray):
    """Squared Euclidean norm of a vector, or of every row of a matrix.

    Each row goes through the dot routine ``d @ d`` uses, so a row's value
    does not depend on how many rows are scored at once; ``einsum`` or a
    row sum round differently wherever that routine fuses multiply-adds.
    """
    return np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]


def _max_sq(q: np.ndarray, low: np.ndarray, upp: np.ndarray):
    return _norm_sq(np.maximum(np.abs(q - low), np.abs(q - upp)))


def _min_sq(q: np.ndarray, low: np.ndarray, upp: np.ndarray):
    return _norm_sq(np.maximum(0.0, np.maximum(low - q, q - upp)))


def _point_sq(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distance from q to every row: a C-ordered row sum adds each
    row on its own, so a row's value is the one a lone point gets."""
    return ((np.ascontiguousarray(points) - q) ** 2).sum(axis=1)


def _spread(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """q repeated once per row: subtracting it from short rows is faster
    as a full array than as a broadcast."""
    return np.tile(q, (len(rows), 1))


def _within(q: np.ndarray, low: np.ndarray, upp: np.ndarray, top_sq: float, threshold: float):
    """Where the minimal distance is within the threshold of a result.

    ``top_sq`` is the largest squared distance of the result's nodes.
    Equality at the boundary must keep a node, so the squared threshold is
    rebuilt from it, with no sqrt round trip.
    """
    return _min_sq(q, low, upp) <= max(top_sq, threshold**2)


def dist_max(q, mbr: Mbr) -> float:
    """Maximal Euclidean distance from q to any point of the box."""
    q = np.asarray(q, dtype=float)
    _check_dim(q, mbr.dimensionality)
    return float(np.sqrt(_max_sq(q, mbr.low, mbr.upp)))


def dist_min(q, mbr: Mbr) -> float:
    """Minimal Euclidean distance from q to the box (0 inside)."""
    q = np.asarray(q, dtype=float)
    _check_dim(q, mbr.dimensionality)
    return float(np.sqrt(_min_sq(q, mbr.low, mbr.upp)))


@dataclass(frozen=True)
class KnnQuery:
    point: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        if self.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {self.k}")
        if not np.isfinite(self.point).all():
            raise InvalidQueryError("a query coordinate is NaN or infinite")


@dataclass(frozen=True)
class KnnApproxResult:
    depth: int
    node_ids: tuple[int, ...]
    distances: tuple[float, ...]  # true Euclidean, ascending
    k_pos: int
    k_neg: int
    predicted: int
    threshold: float  # largest of the k distances (the pruning threshold)
    scanned: int
    # a refined scan's survivors, the next state; None after a one-shot scan
    state: State | None = field(default=None, repr=False)

    @property
    def k(self) -> int:
        return self.k_pos + self.k_neg

    @property
    def positive_score(self) -> float:
        """Estimated probability of the positive class, k_pos / k."""
        return self.k_pos / self.k


def _nearest(d2: np.ndarray, k: int, *ties: np.ndarray) -> np.ndarray:
    """Positions of the k smallest squared distances, ascending; distance
    ties go by the ``ties`` keys in the order given, then by position.

    A partial sort finds the k-th distance; only the few entries at or
    below it are sorted, by a stable lexsort (its last key decides first).
    """
    near = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
    return near[np.lexsort((*(t[near] for t in reversed(ties)), d2[near]))][:k]


def _result(ids: np.ndarray, d2: np.ndarray, labels: np.ndarray, scanned: int,
            depth: int = EXACT_DEPTH, state: State | None = None) -> KnnApproxResult:
    """The answer from the k nearest elements' ids, squared distances and
    labels, in ascending distance."""
    distances = np.sqrt(d2).tolist()
    k_pos = int(np.count_nonzero(labels == POSITIVE))
    k_neg = len(labels) - k_pos
    # ties (even k) go to the negative class: the vote rule is strict
    predicted = POSITIVE if k_pos > k_neg else NEGATIVE
    return KnnApproxResult(depth, tuple(ids.tolist()), tuple(distances), k_pos, k_neg, predicted,
                           threshold=distances[-1], scanned=scanned, state=state)


def _check_dual(book: CodeBook):
    if book.kind != KIND_DUAL:
        raise BookKindError(f"kNN mines a {KIND_DUAL} book, not a {book.kind} one")


def _code_columns(book: CodeBook, depth: int, query: KnnQuery) -> Code:
    _check_dual(book)
    columns = book.code_at_depth(depth)
    _check_dim(query.point, columns.dimensionality)
    return columns


def classify(
    book: CodeBook, depth: int, query: KnnQuery, state: State | None = None
) -> KnnApproxResult:
    """Select the k nodes of smallest max-distance in the (state-filtered) code of a depth.

    With a state, only nodes whose ancestor at the state's depth was
    retained are scanned; the scanned-node count is the result's
    computational cost. Distance ties break by node id. A refined result
    also carries its state: the scanned nodes within its threshold, which
    :func:`maintain_state` returns as they are. A book of another kind
    than dual R-trees raises :class:`BookKindError`.
    """
    columns = _code_columns(book, depth, query)
    ids, low, upp, labels = columns.ids, columns.low, columns.upp, columns.labels
    if state is not None:
        rows = state_filter(book, columns.depth, state)
        # take() gathers (L, d) rows several times faster than fancy indexing
        ids, low, upp, labels = (a.take(rows, axis=0) for a in (ids, low, upp, labels))
    k = query.k
    if len(ids) < k:
        raise InsufficientCandidatesError(f"{len(ids)} candidate nodes after filtering < k={k}")
    q = _spread(query.point, low)
    d2 = _max_sq(q, low, upp)
    top = _nearest(d2, k, ids)
    if state is not None:
        # the next state: the candidates are gathered already, so it costs
        # one more pass over them instead of a scan of the whole code
        top_sq = float(d2[top[-1]])
        keep = _within(q, low, upp, top_sq, float(np.sqrt(top_sq)))
        state = State(columns, rows[keep])
    return _result(ids[top], d2[top], labels[top], len(ids), columns.depth, state)


def maintain_state(book: CodeBook, query: KnnQuery, result: KnnApproxResult) -> State:
    """Keep the scanned nodes of the result's code whose minimal distance is within the threshold.

    Nodes with ``dist_min > dist_max_kNN`` cannot contain any of the
    query's nearest neighbours at any deeper depth and are dropped; the k
    result nodes always survive. The code is the book's code at
    ``result.depth``. A refined result of this book carries that state,
    which is returned as it is; any other result (one-shot, hand-built, or
    of another book) has the whole code scanned, with its own threshold.
    From a state this function built, both give the same nodes. ``result``
    must be a result of ``query``. A result of no code (``exact_knn`` or a
    baseline) raises :class:`ForeignStateError`.
    """
    if result.depth == EXACT_DEPTH:
        raise ForeignStateError("a result of no code (an exact oracle or a baseline) has no state")
    columns = _code_columns(book, result.depth, query)
    if result.state is not None and result.state.view is columns:
        return result.state
    rows = columns.rows(result.node_ids)
    q, low, upp = query.point, columns.low, columns.upp
    top_sq = float(_max_sq(q, low[rows], upp[rows]).max())
    keep = _within(_spread(q, low), low, upp, top_sq, result.threshold)
    return State(columns, np.flatnonzero(keep))


def refine_chain(book: CodeBook, query: KnnQuery, depths=None) -> list[KnnApproxResult]:
    """Produce one result per depth, each refined from the previous state."""
    results, state = [], None
    for depth in book.depths() if depths is None else depths:
        result = classify(book, depth, query, state)
        results.append(result)
        state = maintain_state(book, query, result)
    return results


def exact_knn(train: LabeledDataset, query: KnnQuery) -> KnnApproxResult:
    """Brute-force k nearest training points: the exact-result oracle.

    Every training point is scored; the k nearest are chosen by the one
    nearest-k rule of :func:`classify`, with point indices in the node-id
    role, so distance ties break by index.
    """
    _check_train(train, query)
    d2 = _point_sq(train.features, query.point)
    top = _nearest(d2, query.k)
    return _result(top, d2[top], train.labels[top], len(train))


def accuracy(predictions, actuals) -> float:
    """Fraction of predictions equal to the actual labels."""
    predictions = np.asarray(predictions)
    actuals = np.asarray(actuals)
    if predictions.shape != actuals.shape or len(predictions) == 0:
        raise ValueError("predictions and actuals must be equal-length and non-empty")
    return float(np.mean(predictions == actuals))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks ascending by value; tied values share the mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def auc(scores, labels) -> float:
    """Rank-based AUC of positive-class scores (Mann-Whitney, average ranks).

    ``scores`` are estimated positive-class probabilities (k_pos / k for
    kNN results); ``labels`` are actual classes. Both classes must appear.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length")
    n_pos = int((labels == POSITIVE).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one point of each class")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == POSITIVE].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
