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
lies below each node of that depth. A scan is one box kernel, :func:`_box_sq`,
over the (state-filtered) rows and the one nearest-k rule, :func:`_nearest`:
a partial sort to the k-th distance, then a sort of the few entries at or
below it by distance and node id. The exact oracle and both anytime
baselines select through the same rule and vote through :func:`_result`.
A one-shot query at a code of length L costs O(L * d) array work, with no
per-node Python step; the view is built once per book, on first use.

State filtering gathers the subtree row ranges of the retained rows, so
a refined query costs O(candidates * d). A refined result also carries
its own state: the scanned nodes whose minimal distance is within the
threshold. Starting over is refining from the roots' state
(``state_of(book, 0, book.roots)``), so this one candidate pass builds
every state, and :func:`maintain_state` only hands a carried state on; a
one-shot scan builds none. Down a chain a state keeps exactly the nodes a
scan of the whole code would keep (child boxes lie inside their parent's
box, so the threshold never grows down a chain and every such node lies
under a retained one); from a hand-made, narrower state, fewer.

Distance comparisons run on squared values internally; every distance a
caller sees is a true (un-squared) Euclidean distance. Box norms go
through the dot routine ``d @ d`` uses for a single box, so a vectorised
scan returns the same bits as a box-by-box one. Point distances (the
oracle and both anytime baselines) go through ``coding._point_sq``, which
returns the bits a lone point gets; ``exact_knn`` over 19,700 points
takes about 0.11-0.13 ms on a 2-core x86-64 machine (numpy 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coding import EXACT_DEPTH, KIND_DUAL, CodeBook, State, _point_sq, _roots_state, state_filter
from .datasets import LabeledDataset, POSITIVE, NEGATIVE
from .errors import (
    BookKindError, DimensionMismatchError, ForeignStateError, InsufficientCandidatesError,
    InvalidQueryError, UndefinedMetricError, _integer,
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
    """Squared Euclidean norm of a vector, or of every row of a stack.

    ``np.vecdot`` (numpy >= 2.0) takes each row through the dot routine ``d @ d``
    uses, so a row's value does not depend on how many rows are scored at
    once; ``einsum`` or a row sum round differently where it fuses multiply-adds.
    """
    return np.vecdot(d, d)


def _box_sq(point: np.ndarray, low: np.ndarray, upp: np.ndarray, with_min: bool) -> np.ndarray:
    """Squared max-distances from the point to each box and, ``with_min``,
    squared min-distances: a (1 or 2, n) stack from one norm call.

    For ``low <= upp`` the larger signed gap of ``q - low`` and ``upp - q``
    is ``max(|q - low|, |q - upp|)``, and the smaller, clipped at 0,
    ``-max(0, low - q, q - upp)``: equal squares. ``upp - q`` overwrites the
    query repeated per row, faster than a broadcast against short rows
    (``repeat``: 1.2-1.5 µs against 2.8-3.1 µs for ``tile`` at 6-78 rows)."""
    q = np.repeat(point[None, :], len(low), axis=0)
    gaps = np.empty((2 if with_min else 1, *low.shape))
    near = np.subtract(q, low, out=gaps[-1])
    far = np.subtract(upp, q, out=q)
    np.maximum(near, far, out=gaps[0])
    if with_min:
        np.minimum(np.minimum(near, far, out=near), 0.0, out=near)
    return _norm_sq(gaps)


@dataclass(frozen=True)
class KnnQuery:
    point: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "k", _integer(InvalidQueryError, "k", self.k, 1))
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
    # a refined scan's survivors, handed on as the next state; None after a one-shot scan
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


def classify(
    book: CodeBook, depth: int, query: KnnQuery, state: State | None = None
) -> KnnApproxResult:
    """Select the k nodes of smallest max-distance in the (state-filtered) code of a depth.

    With a state, only nodes whose ancestor at the state's depth was
    retained are scanned; the scanned-node count is the result's
    computational cost. Distance ties break by node id. A refined result
    also carries its state: the scanned nodes within its threshold. From
    the roots' state the answer is the one-shot answer, bit for bit; the
    one-shot path builds no state. A book of another kind than dual
    R-trees raises :class:`BookKindError`.
    """
    _check_dual(book)
    columns = book.code_at_depth(depth)
    _check_dim(query.point, columns.dimensionality)
    low, upp = columns.low, columns.upp
    if state is not None:
        rows = state_filter(book, columns.depth, state)
        # take() gathers (L, d) rows several times faster than fancy indexing
        low, upp = low.take(rows, axis=0), upp.take(rows, axis=0)
    if len(low) < query.k:
        raise InsufficientCandidatesError(f"{len(low)} candidate nodes after filtering < k={query.k}")
    sq = _box_sq(query.point, low, upp, with_min=state is not None)
    d2 = sq[0]
    top = _nearest(d2, query.k)  # view ids and candidate rows ascend: positions are in id order
    picked = top if state is None else rows[top]
    if state is not None:
        # the next state keeps a node exactly at the threshold whichever way its root squares back
        top_sq = float(d2[top[-1]])
        state = State._built(columns, rows[sq[1] <= max(top_sq, float(np.sqrt(top_sq)) ** 2)])
    return _result(columns.ids[picked], d2[top], columns.labels[picked], len(low), columns.depth, state)


def maintain_state(book: CodeBook, result: KnnApproxResult) -> State:
    """Hand on the state a refined result of this book carries.

    A refined :func:`classify` builds the state; this only returns it. Any
    other result (one-shot, hand-built, of another book, or of no code, as
    from ``exact_knn`` or a baseline) raises :class:`ForeignStateError`:
    classifying from ``state_of(book, 0, book.roots)`` gives an answer and
    its state in one scan.
    """
    state = result.state
    if state is None or book._columns.get(result.depth) is not state.view:
        raise ForeignStateError(f"the result carries no state of this book's depth {result.depth}; classify "
                                "from state_of(book, 0, book.roots) for an answer and its state in one scan")
    return state


def refine_chain(book: CodeBook, query: KnnQuery) -> list[KnnApproxResult]:
    """Produce one result per depth, each refined from the previous state,
    the first from the roots' state."""
    results, state = [], _roots_state(book)
    for depth in book.depths():
        result = classify(book, depth, query, state)
        results.append(result)
        state = maintain_state(book, result)
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
        raise UndefinedMetricError("predictions and actuals must be equal-length and non-empty")
    return float(np.mean(predictions == actuals))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks ascending by value; tied values share the mean rank.

    A tie group of ``count`` values ending at 1-based position ``end`` holds
    ranks ``end - count + 1`` to ``end``, whose mean is ``(2 * end - count + 1) / 2``.
    """
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2)[group]


def auc(scores, labels) -> float:
    """Rank-based AUC of positive-class scores (Mann-Whitney, average ranks).

    ``scores`` are estimated positive-class probabilities (k_pos / k for
    kNN results); ``labels`` are actual classes. Both classes must appear,
    and every score must be finite.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise UndefinedMetricError("scores and labels must be equal-length")
    if not np.isfinite(scores).all():
        raise UndefinedMetricError("AUC needs finite scores")
    n_pos = int((labels == POSITIVE).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one point of each class")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == POSITIVE].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
