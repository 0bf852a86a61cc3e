"""Comparison algorithms: anytime kNN variants and time-adaptive CF.

The anytime kNN algorithms either rank training points by importance and
scan a prefix, or descend a pair of class R-trees one node at a time under
a scanned-node budget. The time-adaptive CF algorithms restrict the exact
predictor to a user subset chosen by sampling, flat k-means, or a
recursive k-means hierarchy. None of them promises quality monotonicity;
at their maximal budget all of them reproduce the exact oracles.
"""

from __future__ import annotations

import warnings as _warnings

import numpy as np

from .cf import CfApproxResult, CfQuery, _predict_over_users
from .coding import CodeBook, _point_sq, _user_features, kmeans
from .datasets import LabeledDataset, RatingMatrix
from .errors import (
    BaselineConfigError, DepthNotFoundError, InsufficientBudgetError, UnknownUserError, _integer,
)
from .knn import KnnApproxResult, KnnQuery, _box_sq, _check_dual, _check_train, _nearest, _result

STRATEGY_BFS = "bfs"
STRATEGY_DFS = "dfs"
STRATEGY_OFS = "ofs"


def rank_training_points(train: LabeledDataset) -> np.ndarray:
    """Order points by distance to their nearest same-class point, ascending.

    Smaller distance ranks higher (more important); ties break by the
    original index. A class singleton has no same-class neighbour: it gets
    an infinite key, ranks last, and triggers a warning.
    """
    n = len(train)
    keys = np.full(n, np.inf)
    for label in np.unique(train.labels):
        rows = np.flatnonzero(train.labels == label)
        if len(rows) < 2:
            _warnings.warn(f"class {label} has a single point; it ranks last")
            continue
        feats = train.features[rows]
        d2 = _point_sq(feats[:, None, :], feats[None, :, :])
        np.fill_diagonal(d2, np.inf)
        keys[rows] = np.sqrt(d2.min(axis=1))
    return np.lexsort((np.arange(n), keys))


def anytime_knn_ranking(
    train: LabeledDataset, query: KnnQuery, budget: int, order: np.ndarray | None = None
) -> KnnApproxResult:
    """Scan ranked points until the budget runs out; the k nearest vote.

    ``order`` defaults to :func:`rank_training_points`. Its scanned prefix
    must hold at least k distinct point indices in 0..n-1, or
    :class:`BaselineConfigError` is raised; only the prefix is checked.
    """
    _check_train(train, query)
    budget = _integer(InsufficientBudgetError, "budget", budget, query.k)
    if order is None:
        order = rank_training_points(train)
    used = np.asarray(order[:budget])
    n = len(train)
    if (used.ndim != 1 or used.dtype.kind not in "iu" or len(used) < query.k
            or used.min() < 0 or used.max() >= n or len(np.unique(used)) < len(used)):
        raise BaselineConfigError(f"the scanned prefix of order must hold at least k={query.k} "
                                  f"distinct point indices in 0..{n - 1}")
    d2 = _point_sq(train.features.take(used, axis=0), query.point)
    top = _nearest(d2, query.k, used)
    return _result(used[top], d2[top], train.labels.take(used[top]), len(used))


def anytime_knn_rtree(
    book: CodeBook,
    train: LabeledDataset,
    query: KnnQuery,
    budget: int,
    strategy: str = STRATEGY_OFS,
) -> KnnApproxResult:
    """Anytime kNN by descending both class R-trees under a node budget.

    The frontier starts at the depth-1 nodes of both trees; each iteration
    replaces one node per tree by its children (or a leaf by its points),
    chosen by the strategy: BFS takes the earliest-inserted, DFS the
    latest-inserted, OFS the one nearest the query by max-distance. The
    budget counts every frontier element ever created; prediction votes
    among the k nearest frontier elements, so a budget that leaves fewer
    than k raises :class:`InsufficientBudgetError`. A book of another kind
    than dual R-trees raises :class:`BookKindError`, and a strategy other
    than bfs, dfs and ofs :class:`BaselineConfigError`.

    Every box and every training point is scored once, up front, in two
    array expressions; the descent itself only moves node ids between
    lists, so a query costs O((nodes + points) * d) array work plus one
    Python step per expansion.
    """
    _check_dual(book)
    if strategy not in (STRATEGY_BFS, STRATEGY_DFS, STRATEGY_OFS):
        raise BaselineConfigError(f"unknown strategy {strategy!r}: want bfs, dfs or ofs")
    if not book.depths():
        raise DepthNotFoundError("a class tree is a single leaf: there is no depth-1 frontier")
    _check_train(train, query)
    nodes = book.arrays
    child_ptr, child_ids = (a.tolist() for a in nodes.child_csr)
    trees = nodes.tree.tolist()
    # each tree's unexpanded nodes in insertion order: BFS takes the first, DFS the last
    open_nodes = ([], [])
    for root in book.roots:
        open_nodes[trees[root]].extend(child_ids[child_ptr[root] : child_ptr[root + 1]])
    scanned = len(open_nodes[0]) + len(open_nodes[1])  # frontier elements ever created
    budget = _integer(InsufficientBudgetError, "budget, which counts the initial frontier,", budget, scanned)
    # each row's value is the one a lone box or point gets: _box_sq and
    # _point_sq score row by row
    node_sq = _box_sq(query.point, nodes.bounds, with_min=False)[0]
    point_sq = _point_sq(train.features, query.point)
    node_d2 = node_sq.tolist()
    points = []  # training rows of expanded leaves

    def pick(frontier: list[int]) -> int:
        if strategy == STRATEGY_BFS:
            return 0
        if strategy == STRATEGY_DFS:
            return len(frontier) - 1
        return min(range(len(frontier)), key=lambda i: (node_d2[frontier[i]], frontier[i]))

    blocked = False  # an expansion that did not fit ends the descent after its round
    while (open_nodes[0] or open_nodes[1]) and not blocked:
        for frontier in open_nodes:
            if not frontier:
                continue
            at = pick(frontier)
            nid = frontier[at]
            children = child_ids[child_ptr[nid] : child_ptr[nid + 1]]
            members = [] if children else nodes.members_of(nid).tolist()
            added = len(children) + len(members)
            if scanned + added > budget:
                blocked = True
                continue
            del frontier[at]
            frontier.extend(children)
            points.extend(members)
            scanned += added

    frontier = len(points) + len(open_nodes[0]) + len(open_nodes[1])
    if frontier < query.k:
        raise InsufficientBudgetError(f"budget {budget} leaves {frontier} frontier elements < k={query.k}")
    # (distance, a point before a node, id) orders the frontier
    opened = open_nodes[0] + open_nodes[1]
    d2 = np.concatenate((point_sq.take(points), node_sq.take(opened)))
    ids = np.array(points + opened, dtype=np.intp)
    kind = np.repeat((0, 1), (len(points), len(opened)))
    top = _nearest(d2, query.k, kind, ids)
    labels = np.concatenate((train.labels.take(points), nodes.label.take(opened)))
    return _result(ids[top], d2[top], labels[top], scanned)


# ---------------------------------------------------------------------------
# Time-adaptive CF baselines


def sample_users(num_users: int, sample_size: int, seed: int) -> tuple[int, ...]:
    """Seeded user sample with the prefix property: growing the size only appends."""
    sample_size = _integer(BaselineConfigError, "sample size", sample_size, 1, num_users)
    seed = _integer(BaselineConfigError, "seed", seed, 0)
    perm = np.random.default_rng(seed).permutation(num_users) + 1
    return tuple(int(u) for u in perm[:sample_size])


def cf_sampling(matrix: RatingMatrix, query: CfQuery, sample_size: int, seed: int = 0) -> CfApproxResult:
    """Exact prediction restricted to a seeded random user subset."""
    return _predict_over_users(matrix, query, sample_users(matrix.num_users, sample_size, seed))


def _user_vector(values: np.ndarray, query: CfQuery) -> np.ndarray:
    """The active user's feature row; a user without one raises :class:`UnknownUserError`."""
    if not 1 <= query.user <= len(values):
        raise UnknownUserError(f"user {query.user} has no feature row (users 1..{len(values)})")
    return values[query.user - 1]


def cf_clustering(
    matrix: RatingMatrix,
    features,
    query: CfQuery,
    k_clusters: int,
    iterations: int = 10,
) -> CfApproxResult:
    """Flat k-means over user vectors; predict from the active user's cluster."""
    values = _user_features(features, matrix.num_users)
    k_clusters = _integer(BaselineConfigError, "cluster count", k_clusters, 1, matrix.num_users)
    iterations = _integer(BaselineConfigError, "k-means iterations", iterations, 1)
    labels, centroids = kmeans(values, k_clusters, iterations)
    own = _user_vector(values, query)
    cluster = int(np.argmin(_point_sq(centroids, own)))
    users = tuple(int(r) + 1 for r in np.flatnonzero(labels == cluster))
    return _predict_over_users(matrix, query, users)


def cf_recttree(
    matrix: RatingMatrix,
    features,
    query: CfQuery,
    levels: int,
    branching: int = 2,
    iterations: int = 10,
) -> CfApproxResult:
    """Recursive k-means hierarchy; predict from the routed bottom-level cluster.

    Level 1 is the whole user set; each level splits every cluster with
    ``branching``-means. The active user is routed to the nearest centroid
    at every level, so deeper levels never enlarge their cluster.
    """
    levels = _integer(BaselineConfigError, "levels", levels, 1)
    branching = _integer(BaselineConfigError, "branching", branching, 1)
    iterations = _integer(BaselineConfigError, "k-means iterations", iterations, 1)
    values = _user_features(features, matrix.num_users)
    rows = np.arange(matrix.num_users)
    own = _user_vector(values, query)
    for _ in range(levels - 1):
        if len(rows) <= 1 or len(rows) < branching:
            break
        labels, centroids = kmeans(values[rows], branching, iterations)
        sizes = np.bincount(labels, minlength=branching)
        keep = np.flatnonzero(sizes > 0)
        cluster = int(keep[np.argmin(_point_sq(centroids[keep], own))])
        rows = rows[labels == cluster]
    return _predict_over_users(matrix, query, tuple(int(r) + 1 for r in rows))

