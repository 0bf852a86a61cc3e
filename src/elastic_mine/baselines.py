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
from .coding import CodeBook, kmeans
from .datasets import LabeledDataset, RatingMatrix
from .errors import InsufficientBudgetError, UnknownUserError
from .knn import EXACT_DEPTH, KnnApproxResult, KnnQuery, _max_sq, _vote

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
        d2 = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        keys[rows] = np.sqrt(d2.min(axis=1))
    return np.lexsort((np.arange(n), keys))


def anytime_knn_ranking(
    train: LabeledDataset, query: KnnQuery, budget: int, order: np.ndarray | None = None
) -> KnnApproxResult:
    """Scan ranked points until the budget runs out; the k nearest vote."""
    if budget < query.k:
        raise InsufficientBudgetError(f"budget {budget} below k={query.k}")
    if order is None:
        order = rank_training_points(train)
    used = order[: min(budget, len(order))]
    q = np.asarray(query.point, dtype=float)
    d2 = ((train.features[used] - q) ** 2).sum(axis=1)
    top = sorted(zip(d2, used))[: query.k]
    k_pos, k_neg, predicted = _vote([int(train.labels[i]) for _, i in top])
    return KnnApproxResult(
        depth=EXACT_DEPTH,
        node_ids=tuple(int(i) for _, i in top),
        distances=tuple(float(np.sqrt(d)) for d, _ in top),
        k_pos=k_pos, k_neg=k_neg, predicted=predicted,
        threshold=float(np.sqrt(top[-1][0])),
        scanned=len(used),
    )


class _FrontierEntry:
    """A frontier element: an internal node, a leaf, or a raw training point."""

    __slots__ = ("node_id", "point", "label", "d2", "order")

    def __init__(self, node_id, point, label, d2, order):
        self.node_id = node_id
        self.point = point
        self.label = label
        self.d2 = d2
        self.order = order


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
    among the k nearest frontier elements.
    """
    if len(book.roots) != 2:
        raise ValueError("anytime rtree descent needs a dual (per-class) codebook")
    q = np.asarray(query.point, dtype=float)
    nodes = book.arrays
    labels, trees = nodes.label.tolist(), nodes.tree.tolist()
    child_ptr, child_ids = (a.tolist() for a in nodes.child_csr)
    frontier: dict[int, _FrontierEntry] = {}
    per_tree: dict[int, set[int]] = {0: set(), 1: set()}
    counter = 0  # frontier elements ever created: the scanned-node cost

    def add_nodes(nids):
        nonlocal counter
        # scored together: _max_sq gives each row the value a lone box gets
        rows = np.array(nids)
        low, upp = nodes.low.take(rows, axis=0), nodes.upp.take(rows, axis=0)
        for nid, d2 in zip(nids, _max_sq(q, low, upp).tolist()):
            frontier[counter] = _FrontierEntry(nid, None, labels[nid], d2, counter)
            per_tree[trees[nid]].add(counter)
            counter += 1

    def add_points(rows):
        nonlocal counter
        # scored together: each row sum equals the lone point's sum bit for bit
        d2s = ((train.features.take(rows, axis=0) - q) ** 2).sum(axis=1)
        for row, label, d2 in zip(rows.tolist(), train.labels.take(rows).tolist(), d2s.tolist()):
            frontier[counter] = _FrontierEntry(None, row, label, d2, counter)
            counter += 1

    for root in book.roots:
        add_nodes(child_ids[child_ptr[root] : child_ptr[root + 1]])
    if budget < len(frontier):
        raise InsufficientBudgetError(
            f"budget {budget} below the initial frontier size {len(frontier)}"
        )

    def pick(tree) -> int | None:
        keys = per_tree[tree]
        if not keys:
            return None
        if strategy == STRATEGY_BFS:
            return min(keys)
        if strategy == STRATEGY_DFS:
            return max(keys)
        return min(keys, key=lambda c: (frontier[c].d2, frontier[c].node_id))

    while per_tree[0] or per_tree[1]:
        progressed = False
        blocked = False
        for tree in (0, 1):
            key = pick(tree)
            if key is None:
                continue
            nid = frontier[key].node_id
            children = child_ids[child_ptr[nid] : child_ptr[nid + 1]]
            members = [] if children else nodes.members_of(nid)
            if counter + len(children or members) > budget:
                blocked = True
                continue
            del frontier[key]
            per_tree[tree].discard(key)
            if children:
                add_nodes(children)
            else:
                add_points(members)
            progressed = True
        if blocked or not progressed:
            break

    entries = sorted(
        frontier.values(),
        key=lambda e: (e.d2, 0 if e.point is not None else 1, e.point if e.point is not None else e.node_id),
    )
    top = entries[: query.k]
    k_pos, k_neg, predicted = _vote([e.label for e in top])
    return KnnApproxResult(
        depth=EXACT_DEPTH,
        node_ids=tuple(e.point if e.point is not None else e.node_id for e in top),
        distances=tuple(float(np.sqrt(e.d2)) for e in top),
        k_pos=k_pos, k_neg=k_neg, predicted=predicted,
        threshold=float(np.sqrt(top[-1].d2)),
        scanned=counter,
    )


# ---------------------------------------------------------------------------
# Time-adaptive CF baselines


def sample_users(num_users: int, sample_size: int, seed: int) -> tuple[int, ...]:
    """Seeded user sample with the prefix property: growing the size only appends."""
    if not 1 <= sample_size <= num_users:
        raise ValueError(f"sample_size must be in [1, {num_users}]")
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
    seed: int = 0,
) -> CfApproxResult:
    """Flat k-means over user vectors; predict from the active user's cluster."""
    values = np.asarray(getattr(features, "values", features), dtype=float)
    if not 1 <= k_clusters <= matrix.num_users:
        raise ValueError(f"k_clusters must be in [1, {matrix.num_users}]")
    labels, centroids = kmeans(values, k_clusters, iterations, seed)
    own = _user_vector(values, query)
    cluster = int(np.argmin(((centroids - own) ** 2).sum(axis=1)))
    users = tuple(int(r) + 1 for r in np.flatnonzero(labels == cluster))
    return _predict_over_users(matrix, query, users)


def cf_recttree(
    matrix: RatingMatrix,
    features,
    query: CfQuery,
    levels: int,
    branching: int = 2,
    iterations: int = 10,
    seed: int = 0,
) -> CfApproxResult:
    """Recursive k-means hierarchy; predict from the routed bottom-level cluster.

    Level 1 is the whole user set; each level splits every cluster with
    ``branching``-means. The active user is routed to the nearest centroid
    at every level, so deeper levels never enlarge their cluster.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    values = np.asarray(getattr(features, "values", features), dtype=float)
    rows = np.arange(matrix.num_users)
    own = _user_vector(values, query)
    for _ in range(levels - 1):
        if len(rows) <= 1 or len(rows) < branching:
            break
        labels, centroids = kmeans(values[rows], branching, iterations, seed)
        sizes = np.bincount(labels, minlength=branching)
        keep = np.flatnonzero(sizes > 0)
        cluster = int(keep[np.argmin(((centroids[keep] - own) ** 2).sum(axis=1))])
        rows = rows[labels == cluster]
    return _predict_over_users(matrix, query, tuple(int(r) + 1 for r in rows))


def recttree_partition(features, levels: int, branching: int = 2, iterations: int = 10, seed: int = 0):
    """The per-level cluster partitions the routing of :func:`cf_recttree` follows."""
    values = np.asarray(getattr(features, "values", features), dtype=float)
    current = [np.arange(len(values))]
    out = [[rows.copy() for rows in current]]
    for _ in range(levels - 1):
        nxt = []
        for rows in current:
            if len(rows) <= 1 or len(rows) < branching:
                nxt.append(rows)
                continue
            labels, _ = kmeans(values[rows], branching, iterations, seed)
            for c in range(branching):
                grp = rows[labels == c]
                if len(grp):
                    nxt.append(grp)
        current = nxt
        out.append([rows.copy() for rows in current])
    return out
