"""Hierarchical codebook construction.

Three coders share one node/codebook representation:

* dual per-class R-trees over labeled points (classification),
* a single R-tree over SVD user vectors carrying aggregated ratings
  (collaborative filtering),
* a divisive k-means hierarchy as an alternate rating coder.

R-trees are bulk loaded top-down: each node's point set is tiled into its
children with a sort-tile-recursive pass, so sibling boxes have disjoint
interiors, every leaf sits at the same depth, and the per-depth sum of
bounding-box volumes can never grow with depth. A "code" is the set of all
nodes at one depth; depth 0 (the roots) is never usable as a code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .datasets import NEGATIVE, POSITIVE, LabeledDataset, RatingMatrix, deviation_table
from .errors import (
    BudgetTooSmallError, ClassMissingError, DepthNotFoundError, ForeignStateError, ParseError,
)

FORMAT_VERSION = 1
MAGIC = "elastic-mine-codebook"  # first token of a dump's header line

KIND_DUAL = "rtree-dual"
KIND_CF = "rtree-cf"
KIND_KMEANS = "kmeans-divisive"


@dataclass(frozen=True)
class Mbr:
    """Axis-aligned minimal bounding rectangle: per-dimension (low, upp)."""

    low: np.ndarray
    upp: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        upp = np.asarray(self.upp, dtype=float)
        if low.shape != upp.shape or low.ndim != 1:
            raise ValueError("low/upp must be equal-length 1-d arrays")
        if np.any(low > upp):
            raise ValueError("MBR requires low_i <= upp_i in every dimension")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "upp", upp)

    @classmethod
    def of_points(cls, points: np.ndarray) -> "Mbr":
        pts = np.asarray(points, dtype=float)
        return cls(pts.min(axis=0), pts.max(axis=0))

    @property
    def dimensionality(self) -> int:
        return len(self.low)

    def volume(self) -> float:
        """Product of extents; any zero-extent dimension makes it 0."""
        return float(np.prod(self.upp - self.low))

    def contains(self, other: "Mbr", tol: float = 0.0) -> bool:
        return bool(np.all(self.low <= other.low + tol) and np.all(other.upp <= self.upp + tol))


class ItemAggregate(NamedTuple):
    """A node's summary for one item: mean rating, mean rater average, rater count."""

    rating: float
    rater_mean: float
    raters: int


@dataclass(frozen=True)
class CodeNode:
    node_id: int
    tree: int
    depth: int
    mbr: Mbr
    parent: int | None
    children: tuple[int, ...]
    members: tuple[int, ...]  # enclosed point/user row indices (0-based)
    label: int | None = None  # +1/-1 for classification trees
    aggregates: dict[int, ItemAggregate] | None = None  # item id -> aggregate, CF coders

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Code:
    """All node ids at one depth, in deterministic (tree, construction) order."""

    depth: int
    node_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class CodeColumns:
    """One depth of a codebook as arrays; row r describes node ``ids[r]``.

    Node ids follow a depth-first build order, so the descendants at this
    depth of any node at a shallower depth s are one contiguous run of rows
    (the interval, or "nested set", encoding of a tree): rows
    ``offsets[s][r]`` up to ``offsets[s][r + 1]`` descend from row r of the
    view of depth s. Unlabeled (CF) nodes carry label 0.
    """

    depth: int
    ids: np.ndarray  # (L,) ascending node ids
    low: np.ndarray  # (L, d)
    upp: np.ndarray  # (L, d)
    labels: np.ndarray  # (L,)
    offsets: dict[int, np.ndarray]  # shallower depth s -> (L_s + 1,) first descendant rows

    @property
    def dimensionality(self) -> int:
        return self.low.shape[1]

    def rows(self, node_ids) -> np.ndarray:
        """Row positions of the given node ids, which must all lie at this depth."""
        wanted = np.asarray(node_ids, dtype=np.intp)
        pos = np.minimum(np.searchsorted(self.ids, wanted), len(self.ids) - 1)
        foreign = self.ids[pos] != wanted
        if foreign.any():
            raise ForeignStateError(
                f"{int(foreign.sum())} of {len(wanted)} node ids are not nodes at depth {self.depth}"
            )
        return pos


class StateRows(NamedTuple):
    """Ascending rows of a state's retained nodes in the view they index.

    A state carries them so that refining need not look its node ids up
    again; :func:`state_filter` trusts them only while ``view`` is the
    book's own view of the state's depth.
    """

    view: CodeColumns
    rows: np.ndarray


def _build_columns(book: "CodeBook") -> dict[int, CodeColumns]:
    """Columnar views of depths 0..usable; ancestor rows come from stepping a parent array.

    Raises :class:`ParseError` unless the book is in tree order (parent
    rows never decrease along a depth, so subtrees are row ranges), every
    node above the deepest view has a child, and every box lies inside its
    parent's box. Refined scans rely on all three.
    """
    parent = np.array([-1 if n.parent is None else n.parent for n in book.nodes], dtype=np.intp)
    depth_of = np.array([n.depth for n in book.nodes])
    columns = {}
    for depth in range(book.usable_depth() + 1):
        ids = np.flatnonzero(depth_of == depth)
        nodes = [book.nodes[i] for i in ids]
        low = np.array([n.mbr.low for n in nodes])
        upp = np.array([n.mbr.upp for n in nodes])
        offsets, up = {}, ids
        for shallower in range(depth - 1, -1, -1):
            up = parent[up]
            above = columns[shallower].ids
            rows = np.searchsorted(above, up)  # each node's ancestor row at that depth
            if shallower == depth - 1:
                parents = rows
            offsets[shallower] = np.searchsorted(rows, np.arange(len(above) + 1))
        if depth:
            _check_nesting(columns[depth - 1], ids, low, upp, parents, offsets[depth - 1])
        columns[depth] = CodeColumns(
            depth=depth,
            ids=ids,
            low=low,
            upp=upp,
            labels=np.array([0 if n.label is None else n.label for n in nodes], dtype=int),
            offsets=offsets,
        )
    return columns


def _check_nesting(above: CodeColumns, ids, low, upp, parents, offsets):
    """Raise :class:`ParseError` unless one depth nests in the depth above it."""
    bad = np.flatnonzero(np.diff(parents) < 0)
    if len(bad):
        raise ParseError(
            f"node {ids[bad[0] + 1]} breaks tree order: its parent {above.ids[parents[bad[0] + 1]]}"
            f" precedes {above.ids[parents[bad[0]]]}, the parent of node {ids[bad[0]]}"
        )
    bad = np.flatnonzero(np.diff(offsets) == 0)
    if len(bad):
        raise ParseError(f"node {above.ids[bad[0]]} has no child at depth {above.depth + 1}")
    outside = (low < above.low[parents]).any(axis=1) | (upp > above.upp[parents]).any(axis=1)
    bad = np.flatnonzero(outside)
    if len(bad):
        raise ParseError(
            f"the box of node {ids[bad[0]]} is not inside the box of its parent"
            f" {above.ids[parents[bad[0]]]}"
        )


@dataclass(frozen=True)
class CodeBook:
    kind: str
    nodes: tuple[CodeNode, ...]
    roots: tuple[int, ...]
    config: dict
    seed: int
    features: np.ndarray | None = None  # CF coders: the user feature matrix
    warnings: tuple[str, ...] = ()
    _codes: dict = field(default=None, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _deviations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        by_depth: dict[int, list[int]] = {}
        usable = self.usable_depth()
        for node in self.nodes:
            if 1 <= node.depth <= usable:
                by_depth.setdefault(node.depth, []).append(node.node_id)
        codes = {d: Code(d, tuple(ids)) for d, ids in by_depth.items()}
        object.__setattr__(self, "_codes", codes)

    def node(self, node_id: int) -> CodeNode:
        return self.nodes[node_id]

    def tree_depth(self, tree: int) -> int:
        return max(n.depth for n in self.nodes if n.tree == tree)

    def usable_depth(self) -> int:
        """Deepest depth present in every tree; deeper levels are unusable."""
        return min(self.tree_depth(t) for t in range(len(self.roots)))

    def depths(self) -> tuple[int, ...]:
        return tuple(sorted(self._codes))

    def code_at_depth(self, depth: int) -> Code:
        if depth == 0:
            raise DepthNotFoundError("depth 0 holds only the root nodes and is not a usable code")
        if depth not in self._codes:
            raise DepthNotFoundError(f"no code at depth {depth}; available depths {self.depths()}")
        return self._codes[depth]

    def columns(self, depth: int) -> CodeColumns:
        """The columnar view of one depth (0 holds the roots).

        Views of every depth are built together on first use and cached;
        they are derived data and never written by :func:`dump_codebook`.
        """
        if not self._columns:
            # concurrent first calls each build equal views; the update
            # is a single dict operation, so readers never see a partial set
            self._columns.update(_build_columns(self))
        if depth not in self._columns:
            raise DepthNotFoundError(f"no nodes at depth {depth} in every tree")
        return self._columns[depth]

    def deviations(self, depth: int) -> np.ndarray:
        """The item-major deviation table of one depth of a CF book.

        Entry (i, r) is ``rating - rater_mean`` of item i's aggregate in the
        node of row r of :meth:`columns`, NaN where that node has none. Rows
        run up to the largest item id the depth aggregates (row 0 is all
        NaN): 8 bytes per item and node. Built on first use of the depth
        and cached; derived data, never written by :func:`dump_codebook`.
        """
        table = self._deviations.get(depth)
        if table is None:
            ids = self.columns(depth).ids
            items, rows, devs = [], [], []
            for row, nid in enumerate(ids.tolist()):
                for item, agg in (self.nodes[nid].aggregates or {}).items():
                    items.append(item)
                    rows.append(row)
                    devs.append(agg.rating - agg.rater_mean)
            table = deviation_table(max(items, default=0) + 1, len(ids), items, rows, devs)
            self._deviations[depth] = table  # a single dict store, as in columns()
        return table

    def ancestor_at(self, node_id: int, depth: int) -> int:
        """The id of the node's ancestor at the given shallower depth."""
        node = self.nodes[node_id]
        while node.depth > depth:
            node = self.nodes[node.parent]
        if node.depth != depth:
            raise ValueError(f"node {node_id} has no ancestor at depth {depth}")
        return node.node_id


def state_filter(book: CodeBook, depth: int, state) -> np.ndarray:
    """Ascending rows of ``book.columns(depth)`` whose ancestor at
    ``state.depth`` is in ``state.retained``.

    ``state`` is a kNN or CF state. It must come from a shallower depth of
    this book: a retained id that is not a node of that depth raises
    :class:`ForeignStateError`. The rows are the concatenated subtree
    ranges of the retained nodes, so the cost is O(retained + candidates),
    not O(code length). The retained nodes' rows are taken from
    ``state.rows`` when they index this book's own view of the state's
    depth, and are looked up from the node ids otherwise.
    """
    if depth <= state.depth:
        raise ValueError(f"state depth {state.depth} must be above code depth {depth}")
    try:
        at_state = book.columns(state.depth)
    except DepthNotFoundError:
        raise ForeignStateError(f"state depth {state.depth} is not a depth of this book") from None
    if state.rows is not None and state.rows.view is at_state:
        retained = state.rows.rows
    else:
        ids = np.fromiter(state.retained, dtype=np.intp, count=len(state.retained))
        retained = at_state.rows(np.sort(ids))
    offsets = book.columns(depth).offsets[state.depth]
    stops = offsets[retained + 1]
    lengths = stops - offsets[retained]
    ends = np.cumsum(lengths)  # where each run ends among the candidates
    # candidate c of the run ending at e has row stop - (e - c)
    return np.repeat(stops - ends, lengths) + np.arange(ends[-1] if len(ends) else 0)


def select_code(book: CodeBook, length_budget: int) -> Code:
    """The code of greatest length not exceeding the budget."""
    if length_budget < 1:
        raise BudgetTooSmallError(f"length budget {length_budget} must be >= 1")
    best = None
    for depth in book.depths():
        code = book.code_at_depth(depth)
        if code.length <= length_budget and (best is None or code.length > best.length):
            best = code
    if best is None:
        shortest = min(book.code_at_depth(d).length for d in book.depths())
        raise BudgetTooSmallError(
            f"length budget {length_budget} below the shortest code length {shortest}"
        )
    return best


def total_mbr_volume(book: CodeBook, code: Code) -> float:
    """Sum of bounding-box volumes over the code's nodes."""
    return sum(book.node(i).mbr.volume() for i in code.node_ids)


# ---------------------------------------------------------------------------
# R-tree bulk loading


def _tile(X: np.ndarray, order: np.ndarray, ngroups: int, cap: int, dim: int = 0) -> list[np.ndarray]:
    """Sort-tile-recursive pass: split ``order`` into <= ngroups groups of <= cap rows."""
    n = len(order)
    if ngroups <= 1 or n <= cap:
        return [order]
    srt = order[np.argsort(X[order, dim], kind="stable")]
    if X.shape[1] - dim <= 1:
        return [srt[i : i + cap] for i in range(0, n, cap)]
    slabs = math.ceil(ngroups ** (1.0 / (X.shape[1] - dim)))
    pages_per_slab = math.ceil(ngroups / slabs)
    slab_rows = pages_per_slab * cap
    groups: list[np.ndarray] = []
    for s in range(0, n, slab_rows):
        groups.extend(_tile(X, srt[s : s + slab_rows], pages_per_slab, cap, dim + 1))
    return groups


def _tree_height(n: int, max_entries: int, leaf_capacity: int) -> int:
    n_leaves = math.ceil(n / leaf_capacity)
    if n_leaves <= 1:
        return 0
    return max(1, math.ceil(math.log(n_leaves) / math.log(max_entries) - 1e-12))


class _Builder:
    """Accumulates nodes for one codebook; node ids are assigned in construction order."""

    def __init__(self):
        self.nodes: list[dict] = []

    def add(self, tree, depth, mbr, parent, members, label=None) -> int:
        nid = len(self.nodes)
        self.nodes.append(
            dict(node_id=nid, tree=tree, depth=depth, mbr=mbr, parent=parent,
                 children=[], members=members, label=label, aggregates=None)
        )
        if parent is not None:
            self.nodes[parent]["children"].append(nid)
        return nid

    def build_rtree(self, X: np.ndarray, tree: int, max_entries: int, leaf_capacity: int, label=None) -> int:
        height = _tree_height(len(X), max_entries, leaf_capacity)

        def rec(order: np.ndarray, remaining: int, depth: int, parent):
            mbr = Mbr.of_points(X[order])
            nid = self.add(tree, depth, mbr, parent, tuple(int(i) for i in order), label)
            if remaining == 0:
                return nid
            child_cap = leaf_capacity * max_entries ** (remaining - 1)
            ngroups = math.ceil(len(order) / child_cap)
            groups = _tile(X, order, ngroups, child_cap) if ngroups > 1 else [order]
            for grp in groups:
                rec(grp, remaining - 1, depth + 1, nid)
            return nid

        return rec(np.arange(len(X)), height, 0, None)

    def finish(self, kind, roots, config, seed, features=None, warnings=()) -> CodeBook:
        nodes = tuple(
            CodeNode(
                node_id=nd["node_id"], tree=nd["tree"], depth=nd["depth"], mbr=nd["mbr"],
                parent=nd["parent"], children=tuple(nd["children"]), members=nd["members"],
                label=nd["label"], aggregates=nd["aggregates"],
            )
            for nd in self.nodes
        )
        return CodeBook(kind, nodes, tuple(roots), dict(config), seed,
                        features=features, warnings=tuple(warnings))


def build_dual_rtrees(
    train: LabeledDataset, max_entries: int = 4, seed: int = 0, leaf_capacity: int | None = None
) -> CodeBook:
    """One depth-balanced R-tree per class; codes unite both trees per depth.

    ``leaf_capacity`` defaults to ``max_entries``; set it to 1 to obtain a
    book whose deepest code holds one point per node (point-MBR leaves).
    When the two trees end up with different heights, only depths present
    in both trees are usable and the deeper levels are dropped with a
    warning recorded on the book.
    """
    if max_entries < 2:
        raise ValueError("max_entries must be >= 2")
    leaf_capacity = leaf_capacity or max_entries
    pos, neg = train.class_counts()
    if pos < 1 or neg < 1:
        raise ClassMissingError(f"both classes need points (positive={pos}, negative={neg})")
    warnings = []
    builder = _Builder()
    roots = []
    index_maps = []
    for tree, label in enumerate((POSITIVE, NEGATIVE)):
        rows = np.flatnonzero(train.labels == label)
        roots.append(builder.build_rtree(train.features[rows], tree, max_entries, leaf_capacity, label))
        index_maps.append(rows)
    # node members refer to per-class row order; remap to dataset row indices
    for nd in builder.nodes:
        rows = index_maps[nd["tree"]]
        nd["members"] = tuple(int(rows[i]) for i in nd["members"])
    config = {"max_entries": max_entries, "leaf_capacity": leaf_capacity, "task": "knn"}
    heights = [max(nd["depth"] for nd in builder.nodes if nd["tree"] == t) for t in (0, 1)]
    if heights[0] != heights[1]:
        warnings.append(
            f"tree heights differ ({heights[0]} vs {heights[1]}); depths beyond {min(heights)} dropped"
        )
    if min(heights) < 1:
        warnings.append("a class tree is a single leaf; no usable code exists")
    return builder.finish(KIND_DUAL, roots, config, seed, warnings=warnings)


def aggregate_ratings(matrix: RatingMatrix, users: Iterable[int]) -> dict[int, ItemAggregate]:
    """Per-item aggregated rating and mean-rater-average over a user group.

    For each item rated by at least one member, the aggregate rating is the
    mean of the members' ratings of it, and the rater mean is the mean of
    those raters' overall average ratings. Items nobody rated are absent.
    """
    sums: dict[int, list] = {}
    for u in users:
        row = matrix.user_ratings(u)
        if not row:
            continue
        ubar = sum(row.values()) / len(row)
        for i, r in row.items():
            s = sums.setdefault(i, [0.0, 0.0, 0])
            s[0] += r
            s[1] += ubar
            s[2] += 1
    return {
        i: ItemAggregate(s[0] / s[2], s[1] / s[2], s[2]) for i, s in sorted(sums.items())
    }


def _attach_aggregates(builder: _Builder, matrix: RatingMatrix):
    for nd in builder.nodes:
        nd["aggregates"] = aggregate_ratings(matrix, (m + 1 for m in nd["members"]))


def build_cf_codebook(
    matrix: RatingMatrix,
    features,
    max_entries: int = 4,
    seed: int = 0,
    leaf_capacity: int | None = None,
) -> CodeBook:
    """R-tree over user feature vectors; every node aggregates the raw ratings.

    ``features`` is the (m, d) user feature matrix (row u-1 for user u), or
    a :class:`~elastic_mine.cf.UserFeatureMatrix`. Aggregates are always
    computed from the original rating matrix, never from other aggregates.
    """
    values = getattr(features, "values", features)
    values = np.asarray(values, dtype=float)
    if len(values) != matrix.num_users:
        raise ValueError(f"feature rows {len(values)} != num_users {matrix.num_users}")
    if max_entries < 2:
        raise ValueError("max_entries must be >= 2")
    leaf_capacity = leaf_capacity or max_entries
    builder = _Builder()
    root = builder.build_rtree(values, 0, max_entries, leaf_capacity)
    _attach_aggregates(builder, matrix)
    config = {"max_entries": max_entries, "leaf_capacity": leaf_capacity, "task": "cf"}
    warnings = []
    if builder.nodes[root]["children"] == []:
        warnings.append("tree is a single leaf; no usable code exists")
    return builder.finish(KIND_CF, [root], config, seed, features=values, warnings=warnings)


# ---------------------------------------------------------------------------
# Divisive k-means coder


def kmeans(
    X: np.ndarray, k: int, iterations: int = 10, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic k-means (WCSS objective, fixed iteration count).

    Seeding is farthest-point: the first centre is the point farthest from
    the data centroid, each further centre maximises the distance to the
    centres chosen so far (ties by row index). Returns (labels, centroids).
    Empty clusters keep their previous centroid.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    k = min(k, n)
    centre = X.mean(axis=0)
    first = int(np.argmax(((X - centre) ** 2).sum(axis=1)))
    chosen = [first]
    d2 = ((X - X[first]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
    centroids = X[chosen].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(max(1, iterations)):
        dists = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1)
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = X[mask].mean(axis=0)
    return labels, centroids


def wcss(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Within-cluster sum of squared distances to the assigned centroids."""
    return float(((np.asarray(X) - centroids[labels]) ** 2).sum())


def build_kmeans_codebook(
    matrix: RatingMatrix,
    features,
    branching: int = 2,
    depth_limit: int = 4,
    iterations: int = 10,
    seed: int = 0,
) -> CodeBook:
    """Divisive k-means hierarchy over user vectors with per-cluster aggregates.

    The whole user set is the root (depth 0); each cluster is split with
    ``branching``-means on the user feature vectors until ``depth_limit``
    is reached or clusters become singletons. Clusters smaller than the
    branching factor are carried down unsplit (recorded as a warning);
    empty clusters are dropped.
    """
    if branching < 2:
        raise ValueError("branching must be >= 2")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    values = getattr(features, "values", features)
    values = np.asarray(values, dtype=float)
    if len(values) != matrix.num_users:
        raise ValueError(f"feature rows {len(values)} != num_users {matrix.num_users}")
    warnings: list[str] = []
    builder = _Builder()

    def rec(order: np.ndarray, depth: int, parent):
        nid = builder.add(0, depth, Mbr.of_points(values[order]), parent,
                          tuple(int(i) for i in order))
        if depth >= depth_limit:
            return nid
        if len(order) < branching:
            # unsplittable clusters carry down unchanged so every level
            # still partitions the full user set
            if len(order) > 1:
                warnings.append(f"cluster of {len(order)} users at depth {depth} not split")
            rec(order, depth + 1, nid)
            return nid
        labels, _ = kmeans(values[order], branching, iterations, seed)
        for c in range(branching):
            grp = order[labels == c]
            if len(grp):
                rec(grp, depth + 1, nid)
        return nid

    root = rec(np.arange(matrix.num_users), 0, None)
    _attach_aggregates(builder, matrix)
    config = {
        "branching": branching, "depth_limit": depth_limit,
        "iterations": iterations, "task": "cf",
    }
    return builder.finish(KIND_KMEANS, [root], config, seed, features=values, warnings=warnings)


# ---------------------------------------------------------------------------
# Explicit-hierarchy builders (worked examples and test fixtures)


def _is_leaf_spec(spec) -> bool:
    return all(isinstance(x, (int, np.integer)) for x in spec)


def _hierarchy_depth(spec) -> int:
    if _is_leaf_spec(spec):
        return 0
    depths = {_hierarchy_depth(child) for child in spec}
    if len(depths) != 1:
        raise ValueError("hierarchy is not depth-balanced")
    return depths.pop() + 1


def _build_hierarchy(builder: _Builder, spec, points: np.ndarray, tree: int, depth, parent, label):
    if _is_leaf_spec(spec):
        members = tuple(int(i) for i in spec)
        mbr = Mbr.of_points(points[list(members)])
        return builder.add(tree, depth, mbr, parent, members, label), members
    nid = builder.add(tree, depth, Mbr.of_points(points[:1]), parent, (), label)
    all_members: list[int] = []
    for child in spec:
        _, members = _build_hierarchy(builder, child, points, tree, depth + 1, nid, label)
        all_members.extend(members)
    builder.nodes[nid]["members"] = tuple(all_members)
    builder.nodes[nid]["mbr"] = Mbr.of_points(points[all_members])
    return nid, tuple(all_members)


def dual_book_from_hierarchy(train: LabeledDataset, positive_spec, negative_spec) -> CodeBook:
    """Build a dual-tree book from explicit nested row-index groupings.

    A node spec is either a list of dataset row indices (leaf) or a list of
    child specs. Both trees must be depth-balanced to the same height.
    """
    builder = _Builder()
    roots = []
    for tree, (spec, label) in enumerate(((positive_spec, POSITIVE), (negative_spec, NEGATIVE))):
        _hierarchy_depth(spec)
        nid, _ = _build_hierarchy(builder, spec, train.features, tree, 0, None, label)
        roots.append(nid)
    return builder.finish(KIND_DUAL, roots, {"task": "knn", "source": "explicit"}, 0)


def cf_book_from_hierarchy(matrix: RatingMatrix, spec, features=None) -> CodeBook:
    """Build a CF book from an explicit nested grouping of 1-based user ids."""

    def to_rows(s):
        if _is_leaf_spec(s):
            return [u - 1 for u in s]
        return [to_rows(c) for c in s]

    values = getattr(features, "values", features)
    if values is None:
        values = np.arange(matrix.num_users, dtype=float).reshape(-1, 1)
    values = np.asarray(values, dtype=float)
    builder = _Builder()
    rows_spec = to_rows(spec)
    _hierarchy_depth(rows_spec)
    root, _ = _build_hierarchy(builder, rows_spec, values, 0, 0, None, None)
    _attach_aggregates(builder, matrix)
    return builder.finish(
        KIND_CF, [root], {"task": "cf", "source": "explicit"}, 0, features=values
    )


# ---------------------------------------------------------------------------
# Persistence: canonical, versioned structured text


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def dump_codebook(book: CodeBook) -> str:
    lines = [f"{MAGIC} {FORMAT_VERSION}"]
    lines.append(f"kind {book.kind}")
    lines.append(f"seed {book.seed}")
    lines.append("config " + json.dumps(book.config, sort_keys=True, separators=(",", ":")))
    for w in book.warnings:
        lines.append("warning " + w)
    lines.append("roots " + " ".join(str(r) for r in book.roots))
    if book.features is None:
        lines.append("features 0 0")
    else:
        m, d = book.features.shape
        lines.append(f"features {m} {d}")
        for row in book.features:
            lines.append("F " + _fmt_floats(row))
    lines.append(f"nodes {len(book.nodes)}")
    for node in book.nodes:
        parent = "-" if node.parent is None else str(node.parent)
        label = "-" if node.label is None else str(node.label)
        lines.append(
            f"N {node.node_id} {node.tree} {node.depth} {parent} {label}"
            f" C {' '.join(str(c) for c in node.children)}"
            f" M {_fmt_floats(node.mbr.low)} | {_fmt_floats(node.mbr.upp)}"
            f" P {' '.join(str(p) for p in node.members)}"
        )
        if node.aggregates is not None:
            for item in sorted(node.aggregates):
                agg = node.aggregates[item]
                lines.append(f"A {node.node_id} {item} {agg.rating!r} {agg.rater_mean!r} {agg.raters}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_codebook(book: CodeBook, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_codebook(book))


def load_codebook(path_or_text) -> CodeBook:
    """Read a dump written by :func:`dump_codebook` (a path, or the text itself).

    A string is read as the text itself when it is empty, holds a newline
    or starts with the header's first token; any other string is a path.
    A bad header, a malformed line, an item id below 1, a missing ``end``
    line or a node count that differs from the ``nodes`` line raises
    :class:`ParseError` with the 1-based line number. The columnar views
    are built here, so a book out of tree order, with a childless node
    above its deepest usable depth or with a box outside its parent's box
    raises :class:`ParseError` too.
    """
    if isinstance(path_or_text, str) and (
        "\n" in path_or_text or path_or_text == "" or path_or_text.startswith(MAGIC)
    ):
        text = path_or_text
    else:
        with open(path_or_text, encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0].split() != [MAGIC, str(FORMAT_VERSION)]:
        raise ParseError(f"unsupported codebook header {lines[0] if lines else ''!r}", 1)
    kind = seed = config = None
    roots: tuple[int, ...] = ()
    warnings: list[str] = []
    features = None
    feat_rows: list[list[float]] = []
    nodes: dict[int, dict] = {}
    declared = declared_at = None
    ended = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if line == "end":
            ended = True
            continue
        tag, _, rest = line.partition(" ")
        try:
            if tag == "kind":
                kind = rest
            elif tag == "seed":
                seed = int(rest)
            elif tag == "config":
                config = json.loads(rest)
            elif tag == "warning":
                warnings.append(rest)
            elif tag == "roots":
                roots = tuple(int(t) for t in rest.split())
            elif tag == "features":
                m, d = (int(t) for t in rest.split())
                features = (m, d)
            elif tag == "F":
                feat_rows.append([float(t) for t in rest.split()])
            elif tag == "N":
                toks = rest.split()
                nid, tree, depth = int(toks[0]), int(toks[1]), int(toks[2])
                parent = None if toks[3] == "-" else int(toks[3])
                label = None if toks[4] == "-" else int(toks[4])
                ci = toks.index("C")
                mi = toks.index("M")
                pi = toks.index("P")
                bar = toks.index("|")
                children = tuple(int(t) for t in toks[ci + 1 : mi])
                low = [float(t) for t in toks[mi + 1 : bar]]
                upp = [float(t) for t in toks[bar + 1 : pi]]
                members = tuple(int(t) for t in toks[pi + 1 :])
                nodes[nid] = dict(
                    node_id=nid, tree=tree, depth=depth, parent=parent, label=label,
                    children=children, mbr=Mbr(np.array(low), np.array(upp)),
                    members=members, aggregates=None,
                )
            elif tag == "A":
                toks = rest.split()
                nid, item = int(toks[0]), int(toks[1])
                if item < 1:
                    raise ParseError(f"item id {item} must be >= 1", lineno)
                agg = ItemAggregate(float(toks[2]), float(toks[3]), int(toks[4]))
                if nodes[nid]["aggregates"] is None:
                    nodes[nid]["aggregates"] = {}
                nodes[nid]["aggregates"][item] = agg
            elif tag == "nodes":
                declared, declared_at = int(rest), lineno
            else:
                raise ParseError(f"unknown codebook line tag {tag!r}", lineno)
        except ParseError:
            raise
        except (ValueError, IndexError, KeyError) as exc:
            raise ParseError(f"malformed {tag!r} line ({exc})", lineno) from None
    if not ended:
        raise ParseError("no 'end' line: the codebook is truncated", len(lines) + 1)
    if declared != len(nodes):
        raise ParseError(f"'nodes {declared}' but {len(nodes)} node lines", declared_at)
    feat_array = None
    if features and features[0] > 0:
        feat_array = np.array(feat_rows)
    node_tuple = tuple(
        CodeNode(**nodes[nid]) for nid in sorted(nodes)
    )
    book = CodeBook(kind, node_tuple, roots, config, seed,
                    features=feat_array, warnings=tuple(warnings))
    book.columns(0)  # builds the views, which checks the tree's structure
    return book
