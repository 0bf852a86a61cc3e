"""Hierarchical codebook construction.

Three coders share one codebook representation:

* dual per-class R-trees over labeled points (classification),
* a single R-tree over SVD user vectors carrying aggregated ratings
  (collaborative filtering),
* a divisive k-means hierarchy as an alternate rating coder.

R-trees are bulk loaded top-down: each node's point set is tiled into its
children with a sort-tile-recursive pass, so sibling boxes have disjoint
interiors, every leaf sits at the same depth, and the per-depth sum of
bounding-box volumes can never grow with depth. A "code" is the set of all
nodes at one depth; depth 0 (the roots) is never usable as a code.

A book holds its nodes as columns (:class:`NodeArrays`): one array per
node attribute, with members and aggregates in compressed rows. Builders,
the dump writer and reader, and the per-depth views work on those arrays.
The scalar definitions they are tested against (a box of points, a
node's per-item rating aggregates) live with the tests, in
``tests/reference.py``.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .datasets import NEGATIVE, POSITIVE, LabeledDataset, RatingMatrix, _loadtxt, deviation_table
from .errors import (
    BookKindError, BudgetTooSmallError, ClassMissingError, CodebookConfigError, DepthNotFoundError,
    ForeignStateError, InvalidDatasetError, ParseError, _integer,
)

FORMAT_VERSION = 1
MAGIC = "elastic-mine-codebook"  # first token of a dump's header line

KIND_DUAL = "rtree-dual"
KIND_CF = "rtree-cf"
KIND_KMEANS = "kmeans-divisive"
EXACT_DEPTH = -1  # the depth of a result that scanned no code: an exact oracle's or a baseline's


def _ptr(counts) -> np.ndarray:
    """Row offsets of compressed rows with the given lengths: (len(counts) + 1,)."""
    ptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integer ranges ``starts[k]`` up to ``stops[k]``, concatenated."""
    lengths = stops - starts
    ends = lengths.cumsum()  # where each range ends in the output
    # output position c of the range ending at e holds stop - (e - c)
    return (stops - ends).repeat(lengths) + np.arange(ends[-1] if len(ends) else 0)


def _depth(depth) -> int:
    """``depth`` as an ``int``. A number that is not an integer, a bool
    included, raises :class:`DepthNotFoundError`; any other object keeps the
    ``TypeError`` of ``operator.index``, which names its type (a ``Code`` is
    not a depth)."""
    if isinstance(depth, (numbers.Number, np.bool_)):
        return _integer(DepthNotFoundError, "depth", depth)
    return operator.index(depth)


class Aggregates(NamedTuple):
    """Every node's item aggregates as compressed rows: node i's entries are
    ``ptr[i]`` up to ``ptr[i + 1]``, items ascending."""

    ptr: np.ndarray  # (N + 1,)
    item: np.ndarray  # item ids
    rating: np.ndarray  # mean rating of the item over the node's raters
    rater_mean: np.ndarray  # mean of those raters' average ratings
    raters: np.ndarray  # rater counts


@dataclass(frozen=True, eq=False)
class NodeArrays:
    """A codebook's nodes as columns; node i is entry i of every column.

    Node i encloses the point/user rows ``members[member_ptr[i]:member_ptr[i + 1]]``
    (0-based, in build order). Children are derived from ``parent``, in
    ascending id order.
    """

    tree: np.ndarray  # (N,)
    depth: np.ndarray  # (N,)
    parent: np.ndarray  # (N,) -1 for roots
    label: np.ndarray  # (N,) +1/-1 for classification trees, 0 for unlabeled nodes
    low: np.ndarray  # (N, d)
    upp: np.ndarray  # (N, d)
    member_ptr: np.ndarray  # (N + 1,)
    members: np.ndarray
    aggregates: Aggregates | None = None  # CF coders

    def __len__(self) -> int:
        return len(self.parent)

    @cached_property
    def child_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(ptr, ids): the children of node i are ``ids[ptr[i]:ptr[i + 1]]``."""
        ids = np.flatnonzero(self.parent >= 0)
        ids = ids[np.argsort(self.parent[ids], kind="stable")]
        return _ptr(np.bincount(self.parent[ids], minlength=len(self))), ids

    def children_of(self, i: int) -> np.ndarray:
        ptr, ids = self.child_csr
        return ids[ptr[i] : ptr[i + 1]]

    def members_of(self, i: int) -> np.ndarray:
        return self.members[self.member_ptr[i] : self.member_ptr[i + 1]]


@dataclass(frozen=True, eq=False)
class Code:
    """The code of one depth, as arrays; row r describes node ``ids[r]``.

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
    def length(self) -> int:
        return len(self.ids)

    @property
    def node_ids(self) -> tuple[int, ...]:
        """The ids as Python ints, in deterministic (tree, construction) order."""
        return tuple(self.ids.tolist())

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


@dataclass(frozen=True, eq=False)
class State:
    """The nodes a refined query keeps at one depth, as ascending rows of ``view``.

    Only the book that owns ``view`` accepts the state, so a state of another
    book, an equal copy included, is rejected; equal states index one view at
    equal rows. :func:`state_of` makes a state from node ids. Rows not
    ascending strictly within the view raise :class:`ForeignStateError`.
    """

    view: Code = field(repr=False)
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        object.__setattr__(self, "rows", rows)
        # count_nonzero, not .all(): about 1 us less per state
        if np.count_nonzero(rows[1:] <= rows[:-1]) or len(rows) and not (
                0 <= rows[0] and rows[-1] < self.view.length):
            raise ForeignStateError(f"state rows must ascend strictly within 0..{self.view.length - 1}")

    @classmethod
    def _built(cls, view: Code, rows: np.ndarray) -> "State":
        """A state of intp rows the library built ascending within ``view``, taken unchecked."""
        state = object.__new__(cls)
        state.__dict__.update(view=view, rows=rows)
        return state

    @property
    def depth(self) -> int:
        return self.view.depth

    @cached_property
    def retained(self) -> frozenset[int]:
        """The retained node ids, built on first read."""
        return frozenset(self.view.ids[self.rows].tolist())

    def __eq__(self, other):
        same_view = isinstance(other, State) and other.view is self.view
        return same_view and np.array_equal(other.rows, self.rows)


def _build_columns(book: "CodeBook") -> dict[int, Code]:
    """Columnar views of depths 0..usable; ancestor rows come from stepping a parent array.

    Raises :class:`ParseError` unless every box is finite with low <= upp,
    the book is in tree order (parent rows never decrease along a depth, so
    subtrees are row ranges), every node above the deepest view has a child,
    and every box lies inside its parent's; the kNN box kernel relies on all four.
    """
    nodes = book.arrays
    valid = np.isfinite(nodes.low) & np.isfinite(nodes.upp) & (nodes.low <= nodes.upp)
    bad = np.flatnonzero(~valid.all(axis=1))
    if len(bad):
        raise ParseError(f"the box of node {bad[0]} is not finite with low_i <= upp_i in every dimension")
    columns = {}
    for depth in range(book.usable_depth() + 1):
        ids = np.flatnonzero(nodes.depth == depth)
        low = nodes.low.take(ids, axis=0)
        upp = nodes.upp.take(ids, axis=0)
        offsets, up = {}, ids
        for shallower in range(depth - 1, -1, -1):
            up = nodes.parent[up]
            above = columns[shallower].ids
            rows = np.searchsorted(above, up)  # each node's ancestor row at that depth
            if shallower == depth - 1:
                parents = rows
            offsets[shallower] = np.searchsorted(rows, np.arange(len(above) + 1))
        if depth:
            _check_nesting(columns[depth - 1], ids, low, upp, parents, offsets[depth - 1])
        columns[depth] = Code(
            depth=depth,
            ids=ids,
            low=low,
            upp=upp,
            labels=nodes.label[ids],
            offsets=offsets,
        )
    return columns


def _check_nesting(above: Code, ids, low, upp, parents, offsets):
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
    """A codebook: its nodes as columns, plus how it was built.

    Books come from the builders or from :func:`load_codebook`, which
    checks a custom book written as version 1 text. A book made straight
    from :class:`NodeArrays` is taken as given: its views check boxes, tree
    order, children and box nesting on first use, but nothing checks its links.
    """

    kind: str
    arrays: NodeArrays
    roots: tuple[int, ...]
    config: dict
    seed: int
    features: np.ndarray | None = None  # CF coders: the user feature matrix
    warnings: tuple[str, ...] = ()
    _depths: tuple = field(default=(), init=False, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _deviations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(int(r) for r in self.roots))
        object.__setattr__(self, "_depths", tuple(range(1, self.usable_depth() + 1)))

    def tree_depth(self, tree: int) -> int:
        return int(self.arrays.depth[self.arrays.tree == tree].max())

    def usable_depth(self) -> int:
        """Deepest depth present in every tree; deeper levels are unusable."""
        return min(self.tree_depth(t) for t in range(len(self.roots)))

    def depths(self) -> tuple[int, ...]:
        return self._depths

    def code_at_depth(self, depth: int) -> Code:
        """The code of one usable depth: the cached view :meth:`columns` returns."""
        if depth == 0:
            raise DepthNotFoundError("depth 0 holds only the root nodes and is not a usable code")
        return self.columns(depth)

    def columns(self, depth: int) -> Code:
        """The columnar view of one depth, 0 (the roots) included.

        Views of every depth are built together on first use and cached;
        they are derived data and never written by :func:`dump_codebook`.
        A number that is not an integer (a bool or a float included) and a
        depth the book lacks raise :class:`DepthNotFoundError`.
        """
        if type(depth) is not int:  # one test on the cached path
            depth = _depth(depth)
        if depth not in self._columns:
            if depth != 0 and depth not in self._depths:
                raise DepthNotFoundError(f"no code at depth {depth}; available depths {self._depths}")
            # concurrent first calls each build the views; setdefault never
            # replaces a stored view, so all callers get the first one stored
            for d, view in _build_columns(self).items():
                self._columns.setdefault(d, view)
        return self._columns[depth]

    def deviations(self, depth: int) -> np.ndarray:
        """The item-major deviation table of one depth of a CF book.

        Entry (i, r) is ``rating - rater_mean`` of item i's aggregate in the
        node of row r of :meth:`columns`, NaN where that node has none. Rows
        run up to the largest item id the depth aggregates (row 0 is all
        NaN): 8 bytes per item and node. Built on first use of the depth
        and cached; derived data, never written by :func:`dump_codebook`. A book
        without aggregates (a kNN book) raises :class:`BookKindError`.
        """
        table = self._deviations.get(depth)
        if table is None:
            ids = self.columns(depth).ids
            agg = self.arrays.aggregates
            if agg is None:
                raise BookKindError(f"a {self.kind} book holds no rating aggregates to mine for CF")
            starts, stops = agg.ptr[ids], agg.ptr[ids + 1]
            at = _ranges(starts, stops)
            items = agg.item[at]
            rows = np.repeat(np.arange(len(ids)), stops - starts)
            table = deviation_table(int(items.max(initial=0)) + 1, len(ids), items, rows,
                                    agg.rating[at] - agg.rater_mean[at])
            self._deviations[depth] = table  # an equal table may replace it: no state holds one
        return table

def state_of(book: CodeBook, depth: int, node_ids) -> State:
    """The state of ``book`` that retains the given nodes of one depth; a depth
    or an id that is not one of this book raises :class:`ForeignStateError`."""
    try:
        view = book.columns(depth)
    except DepthNotFoundError:
        raise ForeignStateError(f"state depth {depth} is not a depth of this book") from None
    return State(view, view.rows(np.unique(np.fromiter(node_ids, dtype=np.intp))))


def _roots_state(book: CodeBook) -> State:
    """The depth-0 state that keeps every root: refining from it is starting over."""
    return State._built(book.columns(0), np.arange(len(book.roots), dtype=np.intp))


def state_filter(book: CodeBook, depth: int, state: State) -> np.ndarray:
    """Ascending rows of ``book.columns(depth)`` that descend from the state's rows.

    The state must index this book's own view of a shallower depth; any
    other, a state of an equal copy of the book included, raises
    :class:`ForeignStateError`. The rows are the concatenated subtree ranges
    of the state's rows: O(retained + candidates), not O(code length).
    """
    if book._columns.get(state.depth) is not state.view:
        raise ForeignStateError(f"the state indexes another book's view of depth {state.depth}")
    if depth <= state.depth:
        raise ForeignStateError(f"state depth {state.depth} must be above code depth {depth}")
    offsets = book.columns(depth).offsets[state.depth]
    return _ranges(offsets[state.rows], offsets[state.rows + 1])


def select_code(book: CodeBook, length_budget: int) -> Code:
    """The code of greatest length not exceeding the budget."""
    length_budget = _integer(BudgetTooSmallError, "length budget", length_budget, 1)
    codes = [book.code_at_depth(d) for d in book.depths()]
    if not codes:
        raise DepthNotFoundError("the book has no usable code: a tree is a single leaf")
    fitting = [c for c in codes if c.length <= length_budget]
    if not fitting:
        shortest = min(c.length for c in codes)
        raise BudgetTooSmallError(
            f"length budget {length_budget} below the shortest code length {shortest}"
        )
    return max(fitting, key=lambda c: c.length)  # the shallowest of equal lengths


def total_mbr_volume(book: CodeBook, depth: int) -> float:
    """Sum of bounding-box volumes over the nodes of one depth, added in node order.

    Reads the book's columns, so it works on a book whose views reject it;
    a depth without nodes raises :class:`DepthNotFoundError`.
    """
    ids = np.flatnonzero(book.arrays.depth == _depth(depth))
    if not len(ids):
        raise DepthNotFoundError(f"no node at depth {depth}")
    return sum(np.prod(book.arrays.upp[ids] - book.arrays.low[ids], axis=1).tolist())


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
        self.tree: list[int] = []
        self.depth: list[int] = []
        self.parent: list[int] = []
        self.label: list[int] = []
        self.members: list[np.ndarray] = []

    def add(self, tree, depth, parent, members, label=None) -> int:
        self.tree.append(tree)
        self.depth.append(depth)
        self.parent.append(-1 if parent is None else parent)
        self.label.append(label or 0)
        self.members.append(members)
        return len(self.tree) - 1

    def build_rtree(self, X: np.ndarray, tree: int, max_entries: int, leaf_capacity: int,
                    label=None, rows=None) -> int:
        """Bulk load one R-tree over the rows of X; returns the root's id.

        Members are X's row numbers, or ``rows[i]`` for row i of X when
        ``rows`` (the dataset rows X was taken from) is given.
        """
        height = _tree_height(len(X), max_entries, leaf_capacity)

        def rec(order: np.ndarray, remaining: int, depth: int, parent):
            nid = self.add(tree, depth, parent, order if rows is None else rows[order], label)
            if remaining == 0:
                return nid
            child_cap = leaf_capacity * max_entries ** (remaining - 1)
            ngroups = math.ceil(len(order) / child_cap)
            groups = _tile(X, order, ngroups, child_cap) if ngroups > 1 else [order]
            for grp in groups:
                rec(grp, remaining - 1, depth + 1, nid)
            return nid

        return rec(np.arange(len(X)), height, 0, None)

    def finish(self, kind, roots, config, seed, points, matrix=None, features=None,
               warnings=()) -> CodeBook:
        """The book. Each box bounds the node's members' rows of ``points``;
        given a rating matrix, each node aggregates its members' ratings."""
        member_ptr = _ptr([len(m) for m in self.members])
        if not np.diff(member_ptr).all():
            raise ValueError("every node needs at least one member")
        members = np.concatenate(self.members).astype(np.intp, copy=False)
        points = np.asarray(points, dtype=float)
        at = points.take(members, axis=0)
        low = np.minimum.reduceat(at, member_ptr[:-1], axis=0)
        upp = np.maximum.reduceat(at, member_ptr[:-1], axis=0)
        # min and max break a tie of 0.0 and -0.0 by position, which reduceat
        # and a min or max over one node's points visit in different orders
        for i in np.flatnonzero((low == 0).any(axis=1) | (upp == 0).any(axis=1)).tolist():
            node_points = points[self.members[i]]
            low[i], upp[i] = node_points.min(axis=0), node_points.max(axis=0)
        arrays = NodeArrays(
            tree=np.array(self.tree, dtype=np.intp),
            depth=np.array(self.depth, dtype=np.intp),
            parent=np.array(self.parent, dtype=np.intp),
            label=np.array(self.label, dtype=int),
            low=low,
            upp=upp,
            member_ptr=member_ptr,
            members=members,
            aggregates=None if matrix is None else _aggregate_nodes(matrix, member_ptr, members),
        )
        return CodeBook(kind, arrays, tuple(roots), dict(config), seed,
                        features=features, warnings=tuple(warnings))


def _check_rtree_sizes(max_entries: int, leaf_capacity: int | None, seed: int) -> tuple[int, int, int]:
    """The max entries, leaf capacity and seed to build with; raise unless
    both sizes can build a tree and the seed is an integer."""
    max_entries = _integer(CodebookConfigError, "max entries", max_entries, 2)
    if leaf_capacity is not None:
        leaf_capacity = _integer(CodebookConfigError, "leaf capacity", leaf_capacity, 1)
    return max_entries, leaf_capacity or max_entries, _integer(CodebookConfigError, "seed", seed)


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
    max_entries, leaf_capacity, seed = _check_rtree_sizes(max_entries, leaf_capacity, seed)
    pos, neg = train.class_counts()
    if pos < 1 or neg < 1:
        raise ClassMissingError(f"both classes need points (positive={pos}, negative={neg})")
    warnings = []
    builder = _Builder()
    roots = []
    heights = []
    for tree, label in enumerate((POSITIVE, NEGATIVE)):
        rows = np.flatnonzero(train.labels == label)
        roots.append(builder.build_rtree(train.features[rows], tree, max_entries, leaf_capacity,
                                         label, rows))
        heights.append(_tree_height(len(rows), max_entries, leaf_capacity))
    config = {"max_entries": max_entries, "leaf_capacity": leaf_capacity, "task": "knn"}
    if heights[0] != heights[1]:
        warnings.append(
            f"tree heights differ ({heights[0]} vs {heights[1]}); depths beyond {min(heights)} dropped"
        )
    if min(heights) < 1:
        warnings.append("a class tree is a single leaf; no usable code exists")
    return builder.finish(KIND_DUAL, roots, config, seed, train.features, warnings=warnings)


def _aggregate_nodes(matrix: RatingMatrix, member_ptr: np.ndarray, members: np.ndarray) -> Aggregates:
    """Every node's item aggregates at once; members are 0-based user rows.

    For each item a node's members rated, the aggregate rating is the mean
    of their ratings of it, and the rater mean the mean of those raters'
    average ratings. The sums run over (node, member) pairs in member order
    through ``bincount``, which adds one weight at a time, so every value
    equals a member-by-member loop's bit for bit.
    """
    rated = [matrix.user_ratings(u) for u in range(1, matrix.num_users + 1)]
    user_ptr = _ptr([len(row) for row in rated])
    items = np.fromiter((i for row in rated for i in row), dtype=np.intp, count=user_ptr[-1])
    ratings = np.fromiter((r for row in rated for r in row.values()), dtype=float, count=user_ptr[-1])
    means = np.array([sum(row.values()) / len(row) if row else 0.0 for row in rated])
    counts = user_ptr[members + 1] - user_ptr[members]
    entries = _ranges(user_ptr[members], user_ptr[members + 1])  # (node, member, item) order
    owner = np.repeat(np.repeat(np.arange(len(member_ptr) - 1), np.diff(member_ptr)), counts)
    width = matrix.num_items + 1
    keys, slot = np.unique(owner * width + items[entries], return_inverse=True)
    raters = np.bincount(slot)
    return Aggregates(
        ptr=np.searchsorted(keys // width, np.arange(len(member_ptr))),
        item=keys % width,
        rating=np.bincount(slot, weights=ratings[entries]) / raters,
        rater_mean=np.bincount(slot, weights=np.repeat(means[members], counts)) / raters,
        raters=raters,
    )


def _user_features(features, num_users: int) -> np.ndarray:
    """``features`` as floats; raises :class:`InvalidDatasetError` unless they
    are a finite 2-D array with one row per user."""
    values = np.asarray(features, dtype=float)
    if values.ndim != 2:
        raise InvalidDatasetError(f"user features must be a 2-D array, not of shape {values.shape}")
    if len(values) != num_users:
        raise InvalidDatasetError(f"feature rows {len(values)} != num_users {num_users}")
    if not np.isfinite(values).all():
        raise InvalidDatasetError("a user feature is NaN or infinite")
    return values


def build_cf_codebook(
    matrix: RatingMatrix,
    features,
    max_entries: int = 4,
    seed: int = 0,
    leaf_capacity: int | None = None,
) -> CodeBook:
    """R-tree over user feature vectors; every node aggregates the raw ratings.

    ``features`` is the (m, d) user feature matrix (row u-1 for user u);
    any other shape, or a NaN or infinite feature, raises
    :class:`InvalidDatasetError`, as in every builder and baseline that
    reads user features. Aggregates are always computed from the original
    rating matrix, never from other aggregates.
    """
    values = _user_features(features, matrix.num_users)
    max_entries, leaf_capacity, seed = _check_rtree_sizes(max_entries, leaf_capacity, seed)
    builder = _Builder()
    root = builder.build_rtree(values, 0, max_entries, leaf_capacity)
    config = {"max_entries": max_entries, "leaf_capacity": leaf_capacity, "task": "cf"}
    warnings = []
    if len(builder.tree) == 1:
        warnings.append("tree is a single leaf; no usable code exists")
    return builder.finish(KIND_CF, [root], config, seed, values, matrix, features=values,
                          warnings=warnings)


# ---------------------------------------------------------------------------
# Point distances


def _point_sq(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances along the last axis of ``points - q``
    (broadcast), each the bits a lone point gets from ``((p - q) ** 2).sum()``.

    numpy adds fewer than 8 terms first to last, so a short row is summed
    column by column over strided views: no (n, d) temporary, and several
    times faster than a row sum at d = 3. From 8 terms numpy adds pairwise,
    which only a C-ordered row sum reproduces; it is also faster there. A
    row of no columns (d = 0) takes the row sum too, which gives it 0.
    """
    d = points.shape[-1]
    if not 0 < d < 8:
        diff = np.subtract(points, q, order="C")
        diff *= diff
        return diff.sum(axis=-1)
    d2 = points[..., 0] - q[..., 0]
    d2 *= d2
    for j in range(1, d):
        c = points[..., j] - q[..., j]
        c *= c
        d2 += c
    return d2


# ---------------------------------------------------------------------------
# Divisive k-means coder


def kmeans(X: np.ndarray, k: int, iterations: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic k-means (WCSS objective, fixed iteration count).

    Seeding is farthest-point, so there is no random seed: the first centre is the point farthest from
    the data centroid, each further centre maximises the distance to the
    centres chosen so far (ties by row index). Returns (labels, centroids).
    Empty clusters keep their previous centroid. ``X`` that is not a finite
    2-D array of at least one point raises :class:`InvalidDatasetError`.
    """
    k = _integer(CodebookConfigError, "k", k, 1)
    iterations = _integer(CodebookConfigError, "iterations", iterations, 1)
    X = _user_features(X, len(X) if np.ndim(X) else 0)  # a 0-d X has no len
    n = len(X)
    if not n:
        raise InvalidDatasetError("k-means needs at least one point")
    k = min(k, n)
    centre = X.mean(axis=0)
    first = int(np.argmax(_point_sq(X, centre)))
    chosen = [first]
    d2 = _point_sq(X, X[first])
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, _point_sq(X, X[nxt]))
    centroids = X[chosen].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(iterations):
        labels = np.argmin(_point_sq(X[:, None, :], centroids[None, :, :]), axis=1)
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = X[mask].mean(axis=0)
    return labels, centroids


def _check_kmeans_sizes(branching: int, iterations: int, depth_limit: int, seed: int) -> tuple[int, ...]:
    """The four settings as ints; raise unless the sizes can build a k-means
    hierarchy with a usable code and the seed is an integer."""
    return (_integer(CodebookConfigError, "branching", branching, 2),
            _integer(CodebookConfigError, "iterations", iterations, 1),
            _integer(CodebookConfigError, "depth limit", depth_limit, 1),
            _integer(CodebookConfigError, "seed", seed))


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
    branching, iterations, depth_limit, seed = _check_kmeans_sizes(branching, iterations, depth_limit, seed)
    values = _user_features(features, matrix.num_users)
    warnings: list[str] = []
    builder = _Builder()

    def rec(order: np.ndarray, depth: int, parent):
        nid = builder.add(0, depth, parent, order)
        if depth >= depth_limit:
            return nid
        if len(order) < branching:
            # unsplittable clusters carry down unchanged so every level
            # still partitions the full user set
            if len(order) > 1:
                warnings.append(f"cluster of {len(order)} users at depth {depth} not split")
            rec(order, depth + 1, nid)
            return nid
        labels, _ = kmeans(values[order], branching, iterations)
        for c in range(branching):
            grp = order[labels == c]
            if len(grp):
                rec(grp, depth + 1, nid)
        return nid

    root = rec(np.arange(matrix.num_users), 0, None)
    config = {
        "branching": branching, "depth_limit": depth_limit,
        "iterations": iterations, "task": "cf",
    }
    return builder.finish(KIND_KMEANS, [root], config, seed, values, matrix, features=values,
                          warnings=warnings)


# ---------------------------------------------------------------------------
# Persistence: canonical, versioned structured text


def _texts(values: np.ndarray, fmt) -> list[str]:
    """``fmt`` of every value of an 8-byte array, flattened; formatted once
    per distinct value, told apart by bits so that 0.0 and -0.0 differ."""
    flat = np.ascontiguousarray(values).ravel()
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    text = list(map(fmt, bits.view(flat.dtype).tolist()))
    return [text[k] for k in inverse.tolist()]


def _joined_rows(ptr: np.ndarray, text: list[str]) -> list[str]:
    """Each compressed row's texts as one space-separated string."""
    bounds = ptr.tolist()
    return [" ".join(text[a:b]) for a, b in zip(bounds, bounds[1:])]


def dump_codebook(book: CodeBook) -> str:
    nodes = book.arrays
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
        lines.extend("F " + " ".join(map(repr, row)) for row in book.features.tolist())
    lines.append(f"nodes {len(nodes)}")
    parents = ["-" if p < 0 else str(p) for p in nodes.parent.tolist()]
    labels = ["-" if x == 0 else str(x) for x in nodes.label.tolist()]
    box_ptr = np.arange(len(nodes) + 1) * nodes.low.shape[1]
    low = _joined_rows(box_ptr, _texts(nodes.low, repr))
    upp = _joined_rows(box_ptr, _texts(nodes.upp, repr))
    child_ptr, child_ids = nodes.child_csr
    children = _joined_rows(child_ptr, list(map(str, child_ids.tolist())))
    members = _joined_rows(nodes.member_ptr, list(map(str, nodes.members.tolist())))
    agg = nodes.aggregates
    if agg is None:
        agg_lines, agg_ptr = [], [0] * (len(nodes) + 1)
    else:
        owner = np.repeat(np.arange(len(nodes)), np.diff(agg.ptr))
        agg_lines = list(map(" ".join, zip(
            repeat("A"), _texts(owner, str), _texts(agg.item, str), _texts(agg.rating, repr),
            _texts(agg.rater_mean, repr), _texts(agg.raters, str),
        )))
        agg_ptr = agg.ptr.tolist()
    for i, (tree, depth) in enumerate(zip(nodes.tree.tolist(), nodes.depth.tolist())):
        lines.append(
            f"N {i} {tree} {depth} {parents[i]} {labels[i]} C {children[i]}"
            f" M {low[i]} | {upp[i]} P {members[i]}"
        )
        lines.extend(agg_lines[agg_ptr[i] : agg_ptr[i + 1]])
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_codebook(book: CodeBook, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_codebook(book))


_HEADER_TAGS = ("kind", "seed", "config", "roots", "features", "nodes")
_AGGREGATE_LINE = np.dtype([("tag", "U1"), ("owner", np.intp), ("item", np.intp),
                            ("rating", float), ("rater_mean", float), ("raters", np.intp)])


def _require(ok, at, message):
    """Raise :class:`ParseError` at line ``at[r]`` for the first row r where
    ``ok`` is False; ``message(r)`` says what is wrong."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if len(bad):
        raise ParseError(message(bad[0]), at[bad[0]])


def _numbers(tokens: list[str], convert, dtype, tag: str, line_of) -> np.ndarray:
    """The tokens converted in one pass; ``line_of(k)`` is the line of token k."""
    try:
        return np.fromiter(map(convert, tokens), dtype=dtype, count=len(tokens))
    except (ValueError, OverflowError):
        for k, token in enumerate(tokens):
            try:
                np.array(convert(token), dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"malformed {tag!r} line ({exc})", line_of(k)) from None
        raise


def _table(rows: list[str], at, dtype, tag: str, want: str) -> np.ndarray:
    """Rows of whitespace-separated values read by numpy's C reader, one
    record of ``dtype`` per row. The reader accepts a subset of what
    ``int`` and ``float`` accept, with the same values; the first row it
    rejects raises :class:`ParseError` at its line, found by bisection."""
    table = _loadtxt(rows, dtype) if rows else np.zeros(0, dtype)
    if table is not None and len(table) == len(rows):
        return table
    _require([bool(row.strip()) for row in rows], at, lambda r: f"empty {tag!r} line")
    lo, hi = 0, len(rows)  # the first rejected row lies in rows[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _loadtxt(rows[lo:mid], dtype) is None:
            hi = mid
        else:
            lo = mid
    raise ParseError(f"malformed {tag!r} line (want {want})", at[lo])


def _parent_id(token: str) -> int:
    if token == "-":
        return -1
    if int(token) < 0:
        raise ValueError(f"parent id {token} is negative")
    return int(token)


def _label(token: str) -> int:
    if token not in ("-", "1", "-1"):
        raise ValueError(f"label {token!r} is not 1, -1 or -")
    return 0 if token == "-" else int(token)


def _shape(rest: str) -> tuple[int, int]:
    m, d = (int(t) for t in rest.split())
    if m < 0 or d < 0:
        raise ValueError("negative size")
    return m, d


def _in_rows(ptr: np.ndarray, at):
    """The line of entry k of compressed rows whose row r sits on line ``at[r]``."""
    return lambda k: at[int(np.searchsorted(ptr, k, side="right")) - 1]


def _read_features(bodies, at, m, d, lineno) -> np.ndarray | None:
    if len(bodies) != m:
        raise ParseError(f"'features {m} {d}' but {len(bodies)} 'F' lines", lineno)
    if not m:
        return None
    values = _table(bodies, at, [("f", float, (d,))], "F", f"{d} values")["f"]
    _require(np.isfinite(values).all(axis=1), at, lambda r: "non-finite value in an 'F' line")
    return np.ascontiguousarray(values)


def _member_rows(rows: list[str], at) -> tuple[np.ndarray, np.ndarray]:
    """The member lists of 'N' lines as compressed rows."""
    joined = " ".join(rows)
    if joined and "  " not in joined and joined[0] != " " and joined[-1] != " ":
        # single spaces only: each row's spaces count its members
        counts = np.fromiter(map(str.count, rows, repeat(" ")), np.intp, len(rows)) + 1
        values = _loadtxt([joined], np.intp)
        if values is not None and len(values) == counts.sum():
            return _ptr(counts), values
    split = [row.split() for row in rows]
    ptr = _ptr(list(map(len, split)))
    return ptr, _numbers([t for row in split for t in row], int, np.intp, "N", _in_rows(ptr, at))


def _boxes(rows: list[str], at) -> tuple[np.ndarray, np.ndarray]:
    """The 'low | upp' boxes of 'N' lines as two (N, d) arrays."""
    d = len(rows[0].split()) // 2 if rows else 1
    want = f"{d} low values, '|' and {d} upp values after 'M'"
    if not d:
        raise ParseError(f"malformed 'N' line (want {want})", at[0])
    table = _table(rows, at, [("low", float, (d,)), ("bar", "U2"), ("upp", float, (d,))], "N", want)
    _require(table["bar"] == "|", at, lambda r: f"malformed 'N' line (want {want})")
    low, upp = np.ascontiguousarray(table["low"]), np.ascontiguousarray(table["upp"])
    _require(np.isfinite(low).all(axis=1) & np.isfinite(upp).all(axis=1), at,
             lambda r: "non-finite box coordinate in an 'N' line")
    _require((low <= upp).all(axis=1), at,
             lambda r: "malformed 'N' line (MBR requires low_i <= upp_i in every dimension)")
    return low, upp


def _read_nodes(bodies, at, agg_lines, agg_at):
    """The columns of the 'N' lines, which run in id order, and 'A' lines, and the child lists as written."""
    heads, children, child_counts, box_rows, member_rows = [], [], [], [], []
    for body, lineno in zip(bodies, at):
        head, marked, rest = body.partition(" M ")
        box_row, marked_p, member_row = rest.partition(" P ")
        toks = head.split()
        if not (marked and marked_p and len(toks) > 5 and toks[5] == "C"):
            raise ParseError("malformed 'N' line (want 5 fields, then C, M and P lists)", lineno)
        heads += toks[:5]
        children += toks[6:]
        child_counts.append(len(toks) - 6)
        box_rows.append(box_row)
        member_rows.append(member_row)
    n, line = len(bodies), at.__getitem__
    nid = _numbers(heads[0::5], int, np.intp, "N", line)
    tree = _numbers(heads[1::5], int, np.intp, "N", line)
    depth = _numbers(heads[2::5], int, np.intp, "N", line)
    parent = _numbers(heads[3::5], _parent_id, np.intp, "N", line)
    label = _numbers(heads[4::5], _label, int, "N", line)
    child_ptr = _ptr(child_counts)
    child_ids = _numbers(children, int, np.intp, "N", _in_rows(child_ptr, at))
    member_ptr, member_ids = _member_rows(member_rows, at)
    negative = np.flatnonzero(member_ids < 0)
    if len(negative):
        raise ParseError("negative member in an 'N' line", _in_rows(member_ptr, at)(negative[0]))
    low, upp = _boxes(box_rows, at)
    _require(nid == np.arange(n), at,
             lambda r: f"node {nid[r]} out of place: 'N' lines run 0..{n - 1} in id order")
    arrays = NodeArrays(tree=tree, depth=depth, parent=parent, label=label, low=low, upp=upp,
                        member_ptr=member_ptr, members=member_ids,
                        aggregates=_read_aggregates(agg_lines, agg_at, n) if agg_lines else None)
    return arrays, (child_ptr, child_ids)


def _read_aggregates(lines, at, n) -> Aggregates:
    """The aggregates of whole 'A' lines, which run in strictly ascending (node, item) order."""
    table = _table(lines, at, _AGGREGATE_LINE, "A",
                   "node id, item id, rating, rater mean and rater count")
    owner, item, rating, rater_mean, raters = (table[f] for f in _AGGREGATE_LINE.names[1:])
    _require(np.isfinite(rating) & np.isfinite(rater_mean), at,
             lambda r: "non-finite value in an 'A' line")
    _require((owner >= 0) & (owner < n), at,
             lambda r: f"aggregate of node {owner[r]}, which has no 'N' line")
    _require(item >= 1, at, lambda r: f"item id {item[r]} must be >= 1")
    step = np.diff(owner)
    _require(np.r_[True, (step > 0) | (step == 0) & (np.diff(item) > 0)], at,
             lambda r: f"aggregate of item {item[r]} in node {owner[r]} repeats or breaks (node, item) order")
    return Aggregates(np.searchsorted(owner, np.arange(n + 1)), item, rating, rater_mean, raters)


def _check_links(nodes: NodeArrays, roots, at, roots_at):
    """Raise :class:`ParseError` unless every tree has its root and every
    other node a parent one depth above it in its tree."""
    n, tree, depth, parent = len(nodes), nodes.tree, nodes.depth, nodes.parent
    if not roots:
        raise ParseError("the 'roots' line names no node", roots_at)
    for t, r in enumerate(roots):
        if not (0 <= r < n and depth[r] == 0 and tree[r] == t):
            raise ParseError(f"root {r} of tree {t} is not a depth-0 node of that tree", roots_at)
    _require((tree >= 0) & (tree < len(roots)), at,
             lambda i: f"node {i} is in tree {tree[i]} of {len(roots)}")
    _require(depth >= 0, at, lambda i: f"node {i} has negative depth {depth[i]}")
    _require((depth > 0) | np.isin(np.arange(n), roots), at,
             lambda i: f"node {i} at depth 0 is no root")
    _require((depth == 0) | (parent >= 0), at,
             lambda i: f"node {i} at depth {depth[i]} has no parent")
    _require((depth > 0) | (parent < 0), at, lambda i: f"root {i} has parent {parent[i]}")
    _require(parent < n, at, lambda i: f"node {i} names parent {parent[i]}, which has no 'N' line")
    up = np.maximum(parent, 0)
    _require((parent < 0) | ((depth[up] == depth - 1) & (tree[up] == tree)), at,
             lambda i: f"node {i} at depth {depth[i]} of tree {tree[i]} has parent {parent[i]}"
                       f" at depth {depth[parent[i]]} of tree {tree[parent[i]]}")


def _check_children(nodes: NodeArrays, listed, at):
    """Raise :class:`ParseError` unless each node lists, in order, the nodes naming it as parent."""
    (ptr, ids), (listed_ptr, listed_ids) = nodes.child_csr, listed
    wrong = np.diff(ptr) != np.diff(listed_ptr)
    if not wrong.any():
        wrong[np.searchsorted(ptr, np.flatnonzero(ids != listed_ids), side="right") - 1] = True
    _require(~wrong, at, lambda i: f"node {i} lists children"
             f" {listed_ids[listed_ptr[i]:listed_ptr[i + 1]].tolist()}"
             f" but nodes {nodes.children_of(i).tolist()} name it as parent")


def _check_members(nodes: NodeArrays, usable: int, at):
    """Raise :class:`ParseError` unless the member lists of the nodes of each
    depth up to ``usable`` hold every root member exactly once."""
    depth, members = np.repeat(nodes.depth, np.diff(nodes.member_ptr)), nodes.members
    # count members by value, or by rank when the values are sparse
    rank = np.unique(members, return_inverse=True)[1] if members.max(initial=-1) >= len(members) else members
    size = int(rank.max(initial=-1)) + 1
    counts = np.bincount(depth * size + rank, minlength=(usable + 1) * size)
    counts = counts[: (usable + 1) * size].reshape(usable + 1, size)  # depths 0..usable
    bad = np.argwhere((counts != counts[0]) | (counts > 1))
    if len(bad):
        d, r = bad[0]
        held = np.flatnonzero((rank == r) & (depth == (d if counts[d, r] else 0)))[-1]
        raise ParseError(f"member {members[held]} is held {counts[d, r]} times at depth {d} and {counts[0, r]}"
                         f" at depth 0, not once at each", _in_rows(nodes.member_ptr, at)(held))


def load_codebook(path_or_text) -> CodeBook:
    """Read a dump written by :func:`dump_codebook` (a path, or the text itself).

    A string is read as the text itself when it is empty, holds a newline or
    starts with the header's first token; any other string is a path.
    :class:`ParseError`, with the 1-based line number, is raised for: a bad
    header; a missing ``end``, ``kind``, ``seed``, ``config``, ``roots``,
    ``features`` or ``nodes`` line; a malformed line; a NaN or infinite number;
    an item id below 1; an ``F`` line count or width that differs from the
    ``features`` line; a node count that differs from the ``nodes`` line; ``N``
    lines not in id order 0..N-1; ``A`` lines not in strictly ascending (node,
    item) order; a root that is not a depth-0 node of its tree; a parent
    outside the depth above or another tree; a child list that differs from the
    children named by parent links; and members that do not partition each
    depth up to the usable one. The columnar views are built here, so a book
    out of tree order, with a childless node above its deepest usable depth or
    with a box outside its parent's box raises :class:`ParseError` too.
    """
    if isinstance(path_or_text, str) and (
        "\n" in path_or_text or path_or_text == "" or path_or_text.startswith(MAGIC)
    ):
        lines = path_or_text.splitlines()
    else:
        with open(path_or_text, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0].split() != [MAGIC, str(FORMAT_VERSION)]:
        raise ParseError(f"unsupported codebook header {lines[0] if lines else ''!r}", 1)
    header: dict[str, tuple[int, str]] = {}
    warnings: list[str] = []
    # 'N' and 'F' line bodies follow their tag; 'A' lines are kept whole
    body: dict[str, tuple[list[str], list[int]]] = {"N": ([], []), "A": ([], []), "F": ([], [])}
    ended_at = None
    for lineno, line in enumerate(lines[1:], start=2):
        tag, _, rest = line.partition(" ")
        rows = body.get(tag)
        if rows is not None:
            rows[0].append(line if tag == "A" else rest)
            rows[1].append(lineno)
        elif tag in _HEADER_TAGS:
            header[tag] = (lineno, rest)
        elif tag == "warning":
            warnings.append(rest)
        elif line == "end":
            ended_at = lineno
        elif line:
            raise ParseError(f"unknown codebook line tag {tag!r}", lineno)
    if ended_at is None:
        raise ParseError("no 'end' line: the codebook is truncated", len(lines) + 1)
    del lines
    missing = [tag for tag in _HEADER_TAGS if tag not in header]
    if missing:
        raise ParseError(f"no {missing[0]!r} line", ended_at)

    def read(tag, convert):
        lineno, rest = header[tag]
        try:
            return convert(rest)
        except ValueError as exc:
            raise ParseError(f"malformed {tag!r} line ({exc})", lineno) from None

    seed = read("seed", int)
    config = read("config", json.loads)
    roots = read("roots", lambda rest: tuple(int(t) for t in rest.split()))
    m, d = read("features", _shape)
    declared = read("nodes", int)
    if declared != len(body["N"][0]):
        raise ParseError(f"'nodes {declared}' but {len(body['N'][0])} node lines", header["nodes"][0])
    features = _read_features(*body["F"], m, d, header["features"][0])
    (nodes, listed), at = _read_nodes(*body["N"], *body["A"]), body["N"][1]
    _check_links(nodes, roots, at, header["roots"][0])
    book = CodeBook(header["kind"][1], nodes, roots, config, seed,
                    features=features, warnings=tuple(warnings))
    book.columns(0)  # builds the views, which checks the tree's structure
    _check_children(nodes, listed, at)
    _check_members(nodes, book.usable_depth(), at)
    return book
