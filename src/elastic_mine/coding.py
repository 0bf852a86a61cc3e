"""Hierarchical codebook construction.

Three coders share one codebook representation:

* dual per-class R-trees over labeled points (classification),
* a single R-tree over SVD user vectors carrying aggregated ratings
  (collaborative filtering),
* a divisive k-means hierarchy as an alternate rating coder.

R-trees are bulk loaded top-down: each node's point set is tiled into its
children with a sort-tile-recursive pass, run for all nodes of a depth at
once, so sibling boxes have disjoint interiors, every leaf sits at the
same depth, and the per-depth sum of bounding-box volumes can never grow
with depth. A "code" is the set of all
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

from .datasets import NEGATIVE, POSITIVE, LabeledDataset, RatingMatrix, _distinct, _loadtxt, _texts, deviation_table
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
    bounds: np.ndarray  # (2, d, N): lows, then upps; bounds[:, :, i] is the box of node i
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
    depth of any node at a shallower depth are one contiguous run of rows
    (the interval, or "nested set", encoding of a tree): rows
    ``offsets[r]`` up to ``offsets[r + 1]`` are the children of row r of
    the view of the depth above, and :func:`state_filter` composes the
    offsets of consecutive depths for a depth further up. The view of
    depth 0 has no depth above and no offsets. Unlabeled (CF) nodes carry
    label 0.
    """

    depth: int
    ids: np.ndarray  # (L,) ascending node ids
    bounds: np.ndarray  # (2, d, L): lows, then upps; bounds[:, :, r] is the box of row r
    labels: np.ndarray  # (L,)
    offsets: np.ndarray | None  # (L_above + 1,) first child rows of the depth above; None at depth 0

    @property
    def length(self) -> int:
        return len(self.ids)

    @property
    def node_ids(self) -> tuple[int, ...]:
        """The ids as Python ints, in deterministic (tree, construction) order."""
        return tuple(self.ids.tolist())

    @property
    def dimensionality(self) -> int:
        return self.bounds.shape[1]

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


def _require(ok, at, message):
    """Raise :class:`ParseError` for the first row r where ``ok`` is False: at line
    ``at[r]``, or naming node r when ``at`` is None; ``message(r)`` says what is wrong."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if len(bad):
        r = int(bad[0])
        raise ParseError(message(r), node=r) if at is None else ParseError(message(r), at[r])


def _check_links(kind: str, nodes: NodeArrays, roots: tuple[int, ...]):
    """Raise :class:`ParseError` unless every tree has its root and every other node a
    parent one depth above it in its tree, and every node carries its tree's label:
    a dual book's two trees are labelled +1 and -1, any other book's one tree 0."""
    n, tree, depth, parent, label = len(nodes), nodes.tree, nodes.depth, nodes.parent, nodes.label
    labels = np.array((POSITIVE, NEGATIVE) if kind == KIND_DUAL else (0,))
    if len(roots) != len(labels):
        raise ParseError(f"a {kind} book has {('one root', 'two roots')[len(labels) - 1]}, not {len(roots)}")
    for t, r in enumerate(roots):
        if not (0 <= r < n and depth[r] == 0 and tree[r] == t):
            raise ParseError(f"root {r} of tree {t} is not a depth-0 node of that tree")
    _require((tree >= 0) & (tree < len(roots)), None, lambda i: f"node {i} is in tree {tree[i]} of {len(roots)}")
    _require(depth >= 0, None, lambda i: f"node {i} has negative depth {depth[i]}")
    _require((depth > 0) | np.isin(np.arange(n), roots), None, lambda i: f"node {i} at depth 0 is no root")
    _require((depth > 0) | (parent == -1), None, lambda i: f"root {i} has parent {parent[i]}")
    _require((depth == 0) | (parent >= 0) & (parent < n), None,
             lambda i: f"node {i} at depth {depth[i]} names parent {parent[i]}, which is not a node")
    up = np.maximum(parent, 0)
    _require((parent < 0) | ((depth[up] == depth - 1) & (tree[up] == tree)), None,
             lambda i: f"node {i} at depth {depth[i]} of tree {tree[i]} has parent {parent[i]}"
                       f" at depth {depth[parent[i]]} of tree {tree[parent[i]]}")
    _require(label == labels[tree], None,
             lambda i: f"node {i} of tree {tree[i]} has label {label[i]}: a {kind} book labels that tree"
                       f" {labels[tree[i]]}")


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Integers ordered as ``values``, and their bound: the values if below their count, else dense ranks."""
    rank = np.unique(values, return_inverse=True)[1] if values.max(initial=-1) >= len(values) else values
    return rank, int(rank.max(initial=-1)) + 1


def _check_offsets(what: str, ptr, n: int, size: int):
    """Raise :class:`ParseError` unless ``ptr`` holds n + 1 offsets ascending from 0 to ``size``."""
    if len(ptr) != n + 1 or ptr[0] or ptr[-1] != size or (np.diff(ptr) < 0).any():
        raise ParseError(f"the {what} offsets must be {n + 1} ascending offsets from 0 to {size}")


def _check_members(nodes: NodeArrays, usable: int):
    """Raise :class:`ParseError` unless the member offsets ascend from 0 to the member
    count, no member is negative, and the member lists of the nodes of each depth
    up to ``usable`` hold every root member exactly once."""
    ptr, members = nodes.member_ptr, nodes.members
    _check_offsets("member", ptr, len(nodes), len(members))
    holder = _in_rows(ptr, range(len(nodes)))  # the node of member entry k
    bad = np.flatnonzero(members < 0)
    if len(bad):
        raise ParseError(f"node {holder(bad[0])} holds a negative member", node=holder(bad[0]))

    def at_depth(d):  # which member entries belong to nodes of depth d
        return np.repeat(nodes.depth == d, np.diff(ptr))

    rank, size = _dense(members)  # count members by value, or by rank; one depth at a time, in little memory
    roots = np.bincount(rank[at_depth(0)], minlength=size)
    for d in range(usable + 1):
        counts = np.bincount(rank[at_depth(d)], minlength=size)
        bad = np.flatnonzero((counts != roots) | (counts > 1))
        if len(bad):
            r = bad[0]
            held = np.flatnonzero((rank == r) & at_depth(d if counts[r] else 0))[-1]
            raise ParseError(f"member {members[held]} is held {counts[r]} times at depth {d} and {roots[r]}"
                             f" at depth 0, not once at each", node=holder(held))


def _check_aggregates(nodes: NodeArrays):
    """Raise :class:`ParseError` unless every column holds one value per entry, the offsets ascend from
    0 to the entry count, each node's items ascend strictly from 1, a node below depth 1 aggregates only
    its parent's items (its members are its parent's), and every entry has finite values and a rater."""
    agg, n = nodes.aggregates, len(nodes)
    item, size = agg.item, len(agg.item)
    if any(len(column) != size for column in agg[2:]):
        raise ParseError(f"every aggregate column must hold {size} values")
    _check_offsets("aggregate", agg.ptr, n, size)
    counts, holder = np.diff(agg.ptr), _in_rows(agg.ptr, range(n))  # holder(k): the node of entry k
    rank, width = _dense(item)  # so the keys stay below n * (size + 1): a huge item id cannot wrap them
    keys = np.repeat(np.arange(n) * width, counts) + rank  # (node, item): ascending iff every node's items are
    up = np.repeat(nodes.parent * width, counts) + rank  # (parent, item)
    for ok, says in (
        ((item >= 1) & np.r_[True, keys[1:] > keys[:-1]], "out of order: a node's items ascend strictly from 1"),
        (np.repeat(nodes.depth < 2, counts) | np.isin(up, keys), "that its parent does not aggregate"),
        (np.isfinite(agg.rating) & np.isfinite(agg.rater_mean), "with a non-finite rating or rater mean"),
        (agg.raters >= 1, "with fewer than one rater"),
    ):
        if not ok.all():
            k = int(np.flatnonzero(~ok)[0])
            raise ParseError(f"node {holder(k)} aggregates item {item[k]} {says}", node=holder(k))


def _check_features(features, line=None):
    """Raise :class:`ParseError`, at ``line``, unless the features are None or a finite float (m, d) array, d >= 1."""
    if not (features is None or isinstance(features, np.ndarray) and features.dtype == float
            and features.ndim == 2 and features.shape[1] and np.isfinite(features).all()):
        raise ParseError("the user features must be None or a finite float (m, d) array with d >= 1", line)


def _build_columns(book: "CodeBook") -> dict[int, Code]:
    """Columnar views of depths 0..usable; each view's offsets come from its nodes' parents.

    Raises :class:`ParseError` unless the boxes are a float (2, d, N) block,
    d >= 1, of finite boxes with low <= upp, the book is in tree order (parent
    rows never decrease along a depth, so subtrees are row ranges), every node
    above the deepest view has a child, and every box lies inside its parent's.
    """
    nodes, block = book.arrays, book.arrays.bounds
    if not (isinstance(block, np.ndarray) and block.dtype == float and block.ndim == 3
            and block.shape[::2] == (2, len(nodes)) and block.shape[1]):
        raise ParseError(f"the node boxes must be a float (2, d, {len(nodes)}) block with d >= 1,"
                         f" not {getattr(block, 'dtype', type(block).__name__)} of shape {np.shape(block)}")
    _require(np.isfinite(block).all(axis=(0, 1)) & (block[0] <= block[1]).all(axis=0), None,
             lambda i: f"the box of node {i} is not finite with low_i <= upp_i in every dimension")
    columns, above = {}, None
    for depth in range(book.usable_depth() + 1):
        ids = np.flatnonzero(nodes.depth == depth)
        bounds = block.take(ids, axis=2)
        offsets = None
        if above is not None:
            parents = np.searchsorted(above.ids, nodes.parent[ids])  # each node's parent row
            offsets = np.searchsorted(parents, np.arange(above.length + 1))
            _check_nesting(above, ids, bounds, parents, offsets)
        columns[depth] = above = Code(depth=depth, ids=ids, bounds=bounds, labels=nodes.label[ids],
                                      offsets=offsets)
    return columns


def _check_nesting(above: Code, ids, bounds, parents, offsets):
    """Raise :class:`ParseError` unless one depth nests in the depth above it."""
    bad = np.flatnonzero(np.diff(parents) < 0) + 1
    if len(bad):
        r = bad[0]
        raise ParseError(f"node {ids[r]} breaks tree order: its parent {above.ids[parents[r]]} precedes"
                         f" {above.ids[parents[r - 1]]}, the parent of node {ids[r - 1]}", node=int(ids[r]))
    bad = np.flatnonzero(np.diff(offsets) == 0)
    if len(bad):
        node = int(above.ids[bad[0]])
        raise ParseError(f"node {node} has no child at depth {above.depth + 1}", node=node)
    up = above.bounds.take(parents, axis=2)
    bad = np.flatnonzero(((bounds[0] < up[0]) | (bounds[1] > up[1])).any(axis=0))
    if len(bad):
        r = bad[0]
        raise ParseError(f"the box of node {ids[r]} is not inside the box of its parent {above.ids[parents[r]]}",
                         node=int(ids[r]))


@dataclass(frozen=True)
class CodeBook:
    """A codebook: its nodes as columns, plus how it was built.

    Books come from the builders, from :func:`load_codebook` or straight from
    :class:`NodeArrays`. Making a book is the one check of its structure:
    :func:`_check_links`, then :func:`_build_columns`, which builds the view of
    every depth up to the usable one, then :func:`_check_members`, for a book of
    any kind with aggregates :func:`_check_aggregates`, and :func:`_check_features`.
    A book that fails raises :class:`ParseError` naming the node at fault in ``node`` (None
    for a rule of the roots, of a whole column or of the features) and is never made.
    """

    kind: str
    arrays: NodeArrays
    roots: tuple[int, ...]
    config: dict
    seed: int
    features: np.ndarray | None = None  # CF coders: the user feature matrix
    warnings: tuple[str, ...] = ()
    _depths: tuple = field(default=(), init=False, repr=False, compare=False)
    _columns: dict = field(init=False, repr=False, compare=False)
    _deviations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(int(r) for r in self.roots))
        _check_links(self.kind, self.arrays, self.roots)
        object.__setattr__(self, "_depths", tuple(range(1, self.usable_depth() + 1)))
        object.__setattr__(self, "_columns", _build_columns(self))
        _check_members(self.arrays, self.usable_depth())
        if self.arrays.aggregates is not None:
            _check_aggregates(self.arrays)
        _check_features(self.features)

    def tree_depth(self, tree: int) -> int:
        return int(self.arrays.depth[self.arrays.tree == tree].max())

    def usable_depth(self) -> int:
        """Deepest depth present in every tree; deeper levels are unusable."""
        return min(self.tree_depth(t) for t in range(len(self.roots)))

    def depths(self) -> tuple[int, ...]:
        return self._depths

    def code_at_depth(self, depth: int) -> Code:
        """The code of one usable depth: the view :meth:`columns` returns."""
        if depth == 0:
            raise DepthNotFoundError("depth 0 holds only the root nodes and is not a usable code")
        return self.columns(depth)

    def columns(self, depth: int) -> Code:
        """The columnar view of one depth, 0 (the roots) included.

        The views are built when the book is made; they are derived data and
        never written by :func:`dump_codebook`. A number that is not an
        integer (a bool or a float included) and a depth the book lacks, a
        depth below its usable code included, raise :class:`DepthNotFoundError`.
        """
        if type(depth) is not int:  # one test on the common path
            depth = _depth(depth)
        view = self._columns.get(depth)
        if view is None:
            raise DepthNotFoundError(f"no code at depth {depth}; available depths {self._depths}")
        return view

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
    return State(view, view.rows(_distinct(np.fromiter(node_ids, dtype=np.intp))))


def _roots_state(book: CodeBook) -> State:
    """The depth-0 state that keeps every root: refining from it is starting over."""
    return State._built(book.columns(0), np.arange(len(book.roots), dtype=np.intp))


def state_filter(book: CodeBook, depth: int, state: State) -> np.ndarray:
    """Ascending rows of ``book.columns(depth)`` that descend from the state's rows.

    The state must index this book's own view of a shallower depth; any
    other, a state of an equal copy of the book included, raises
    :class:`ForeignStateError`. The rows are the concatenated subtree ranges
    of the state's rows, found by stepping each range's ends down through
    the offsets of every depth in between: O(retained * gap + candidates),
    not O(code length).
    """
    if book._columns.get(state.depth) is not state.view:
        raise ForeignStateError(f"the state indexes another book's view of depth {state.depth}")
    if depth <= state.depth:
        raise ForeignStateError(f"state depth {state.depth} must be above code depth {depth}")
    offsets = book.columns(depth).offsets
    starts, stops = state.rows, state.rows + 1
    for between in range(state.depth + 1, depth):
        step = book._columns[between].offsets
        starts, stops = step[starts], step[stops]
    return _ranges(offsets[starts], offsets[stops])


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
    """Sum of box volumes (extents multiplied first to last) over the view of one
    depth, 0 included, in node order; as in :meth:`CodeBook.columns`, a depth
    the book lacks, or one below its usable code, raises :class:`DepthNotFoundError`.
    """
    low, upp = book.columns(depth).bounds
    return sum(np.prod(upp - low, axis=0).tolist())


# ---------------------------------------------------------------------------
# R-tree bulk loading


def _tree_height(n: int, max_entries: int, leaf_capacity: int) -> int:
    n_leaves = math.ceil(n / leaf_capacity)
    if n_leaves <= 1:
        return 0
    return max(1, math.ceil(math.log(n_leaves) / math.log(max_entries) - 1e-12))


def _sorted_within(perm: np.ndarray, start: np.ndarray, size: np.ndarray, rank: np.ndarray, width: int):
    """Stably sort the rows of ``perm`` in each slice ``start[t]`` up to
    ``start[t] + size[t]`` by ``rank`` (values below ``width``), in place.

    The slices ascend and do not overlap, so one stable sort of (slice, rank)
    keys sorts every slice at once and keeps each tie's order.
    """
    at = _ranges(start, start + size)
    rows = perm[at]
    key = np.repeat(np.arange(len(size)) * width, size) + rank[rows]
    if len(size) * width <= 1 << 16:  # numpy sorts 16-bit keys stably by radix, in linear time
        key = key.astype(np.uint16)
    perm[at] = rows[np.argsort(key, kind="stable")]


def _str_depth(ranks: list[tuple[np.ndarray, int]], perm: np.ndarray, ptr: np.ndarray, cap: int):
    """Tile every node of one depth into its children, sort-tile-recursively.

    Node i holds the rows ``perm[ptr[i]:ptr[i + 1]]``; each child is to hold
    at most ``cap`` rows. A node is tiled as in Leutenegger, Lopez and
    Edgington's STR: to fill g = ceil(rows / cap) pages over d coordinates,
    sort its rows by the first coordinate, cut them into slabs of
    ceil(g / ceil(g ** (1 / d))) pages and tile each slab, as a tile of that
    many pages, over the other coordinates; at the last coordinate, cut the
    sorted rows into pages. A tile with at most one page to fill, or at most
    ``cap`` rows, is a child as it stands. ``ranks`` holds each coordinate's
    dense ranks and their count. All tiles of the depth are cut at once, one
    coordinate after another.

    Returns the depth's row order below, its children's offsets into it and
    each child's node.
    """
    perm = perm.copy()
    start, size = ptr[:-1], np.diff(ptr)
    owner = np.arange(len(size))
    pages = -(-size // cap)
    d = len(ranks)
    for dim, (rank, width) in enumerate(ranks):
        live = (pages > 1) & (size > cap)
        if not live.any():
            break
        _sorted_within(perm, start[live], size[live], rank, width)
        if dim < d - 1:
            # in Python floats, once per distinct page count: numpy's power may
            # round differently and move a ceil at an exact power
            table = np.ones(int(pages.max()) + 1, dtype=np.intp)
            for g in np.flatnonzero(np.bincount(pages[live])).tolist():
                table[g] = math.ceil(g / math.ceil(g ** (1.0 / (d - dim))))
            per_slab = table[pages]
        else:
            per_slab = np.ones(len(size), dtype=np.intp)  # at the last coordinate, slabs are pages
        step = np.where(live, per_slab * cap, size)  # a tile not cut stays whole
        cuts = -(-size // step)
        step = np.repeat(step, cuts)
        at = np.repeat(start, cuts) + (np.arange(len(step)) - np.repeat(_ptr(cuts)[:-1], cuts)) * step
        size = np.minimum(step, np.repeat(start + size, cuts) - at)
        start, owner = at, np.repeat(owner, cuts)
        pages = np.repeat(np.where(live, per_slab, 0), cuts)
    return perm, np.append(start, ptr[-1]), owner


class _Builder:
    """Accumulates nodes for one codebook as blocks of columns; node ids are
    assigned in construction order."""

    def __init__(self):
        self.size = 0  # nodes so far
        self.blocks: list[tuple] = []  # (tree, depth, parent, label, member count, members) columns

    def add(self, tree, depth, parent, members, label=None) -> int:
        members = np.asarray(members, dtype=np.intp)
        self.blocks.append(([tree], [depth], [-1 if parent is None else parent], [label or 0], [len(members)],
                            members))
        self.size += 1
        return self.size - 1

    def build_rtree(self, X: np.ndarray, tree: int, max_entries: int, leaf_capacity: int,
                    label=None, rows=None) -> int:
        """Bulk load one R-tree over the rows of X; returns the root's id.

        Sort-tile-recursive packing, level-synchronous: :func:`_str_depth`
        tiles every node of a depth at once, with one stable sort per depth
        and coordinate over the rows of the nodes still to cut, keyed by
        node and by the dense rank of the coordinate, which is computed once
        per tree. Ties keep their order, so each node is tiled
        exactly as it would be alone. Node ids run depth first, computed from
        subtree sizes, and each node's members are a slice of its depth's row
        order. Members are X's row numbers, or ``rows[i]`` for row i of X
        when ``rows`` (the dataset rows X was taken from) is given.
        """
        n = len(X)
        height = _tree_height(n, max_entries, leaf_capacity)
        ranks = [(rank, len(values)) for values, rank in
                 (np.unique(X[:, j], return_inverse=True) for j in range(X.shape[1]))]
        perms, ptrs, owners = [np.arange(n)], [np.array([0, n])], [np.zeros(1, dtype=np.intp)]
        for remaining in range(height, 0, -1):
            perm, ptr, owner = _str_depth(ranks, perms[-1], ptrs[-1], leaf_capacity * max_entries ** (remaining - 1))
            perms.append(perm)
            ptrs.append(ptr)
            owners.append(owner)
        # each node's first child; every node above the leaves has one
        firsts = [np.flatnonzero(np.diff(owner, prepend=-1)) for owner in owners[1:]]
        sizes = [np.ones(len(owners[-1]), dtype=np.intp)]  # subtree sizes, bottom up
        for first in firsts[::-1]:
            sizes.insert(0, 1 + np.add.reduceat(sizes[0], first))
        # depth-first ids, top down: a node follows its parent and its earlier siblings' subtrees
        base = self.size
        ids = [np.array([base])]
        for size, owner, first in zip(sizes[1:], owners[1:], firsts):
            before = np.cumsum(size) - size
            ids.append(ids[-1][owner] + 1 + before - before[first][owner])
        total = int(sizes[0][0])
        order = np.empty(total, dtype=np.intp)
        order[np.concatenate(ids) - base] = np.arange(total)  # level-order position of each id
        depth = np.repeat(np.arange(height + 1), [len(i) for i in ids])[order]
        parent = np.concatenate([[-1]] + [i[o] for i, o in zip(ids, owners[1:])])[order]
        counts = np.concatenate([np.diff(p) for p in ptrs])[order]
        member_ptr = _ptr(counts)
        members = np.empty(member_ptr[-1], dtype=np.intp)
        for i, perm in zip(ids, perms):
            at = member_ptr[i - base]
            members[_ranges(at, at + counts[i - base])] = perm
        self.blocks.append((np.full(total, tree), depth, parent, np.full(total, label or 0), counts,
                            members if rows is None else rows[members]))
        self.size += total
        return base

    def finish(self, kind, roots, config, seed, points, matrix=None, features=None,
               warnings=()) -> CodeBook:
        """The book. Each box bounds the node's members' rows of ``points``;
        given a rating matrix, each node aggregates its members' ratings."""
        tree, depth, parent, label, counts, members = (np.concatenate(c) for c in zip(*self.blocks))
        member_ptr = _ptr(counts)
        if not counts.all():
            raise ValueError("every node needs at least one member")
        points = np.asarray(points, dtype=float)
        at = np.ascontiguousarray(points.T).take(members, axis=1)  # (d, members); a dataset's features: no copy
        # one C-ordered (2, d, N) block
        bounds = np.array([f.reduceat(at, member_ptr[:-1], axis=1) for f in (np.minimum, np.maximum)])
        # min and max break a tie of 0.0 and -0.0 by position, which reduceat and a
        # min or max over one node's points visit in different orders; only a node
        # holding a -0.0 in a coordinate whose bound is 0 can meet such a tie
        negative_zero = np.logical_or.reduceat((at == 0) & np.signbit(at), member_ptr[:-1], axis=1)
        for i in np.flatnonzero((negative_zero & (bounds == 0).any(axis=0)).any(axis=0)).tolist():
            node_points = at[:, member_ptr[i] : member_ptr[i + 1]].T.copy()  # the members' rows, C-ordered
            bounds[:, :, i] = node_points.min(axis=0), node_points.max(axis=0)
        arrays = NodeArrays(
            tree=tree.astype(np.intp, copy=False),
            depth=depth.astype(np.intp, copy=False),
            parent=parent.astype(np.intp, copy=False),
            label=label.astype(int, copy=False),
            bounds=bounds,
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
    users, items, ratings = matrix.rating_arrays()
    user_ptr = np.searchsorted(users, np.arange(1, matrix.num_users + 2))
    counts = user_ptr[members + 1] - user_ptr[members]
    entries = _ranges(user_ptr[members], user_ptr[members + 1])  # (node, member, item) order
    owner = np.repeat(np.arange(len(member_ptr) - 1), np.diff(member_ptr))  # each member's node
    rated = items[entries]
    rank, width = _dense(rated)  # ranks where ids are large, so the keys cannot wrap int64
    keys, slot = np.unique(np.repeat(owner, counts) * width + rank, return_inverse=True)
    raters = np.bincount(slot)
    item = np.empty(len(keys), dtype=np.int64)
    item[slot] = rated
    return Aggregates(
        ptr=np.searchsorted(keys // width, np.arange(len(member_ptr))),
        item=item,
        rating=np.bincount(slot, weights=ratings[entries]) / raters,
        rater_mean=np.bincount(slot, weights=np.repeat(matrix._user_means()[members], counts)) / raters,
        raters=raters,
    )


def _user_features(features, num_users: int) -> np.ndarray:
    """``features`` as floats; raises :class:`InvalidDatasetError` unless they
    are a finite 2-D array with one row per user and at least one column."""
    values = np.asarray(features, dtype=float)
    if values.ndim != 2 or not values.shape[1]:
        raise InvalidDatasetError(f"user features must be 2-D with d >= 1, not of shape {values.shape}")
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
    if builder.size == 1:
        warnings.append("tree is a single leaf; no usable code exists")
    return builder.finish(KIND_CF, [root], config, seed, values, matrix, features=values,
                          warnings=warnings)


# ---------------------------------------------------------------------------
# Point distances


def _point_sq(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances along the last axis of ``points - q``
    (broadcast), each point's squared gaps added first to last.

    One column at a time, at every width d >= 1 (contiguous reads for a
    dataset's column-major features, strided views otherwise): no
    (n, d) temporary, and the order of a scalar loop over one point, which
    is also the order in which a box norm (:func:`_column_sums`) adds its
    coordinates, so a one-point box's distance is its point's, bit for bit.
    """
    d2 = points[..., 0] - q[..., 0]
    d2 *= d2
    for j in range(1, points.shape[-1]):
        c = points[..., j] - q[..., j]
        c *= c
        d2 += c
    return d2


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered (k, rows, cols) stack, adding the rows first to last.

    numpy reduces a C-ordered array's rows one after another, the order of
    a scalar loop over the rows (CF's item-by-item correlation sums, a box
    norm's coordinates). A single column is a contiguous vector, which
    numpy sums pairwise from 8 rows, so it is summed beside a copy of itself.
    """
    if a.shape[-1] == 1:
        return np.add.reduce(np.concatenate((a, a), axis=-1), axis=-2)[:, :1]
    return np.add.reduce(a, axis=-2)


# ---------------------------------------------------------------------------
# Divisive k-means coder


def kmeans(X: np.ndarray, k: int, iterations: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic k-means (WCSS objective, fixed iteration count).

    Seeding is farthest-point, so there is no random seed: the first centre is the point farthest from
    the data centroid, each further centre maximises the distance to the
    centres chosen so far (ties by row index). Returns (labels, centroids).
    Empty clusters keep their previous centroid. ``X`` that is not a finite
    2-D array of at least one point and one column raises :class:`InvalidDatasetError`.
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


def _joined_rows(ptr: np.ndarray, text: list[str]) -> list[str]:
    """Each compressed row's texts as one space-separated string."""
    bounds = ptr.tolist()
    return [" ".join(text[a:b]) for a, b in zip(bounds, bounds[1:])]


_DUMP_CHUNK = 1 << 14  # about this many numbers per piece of a dump


def _dump_pieces(book: CodeBook):
    """The version 1 text of a book, in pieces of whole lines: the header,
    the 'F' lines in runs, then runs of 'N' lines, each node followed by its
    'A' lines, and 'end'. A run holds about :data:`_DUMP_CHUNK` numbers, so
    its strings, not the whole text's, are alive at once."""
    nodes = book.arrays
    lines = [f"{MAGIC} {FORMAT_VERSION}", f"kind {book.kind}", f"seed {book.seed}",
             "config " + json.dumps(book.config, sort_keys=True, separators=(",", ":"))]
    lines += ["warning " + w for w in book.warnings]
    lines.append("roots " + " ".join(str(r) for r in book.roots))
    m, d = (0, 0) if book.features is None else book.features.shape
    lines.append(f"features {m} {d}")
    yield "\n".join(lines) + "\n"
    step = _DUMP_CHUNK // max(d, 1) or 1
    for lo in range(0, m, step):
        yield "".join("F " + " ".join(map(repr, row)) + "\n" for row in book.features[lo : lo + step].tolist())
    n, d = len(nodes), nodes.bounds.shape[1]
    yield f"nodes {n}\n"
    child_ptr, child_ids = nodes.child_csr
    agg_ptr = np.zeros(n + 1, dtype=np.intp) if nodes.aggregates is None else nodes.aggregates.ptr
    # cut the nodes into runs of about _DUMP_CHUNK numbers: box, members, aggregates
    weight = np.cumsum(2 * d + np.diff(nodes.member_ptr[: n + 1]) + 5 * np.diff(agg_ptr[: n + 1]))
    cuts = _distinct(np.r_[0, np.searchsorted(weight, np.arange(_DUMP_CHUNK, weight[-1], _DUMP_CHUNK)), n])
    for lo, hi in zip(cuts.tolist(), cuts[1:].tolist()):
        yield "\n".join(_node_lines(nodes, lo, hi, d, child_ptr, child_ids, agg_ptr)) + "\n"
    yield "end\n"


def _node_lines(nodes: NodeArrays, lo: int, hi: int, d: int, child_ptr, child_ids, agg_ptr) -> list[str]:
    """The 'N' lines of nodes lo up to hi, each followed by its 'A' lines."""
    parents = ["-" if p < 0 else str(p) for p in nodes.parent[lo:hi].tolist()]
    labels = ["-" if x == 0 else str(x) for x in nodes.label[lo:hi].tolist()]
    box_ptr = np.arange(hi - lo + 1) * d
    low = _joined_rows(box_ptr, _texts(nodes.bounds[0, :, lo:hi].T, repr))
    upp = _joined_rows(box_ptr, _texts(nodes.bounds[1, :, lo:hi].T, repr))
    children = _joined_rows(child_ptr[lo : hi + 1] - child_ptr[lo],
                            list(map(str, child_ids[child_ptr[lo] : child_ptr[hi]].tolist())))
    member_ptr = nodes.member_ptr[lo : hi + 1]
    members = _joined_rows(member_ptr - member_ptr[0],
                           list(map(str, nodes.members[member_ptr[0] : member_ptr[-1]].tolist())))
    agg, a, b = nodes.aggregates, int(agg_ptr[lo]), int(agg_ptr[hi])
    agg_lines = [] if agg is None else list(map(" ".join, zip(
        repeat("A"), _texts(np.repeat(np.arange(lo, hi), np.diff(agg_ptr[lo : hi + 1])), str),
        _texts(agg.item[a:b], str), _texts(agg.rating[a:b], repr), _texts(agg.rater_mean[a:b], repr),
        _texts(agg.raters[a:b], str),
    )))
    agg_rows = (agg_ptr[lo : hi + 1] - a).tolist()
    lines = []
    for r, (tree, depth) in enumerate(zip(nodes.tree[lo:hi].tolist(), nodes.depth[lo:hi].tolist())):
        lines.append(
            f"N {lo + r} {tree} {depth} {parents[r]} {labels[r]} C {children[r]}"
            f" M {low[r]} | {upp[r]} P {members[r]}"
        )
        lines.extend(agg_lines[agg_rows[r] : agg_rows[r + 1]])
    return lines


def dump_codebook(book: CodeBook) -> str:
    """The version 1 text of a book, as one string; :func:`save_codebook`
    writes the same bytes piece by piece."""
    return "".join(_dump_pieces(book))


def save_codebook(book: CodeBook, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_dump_pieces(book))


_HEADER_TAGS = ("kind", "seed", "config", "roots", "features", "nodes")
_AGGREGATE_LINE = np.dtype([("tag", "U1"), ("owner", np.intp), ("item", np.intp),
                            ("rating", float), ("rater_mean", float), ("raters", np.intp)])


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


def _marked(empty: int):
    """A reader of integer tokens that reads '-' as ``empty``."""
    return lambda token: empty if token == "-" else int(token)


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
    values = _table(bodies, at, [("f", float, (d,))], "F", f"{d} values")["f"] if d else np.zeros((m, 0))
    _check_features(values, lineno)  # the book's features rule, at the 'features' line
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


def _boxes(rows: list[str], at) -> np.ndarray:
    """The 'low | upp' boxes of 'N' lines as one (2, d, N) block."""
    d = len(rows[0].split()) // 2 if rows else 1
    want = f"{d} low values, '|' and {d} upp values after 'M'"
    if not d:
        raise ParseError(f"malformed 'N' line (want {want})", at[0])
    table = _table(rows, at, [("low", float, (d,)), ("bar", "U2"), ("upp", float, (d,))], "N", want)
    _require(table["bar"] == "|", at, lambda r: f"malformed 'N' line (want {want})")
    return np.array((table["low"].T, table["upp"].T))


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
    parent = _numbers(heads[3::5], _marked(-1), np.intp, "N", line)
    label = _numbers(heads[4::5], _marked(0), int, "N", line)
    child_ptr = _ptr(child_counts)
    child_ids = _numbers(children, int, np.intp, "N", _in_rows(child_ptr, at))
    member_ptr, member_ids = _member_rows(member_rows, at)
    bounds = _boxes(box_rows, at)
    _require(nid == np.arange(n), at,
             lambda r: f"node {nid[r]} out of place: 'N' lines run 0..{n - 1} in id order")
    arrays = NodeArrays(tree=tree, depth=depth, parent=parent, label=label, bounds=bounds,
                        member_ptr=member_ptr, members=member_ids,
                        aggregates=_read_aggregates(agg_lines, agg_at, n) if agg_lines else None)
    return arrays, (child_ptr, child_ids)


def _read_aggregates(lines, at, n) -> Aggregates:
    """The aggregates of whole 'A' lines, cut into nodes by their node ids: 0..N-1, never descending."""
    table = _table(lines, at, _AGGREGATE_LINE, "A",
                   "node id, item id, rating, rater mean and rater count")
    owner = table["owner"]
    _require((owner >= 0) & (owner < n) & np.r_[True, owner[1:] >= owner[:-1]], at,
             lambda r: f"aggregate of node {owner[r]} out of place: 'A' lines run in node order 0..{n - 1}")
    columns = (np.ascontiguousarray(table[f]) for f in _AGGREGATE_LINE.names[2:])  # the book's checks read faster
    return Aggregates(np.searchsorted(owner, np.arange(n + 1)), *columns)


def _check_children(nodes: NodeArrays, listed, at):
    """Raise :class:`ParseError` unless each node lists, in order, the nodes naming it as parent."""
    (ptr, ids), (listed_ptr, listed_ids) = nodes.child_csr, listed
    wrong = np.diff(ptr) != np.diff(listed_ptr)
    if not wrong.any():
        wrong[np.searchsorted(ptr, np.flatnonzero(ids != listed_ids), side="right") - 1] = True
    _require(~wrong, at, lambda i: f"node {i} lists children"
             f" {listed_ids[listed_ptr[i]:listed_ptr[i + 1]].tolist()}"
             f" but nodes {nodes.children_of(i).tolist()} name it as parent")


def load_codebook(path_or_text) -> CodeBook:
    """Read a dump written by :func:`dump_codebook` (a path, an open text file or the text).

    A string is read as the text itself when it is empty, holds a newline or
    starts with the header's first token; any other string is a path. The
    reader only parses. :class:`ParseError`, with the 1-based line number, is
    raised for: a bad header; a missing ``end``, ``kind``, ``seed``, ``config``,
    ``roots``, ``features`` or ``nodes`` line; a malformed line; an ``F`` line
    count or width that differs from the ``features`` line; a node count that
    differs from the ``nodes`` line; ``N`` lines not in id order 0..N-1; ``A``
    lines whose node ids leave 0..N-1 or descend; and a child list that
    differs from the parent links. The book's rules are checked by the
    :class:`CodeBook`: the features rule is raised at the ``features`` line, a
    rule of a node (its aggregates included) at the node's ``N`` line, which
    its ``A`` lines follow, and a rule of the roots at the ``roots`` line.
    """
    if isinstance(path_or_text, str) and (
        "\n" in path_or_text or path_or_text == "" or path_or_text.startswith(MAGIC)
    ):
        lines = path_or_text.splitlines()
    elif hasattr(path_or_text, "read"):
        lines = path_or_text.read().splitlines()
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
    try:
        book = CodeBook(header["kind"][1], nodes, roots, config, seed,
                        features=features, warnings=tuple(warnings))
    except ParseError as exc:  # the book's own check: at the line of its node, or of the roots
        raise ParseError(str(exc), header["roots"][0] if exc.node is None else at[exc.node], exc.node) from None
    _check_children(nodes, listed, at)
    return book
