"""Scalar references and fixture builders the tests check the library against.

The library works on arrays; these are the box-by-box, dict-by-dict
definitions its results must equal, and the builders of hand-made books
that the worked examples use. Nothing in ``elastic_mine`` calls them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from elastic_mine.coding import KIND_CF, KIND_DUAL, CodeBook, _Builder, _ptr, _tree_height, _user_features
from elastic_mine.datasets import (
    ACTIVE_FRACTION, NEGATIVE, POSITIVE, RATING_SCALE, TEST_FRACTION, LabeledDataset, RatingMatrix, round_half_up,
)
from elastic_mine.errors import InvalidDatasetError
from elastic_mine.knn import _check_dim


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


def _sum_sq(gaps: np.ndarray) -> float:
    """The squared gaps added first to last, one Python float at a time."""
    total = 0.0
    for g in gaps.tolist():
        total += g * g
    return total


def max_sq(q, low, upp) -> float:
    """Squared maximal distance from q to the box ``low``..``upp``, by its definition."""
    return _sum_sq(np.maximum(np.abs(q - low), np.abs(q - upp)))


def min_sq(q, low, upp) -> float:
    """Squared minimal distance from q to the box ``low``..``upp``, by its definition."""
    return _sum_sq(np.maximum(0.0, np.maximum(low - q, q - upp)))


def dist_max(q, mbr: Mbr) -> float:
    """Maximal Euclidean distance from q to any point of the box."""
    q = np.asarray(q, dtype=float)
    _check_dim(q, mbr.dimensionality)
    return float(np.sqrt(max_sq(q, mbr.low, mbr.upp)))


def dist_min(q, mbr: Mbr) -> float:
    """Minimal Euclidean distance from q to the box (0 inside)."""
    q = np.asarray(q, dtype=float)
    _check_dim(q, mbr.dimensionality)
    return float(np.sqrt(min_sq(q, mbr.low, mbr.upp)))


@dataclass(frozen=True)
class DictRatingMatrix:
    """A rating matrix as a ``{(user, item): rating}`` dict and a dict of
    dicts per user, checked rating by rating: the definition of every value
    :class:`RatingMatrix` answers from its columns, and of its errors."""

    num_users: int
    num_items: int
    ratings: Mapping[tuple[int, int], float]
    rating_scale: tuple[float, float] = RATING_SCALE
    duplicate_count: int = 0
    by_user: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ratings:
            raise InvalidDatasetError("rating matrix has no ratings")
        low, high = self.rating_scale
        by_user: dict[int, dict[int, float]] = {}
        for (u, i), r in self.ratings.items():
            try:
                inside = 1 <= operator.index(u) <= self.num_users and 1 <= operator.index(i) <= self.num_items
            except TypeError:
                raise InvalidDatasetError(f"rating ({u!r}, {i!r}) has an id that is not an integer") from None
            if not inside:
                raise InvalidDatasetError(
                    f"rating ({u}, {i}) outside declared {self.num_users}x{self.num_items} bounds")
            r = float(r)
            if not (low <= r <= high and math.isfinite(r)):
                raise InvalidDatasetError(f"rating {r!r} of ({u}, {i}) outside the scale {(low, high)}")
            by_user.setdefault(u, {})[i] = r
        object.__setattr__(self, "by_user", by_user)

    def user_ratings(self, user: int) -> dict[int, float]:
        return self.by_user.get(user, {})

    def user_mean(self, user: int) -> float | None:
        row = self.by_user.get(user)
        return sum(row.values()) / len(row) if row else None

    def global_mean(self) -> float:
        return sum(self.ratings.values()) / len(self.ratings)

    def rating_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = sorted(self.ratings)
        ids = np.int32 if self.num_users + self.num_items < 1 << 31 else np.intp
        return (np.array([u for u, _ in keys], dtype=ids), np.array([i for _, i in keys], dtype=ids),
                np.array([float(self.ratings[k]) for k in keys]))

    def deviations(self) -> np.ndarray:
        table = np.full((self.num_items + 1, self.num_users), np.nan)
        for (u, i), r in self.ratings.items():
            table[i, u - 1] = float(r) - self.user_mean(u)
        return table


def dict_split_ratings(matrix: DictRatingMatrix, seed: int):
    """``split_ratings(matrix, SplitSpec(seed=seed))`` rating by rating."""
    rng = np.random.default_rng(seed)
    n_active = min(matrix.num_users, max(1, round_half_up(ACTIVE_FRACTION * matrix.num_users)))
    active = np.sort(rng.permutation(np.arange(1, matrix.num_users + 1))[:n_active])
    held: dict[int, set[int]] = {}
    test = []
    for u in active.tolist():
        items = sorted(matrix.user_ratings(u))
        if len(items) < 2:
            continue
        take = min(len(items) - 1, max(1, round_half_up(TEST_FRACTION * len(items))))
        chosen = rng.permutation(len(items))[:take]
        held[u] = {items[c] for c in sorted(chosen.tolist())}
        for i in sorted(held[u]):
            test.append((u, i, matrix.ratings[(u, i)]))
    remaining = {(u, i): r for (u, i), r in matrix.ratings.items() if not (u in held and i in held[u])}
    return DictRatingMatrix(matrix.num_users, matrix.num_items, remaining, matrix.rating_scale), tuple(test)


def dict_ratings_csv(matrix: DictRatingMatrix) -> str:
    """``write_ratings_csv(matrix)``: the header, then one line per rating in key order."""
    lines = ["user,item,rating\n"]
    for (u, i) in sorted(matrix.ratings):
        lines.append(f"{u},{i},{float(matrix.ratings[(u, i)])!r}\n")
    return "".join(lines)


def row_libsvm(dataset: LabeledDataset) -> str:
    """``write_libsvm(dataset)`` row by row, each value written by ``%r``."""
    row = "%s " + " ".join(f"{j}:%r" for j in range(1, dataset.dimensionality + 1)) + "\n"
    labels = ["+1" if label == POSITIVE else "-1" for label in dataset.labels.tolist()]
    return "".join(row % (label, *values) for label, values in zip(labels, dataset.features.tolist()))


class ItemAggregate(NamedTuple):
    """A node's summary for one item: mean rating, mean rater average, rater count."""

    rating: float
    rater_mean: float
    raters: int


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


def wavefront_levels(cells: list[tuple[int, int]], m: int, n: int) -> list[int]:
    """The wavefront level of every (user, item) cell of a sequence, in its order.

    A cell's level is one more than the larger of the levels of the
    previous cell of its user and of its item (-1 when there is none), so
    no two cells of a level share a user or an item, and a cell's level is
    above the level of every earlier cell that shares its user or its item.
    A cell may occur again, as it does in every epoch of a training pass.
    """
    user_level = [-1] * (m + 1)
    item_level = [-1] * (n + 1)
    levels = []
    for u, i in cells:
        level = max(user_level[u], item_level[i]) + 1
        user_level[u] = item_level[i] = level
        levels.append(level)
    return levels


def ancestor_at(book: CodeBook, node_id: int, depth: int) -> int:
    """The id of the node's ancestor at the given shallower depth."""
    nodes, at = book.arrays, int(node_id)
    while nodes.depth[at] > depth:
        at = int(nodes.parent[at])
    if nodes.depth[at] != depth:
        raise ValueError(f"node {node_id} has no ancestor at depth {depth}")
    return at


# ---------------------------------------------------------------------------
# Sort-tile-recursive bulk loading, one node at a time


def str_tile(X: np.ndarray, order: np.ndarray, ngroups: int, cap: int, dim: int = 0) -> list[np.ndarray]:
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
        groups.extend(str_tile(X, srt[s : s + slab_rows], pages_per_slab, cap, dim + 1))
    return groups


def str_rtree(X: np.ndarray, max_entries: int, leaf_capacity: int) -> list[tuple[int, int, np.ndarray]]:
    """One R-tree over the rows of X, bulk loaded top-down by tiling one node
    at a time: (depth, parent, member rows of X) of every node, depth first;
    the parent is a position in the list, -1 for the root."""
    nodes: list[tuple[int, int, np.ndarray]] = []

    def rec(order: np.ndarray, remaining: int, depth: int, parent: int):
        nid = len(nodes)
        nodes.append((depth, parent, order))
        if remaining == 0:
            return
        child_cap = leaf_capacity * max_entries ** (remaining - 1)
        ngroups = math.ceil(len(order) / child_cap)
        for grp in str_tile(X, order, ngroups, child_cap) if ngroups > 1 else [order]:
            rec(grp, remaining - 1, depth + 1, nid)

    rec(np.arange(len(X)), _tree_height(len(X), max_entries, leaf_capacity), 0, -1)
    return nodes


def str_columns(points, trees, max_entries: int, leaf_capacity: int) -> dict[str, np.ndarray]:
    """The node columns of a book of :func:`str_rtree` trees over ``points``,
    one tree per (rows, label) of ``trees``, in that order; each box is
    :meth:`Mbr.of_points` of its node's points."""
    points = np.asarray(points, dtype=float)
    tree, depth, parent, label, members, boxes = [], [], [], [], [], []
    for t, (rows, tree_label) in enumerate(trees):
        base = len(tree)
        for node_depth, up, order in str_rtree(points[rows], max_entries, leaf_capacity):
            tree.append(t)
            depth.append(node_depth)
            parent.append(-1 if up < 0 else base + up)
            label.append(tree_label)
            members.append(rows[order])
            boxes.append(Mbr.of_points(points[rows[order]]))
    return dict(
        tree=np.array(tree), depth=np.array(depth), parent=np.array(parent), label=np.array(label),
        member_ptr=_ptr([len(m) for m in members]), members=np.concatenate(members),
        bounds=np.array([[box.low for box in boxes], [box.upp for box in boxes]]).transpose(0, 2, 1),
    )


# ---------------------------------------------------------------------------
# Explicit-hierarchy builders (worked examples and fixtures)


def _is_leaf_spec(spec) -> bool:
    return all(isinstance(x, (int, np.integer)) for x in spec)


def _hierarchy_depth(spec) -> int:
    if _is_leaf_spec(spec):
        return 0
    depths = {_hierarchy_depth(child) for child in spec}
    if len(depths) != 1:
        raise ValueError("hierarchy is not depth-balanced")
    return depths.pop() + 1


def _spec_members(spec) -> np.ndarray:
    """The rows a node spec holds: its leaves' rows, in order."""
    if _is_leaf_spec(spec):
        return np.array(spec, dtype=np.intp)
    return np.concatenate([_spec_members(child) for child in spec])


def _build_hierarchy(builder: _Builder, spec, tree: int, depth, parent, label) -> int:
    nid = builder.add(tree, depth, parent, _spec_members(spec), label)
    if not _is_leaf_spec(spec):
        for child in spec:
            _build_hierarchy(builder, child, tree, depth + 1, nid, label)
    return nid


def dual_book_from_hierarchy(train: LabeledDataset, positive_spec, negative_spec) -> CodeBook:
    """Build a dual-tree book from explicit nested row-index groupings.

    A node spec is either a list of dataset row indices (leaf) or a list of
    child specs. Both trees must be depth-balanced to the same height.
    """
    builder = _Builder()
    roots = []
    for tree, (spec, label) in enumerate(((positive_spec, POSITIVE), (negative_spec, NEGATIVE))):
        _hierarchy_depth(spec)
        roots.append(_build_hierarchy(builder, spec, tree, 0, None, label))
    return builder.finish(KIND_DUAL, roots, {"task": "knn", "source": "explicit"}, 0, train.features)


def cf_book_from_hierarchy(matrix: RatingMatrix, spec, features=None) -> CodeBook:
    """Build a CF book from an explicit nested grouping of 1-based user ids."""

    def to_rows(s):
        if _is_leaf_spec(s):
            return [u - 1 for u in s]
        return [to_rows(c) for c in s]

    values = _user_features(np.arange(matrix.num_users)[:, None] if features is None else features,
                            matrix.num_users)
    builder = _Builder()
    rows_spec = to_rows(spec)
    _hierarchy_depth(rows_spec)
    root = _build_hierarchy(builder, rows_spec, 0, 0, None, None)
    return builder.finish(
        KIND_CF, [root], {"task": "cf", "source": "explicit"}, 0, values, matrix, features=values
    )


def gaussian_mixture(
    n: int = 2000, d: int = 4, components: int = 6, spread: float = 0.7, seed: int = 0
) -> LabeledDataset:
    """A labeled Gaussian mixture; alternate components carry opposite classes."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(components, d))
    sizes = np.full(components, n // components)
    sizes[: n - sizes.sum()] += 1
    feats = []
    labels = []
    for c in range(components):
        feats.append(rng.normal(centers[c], spread, size=(sizes[c], d)))
        labels.append(np.full(sizes[c], 1 if c % 2 == 0 else -1))
    return LabeledDataset(np.vstack(feats), np.concatenate(labels))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks ascending by value, tied values sharing the mean rank, by a
    walk over the sorted values."""
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
