"""Ingestion of classification datasets and rating matrices.

Defines the two training-data containers used by every other module, the
LIBSVM / ratings-CSV parsers and writers, and deterministic train/test
splitting. Labels are binary: +1 (positive) and -1 (negative).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import LabelCardinalityError, ParseError

POSITIVE = 1
NEGATIVE = -1


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero (2.5 -> 3)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class LabeledDataset:
    """A class-labeled point set: ``features`` is (n, d), ``labels`` is (n,) in {+1, -1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int8)
        if feats.ndim != 2 or len(feats) == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        if len(labs) != len(feats):
            raise ValueError("labels and features disagree on point count")
        if not np.all(np.isin(labs, (POSITIVE, NEGATIVE))):
            raise ValueError("labels must be +1 or -1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def dimensionality(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(positive count, negative count)."""
        pos = int((self.labels == POSITIVE).sum())
        return pos, len(self) - pos

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class RatingMatrix:
    """A sparse user-item rating matrix with 1-based user and item ids."""

    num_users: int
    num_items: int
    ratings: Mapping[tuple[int, int], float]
    rating_scale: tuple[float, float] = (1.0, 5.0)
    duplicate_count: int = 0
    _by_user: dict = field(default=None, repr=False, compare=False)
    _deviations: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_users < 1 or self.num_items < 1:
            raise ValueError("rating matrix must have at least one user and one item")
        if not self.ratings:
            raise ValueError("rating matrix has no ratings")
        by_user: dict[int, dict[int, float]] = {}
        for (u, i), r in self.ratings.items():
            if not (1 <= u <= self.num_users and 1 <= i <= self.num_items):
                raise ValueError(f"rating ({u}, {i}) outside declared {self.num_users}x{self.num_items} bounds")
            by_user.setdefault(u, {})[i] = float(r)
        object.__setattr__(self, "_by_user", by_user)

    @property
    def num_ratings(self) -> int:
        return len(self.ratings)

    def user_ratings(self, user: int) -> dict[int, float]:
        """The user's item -> rating map (empty for users with no ratings)."""
        return self._by_user.get(user, {})

    def user_mean(self, user: int) -> float | None:
        """Average rating of the user, or None when the user has no ratings."""
        row = self._by_user.get(user)
        if not row:
            return None
        return sum(row.values()) / len(row)

    def global_mean(self) -> float:
        return sum(self.ratings.values()) / len(self.ratings)

    def deviations(self) -> np.ndarray:
        """The item-major user deviation table, built on first use and cached.

        Entry (i, u - 1) is user u's rating of item i minus the user's mean
        rating, NaN where u did not rate i; row 0 is all NaN. The shape is
        (num_items + 1, num_users), 8 bytes per cell.
        """
        if self._deviations is None:
            items, users, devs = [], [], []
            for u, row in self._by_user.items():
                mean = self.user_mean(u)
                for i, r in row.items():
                    items.append(i)
                    users.append(u - 1)
                    devs.append(r - mean)
            table = deviation_table(self.num_items + 1, self.num_users, items, users, devs)
            # one attribute store: concurrent first calls each build an equal table
            object.__setattr__(self, "_deviations", table)
        return self._deviations


def deviation_table(num_rows: int, num_columns: int, items, columns, deviations) -> np.ndarray:
    """A (num_rows, num_columns) table holding ``deviations[k]`` at
    (``items[k]``, ``columns[k]``) and NaN everywhere else."""
    table = np.full((num_rows, num_columns), np.nan)
    table[np.asarray(items, dtype=np.intp), np.asarray(columns, dtype=np.intp)] = deviations
    return table


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic split request: absolute ``test_count`` wins over ``test_fraction``."""

    test_fraction: float | None = None
    test_count: int | None = None
    seed: int = 0

    def resolve_count(self, n: int) -> int:
        if self.test_count is not None:
            count = int(self.test_count)
        elif self.test_fraction is not None:
            if not 0.0 < self.test_fraction < 1.0:
                raise ValueError("test_fraction must lie in (0, 1)")
            count = max(1, round_half_up(self.test_fraction * n))
        else:
            raise ValueError("SplitSpec needs test_count or test_fraction")
        if not 1 <= count <= n - 1:
            raise ValueError(f"split leaves no train or no test elements (n={n}, test={count})")
        return count


def _as_lines(source) -> Iterable[tuple[int, str]]:
    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip("\r\n").strip()
        if line:
            yield lineno, line


def parse_libsvm(source) -> LabeledDataset:
    """Parse LIBSVM text (``<label> <index>:<value> ...``, 1-based indices).

    Labels map to the binary classes by sign: raw values > 0 are positive,
    values <= 0 negative. Absent feature indices read as 0.0. The declared
    dimensionality is the largest index seen anywhere in the stream. A NaN
    or infinite feature value is a :class:`ParseError`.
    """
    rows: list[dict[int, float]] = []
    raw_labels: list[float] = []
    linenos: list[int] = []
    dim = 0
    for lineno, line in _as_lines(source):
        parts = line.split()
        try:
            raw = float(parts[0])
        except ValueError:
            raise ParseError(f"label {parts[0]!r} is not numeric", lineno) from None
        feats: dict[int, float] = {}
        for tok in parts[1:]:
            idx, _, val = tok.partition(":")
            try:
                j = int(idx)
                v = float(val)
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}", lineno) from None
            if j < 1:
                raise ParseError(f"feature index {j} must be >= 1", lineno)
            feats[j] = v
            dim = max(dim, j)
        rows.append(feats)
        raw_labels.append(raw)
        linenos.append(lineno)
    if not rows:
        raise ParseError("empty stream: no data points")
    distinct = sorted(set(raw_labels))
    if len(distinct) > 2:
        raise LabelCardinalityError(f"{len(distinct)} distinct labels {distinct}; binary input required")
    features = np.zeros((len(rows), dim))
    for i, feats in enumerate(rows):
        for j, v in feats.items():
            features[i, j - 1] = v
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite feature value", linenos[int(np.argmin(finite))])
    labels = np.where(np.asarray(raw_labels) > 0, POSITIVE, NEGATIVE)
    return LabeledDataset(features, labels)


def write_libsvm(dataset: LabeledDataset, stream=None) -> str | None:
    """Write a dataset in LIBSVM syntax, densely (every index emitted).

    The dense form makes the writer canonical: equal datasets serialize to
    identical bytes, and a parse/write/parse round trip is exact.
    """
    out = stream or io.StringIO()
    for i in range(len(dataset)):
        label = "+1" if dataset.labels[i] == POSITIVE else "-1"
        feats = " ".join(f"{j + 1}:{float(dataset.features[i, j])!r}" for j in range(dataset.dimensionality))
        out.write(f"{label} {feats}\n")
    if stream is None:
        return out.getvalue()
    return None


def parse_ratings_csv(source, rating_scale=(1.0, 5.0)) -> RatingMatrix:
    """Parse ``user,item,rating`` CSV text into a sparse rating matrix.

    An optional header line is detected by a non-numeric first field.
    Duplicate (user, item) pairs keep the last value; the collision count
    is recorded on the returned matrix. A rating that is not finite or lies
    outside ``rating_scale`` is a :class:`ParseError`.
    """
    ratings: dict[tuple[int, int], float] = {}
    duplicates = 0
    m = n = 0
    first_data_line = True
    for lineno, line in _as_lines(source):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", lineno)
        if first_data_line:
            first_data_line = False
            try:
                float(parts[0])
            except ValueError:
                continue  # header row
        try:
            u = int(parts[0])
            i = int(parts[1])
            r = float(parts[2])
        except ValueError:
            raise ParseError(f"non-numeric field in {parts!r}", lineno) from None
        if u < 1 or i < 1:
            raise ParseError(f"ids must be >= 1, got user={u} item={i}", lineno)
        if not (math.isfinite(r) and rating_scale[0] <= r <= rating_scale[1]):
            raise ParseError(f"rating {r!r} outside the scale {tuple(rating_scale)}", lineno)
        if (u, i) in ratings:
            duplicates += 1
        ratings[(u, i)] = r
        m = max(m, u)
        n = max(n, i)
    if not ratings:
        raise ParseError("empty stream: no ratings")
    return RatingMatrix(m, n, ratings, rating_scale=rating_scale, duplicate_count=duplicates)


def write_ratings_csv(matrix: RatingMatrix, stream=None) -> str | None:
    """Canonical ratings CSV: header plus rows sorted by (user, item)."""
    out = stream or io.StringIO()
    out.write("user,item,rating\n")
    for (u, i) in sorted(matrix.ratings):
        out.write(f"{u},{i},{float(matrix.ratings[(u, i)])!r}\n")
    if stream is None:
        return out.getvalue()
    return None


def split_dataset(dataset: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Exact, seed-deterministic partition into (train, test)."""
    count = spec.resolve_count(len(dataset))
    perm = np.random.default_rng(spec.seed).permutation(len(dataset))
    test_idx = np.sort(perm[:count])
    train_idx = np.sort(perm[count:])
    return dataset.subset(train_idx), dataset.subset(test_idx)


def split_ratings(
    matrix: RatingMatrix, spec: SplitSpec, active_fraction: float = 0.2
) -> tuple[RatingMatrix, tuple[tuple[int, int, float], ...]]:
    """Hold out test ratings for a deterministic subset of active users.

    ``active_fraction`` of users are selected as active (round half up,
    minimum 1); for each, ``spec.test_fraction`` (default 0.2) of their
    rated items moves to the test side, keeping at least one training
    rating per user. Users with fewer than two ratings yield no test items.
    Returns the reduced training matrix and (user, item, rating) triples.
    A ``spec.test_count`` has no per-user meaning and raises ``ValueError``.
    """
    if spec.test_count is not None:
        raise ValueError("split_ratings holds out a fraction per user; test_count is not supported")
    rng = np.random.default_rng(spec.seed)
    frac = spec.test_fraction if spec.test_fraction is not None else 0.2
    if not 0.0 < frac < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_active = min(matrix.num_users, max(1, round_half_up(active_fraction * matrix.num_users)))
    active = np.sort(rng.permutation(np.arange(1, matrix.num_users + 1))[:n_active])
    held: dict[int, set[int]] = {}
    test: list[tuple[int, int, float]] = []
    for u in active.tolist():
        items = sorted(matrix.user_ratings(u))
        if len(items) < 2:
            continue
        take = min(len(items) - 1, max(1, round_half_up(frac * len(items))))
        chosen = rng.permutation(len(items))[:take]
        held[u] = {items[c] for c in sorted(chosen.tolist())}
        for i in sorted(held[u]):
            test.append((u, i, matrix.ratings[(u, i)]))
    remaining = {
        (u, i): r for (u, i), r in matrix.ratings.items() if not (u in held and i in held[u])
    }
    train = RatingMatrix(
        matrix.num_users, matrix.num_items, remaining, rating_scale=matrix.rating_scale
    )
    return train, tuple(test)

