"""Ingestion of classification datasets and rating matrices.

Defines the two training-data containers used by every other module, the
LIBSVM / ratings-CSV parsers and writers, and deterministic train/test
splitting. Labels are binary: +1 (positive) and -1 (negative).

Each parser has two paths. Well-formed text goes through numpy's C reader
(``np.loadtxt``): dense LIBSVM lines (indices 1..d in order, one space
between tokens) and ``user,item,rating`` lines without spaces, in
printable ASCII. Everything else, and any value the line loop would
reject, goes to the line loop. The loop is the reference: the reader path
accepts a subset of what it accepts, with bit-identical values, and only
the loop decides what is malformed and reports the error and its line.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidDatasetError, LabelCardinalityError, ParseError, SplitConfigError, _integer

POSITIVE = 1
NEGATIVE = -1
ACTIVE_FRACTION = 0.2  # share of users whose ratings split_ratings holds out from
TEST_FRACTION = 0.2  # share of an active user's ratings split_ratings holds out
RATING_SCALE = (1.0, 5.0)  # lowest and highest rating the parsers and generators accept


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
            raise InvalidDatasetError("dataset must be a non-empty (n, d) array")
        if len(labs) != len(feats):
            raise InvalidDatasetError("labels and features disagree on point count")
        if not np.all(np.isin(labs, (POSITIVE, NEGATIVE))):
            raise InvalidDatasetError("labels must be +1 or -1")
        if not np.isfinite(feats).all():
            raise InvalidDatasetError("a feature value is NaN or infinite")
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
    """A sparse user-item rating matrix with 1-based user and item ids.

    Raises :class:`InvalidDatasetError` without a user, an item or a
    rating, for a rating outside the declared ids, and for a rating that
    is not finite or lies outside ``rating_scale``.
    """

    num_users: int
    num_items: int
    ratings: Mapping[tuple[int, int], float]
    rating_scale: tuple[float, float] = RATING_SCALE
    duplicate_count: int = 0
    _by_user: dict = field(default=None, init=False, repr=False, compare=False)
    _deviations: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("num_users", "num_items"):
            object.__setattr__(self, name, _integer(InvalidDatasetError, name, getattr(self, name), 1))
        if not self.ratings:
            raise InvalidDatasetError("rating matrix has no ratings")
        low, high = self.rating_scale
        by_user: dict[int, dict[int, float]] = {}
        for (u, i), r in self.ratings.items():
            if not (1 <= u <= self.num_users and 1 <= i <= self.num_items):
                raise InvalidDatasetError(
                    f"rating ({u}, {i}) outside declared {self.num_users}x{self.num_items} bounds")
            r = float(r)
            if not (low <= r <= high and math.isfinite(r)):
                raise InvalidDatasetError(f"rating {r!r} of ({u}, {i}) outside the scale {(low, high)}")
            by_user.setdefault(u, {})[i] = r
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
    """Deterministic split request: ``split_dataset`` holds out ``test_count``
    elements; ``split_ratings`` reads only the seed, an integer from 0."""

    test_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(SplitConfigError, "seed", self.seed, 0))

    def resolve_count(self, n: int) -> int:
        """The test count for ``n`` elements; :class:`SplitConfigError` unless it is an integer in 1..n-1."""
        if self.test_count is None:
            raise SplitConfigError("SplitSpec needs a test_count")
        name = f"test count (a split of {n} elements leaves no train or no test elements otherwise)"
        return _integer(SplitConfigError, name, self.test_count, 1, n - 1)


def _lines(source) -> list[str]:
    """The lines of ``source`` as iterating it yields them: a string is read
    as a text stream, whose lines end at "\n"."""
    return list(io.StringIO(source) if isinstance(source, str) else source)


def _as_lines(lines) -> Iterable[tuple[int, str]]:
    """(1-based line number, stripped line) of every line that is not blank."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip("\r\n").strip()
        if line:
            yield lineno, line


def _loadtxt(source, dtype, delimiter=None) -> np.ndarray | None:
    """``source`` read by numpy's C reader, one record of ``dtype`` per line,
    or None where the reader rejects it. A warning counts as a rejection, so
    what the reader accepts depends on neither numpy's version nor the
    warning filters."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _plain_text(lines, separators: bytes) -> tuple[str, np.ndarray] | None:
    """(text, separator bytes) of lines the C reader may read, else None.

    The lines qualify when each ends in one "\n" (the last may lack it, and
    an "\r" may come before it), they hold only printable ASCII, and no
    separator of ``separators`` or "\n" begins the text or follows another.
    The text is the lines joined with "\r" dropped, ending in "\n"; the
    separator bytes are those of its separators and line ends, in order.
    The loop's lines and stripping then cut the text into the same tokens.
    """
    if not lines:
        return None
    text = "".join(lines)
    if not text.isascii():
        return None
    ends = np.cumsum(np.fromiter(map(len, lines), np.intp, len(lines))) - 1
    if not text.endswith("\n"):
        text += "\n"
        ends[-1] += 1
    raw = np.frombuffer(text.encode("ascii"), np.uint8)
    if not np.array_equal(np.flatnonzero(raw == 10), ends):
        return None
    cr = raw == 13
    if cr.any():
        if not (raw[np.flatnonzero(cr) + 1] == 10).all():
            return None
        raw, text = raw[~cr], text.replace("\r", "")
    if ((raw < 32) & (raw != 10)).any() or (raw > 126).any():
        return None
    at = np.flatnonzero(np.logical_or.reduce([raw == c for c in separators + b"\n"]))
    if at[0] == 0 or (np.diff(at) == 1).any():
        return None
    return text, raw[at]


def _read_libsvm(lines) -> LabeledDataset | None:
    """The dataset of dense LIBSVM lines (each ``<label> 1:<v1> ... d:<vd>``,
    one space between tokens) as the C reader reads them, or None for any
    other text, or for values the loop would reject."""
    found = _plain_text(lines, b" :")
    if found is None:
        return None
    text, seps = found
    dim = int(np.argmax(seps == 10)) // 2  # the first line end follows d " " and ":" pairs
    layout = np.array([32, 58] * dim + [10], np.uint8)
    if not dim or len(seps) % len(layout) or (seps.reshape(-1, len(layout)) != layout).any():
        return None
    pair = [("index", np.int64), ("value", np.float64)]
    table = _loadtxt(io.StringIO(text.replace(":", " ")), [("label", np.float64), ("x", pair, (dim,))])
    if table is None:
        return None
    raw, indices, features = table["label"], table["x"]["index"], table["x"]["value"]
    if ((indices != np.arange(1, dim + 1)).any() or not np.isfinite(raw).all()
            or not np.isfinite(features).all() or len(np.unique(raw)) > 2):
        return None
    return LabeledDataset(np.ascontiguousarray(features), np.where(raw > 0, POSITIVE, NEGATIVE))


def parse_libsvm(source) -> LabeledDataset:
    """Parse LIBSVM text (``<label> <index>:<value> ...``, 1-based indices).

    Labels map to the binary classes by sign: raw values > 0 are positive,
    values <= 0 negative. Absent feature indices read as 0.0. The declared
    dimensionality is the largest index seen anywhere in the stream. A NaN
    label, or a NaN or infinite feature value, is a :class:`ParseError`.
    """
    lines = _lines(source)
    dataset = _read_libsvm(lines)
    return dataset if dataset is not None else _loop_libsvm(lines)


def _loop_libsvm(lines) -> LabeledDataset:
    """:func:`parse_libsvm` line by line: the reference, and the only path that raises."""
    rows: list[dict[int, float]] = []
    raw_labels: list[float] = []
    linenos: list[int] = []
    dim = 0
    for lineno, line in _as_lines(lines):
        parts = line.split()
        try:
            raw = float(parts[0])
        except ValueError:
            raise ParseError(f"label {parts[0]!r} is not numeric", lineno) from None
        if math.isnan(raw):
            raise ParseError(f"label {parts[0]!r} has no sign", lineno)
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


def parse_ratings_csv(source) -> RatingMatrix:
    """Parse ``user,item,rating`` CSV text into a sparse rating matrix.

    An optional header line is detected by a non-numeric first field.
    Duplicate (user, item) pairs keep the last value; the collision count
    is recorded on the returned matrix. A rating that is not finite or lies
    outside ``RATING_SCALE`` is a :class:`ParseError`.
    """
    lines = _lines(source)
    matrix = _read_ratings(lines)
    return matrix if matrix is not None else _loop_ratings(lines)


def _is_header(parts: list[str]) -> bool:
    """Whether the stripped fields of a first line name columns: the first is not a number."""
    try:
        float(parts[0])
    except ValueError:
        return True
    return False


def _read_ratings(lines) -> RatingMatrix | None:
    """The ratings of ``<user>,<item>,<rating>`` lines after an optional
    header line, as the C reader reads them, or None for any other text, or
    for values the loop would reject."""
    first = [p.strip() for p in lines[0].strip().split(",")] if lines else []
    if len(first) == 3 and _is_header(first):
        lines = lines[1:]
    found = _plain_text(lines, b", ")
    if found is None:
        return None
    text, seps = found
    if len(seps) % 3 or (seps.reshape(-1, 3) != np.array([44, 44, 10], np.uint8)).any():
        return None
    table = _loadtxt(io.StringIO(text), [("user", np.int64), ("item", np.int64), ("rating", np.float64)],
                     delimiter=",")
    if table is None:
        return None
    users, items, values = table["user"], table["item"], table["rating"]
    if (users < 1).any() or (items < 1).any() or not np.isfinite(values).all():
        return None
    if not RATING_SCALE[0] <= values.min().item() <= values.max().item() <= RATING_SCALE[1]:
        return None
    # a repeated pair keeps its first place and its last value, as in the loop
    ratings = dict(zip(zip(users.tolist(), items.tolist()), values.tolist()))
    return RatingMatrix(int(users.max()), int(items.max()), ratings,
                        duplicate_count=len(table) - len(ratings))


def _loop_ratings(lines) -> RatingMatrix:
    """:func:`parse_ratings_csv` line by line: the reference, and the only path that raises."""
    ratings: dict[tuple[int, int], float] = {}
    duplicates = 0
    m = n = 0
    first_data_line = True
    for lineno, line in _as_lines(lines):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", lineno)
        if first_data_line:
            first_data_line = False
            if _is_header(parts):
                continue
        try:
            u = int(parts[0])
            i = int(parts[1])
            r = float(parts[2])
        except ValueError:
            raise ParseError(f"non-numeric field in {parts!r}", lineno) from None
        if u < 1 or i < 1:
            raise ParseError(f"ids must be >= 1, got user={u} item={i}", lineno)
        if not (math.isfinite(r) and RATING_SCALE[0] <= r <= RATING_SCALE[1]):
            raise ParseError(f"rating {r!r} outside the scale {RATING_SCALE}", lineno)
        if (u, i) in ratings:
            duplicates += 1
        ratings[(u, i)] = r
        m = max(m, u)
        n = max(n, i)
    if not ratings:
        raise ParseError("empty stream: no ratings")
    return RatingMatrix(m, n, ratings, duplicate_count=duplicates)


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
    matrix: RatingMatrix, spec: SplitSpec
) -> tuple[RatingMatrix, tuple[tuple[int, int, float], ...]]:
    """Hold out test ratings for a deterministic subset of active users.

    ``ACTIVE_FRACTION`` of users are selected as active (round half up,
    minimum 1); for each, ``TEST_FRACTION`` of their rated items (round
    half up, minimum 1) moves to the test side, keeping at least one
    training rating per user. Users with fewer than two ratings yield no
    test items. Returns the reduced training matrix and (user, item,
    rating) triples. A ``spec.test_count`` has no per-user meaning and
    raises :class:`SplitConfigError`.
    """
    if spec.test_count is not None:
        raise SplitConfigError("split_ratings holds out a fraction per user; test_count is not supported")
    rng = np.random.default_rng(spec.seed)
    n_active = min(matrix.num_users, max(1, round_half_up(ACTIVE_FRACTION * matrix.num_users)))
    active = np.sort(rng.permutation(np.arange(1, matrix.num_users + 1))[:n_active])
    held: dict[int, set[int]] = {}
    test: list[tuple[int, int, float]] = []
    for u in active.tolist():
        items = sorted(matrix.user_ratings(u))
        if len(items) < 2:
            continue
        take = min(len(items) - 1, max(1, round_half_up(TEST_FRACTION * len(items))))
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

