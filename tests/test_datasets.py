import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elastic_mine as em
from elastic_mine.datasets import (
    _lines, _loop_libsvm, _loop_ratings, _read_libsvm, _read_ratings, round_half_up,
)
from elastic_mine.errors import (
    ElasticMineError, InvalidDatasetError, LabelCardinalityError, ParseError, SplitConfigError,
)

from conftest import NON_INTEGERS, non_integer_rows
from reference import DictRatingMatrix, dict_ratings_csv, dict_split_ratings, row_libsvm


# finite floats, with the edges a number's text turns on: signed zeros,
# subnormals, the largest magnitudes and integer values
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(-300, 300).map(float),
)


@st.composite
def _datasets(draw):
    """A dataset of 1 to 30 rows (a dataset is never empty) and 1 to 4
    features, many of whose values repeat."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    pool = draw(st.lists(_FINITE, min_size=1, max_size=5))
    values = draw(st.lists(_FINITE | st.sampled_from(pool), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from([em.POSITIVE, em.NEGATIVE]), min_size=n, max_size=n))
    return em.LabeledDataset(np.reshape(values, (n, d)), labels)


class TestParseLibsvm:
    def test_two_point_example(self):
        ds = em.parse_libsvm("+1 1:0.5 2:1.0\n-1 2:2.0")
        assert len(ds) == 2
        assert ds.dimensionality == 2
        assert ds.features[1].tolist() == [0.0, 2.0]
        assert ds.labels.tolist() == [em.POSITIVE, em.NEGATIVE]

    def test_empty_stream_errors(self):
        with pytest.raises(ParseError):
            em.parse_libsvm("")

    def test_fourclass_scale_file(self, fourclass, tmp_path):
        path = tmp_path / "fourclass.libsvm"
        with open(path, "w") as fh:
            em.write_libsvm(fourclass, fh)
        with open(path) as fh:
            parsed = em.parse_libsvm(fh)
        assert len(parsed) == 862
        assert parsed.dimensionality == 2

    def test_zero_one_labels(self):
        ds = em.parse_libsvm("1 1:1.0\n0 1:2.0")
        assert ds.labels.tolist() == [em.POSITIVE, em.NEGATIVE]

    def test_three_labels_rejected(self):
        with pytest.raises(LabelCardinalityError):
            em.parse_libsvm("1 1:1\n2 1:2\n3 1:3")

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError) as err:
            em.parse_libsvm("+1 1:0.5\n-1 oops")
        assert err.value.line == 2

    def test_non_numeric_label_reports_line(self):
        with pytest.raises(ParseError) as err:
            em.parse_libsvm("+1 1:0.5\nx 1:0.5")
        assert err.value.line == 2

    def test_nan_label_reports_line(self):
        """A NaN label has no sign, so no class."""
        with pytest.raises(ParseError, match="no sign") as err:
            em.parse_libsvm("+1 1:0.5\n-1 1:1.0\nnan 1:2.0\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line(self, value):
        with pytest.raises(ParseError) as err:
            em.parse_libsvm(f"+1 1:0.5 2:1.0\n-1 1:0.5\n+1 1:2.0 2:{value}\n")
        assert err.value.line == 3

    def test_round_trip(self, fourclass):
        text = em.write_libsvm(fourclass)
        again = em.parse_libsvm(text)
        assert np.array_equal(again.features, fourclass.features)
        assert np.array_equal(again.labels, fourclass.labels)
        assert em.write_libsvm(again) == text

    @given(dataset=_datasets())
    @settings(max_examples=200, deadline=None)
    def test_writer_equals_per_row_reference(self, dataset):
        assert em.write_libsvm(dataset) == row_libsvm(dataset)


class TestLabeledDataset:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        """A NaN point would be skipped by every distance comparison, and a
        NaN box would drop its whole subtree; neither gets built."""
        feats = [[value, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.5]]
        with pytest.raises(InvalidDatasetError, match="NaN or infinite") as err:
            em.LabeledDataset(feats, [1, 1, -1, -1])
        assert isinstance(err.value, ElasticMineError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 2), (0, 0)], ids=["no-column", "no-point", "neither"])
    def test_empty_array_rejected(self, shape):
        """A point needs a coordinate: with none, every distance would read 0.0."""
        with pytest.raises(InvalidDatasetError, match=re.escape(f"(n, d) with n, d >= 1, not of shape {shape}")):
            em.LabeledDataset(np.zeros(shape), [1, 1, -1, -1][: shape[0]])

    @pytest.mark.parametrize("indices", [[True, False, True, False], [0.7], [-1], [5], [], [[0, 1]]],
                             ids=["mask", "fraction", "negative", "past-the-end", "none", "two-d"])
    def test_subset_outside_the_points_rejected(self, indices):
        """A mask would be read as positions 1 and 0, a fraction truncated,
        a negative position wrapped to the end: none gets a plausible subset."""
        ds = em.LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
        with pytest.raises(InvalidDatasetError, match=re.escape("integers in 0..3")):
            ds.subset(indices)

    def test_subset_keeps_order_and_columns(self):
        ds = em.LabeledDataset([[0.0, 5.0], [1.0, 6.0], [2.0, 7.0], [3.0, 8.0]], [1, 1, -1, -1])
        sub = ds.subset(np.array([3, 0, 3], dtype=np.uint8))
        assert sub.features.tolist() == [[3.0, 8.0], [0.0, 5.0], [3.0, 8.0]] and sub.labels.tolist() == [-1, 1, -1]
        assert sub.features.flags.f_contiguous and ds.subset(range(2)).features.tolist() == [[0.0, 5.0], [1.0, 6.0]]


class TestRatingMatrix:
    @pytest.mark.parametrize("rating", [np.nan, np.inf, -np.inf, 9.0, 0.5],
                             ids=["nan", "inf", "minus-inf", "above-scale", "below-scale"])
    def test_rating_outside_scale_rejected(self, rating):
        """A NaN rating would make every mean NaN, and one off the scale
        skews the user's mean; neither matrix gets built."""
        ratings = {(1, 1): rating, (2, 1): 3.0, (1, 2): 4.0, (2, 2): 4.0}
        with pytest.raises(InvalidDatasetError, match="outside the scale") as err:
            em.RatingMatrix(2, 2, ratings)
        assert isinstance(err.value, ElasticMineError) and isinstance(err.value, ValueError)

    def test_rating_inside_own_scale_accepted(self):
        matrix = em.RatingMatrix(2, 2, {(1, 1): 9.0, (2, 1): 0.5}, rating_scale=(0.5, 10.0))
        assert matrix.user_ratings(1) == {1: 9.0}

    @pytest.mark.parametrize("shape, ratings", [
        ((0, 2), {(1, 1): 3.0}), ((2, 0), {(1, 1): 3.0}), ((2, 2), {}), ((2, 2), {(3, 1): 3.0}), ((2, 2), None),
        *(((value, 2), {(1, 1): 3.0}) for value in NON_INTEGERS.values()),
        *(((2, value), {(1, 1): 3.0}) for value in NON_INTEGERS.values()),
    ], ids=["no-user", "no-item", "no-rating", "outside-ids", "ratings-none",
            *(f"users-{name}" for name in NON_INTEGERS), *(f"items-{name}" for name in NON_INTEGERS)])
    def test_matrix_without_meaning_rejected(self, shape, ratings):
        with pytest.raises(InvalidDatasetError):
            em.RatingMatrix(*shape, ratings)

    def test_row_table_is_not_a_parameter(self):
        """The columns and user rows are built from ``ratings``; a passed-in table would be replaced unseen."""
        for name in ("_columns", "_rows", "_row_ptr"):
            with pytest.raises(TypeError, match=name):
                em.RatingMatrix(1, 1, {(1, 1): 3.0}, **{name: None})

    def test_nothing_sized_by_the_largest_id(self):
        """A matrix holds its ratings, not a slot per declared user: a user id
        of 10**12 costs what any other id costs."""
        big = 10**12
        matrix = em.parse_ratings_csv(f"{big},1,3\n1,2,4\n")
        assert matrix.num_users == big and matrix.user_ratings(big) == {1: 3.0} and matrix.user_mean(big) == 3.0
        assert matrix.user_ratings(2) == {} and matrix.user_mean(big - 1) is None
        assert em.write_ratings_csv(matrix) == f"user,item,rating\n1,2,4.0\n{big},1,3.0\n"

    def test_huge_item_ids_keep_the_order(self):
        """Users times item ids past 2**63 cannot wrap the (user, item) order."""
        big = 6 * 10**18
        matrix = em.parse_ratings_csv(f"3,1,2\n1,{big},3\n2,5,1\n1,2,4\n")
        assert [column.tolist() for column in matrix.rating_arrays()] == [
            [1, 1, 2, 3], [2, big, 5, 1], [4.0, 3.0, 1.0, 2.0]]

    @pytest.mark.parametrize("key", [(1.5, 1), (1, 2.0), ("1", 1)], ids=["float-user", "float-item", "str-user"])
    def test_non_integer_id_rejected(self, key):
        """An id like 1.5 would be truncated to user 1 by the rating arrays."""
        with pytest.raises(InvalidDatasetError, match="not an integer"):
            em.RatingMatrix(2, 2, {key: 3.0, (2, 2): 4.0})

    def test_rating_arrays_in_user_item_order(self):
        """One array per column, sorted as ``sorted(ratings)``, cached and read-only."""
        ratings = {(2, 1): 3, (1, 3): 4.5, (2, 3): 1.0, (1, 1): 2.25, (3, 2): 5.0}
        matrix = em.RatingMatrix(3, 3, ratings)
        users, items, values = matrix.rating_arrays()
        keys = sorted(ratings)
        assert list(zip(users.tolist(), items.tolist())) == keys
        assert values.tolist() == [float(ratings[k]) for k in keys]
        assert values.dtype == float
        assert matrix.rating_arrays()[0] is users
        with pytest.raises(ValueError):
            values[0] = 1.0

    def test_parser_reports_the_line_first(self):
        with pytest.raises(ParseError) as err:
            em.parse_ratings_csv("1,1,5\n2,1,nan\n")
        assert err.value.line == 2


class TestParseRatingsCsv:
    def test_example_matrix(self):
        from conftest import TABLE_RATINGS

        text = "\n".join(f"{u},{i},{r}" for (u, i), r in sorted(TABLE_RATINGS.items()))
        matrix = em.parse_ratings_csv(text)
        assert matrix.num_users == 12
        assert matrix.num_items == 5
        assert matrix.ratings[(1, 1)] == 5.0

    def test_single_rating(self):
        matrix = em.parse_ratings_csv("1,1,5")
        assert (matrix.num_users, matrix.num_items, matrix.num_ratings) == (1, 1, 1)

    def test_duplicate_last_wins(self):
        matrix = em.parse_ratings_csv("1,1,4\n1,1,5")
        assert matrix.ratings[(1, 1)] == 5.0
        assert matrix.duplicate_count == 1

    def test_header_detected(self):
        matrix = em.parse_ratings_csv("user,item,rating\n1,2,3.5")
        assert matrix.ratings[(1, 2)] == 3.5

    def test_non_numeric_field_reports_line(self):
        with pytest.raises(ParseError) as err:
            em.parse_ratings_csv("1,1,5\n2,x,3")
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["9", "0.5", "nan", "inf"])
    def test_rating_outside_scale_reports_line(self, value):
        with pytest.raises(ParseError) as err:
            em.parse_ratings_csv(f"user,item,rating\n1,1,5\n2,1,{value}\n")
        assert err.value.line == 3

    def test_rating_scale_bounds_accepted(self):
        low, high = em.datasets.RATING_SCALE
        matrix = em.parse_ratings_csv(f"1,1,{low}\n1,2,{high}")
        assert matrix.ratings == {(1, 1): low, (1, 2): high}
        assert matrix.rating_scale == (low, high)

    def test_round_trip(self, example_matrix):
        text = em.write_ratings_csv(example_matrix)
        again = em.parse_ratings_csv(text)
        assert again.ratings == dict(example_matrix.ratings)
        assert em.write_ratings_csv(again) == text


def _outcome(parse, *args):
    """What a parse gives, compared bit for bit: the result's fields, or the
    error's type, message and line."""
    try:
        out = parse(*args)
    except Exception as exc:  # noqa: BLE001 - both paths must fail alike
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(out, em.LabeledDataset):
        return [(a.dtype, a.shape, a.tobytes()) for a in (out.features, out.labels)]
    return (out.num_users, out.num_items, out.rating_scale, out.duplicate_count,
            [(type(u), u, type(i), i, r.hex()) for (u, i), r in out.ratings.items()])


def _text(clean: bool, plain, odd):
    """``plain`` text in a clean example; else mostly ``plain`` and sometimes ``odd``."""
    return plain if clean else st.one_of(plain, plain, plain, odd)


def _id(value: int, clean: bool):
    """An id or index: plain, or a spelling ``int`` or ``float`` also reads, or one neither reads."""
    return _text(clean, st.just(str(value)), st.sampled_from(
        [f"{value}.0", f"{value}e0", f"{value}_0", f"+{value}", f"0{value}", "１", f"-{value}", "0", ""]))


_ODD_VALUES = st.one_of(st.floats(width=64).map(repr), st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "1e-400", "-0", "1_0", "１", "+.5", "5.", "0x1p0", "1e", ""]))
_ODD_SEPARATORS = st.sampled_from(["  ", "\t", "\x0c", "\xa0", "\u2028", "\x1c", ":"])
_ODD_LINE_ENDS = st.sampled_from(["\r\n", "\n\n", "\n \n", " \n", "\x0c\n", "\r", "\u2028"])


@st.composite
def _libsvm_texts(draw):
    """LIBSVM text, dense or sparse: every token well formed in a clean
    example, any token odd in the loop's eyes in the others."""
    clean, dense, dim = draw(st.booleans()), draw(st.booleans()), draw(st.integers(1, 3))
    labels = _text(clean, st.sampled_from(["+1", "-1"]), st.sampled_from(["1", "0", "2", "1.0", "nan", "x"]))
    values = _text(clean, st.floats(-1e6, 1e6).map(repr), _ODD_VALUES)
    text = draw(_text(clean, st.just(""), st.sampled_from(["label features\n", "# header\n"])))
    for _ in range(draw(st.integers(1, 5))):
        indices = range(1, dim + 1) if dense else draw(st.lists(st.integers(1, dim + 1), max_size=dim + 1))
        tokens = [draw(labels)] + [f"{draw(_id(j, clean))}:{draw(values)}" for j in indices]
        text += tokens[0] + "".join(draw(_text(clean, st.just(" "), _ODD_SEPARATORS)) + t for t in tokens[1:])
        text += draw(_text(clean, st.just("\n"), _ODD_LINE_ENDS))
    return text


@st.composite
def _ratings_texts(draw):
    """Ratings CSV with repeated (user, item) pairs: every field well formed
    in a clean example, any field odd in the others, extra or missing ones
    and ratings outside the scale included."""
    clean = draw(st.booleans())
    header = st.sampled_from(["", "user,item,rating\n"])
    text = draw(_text(clean, header, st.sampled_from(["u,i\n", "user,1,2\n", "\n"])))
    ratings = _text(clean, st.floats(1, 5).map(repr) | st.sampled_from(["1", "5", "3"]),
                    _ODD_VALUES | st.sampled_from(["0.5", "6"]))
    for _ in range(draw(st.integers(1, 6))):
        fields = [draw(_id(draw(st.integers(1, 3)), clean)) for _ in range(2)] + [draw(ratings)]
        fields = draw(_text(clean, st.just(fields), st.sampled_from([fields[:2], fields + ["1"]])))
        separator = draw(_text(clean, st.just(","), st.sampled_from([", ", " ,", ",\xa0", ",,"])))
        text += separator.join(fields) + draw(_text(clean, st.just("\n"), _ODD_LINE_ENDS))
    return text


class TestReaderEqualsLoop:
    """The numpy reader path reads only text the line loop reads, to equal bits;
    everything else goes to the loop, which alone reports errors."""

    @given(text=_libsvm_texts())
    @settings(max_examples=300, deadline=None)
    def test_libsvm(self, text):
        assert _outcome(em.parse_libsvm, text) == _outcome(_loop_libsvm, _lines(text))

    @given(text=_ratings_texts())
    @settings(max_examples=300, deadline=None)
    def test_ratings(self, text):
        assert _outcome(em.parse_ratings_csv, text) == _outcome(_loop_ratings, _lines(text))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_written_files_take_the_reader(self, fourclass, example_matrix, newline):
        """What the writers write, as a string or a stream, is read by numpy's reader."""
        libsvm = em.write_libsvm(fourclass).replace("\n", newline)
        csv = em.write_ratings_csv(example_matrix).replace("\n", newline)
        for source in (libsvm, io.StringIO(libsvm)):
            assert _read_libsvm(_lines(source)) is not None
        assert _read_libsvm(_lines(libsvm.rstrip())) is not None  # a last line without its end
        for source in (csv, io.StringIO(csv)):
            assert _read_ratings(_lines(source)) is not None

    @pytest.mark.parametrize("text", [
        "+1 1:0.5\x0c2:0.25\n", "+1 1:0.5\u20282:0.25\n", "+1 1:0.5 2:0.25\n\x1c-1 1:1 2:1\n",
        "+1 1.0:0.5\n", "+1 1e0:0.5\n", "+1 1:0.5 1:0.25\n", "+1 2:0.5 1:0.25\n", "+1 1: 0.5\n",
        "+1 1:0.5:2 0.25\n", "+1 1:1e400\n", "1 1:1\n2 1:2\n3 1:3\n", "+1 １:0.5\n",
    ])
    def test_libsvm_the_reader_leaves_to_the_loop(self, text):
        assert _read_libsvm(_lines(text)) is None

    @pytest.mark.parametrize("text", [
        "1,1,5\n1,1,6\n", "1,1,nan\n", "0,1,5\n", "1.0,1,5\n", "1e0,1,5\n", "1_0,1,5\n",
        "１,1,5\n", "1,1,5,\n", "1,1\n", "1, 1,5\n", "1,1,5\n\n2,1,5\n", "1,1,1e400\n",
    ])
    def test_ratings_the_reader_leaves_to_the_loop(self, text):
        assert _read_ratings(_lines(text)) is None


class TestSplit:
    def test_fourclass_absolute_count(self, fourclass):
        train, test = em.split_dataset(fourclass, em.SplitSpec(test_count=100, seed=7))
        assert len(test) == 100
        assert len(train) == 762

    def test_deterministic_under_seed(self, fourclass):
        for seed in range(100):
            spec = em.SplitSpec(test_count=216, seed=seed)
            a_train, a_test = em.split_dataset(fourclass, spec)
            b_train, b_test = em.split_dataset(fourclass, spec)
            assert np.array_equal(a_test.features, b_test.features)
            assert np.array_equal(a_train.features, b_train.features)

    def test_partition_is_exact(self, fourclass):
        train, test = em.split_dataset(fourclass, em.SplitSpec(test_count=259, seed=3))
        assert len(train) + len(test) == len(fourclass)
        combined = np.vstack([train.features, test.features])
        assert np.array_equal(
            np.sort(combined, axis=0), np.sort(fourclass.features, axis=0)
        )

    def test_count_leaving_empty_train_rejected(self):
        ds = em.LabeledDataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(SplitConfigError):
            em.split_dataset(ds, em.SplitSpec(test_count=2, seed=0))

    @pytest.mark.parametrize("split", non_integer_rows({
        "test-count": (lambda ds, m, v: em.split_dataset(ds, em.SplitSpec(test_count=v)),),
        "seed": (lambda ds, m, v: em.split_dataset(ds, em.SplitSpec(test_count=100, seed=v)),),
        "ratings-seed": (lambda ds, m, v: em.split_ratings(m, em.SplitSpec(seed=v)),),
    }) + [pytest.param(lambda ds, m: em.split_dataset(ds, em.SplitSpec(test_count=100, seed=-1)),
                       id="seed-negative")])
    def test_split_setting_must_be_an_integer(self, fourclass, example_matrix, split):
        """A fractional count used to be truncated, and numpy read a bool seed as 0 or 1."""
        with pytest.raises(SplitConfigError):
            split(fourclass, example_matrix)

    def test_split_without_a_test_share_rejected(self, fourclass):
        with pytest.raises(SplitConfigError, match="needs a test_count"):
            em.split_dataset(fourclass, em.SplitSpec())

    def test_rounding_rule(self):
        assert round_half_up(2.4) == 2
        assert round_half_up(2.5) == 3
        assert round_half_up(0.2) == 0

    def test_ratings_split_active_users(self, example_matrix):
        train, test = em.split_ratings(example_matrix, em.SplitSpec(seed=1))
        # 20% of 12 users rounds (half up) to 2 active users
        active = {u for u, _, _ in test}
        assert len(active) <= 2
        for u, i, r in test:
            assert (u, i) not in train.ratings
            assert example_matrix.ratings[(u, i)] == r
        assert len(train.ratings) + len(test) == example_matrix.num_ratings

    def test_ratings_split_rejects_test_count(self, example_matrix):
        # the held-out share is per active user, so an absolute count has no meaning
        with pytest.raises(SplitConfigError, match="test_count"):
            em.split_ratings(example_matrix, em.SplitSpec(test_count=3, seed=1))

    def test_ratings_split_keeps_training_rating(self):
        matrix = em.synthetic.ratings_like(num_users=40, num_items=60, seed=5)
        train, test = em.split_ratings(matrix, em.SplitSpec(seed=9))
        for u in {u for u, _, _ in test}:
            assert train.user_ratings(u), "active user lost every training rating"

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_ratings_split_property(self, seed):
        matrix = em.synthetic.ratings_like(num_users=25, num_items=30, seed=2)
        train, test = em.split_ratings(matrix, em.SplitSpec(seed=seed))
        again_train, again_test = em.split_ratings(matrix, em.SplitSpec(seed=seed))
        assert test == again_test
        assert train.ratings == again_train.ratings
        held = {(u, i) for u, i, _ in test}
        assert held.isdisjoint(train.ratings.keys())


def _bits(value):
    """A float's bits as text (None stays None), so that 0.0 and -0.0 differ."""
    return None if value is None else float(value).hex()


def _items_bits(mapping):
    return [(key, _bits(r)) for key, r in mapping.items()]


@st.composite
def _rating_maps(draw):
    """(num_users, num_items, rating_scale, ratings): distinct (user, item)
    keys in a random insertion order, so some users rate nothing, on a
    scale that may hold 0, with signed zeros and the scale's ends among
    the ratings."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    low, high = scale = draw(st.sampled_from([em.datasets.RATING_SCALE, (0.0, 5.0), (-2.5, 2.5)]))
    marks = [v for v in (low, high, 0.0, -0.0, 1.0, 2.5, 3.0) if low <= v <= high]
    values = st.sampled_from(marks) | st.floats(low, high)
    keys = draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, n)), min_size=1, max_size=m * n, unique=True))
    return m, n, scale, {key: draw(values) for key in keys}


def _made(build):
    """What a constructor gives: the object, or its error's type and message."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - both models must fail alike
        return type(exc), str(exc)


class TestColumnsEqualDictModel:
    """The array-backed matrix answers every question as the dict model of
    ``tests/reference.py`` does, to the bit."""

    @given(case=_rating_maps())
    @settings(max_examples=200, deadline=None)
    def test_values(self, case):
        m, n, scale, ratings = case
        matrix, want = em.RatingMatrix(m, n, ratings, scale), DictRatingMatrix(m, n, ratings, scale)
        assert _items_bits(matrix.ratings) == _items_bits(want.ratings)
        assert matrix.num_ratings == len(want.ratings)
        for u in range(m + 2):
            assert _items_bits(matrix.user_ratings(u)) == _items_bits(want.user_ratings(u))
            assert _bits(matrix.user_mean(u)) == _bits(want.user_mean(u))
        assert _bits(matrix.global_mean()) == _bits(want.global_mean())
        for got, expected in zip(matrix.rating_arrays(), want.rating_arrays(), strict=True):
            assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes())
        assert matrix.deviations().tobytes() == want.deviations().tobytes()
        reordered = dict(reversed(ratings.items()))
        assert matrix == em.RatingMatrix(m, n, reordered, scale)
        key, value = next(iter(ratings.items()))
        for other in (scale[0], scale[1], -value if scale[0] <= -value <= scale[1] else value):  # -0.0 equals 0.0
            changed = {**ratings, key: other}
            assert (matrix == em.RatingMatrix(m, n, changed, scale)) == (want == DictRatingMatrix(m, n, changed, scale))
        assert matrix != em.RatingMatrix(m, n, ratings, scale, duplicate_count=1)

    @given(case=_rating_maps())
    @settings(max_examples=100, deadline=None)
    def test_split_and_round_trip(self, case):
        m, n, scale, ratings = case
        matrix, want = em.RatingMatrix(m, n, ratings, scale), DictRatingMatrix(m, n, ratings, scale)
        for seed in range(3):
            train, test = em.split_ratings(matrix, em.SplitSpec(seed=seed))
            want_train, want_test = dict_split_ratings(want, seed)
            assert _items_bits(train.ratings) == _items_bits(want_train.ratings)
            assert [(u, i, _bits(r)) for u, i, r in test] == [(u, i, _bits(r)) for u, i, r in want_test]
            assert train.rating_scale == scale
        text = em.write_ratings_csv(matrix)
        assert text == dict_ratings_csv(want)
        if all(em.datasets.RATING_SCALE[0] <= r <= em.datasets.RATING_SCALE[1] for r in ratings.values()):
            again = em.parse_ratings_csv(text)
            assert _items_bits(again.ratings) == _items_bits(dict(sorted(want.ratings.items())))
            assert em.write_ratings_csv(again) == text

    @given(case=_rating_maps(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_bad_rating_named(self, case, data):
        m, n, scale, ratings = case
        bad = st.sampled_from([
            ((0, 1), 1.0), ((m + 1, 1), 1.0), ((1, n + 1), 1.0), ((1, -2), 1.0), ((2 ** 70, 1), 1.0),
            ((1.5, 1), 1.0), (("1", 1), 1.0), ((1, 2.5), 1.0), ((1, 1), float("nan")), ((1, 1), float("inf")),
            ((2, 1), scale[1] + 1), ((1, 2), scale[0] - 0.5)])
        pairs = list(ratings.items())
        for pair in data.draw(st.lists(bad, min_size=1, max_size=3)):
            pairs.insert(data.draw(st.integers(0, len(pairs))), pair)
        given_map = dict(pairs)
        got = _made(lambda: em.RatingMatrix(m, n, given_map, scale))
        want = _made(lambda: DictRatingMatrix(m, n, given_map, scale))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert _items_bits(got.ratings) == _items_bits(want.ratings)

    @given(case=_rating_maps(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_csv_with_repeated_pairs(self, case, data):
        """A repeated pair keeps its first place and its last value, and counts as a duplicate."""
        _, _, _, ratings = case
        lines = data.draw(st.lists(st.tuples(st.sampled_from(list(ratings)), st.floats(1, 5)), min_size=1, max_size=12))
        text = "".join(f"{u},{i},{r!r}\n" for (u, i), r in lines)
        assert _read_ratings(_lines(text)) is not None
        want: dict = {}
        for key, r in lines:
            want[key] = r
        matrix = em.parse_ratings_csv(text)
        assert _items_bits(matrix.ratings) == _items_bits(want)
        assert matrix.duplicate_count == len(lines) - len(want)
        assert (matrix.num_users, matrix.num_items) == (max(u for u, _ in want), max(i for _, i in want))


def test_ratings_hold_no_object_per_rating():
    """The default generator and the cf-ratings split keep their ratings as
    columns: their traced peak stays below a bound that the dict model,
    run on the same ratings, exceeds."""
    bound = 6e6

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: em.split_ratings(em.synthetic.ratings_like(), em.SplitSpec(seed=11))) < bound
    columns = [c.tolist() for c in em.synthetic.ratings_like().rating_arrays()]
    assert peak(lambda: dict_split_ratings(DictRatingMatrix(600, 800, dict(zip(zip(*columns[:2]), columns[2]))),
                                           11)) > bound


def _reference_ratings_like(num_users, num_items, min_per_user, max_per_user, groups, seed):
    """The per-rating generator loop ``synthetic.ratings_like`` must reproduce."""
    rng = np.random.default_rng(seed)
    user_group = rng.integers(0, groups, size=num_users)
    group_vec = rng.normal(0.0, 1.0, size=(groups, 4))
    item_vec = rng.normal(0.0, 1.0, size=(num_items, 4))
    item_bias = rng.normal(0.0, 0.3, size=num_items)
    ratings = {}
    for u in range(num_users):
        count = int(rng.integers(min_per_user, max_per_user + 1))
        items = rng.choice(num_items, size=min(count, num_items), replace=False)
        taste = group_vec[user_group[u]] + rng.normal(0.0, 0.25, size=4)
        for i in items:
            mu = 3.0 + 0.55 * float(taste @ item_vec[i]) + item_bias[i] + rng.normal(0.0, 0.35)
            ratings[(u + 1, int(i) + 1)] = float(np.clip(round(mu), 1.0, 5.0))
    return ratings, user_group


_LOOP_SHAPES = [
    dict(num_users=40, num_items=60, min_per_user=15, max_per_user=120, groups=8),
    dict(num_users=25, num_items=10, min_per_user=3, max_per_user=40, groups=3),
    dict(num_users=1, num_items=1, min_per_user=1, max_per_user=1, groups=1),
    dict(num_users=12, num_items=5, min_per_user=5, max_per_user=5, groups=2),
]

# each setting of ratings_like, and the largest value it rejects under the defaults
_BELOW = {"num_users": 0, "num_items": 0, "groups": 0, "min_per_user": -1, "max_per_user": 14, "seed": -1}


class TestRatingsLike:
    @pytest.mark.parametrize("name, value", [
        pytest.param(name, value, id=f"{label}-{name}")
        for name, below in _BELOW.items() for label, value in {str(below): below, **NON_INTEGERS}.items()
    ])
    def test_shape_must_be_an_integer_from_1(self, name, value):
        """Every count and the seed is an integer from its least value: 1 for
        the shape and the groups, 0 for ``min_per_user`` and the seed, and
        ``min_per_user`` (15 by default) for ``max_per_user``."""
        with pytest.raises(InvalidDatasetError, match=name):
            em.synthetic.ratings_like(**{name: value})
        if type(value) is int:  # the least value is accepted
            em.synthetic.ratings_like(**{name: value + 1})

    @pytest.mark.parametrize("shape, seed", [
        *(pytest.param(shape, seed, id=f"{seed}-shape{k}")
          for seed in (0, 3, 97) for k, shape in enumerate(_LOOP_SHAPES)),
        # the matrices the golden digests and the demos are made from
        *(pytest.param(dict(num_users=m, num_items=n, min_per_user=15, max_per_user=120, groups=8), 3,
                       id=f"3-{m}x{n}") for m, n in [(600, 800), (120, 60), (400, 300), (120, 80)]),
    ])
    def test_equals_per_rating_loop(self, shape, seed):
        matrix, groups = em.synthetic.ratings_like(**shape, seed=seed, return_groups=True)
        want, want_groups = _reference_ratings_like(**shape, seed=seed)
        assert list(matrix.ratings.items()) == list(want.items())
        assert all(type(u) is int and type(i) is int and type(r) is float
                   for (u, i), r in matrix.ratings.items())
        assert np.array_equal(groups, want_groups)
