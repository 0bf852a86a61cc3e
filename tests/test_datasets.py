import io

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


class TestLabeledDataset:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        """A NaN point would be skipped by every distance comparison, and a
        NaN box would drop its whole subtree; neither gets built."""
        feats = [[value, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.5]]
        with pytest.raises(InvalidDatasetError, match="NaN or infinite") as err:
            em.LabeledDataset(feats, [1, 1, -1, -1])
        assert isinstance(err.value, ElasticMineError) and isinstance(err.value, ValueError)


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
        ((0, 2), {(1, 1): 3.0}), ((2, 0), {(1, 1): 3.0}), ((2, 2), {}), ((2, 2), {(3, 1): 3.0}),
        *(((value, 2), {(1, 1): 3.0}) for value in NON_INTEGERS.values()),
        *(((2, value), {(1, 1): 3.0}) for value in NON_INTEGERS.values()),
    ], ids=["no-user", "no-item", "no-rating", "outside-ids", *(f"users-{name}" for name in NON_INTEGERS),
            *(f"items-{name}" for name in NON_INTEGERS)])
    def test_matrix_without_meaning_rejected(self, shape, ratings):
        with pytest.raises(InvalidDatasetError):
            em.RatingMatrix(*shape, ratings)

    def test_row_table_is_not_a_parameter(self):
        """The user rows are built from ``ratings``; a passed-in table would be replaced unseen."""
        with pytest.raises(TypeError, match="_by_user"):
            em.RatingMatrix(1, 1, {(1, 1): 3.0}, _by_user={7: {7: 1.0}})

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


class TestRatingsLike:
    @pytest.mark.parametrize("name", ["num_users", "num_items"])
    @pytest.mark.parametrize("value", [0, *NON_INTEGERS.values()], ids=["0", *NON_INTEGERS])
    def test_shape_must_be_an_integer_from_1(self, name, value):
        with pytest.raises(InvalidDatasetError, match=name):
            em.synthetic.ratings_like(**{name: value})

    @pytest.mark.parametrize("shape", [
        dict(num_users=40, num_items=60, min_per_user=15, max_per_user=120, groups=8),
        dict(num_users=25, num_items=10, min_per_user=3, max_per_user=40, groups=3),
        dict(num_users=1, num_items=1, min_per_user=1, max_per_user=1, groups=1),
        dict(num_users=12, num_items=5, min_per_user=5, max_per_user=5, groups=2),
    ])
    @pytest.mark.parametrize("seed", [0, 3, 97])
    def test_equals_per_rating_loop(self, shape, seed):
        matrix, groups = em.synthetic.ratings_like(**shape, seed=seed, return_groups=True)
        want, want_groups = _reference_ratings_like(**shape, seed=seed)
        assert list(matrix.ratings.items()) == list(want.items())
        assert all(type(u) is int and type(i) is int and type(r) is float
                   for (u, i), r in matrix.ratings.items())
        assert np.array_equal(groups, want_groups)
