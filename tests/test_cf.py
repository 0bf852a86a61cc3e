import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elastic_mine as em
from elastic_mine.errors import (
    BookKindError, DivergenceError, ForeignStateError, InvalidQueryError, UndefinedMetricError,
)

from conftest import NON_INTEGERS, TABLE_FEATURES, aggregates_of
from reference import ItemAggregate, ancestor_at, cf_book_from_hierarchy, node_weight


class TestIncrementalSvd:
    def test_rank_one_matrix_recovered(self):
        ratings = {(u, i): float(u) for u in range(1, 5) for i in range(1, 5)}
        matrix = em.RatingMatrix(4, 4, ratings)
        feats = em.train_incremental_svd(matrix, d=1, learning_rate=0.001,
                                         epochs_per_feature=2000, seed=0)
        # reconstruct through the same residual bookkeeping: refit residuals
        # must be tiny for an exactly rank-1 matrix
        err = _reconstruction_rmse(matrix, d=1, lr=0.001, epochs=2000, seed=0)
        assert err < 0.05
        assert feats.shape == (4, 1)

    def test_d_zero_rejected(self, example_matrix):
        with pytest.raises(ValueError):
            em.train_incremental_svd(example_matrix, d=0)

    def test_identical_rating_rows_share_features(self, example_matrix):
        # users 10 and 12 rate exactly the same items with the same values
        feats = em.train_incremental_svd(example_matrix, d=2,
                                         epochs_per_feature=2000, seed=5)
        assert np.linalg.norm(feats[9] - feats[11]) < 1e-3

    def test_similar_raters_land_close(self):
        """Users of one taste group end nearer each other than across groups."""
        matrix, groups = em.synthetic.ratings_like(
            num_users=60, num_items=50, groups=3, seed=4, return_groups=True
        )
        feats = em.train_incremental_svd(matrix, d=3, seed=1)
        within, across = [], []
        for a in range(60):
            for b in range(a + 1, 60):
                d = float(np.linalg.norm(feats[a] - feats[b]))
                (within if groups[a] == groups[b] else across).append(d)
        assert np.mean(within) < np.mean(across)

    def test_deterministic(self, example_matrix):
        a = em.train_incremental_svd(example_matrix, d=2, epochs_per_feature=30, seed=9)
        b = em.train_incremental_svd(example_matrix, d=2, epochs_per_feature=30, seed=9)
        assert np.array_equal(a, b)

    def test_divergence_reported(self, example_matrix):
        with pytest.raises(DivergenceError) as err:
            em.train_incremental_svd(example_matrix, d=1, learning_rate=1e6,
                                     epochs_per_feature=50, seed=0)
        assert err.value.epoch is not None

    def test_divergence_away_from_the_first_rating_reported(self):
        # user 1 / item 1 stay finite; only the second cell's pair blows up
        matrix = em.RatingMatrix(2, 2, {(1, 1): 1.0, (2, 2): 5.0})
        with pytest.raises(DivergenceError) as err:
            em.train_incremental_svd(matrix, d=2, learning_rate=0.5, epochs_per_feature=200)
        assert err.value.feature is not None
        assert err.value.epoch is not None
        assert _svd_outcome(_reference_svd, matrix, 2, 0.5, 200, 0) == (
            "diverged", err.value.feature, err.value.epoch, str(err.value))


def _reconstruction_rmse(matrix, d, lr, epochs, seed):
    feats = em.train_incremental_svd(matrix, d, lr, epochs, seed)
    # independent oracle: the matrix is exactly rank one, so the best rank-1
    # reconstruction is the matrix itself; compare against per-cell averages
    # of the learned factors by re-deriving item factors from user ones
    U = feats[:, 0]
    keys = sorted(matrix.ratings)
    # least-squares item factor given frozen user factors
    items = {}
    for (u, i) in keys:
        items.setdefault(i, []).append((U[u - 1], matrix.ratings[(u, i)]))
    V = {i: sum(u * r for u, r in rows) / sum(u * u for u, _ in rows) for i, rows in items.items()}
    sq = [(matrix.ratings[(u, i)] - U[u - 1] * V[i]) ** 2 for (u, i) in keys]
    return math.sqrt(sum(sq) / len(sq))


def _reference_svd(matrix, d, learning_rate, epochs_per_feature, seed):
    """The sequential SGD loop the wavefront schedule must reproduce bit for bit."""
    m, n = matrix.num_users, matrix.num_items
    rng = np.random.default_rng(seed)
    U = 0.1 + rng.uniform(-1e-4, 1e-4, size=(m, d))
    V = 0.1 + rng.uniform(-1e-4, 1e-4, size=(n, d))
    keys = sorted(matrix.ratings)
    users = [u - 1 for u, _ in keys]
    items = [i - 1 for _, i in keys]
    values = [float(matrix.ratings[k]) for k in keys]
    residual = list(values)
    lr = learning_rate
    for f in range(d):
        uf = U[:, f].tolist()
        vf = V[:, f].tolist()
        for epoch in range(epochs_per_feature):
            for j in range(len(values)):
                u = users[j]
                i = items[j]
                err = residual[j] - uf[u] * vf[i]
                u_old = uf[u]
                uf[u] = u_old + lr * err * vf[i]
                vf[i] += lr * err * u_old
            if not all(math.isfinite(x) for x in uf + vf):
                raise DivergenceError(
                    f"non-finite parameters at feature {f}, epoch {epoch}", feature=f, epoch=epoch
                )
        U[:, f] = uf
        V[:, f] = vf
        for j in range(len(values)):
            residual[j] -= uf[users[j]] * vf[items[j]]
    if not np.all(np.isfinite(U)):
        raise DivergenceError("non-finite user features after training")
    return U, V


def _svd_outcome(train, matrix, d, lr, epochs, seed):
    """U and V as bytes, or the DivergenceError's feature, epoch and message."""
    try:
        U, V = train(matrix, d, lr, epochs, seed)
    except DivergenceError as exc:
        return ("diverged", exc.feature, exc.epoch, str(exc))
    return ("trained", U.tobytes(), V.tobytes())


def _wavefront_svd(matrix, d, lr, epochs, seed):
    return em.train_incremental_svd(matrix, d, lr, epochs, seed, return_item_features=True)


@st.composite
def sparse_rating_matrices(draw):
    """Non-integer ratings, with up to two users and two items that have none."""
    rated_users = draw(st.integers(1, 9))
    rated_items = draw(st.integers(1, 9))
    cells = draw(st.lists(
        st.tuples(st.integers(1, rated_users), st.integers(1, rated_items)),
        min_size=1, max_size=rated_users * rated_items, unique=True,
    ))
    values = draw(st.lists(st.floats(1.0, 5.0), min_size=len(cells), max_size=len(cells)))
    return em.RatingMatrix(rated_users + draw(st.integers(0, 2)),
                           rated_items + draw(st.integers(0, 2)), dict(zip(cells, values)))


class TestWavefrontSvd:
    """The wavefront schedule equals the sequential SGD loop bit for bit."""

    @given(sparse_rating_matrices(), st.integers(1, 3), st.sampled_from([0.001, 0.01, 0.05]),
           st.integers(1, 30), st.integers(0, 2**16))
    @example(em.RatingMatrix(1, 1, {(1, 1): 3.5}), 2, 0.01, 5, 0)
    @example(em.RatingMatrix(3, 4, {(2, 3): 4.25}), 3, 0.05, 30, 1)
    @settings(max_examples=100, deadline=None)
    def test_equals_sequential_loop(self, matrix, d, lr, epochs, seed):
        want = _svd_outcome(_reference_svd, matrix, d, lr, epochs, seed)
        assert want[0] == "trained"
        assert _svd_outcome(_wavefront_svd, matrix, d, lr, epochs, seed) == want

    def test_equals_sequential_loop_on_grouped_ratings(self):
        matrix = em.synthetic.ratings_like(num_users=80, num_items=60, seed=7)
        args = (matrix, 3, 0.001, 15, 4)
        assert _svd_outcome(_wavefront_svd, *args) == _svd_outcome(_reference_svd, *args)

    @pytest.mark.parametrize("lr", [1e6, 1.0, 0.3])
    def test_divergence_parity(self, example_matrix, lr):
        want = _svd_outcome(_reference_svd, example_matrix, 3, lr, 50, 0)
        assert want[0] == "diverged"
        assert _svd_outcome(_wavefront_svd, example_matrix, 3, lr, 50, 0) == want

    @pytest.mark.parametrize("d, epochs, lr", [
        (0, 10, 0.001), (-1, 10, 0.001), (2, 0, 0.001), (2, 10, 0.0), (2, 10, -0.001),
        (2, 10, math.nan), (2, 10, math.inf),
        *(pytest.param(value, 10, 0.001, id=f"d-{name}") for name, value in NON_INTEGERS.items()),
        *(pytest.param(2, value, 0.001, id=f"epochs-{name}") for name, value in NON_INTEGERS.items()),
    ])
    def test_bad_settings_rejected(self, example_matrix, d, epochs, lr):
        with pytest.raises(em.TrainingConfigError) as err:
            em.train_incremental_svd(example_matrix, d, lr, epochs)
        assert isinstance(err.value, ValueError)
        assert isinstance(err.value, em.ElasticMineError)

    @pytest.mark.parametrize("seed", [-1, *NON_INTEGERS.values()], ids=["negative", *NON_INTEGERS])
    def test_seed_must_be_an_integer_from_0(self, example_matrix, seed):
        with pytest.raises(em.TrainingConfigError, match="seed"):
            em.train_incremental_svd(example_matrix, seed=seed)


class TestNodeWeight:
    def test_perfect_agreement(self):
        aggs = {1: ItemAggregate(4.0, 3.0, 2), 2: ItemAggregate(2.0, 3.0, 2)}
        w = node_weight({1: 5.0, 2: 3.0}, 4.0, aggs)
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_perfect_disagreement(self):
        aggs = {1: ItemAggregate(2.0, 3.0, 2), 2: ItemAggregate(4.0, 3.0, 2)}
        w = node_weight({1: 5.0, 2: 3.0}, 4.0, aggs)
        assert w == pytest.approx(-1.0, abs=1e-12)

    def test_no_overlap_signals_none(self):
        aggs = {9: ItemAggregate(4.0, 3.0, 1)}
        assert node_weight({1: 5.0}, 5.0, aggs) is None

    def test_degenerate_variance_is_zero(self):
        aggs = {1: ItemAggregate(3.0, 3.0, 2), 2: ItemAggregate(3.0, 3.0, 2)}
        assert node_weight({1: 5.0, 2: 3.0}, 4.0, aggs) == 0.0

    def test_weights_stay_in_range(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n_items = int(rng.integers(1, 6))
            items = rng.choice(10, size=n_items, replace=False) + 1
            user = {int(i): float(rng.integers(1, 6)) for i in items}
            aggs = {
                int(i): ItemAggregate(float(rng.uniform(1, 5)), float(rng.uniform(1, 5)), 2)
                for i in rng.choice(10, size=int(rng.integers(1, 8)), replace=False) + 1
            }
            w = node_weight(user, float(np.mean(list(user.values()))), aggs)
            if w is not None:
                assert -1.0 - 1e-9 <= w <= 1.0 + 1e-9


def make_two_node_book():
    """A hand-written two-node code with weights 1 and 0.5 for the test query."""
    # node 2's item-2 deviation is y = 2 - sqrt(3), which solves
    # (1 - y)^2 = (1 + y^2) / 2 and so gives weight 1/2
    return em.load_codebook(f"""\
elastic-mine-codebook 1
kind rtree-cf
seed 0
config {{}}
roots 0
features 0 0
nodes 3
N 0 0 0 - - C 1 2 M 0.0 | 1.0 P 0 1
N 1 0 1 0 - C  M 0.0 | 1.0 P 0
A 1 1 5.0 4.0 1
A 1 2 2.0 3.0 1
A 1 10 5.0 4.0 1
N 2 0 1 0 - C  M 0.0 | 1.0 P 1
A 2 1 4.0 3.0 1
A 2 2 3.0 {1.0 + math.sqrt(3.0)!r} 1
A 2 10 3.0 4.0 1
end
""")


class TestMalformedQuery:
    @pytest.mark.parametrize("ratings, mean", [
        ({1: 3.0, 3: 4.0}, math.nan), ({1: 3.0}, math.inf), ({}, math.nan),
        ({1: math.nan, 3: 4.0}, 3.5), ({1: 3.0, 3: -math.inf}, 3.5),
    ], ids=["nan-mean", "inf-mean", "cold-nan-mean", "nan-rating", "minus-inf-rating"])
    def test_query_without_answer_rejected(self, ratings, mean):
        """A NaN mean would predict NaN as a fallback, and a NaN rating would drop out unseen."""
        with pytest.raises(InvalidQueryError):
            em.CfQuery(1, 2, ratings, mean)

    @pytest.mark.parametrize("field", ["user", "item"])
    @pytest.mark.parametrize("value", NON_INTEGERS.values(), ids=NON_INTEGERS)
    def test_ids_must_be_integers(self, field, value):
        """User 3.0 would predict as user 3, and item 4.5 died in numpy's indexing."""
        ids = {"user": 3, "item": 4, field: value}
        with pytest.raises(InvalidQueryError, match=f"{field} must be an integer"):
            em.CfQuery(ids["user"], ids["item"], {1: 3.0}, 3.0)

    def test_numpy_ids_become_ints(self, example_matrix):
        query = em.CfQuery(np.int64(7), np.int32(2), example_matrix.user_ratings(7),
                           example_matrix.user_mean(7))
        assert (type(query.user), type(query.item)) == (int, int)
        assert repr(em.exact_cf_predict(example_matrix, query)) == repr(
            em.exact_cf_predict(example_matrix, em.CfQuery.from_matrix(example_matrix, 7, 2)))


class TestPredict:
    def test_weighted_average_hand_example(self):
        book = make_two_node_book()
        query = em.CfQuery(user=99, item=10, ratings={1: 5.0, 2: 3.0}, mean=4.0)
        result = em.predict(book, 1, query)
        assert result.weights == pytest.approx((1.0, 0.5), abs=1e-9)
        assert result.prediction == pytest.approx(4.0 + (1.0 - 0.5) / 1.5, abs=1e-9)
        assert not result.fallback

    def test_no_rater_falls_back_to_mean(self):
        book = make_two_node_book()
        query = em.CfQuery(user=99, item=4, ratings={1: 5.0, 2: 3.0}, mean=4.0)
        result = em.predict(book, 1, query)
        assert result.fallback
        assert result.prediction == 4.0
        assert result.all_rater_node_ids == ()

    def test_book_without_aggregates_rejected(self, fourclass_book, example_matrix):
        """A kNN book aggregates no ratings: it has no answer, not the user's mean."""
        query = em.CfQuery.from_matrix(example_matrix, 3, 4)
        with pytest.raises(BookKindError):
            em.predict(fourclass_book, 1, query, matrix=example_matrix)

    def test_prediction_clamped_to_scale(self):
        book = em.load_codebook("""\
elastic-mine-codebook 1
kind rtree-cf
seed 0
config {}
roots 0
features 0 0
nodes 2
N 0 0 0 - - C 1 M 0.0 | 1.0 P 0
N 1 0 1 0 - C  M 0.0 | 1.0 P 0
A 1 1 5.0 4.0 1
A 1 2 2.0 3.0 1
A 1 10 5.0 1.0 1
end
""")
        query = em.CfQuery(user=9, item=10, ratings={1: 5.0, 2: 3.0}, mean=4.0)
        result = em.predict(book, 1, query)
        assert result.clamped
        assert result.prediction == 5.0

    def test_trace_through_example_book(self, example_matrix, example_cf_book):
        """Only one depth-1 node rates the target; refinement keeps its subtree."""
        book = example_cf_book
        query = em.CfQuery.from_matrix(example_matrix, user=7, item=2)
        first = em.predict(book, 1, query, matrix=example_matrix)
        left = int(book.arrays.children_of(book.roots[0])[0])  # subtree of users 1..6
        assert first.all_rater_node_ids == (left,)
        assert first.scanned == 2
        state = first.state
        assert state.retained == {left}
        refined = em.predict(book, 2, query, state, matrix=example_matrix)
        assert refined.scanned == 2  # both leaves under the retained node
        rater_members = {
            frozenset(book.arrays.members_of(n).tolist()) for n in refined.all_rater_node_ids
        }
        assert rater_members == {frozenset({3, 4, 5})}  # the users-4..6 leaf

    def test_empty_state_prunes_everything(self, example_matrix, example_cf_book):
        query = em.CfQuery.from_matrix(example_matrix, user=1, item=4)
        state = em.state_of(example_cf_book, 1, [])
        result = em.predict(example_cf_book, 2, query, state, matrix=example_matrix)
        assert result.scanned == 0
        assert result.fallback

    def test_foreign_state_rejected(self, example_matrix, example_cf_book):
        query = em.CfQuery.from_matrix(example_matrix, user=1, item=4)
        leaf = example_cf_book.code_at_depth(2).node_ids[0]  # not a depth-1 node
        with pytest.raises(ForeignStateError) as info:
            em.state_of(example_cf_book, 1, [leaf])
        assert isinstance(info.value, ValueError)
        # a state of an equal copy of the book indexes another view
        copy = em.load_codebook(em.dump_codebook(example_cf_book))
        state = em.predict(copy, 1, query, matrix=example_matrix).state
        with pytest.raises(ForeignStateError):
            em.predict(example_cf_book, 2, query, state, matrix=example_matrix)

    def test_user_level_result_has_no_state(self, example_matrix):
        query = em.CfQuery.from_matrix(example_matrix, user=1, item=4)
        assert em.exact_cf_predict(example_matrix, query).state is None

    def test_all_raters_retained_when_all_rate(self, example_matrix, example_cf_book):
        # item 3 is rated inside both halves of the user hierarchy
        query = em.CfQuery.from_matrix(example_matrix, user=2, item=3)
        result = em.predict(example_cf_book, 1, query, matrix=example_matrix)
        assert set(result.all_rater_node_ids) == set(
            example_cf_book.code_at_depth(1).node_ids
        )
        state = result.state
        refined = em.predict(example_cf_book, 2, query, state, matrix=example_matrix)
        assert refined.scanned == 4  # nothing pruned at the next depth


class TestExactPredict:
    def test_zero_deviation_neighbours_return_mean(self):
        ratings = {(1, 1): 4.0, (2, 1): 3.0, (2, 2): 3.0, (3, 2): 2.0, (3, 1): 2.0}
        matrix = em.RatingMatrix(3, 2, ratings)
        query = em.CfQuery.from_matrix(matrix, user=1, item=2)
        result = em.exact_cf_predict(matrix, query)
        # every neighbour rated item 2 exactly at its own mean: no signal
        assert result.prediction == query.mean

    def test_single_perfect_neighbour_shifts_by_one(self):
        ratings = {
            (1, 1): 4.0, (1, 2): 2.0,
            (2, 1): 4.0, (2, 2): 2.0, (2, 3): 4.0, (2, 4): 2.0,
        }
        matrix = em.RatingMatrix(2, 4, ratings)
        query = em.CfQuery.from_matrix(matrix, user=1, item=3)
        result = em.exact_cf_predict(matrix, query)
        # the lone neighbour matches perfectly and rates item 3 one above its mean
        assert result.weights == pytest.approx((1.0,), abs=1e-12)
        assert result.prediction == pytest.approx(query.mean + 1.0, abs=1e-12)

    def test_cold_user_gets_global_mean(self, example_matrix):
        bigger = em.RatingMatrix(13, 5, dict(example_matrix.ratings))
        query = em.CfQuery.from_matrix(bigger, user=13, item=1)
        assert not query.ratings
        assert query.mean == pytest.approx(bigger.global_mean())

    def test_leaf_code_matches_exact_oracle(self):
        matrix = em.synthetic.ratings_like(num_users=30, num_items=40, seed=11)
        feats = em.train_incremental_svd(matrix, d=2, epochs_per_feature=40, seed=1)
        book = em.build_cf_codebook(matrix, feats, max_entries=2, leaf_capacity=1)
        deepest = book.depths()[-1]
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 100:
            user = int(rng.integers(1, 31))
            item = int(rng.integers(1, 41))
            if item in matrix.user_ratings(user):
                continue  # query unseen items, as the mining protocol does
            checked += 1
            query = em.CfQuery.from_matrix(matrix, user, item)
            approx = em.predict(book, deepest, query, matrix=matrix)
            exact = em.exact_cf_predict(matrix, query)
            assert approx.prediction == exact.prediction
            assert approx.fallback == exact.fallback


def _reference_over_users(matrix, query, users):
    """User-level prediction over the listed users, written out as a plain loop."""
    raters = []
    weighted = []
    for v in users:
        if v == query.user:
            continue
        row = matrix.user_ratings(v)
        if query.item not in row:
            continue
        raters.append(v)
        v_mean = matrix.user_mean(v)
        aggs = {i: ItemAggregate(r, v_mean, 1) for i, r in row.items()}
        w = node_weight(query.ratings, query.mean, aggs)
        if w is None or w == 0.0:
            continue
        weighted.append((v, w, row[query.item] - v_mean))
    num = math.fsum(w * dev for _, w, dev in weighted)
    den = math.fsum(abs(w) for _, w, _ in weighted)
    raw = query.mean if den == 0.0 else query.mean + num / den
    prediction = min(max(raw, matrix.rating_scale[0]), matrix.rating_scale[1])
    return em.CfApproxResult(
        depth=-1,
        rater_node_ids=tuple(v for v, _, _ in weighted),
        weights=tuple(w for _, w, _ in weighted),
        all_rater_node_ids=tuple(raters),
        prediction=prediction,
        scanned=len(users),
        fallback=den == 0.0,
        clamped=prediction != raw,
    )


_RESULT_FIELDS = ("depth", "prediction", "rater_node_ids", "weights", "all_rater_node_ids",
                  "scanned", "fallback", "clamped")


def _assert_same_result(got, want):
    for name in _RESULT_FIELDS:
        # repr tells -0.0 from 0.0 and prints floats exactly: equal reprs are equal bits
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


class TestUserLevelScorer:
    """exact_cf_predict and the user-subset baselines equal the plain reference loop."""

    @pytest.fixture(scope="class")
    def setup(self):
        base = em.synthetic.ratings_like(num_users=50, num_items=40, seed=21)
        # user 51 has no ratings (a cold user) and nobody rated item 41
        matrix = em.RatingMatrix(51, 41, dict(base.ratings))
        feats = em.train_incremental_svd(matrix, d=2, epochs_per_feature=40, seed=2)
        rng = np.random.default_rng(8)
        pairs = [(int(rng.integers(1, 51)), int(rng.integers(1, 41))) for _ in range(40)]
        pairs += [(51, 3), (7, 41), (51, 41)]
        queries = [em.CfQuery.from_matrix(matrix, u, i) for u, i in pairs]
        assert any(not q.ratings for q in queries)
        return matrix, feats, queries

    def test_exact_oracle(self, setup):
        matrix, _, queries = setup
        users = range(1, matrix.num_users + 1)
        fallbacks = 0
        for query in queries:
            want = dataclasses.replace(_reference_over_users(matrix, query, users),
                                       scanned=matrix.num_users - 1)
            got = em.exact_cf_predict(matrix, query)
            _assert_same_result(got, want)
            fallbacks += got.fallback
        assert fallbacks >= 2

    def test_cold_user_outside_matrix(self, setup):
        matrix, _, _ = setup
        query = em.CfQuery.from_matrix(matrix, matrix.num_users + 1, 3)
        assert not query.ratings
        users = range(1, matrix.num_users + 1)
        want = dataclasses.replace(_reference_over_users(matrix, query, users),
                                   scanned=matrix.num_users - 1)
        _assert_same_result(em.exact_cf_predict(matrix, query), want)
        _assert_same_result(em.cf_sampling(matrix, query, matrix.num_users, seed=3),
                            _reference_over_users(matrix, query, em.baselines.sample_users(
                                matrix.num_users, matrix.num_users, 3)))

    def test_sampling_at_full_size(self, setup):
        matrix, _, queries = setup
        users = em.baselines.sample_users(matrix.num_users, matrix.num_users, 5)
        for query in queries:
            _assert_same_result(em.cf_sampling(matrix, query, matrix.num_users, seed=5),
                                _reference_over_users(matrix, query, users))

    def test_clustering_with_one_cluster(self, setup):
        matrix, feats, queries = setup
        users = tuple(range(1, matrix.num_users + 1))
        for query in queries:
            _assert_same_result(em.cf_clustering(matrix, feats, query, k_clusters=1),
                                _reference_over_users(matrix, query, users))


def _reference_score(query, depth, sources, scanned, scale):
    """The dict-driven recommendation step: node_weight per ``(id, aggregates)`` candidate."""
    raters = []
    weighted = []  # (id, weight, deviation of target item)
    for cid, aggs in sources:
        agg = aggs.get(query.item) if aggs else None
        if agg is None:
            continue
        raters.append(cid)
        w = node_weight(query.ratings, query.mean, aggs)
        if w is None or w == 0.0:
            continue
        weighted.append((cid, w, agg.rating - agg.rater_mean))
    num = math.fsum(w * dev for _, w, dev in weighted)
    den = math.fsum(abs(w) for _, w, _ in weighted)
    raw = query.mean if den == 0.0 else query.mean + num / den
    prediction = min(max(raw, scale[0]), scale[1])
    return em.CfApproxResult(
        depth=depth,
        rater_node_ids=tuple(cid for cid, _, _ in weighted),
        weights=tuple(w for _, w, _ in weighted),
        all_rater_node_ids=tuple(raters),
        prediction=prediction,
        scanned=scanned,
        fallback=den == 0.0,
        clamped=prediction != raw,
    )


def _reference_predict(book, depth, query, state=None, matrix=None):
    candidates = list(book.code_at_depth(depth).node_ids)
    if state is not None:
        candidates = [
            nid for nid in candidates if ancestor_at(book, nid, state.depth) in state.retained
        ]
    scale = matrix.rating_scale if matrix is not None else (1.0, 5.0)
    sources = ((nid, aggregates_of(book, nid)) for nid in candidates)
    return _reference_score(query, depth, sources, len(candidates), scale)


def _reference_chain(book, query, matrix=None, depths=None):
    results, state = [], None
    for depth in book.depths() if depths is None else depths:
        result = _reference_predict(book, depth, query, state, matrix)
        results.append(result)
        state = em.state_of(book, depth, result.all_rater_node_ids)
    return results


def _plain(result):
    return (
        all(type(i) is int for i in result.rater_node_ids + result.all_rater_node_ids)
        and all(type(w) is float for w in result.weights)
        and type(result.prediction) is float
        and type(result.scanned) is int
    )


@st.composite
def cf_books_and_queries(draw):
    """A CF book over random ratings on a non-integer scale, plus queries.

    The last user is cold (no ratings) and nobody rated the last item, so it
    lies beyond the book's item range. Some ratings sit on a half-step grid,
    so zero-variance (degenerate) weights occur. Queries include a cold
    user, the unrated item, a target item beyond every range, and a rating
    row holding items beyond the book's range.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users = draw(st.integers(4, 30))
    items = draw(st.integers(2, 12))
    low = draw(st.sampled_from([-2.25, 0.5, 1.0]))
    scale = (low, low + draw(st.sampled_from([1.5, 3.75, 4.0])))
    density = draw(st.sampled_from([0.15, 0.5, 0.9]))
    grid_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    ratings = {}
    for u in range(1, users + 1):
        for i in range(1, items + 1):
            if rng.random() < density:
                r = rng.uniform(*scale)
                if rng.random() < grid_share:
                    r = min(max(np.round(2 * r) / 2, scale[0]), scale[1])
                ratings[(u, i)] = float(r)
    ratings.setdefault((1, 1), scale[1])
    matrix = em.RatingMatrix(users + 1, items + 1, ratings, rating_scale=scale)
    features = rng.normal(0.0, 1.0, size=(users + 1, 2))
    book = em.build_cf_codebook(matrix, features, max_entries=draw(st.integers(2, 4)),
                                leaf_capacity=draw(st.sampled_from([1, None])))
    pairs = [(int(rng.integers(1, users + 1)), int(rng.integers(1, items + 1))) for _ in range(4)]
    pairs += [(users + 1, 1), (1, items + 1), (2, items + 7)]
    queries = [em.CfQuery.from_matrix(matrix, u, i) for u, i in pairs]
    row = dict(matrix.user_ratings(1))
    row[items + 3] = scale[0]
    queries.append(em.CfQuery(1, 1, row, matrix.user_mean(1)))
    return matrix, book, queries


class TestVectorisedKernel:
    """The deviation-table kernel against the dict-driven reference, field for field."""

    @given(cf_books_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_predict_and_chain_equal_reference(self, case):
        matrix, book, queries = case
        for query in queries:
            for given_matrix in (matrix, None):
                for depth in book.depths():
                    result = em.predict(book, depth, query, matrix=given_matrix)
                    _assert_same_result(result, _reference_predict(book, depth, query, None,
                                                                   given_matrix))
                    assert _plain(result)
                    state = result.state
                    for deeper in book.depths():
                        if deeper > depth:
                            _assert_same_result(
                                em.predict(book, deeper, query, state, matrix=given_matrix),
                                _reference_predict(book, deeper, query, state, given_matrix))
                chain = em.cf.refine_chain(book, query, matrix=given_matrix)
                want = _reference_chain(book, query, given_matrix)
                assert len(chain) == len(want)
                for got, expected in zip(chain, want):
                    _assert_same_result(got, expected)

    @given(cf_books_and_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_depth_subsets_equal_reference_chain(self, case, data):
        matrix, book, queries = case
        depths = sorted(data.draw(st.sets(st.sampled_from(book.depths()), min_size=1)))
        for query in queries:
            chain, state = [], None
            for depth in depths:
                chain.append(em.predict(book, depth, query, state, matrix=matrix))
                state = chain[-1].state
            want = _reference_chain(book, query, matrix, depths)
            assert len(chain) == len(want)
            for got, expected in zip(chain, want):
                _assert_same_result(got, expected)

    @given(cf_books_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_roots_state_equals_one_shot(self, case):
        """Predicting from the state that keeps every root equals the one-shot
        prediction in every field, its state of raters included."""
        matrix, book, queries = case
        roots = em.state_of(book, 0, book.roots)
        for query in queries:
            for depth in book.depths():
                one_shot = em.predict(book, depth, query, matrix=matrix)
                refined = em.predict(book, depth, query, roots, matrix=matrix)
                _assert_same_result(refined, one_shot)
                assert refined.state == one_shot.state

    @given(cf_books_and_queries(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_user_level_routes_equal_reference(self, case, seed):
        matrix, _, queries = case
        users = range(1, matrix.num_users + 1)
        size = 1 + seed % matrix.num_users
        sample = em.baselines.sample_users(matrix.num_users, size, seed)
        for query in queries:
            exact = em.exact_cf_predict(matrix, query)
            _assert_same_result(exact, dataclasses.replace(
                _reference_over_users(matrix, query, users), scanned=matrix.num_users - 1))
            assert _plain(exact)
            sampled = em.cf_sampling(matrix, query, size, seed=seed)
            _assert_same_result(sampled, _reference_over_users(matrix, query, sample))
            assert _plain(sampled)

    @given(cf_books_and_queries(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_reused_query_equals_fresh_query_and_reference(self, case, seed):
        """One query object serves the one-shot, refined, exact and baseline routes
        in any order; every result equals the route's result for a fresh query and
        the dict-driven reference. The routes include a single user column, and the
        queries a cold user, an item nobody rated and rated items beyond the book."""
        matrix, book, queries = case
        users = range(1, matrix.num_users + 1)
        size = 1 + seed % matrix.num_users
        sample = em.baselines.sample_users(matrix.num_users, size, seed)
        order = np.random.default_rng(seed).permutation(5)
        for query in queries:
            raters = [v for v in users if v != query.user and query.item in matrix.user_ratings(v)]
            one = raters[seed % len(raters)] if raters else query.user % matrix.num_users + 1
            routes = [
                (lambda q: [em.predict(book, d, q, matrix=matrix) for d in book.depths()],
                 [_reference_predict(book, d, query, None, matrix) for d in book.depths()]),
                (lambda q: em.cf.refine_chain(book, q, matrix=matrix),
                 _reference_chain(book, query, matrix)),
                (lambda q: [em.exact_cf_predict(matrix, q)],
                 [dataclasses.replace(_reference_over_users(matrix, query, users),
                                      scanned=matrix.num_users - 1)]),
                (lambda q: [em.cf_sampling(matrix, q, size, seed=seed)],
                 [_reference_over_users(matrix, query, sample)]),
                (lambda q: [em.cf._predict_over_users(matrix, q, [one])],
                 [_reference_over_users(matrix, query, [one])]),
            ]
            for k in order:
                route, want = routes[k]
                fresh = em.CfQuery(query.user, query.item, dict(query.ratings), query.mean)
                for results in (route(query), route(fresh)):
                    assert len(results) == len(want)
                    for got, expected in zip(results, want):
                        _assert_same_result(got, expected)

    def test_ratings_out_of_item_order_equal_reference(self):
        """The sums follow ``query.ratings`` order, not item order: a row given
        descending or shuffled gets the reference loop's bits on every route,
        and those bits differ from the ascending row's."""
        matrix = em.synthetic.ratings_like(num_users=60, num_items=40, seed=3)
        feats = em.train_incremental_svd(matrix, d=2, epochs_per_feature=20, seed=1)
        book = em.build_cf_codebook(matrix, feats, max_entries=3)
        users = range(1, matrix.num_users + 1)
        rng = np.random.default_rng(5)
        moved = 0
        for user, item in [(1, 2), (9, 17), (23, 33), (41, 7)]:
            row = sorted(matrix.user_ratings(user).items())
            ascending = em.CfQuery(user, item, dict(row), matrix.user_mean(user))
            for order in (row[::-1], [row[k] for k in rng.permutation(len(row))]):
                query = em.CfQuery(user, item, dict(order), matrix.user_mean(user))
                assert list(query.ratings) != sorted(query.ratings)
                for depth in book.depths():
                    got = em.predict(book, depth, query, matrix=matrix)
                    _assert_same_result(got, _reference_predict(book, depth, query, None, matrix))
                    moved += got.weights != em.predict(book, depth, ascending, matrix=matrix).weights
                for got, want in zip(em.cf.refine_chain(book, query, matrix=matrix),
                                     _reference_chain(book, query, matrix), strict=True):
                    _assert_same_result(got, want)
                _assert_same_result(em.exact_cf_predict(matrix, query), dataclasses.replace(
                    _reference_over_users(matrix, query, users), scanned=matrix.num_users - 1))
        assert moved

    def test_query_keeps_its_own_ratings(self, example_matrix, example_cf_book):
        """Changing the dict a query was built from changes none of its predictions."""
        row = dict(example_matrix.user_ratings(7))
        query = em.CfQuery(7, 2, row, example_matrix.user_mean(7))
        assert query.ratings == row and query.ratings is not row
        for item in row:
            row[item] += 1.0
        row[4] = 1.0
        assert query.ratings != row
        for depth in example_cf_book.depths():
            _assert_same_result(em.predict(example_cf_book, depth, query, matrix=example_matrix),
                                _reference_predict(example_cf_book, depth, query, None,
                                                   example_matrix))
        users = range(1, example_matrix.num_users + 1)
        _assert_same_result(em.exact_cf_predict(example_matrix, query), dataclasses.replace(
            _reference_over_users(example_matrix, query, users),
            scanned=example_matrix.num_users - 1))


class TestSharedTables:
    def test_concurrent_first_use_matches_serial(self):
        """Threads racing to build a fresh book's and matrix's deviation
        tables get the results of a serial run."""
        matrix = em.synthetic.ratings_like(num_users=60, num_items=40, seed=3)
        feats = np.random.default_rng(3).normal(size=(60, 2))
        text = em.dump_codebook(em.build_cf_codebook(matrix, feats, max_entries=3))
        queries = [em.CfQuery.from_matrix(matrix, u, i) for u, i in [(1, 2), (9, 30), (41, 7)]]

        def run_all(book, ratings):
            return [repr(r) for q in queries for r in (
                *em.cf.refine_chain(book, q, matrix=ratings), em.exact_cf_predict(ratings, q))]

        want = run_all(em.load_codebook(text), em.RatingMatrix(60, 40, dict(matrix.ratings)))
        book = em.load_codebook(text)
        ratings = em.RatingMatrix(60, 40, dict(matrix.ratings))
        got = []
        start = threading.Barrier(6)

        def worker():
            start.wait(timeout=30)
            got.append(run_all(book, ratings))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 6


class TestKmeansCoderMining:
    def test_prediction_pipeline_over_kmeans_book(self):
        """The divisive coder is a drop-in alternative for the CF mining side."""
        matrix = em.synthetic.ratings_like(num_users=150, num_items=80, seed=19)
        train, held = em.split_ratings(matrix, em.SplitSpec(seed=2))
        feats = em.train_incremental_svd(train, d=2, epochs_per_feature=60, seed=2)
        book = em.build_kmeans_codebook(train, feats, branching=2, depth_limit=5, seed=2)
        depths = book.depths()
        assert len(depths) >= 3
        rmses = []
        for depth in depths:
            preds = []
            for u, i, _ in held:
                query = em.CfQuery.from_matrix(train, u, i)
                preds.append(em.predict(book, depth, query, matrix=train).prediction)
            rmses.append(em.rmse(preds, [r for _, _, r in held]))
        assert rmses[-1] <= rmses[0] + 0.01  # finer clusters do not hurt quality
        # refinement states behave as with the R-tree coder
        u, i, _ = held[0]
        query = em.CfQuery.from_matrix(train, u, i)
        chain = em.cf.refine_chain(book, query, matrix=train)
        scans = [r.scanned for r in chain]
        lengths = [book.code_at_depth(d).length for d in depths]
        assert all(s <= l for s, l in zip(scans, lengths))


class TestRefinementCosts:
    def test_deeper_start_state_scans_no_more(self):
        matrix = em.synthetic.ratings_like(num_users=120, num_items=60, seed=13)
        feats = em.train_incremental_svd(matrix, d=2, epochs_per_feature=40, seed=1)
        book = em.build_cf_codebook(matrix, feats, max_entries=3)
        deepest = book.depths()[-1]
        rng = np.random.default_rng(5)
        for _ in range(30):
            user = int(rng.integers(1, 121))
            item = int(rng.integers(1, 61))
            query = em.CfQuery.from_matrix(matrix, user, item)
            chain = em.cf.refine_chain(book, query, matrix=matrix)
            costs = [em.predict(book, deepest, query, matrix=matrix).scanned]
            for depth, result in zip(book.depths()[:-1], chain[:-1]):
                state = result.state
                costs.append(em.predict(book, deepest, query, state, matrix=matrix).scanned)
            assert all(a >= b for a, b in zip(costs, costs[1:]))


class TestMetrics:
    def test_rmse_hand_example(self):
        assert em.rmse([3.0, 5.0], [4.0, 5.0]) == pytest.approx(math.sqrt(0.5))

    def test_rmse_perfect(self):
        assert em.rmse([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_rmse_single_pair(self):
        assert em.rmse([5.0], [3.0]) == 2.0

    def test_rmse_length_mismatch(self):
        with pytest.raises(UndefinedMetricError):
            em.rmse([1.0], [1.0, 2.0])
        with pytest.raises(UndefinedMetricError):
            em.rmse([], [])

    def test_relative_error_examples(self):
        assert em.relative_error(0.99, 0.90) == pytest.approx(0.10, abs=1e-12)
        assert em.relative_error(4.20, 4.00) == pytest.approx(0.05, abs=1e-12)
        assert em.relative_error(1.3, 1.3) == 0.0

    def test_relative_error_zero_reference(self):
        with pytest.raises(UndefinedMetricError):
            em.relative_error(1.0, 0.0)
