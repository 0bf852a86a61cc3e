import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elastic_mine as em
from elastic_mine.baselines import sample_users
from elastic_mine.coding import EXACT_DEPTH
from elastic_mine.errors import (
    BaselineConfigError, BookKindError, DepthNotFoundError, DimensionMismatchError, InsufficientBudgetError,
    InsufficientCandidatesError,
)
from elastic_mine.knn import KnnApproxResult

from conftest import TABLE_FEATURES, non_integer_rows
from reference import dual_book_from_hierarchy


class TestRanking:
    def test_line_example(self):
        # same-class points at 0, 1, 10: nearest-neighbour keys are 1, 1, 9
        ds = em.LabeledDataset([[0.0], [1.0], [10.0], [50.0], [70.0]], [1, 1, 1, -1, -1])
        order = em.rank_training_points(ds)
        assert order.tolist() == [0, 1, 2, 3, 4]

    def test_coincident_points_keep_original_order(self):
        ds = em.LabeledDataset([[2.0]] * 4, [1, 1, -1, -1])
        order = em.rank_training_points(ds)
        assert order.tolist() == [0, 1, 2, 3]

    def test_ranking_is_within_class(self):
        # interleaved classes: each point's key uses only same-class neighbours
        ds = em.LabeledDataset([[0.0], [0.1], [1.0], [1.1]], [1, -1, 1, -1])
        order = em.rank_training_points(ds)
        assert set(order.tolist()) == {0, 1, 2, 3}

    def test_fourclass_matches_recorded_digest(self, fourclass):
        """The ranking of all 862 points, pinned before the distance kernel was shared."""
        order = em.rank_training_points(fourclass)
        assert hashlib.sha256(",".join(map(str, order.tolist())).encode()).hexdigest() == (
            "a51ce21d3826b25f59225b51f4905af23575c380778237e94fb7e78adb43f390")

    def test_singleton_class_ranks_last_with_warning(self):
        ds = em.LabeledDataset([[0.0], [1.0], [5.0]], [1, 1, -1])
        with pytest.warns(UserWarning, match="single point"):
            order = em.rank_training_points(ds)
        assert order.tolist()[-1] == 2


class TestAnytimeRanking:
    def test_full_budget_equals_exact(self, fourclass_split):
        train, test = fourclass_split
        order = em.rank_training_points(train)
        for i in range(30):
            query = em.KnnQuery(test.features[i], 5)
            anytime = em.anytime_knn_ranking(train, query, len(train), order)
            exact = em.exact_knn(train, query)
            assert anytime.predicted == exact.predicted
            assert anytime.node_ids == exact.node_ids

    def test_budget_k_uses_most_important_points(self, fourclass_split):
        train, _ = fourclass_split
        order = em.rank_training_points(train)
        query = em.KnnQuery(train.features[0], 5)
        result = em.anytime_knn_ranking(train, query, 5, order)
        assert result.scanned == 5
        assert set(result.node_ids) == set(order[:5].tolist())

    def test_budget_below_k_rejected(self, fourclass_split):
        train, _ = fourclass_split
        with pytest.raises(InsufficientBudgetError):
            em.anytime_knn_ranking(train, em.KnnQuery(train.features[0], 5), 4)

    @pytest.mark.parametrize("order", [[0, 0, 0, 1], [-1, 0, 1, 2], [9, 0, 1, 2], [0, 1], [[0, 1, 2, 3]],
                                       [0.0, 1.0, 2.0, 3.0]],
                             ids=["repeated", "negative", "past-the-end", "shorter-than-k", "2d", "float"])
    def test_malformed_order_rejected(self, order):
        """An order whose scanned prefix is not k or more distinct point indices
        gets no answer: no repeated votes, no wrap-around, no bare IndexError."""
        ds = em.LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
        with pytest.raises(BaselineConfigError, match="distinct point indices in 0..3"):
            em.anytime_knn_ranking(ds, em.KnnQuery([0.0], 3), 4, np.array(order))

    def test_only_the_scanned_prefix_is_checked(self):
        ds = em.LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
        result = em.anytime_knn_ranking(ds, em.KnnQuery([0.0], 3), 3, [2, 1, 0, 0, 9, -1])
        assert result.node_ids == (0, 1, 2)
        assert result.scanned == 3


@pytest.fixture(scope="module")
def small_tree_setup():
    rng = np.random.default_rng(8)
    feats = np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(3, 1, (40, 2))])
    ds = em.LabeledDataset(feats, [1] * 40 + [-1] * 40)
    book = em.build_dual_rtrees(ds, max_entries=3, seed=0)
    return ds, book


class TestAnytimeRtree:
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "ofs"])
    def test_full_budget_equals_exact(self, small_tree_setup, strategy):
        ds, book = small_tree_setup
        rng = np.random.default_rng(1)
        for _ in range(25):
            query = em.KnnQuery(rng.normal(1.5, 1.5, 2), 5)
            result = em.anytime_knn_rtree(book, ds, query, 10**9, strategy)
            exact = em.exact_knn(ds, query)
            assert result.predicted == exact.predicted
            assert result.node_ids == exact.node_ids

    def test_initial_budget_matches_first_code(self, small_tree_setup):
        ds, book = small_tree_setup
        code = book.code_at_depth(1)
        query = em.KnnQuery([1.0, 1.0], 3)
        frontier_only = em.anytime_knn_rtree(book, ds, query, code.length, "ofs")
        first = em.classify(book, 1, query)
        assert frontier_only.predicted == first.predicted
        assert set(frontier_only.node_ids) == set(first.node_ids)
        assert frontier_only.scanned == code.length

    def test_budget_below_frontier_rejected(self, small_tree_setup):
        ds, book = small_tree_setup
        with pytest.raises(InsufficientBudgetError):
            em.anytime_knn_rtree(book, ds, em.KnnQuery([0.0, 0.0], 3), 1, "bfs")

    @pytest.mark.parametrize("run", non_integer_rows({
        "ranking": (lambda ds, book, query, v: em.anytime_knn_ranking(ds, query, v),),
        "rtree": (lambda ds, book, query, v: em.anytime_knn_rtree(book, ds, query, v),),
    }))
    def test_budget_must_be_an_integer(self, small_tree_setup, run):
        """A NaN budget would compare false against every size and scan everything."""
        ds, book = small_tree_setup
        with pytest.raises(InsufficientBudgetError, match="budget"):
            run(ds, book, em.KnnQuery([0.0, 0.0], 3))

    def test_book_of_another_kind_rejected(self, small_tree_setup, example_cf_book):
        ds, _ = small_tree_setup
        with pytest.raises(BookKindError):
            em.anytime_knn_rtree(example_cf_book, ds, em.KnnQuery([0.5, 0.5], 1), 10**9)

    def test_ofs_descends_nearest_nodes_first(self):
        feats = np.array(
            [[-4.5], [-5.5], [-1.0], [-2.0], [1.0], [2.0], [3.0],
             [-20.0], [-21.0], [4.0], [5.0], [30.0], [31.0], [32.0]]
        )
        ds = em.LabeledDataset(feats, [1] * 7 + [-1] * 7)
        book = dual_book_from_hierarchy(
            ds, [[[0], [1]], [[2], [3]], [[4], [5], [6]]],
            [[[7], [8]], [[9], [10]], [[11], [12], [13]]],
        )
        # budget allows one descent per tree: the nearest boxes open first
        result = em.anytime_knn_rtree(book, ds, em.KnnQuery([0.0], 3), 10, "ofs")
        assert result.scanned == 10
        assert set(result.node_ids) == {5, 6, 7}  # both near leaves plus a box

    def test_point_precedes_node_at_equal_distance(self):
        """A frontier point and an unexpanded node at the same distance order
        point first, whatever their ids: the (distance, kind, id) rule."""
        # 18 far points in one leaf give the near point 18 an id above every node id
        feats = np.array([[50.0]] * 18 + [[-1.0], [1.0], [-3.0], [3.0], [7.0], [8.0]])
        ds = em.LabeledDataset(feats, [1] * 20 + [-1] * 4)
        book = dual_book_from_hierarchy(
            ds, [[[18], [19]], [list(range(18))]], [[[20], [21]], [[22], [23]]]
        )
        assert len(book.arrays.depth) <= 18
        # one descent per tree, then one leaf each: point 18 and the leaf of point 19 lie at distance 1
        result = em.anytime_knn_rtree(book, ds, em.KnnQuery([0.0], 2), 10, "ofs")
        assert result.scanned == 10
        assert result.distances == (1.0, 1.0)
        point, node = result.node_ids
        assert point == 18 and book.arrays.members_of(node).tolist() == [19]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(10, 40), st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_batched_point_scores_equal_one_point_sums(self, seed, d, n, max_entries):
        """With every point in the result, each distance is the one-point
        sum's, bit for bit, over coordinates of mixed magnitudes."""
        # n >= 10 gives each class a tree with a depth-1 code
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 7, size=(n + 1, d))
        points = rng.normal(size=(n + 1, d)) * scale
        ds = em.LabeledDataset(points[:n], [1, -1] * (n // 2) + [1] * (n % 2))
        book = em.build_dual_rtrees(ds, max_entries=max_entries)
        q = points[n]
        result = em.anytime_knn_rtree(book, ds, em.KnnQuery(q, n), 10**9)
        assert sorted(result.node_ids) == list(range(n))
        for row, dist in zip(result.node_ids, result.distances):
            assert dist == float(np.sqrt(((ds.features[row] - q) ** 2).sum()))

    @pytest.mark.parametrize("baseline, point, error", [
        ("rtree", [0.0, 0.0], DepthNotFoundError),
        ("rtree", [0.0], DimensionMismatchError),
        ("rtree", [0.0, 0.0, 0.0], DimensionMismatchError),
        ("ranking", [0.0], DimensionMismatchError),
        ("ranking", [0.0, 0.0, 0.0], DimensionMismatchError),
        ("rtree-xyz", [0.5, 0.5], BaselineConfigError),
    ], ids=["rtree-single-leaf-tree", "rtree-1d-query", "rtree-3d-query",
            "ranking-1d-query", "ranking-3d-query", "rtree-unknown-strategy"])
    def test_malformed_question_fails_loudly(self, small_tree_setup, single_leaf_split,
                                             baseline, point, error):
        """A book without a depth-1 code, a query of the wrong length, or an
        unknown descent strategy gets no answer."""
        ds, book = single_leaf_split if error is DepthNotFoundError else small_tree_setup
        query = em.KnnQuery(point, 1)
        with pytest.raises(error):
            if baseline.startswith("rtree"):
                em.anytime_knn_rtree(book, ds, query, 10**9, *baseline.split("-")[1:])
            else:
                em.anytime_knn_ranking(ds, query, len(ds))

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "ofs"])
    def test_vote_needs_k_elements(self, small_tree_setup, strategy):
        """k above the training size, or a budget that leaves fewer than k
        frontier elements, gets no vote."""
        ds, book = small_tree_setup
        rows = list(range(6)) + list(range(40, 46))
        few = em.LabeledDataset(ds.features[rows], ds.labels[rows])
        query = em.KnnQuery([0.5, 0.5], 20)
        with pytest.raises(InsufficientCandidatesError):
            em.anytime_knn_rtree(em.build_dual_rtrees(few, max_entries=3), few, query, 10**9, strategy)
        with pytest.raises(InsufficientCandidatesError):
            em.anytime_knn_ranking(few, query, 100)
        initial = book.code_at_depth(1).length
        with pytest.raises(InsufficientBudgetError):
            em.anytime_knn_rtree(book, ds, em.KnnQuery([0.5, 0.5], initial + 5), initial, strategy)
        result = em.anytime_knn_rtree(book, ds, em.KnnQuery([0.5, 0.5], initial), initial, strategy)
        assert len(result.node_ids) == initial

    def test_determinism(self, small_tree_setup):
        ds, book = small_tree_setup
        query = em.KnnQuery([0.5, 0.5], 5)
        for strategy in ("bfs", "dfs", "ofs"):
            a = em.anytime_knn_rtree(book, ds, query, 60, strategy)
            b = em.anytime_knn_rtree(book, ds, query, 60, strategy)
            assert a == b


def sorted_reference(train, query, ids, scanned):
    """The k nearest of the training rows ``ids`` by ``sorted(zip(d2, ids))``, and their vote."""
    d2 = [float(((train.features[i] - query.point) ** 2).sum()) for i in ids]
    top = sorted(zip(d2, (int(i) for i in ids)))[: query.k]
    k_pos = sum(1 for _, i in top if train.labels[i] == em.POSITIVE)
    k_neg = query.k - k_pos
    return KnnApproxResult(
        depth=EXACT_DEPTH,
        node_ids=tuple(i for _, i in top),
        distances=tuple(math.sqrt(d) for d, _ in top),
        k_pos=k_pos,
        k_neg=k_neg,
        predicted=em.POSITIVE if k_pos > k_neg else em.NEGATIVE,
        threshold=math.sqrt(top[-1][0]),
        scanned=scanned,
    )


@st.composite
def integer_knn_questions(draw):
    """Points and a query on a small integer grid, so that distance ties and
    coincident points are common, with a ranking order and a budget."""
    dim = draw(st.integers(1, 3))
    max_entries = draw(st.integers(2, 4))
    # more points per class than a leaf holds: each class tree has a depth-1 code
    pos, neg = (draw(st.integers(max_entries + 1, 20)) for _ in range(2))
    n = pos + neg
    coords = draw(st.lists(st.integers(-3, 3), min_size=n * dim, max_size=n * dim))
    train = em.LabeledDataset(np.array(coords, dtype=float).reshape(n, dim),
                              draw(st.permutations([1] * pos + [-1] * neg)))
    point = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    query = em.KnnQuery(np.array(point, dtype=float), draw(st.integers(1, n)))
    order = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    budget = draw(st.integers(query.k, n))
    return train, max_entries, query, order, budget


class TestNearestRule:
    """The oracle and both anytime baselines choose the k nearest by distance,
    then by id, and vote strictly: bit for bit the answer of sorting (d2, id)."""

    @given(integer_knn_questions())
    @settings(max_examples=80, deadline=None)
    def test_answers_equal_sorted_reference(self, question):
        train, max_entries, query, order, budget = question
        n = len(train)
        everyone = range(n)
        assert em.exact_knn(train, query) == sorted_reference(train, query, everyone, n)
        # the ranking order decides which points are scanned, never how ties break
        assert em.anytime_knn_ranking(train, query, n, order) == sorted_reference(
            train, query, everyone, n)
        assert em.anytime_knn_ranking(train, query, budget, order) == sorted_reference(
            train, query, order[:budget], budget)
        book = em.build_dual_rtrees(train, max_entries=max_entries)
        # a full descent creates every non-root node and ends with every point in the frontier
        created = len(book.arrays.depth) - len(book.roots) + n
        expected = sorted_reference(train, query, everyone, created)
        for strategy in ("bfs", "dfs", "ofs"):
            assert em.anytime_knn_rtree(book, train, query, 10**9, strategy) == expected


@pytest.fixture(scope="module")
def cf_setup():
    matrix = em.synthetic.ratings_like(num_users=50, num_items=40, seed=21)
    feats = em.train_incremental_svd(matrix, d=2, epochs_per_feature=40, seed=2)
    rng = np.random.default_rng(3)
    queries = []
    while len(queries) < 25:
        user = int(rng.integers(1, 51))
        item = int(rng.integers(1, 41))
        if item not in matrix.user_ratings(user):
            queries.append(em.CfQuery.from_matrix(matrix, user, item))
    return matrix, feats, queries


class TestCfSampling:
    def test_full_sample_equals_exact(self, cf_setup):
        matrix, _, queries = cf_setup
        for query in queries:
            approx = em.cf_sampling(matrix, query, matrix.num_users, seed=7)
            exact = em.exact_cf_predict(matrix, query)
            assert approx.prediction == pytest.approx(exact.prediction, abs=1e-12)

    def test_prefix_property(self, cf_setup):
        matrix, _, _ = cf_setup
        sizes = [1, 5, 20, 50]
        samples = [sample_users(matrix.num_users, s, seed=9) for s in sizes]
        for small, large in zip(samples, samples[1:]):
            assert large[: len(small)] == small

    def test_single_user_sample(self, cf_setup):
        matrix, _, queries = cf_setup
        result = em.cf_sampling(matrix, queries[0], 1, seed=4)
        assert result.scanned == 1


class TestCfClustering:
    def test_single_cluster_equals_exact(self, cf_setup):
        matrix, feats, queries = cf_setup
        for query in queries[:10]:
            approx = em.cf_clustering(matrix, feats, query, k_clusters=1)
            exact = em.exact_cf_predict(matrix, query)
            assert approx.prediction == pytest.approx(exact.prediction, abs=1e-12)

    def test_singleton_clusters_fall_back(self, cf_setup):
        matrix, feats, queries = cf_setup
        fallbacks = sum(
            em.cf_clustering(matrix, feats, q, k_clusters=matrix.num_users).fallback
            for q in queries
        )
        assert fallbacks >= len(queries) // 2

    def test_active_user_routed_to_taste_cluster(self, example_matrix):
        query = em.CfQuery.from_matrix(example_matrix, user=1, item=4)
        result = em.cf_clustering(example_matrix, TABLE_FEATURES, query, k_clusters=2)
        # the scan covers exactly the six users of the active user's half
        assert result.scanned == 6


class TestCfRectTree:
    def test_single_level_equals_exact(self, cf_setup):
        matrix, feats, queries = cf_setup
        for query in queries[:10]:
            approx = em.cf_recttree(matrix, feats, query, levels=1)
            exact = em.exact_cf_predict(matrix, query)
            assert approx.prediction == pytest.approx(exact.prediction, abs=1e-12)

    def test_two_level_split_matches_taste_groups(self, example_matrix):
        query = em.CfQuery.from_matrix(example_matrix, user=1, item=4)
        result = em.cf_recttree(example_matrix, TABLE_FEATURES, query, levels=2)
        assert result.scanned == 6

    def test_deeper_levels_never_enlarge_cluster(self, cf_setup):
        matrix, feats, queries = cf_setup
        for query in queries[:8]:
            sizes = [
                em.cf_recttree(matrix, feats, query, levels=lv).scanned
                for lv in range(1, 5)
            ]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))


# Every integer setting of a CF baseline, with each value no integer setting accepts.
NON_INTEGER_SIZES = non_integer_rows({
    "sample": (lambda m, f, q, v: em.cf_sampling(m, q, v),),
    "sampling-seed": (lambda m, f, q, v: em.cf_sampling(m, q, 5, seed=v),),
    "clusters": (lambda m, f, q, v: em.cf_clustering(m, f, q, k_clusters=v),),
    "clustering-iterations": (lambda m, f, q, v: em.cf_clustering(m, f, q, 3, iterations=v),),
    "levels": (lambda m, f, q, v: em.cf_recttree(m, f, q, levels=v),),
    "branching": (lambda m, f, q, v: em.cf_recttree(m, f, q, levels=2, branching=v),),
    "recttree-iterations": (lambda m, f, q, v: em.cf_recttree(m, f, q, levels=2, iterations=v),),
})


class TestCfBaselineSizes:
    @pytest.mark.parametrize("baseline", [
        lambda m, f, q: em.cf_sampling(m, q, 0),
        lambda m, f, q: em.cf_sampling(m, q, m.num_users + 1),
        lambda m, f, q: em.cf_clustering(m, f, q, k_clusters=0),
        lambda m, f, q: em.cf_clustering(m, f, q, k_clusters=m.num_users + 1),
        lambda m, f, q: em.cf_recttree(m, f, q, levels=0),
        lambda m, f, q: em.cf_recttree(m, f, q, levels=2, branching=0),
        lambda m, f, q: em.cf_recttree(m, f, q, levels=2, branching=-1),
        lambda m, f, q: em.cf_sampling(m, q, 5, seed=-1),
        *NON_INTEGER_SIZES,
    ], ids=["sample-0", "sample-above-users", "clusters-0", "clusters-above-users", "levels-0",
            "branching-0", "branching-negative", "sampling-seed-negative"]
       + [row.id for row in NON_INTEGER_SIZES])
    def test_out_of_range_size_rejected(self, cf_setup, baseline):
        matrix, feats, queries = cf_setup
        with pytest.raises(BaselineConfigError) as info:
            baseline(matrix, feats, queries[0])
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, em.ElasticMineError)

    def test_edge_sizes_accepted(self, cf_setup):
        matrix, feats, queries = cf_setup
        for size in (1, matrix.num_users):
            em.cf_sampling(matrix, queries[0], size)
            em.cf_clustering(matrix, feats, queries[0], k_clusters=size)
        em.cf_recttree(matrix, feats, queries[0], levels=1, branching=1)

    @pytest.mark.parametrize("iterations", [0, -1])
    @pytest.mark.parametrize("baseline", [
        lambda m, f, q, i: em.cf_clustering(m, f, q, k_clusters=3, iterations=i),
        lambda m, f, q, i: em.cf_recttree(m, f, q, levels=2, iterations=i),
        lambda m, f, q, i: em.cf_recttree(m, f, q, levels=1, iterations=i),
    ], ids=["clustering", "recttree", "recttree-one-level"])
    def test_iterations_below_one_rejected(self, cf_setup, baseline, iterations):
        """No k-means iteration leaves the seeding as the clusters; even a
        hierarchy that never splits refuses the setting."""
        matrix, feats, queries = cf_setup
        with pytest.raises(BaselineConfigError, match="iterations"):
            baseline(matrix, feats, queries[0], iterations)


class TestDeterminism:
    def test_cf_baselines_are_pure_functions_of_seed(self, cf_setup):
        matrix, feats, queries = cf_setup
        q = queries[0]
        assert em.cf_sampling(matrix, q, 10, seed=5) == em.cf_sampling(matrix, q, 10, seed=5)
        assert em.cf_clustering(matrix, feats, q, 4) == em.cf_clustering(matrix, feats, q, 4)
        assert em.cf_recttree(matrix, feats, q, 3) == em.cf_recttree(matrix, feats, q, 3)


class TestUnknownUser:
    """Routing baselines reject an active user without a feature row."""

    @pytest.mark.parametrize("baseline", [
        lambda m, f, q: em.cf_clustering(m, f, q, k_clusters=2),
        lambda m, f, q: em.cf_recttree(m, f, q, levels=2),
    ])
    @pytest.mark.parametrize("user", [0, 51])
    def test_user_outside_features_rejected(self, cf_setup, baseline, user):
        matrix, feats, _ = cf_setup
        query = em.CfQuery.from_matrix(matrix, user, 3)
        with pytest.raises(em.UnknownUserError) as info:
            baseline(matrix, feats, query)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, em.ElasticMineError)

    def test_edge_users_accepted(self, cf_setup):
        matrix, feats, _ = cf_setup
        for user in (1, matrix.num_users):
            query = em.CfQuery.from_matrix(matrix, user, 3)
            assert em.cf_clustering(matrix, feats, query, k_clusters=2).scanned >= 1
            assert em.cf_recttree(matrix, feats, query, levels=2).scanned >= 1
