import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elastic_mine as em
from elastic_mine.coding import EXACT_DEPTH, Mbr
from elastic_mine.errors import (
    BookKindError,
    DimensionMismatchError,
    ElasticMineError,
    ForeignStateError,
    InsufficientCandidatesError,
    InvalidQueryError,
    UndefinedMetricError,
)
from elastic_mine.knn import KnnApproxResult, refine_chain

from conftest import box_of

BOX = Mbr(np.array([0.0, 0.0]), np.array([2.0, 2.0]))


class TestDistances:
    def test_dist_max_outside(self):
        assert em.dist_max([3.0, 3.0], BOX) == pytest.approx(math.sqrt(18))

    def test_dist_max_inside(self):
        assert em.dist_max([1.0, 1.0], BOX) == pytest.approx(math.sqrt(2))

    def test_dist_max_point_box(self):
        point = Mbr(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert em.dist_max([1.0, 1.0], point) == 0.0

    def test_dist_min_outside_corner(self):
        assert em.dist_min([3.0, 3.0], BOX) == pytest.approx(math.sqrt(2))

    def test_dist_min_inside(self):
        assert em.dist_min([1.0, 1.0], BOX) == 0.0

    def test_dist_min_nearest_face(self):
        assert em.dist_min([0.0, 5.0], BOX) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            em.dist_max([1.0, 2.0, 3.0], BOX)
        with pytest.raises(ValueError):
            em.dist_min([1.0], BOX)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounds_enclose_point_distances(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 3))
        q = rng.normal(size=3)
        box = Mbr.of_points(pts)
        lo, hi = em.dist_min(q, box), em.dist_max(q, box)
        for p in pts:
            d = float(np.linalg.norm(p - q))
            assert lo - 1e-9 <= d <= hi + 1e-9


@pytest.fixture(scope="module")
def worked_example():
    """Two hand-built 3-level trees reproducing the dual-tree walk-through.

    Positive points sit in three groups (two of them near the origin),
    negatives in three groups of which only one is close. With k=3 the
    depth-1 scan picks both near-positive boxes plus the near-negative
    one, prunes the two far negative boxes, and the refinement therefore
    skips exactly their five children.
    """
    feats = np.array(
        [[-4.5], [-5.5], [-1.0], [-2.0], [1.0], [2.0], [3.0],  # positives
         [-20.0], [-21.0], [4.0], [5.0], [30.0], [31.0], [32.0]]  # negatives
    )
    labels = [1] * 7 + [-1] * 7
    ds = em.LabeledDataset(feats, labels)
    pos_spec = [[[0], [1]], [[2], [3]], [[4], [5], [6]]]
    neg_spec = [[[7], [8]], [[9], [10]], [[11], [12], [13]]]
    book = em.dual_book_from_hierarchy(ds, pos_spec, neg_spec)
    ids = {
        "N8": 1, "N9": 4, "N10": 7, "N20": 12, "N21": 15, "N22": 18,
        "N12": 13, "N13": 14, "N17": 19, "N18": 20, "N19": 21,
    }
    return ds, book, ids


class TestClassify:
    def test_first_code_unites_both_trees(self, worked_example):
        _, book, ids = worked_example
        code = book.code_at_depth(1)
        assert set(code.node_ids) == {
            ids["N8"], ids["N9"], ids["N10"], ids["N20"], ids["N21"], ids["N22"]
        }
        assert code.length == 6

    def test_depth1_selection(self, worked_example):
        _, book, ids = worked_example
        result = em.classify(book, 1, em.KnnQuery([0.0], 3))
        assert set(result.node_ids) == {ids["N9"], ids["N10"], ids["N21"]}
        assert result.threshold == pytest.approx(5.0)  # distance to the negative box
        assert result.scanned == 6
        assert (result.k_pos, result.k_neg, result.predicted) == (2, 1, em.POSITIVE)

    def test_state_prunes_far_boxes(self, worked_example):
        _, book, ids = worked_example
        query = em.KnnQuery([0.0], 3)
        result = em.classify(book, 1, query)
        state = em.maintain_state(book, query, result)
        assert state.retained == {ids["N8"], ids["N9"], ids["N10"], ids["N21"]}

    def test_refinement_skips_pruned_children(self, worked_example):
        _, book, ids = worked_example
        query = em.KnnQuery([0.0], 3)
        result = em.classify(book, 1, query)
        state = em.maintain_state(book, query, result)
        refined = em.classify(book, 2, query, state)
        assert refined.scanned == 9  # 14-node code minus the 5 pruned children
        excluded = {ids[n] for n in ("N12", "N13", "N17", "N18", "N19")}
        assert excluded.isdisjoint(refined.node_ids)
        assert refined.threshold <= result.threshold

    def test_code_of_exactly_k_nodes(self, worked_example):
        _, book, _ = worked_example
        result = em.classify(book, 1, em.KnnQuery([0.0], 6))
        assert result.scanned == 6
        assert len(result.node_ids) == 6

    def test_insufficient_candidates_after_filtering(self, worked_example):
        _, book, ids = worked_example
        state = em.state_of(book, 1, [ids["N9"]])
        with pytest.raises(InsufficientCandidatesError):
            em.classify(book, 2, em.KnnQuery([0.0], 3), state)

    def test_query_dimension_must_match_book(self, fourclass_book):
        query = em.KnnQuery([100.0], 3)  # a 1-d query against 2-d boxes
        with pytest.raises(DimensionMismatchError) as info:
            em.classify(fourclass_book, 1, query)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, ElasticMineError)
        result = em.classify(fourclass_book, 1, em.KnnQuery([0.0, 0.0], 3))
        with pytest.raises(DimensionMismatchError):
            em.maintain_state(fourclass_book, query, result)

    def test_foreign_state_rejected(self, worked_example, fourclass_book):
        _, book, ids = worked_example
        query = em.KnnQuery([0.0], 3)
        # N12 is a depth-2 node, so no depth-1 state of this book can retain it
        with pytest.raises(ForeignStateError) as info:
            em.state_of(book, 1, [ids["N9"], ids["N12"]])
        assert isinstance(info.value, ValueError)
        # a state of the larger book names ids that are no depth-1 nodes here
        other = em.KnnQuery([0.0, 0.0], 3)
        first = em.classify(fourclass_book, 1, other)
        foreign = em.maintain_state(fourclass_book, other, first)
        with pytest.raises(ForeignStateError):
            em.classify(book, 2, query, foreign)
        with pytest.raises(ForeignStateError):
            em.state_of(book, -1, [])
        # hand-made rows: unsorted and repeated, past the view's end, negative
        view = fourclass_book.columns(2)
        for rows in ([5, 1, 1], [view.length], [-1]):
            with pytest.raises(ForeignStateError):
                em.State(view, rows)

    def test_result_of_no_code_has_no_state(self, fourclass_split, fourclass_book):
        """The exact oracle and both anytime baselines scan no code, so none of
        their results has a state, even where their ids are node ids of a depth."""
        train, test = fourclass_split
        query = em.KnnQuery(test.features[0], 5)
        results = [em.exact_knn(train, query), em.anytime_knn_ranking(train, query, 50),
                   em.anytime_knn_rtree(fourclass_book, train, query, 50)]
        for result in results:
            assert result.depth == EXACT_DEPTH
            with pytest.raises(ForeignStateError):
                em.maintain_state(fourclass_book, query, result)

    def test_refined_result_keeps_its_own_state(self, worked_example):
        _, book, _ = worked_example
        query = em.KnnQuery([0.0], 3)
        state = em.maintain_state(book, query, em.classify(book, 1, query))
        refined = em.classify(book, 2, query, state)
        assert em.maintain_state(book, query, refined) is refined.state
        assert refined.state.depth == 2

    def test_code_is_no_depth(self, worked_example):
        """Every miner names a code by its depth; a Code fails, naming its type."""
        _, book, _ = worked_example
        code = book.code_at_depth(2)
        calls = [lambda: em.classify(book, code, em.KnnQuery([0.0], 3)),
                 lambda: em.total_mbr_volume(book, code), lambda: em.state_of(book, code, [])]
        for call in calls:
            with pytest.raises(TypeError) as info:
                call()
            assert "'Code'" in str(info.value) and len(str(info.value)) < 80

    def test_book_of_another_kind_rejected(self, example_cf_book):
        """A CF book's nodes are unlabeled: a vote among them has no answer."""
        query = em.KnnQuery([1.0, 1.0], 1)
        assert example_cf_book.code_at_depth(1).dimensionality == 2
        with pytest.raises(BookKindError):
            em.classify(example_cf_book, 1, query)
        result = KnnApproxResult(1, (1,), (0.0,), 1, 0, em.POSITIVE, 0.0, 2)
        with pytest.raises(BookKindError):
            em.maintain_state(example_cf_book, query, result)

    def test_state_depth_must_be_shallower(self, worked_example):
        _, book, ids = worked_example
        state = em.state_of(book, 2, book.code_at_depth(2).node_ids)
        with pytest.raises(ForeignStateError):
            em.classify(book, 1, em.KnnQuery([0.0], 3), state)
        with pytest.raises(ForeignStateError):
            em.classify(book, 2, em.KnnQuery([0.0], 3), state)


class TestMaintainState:
    def test_large_threshold_prunes_nothing(self):
        """Six boxes at squared min-distances up to 13689 all survive a 25210 threshold."""
        starts = [None, 9.0, 117.0, 39.0, math.sqrt(1570.0), 13.0]
        feats, pos_spec, neg_spec = [], [], []
        for j, s in enumerate(starts):
            lo, hi = (-1.0, 1.0) if s is None else (s, s + 1.0)
            feats += [[lo], [hi]]
            (pos_spec if j < 3 else neg_spec).append([2 * j, 2 * j + 1])
        ds = em.LabeledDataset(np.array(feats), [1] * 6 + [-1] * 6)
        book = em.dual_book_from_hierarchy(ds, pos_spec, neg_spec)
        code = book.code_at_depth(1)
        q = em.KnnQuery([0.0], 3)
        min_sq = [em.dist_min(q.point, box_of(book, n)) ** 2 for n in code.node_ids]
        assert min_sq == pytest.approx([0.0, 81.0, 13689.0, 1521.0, 1570.0, 169.0])
        result = em.classify(book, 1, q)
        fake = KnnApproxResult(
            depth=1, node_ids=result.node_ids, distances=result.distances,
            k_pos=result.k_pos, k_neg=result.k_neg, predicted=result.predicted,
            threshold=math.sqrt(25210.0), scanned=6,
        )
        state = em.maintain_state(book, q, fake)
        assert len(state.retained) == 6

    def test_zero_threshold_keeps_only_result_nodes(self):
        feats = np.array([[0.0], [0.0], [5.0], [6.0], [0.0], [7.0]])
        ds = em.LabeledDataset(feats, [1, 1, 1, 1, -1, -1])
        book = em.dual_book_from_hierarchy(
            ds, [[0], [1], [2], [3]], [[4], [5]]
        )
        q = em.KnnQuery([0.0], 3)
        result = em.classify(book, 1, q)
        assert result.threshold == 0.0
        state = em.maintain_state(book, q, result)
        # strict > prunes; equality (the three zero-distance nodes) is kept
        assert state.retained == set(result.node_ids)

    def test_pruned_subtrees_never_hold_exact_neighbours(self, fourclass_split, fourclass_book):
        train, test = fourclass_split
        book = fourclass_book
        rng = np.random.default_rng(0)
        for qi in rng.choice(len(test), size=20, replace=False):
            query = em.KnnQuery(test.features[qi], 5)
            exact = set(em.exact_knn(train, query).node_ids)
            for depth in book.depths():
                code = book.code_at_depth(depth)
                result = em.classify(book, depth, query)
                state = em.maintain_state(book, query, result)
                pruned = set(code.node_ids) - state.retained
                for nid in pruned:
                    assert exact.isdisjoint(book.arrays.members_of(nid).tolist())


class TestMonotonicityProperties:
    def test_threshold_nonincreasing_with_depth(self, fourclass_split, fourclass_book):
        _, test = fourclass_split
        for qi in range(25):
            results = refine_chain(fourclass_book, em.KnnQuery(test.features[qi], 5))
            thresholds = [r.threshold for r in results]
            assert all(a >= b - 1e-9 for a, b in zip(thresholds, thresholds[1:]))

    def test_deeper_start_state_scans_no_more(self, fourclass_split, fourclass_book):
        train, test = fourclass_split
        book = fourclass_book
        deepest = book.depths()[-1]
        for qi in range(25):
            query = em.KnnQuery(test.features[qi], 5)
            results = refine_chain(book, query)
            costs = [em.classify(book, deepest, query).scanned]
            for result in results[:-1]:
                state = em.maintain_state(book, query, result)
                costs.append(em.classify(book, deepest, query, state).scanned)
            assert all(a >= b for a, b in zip(costs, costs[1:]))


def _reference_max_sq(q, mbr):
    d = np.maximum(np.abs(q - mbr.low), np.abs(q - mbr.upp))
    return float(d @ d)


def _reference_min_sq(q, mbr):
    d = np.maximum(0.0, np.maximum(mbr.low - q, q - mbr.upp))
    return float(d @ d)


def reference_classify(book, code, query, state=None):
    """The node-by-node kernel: every candidate scored by its own box distance."""
    if isinstance(code, int):
        code = book.code_at_depth(code)
    candidates = list(code.node_ids)
    if state is not None:
        candidates = [
            nid for nid in candidates if book.ancestor_at(nid, state.depth) in state.retained
        ]
    if len(candidates) < query.k:
        raise InsufficientCandidatesError(f"{len(candidates)} candidates < k={query.k}")
    scored = sorted((_reference_max_sq(query.point, box_of(book, nid)), nid) for nid in candidates)
    top = scored[: query.k]
    k_pos = sum(1 for _, nid in top if book.arrays.label[nid] == em.POSITIVE)
    k_neg = query.k - k_pos
    result = KnnApproxResult(
        depth=code.depth,
        node_ids=tuple(nid for _, nid in top),
        distances=tuple(float(np.sqrt(d2)) for d2, _ in top),
        k_pos=k_pos,
        k_neg=k_neg,
        predicted=em.POSITIVE if k_pos > k_neg else em.NEGATIVE,
        threshold=float(np.sqrt(top[-1][0])),
        scanned=len(candidates),
    )
    if state is None:
        return result
    # a refined result keeps the candidates it did not prune
    kept = em.state_of(book, code.depth, _reference_keep(book, query, candidates, result))
    return dataclasses.replace(result, state=kept)


def _reference_keep(book, query, node_ids, result):
    """The given nodes whose minimal distance is within the result's threshold."""
    q = query.point
    thr_sq = max(_reference_max_sq(q, box_of(book, nid)) for nid in result.node_ids)
    thr_sq = max(thr_sq, result.threshold**2)
    return [nid for nid in node_ids if _reference_min_sq(q, box_of(book, nid)) <= thr_sq]


def reference_maintain_state(book, code, query, result):
    if isinstance(code, int):
        code = book.code_at_depth(code)
    return em.state_of(book, code.depth, _reference_keep(book, query, code.node_ids, result))


def reference_chain(book, query, depths=None):
    results, state = [], None
    for depth in book.depths() if depths is None else depths:
        result = reference_classify(book, depth, query, state)
        results.append(result)
        state = reference_maintain_state(book, depth, query, result)
    return results


@st.composite
def books_and_queries(draw, leaf_capacity=None, same_class_sizes=False):
    """A dual-tree book over points of which some or all sit on an integer
    grid (so distance ties occur), plus a few queries against it."""
    dim = draw(st.integers(1, 3))
    max_entries = draw(st.integers(2, 5))
    if leaf_capacity is None:
        leaf_capacity = draw(st.sampled_from([1, None]))
    low = max_entries + 1
    pos = draw(st.integers(low, 40))
    neg = pos if same_class_sizes else draw(st.integers(low, 40))
    grid_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.normal(0.0, 2.0, size=(pos + neg, dim))
    snap = rng.random(pos + neg) < grid_share
    feats[snap] = np.round(feats[snap])
    train = em.LabeledDataset(feats, [1] * pos + [-1] * neg)
    book = em.build_dual_rtrees(train, max_entries=max_entries, leaf_capacity=leaf_capacity)
    shortest = book.code_at_depth(book.depths()[0]).length
    queries = []
    for _ in range(4):
        point = rng.normal(0.0, 2.5, dim)
        if rng.random() < grid_share:
            point = np.round(2 * point) / 2
        queries.append(em.KnnQuery(point, int(rng.integers(1, min(shortest, 6) + 1))))
    return train, book, queries


def _plain(result):
    return (
        all(type(i) is int for i in result.node_ids)
        and all(type(x) is float for x in result.distances)
        and type(result.threshold) is float
        and type(result.scanned) is int
        and type(result.k_pos) is int
        and type(result.k_neg) is int
    )


class TestVectorisedKernel:
    """The columnar kernel against the node-by-node reference, field for field."""

    @given(books_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_kernel(self, case):
        _, book, queries = case
        for query in queries:
            for depth in book.depths():
                result = em.classify(book, depth, query)
                assert result == reference_classify(book, depth, query)
                assert _plain(result)
                state = em.maintain_state(book, query, result)
                assert state == reference_maintain_state(book, depth, query, result)
                assert type(state.retained) is frozenset
                assert all(type(i) is int for i in state.retained)
            chain = refine_chain(book, query)
            assert chain == reference_chain(book, query)
            assert all(_plain(r) for r in chain)

    @given(books_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_refined_states_equal_whole_code_scan(self, case):
        """A state kept from a refined scan's own candidates is the state a
        scan of the whole code keeps, and its carried rows name its nodes."""
        _, book, queries = case
        for query in queries:
            state = None
            for depth in book.depths():
                result = em.classify(book, depth, query, state)
                assert (result.state is None) == (state is None)
                state = em.maintain_state(book, query, result)
                assert state == reference_maintain_state(book, depth, query, result)
                view = book.columns(depth)
                assert state.view is view
                assert np.all(np.diff(state.rows) > 0)
                assert view.ids[state.rows].tolist() == sorted(state.retained)

    @given(books_and_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_depth_subsets_equal_reference_chain(self, case, data):
        _, book, queries = case
        depths = sorted(data.draw(st.sets(st.sampled_from(book.depths()), min_size=1)))
        for query in queries:
            assert refine_chain(book, query, depths) == reference_chain(book, query, depths)

    @given(books_and_queries())
    @settings(max_examples=40, deadline=None)
    def test_hand_made_state_equals_carried_state(self, case):
        _, book, queries = case
        for query in queries:
            chain_state = None
            for depth in book.depths():
                result = em.classify(book, depth, query, chain_state)
                chain_state = em.maintain_state(book, query, result)
                hand = em.state_of(book, chain_state.depth, chain_state.retained)
                assert hand == chain_state
                for deeper in book.depths():
                    if deeper <= depth:
                        continue
                    carried = em.classify(book, deeper, query, chain_state)
                    assert em.classify(book, deeper, query, hand) == carried
                    assert em.maintain_state(book, query, carried) == em.maintain_state(
                        book, query, em.classify(book, deeper, query, hand))

    @given(books_and_queries())
    @settings(max_examples=30, deadline=None)
    def test_foreign_state_with_in_range_rows_rejected(self, case):
        """A state of an equal copy of the book is rejected, although its
        rows and its node ids are valid here: it indexes another view."""
        _, book, queries = case
        other = em.load_codebook(em.dump_codebook(book))
        shallow, deeper = book.depths()[0], book.depths()[-1]
        if shallow == deeper:
            return
        query = queries[0]
        state = em.maintain_state(other, query, em.classify(other, shallow, query))
        own = em.state_of(book, shallow, state.retained)
        assert np.array_equal(own.rows, state.rows) and own != state
        with pytest.raises(ForeignStateError):
            em.classify(book, deeper, query, state)
        assert em.classify(book, deeper, query, own).node_ids == em.classify(
            other, deeper, query, state).node_ids

    @given(books_and_queries(leaf_capacity=1, same_class_sizes=True))
    @settings(max_examples=40, deadline=None)
    def test_leaf_chain_distances_equal_exact(self, case):
        train, book, queries = case
        deepest = book.depths()[-1]
        assert book.code_at_depth(deepest).length == len(train)
        for query in queries:
            chain = refine_chain(book, query)
            exact = em.exact_knn(train, query)
            assert chain[-1].distances == pytest.approx(exact.distances, rel=1e-12, abs=0.0)
            assert chain[-1].threshold == pytest.approx(exact.threshold, rel=1e-12, abs=0.0)


class TestMalformedQuery:
    @pytest.mark.parametrize("point, k", [
        ([math.nan, 0.0], 5), ([math.inf, 0.0], 5), ([0.0, -math.inf], 5), ([0.0, 0.0], 0),
    ], ids=["nan", "inf", "minus-inf", "k-zero"])
    def test_query_without_answer_rejected(self, point, k):
        """No route answers a NaN or infinite coordinate, or k below 1."""
        with pytest.raises(InvalidQueryError) as info:
            em.KnnQuery(point, k)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, ElasticMineError)


class TestExactKnn:
    def test_single_training_point(self):
        ds = em.LabeledDataset([[1.0, 1.0]], [1])
        result = em.exact_knn(ds, em.KnnQuery([0.0, 0.0], 1))
        assert result.predicted == em.POSITIVE
        assert result.node_ids == (0,)

    def test_query_on_training_point(self, fourclass):
        result = em.exact_knn(fourclass, em.KnnQuery(fourclass.features[5], 3))
        assert result.distances[0] == 0.0
        assert 5 in result.node_ids

    def test_k_larger_than_train_rejected(self):
        ds = em.LabeledDataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(ValueError):
            em.exact_knn(ds, em.KnnQuery([0.0], 3))

    def test_k_larger_than_train_is_typed(self):
        ds = em.LabeledDataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(InsufficientCandidatesError) as info:
            em.exact_knn(ds, em.KnnQuery([0.0], 3))
        assert isinstance(info.value, ElasticMineError)

    def test_fourclass_quality(self, fourclass_split):
        train, test = fourclass_split
        preds = [em.exact_knn(train, em.KnnQuery(f, 5)).predicted for f in test.features]
        assert em.accuracy(preds, test.labels) >= 0.97

    def test_leaf_code_equals_exact(self):
        """One point per leaf makes the deepest code a faithful oracle twin."""
        rng = np.random.default_rng(3)
        feats = np.vstack([rng.normal(0, 1, (64, 2)), rng.normal(2.5, 1, (64, 2))])
        ds = em.LabeledDataset(feats, [1] * 64 + [-1] * 64)
        book = em.build_dual_rtrees(ds, max_entries=2, leaf_capacity=1)
        deepest = book.depths()[-1]
        assert book.code_at_depth(deepest).length == 128
        for _ in range(50):
            q = em.KnnQuery(rng.normal(1.2, 1.5, 2), 5)
            assert em.classify(book, deepest, q).predicted == em.exact_knn(ds, q).predicted


class TestAccuracy:
    def test_three_of_four(self):
        assert em.accuracy([1, 1, -1, -1], [1, 1, -1, 1]) == 0.75

    def test_all_correct(self):
        assert em.accuracy([1, -1], [1, -1]) == 1.0

    def test_all_wrong(self):
        assert em.accuracy([1, 1], [-1, -1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            em.accuracy([1], [1, -1])


def pair_counting_auc(scores, labels):
    """Quadratic concordant-pair oracle with ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y == em.POSITIVE]
    neg = [s for s, y in zip(scores, labels) if y == em.NEGATIVE]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestAuc:
    # the eight-point ranking fixture: positives hold global ranks 2, 4, 5, 8
    FIXTURE_LABELS = [-1, 1, -1, 1, 1, -1, -1, 1]
    FIXTURE_SCORES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]

    def test_worked_example(self):
        value = em.auc(self.FIXTURE_SCORES, self.FIXTURE_LABELS)
        assert value == pytest.approx(0.5625, abs=1e-12)
        assert value == pytest.approx(
            pair_counting_auc(self.FIXTURE_SCORES, self.FIXTURE_LABELS), abs=1e-12
        )

    def test_perfect_separation(self):
        assert em.auc([0.9, 0.8, 0.1, 0.2], [1, 1, -1, -1]) == 1.0

    def test_all_scores_equal(self):
        assert em.auc([0.5] * 6, [1, 1, 1, -1, -1, -1]) == 0.5

    def test_one_class_missing(self):
        with pytest.raises(UndefinedMetricError):
            em.auc([0.1, 0.2], [1, 1])

    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=2, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_matches_pair_counting_oracle(self, rows):
        labels = [1 if b else -1 for _, b in rows]
        if len(set(labels)) < 2:
            return
        scores = [s / 5 for s, _ in rows]
        assert em.auc(scores, labels) == pytest.approx(
            pair_counting_auc(scores, labels), abs=1e-12
        )
