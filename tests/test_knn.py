import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import elastic_mine as em
from elastic_mine.coding import EXACT_DEPTH
from elastic_mine.errors import (
    BookKindError,
    DimensionMismatchError,
    ElasticMineError,
    ForeignStateError,
    InsufficientCandidatesError,
    InvalidQueryError,
    UndefinedMetricError,
)
from elastic_mine.knn import KnnApproxResult, _average_ranks, _box_sq, refine_chain

from conftest import box_of
from reference import (
    Mbr, ancestor_at, average_ranks, dist_max, dist_min, dual_book_from_hierarchy, max_sq, min_sq,
)

BOX = Mbr(np.array([0.0, 0.0]), np.array([2.0, 2.0]))


class TestDistances:
    def test_dist_max_outside(self):
        assert dist_max([3.0, 3.0], BOX) == pytest.approx(math.sqrt(18))

    def test_dist_max_inside(self):
        assert dist_max([1.0, 1.0], BOX) == pytest.approx(math.sqrt(2))

    def test_dist_max_point_box(self):
        point = Mbr(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert dist_max([1.0, 1.0], point) == 0.0

    def test_dist_min_outside_corner(self):
        assert dist_min([3.0, 3.0], BOX) == pytest.approx(math.sqrt(2))

    def test_dist_min_inside(self):
        assert dist_min([1.0, 1.0], BOX) == 0.0

    def test_dist_min_nearest_face(self):
        assert dist_min([0.0, 5.0], BOX) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist_max([1.0, 2.0, 3.0], BOX)
        with pytest.raises(ValueError):
            dist_min([1.0], BOX)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounds_enclose_point_distances(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 3))
        q = rng.normal(size=3)
        box = Mbr.of_points(pts)
        lo, hi = dist_min(q, box), dist_max(q, box)
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
    book = dual_book_from_hierarchy(ds, pos_spec, neg_spec)
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
        state = em.classify(book, 1, query, em.state_of(book, 0, book.roots)).state
        assert state.retained == {ids["N8"], ids["N9"], ids["N10"], ids["N21"]}

    def test_refinement_skips_pruned_children(self, worked_example):
        _, book, ids = worked_example
        query = em.KnnQuery([0.0], 3)
        result = em.classify(book, 1, query, em.state_of(book, 0, book.roots))
        refined = em.classify(book, 2, query, result.state)
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
        with pytest.raises(DimensionMismatchError):
            em.classify(fourclass_book, 1, query, em.state_of(fourclass_book, 0, fourclass_book.roots))

    def test_foreign_state_rejected(self, worked_example, fourclass_book):
        _, book, ids = worked_example
        query = em.KnnQuery([0.0], 3)
        # N12 is a depth-2 node, so no depth-1 state of this book can retain it
        with pytest.raises(ForeignStateError) as info:
            em.state_of(book, 1, [ids["N9"], ids["N12"]])
        assert isinstance(info.value, ValueError)
        # a state of the larger book names ids that are no depth-1 nodes here
        other = em.KnnQuery([0.0, 0.0], 3)
        foreign = em.classify(fourclass_book, 1, other, em.state_of(fourclass_book, 0, fourclass_book.roots)).state
        with pytest.raises(ForeignStateError):
            em.classify(book, 2, query, foreign)
        with pytest.raises(ForeignStateError):
            em.state_of(book, -1, [])

    @pytest.mark.parametrize("rows", [
        [5, 1, 1], [2, 1], [3, 3], ["end"], [0, "end"], [-1], [-1, 0],
    ], ids=["unsorted-repeated", "descending", "repeated", "past-end", "ends-past-end",
            "negative", "starts-negative"])
    def test_public_state_checks_its_rows(self, fourclass_book, rows):
        """A hand-made state is checked although the library's own states are not:
        rows must ascend strictly within the view."""
        view = fourclass_book.columns(2)
        rows = [view.length if r == "end" else r for r in rows]
        with pytest.raises(ForeignStateError, match="state rows must ascend strictly"):
            em.State(view, rows)

    def test_public_state_equals_carried_state(self, fourclass_book):
        query = em.KnnQuery([0.0, 0.0], 3)
        carried = em.classify(fourclass_book, 2, query, em.state_of(fourclass_book, 0, fourclass_book.roots)).state
        assert em.State(carried.view, carried.rows.tolist()) == carried

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
                em.maintain_state(fourclass_book, result)

    def test_refined_result_keeps_its_own_state(self, worked_example):
        _, book, _ = worked_example
        query = em.KnnQuery([0.0], 3)
        state = em.classify(book, 1, query, em.state_of(book, 0, book.roots)).state
        refined = em.classify(book, 2, query, state)
        assert em.maintain_state(book, refined) is refined.state
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
        with pytest.raises(ForeignStateError):
            em.maintain_state(example_cf_book, result)

    def test_state_depth_must_be_shallower(self, worked_example):
        _, book, ids = worked_example
        state = em.state_of(book, 2, book.code_at_depth(2).node_ids)
        with pytest.raises(ForeignStateError):
            em.classify(book, 1, em.KnnQuery([0.0], 3), state)
        with pytest.raises(ForeignStateError):
            em.classify(book, 2, em.KnnQuery([0.0], 3), state)


class TestMaintainState:
    def test_hands_on_only_a_carried_state(self, worked_example, monkeypatch):
        """A refined result's own state is handed on without another scan; a
        result that carries no state of this book's code of its depth is refused."""
        _, book, _ = worked_example
        query = em.KnnQuery([0.0], 3)
        refined = em.classify(book, 1, query, em.state_of(book, 0, book.roots))
        deeper = em.classify(book, 2, query, refined.state)
        copy = em.load_codebook(em.dump_codebook(book))
        foreign = em.classify(copy, 1, query, em.state_of(copy, 0, copy.roots))
        refused = [
            em.classify(book, 1, query),  # one-shot
            dataclasses.replace(deeper, state=refined.state),  # hand-built: a state of depth 1 at depth 2
            foreign,  # an equal copy's view
            dataclasses.replace(refined, depth=EXACT_DEPTH),  # of no code
        ]

        def no_scan(*args, **kwargs):
            raise AssertionError("maintain_state mined the code again")

        monkeypatch.setattr(em.knn, "classify", no_scan)
        assert em.maintain_state(book, refined) is refined.state
        assert em.maintain_state(book, deeper) is deeper.state
        for result in refused:
            with pytest.raises(ForeignStateError, match=r"state_of\(book, 0, book.roots\)"):
                em.maintain_state(book, result)

    def test_large_threshold_prunes_nothing(self):
        """The k = 5 nearest of six boxes reach out to 59; the sixth box, at
        minimal distance 58, is no result node but survives too."""
        starts = [None, 9.0, 117.0, 39.0, math.sqrt(1570.0), 13.0]
        feats, pos_spec, neg_spec = [], [], []
        for j, s in enumerate(starts):
            lo, hi = (-1.0, 1.0) if s is None else (s, s + 1.0)
            feats += [[lo], [hi]]
            (pos_spec if j < 3 else neg_spec).append([2 * j, 2 * j + 1])
        ds = em.LabeledDataset(np.array(feats), [1] * 6 + [-1] * 6)
        book = dual_book_from_hierarchy(ds, pos_spec, neg_spec)
        code = book.code_at_depth(1)
        q = em.KnnQuery([59.0], 5)
        mins = [dist_min(q.point, box_of(book, n)) ** 2 for n in code.node_ids]
        assert mins == pytest.approx([3364.0, 2401.0, 3364.0, 361.0,
                                        (58.0 - math.sqrt(1570.0)) ** 2, 2025.0])
        result = em.classify(book, 1, q, em.state_of(book, 0, book.roots))
        assert result.threshold == 59.0 and max(mins) < result.threshold**2
        assert code.node_ids[0] not in result.node_ids
        assert result.state.retained == set(code.node_ids)

    def test_zero_threshold_keeps_only_result_nodes(self):
        feats = np.array([[0.0], [0.0], [5.0], [6.0], [0.0], [7.0]])
        ds = em.LabeledDataset(feats, [1, 1, 1, 1, -1, -1])
        book = dual_book_from_hierarchy(
            ds, [[0], [1], [2], [3]], [[4], [5]]
        )
        q = em.KnnQuery([0.0], 3)
        result = em.classify(book, 1, q, em.state_of(book, 0, book.roots))
        assert result.threshold == 0.0
        # strict > prunes; equality (the three zero-distance nodes) is kept
        assert result.state.retained == set(result.node_ids)

    def test_pruned_subtrees_never_hold_exact_neighbours(self, fourclass_split, fourclass_book):
        train, test = fourclass_split
        book = fourclass_book
        roots = em.state_of(book, 0, book.roots)
        rng = np.random.default_rng(0)
        for qi in rng.choice(len(test), size=20, replace=False):
            query = em.KnnQuery(test.features[qi], 5)
            exact = set(em.exact_knn(train, query).node_ids)
            for depth in book.depths():
                code = book.code_at_depth(depth)
                state = em.classify(book, depth, query, roots).state
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
                state = em.maintain_state(book, result)
                costs.append(em.classify(book, deepest, query, state).scanned)
            assert all(a >= b for a, b in zip(costs, costs[1:]))


def _bounds(book, nid):
    return tuple(book.arrays.bounds[:, :, nid])


def reference_classify(book, code, query, state=None):
    """The node-by-node kernel: every candidate scored by its own box distance."""
    if isinstance(code, int):
        code = book.code_at_depth(code)
    candidates = list(code.node_ids)
    if state is not None:
        candidates = [
            nid for nid in candidates if ancestor_at(book, nid, state.depth) in state.retained
        ]
    if len(candidates) < query.k:
        raise InsufficientCandidatesError(f"{len(candidates)} candidates < k={query.k}")
    scored = sorted((max_sq(query.point, *_bounds(book, nid)), nid) for nid in candidates)
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
    thr_sq = max(max_sq(q, *_bounds(book, nid)) for nid in result.node_ids)
    thr_sq = max(thr_sq, result.threshold**2)
    return [nid for nid in node_ids if min_sq(q, *_bounds(book, nid)) <= thr_sq]


def reference_maintain_state(book, code, query, result):
    if isinstance(code, int):
        code = book.code_at_depth(code)
    return em.state_of(book, code.depth, _reference_keep(book, query, code.node_ids, result))


def reference_chain(book, query, depths=None):
    """One result per depth, the first refined from the state that keeps every root."""
    results, state = [], em.state_of(book, 0, book.roots)
    for depth in book.depths() if depths is None else depths:
        result = reference_classify(book, depth, query, state)
        results.append(result)
        state = reference_maintain_state(book, depth, query, result)
    return results


@st.composite
def books_and_queries(draw, leaf_capacity=None, same_class_sizes=False):
    """A dual-tree book over points of which some or all sit on an integer
    grid (so distance ties occur), plus a few queries against it."""
    dim = draw(st.integers(1, 9))
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
        roots = em.state_of(book, 0, book.roots)
        for query in queries:
            for depth in book.depths():
                result = em.classify(book, depth, query)
                assert result == reference_classify(book, depth, query)
                assert _plain(result)
                state = em.classify(book, depth, query, roots).state
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
            state = em.state_of(book, 0, book.roots)
            for depth in book.depths():
                result = em.classify(book, depth, query, state)
                state = em.maintain_state(book, result)
                assert state is result.state
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
            chain, state = [], em.state_of(book, 0, book.roots)
            for depth in depths:
                chain.append(em.classify(book, depth, query, state))
                state = em.maintain_state(book, chain[-1])
            assert chain == reference_chain(book, query, depths)

    @given(books_and_queries())
    @settings(max_examples=60, deadline=None)
    def test_roots_state_equals_one_shot(self, case):
        """Refining from the roots' state answers as a one-shot query does, bit
        for bit, and carries the state the reference keeps for that answer; the
        one-shot result carries none to hand on."""
        _, book, queries = case
        roots = em.state_of(book, 0, book.roots)
        for query in queries:
            for depth in book.depths():
                one_shot = em.classify(book, depth, query)
                refined = em.classify(book, depth, query, roots)
                assert refined == dataclasses.replace(one_shot, state=refined.state)
                assert repr(refined.distances) == repr(one_shot.distances)
                assert em.maintain_state(book, refined) is refined.state
                with pytest.raises(ForeignStateError):
                    em.maintain_state(book, one_shot)
                assert refined.state == reference_maintain_state(book, depth, query, one_shot)

    @given(books_and_queries())
    @settings(max_examples=40, deadline=None)
    def test_hand_made_state_equals_carried_state(self, case):
        _, book, queries = case
        for query in queries:
            chain_state = em.state_of(book, 0, book.roots)
            for depth in book.depths():
                result = em.classify(book, depth, query, chain_state)
                chain_state = em.maintain_state(book, result)
                hand = em.state_of(book, chain_state.depth, chain_state.retained)
                assert hand == chain_state
                for deeper in book.depths():
                    if deeper <= depth:
                        continue
                    carried = em.classify(book, deeper, query, chain_state)
                    assert em.classify(book, deeper, query, hand) == carried
                    assert em.maintain_state(book, carried) == em.maintain_state(
                        book, em.classify(book, deeper, query, hand))

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
        state = em.classify(other, shallow, query, em.state_of(other, 0, other.roots)).state
        own = em.state_of(book, shallow, state.retained)
        assert np.array_equal(own.rows, state.rows) and own != state
        with pytest.raises(ForeignStateError):
            em.classify(book, deeper, query, state)
        assert em.classify(book, deeper, query, own).node_ids == em.classify(
            other, deeper, query, state).node_ids

    @given(books_and_queries(leaf_capacity=1, same_class_sizes=True))
    @settings(max_examples=40, deadline=None)
    def test_leaf_chain_distances_equal_exact(self, case):
        """A one-point leaf's box distance is the point's own, bit for bit,
        at every dimensionality: both kernels add the squares first to last."""
        train, book, queries = case
        deepest = book.depths()[-1]
        assert book.code_at_depth(deepest).length == len(train)
        for query in queries:
            chain = refine_chain(book, query)
            exact = em.exact_knn(train, query)
            assert chain[-1].distances == exact.distances
            assert chain[-1].threshold == exact.threshold


@st.composite
def boxes_and_query(draw):
    """Boxes with low <= upp, some of zero width in a dimension, and a query
    whose coordinates may lie on a face of some box."""
    d, n = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    a, b = (draw(arrays(float, (n, d), elements=coords)) for _ in range(2))
    low, upp = np.minimum(a, b), np.maximum(a, b)
    flat = draw(arrays(bool, (n, d)))
    upp[flat] = low[flat]
    q = draw(arrays(float, d, elements=coords))
    on = draw(st.integers(0, n - 1))
    face = draw(arrays(np.int8, d, elements=st.integers(0, 2)))
    q = np.where(face == 1, low[on], np.where(face == 2, upp[on], q))
    return q, low, upp


def _one_box(d):
    """One box of d dimensions and a query; at d = 8 and 9 a pairwise sum
    rounds both its max and its min squares differently from a
    first-to-last one (seed 16 is drawn to show it)."""
    rng = np.random.default_rng(16)
    low = rng.normal(0.0, 3.0, (1, d))
    upp = low + rng.random((1, d))
    return rng.normal(0.0, 3.0, d), low, upp


class TestBoxKernel:
    @given(boxes_and_query())
    # a lone box is a contiguous column, which numpy adds pairwise from 8 coordinates
    @example(_one_box(8))
    @example(_one_box(9))
    @example(_one_box(1))
    @settings(max_examples=300, deadline=None)
    def test_squares_equal_definitions(self, case):
        """The fused kernel's max and min squares over a (2, d, n) bounds
        block are the definitions' bits, each box's squares added first to last."""
        q, low, upp = case
        bounds = np.array((low.T, upp.T))
        both = _box_sq(q, bounds, with_min=True)
        assert both.shape == (2, len(low))
        for r in range(len(low)):
            assert both[0, r] == max_sq(q, low[r], upp[r])
            assert both[1, r] == min_sq(q, low[r], upp[r])
        assert np.array_equal(_box_sq(q, bounds, with_min=False), both[:1])


class TestMalformedQuery:
    @pytest.mark.parametrize("point, k", [
        ([math.nan, 0.0], 5), ([math.inf, 0.0], 5), ([0.0, -math.inf], 5), ([0.0, 0.0], 0),
        ([0.0, 0.0], 2.5), ([0.0, 0.0], True), ([0.0, 0.0], 3.0), ([0.0, 0.0], np.True_),
        ([0.0, 0.0], math.nan),
    ], ids=["nan", "inf", "minus-inf", "k-zero", "k-fraction", "k-bool", "k-integral-float",
            "k-numpy-bool", "k-nan"])
    def test_query_without_answer_rejected(self, point, k):
        """No route answers a NaN or infinite coordinate, or a k that is not an integer from 1."""
        with pytest.raises(InvalidQueryError) as info:
            em.KnnQuery(point, k)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, ElasticMineError)

    def test_numpy_integer_k_accepted(self):
        assert em.KnnQuery([0.0, 0.0], np.int64(3)).k == 3


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
        with pytest.raises(UndefinedMetricError):
            em.accuracy([1], [1, -1])
        with pytest.raises(UndefinedMetricError):
            em.accuracy([], [])


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

    def test_length_mismatch(self):
        with pytest.raises(UndefinedMetricError):
            em.auc([0.1, 0.2], [1, -1, 1])

    @pytest.mark.parametrize("scores, labels", [
        ([math.nan, 0.2, 0.3], [1, -1, 1]),
        ([math.nan, 0.2, math.nan], [1, -1, -1]),
        ([math.inf, 0.2, 0.3], [1, -1, 1]),
    ], ids=["nan", "nan-twice", "inf"])
    def test_non_finite_score_has_no_auc(self, scores, labels):
        with pytest.raises(UndefinedMetricError, match="finite"):
            em.auc(scores, labels)

    @given(arrays(np.float64, st.integers(0, 60), elements=st.integers(-4, 4).map(lambda v: v / 4)))
    @settings(max_examples=200, deadline=None)
    def test_ranks_equal_the_sorted_walk(self, values):
        """Ranks from the tie groups of ``np.unique`` equal the walk's, bit for bit."""
        assert _average_ranks(values).tobytes() == average_ranks(values).tobytes()

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
