import dataclasses
import hashlib
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import elastic_mine as em
from elastic_mine.coding import _point_sq, _ranges, kmeans, state_filter
from elastic_mine.errors import (
    BudgetTooSmallError, ClassMissingError, CodebookConfigError, DepthNotFoundError,
    InvalidDatasetError, ParseError,
)

from conftest import (
    EXAMPLE_HIERARCHY, NON_INTEGERS, TABLE_FEATURES, aggregates_of, leaf_with_members, non_integer_rows,
)
from reference import (
    Mbr, _sum_sq, aggregate_ratings, ancestor_at, cf_book_from_hierarchy, dual_book_from_hierarchy, str_columns,
)


DATA = Path(__file__).parent / "data"


def make_dataset(n_pos, n_neg, d=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_pos + n_neg, d))
    labels = np.r_[np.ones(n_pos), -np.ones(n_neg)]
    return em.LabeledDataset(feats, labels)


def chunk(seq, n_groups):
    base, rem = divmod(len(seq), n_groups)
    out, idx = [], 0
    for g in range(n_groups):
        size = base + (1 if g < rem else 0)
        out.append(seq[idx : idx + size])
        idx += size
    return out


class TestDualRtrees:
    def test_21_points_capacity_3(self):
        """21 points at capacity 3 pack into 7 three-point leaves over 3 tree levels."""
        ds = make_dataset(21, 21, seed=4)
        book = em.build_dual_rtrees(ds, max_entries=3, seed=0)
        nodes = book.arrays
        is_leaf = np.diff(nodes.child_csr[0]) == 0
        for tree in (0, 1):
            leaves = np.flatnonzero((nodes.tree == tree) & is_leaf)
            assert len(leaves) == 7
            assert (np.diff(nodes.member_ptr)[leaves] == 3).all()
            assert book.tree_depth(tree) == 2  # root, internal, leaves
        assert book.depths() == (1, 2)

    def test_single_point_classes_warn(self):
        ds = make_dataset(1, 1)
        book = em.build_dual_rtrees(ds, max_entries=4)
        assert book.depths() == ()
        assert any("no usable code" in w for w in book.warnings)

    def test_missing_class_rejected(self):
        ds = em.LabeledDataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(ClassMissingError):
            em.build_dual_rtrees(ds)

    def test_max_entries_validated(self, fourclass):
        with pytest.raises(ValueError):
            em.build_dual_rtrees(fourclass, max_entries=1)

    def test_code_length_profile(self, fourclass):
        """Five code depths with per-depth lengths near the reference profile."""
        book = em.build_dual_rtrees(fourclass, max_entries=3, seed=7)
        reference = [6, 15, 36, 88, 253]  # construction-dependent, match within 20%
        lengths = [book.code_at_depth(d).length for d in book.depths()]
        assert len(lengths) == 5
        for got, want in zip(lengths, reference):
            assert abs(got - want) <= 0.2 * want

    def test_members_partition_training_set(self, fourclass_book, fourclass_split):
        train, _ = fourclass_split
        for depth in fourclass_book.depths():
            members = []
            for nid in fourclass_book.code_at_depth(depth).node_ids:
                members.extend(fourclass_book.arrays.members_of(nid).tolist())
            assert sorted(members) == list(range(len(train)))

    def test_unequal_tree_heights_drop_extra_depths(self):
        ds = make_dataset(6, 400, seed=9)
        book = em.build_dual_rtrees(ds, max_entries=3, seed=0)
        assert book.tree_depth(0) < book.tree_depth(1)
        assert book.depths()[-1] == book.tree_depth(0)
        assert any("heights differ" in w for w in book.warnings)
        for depth in book.depths():
            trees = set(book.arrays.tree[list(book.code_at_depth(depth).node_ids)].tolist())
            assert trees == {0, 1}

    def test_parent_count_is_sum_of_children(self, fourclass_book):
        nodes = fourclass_book.arrays
        counts = np.diff(nodes.member_ptr)
        for i in range(len(nodes)):
            children = nodes.children_of(i)
            if len(children):
                assert counts[i] == counts[children].sum()


class TestTreeInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_enclosure_balance_volume(self, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(8, 300))
        n_neg = int(rng.integers(8, 300))
        d = int(rng.integers(1, 5))
        cap = int(rng.integers(2, 6))
        ds = make_dataset(n_pos, n_neg, d=d, seed=seed + 100)
        book = em.build_dual_rtrees(ds, max_entries=cap, seed=seed)
        # enclosure: every parent box contains every child box
        nodes = book.arrays
        child = np.flatnonzero(nodes.parent >= 0)
        parent = nodes.parent[child]
        low, upp = nodes.bounds
        assert (low[:, parent] <= low[:, child]).all()
        assert (upp[:, child] <= upp[:, parent]).all()
        # depth balance: every leaf of a tree sits at that tree's max depth
        is_leaf = np.diff(nodes.child_csr[0]) == 0
        for tree in (0, 1):
            depths = set(nodes.depth[(nodes.tree == tree) & is_leaf].tolist())
            assert len(depths) == 1
        # volume never grows with depth; lengths strictly grow
        vols = [em.total_mbr_volume(book, dd) for dd in book.depths()]
        assert all(a >= b - 1e-9 for a, b in zip(vols, vols[1:]))
        lengths = [book.code_at_depth(dd).length for dd in book.depths()]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_deterministic_serialization(self, fourclass):
        a = em.build_dual_rtrees(fourclass, max_entries=3, seed=7)
        b = em.build_dual_rtrees(fourclass, max_entries=3, seed=7)
        assert em.dump_codebook(a) == em.dump_codebook(b)


class TestCfCodebook:
    def test_leaf_aggregates_match_worked_example(self, example_cf_book):
        """Three users' shared item averages 4.67/4.33; a single rater passes through."""
        leaf = aggregates_of(example_cf_book, leaf_with_members(example_cf_book, {0, 1, 2}))
        agg1 = leaf[1]
        assert agg1.rating == pytest.approx(14 / 3, abs=1e-9)
        assert agg1.rater_mean == pytest.approx(13 / 3, abs=1e-9)
        assert agg1.raters == 3
        assert 2 not in leaf
        agg3 = leaf[3]
        assert (agg3.rating, agg3.rater_mean, agg3.raters) == (3.0, 4.0, 1)

    def test_root_covers_all_items(self, example_matrix):
        book = em.build_cf_codebook(example_matrix, TABLE_FEATURES, max_entries=3)
        root = book.roots[0]
        assert sorted(aggregates_of(book, root)) == [1, 2, 3, 4, 5]
        assert len(book.arrays.members_of(root)) == 12

    def test_str_build_recovers_example_leaves(self, example_matrix):
        book = em.build_cf_codebook(example_matrix, TABLE_FEATURES, max_entries=3)
        nodes = book.arrays
        leaf_sets = {frozenset(nodes.members_of(i).tolist())
                     for i in range(len(nodes)) if not len(nodes.children_of(i))}
        assert leaf_sets == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5}),
            frozenset({6, 7, 8}), frozenset({9, 10, 11}),
        }

    def test_aggregates_recomputed_from_raw_matrix(self, example_matrix):
        book = em.build_cf_codebook(example_matrix, TABLE_FEATURES, max_entries=2)
        for nid in range(len(book.arrays)):
            users = [m + 1 for m in book.arrays.members_of(nid).tolist()]
            aggregates = aggregates_of(book, nid)
            items = {i for u in users for i in example_matrix.user_ratings(u)}
            assert set(aggregates) == items
            for item in items:
                raters = [u for u in users if item in example_matrix.user_ratings(u)]
                agg = aggregates[item]
                assert agg.raters == len(raters)
                assert agg.rating == pytest.approx(
                    np.mean([example_matrix.ratings[(u, item)] for u in raters]), abs=1e-9
                )
                assert agg.rater_mean == pytest.approx(
                    np.mean([example_matrix.user_mean(u) for u in raters]), abs=1e-9
                )

    def test_huge_item_ids_aggregate_as_small_ones(self):
        """Items are keyed by rank where ids are large, so a key cannot wrap
        int64: renaming an item to 2**61 changes the book's item ids and
        nothing else."""
        matrix = em.synthetic.ratings_like(60, 30, seed=1)
        users, items, ratings = matrix.rating_arrays()
        huge = 2**61
        keys = zip(users.tolist(), [huge if i == 30 else i for i in items.tolist()])
        renamed = em.RatingMatrix(60, huge, dict(zip(keys, ratings.tolist())))
        features = np.random.default_rng(0).normal(size=(60, 3))
        want, got = (em.build_cf_codebook(m, features, max_entries=3).arrays for m in (matrix, renamed))
        for name in ("tree", "depth", "parent", "label", "bounds", "member_ptr", "members"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("ptr", "rating", "rater_mean", "raters"):
            assert np.array_equal(getattr(got.aggregates, name), getattr(want.aggregates, name)), name
        assert np.array_equal(got.aggregates.item, np.where(want.aggregates.item == 30, huge, want.aggregates.item))

    def test_feature_row_count_checked(self, example_matrix):
        with pytest.raises(ValueError):
            em.build_cf_codebook(example_matrix, TABLE_FEATURES[:5], max_entries=3)
        matrix = em.RatingMatrix(3, 2, {(1, 1): 5.0, (2, 1): 3.0, (3, 2): 1.0})
        for rows in (5, 2):  # one row per user, neither more nor fewer
            with pytest.raises(ValueError, match="feature rows"):
                cf_book_from_hierarchy(matrix, [[1, 2], [3]], np.zeros((rows, 1)))


class TestUserFeatures:
    """Every reader of user features rejects a NaN or infinite one, which
    would seed a k-means centroid that every distance misses."""

    READERS = {
        "build_cf_codebook": lambda m, f: em.build_cf_codebook(m, f, max_entries=3),
        "build_kmeans_codebook": lambda m, f: em.build_kmeans_codebook(m, f),
        "cf_book_from_hierarchy": lambda m, f: cf_book_from_hierarchy(
            m, [list(range(1, 16)), list(range(16, 31))], f),
        "cf_clustering": lambda m, f: em.cf_clustering(m, f, em.CfQuery.from_matrix(m, 1, 1), 3),
        "cf_recttree": lambda m, f: em.cf_recttree(m, f, em.CfQuery.from_matrix(m, 1, 1), 3),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_rejected(self, reader, value):
        matrix = em.synthetic.ratings_like(num_users=30, num_items=20)
        features = np.random.default_rng(0).normal(size=(30, 2))
        self.READERS[reader](matrix, features)
        features[7, 1] = value
        with pytest.raises(InvalidDatasetError, match="NaN or infinite"):
            self.READERS[reader](matrix, features)

    @pytest.mark.parametrize("reader", READERS)
    def test_features_not_2d_rejected(self, reader):
        """A user needs a 2-D row of at least one coordinate; with none every
        distance would read 0.0, and a tree would have no box to build."""
        matrix = em.synthetic.ratings_like(num_users=30, num_items=20)
        for shape in [(30,), (30, 0)]:
            with pytest.raises(InvalidDatasetError, match="2-D with d >= 1"):
                self.READERS[reader](matrix, np.zeros(shape))


class TestKmeansCodebook:
    def test_first_split_groups_taste_clusters(self, example_matrix):
        book = em.build_kmeans_codebook(
            example_matrix, TABLE_FEATURES, branching=2, depth_limit=2, iterations=10, seed=1
        )
        level2 = {frozenset(book.arrays.members_of(n).tolist())
                  for n in book.code_at_depth(1).node_ids}
        assert level2 == {frozenset(range(6)), frozenset(range(6, 12))}

    def test_cluster_count_bound(self, example_matrix):
        book = em.build_kmeans_codebook(
            example_matrix, TABLE_FEATURES, branching=2, depth_limit=3, iterations=5, seed=0
        )
        assert book.code_at_depth(2).length <= 4

    def test_identical_vectors_degenerate(self, example_matrix):
        same = np.ones((12, 2))
        book = em.build_kmeans_codebook(
            example_matrix, same, branching=2, depth_limit=2, iterations=3, seed=0
        )
        # the split collapses; each level still partitions all 12 users
        for depth in book.depths():
            members = []
            for nid in book.code_at_depth(depth).node_ids:
                members.extend(book.arrays.members_of(nid).tolist())
            assert sorted(members) == list(range(12))

    def test_singletons_carried_to_every_level(self):
        matrix = em.RatingMatrix(3, 2, {(1, 1): 5.0, (2, 1): 3.0, (3, 2): 1.0})
        feats = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        book = em.build_kmeans_codebook(matrix, feats, branching=2, depth_limit=3, seed=0)
        for depth in book.depths():
            members = []
            for nid in book.code_at_depth(depth).node_ids:
                members.extend(book.arrays.members_of(nid).tolist())
            assert sorted(members) == [0, 1, 2]

    def test_small_cluster_not_split(self, example_matrix):
        book = em.build_kmeans_codebook(
            example_matrix, TABLE_FEATURES, branching=8, depth_limit=3, iterations=5, seed=0
        )
        assert any("not split" in w for w in book.warnings)

    def test_aggregates_present(self, example_matrix):
        book = em.build_kmeans_codebook(
            example_matrix, TABLE_FEATURES, branching=2, depth_limit=2, seed=1
        )
        for nid in book.code_at_depth(1).node_ids:
            assert aggregates_of(book, nid)

    @pytest.mark.parametrize("d, digest", [
        (3, "5e336a4abd86ee2288bafc576c7f1a85d66fd22c5208dc9a5eddf7963fc56475"),
        (10, "2d37acedfdfe4b9b75efb4ca9d88c9042e6acde0b98ef301a24857e3bf9a0bab"),
    ])
    def test_dump_matches_recorded_digest(self, d, digest):
        """The dump's bytes are pinned at 3 and at 10 feature columns, digests
        recorded before the distance kernel was shared (10 columns were then
        a row sum, which numpy adds pairwise; k-means splits the same now)."""
        matrix = em.synthetic.ratings_like(num_users=150, num_items=80)
        feats = np.random.default_rng(d).normal(size=(150, d)) * np.linspace(0.5, 3.0, d)
        book = em.build_kmeans_codebook(matrix, feats, branching=3, depth_limit=4, seed=0)
        assert hashlib.sha256(em.dump_codebook(book).encode()).hexdigest() == digest


class TestKmeans:
    def test_two_means_split(self):
        labels, _ = kmeans(TABLE_FEATURES, 2, iterations=10)
        groups = {frozenset(np.flatnonzero(labels == c).tolist()) for c in (0, 1)}
        assert groups == {frozenset(range(6)), frozenset(range(6, 12))}

    def test_deterministic(self):
        a, ca = kmeans(TABLE_FEATURES, 3, iterations=10)
        b, cb = kmeans(TABLE_FEATURES, 3, iterations=10)
        assert np.array_equal(a, b)
        assert np.array_equal(ca, cb)

    @pytest.mark.parametrize("X", [
        [[math.nan, 1.0], [0.0, 1.0], [2.0, 3.0]], [[0.0, -math.inf], [0.0, 1.0]], [0.0, 1.0, 2.0],
        [[[0.0], [1.0]], [[2.0], [3.0]]], [[], []],
    ], ids=["nan", "minus-inf", "1d", "3d", "no-column"])
    def test_points_must_be_a_finite_2d_array(self, X):
        with pytest.raises(InvalidDatasetError):
            kmeans(np.array(X), 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("X", [np.zeros((0, 2)), np.float64(5.0), 5.0], ids=["empty", "0d-numpy", "0d"])
    def test_no_points_rejected_before_any_work(self, X):
        """No point has no centre: no "Mean of empty slice" warning, no bare numpy error."""
        with pytest.raises(InvalidDatasetError):
            kmeans(X, 2)


class TestPointSq:
    """The one squared-distance kernel returns, bit for bit, each pair's
    squared gaps added first to last (the definition a box's distance
    follows too), for every width and in every broadcast shape its
    callers use: one query against rows, the ranking's (n, 1, d) against
    (1, n, d) and k-means' (n, 1, d) against (1, k, d)."""

    @given(data=st.data(), d=st.integers(1, 20), n=st.integers(1, 12), k=st.integers(1, 5),
           fortran=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_lone_point_sum(self, data, d, n, k, fortran):
        value = st.floats(-1e100, 1e100, allow_nan=False)
        points = np.array(data.draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
        q = np.array(data.draw(st.lists(value, min_size=d, max_size=d)))
        centroids = points[data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))]
        if fortran:
            points = np.asfortranarray(points)
        cases = [(points, q), (points[:, None, :], points[None, :, :]),
                 (points[:, None, :], centroids[None, :, :])]
        for a, b in cases:
            got = _point_sq(a, b)
            assert got.shape == np.broadcast_shapes(a.shape, b.shape)[:-1]
            pairs = zip(*(x.reshape(-1, d) for x in np.broadcast_arrays(a, b)))
            assert got.tobytes() == np.array([_sum_sq(p - r) for p, r in pairs]).reshape(got.shape).tobytes()


# Every integer setting of a builder or of kmeans, with each value no integer setting accepts.
NON_INTEGER_SETTINGS = non_integer_rows({
    "dual-max-entries": (lambda ds, m, v: em.build_dual_rtrees(ds, max_entries=v), "max entries"),
    "dual-leaf-capacity": (lambda ds, m, v: em.build_dual_rtrees(ds, leaf_capacity=v), "leaf capacity"),
    "dual-seed": (lambda ds, m, v: em.build_dual_rtrees(ds, seed=v), "seed"),
    "cf-max-entries": (lambda ds, m, v: em.build_cf_codebook(m, TABLE_FEATURES, max_entries=v),
                       "max entries"),
    "cf-leaf-capacity": (lambda ds, m, v: em.build_cf_codebook(m, TABLE_FEATURES, leaf_capacity=v),
                         "leaf capacity"),
    "cf-seed": (lambda ds, m, v: em.build_cf_codebook(m, TABLE_FEATURES, seed=v), "seed"),
    "kmeans-branching": (lambda ds, m, v: em.build_kmeans_codebook(m, TABLE_FEATURES, branching=v),
                         "branching"),
    "kmeans-depth-limit": (lambda ds, m, v: em.build_kmeans_codebook(m, TABLE_FEATURES, depth_limit=v),
                           "depth limit"),
    "kmeans-iterations": (lambda ds, m, v: em.build_kmeans_codebook(m, TABLE_FEATURES, iterations=v),
                          "iterations"),
    "kmeans-seed": (lambda ds, m, v: em.build_kmeans_codebook(m, TABLE_FEATURES, seed=v), "seed"),
    "kmeans-function-k": (lambda ds, m, v: kmeans(TABLE_FEATURES, v), "k must be"),
    "kmeans-function-iterations": (lambda ds, m, v: kmeans(TABLE_FEATURES, 2, v), "iterations"),
})


class TestBuilderSettings:
    """A setting that cannot build a usable code raises one typed error, before any work."""

    @pytest.mark.parametrize("build, named", [
        (lambda ds, m: em.build_dual_rtrees(ds, max_entries=1), "max entries"),
        (lambda ds, m: em.build_dual_rtrees(ds, leaf_capacity=0), "leaf capacity"),
        (lambda ds, m: em.build_dual_rtrees(ds, leaf_capacity=-3), "leaf capacity"),
        (lambda ds, m: em.build_cf_codebook(m, TABLE_FEATURES, max_entries=1), "max entries"),
        (lambda ds, m: em.build_cf_codebook(m, TABLE_FEATURES, leaf_capacity=0), "leaf capacity"),
        (lambda ds, m: em.build_kmeans_codebook(m, TABLE_FEATURES, branching=1), "branching"),
        (lambda ds, m: em.build_kmeans_codebook(m, TABLE_FEATURES, iterations=0), "iterations"),
        (lambda ds, m: em.build_kmeans_codebook(m, TABLE_FEATURES, depth_limit=0, iterations=-1),
         "iterations"),
        (lambda ds, m: kmeans(TABLE_FEATURES, 2, iterations=0), "iterations"),
        (lambda ds, m: kmeans(TABLE_FEATURES, 0), "k must be"),
        (lambda ds, m: kmeans(TABLE_FEATURES, -3), "k must be"),
        (lambda ds, m: em.build_kmeans_codebook(m, TABLE_FEATURES, depth_limit=0), "depth limit"),
        (lambda ds, m: em.build_kmeans_codebook(m, TABLE_FEATURES, depth_limit=-2), "depth limit"),
        *NON_INTEGER_SETTINGS,
    ], ids=["dual-max-entries-1", "dual-leaf-capacity-0", "dual-leaf-capacity-negative",
            "cf-max-entries-1", "cf-leaf-capacity-0", "kmeans-branching-1", "kmeans-iterations-0",
            "kmeans-unsplit-iterations-negative", "kmeans-function-iterations-0",
            "kmeans-function-k-0", "kmeans-function-k-negative",
            "kmeans-depth-limit-0", "kmeans-depth-limit-negative"] + [row.id for row in NON_INTEGER_SETTINGS])
    def test_out_of_range_setting_rejected(self, fourclass, example_matrix, build, named):
        with pytest.raises(CodebookConfigError, match=named) as info:
            build(fourclass, example_matrix)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, em.ElasticMineError)

    def test_leaf_capacity_defaults_to_max_entries(self, fourclass):
        assert em.build_dual_rtrees(fourclass, max_entries=3).config["leaf_capacity"] == 3
        assert em.build_dual_rtrees(fourclass, max_entries=3, leaf_capacity=1).config["leaf_capacity"] == 1


@pytest.fixture(scope="module")
def ladder_book():
    """A CF book whose code lengths are exactly 2, 6, 14, 27, 56."""
    level = [[u] for u in range(1, 57)]
    for target in (27, 14, 6, 2):
        level = chunk(level, target)
    matrix = em.RatingMatrix(
        56, 2, {(u, 1 + u % 2): float(u % 5 + 1) for u in range(1, 57)}
    )
    return cf_book_from_hierarchy(matrix, level)


class TestCodeSelection:

    def test_ladder_lengths(self, ladder_book):
        lengths = [ladder_book.code_at_depth(d).length for d in ladder_book.depths()]
        assert lengths == [2, 6, 14, 27, 56]

    def test_select_code_below_budget(self, ladder_book):
        assert em.select_code(ladder_book, 30).length == 27

    def test_select_code_inclusive_boundary(self, ladder_book):
        assert em.select_code(ladder_book, 56).length == 56

    def test_select_code_too_small(self, ladder_book):
        with pytest.raises(BudgetTooSmallError):
            em.select_code(ladder_book, 1)

    @pytest.mark.parametrize("budget", [0, *NON_INTEGERS.values()], ids=["0", *NON_INTEGERS])
    def test_budget_must_be_an_integer_from_1(self, ladder_book, budget):
        with pytest.raises(BudgetTooSmallError, match="length budget"):
            em.select_code(ladder_book, budget)

    def test_book_without_codes_has_nothing_to_select(self, single_leaf_split):
        _, book = single_leaf_split
        assert book.depths() == ()
        with pytest.raises(DepthNotFoundError):
            em.select_code(book, 5)

    def test_code_at_depth_errors(self, fourclass_book):
        with pytest.raises(DepthNotFoundError):
            fourclass_book.code_at_depth(0)
        with pytest.raises(DepthNotFoundError):
            fourclass_book.code_at_depth(99)

    @pytest.mark.parametrize("depth", [1.0, 1.5, True, np.True_, np.float64(1.0)],
                             ids=["1.0", "1.5", "True", "np.True_", "np.float64"])
    def test_depth_must_be_an_integer_whatever_is_cached(self, fourclass, depth):
        """A bool or float depth is no depth, before and after a view is read."""
        book = em.build_dual_rtrees(fourclass)
        with pytest.raises(DepthNotFoundError, match="depth must be an integer"):
            book.columns(depth)
        assert book.code_at_depth(1) is book.code_at_depth(np.int64(1))
        for call in (book.columns, book.code_at_depth, lambda d: em.total_mbr_volume(book, d)):
            with pytest.raises(DepthNotFoundError, match="depth must be an integer"):
                call(depth)

    def test_code_ordering_by_tree_then_construction(self, fourclass_book):
        for depth in fourclass_book.depths():
            ids = fourclass_book.code_at_depth(depth).node_ids
            trees = fourclass_book.arrays.tree[list(ids)].tolist()
            assert trees == sorted(trees)
            assert list(ids) == sorted(ids)


class TestVolume:
    def test_rectangle_area(self):
        mbr = Mbr(np.array([0.0, 0.0]), np.array([2.0, 3.0]))
        assert mbr.volume() == 6.0

    def test_sum_over_nodes(self, example_matrix):
        # one feature row per user: the first four users of the example matrix
        ratings = {(u, i): r for (u, i), r in example_matrix.ratings.items() if u <= 4}
        four_users = em.RatingMatrix(4, 5, ratings)
        book = cf_book_from_hierarchy(
            four_users, [[1, 2], [3, 4]],
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
        )
        assert em.total_mbr_volume(book, 1) == pytest.approx(2.0)

    @pytest.mark.parametrize("depth", [99, -1])
    def test_depth_not_in_book(self, fourclass, depth):
        """A depth the book does not have has no volume, not a volume of 0."""
        book = em.build_dual_rtrees(fourclass)
        assert em.total_mbr_volume(book, 0) > 0
        with pytest.raises(DepthNotFoundError):
            em.total_mbr_volume(book, depth)

    def test_zero_extent_dimension(self):
        mbr = Mbr(np.array([0.0, 1.0]), np.array([5.0, 1.0]))
        assert mbr.volume() == 0.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Mbr(np.array([1.0]), np.array([0.0]))


class TestPersistence:
    def test_round_trip_dual(self, fourclass_book, tmp_path):
        path = tmp_path / "book.ecb"
        em.save_codebook(fourclass_book, path)
        loaded = em.load_codebook(path)
        assert em.dump_codebook(loaded) == em.dump_codebook(fourclass_book)
        assert loaded.depths() == fourclass_book.depths()

    def test_numpy_integer_settings_round_trip(self, fourclass):
        """A book built from numpy integers holds ints: it dumps as one built
        from ints does, and loads back byte for byte."""
        book = em.build_dual_rtrees(fourclass, max_entries=np.int64(3), seed=np.int64(3))
        assert type(book.seed) is int and type(book.config["max_entries"]) is int
        text = em.dump_codebook(book)
        assert text == em.dump_codebook(em.build_dual_rtrees(fourclass, max_entries=3, seed=3))
        assert_round_trip(book)

    def test_round_trip_cf(self, example_cf_book):
        text = em.dump_codebook(example_cf_book)
        loaded = em.load_codebook(text)
        assert em.dump_codebook(loaded) == text
        leaf = leaf_with_members(loaded, {0, 1, 2})
        assert aggregates_of(loaded, leaf)[1].raters == 3

    def test_version_check(self):
        with pytest.raises(ValueError):
            em.load_codebook("elastic-mine-codebook 99\nkind x\n")

    @pytest.mark.parametrize("text", ["", "\n", "elastic-mine-codebook\n", "codebook 1\nkind x\n"])
    def test_bad_header_reports_line_one(self, tmp_path, text):
        path = tmp_path / "bad.ecb"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            em.load_codebook(path)
        assert err.value.line == 1

    def test_malformed_number_reports_line(self, example_cf_book):
        lines = em.dump_codebook(example_cf_book).splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines) if line.startswith("seed "))
        lines[at] = "seed x\n"
        with pytest.raises(ParseError) as err:
            em.load_codebook("".join(lines))
        assert err.value.line == at + 1

    def test_negative_feature_count_reports_line(self, example_cf_book):
        text, at = edited(em.dump_codebook(example_cf_book), "features ", lambda toks: toks.__setitem__(1, "-1"))
        with pytest.raises(ParseError, match="malformed 'features' line \\(negative size\\)") as err:
            em.load_codebook(text)
        assert err.value.line == at

    def test_truncated_dump_rejected(self, fourclass_book):
        lines = em.dump_codebook(fourclass_book).splitlines(keepends=True)
        with pytest.raises(ParseError) as err:
            em.load_codebook("".join(lines[: len(lines) // 2]))
        assert err.value.line == len(lines) // 2 + 1

    def test_empty_string_is_text(self):
        with pytest.raises(ParseError) as err:
            em.load_codebook("")
        assert err.value.line == 1

    def test_header_only_string_is_text(self):
        with pytest.raises(ParseError, match="no 'end' line") as err:
            em.load_codebook("elastic-mine-codebook 1")
        assert err.value.line == 2

    def test_item_id_below_one_rejected(self, example_cf_book):
        """The book's item rule, raised at the 'N' line of the node whose 'A' line it is."""
        lines = em.dump_codebook(example_cf_book).splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines) if line.startswith("A "))
        toks = lines[at].split()
        lines[at] = " ".join(toks[:2] + ["-1"] + toks[3:]) + "\n"
        with pytest.raises(ParseError, match=f"node {toks[1]} aggregates item -1 out of order") as err:
            em.load_codebook("".join(lines))
        assert err.value.line == next(n for n, line in enumerate(lines, 1) if line.startswith(f"N {toks[1]} "))

    def test_child_box_outside_parent_rejected(self, fourclass_book):
        lines = em.dump_codebook(fourclass_book).splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines)
                  if line.startswith("N ") and line.split()[3] == "2")
        toks = lines[at].split()
        low = toks.index("M") + 1
        toks[low] = repr(float(toks[low]) - 1e6)  # still a valid box, now wider than its parent
        lines[at] = " ".join(toks) + "\n"
        with pytest.raises(ParseError, match="not inside the box of its parent"):
            em.load_codebook("".join(lines))

    def test_renumbered_sibling_subtrees_rejected(self, fourclass_book):
        """Swapping the ids of two sibling subtrees keeps every link and box
        consistent but breaks tree order: a subtree is no row range then. The
        swapped lines are written back in id order, as the reader requires."""
        first, second = fourclass_book.arrays.children_of(fourclass_book.roots[0])[:2].tolist()
        swap = {str(first): str(second), str(second): str(first)}
        lines = em.dump_codebook(fourclass_book).splitlines(keepends=True)
        at = [n for n, line in enumerate(lines) if line.startswith("N ")]
        for n in at:
            toks = lines[n].split()
            links = [1, 4] + list(range(toks.index("C") + 1, toks.index("M")))
            for i in links:
                toks[i] = swap.get(toks[i], toks[i])
            lines[n] = " ".join(toks) + "\n"
        in_id_order = sorted((lines[n] for n in at), key=lambda line: int(line.split()[1]))
        for n, line in zip(at, in_id_order):
            lines[n] = line
        with pytest.raises(ParseError, match="tree order"):
            em.load_codebook("".join(lines))

    @pytest.mark.parametrize("edit", ["repeat", "swap"])
    def test_aggregates_out_of_order_rejected(self, example_cf_book, edit):
        """A repeated 'A' line, or two swapped, breaks the book's item order,
        raised at the 'N' line of their node and naming the second line's item."""
        lines = em.dump_codebook(example_cf_book).splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines)
                  if line.startswith("A ") and lines[n + 1].startswith("A "))
        node, item = lines[at].split()[1:3]
        lines[at + 1 : at + 1] = [lines[at]] if edit == "repeat" else []
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
        with pytest.raises(ParseError, match=f"node {node} aggregates item {item} out of order") as err:
            em.load_codebook("".join(lines))
        assert err.value.line == next(n for n, line in enumerate(lines, 1) if line.startswith(f"N {node} "))

    def test_leaf_repeating_a_sibling_member_rejected(self, fourclass_book):
        """Members must partition every depth: no leaf may hold its sibling's member."""
        nodes, depth = fourclass_book.arrays, fourclass_book.usable_depth()
        leaves = np.flatnonzero((nodes.depth == depth) & (np.diff(nodes.child_csr[0]) == 0))
        first, second = next(nodes.children_of(p)[:2] for p in np.unique(nodes.parent[leaves])
                             if len(nodes.children_of(p)) > 1)
        member = str(nodes.members_of(first)[0])
        text, at = edited(em.dump_codebook(fourclass_book), f"N {second} ",
                          lambda toks: toks.append(member))
        with pytest.raises(ParseError, match=f"member {member} is held 2 times at depth {depth}") as err:
            em.load_codebook(text)
        assert err.value.line == at

    def test_missing_roots_line_rejected(self, fourclass_book):
        lines = em.dump_codebook(fourclass_book).splitlines(keepends=True)
        lines = [line for line in lines if not line.startswith("roots ")]
        with pytest.raises(ParseError, match="no 'roots' line") as err:
            em.load_codebook("".join(lines))
        assert err.value.line == len(lines)  # the 'end' line

    def test_root_must_be_a_depth_zero_node(self, fourclass_book):
        text, at = edited(em.dump_codebook(fourclass_book), "roots ",
                          lambda toks: toks.__setitem__(1, "1"))  # a depth-1 node
        with pytest.raises(ParseError, match="not a depth-0 node") as err:
            em.load_codebook(text)
        assert err.value.line == at

    def test_feature_rows_must_match_header(self, example_cf_book):
        lines = em.dump_codebook(example_cf_book).splitlines(keepends=True)
        last = max(n for n, line in enumerate(lines) if line.startswith("F "))
        at = next(n for n, line in enumerate(lines) if line.startswith("features ")) + 1
        with pytest.raises(ParseError, match="'F' lines") as err:
            em.load_codebook("".join(lines[:last] + lines[last + 1 :]))
        assert err.value.line == at

    def test_ragged_feature_row_rejected(self, example_cf_book):
        text, at = edited(em.dump_codebook(example_cf_book), "F ", lambda toks: toks.append("1.0"))
        with pytest.raises(ParseError) as err:
            em.load_codebook(text)
        assert err.value.line == at

    @pytest.mark.parametrize("prefix, index, value, message, reported", [
        ("N ", lambda toks: toks.index("M") + 1, "nan", "the box of node 0 is not finite", "N 0 "),
        ("N ", lambda toks: toks.index("|") + 1, "inf", "the box of node 0 is not finite", "N 0 "),
        ("A ", lambda toks: 4, "inf", "node 0 aggregates item 1 with a non-finite rating or rater mean", "N 0 "),
        ("A ", lambda toks: 3, "-inf", "node 0 aggregates item 1 with a non-finite rating or rater mean", "N 0 "),
        ("F ", lambda toks: 1, "nan", r"the user features must be None or a finite float \(m, d\) array", "features "),
    ], ids=["low", "upp", "rater-mean", "rating", "feature"])
    def test_non_finite_numbers_rejected(self, example_cf_book, prefix, index, value, message, reported):
        """Each number is checked by a rule of the book: a box or an aggregate at
        the line of its node, a feature at the 'features' line."""
        text, _ = edited(em.dump_codebook(example_cf_book), prefix,
                         lambda toks: toks.__setitem__(index(toks), value))
        with pytest.raises(ParseError, match=message) as err:
            em.load_codebook(text)
        assert err.value.line == next(n for n, line in enumerate(text.splitlines(), 1) if line.startswith(reported))

    def test_child_list_must_match_parent_links(self, fourclass_book):
        """A root listing its first child twice keeps every parent link intact."""
        def repeat_first_child(toks):
            c = toks.index("C")
            toks[c + 2] = toks[c + 1]

        text, at = edited(em.dump_codebook(fourclass_book), "N 0 ", repeat_first_child)
        with pytest.raises(ParseError, match="lists children") as err:
            em.load_codebook(text)
        assert err.value.line == at

    @pytest.mark.parametrize("edit", [
        lambda toks: toks.__setitem__(5, "0"),
        lambda toks: toks.__setitem__(4, "-3"),
        lambda toks: toks.__setitem__(4, "0"),
        lambda toks: toks.__setitem__(1, "1"),
        lambda toks: toks.insert(toks.index("|"), "7.0"),
        lambda toks: toks.remove("P"),
        lambda toks: toks.__setitem__(2, "x"),
        lambda toks: toks.__setitem__(toks.index("C") + 1, "1.5"),
    ], ids=["label-0", "negative-parent", "grandparent", "repeated-id", "uneven-box", "no-P", "tree-x",
            "child-1.5"])
    def test_malformed_node_line_reports_line(self, fourclass_book, edit):
        """The last two take the token-by-token path of a number the fast reader rejects."""
        text, at = edited(em.dump_codebook(fourclass_book), "N 2 ", edit)
        with pytest.raises(ParseError) as err:
            em.load_codebook(text)
        assert err.value.line == at

    def test_node_count_must_match_header(self, fourclass_book):
        lines = em.dump_codebook(fourclass_book).splitlines(keepends=True)
        at = next(n for n, line in enumerate(lines) if line.startswith("nodes "))
        lines[at] = f"nodes {len(fourclass_book.arrays) + 1}\n"
        with pytest.raises(ParseError) as err:
            em.load_codebook("".join(lines))
        assert err.value.line == at + 1


class TestV1Fixtures:
    """Version 1 dumps written by the object-per-node implementation."""

    def test_extra_spaces_load_the_same_book(self):
        """Numbers a line spreads over doubled spaces take the token-by-token path."""
        text = (DATA / "example_cf_v1.ecb").read_text()
        spaced = "".join(line.replace(" ", "  ") if line[:2] in ("N ", "A ", "F ") else line
                         for line in text.splitlines(keepends=True))
        assert em.dump_codebook(em.load_codebook(spaced)) == text

    @pytest.mark.parametrize("name", ["fourclass_dual_v1.ecb", "example_cf_v1.ecb"])
    def test_load_and_dump_byte_for_byte(self, name):
        text = (DATA / name).read_text(encoding="utf-8")
        assert em.dump_codebook(em.load_codebook(DATA / name)) == text

    def test_builders_write_the_fixtures(self, fourclass_book, example_cf_book):
        assert em.dump_codebook(fourclass_book) == (DATA / "fourclass_dual_v1.ecb").read_text()
        assert em.dump_codebook(example_cf_book) == (DATA / "example_cf_v1.ecb").read_text()


@st.composite
def dual_datasets(draw):
    """Labeled points, some on an integer grid so that 0.0, -0.0 and ties occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos, neg = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    feats = rng.normal(0.0, 1.5, size=(pos + neg, draw(st.integers(1, 3))))
    snap = rng.random(pos + neg) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    feats[snap] = np.round(feats[snap])
    return em.LabeledDataset(feats, [1] * pos + [-1] * neg)


@st.composite
def rated_books(draw):
    """A rating matrix, its user features and an R-tree or k-means book over them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users, items = draw(st.integers(2, 25)), draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    ratings = {(u, i): float(np.round(rng.uniform(1, 5), int(rng.integers(0, 3))))
               for u in range(1, users + 1) for i in range(1, items + 1) if rng.random() < density}
    ratings.setdefault((1, 1), 3.0)
    matrix = em.RatingMatrix(users + draw(st.integers(0, 2)), items, ratings)
    feats = np.round(rng.normal(0.0, 1.0, size=(matrix.num_users, draw(st.integers(1, 3)))),
                     draw(st.sampled_from([0, 2])))
    if draw(st.booleans()):
        book = em.build_cf_codebook(matrix, feats, max_entries=draw(st.integers(2, 4)),
                                    leaf_capacity=draw(st.sampled_from([1, None])))
    else:
        book = em.build_kmeans_codebook(matrix, feats, branching=draw(st.integers(2, 3)),
                                        depth_limit=draw(st.integers(1, 3)), iterations=2)
    return matrix, feats, book


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestArrayBuilders:
    """The column builders against the scalar definitions, and dump round trips."""

    @given(dual_datasets(), st.integers(2, 4), st.sampled_from([1, None]))
    @settings(max_examples=60, deadline=None)
    def test_dual_boxes_are_of_points(self, train, max_entries, leaf_capacity):
        book = em.build_dual_rtrees(train, max_entries=max_entries, leaf_capacity=leaf_capacity)
        nodes = book.arrays
        for i in range(len(nodes)):
            box = Mbr.of_points(train.features[nodes.members_of(i)])
            assert _same_bits(nodes.bounds[:, :, i], (box.low, box.upp))
        assert_round_trip(book)

    @given(rated_books())
    @settings(max_examples=60, deadline=None)
    def test_rated_boxes_and_aggregates(self, case):
        matrix, feats, book = case
        nodes = book.arrays
        for i in range(len(nodes)):
            box = Mbr.of_points(feats[nodes.members_of(i)])
            assert _same_bits(nodes.bounds[:, :, i], (box.low, box.upp))
            want = aggregate_ratings(matrix, [m + 1 for m in nodes.members_of(i).tolist()])
            assert aggregates_of(book, i) == want  # exact: the same sums in the same order
        assert_round_trip(book)


class TestCfRefine:
    """The rater rule at work: a node aggregates only its parent's items, so a
    state of raters at depth >= 1 keeps every rater of a deeper depth."""

    @given(rated_books(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_refined_step_equals_one_shot(self, case, data):
        """Each refined step of a chain, from the state of depth >= 1 before it,
        equals the one-shot at its depth in every field but ``scanned``, bit for
        bit, and scans no more."""
        matrix, _, book = case
        user = data.draw(st.integers(1, matrix.num_users))
        for item in range(1, matrix.num_items + 1):
            query = em.CfQuery.from_matrix(matrix, user, item)
            for refined in em.cf.refine_chain(book, query, matrix=matrix)[1:]:
                one_shot = em.predict(book, refined.depth, query, matrix=matrix)
                assert repr(dataclasses.replace(refined, scanned=one_shot.scanned)) == repr(one_shot)
                assert refined.state == one_shot.state and refined.scanned <= one_shot.scanned


def grid_points(seed: int, n: int, d: int, scale: float) -> np.ndarray:
    """n points of d coordinates rounded to integers: ties everywhere, and -0.0."""
    rng = np.random.default_rng(seed)
    points = np.round(rng.normal(0.0, scale, size=(n, d)))
    points[rng.random(points.shape) < 0.1] = -0.0
    return points


def assert_str_columns(nodes, want):
    """The book's columns are the node-by-node STR book's, its boxes bit for bit."""
    for name in ("tree", "depth", "parent", "label", "member_ptr", "members"):
        assert getattr(nodes, name).tolist() == want[name].tolist(), name
    assert _same_bits(nodes.bounds, want["bounds"])


class TestBulkLoad:
    """The level-synchronous STR pass builds the book that tiling one node at
    a time builds (``str_rtree`` in tests/reference.py): the same ids, the
    same member order per node and the same boxes."""

    @given(seed=st.integers(0, 2**32 - 1), pos=st.integers(1, 80), neg=st.integers(1, 80), d=st.integers(1, 4),
           scale=st.sampled_from([0.7, 3.0, 30.0]), max_entries=st.integers(2, 6), leaf_capacity=st.integers(1, 5))
    @example(seed=0, pos=1, neg=40, d=2, scale=3.0, max_entries=2, leaf_capacity=1)  # a one-leaf tree
    @example(seed=1, pos=5, neg=80, d=3, scale=0.7, max_entries=3, leaf_capacity=5)  # heights 0 and 3
    @example(seed=2, pos=30, neg=80, d=4, scale=0.7, max_entries=2, leaf_capacity=2)  # heights 4 and 6
    @settings(max_examples=100, deadline=None)
    def test_dual_books(self, seed, pos, neg, d, scale, max_entries, leaf_capacity):
        points = grid_points(seed, pos + neg, d, scale)
        labels = np.random.default_rng(seed).permutation([1] * pos + [-1] * neg)
        book = em.build_dual_rtrees(em.LabeledDataset(points, labels), max_entries, leaf_capacity=leaf_capacity)
        trees = [(np.flatnonzero(labels == label), label) for label in (1, -1)]
        assert_str_columns(book.arrays, str_columns(points, trees, max_entries, leaf_capacity))

    @given(seed=st.integers(0, 2**32 - 1), users=st.integers(1, 120), d=st.integers(1, 4),
           scale=st.sampled_from([0.7, 3.0, 30.0]), max_entries=st.integers(2, 6), leaf_capacity=st.integers(1, 5))
    @example(seed=0, users=3, d=2, scale=3.0, max_entries=2, leaf_capacity=5)  # a one-leaf tree
    @settings(max_examples=60, deadline=None)
    def test_cf_books(self, seed, users, d, scale, max_entries, leaf_capacity):
        points = grid_points(seed, users, d, scale)
        matrix = em.RatingMatrix(users, 1, {(u, 1): 3.0 for u in range(1, users + 1)})
        book = em.build_cf_codebook(matrix, points, max_entries, leaf_capacity=leaf_capacity)
        assert_str_columns(book.arrays, str_columns(points, [(np.arange(users), 0)], max_entries, leaf_capacity))

    def test_skin_book(self):
        """236 distinct values per coordinate and six -0.0 coordinates."""
        train = em.synthetic.skin_like(3000)
        book = em.build_dual_rtrees(train, max_entries=4)
        trees = [(np.flatnonzero(train.labels == label), label) for label in (1, -1)]
        assert_str_columns(book.arrays, str_columns(train.features, trees, 4, 4))


def assert_round_trip(book):
    """dump -> load -> dump is byte-identical."""
    text = em.dump_codebook(book)
    assert em.dump_codebook(em.load_codebook(text)) == text


def edited(text, prefix, edit):
    """The text with ``edit(tokens)`` applied to the first line starting with
    ``prefix``, and that line's 1-based number."""
    lines = text.splitlines(keepends=True)
    at = next(n for n, line in enumerate(lines) if line.startswith(prefix))
    toks = lines[at].split()
    edit(toks)
    lines[at] = " ".join(toks) + "\n"
    return "".join(lines), at + 1


@st.composite
def books_with_a_state(draw):
    """A dual, CF or k-means book with two views, two depths s < d of it and
    ascending rows of the view of s."""
    if draw(st.booleans()):
        book = em.build_dual_rtrees(draw(dual_datasets()), max_entries=draw(st.integers(2, 4)),
                                    leaf_capacity=draw(st.sampled_from([1, None])))
    else:
        book = draw(rated_books())[2]
    usable = book.usable_depth()
    assume(usable >= 1)
    shallower = draw(st.integers(0, usable - 1))
    deeper = draw(st.integers(shallower + 1, usable))
    rows = sorted(draw(st.sets(st.integers(0, book.columns(shallower).length - 1))))
    return book, shallower, deeper, rows


class TestColumnarViews:
    def test_childless_node_above_deepest_code_rejected(self):
        """Moving node 1's only leaf under its sibling keeps every link, child
        list and box consistent, but leaves node 1 childless above depth 2."""
        ds = em.LabeledDataset([[0.0], [0.0], [1.0]], [1, 1, -1])
        book = dual_book_from_hierarchy(ds, [[[0]], [[1]]], [[[2]]])
        assert book.arrays.parent.tolist() == [-1, 0, 1, 0, 3, -1, 5, 6]
        text = em.dump_codebook(book)

        def set_children(*ids):
            return lambda toks: toks.__setitem__(
                slice(toks.index("C") + 1, toks.index("M")), list(ids))

        text, _ = edited(text, "N 1 ", set_children())
        text, _ = edited(text, "N 2 ", lambda toks: toks.__setitem__(4, "3"))
        text, _ = edited(text, "N 3 ", set_children("2", "4"))
        with pytest.raises(ParseError, match="node 1 has no child at depth 2"):
            em.load_codebook(text)

    @given(books_with_a_state())
    @settings(max_examples=80, deadline=None)
    @example((em.build_dual_rtrees(em.synthetic.fourclass_like(42)), 0, 3, [0, 1]))
    def test_state_filter_keeps_the_descendants_of_kept_rows(self, case):
        """From any depth s to any deeper d, the filter keeps exactly the depth-d
        rows whose ancestor at s, found by following parents, is a kept row."""
        book, shallower, deeper, rows = case
        above = book.columns(shallower)
        kept = set(above.ids[rows].tolist())
        want = [r for r, nid in enumerate(book.columns(deeper).ids.tolist())
                if ancestor_at(book, nid, shallower) in kept]
        got = state_filter(book, deeper, em.State(above, np.array(rows, dtype=np.intp)))
        assert got.tolist() == want


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=12))
@example([])
@example([(4, 0), (9, 0)])
@example([(7, 5)])
def test_ranges_concatenate_python_ranges(spans):
    """``_ranges`` is the concatenation of ``range(start, stop)``; empty input and
    zero-length ranges give nothing, a single range gives itself."""
    starts = np.array([start for start, _ in spans], dtype=np.intp)
    stops = np.array([start + length for start, length in spans], dtype=np.intp)
    got = _ranges(starts, stops)
    assert got.dtype == np.intp
    assert got.tolist() == [x for start, length in spans for x in range(start, start + length)]


def assert_one_rule(book, message, node, kind=None, roots=None, features=None, written=None, **columns):
    """Making ``book`` with its kind, roots, features or NodeArrays columns
    replaced and loading the dump of the same edit raise one message, which
    holds ``message`` and names ``node``; the reader raises it at that node's
    'N' line, at the 'features' line for new ``features``, or at the 'roots'
    line when ``node`` is None (a rule of the roots). ``written`` is what the
    dump holds for features the text cannot hold (a 1-D array)."""
    fields = dict(kind=book.kind if kind is None else kind, roots=book.roots if roots is None else roots,
                  arrays=dataclasses.replace(book.arrays, **columns), config=book.config, seed=book.seed,
                  features=book.features if features is None else features, warnings=book.warnings)
    with pytest.raises(ParseError) as made:
        em.CodeBook(**fields)
    dumped = fields if written is None else dict(fields, features=written)
    text = em.dump_codebook(types.SimpleNamespace(**dumped))  # the writer reads only these fields
    with pytest.raises(ParseError) as loaded:
        em.load_codebook(text)
    made, loaded = made.value, loaded.value
    assert message in str(made) and made.line is None
    prefix = "features " if features is not None else "roots " if node is None else f"N {node} "
    line = next(n for n, at in enumerate(text.splitlines(), 1) if at.startswith(prefix))
    assert (made.node, loaded.node, loaded.line, str(loaded)) == (node, node, line, f"line {line}: {made}")


def with_member(nodes, node, member):
    """The member columns of ``nodes`` with ``member`` appended to the members of ``node``."""
    return dict(members=np.insert(nodes.members, nodes.member_ptr[node + 1], member),
                member_ptr=nodes.member_ptr + (np.arange(len(nodes) + 1) > node))


def changed(column, i, value):
    """A copy of ``column`` with entry i set to ``value``."""
    column = column.copy()
    column[i] = value
    return column


def with_items(book, edits):
    """The aggregates of ``book`` with entry k's item set to ``edits[k]``."""
    agg = book.arrays.aggregates
    item = agg.item.copy()
    item[list(edits)] = list(edits.values())
    return dict(aggregates=agg._replace(item=item))


OFFSETS_RULE = "the aggregate offsets must be 8 ascending offsets from 0 to 21"  # of example_cf_book
FEATURES_RULE = "the user features must be None or a finite float (m, d) array with d >= 1"


class TestBoxesOfArrayBooks:
    """A book is checked once, when it is made: a book made straight from
    NodeArrays and the reader's book of the same edit break one rule, with one
    message, and the reader names the line of the node at fault."""

    @pytest.fixture(scope="class")
    def skin_book(self):
        return em.build_dual_rtrees(em.synthetic.skin_like(400), max_entries=4, seed=0)

    @pytest.fixture(scope="class")
    def fourclass_book(self):
        return em.build_dual_rtrees(em.synthetic.fourclass_like(42), max_entries=3)

    @staticmethod
    def with_bounds(book, bounds):
        arrays = dataclasses.replace(book.arrays, bounds=bounds)
        return em.CodeBook(book.kind, arrays, book.roots, book.config, book.seed)

    @staticmethod
    def assert_box_rule(book, node, edit, message):
        """``edit(low, upp)`` of the box of ``node`` breaks one rule at both doors."""
        bounds = book.arrays.bounds.copy()
        edit(*bounds[:, :, node])
        assert_one_rule(book, message, node, bounds=bounds)

    @staticmethod
    def swap_axis_0(low, upp):
        low[0], upp[0] = upp[0], low[0]

    @pytest.mark.parametrize("where", ["leaf", "root"])
    def test_inverted_box_rejected(self, skin_book, where):
        ptr, _ = skin_book.arrays.child_csr
        arrays = skin_book.arrays
        low, upp = arrays.bounds
        wide = low[0] < upp[0]
        candidates = np.flatnonzero(wide & ((np.diff(ptr) == 0) if where == "leaf" else (arrays.parent < 0)))
        node = int(candidates[0])
        self.assert_box_rule(skin_book, node, self.swap_axis_0,
                             f"the box of node {node} is not finite with low_i <= upp_i in every dimension")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_box_rejected(self, skin_book, value):
        node = int(np.flatnonzero(np.diff(skin_book.arrays.child_csr[0]) == 0)[0])

        def edit(low, upp):
            upp[1] = value

        self.assert_box_rule(skin_book, node, edit, f"the box of node {node} is not finite")

    @pytest.mark.parametrize("malform", [
        lambda b: b[0].T.copy(), lambda b: b[:, :, 1:], lambda b: b[:, :0],
        lambda b: np.concatenate((b, b[:1])), lambda b: b.astype(int), np.ndarray.tolist,
    ], ids=["(N, d)", "wrong N", "d = 0", "three layers", "ints", "lists"])
    def test_malformed_box_block_rejected(self, skin_book, malform):
        """The views need the boxes as a float (2, d, N) array with d >= 1."""
        n = len(skin_book.arrays)
        with pytest.raises(ParseError, match=rf"node boxes must be a float \(2, d, {n}\) block with d >= 1"):
            self.with_bounds(skin_book, malform(skin_book.arrays.bounds))

    def test_box_outside_parent_rejected(self, skin_book):
        """A leaf grown past its parent's box would let a deeper code's volume grow."""
        node = int(np.flatnonzero(np.diff(skin_book.arrays.child_csr[0]) == 0)[0])
        parent = int(skin_book.arrays.parent[node])

        def grow(low, upp):
            upp[0] = skin_book.arrays.bounds[1, 0, parent] + 1.0

        self.assert_box_rule(skin_book, node, grow,
                             f"box of node {node} is not inside the box of its parent {parent}")

    @pytest.mark.parametrize("node, parent", [(430, 435), (2, 0)], ids=["past-the-depth", "root"])
    def test_parent_off_the_depth_above_rejected(self, fourclass_book, node, parent):
        """A depth-2 node whose parent is a depth-5 node past every depth-1 id
        (once a bare IndexError) or a root (once accepted) breaks the link rule."""
        arrays = fourclass_book.arrays
        assert arrays.depth[[node, parent]].tolist() == [2, 5 if parent else 0]
        tree = arrays.tree[node]
        message = f"node {node} at depth 2 of tree {tree} has parent {parent} at depth {arrays.depth[parent]}"
        assert_one_rule(fourclass_book, message, node, parent=changed(arrays.parent, node, parent))

    @pytest.mark.parametrize("book, edit, node, message", [
        ("skin", lambda b: dict(roots=b.roots + (1,)), None, "a rtree-dual book has two roots, not 3"),
        ("skin", lambda b: dict(roots=(1,) + b.roots[1:]), None, "root 1 of tree 0 is not a depth-0 node"),
        ("skin", lambda b: dict(tree=changed(b.arrays.tree, 5, 5)), 5, "node 5 is in tree 5 of 2"),
        ("skin", lambda b: with_member(b.arrays, 4, b.arrays.members_of(3)[0]), 4,
         "member 79 is held 2 times at depth 3 and 1 at depth 0"),
        ("skin", lambda b: dict(parent=changed(b.arrays.parent, 138, 0)), 138,
         "node 138 at depth 4 of tree 1 has parent 0 at depth 0 of tree 0"),
        ("skin", lambda b: dict(parent=changed(b.arrays.parent, 138, 144)), 138,
         "node 138 at depth 4 names parent 144, which is not a node"),
        ("skin", lambda b: dict(members=np.where(b.arrays.members == 9, -1, b.arrays.members)), 0,
         "node 0 holds a negative member"),
        ("cf", lambda b: dict(kind=em.coding.KIND_DUAL), None, "a rtree-dual book has two roots, not 1"),
        ("fourclass", lambda b: dict(label=changed(b.arrays.label, 5, -1)), 5,
         "node 5 of tree 0 has label -1: a rtree-dual book labels that tree 1"),
        ("cf", lambda b: dict(aggregates=b.arrays.aggregates._replace(
            raters=changed(b.arrays.aggregates.raters, 10, 0))), 3, "node 3 aggregates item 1 with fewer than one rater"),
        # example_cf_book's items per node: 0 [1..5], 1 [1, 2, 3], 2 [1, 3], 3 [1, 2, 3], 4 [3, 4, 5], ...
        ("cf", lambda b: with_items(b, {5: 2, 6: 1}), 1, "node 1 aggregates item 1 out of order"),
        ("cf", lambda b: with_items(b, {11: 1}), 3, "node 3 aggregates item 1 out of order"),
        ("cf", lambda b: with_items(b, {8: 0}), 2, "node 2 aggregates item 0 out of order"),
        ("cf", lambda b: with_items(b, {13: -3}), 4, "node 4 aggregates item -3 out of order"),
        ("cf", lambda b: with_items(b, {9: 4}), 2, "node 2 aggregates item 4 that its parent does not aggregate"),
        ("cf", lambda b: with_items(b, {6: 2**63 - 1}), 1, "node 1 aggregates item 3 out of order"),
        ("cf", lambda b: with_items(b, {9: 2**63 - 1}), 2,
         f"node 2 aggregates item {2**63 - 1} that its parent does not aggregate"),
        ("cf", lambda b: dict(kind="custom", **with_items(b, {13: -3})), 4, "node 4 aggregates item -3 out of order"),
        ("cf", lambda b: dict(kind="custom", **with_items(b, {5: 2, 6: 1})), 1,
         "node 1 aggregates item 1 out of order"),
        ("cf", lambda b: dict(features=changed(b.features, (3, 1), math.nan)), None, FEATURES_RULE),
        ("cf", lambda b: dict(features=b.features[:, 0], written=b.features[:, :0]), None, FEATURES_RULE),
    ], ids=["third-root", "depth-1-root", "tree-5", "repeated-member", "below-usable-parent-root",
            "parent-not-a-node", "negative-member", "cf-kind-dual", "relabelled-node", "no-rater",
            "swapped-items", "repeated-item", "item-0", "item-minus-3", "not-the-parents-item",
            "huge-item-out-of-order", "huge-item-not-the-parents", "custom-kind-item-minus-3",
            "custom-kind-swapped-items", "nan-feature", "1-d-features"])
    def test_one_rule_at_both_doors(self, request, book, edit, node, message):
        """Books the views once accepted: a root count, a root, a tree, a
        member or a label off the rules, a parent link below the usable depth,
        an item out of order or missing from its parent's aggregates (in a
        book of any kind, and with an item id near 2**63), or
        features that are not finite or not 2-D (the text writes those as
        features without a column, which breaks the same rule)."""
        book = request.getfixturevalue({"skin": "skin_book", "cf": "example_cf_book",
                                        "fourclass": "fourclass_book"}[book])
        assert_one_rule(book, message, node, **edit(book))

    @pytest.mark.parametrize("edit, node, message", [
        (lambda a: dict(ptr=a.ptr[:-3]), None, OFFSETS_RULE),
        (lambda a: dict(ptr=changed(a.ptr, 3, 14)), None, OFFSETS_RULE),
        (lambda a: dict(ptr=a.ptr + 1), None, OFFSETS_RULE),
        (lambda a: dict(ptr=changed(a.ptr, -1, 20)), None, OFFSETS_RULE),
        (lambda a: dict(ptr=np.append(a.ptr, 21)), None, OFFSETS_RULE),
        (lambda a: dict(rating=a.rating[:-1]), None, "every aggregate column must hold 21 values"),
        (lambda a: dict(rating=changed(a.rating, 10, math.nan)), 3,
         "node 3 aggregates item 1 with a non-finite rating or rater mean"),
        (lambda a: dict(rater_mean=changed(a.rater_mean, 10, math.inf)), 3,
         "node 3 aggregates item 1 with a non-finite rating or rater mean"),
        (lambda a: dict(raters=changed(a.raters, 10, 0)), 3, "node 3 aggregates item 1 with fewer than one rater"),
    ], ids=["short", "descending", "not-from-0", "not-to-the-end", "long", "short-column", "nan-rating",
            "infinite-rater-mean", "no-rater"])
    @pytest.mark.parametrize("kind", [em.coding.KIND_CF, em.coding.KIND_KMEANS])
    def test_aggregates_of_array_books(self, example_cf_book, kind, edit, node, message):
        """A CF or k-means book made from NodeArrays is checked for its
        aggregates: a short ``ptr`` once ended in a bare IndexError in
        ``cf.predict``, and NaN ratings gave a fallback answer. The offsets
        rule, like the member offsets rule, names no node. The text holds no
        offsets; the rules of an entry reach the book through the reader too
        (the two-door table)."""
        arrays = dataclasses.replace(example_cf_book.arrays, aggregates=example_cf_book.arrays.aggregates._replace(
            **edit(example_cf_book.arrays.aggregates)))
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            em.CodeBook(kind, arrays, example_cf_book.roots, example_cf_book.config, example_cf_book.seed)
        assert err.value.node == node

    def test_member_offsets_must_span_the_members(self, skin_book):
        """Offsets that overrun the members once ended in a bare numpy ValueError."""
        ptr = changed(skin_book.arrays.member_ptr, -1, skin_book.arrays.member_ptr[-1] + 5)
        arrays = dataclasses.replace(skin_book.arrays, member_ptr=ptr)
        with pytest.raises(ParseError, match="member offsets must be 140 ascending offsets from 0 to ") as err:
            em.CodeBook(skin_book.kind, arrays, skin_book.roots, skin_book.config, skin_book.seed)
        assert err.value.node is None
