import numpy as np
import pytest

import elastic_mine as em

from reference import ItemAggregate, Mbr, cf_book_from_hierarchy

# The 12-user, 5-item rating matrix used throughout the CF worked examples.
TABLE_RATINGS = {
    (1, 1): 5.0,
    (2, 1): 4.0,
    (3, 1): 5.0, (3, 3): 3.0,
    (4, 1): 3.0, (4, 2): 2.0,
    (5, 1): 2.0, (5, 3): 3.0,
    (6, 1): 3.0,
    (7, 3): 3.0, (7, 5): 2.0,
    (8, 3): 2.0, (8, 5): 3.0,
    (9, 4): 3.0, (9, 5): 3.0,
    (10, 3): 2.0, (10, 5): 1.0,
    (11, 5): 2.0,
    (12, 3): 2.0, (12, 5): 1.0,
}

# The accompanying 12x2 user feature matrix (row u-1 for user u).
TABLE_FEATURES = np.array([
    [1.47, 2.60], [1.47, 2.20], [2.07, 2.20], [0.76, 2.60],
    [0.76, 1.80], [0.85, 1.80], [0.88, 0.70], [0.88, 0.20],
    [1.45, 0.20], [0.15, 1.18], [0.15, 0.78], [0.44, 0.78],
])

# Leaf grouping of those users into four leaves under two internal nodes.
EXAMPLE_HIERARCHY = [[[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [10, 11, 12]]]

# Values that no integer setting accepts, by test id: a fraction, a float of
# integral value, Python's and numpy's bool, and NaN.
NON_INTEGERS = {"2.5": 2.5, "3.0": 3.0, "True": True, "np.True_": np.True_, "nan": float("nan")}


def non_integer_rows(calls: dict) -> list:
    """Parametrize rows that hand each value of NON_INTEGERS to each call.

    ``calls`` maps a name to ``(call, *rest)``; each row is ``(bound, *rest)``,
    where ``bound(*args)`` is ``call(*args, value)``, with id ``name-value``.
    """
    return [pytest.param(lambda *args, call=call, value=value: call(*args, value), *rest,
                         id=f"{name}-{label}")
            for name, (call, *rest) in calls.items() for label, value in NON_INTEGERS.items()]


@pytest.fixture(scope="session")
def example_matrix() -> em.RatingMatrix:
    return em.RatingMatrix(12, 5, TABLE_RATINGS)


@pytest.fixture(scope="session")
def example_cf_book(example_matrix) -> em.CodeBook:
    return cf_book_from_hierarchy(example_matrix, EXAMPLE_HIERARCHY, TABLE_FEATURES)


@pytest.fixture(scope="session")
def fourclass() -> em.LabeledDataset:
    return em.synthetic.fourclass_like(42)


@pytest.fixture(scope="session")
def fourclass_split(fourclass):
    return em.split_dataset(fourclass, em.SplitSpec(test_count=100, seed=3))


@pytest.fixture(scope="session")
def fourclass_book(fourclass_split) -> em.CodeBook:
    train, _ = fourclass_split
    return em.build_dual_rtrees(train, max_entries=3, seed=7)


@pytest.fixture(scope="session")
def single_leaf_split() -> tuple[em.LabeledDataset, em.CodeBook]:
    """Six points whose positive class tree is a single leaf: the book has no usable code."""
    ds = em.LabeledDataset([[i, i] for i in range(6)], [1, 1, -1, -1, -1, -1])
    return ds, em.build_dual_rtrees(ds, max_entries=2)


def leaf_with_members(book: em.CodeBook, members: set) -> int:
    """The id of the leaf whose member rows are exactly ``members``."""
    nodes = book.arrays
    for i in range(len(nodes)):
        if not len(nodes.children_of(i)) and set(nodes.members_of(i).tolist()) == members:
            return i
    raise AssertionError(f"no leaf with members {members}")


def box_of(book: em.CodeBook, i: int) -> Mbr:
    """Node i's box as a scalar :class:`Mbr`, read from the book's columns."""
    return Mbr(*book.arrays.bounds[:, :, i])


def aggregates_of(book: em.CodeBook, i: int) -> dict[int, ItemAggregate]:
    """Node i's item -> :class:`ItemAggregate` map, read from ``arrays.aggregates``."""
    agg = book.arrays.aggregates
    at = slice(agg.ptr[i], agg.ptr[i + 1])
    return {
        item: ItemAggregate(*values)
        for item, *values in zip(agg.item[at].tolist(), agg.rating[at].tolist(),
                                 agg.rater_mean[at].tolist(), agg.raters[at].tolist())
    }
