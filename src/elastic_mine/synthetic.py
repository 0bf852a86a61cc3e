"""Seeded synthetic datasets shaped like the classic public benchmarks.

Tests and demos run offline, so the LIBSVM/UCI corpora are stood in for by
generators that match their shape: point counts, dimensionality, class
balance, and the local structure a nearest-neighbour method thrives on.
All generators are deterministic under their seed.
"""

from __future__ import annotations

import numpy as np

from .datasets import RATING_SCALE, LabeledDataset, RatingMatrix
from .errors import InvalidDatasetError, _integer


def fourclass_like(seed: int = 42) -> LabeledDataset:
    """862 points, 2 features, 287 positive / 575 negative, XOR blob layout.

    Mirrors the shape of the LIBSVM ``fourclass`` set: two classes in an
    irregular arrangement that no line separates.
    """
    rng = np.random.default_rng(seed)
    pos = np.vstack([
        rng.normal([2.0, 2.0], 0.62, size=(144, 2)),
        rng.normal([-2.0, -2.0], 0.62, size=(143, 2)),
    ])
    neg = np.vstack([
        rng.normal([-2.0, 2.0], 0.70, size=(288, 2)),
        rng.normal([2.0, -2.0], 0.70, size=(287, 2)),
    ])
    features = np.vstack([pos, neg])
    labels = np.r_[np.ones(len(pos)), -np.ones(len(neg))]
    return LabeledDataset(features, labels)


def skin_like(n: int = 5000, seed: int = 0) -> LabeledDataset:
    """Integer-valued 3-feature colour blobs, ~1/3 positive, like UCI skin."""
    rng = np.random.default_rng(seed)
    n_pos = n // 3
    n_neg = n - n_pos
    pos = np.round(rng.normal([70.0, 95.0, 180.0], 16.0, size=(n_pos, 3)))
    neg = np.round(
        np.vstack([
            rng.normal([140.0, 120.0, 100.0], 30.0, size=(n_neg // 2, 3)),
            rng.normal([60.0, 180.0, 60.0], 24.0, size=(n_neg - n_neg // 2, 3)),
        ])
    )
    features = np.clip(np.vstack([pos, neg]), 0, 255)
    labels = np.r_[np.ones(n_pos), -np.ones(n_neg)]
    return LabeledDataset(features, labels)


def ratings_like(
    num_users: int = 600,
    num_items: int = 800,
    min_per_user: int = 15,
    max_per_user: int = 120,
    groups: int = 8,
    seed: int = 3,
    return_groups: bool = False,
):
    """A grouped-taste integer rating matrix on the 1-5 scale.

    Users belong to latent taste groups; ratings follow a noisy inner
    product of group and item vectors, so neighbourhood methods have real
    signal to find. Row counts per user vary widely, as in the MovieLens
    and Netflix corpora. With ``return_groups`` the per-user latent group
    assignment is returned alongside the matrix. ``num_users`` or
    ``num_items`` that is not an integer from 1 raises
    :class:`InvalidDatasetError`.
    """
    num_users = _integer(InvalidDatasetError, "num_users", num_users, 1)
    num_items = _integer(InvalidDatasetError, "num_items", num_items, 1)
    rng = np.random.default_rng(seed)
    user_group = rng.integers(0, groups, size=num_users)
    group_vec = rng.normal(0.0, 1.0, size=(groups, 4))
    item_vec = rng.normal(0.0, 1.0, size=(num_items, 4))
    item_bias = rng.normal(0.0, 0.3, size=num_items)
    ratings: dict[tuple[int, int], float] = {}
    for u in range(num_users):
        count = int(rng.integers(min_per_user, max_per_user + 1))
        items = rng.choice(num_items, size=min(count, num_items), replace=False)
        taste = group_vec[user_group[u]] + rng.normal(0.0, 0.25, size=4)
        # one dot per item: a batched matmul may round differently
        affinity = np.array([taste @ item_vec[i] for i in items])
        noise = rng.normal(0.0, 0.35, size=len(items))
        mu = 3.0 + 0.55 * affinity + item_bias[items] + noise
        for i, r in zip(items.tolist(), np.clip(np.rint(mu), *RATING_SCALE).tolist()):
            ratings[(u + 1, i + 1)] = r
    matrix = RatingMatrix(num_users, num_items, ratings)
    if return_groups:
        return matrix, user_group
    return matrix
