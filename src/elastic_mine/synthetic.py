"""Seeded synthetic datasets shaped like the classic public benchmarks.

Tests and demos run offline, so the LIBSVM/UCI corpora are stood in for by
generators that match their shape: point counts, dimensionality, class
balance, and the local structure a nearest-neighbour method thrives on.
All generators are deterministic under their seed.
"""

from __future__ import annotations

import numpy as np

from .datasets import RATING_SCALE, LabeledDataset, RatingMatrix, _RatingColumns
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
    assignment is returned alongside the matrix. ``num_users``,
    ``num_items`` or ``groups`` that is not an integer from 1,
    ``min_per_user`` or ``seed`` that is not an integer from 0, and
    ``max_per_user`` that is not an integer from ``min_per_user`` raise
    :class:`InvalidDatasetError`.

    The random draws are made user by user, in a fixed order; the
    affinities are then made in one array pass. A rating's affinity is
    its user's taste times its item's vector, the four products added
    first to last in plain float64, so it depends on no BLAS build. A
    BLAS dot product (OpenBLAS ``ddot`` fuses multiply and add) differs
    from that sum in the last bit for about 38% of affinities, but the
    ratings keep their bits: they are rounded to integers, and only a
    mean within about 1e-15 of a half-integer could round the other way.
    The default 600 x 800 matrix takes about 12 ms on a 2-core x86-64
    machine, nearly all of it the per-user draws.
    """
    num_users = _integer(InvalidDatasetError, "num_users", num_users, 1)
    num_items = _integer(InvalidDatasetError, "num_items", num_items, 1)
    groups = _integer(InvalidDatasetError, "groups", groups, 1)
    min_per_user = _integer(InvalidDatasetError, "min_per_user", min_per_user, 0)
    max_per_user = _integer(InvalidDatasetError, "max_per_user", max_per_user, min_per_user)
    rng = np.random.default_rng(_integer(InvalidDatasetError, "seed", seed, 0))
    user_group = rng.integers(0, groups, size=num_users)
    group_vec = rng.normal(0.0, 1.0, size=(groups, 4))
    item_vec = rng.normal(0.0, 1.0, size=(num_items, 4))
    item_bias = rng.normal(0.0, 0.3, size=num_items)
    chosen, tastes, noise = [], np.empty((num_users, 4)), []
    for u in range(num_users):
        count = int(rng.integers(min_per_user, max_per_user + 1))
        chosen.append(rng.choice(num_items, size=min(count, num_items), replace=False))
        tastes[u] = group_vec[user_group[u]] + rng.normal(0.0, 0.25, size=4)
        noise.append(rng.normal(0.0, 0.35, size=len(chosen[-1])))
    lengths = np.fromiter(map(len, chosen), np.intp, num_users)
    items = np.concatenate(chosen)
    # one column at a time: no (ratings, 4) temporary
    affinity = np.repeat(tastes[:, 0], lengths) * item_vec[items, 0]
    for j in range(1, 4):
        affinity += np.repeat(tastes[:, j], lengths) * item_vec[items, j]
    mu = 3.0 + 0.55 * affinity + item_bias[items] + np.concatenate(noise)
    users = np.repeat(np.arange(1, num_users + 1), lengths)
    ratings = np.clip(np.rint(mu), *RATING_SCALE)
    matrix = RatingMatrix(num_users, num_items, _RatingColumns(users, items + 1, ratings))
    if return_groups:
        return matrix, user_group
    return matrix
