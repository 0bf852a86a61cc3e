"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Public benchmark corpora are stood in for by the seeded generators
in ``elastic_mine.synthetic`` (tests run offline); quality thresholds match
the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

import elastic_mine as em
from elastic_mine.baselines import sample_users
from elastic_mine.cli import main as cli_main
from elastic_mine.elasticity import InvestmentPoint, audit_quality_monotonicity
from elastic_mine.knn import refine_chain
from elastic_mine.planner import (
    QUERY_MIN_INVESTMENT,
    ResultPoint,
)

from conftest import EXAMPLE_HIERARCHY, TABLE_FEATURES, aggregates_of, leaf_with_members

SPOT_PRICES = (
    0.10, 0.11, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28, 0.30,
    0.30, 0.28, 0.26, 0.24, 0.22, 0.20, 0.18, 0.16, 0.14, 0.12, 0.11, 0.10,
)
COD_RESULTS = [
    ResultPoint(0.74, 6.0), ResultPoint(0.80, 10.6),
    ResultPoint(0.86, 22.24), ResultPoint(0.91, 40.0),
]


def verdict(number, name, started):
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_01_aggregation_oracle(example_matrix):
    t0 = time.perf_counter()
    book = em.build_cf_codebook(example_matrix, TABLE_FEATURES, max_entries=3)
    leaf = aggregates_of(book, leaf_with_members(book, {0, 1, 2}))
    assert leaf[1].rating == pytest.approx(4.67, abs=0.005)
    assert leaf[1].rater_mean == pytest.approx(4.33, abs=0.005)
    assert leaf[3].rating == pytest.approx(3.00, abs=0.005)
    assert leaf[3].rater_mean == pytest.approx(4.00, abs=0.005)
    assert 2 not in leaf
    # the explicit grouping route agrees
    explicit = em.cf_book_from_hierarchy(example_matrix, EXAMPLE_HIERARCHY, TABLE_FEATURES)
    assert aggregates_of(explicit, leaf_with_members(explicit, {0, 1, 2})) == leaf
    assert time.perf_counter() - t0 < 1.0
    verdict(1, "aggregation oracle", t0)


def test_02_auc_fixture():
    t0 = time.perf_counter()
    labels = [-1, 1, -1, 1, 1, -1, -1, 1]  # positives rank 2, 4, 5, 8
    scores = [i / 8 for i in range(1, 9)]
    value = em.auc(scores, labels)
    assert value == pytest.approx(0.5625, abs=1e-12)
    concordant = sum(
        1.0 if p > n else (0.5 if p == n else 0.0)
        for p, y in zip(scores, labels) if y == 1
        for n, z in zip(scores, labels) if z == -1
    )
    assert value == pytest.approx(concordant / 16, abs=1e-12)
    assert time.perf_counter() - t0 < 1.0
    verdict(2, "AUC fixture", t0)


def test_03_resolution_fixture():
    t0 = time.perf_counter()
    report = em.resolution([50], m=1, prior_points=100, log_base=10.0)
    assert report.prior_entropy == pytest.approx(2.0, abs=1e-9)
    assert report.codes[0].conditional_entropy == pytest.approx(math.log10(50), abs=1e-9)
    assert report.codes[0].resolution == pytest.approx(math.log10(2), abs=1e-9)
    printed = (round(report.prior_entropy, 2), round(report.codes[0].conditional_entropy, 2),
               round(report.codes[0].resolution, 2))
    assert printed == (2.00, 1.70, 0.30)
    verdict(3, "resolution fixture", t0)


def test_04_entropy_monotonicity():
    t0 = time.perf_counter()
    cases = []
    for seed in (1, 2, 3):
        cases.append(("fourclass-like", em.synthetic.fourclass_like(seed), 3))
        cases.append(("skin-like", em.synthetic.skin_like(5000, seed), 4))
        cases.append(("gaussian", em.synthetic.gaussian_mixture(2000, 4, seed=seed), 4))
    for name, data, cap in cases:
        book = em.build_dual_rtrees(data, max_entries=cap, seed=0)
        vols = [em.total_mbr_volume(book, d) for d in book.depths()]
        assert all(a >= b - 1e-9 for a, b in zip(vols, vols[1:])), name
        report = em.audit_entropy_monotonicity(book)
        assert report.monotone, name
    assert time.perf_counter() - t0 < 30.0
    verdict(4, "entropy monotonicity", t0)


def test_05_pruning_safety(fourclass_split, fourclass_book):
    t0 = time.perf_counter()
    train, test = fourclass_split
    book = fourclass_book
    rng = np.random.default_rng(17)
    queries = rng.choice(len(test), size=100, replace=False)
    violations = 0
    for qi in queries:
        query = em.KnnQuery(test.features[qi], 5)
        exact = set(em.exact_knn(train, query).node_ids)
        for depth in book.depths():
            code = book.code_at_depth(depth)
            result = em.classify(book, depth, query)
            state = em.maintain_state(book, query, result)
            for nid in set(code.node_ids) - state.retained:
                if not exact.isdisjoint(book.arrays.members_of(nid).tolist()):
                    violations += 1
    assert violations == 0
    assert time.perf_counter() - t0 < 60.0
    verdict(5, "pruning safety", t0)


def test_06_threshold_and_accumulative_monotonicity(fourclass_split, fourclass_book):
    t0 = time.perf_counter()
    _, test = fourclass_split
    book = fourclass_book
    deepest = book.depths()[-1]
    threshold_violations = cost_violations = 0
    for qi in range(len(test)):
        query = em.KnnQuery(test.features[qi], 5)
        results = refine_chain(book, query)
        thresholds = [r.threshold for r in results]
        threshold_violations += sum(
            1 for a, b in zip(thresholds, thresholds[1:]) if b > a + 1e-9
        )
        costs = [em.classify(book, deepest, query).scanned]
        for result in results[:-1]:
            state = em.maintain_state(book, query, result)
            costs.append(em.classify(book, deepest, query, state).scanned)
        cost_violations += sum(1 for a, b in zip(costs, costs[1:]) if b > a)
    assert threshold_violations == 0
    assert cost_violations == 0
    verdict(6, "threshold and accumulative monotonicity", t0)


def test_07_exact_knn_quality(fourclass_split, fourclass_book):
    t0 = time.perf_counter()
    train, test = fourclass_split
    exact_preds = [em.exact_knn(train, em.KnnQuery(f, 5)).predicted for f in test.features]
    exact_acc = em.accuracy(exact_preds, test.labels)
    assert exact_acc >= 0.97
    deepest = fourclass_book.depths()[-1]
    elastic_preds = [
        em.classify(fourclass_book, deepest, em.KnnQuery(f, 5)).predicted
        for f in test.features
    ]
    elastic_acc = em.accuracy(elastic_preds, test.labels)
    assert abs(elastic_acc - exact_acc) <= 0.03
    assert time.perf_counter() - t0 < 30.0
    verdict(7, f"exact kNN quality (exact {exact_acc:.2f}, elastic {elastic_acc:.2f})", t0)


def test_08_quality_monotonicity_shape(fourclass_split, fourclass_book):
    t0 = time.perf_counter()
    _, test = fourclass_split
    book = fourclass_book
    assert len(book.depths()) == 5
    accuracies = []
    for depth in book.depths():
        preds = [em.classify(book, depth, em.KnnQuery(f, 5)).predicted for f in test.features]
        accuracies.append(em.accuracy(preds, test.labels))
    series = [InvestmentPoint(q, float(i + 1)) for i, q in enumerate(accuracies)]
    verdict_obj = audit_quality_monotonicity(series, slack=0.02)
    assert verdict_obj.quality_monotone, accuracies
    assert accuracies[-1] >= accuracies[0]
    assert time.perf_counter() - t0 < 60.0
    verdict(8, f"quality monotonicity {['%.2f' % a for a in accuracies]}", t0)


def test_09_leaf_equivalence_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    feats = np.vstack([rng.normal(0, 1.2, (128, 2)), rng.normal(3, 1.2, (128, 2))])
    ds = em.LabeledDataset(feats, [1] * 128 + [-1] * 128)
    book = em.build_dual_rtrees(ds, max_entries=2, leaf_capacity=1)
    deepest = book.depths()[-1]
    assert book.code_at_depth(deepest).length == 256
    for _ in range(100):
        query = em.KnnQuery(rng.normal(1.5, 1.8, 2), 5)
        assert em.classify(book, deepest, query).predicted == em.exact_knn(ds, query).predicted

    matrix = em.synthetic.ratings_like(num_users=60, num_items=50, seed=23)
    svd = em.train_incremental_svd(matrix, d=2, epochs_per_feature=40, seed=1)
    cf_book = em.build_cf_codebook(matrix, svd, max_entries=2, leaf_capacity=1)
    deepest = cf_book.depths()[-1]
    checked = 0
    while checked < 100:
        user = int(rng.integers(1, 61))
        item = int(rng.integers(1, 51))
        if item in matrix.user_ratings(user):
            continue
        checked += 1
        query = em.CfQuery.from_matrix(matrix, user, item)
        approx = em.predict(cf_book, deepest, query, matrix=matrix)
        exact = em.exact_cf_predict(matrix, query)
        assert approx.prediction == exact.prediction
        assert approx.fallback == exact.fallback
    assert time.perf_counter() - t0 < 60.0
    verdict(9, "leaf-equivalence oracles", t0)


def test_10_elasticity_fixtures():
    t0 = time.perf_counter()
    qualities = [0.38, 0.52, 0.64, 0.72, 0.80, 0.88, 0.92, 1.00]
    series = [InvestmentPoint(q, float(i + 1)) for i, q in enumerate(qualities)]
    report = em.investment_elasticity(series)
    assert report.pairs[0].elasticity == pytest.approx(0.368, abs=1e-3)
    assert report.argmax_pair() == 6  # the seventh-to-eighth refinement
    sequences = []
    for price in (0.5, 1.0, 2.0):
        priced = [
            InvestmentPoint(p.quality, p.investment * price, resource=p.investment, price=price)
            for p in series
        ]
        triple = em.resource_and_price_elasticity(
            priced, product_investment_model=True, state_independent=True
        )
        sequences.append([pair.elasticity for pair in triple.investment.pairs])
    for other in sequences[1:]:
        for a, b in zip(sequences[0], other):
            assert a == pytest.approx(b, abs=1e-12)
    verdict(10, "elasticity fixtures", t0)


def test_11_planner_fixtures():
    t0 = time.perf_counter()
    schedule = em.PriceSchedule(0.5, SPOT_PRICES)
    assert em.spot_availability(schedule, 0.16)[1] == 10
    fixed = em.fixed_plan(COD_RESULTS, 0.5, QUERY_MIN_INVESTMENT,
                          budget=20.0, required_quality=0.8)
    assert fixed.investment == pytest.approx(5.3, abs=0.005)
    spot4 = em.spot_plan(COD_RESULTS, schedule, 48.0, required_quality=0.8, budget=20.0)
    assert spot4.price == pytest.approx(0.12, abs=0.005)
    assert spot4.investment == pytest.approx(1.44, abs=0.005)
    spot5 = em.spot_plan(COD_RESULTS, schedule, 48.0, required_quality=0.91, budget=20.0)
    assert spot5.price == pytest.approx(0.26, abs=0.005)
    assert spot5.investment == pytest.approx(10.4, abs=0.005)
    bids = em.spot_elasticity_bids(COD_RESULTS, schedule, elasticity_floor=0.10)
    assert bids[2].bid == pytest.approx(0.20, abs=0.005)
    assert time.perf_counter() - t0 < 1.0
    verdict(11, "planner fixtures", t0)


def test_12_cf_quality_monotonicity_desk_scale():
    t0 = time.perf_counter()
    matrix = em.synthetic.ratings_like(num_users=600, num_items=800, seed=3)
    assert matrix.num_ratings <= 100_000
    train, test = em.split_ratings(matrix, em.SplitSpec(seed=11))
    svd = em.train_incremental_svd(train, d=3, learning_rate=0.001,
                                   epochs_per_feature=120, seed=5)
    book = em.build_cf_codebook(train, svd, max_entries=3, seed=5)
    depths = book.depths()[:5]
    assert len(depths) == 5
    queries = [(u, i, r) for u, i, r in test]
    rmses, fallback_rates = [], []
    for depth in depths:
        preds, actuals, fallbacks = [], [], 0
        for user, item, actual in queries:
            query = em.CfQuery.from_matrix(train, user, item)
            result = em.predict(book, depth, query, matrix=train)
            preds.append(result.prediction)
            actuals.append(actual)
            fallbacks += result.fallback
        rmses.append(em.rmse(preds, actuals))
        fallback_rates.append(fallbacks / len(queries))
    for a, b in zip(rmses, rmses[1:]):
        assert b <= a + 0.01, rmses
    print(f"  depths {list(depths)} rmse {['%.4f' % r for r in rmses]}"
          f" fallback {['%.3f' % f for f in fallback_rates]}")
    assert time.perf_counter() - t0 < 600.0
    verdict(12, "CF quality monotonicity", t0)


def test_13_svd_sanity():
    t0 = time.perf_counter()
    ratings = {(u, i): float(u) for u in range(1, 5) for i in range(1, 5)}
    matrix = em.RatingMatrix(4, 4, ratings)
    features, items = em.train_incremental_svd(
        matrix, d=1, learning_rate=0.001, epochs_per_feature=2000, seed=0,
        return_item_features=True,
    )
    sq = [
        (matrix.ratings[(u, i)] - float(features[u - 1] @ items[i - 1])) ** 2
        for (u, i) in matrix.ratings
    ]
    assert math.sqrt(sum(sq) / len(sq)) < 0.05
    verdict(13, "SVD sanity", t0)


def test_14_baseline_harness(fourclass_split, fourclass_book):
    t0 = time.perf_counter()
    train, test = fourclass_split
    book = fourclass_book
    queries = [em.KnnQuery(f, 5) for f in test.features]
    actuals = list(test.labels)

    chains = [refine_chain(book, q) for q in queries]
    final_budget = int(round(np.mean([sum(r.scanned for r in chain) for chain in chains])))
    elastic_final = em.accuracy([chain[-1].predicted for chain in chains], actuals)

    order = em.rank_training_points(train)
    baseline_final = {}
    full_matches = True
    for name in ("ranking", "bfs", "dfs", "ofs"):
        preds_final, preds_full = [], []
        for query in queries:
            if name == "ranking":
                final = em.anytime_knn_ranking(train, query, min(final_budget, len(train)), order)
                full = em.anytime_knn_ranking(train, query, len(train), order)
            else:
                final = em.anytime_knn_rtree(book, train, query, final_budget, name)
                full = em.anytime_knn_rtree(book, train, query, 10**9, name)
            preds_final.append(final.predicted)
            preds_full.append(full.predicted)
        baseline_final[name] = em.accuracy(preds_final, actuals)
        exact_preds = [em.exact_knn(train, q).predicted for q in queries]
        full_matches &= preds_full == exact_preds
    assert full_matches
    for name, acc in baseline_final.items():
        assert elastic_final >= acc - 0.02, (name, acc, elastic_final)
    assert time.perf_counter() - t0 < 120.0
    verdict(14, f"baseline harness (elastic {elastic_final:.2f} vs {baseline_final})", t0)


def test_15_reproducibility(tmp_path):
    t0 = time.perf_counter()
    data = em.synthetic.fourclass_like(42)
    train, test = em.split_dataset(data, em.SplitSpec(test_count=50, seed=7))
    with open(tmp_path / "train.libsvm", "w") as fh:
        em.write_libsvm(train, fh)
    with open(tmp_path / "test.libsvm", "w") as fh:
        em.write_libsvm(test, fh)
    with open(tmp_path / "schedule.csv", "w") as fh:
        fh.write("hour,price\n" + "\n".join(f"{h},{p}" for h, p in enumerate(SPOT_PRICES)))
    with open(tmp_path / "results.csv", "w") as fh:
        fh.write("quality,hours\n0.74,6.0\n0.80,10.6\n0.86,22.24\n0.91,40.0\n")

    commands = {
        "book": ["code", "build", "--task", "knn", "--input", str(tmp_path / "train.libsvm"),
                 "--max-entries", "3", "--seed", "7", "--out", str(tmp_path / "fc.ecb")],
        "pred": ["mine", "knn", "--book", str(tmp_path / "fc.ecb"), "--test",
                 str(tmp_path / "test.libsvm"), "--k", "5", "--depth", "3",
                 "--out", str(tmp_path / "pred.csv")],
        "quality": ["report", "quality", "--pred", str(tmp_path / "pred.csv"),
                    "--task", "knn", "--out", str(tmp_path / "quality.csv")],
        "plan": ["plan", "--results", str(tmp_path / "results.csv"), "--scheme", "both",
                 "--query", "min-bid-for-deadline", "--quality", "0.8",
                 "--deadline-hours", "48", "--schedule", str(tmp_path / "schedule.csv"),
                 "--fixed-price", "0.5", "--out", str(tmp_path / "plan.txt")],
    }
    outputs = {"book": "fc.ecb", "pred": "pred.csv", "quality": "quality.csv", "plan": "plan.txt"}
    for name, argv in commands.items():
        blobs = set()
        for _ in range(3):
            assert cli_main(argv) == 0
            blobs.add((tmp_path / outputs[name]).read_bytes())
        assert len(blobs) == 1, name
    verdict(15, "reproducibility", t0)
