"""Elastic kNN classification: quality grows with the processed code length.

Classifying against a code votes among the k nodes nearest the query by
max-distance. A saved state (the unpruned nodes of a result) lets deeper
codes be scanned partially, so refining a good result is cheaper than
starting over - the hallmark of accumulative computation.
"""

import numpy as np

import elastic_mine as em
from elastic_mine.knn import refine_chain

data = em.synthetic.fourclass_like(seed=42)
train, test = em.split_dataset(data, em.SplitSpec(test_count=100, seed=3))
book = em.build_dual_rtrees(train, max_entries=3, seed=7)
k = 5

# --- quality per depth, starting fresh each time ----------------------------
print("depth  length  accuracy    AUC")
for depth in book.depths():
    results = [em.classify(book, depth, em.KnnQuery(f, k)) for f in test.features]
    acc = em.accuracy([r.predicted for r in results], test.labels)
    auc = em.auc([r.positive_score for r in results], test.labels)
    print(f"{depth:>5}  {book.code_at_depth(depth).length:>6}  {acc:>8.2f}  {auc:>6.3f}")

exact = [em.exact_knn(train, em.KnnQuery(f, k)) for f in test.features]
print(f"exact  {len(train):>6}  {em.accuracy([r.predicted for r in exact], test.labels):>8.2f}"
      f"  {em.auc([r.positive_score for r in exact], test.labels):>6.3f}")

# --- refinement: cost of reaching the deepest result from each state --------
deepest = book.depths()[-1]
costs = []
for f in test.features:
    query = em.KnnQuery(f, k)
    chain = refine_chain(book, query)
    row = [em.classify(book, deepest, query).scanned]
    for result in chain[:-1]:
        state = em.maintain_state(book, query, result)
        row.append(em.classify(book, deepest, query, state).scanned)
    costs.append(row)
mean = np.mean(costs, axis=0)
print("\nmean nodes scanned to produce the deepest result, by starting state:")
labels = ["initial"] + [f"state@{d}" for d in book.depths()[:-1]]
for label, value in zip(labels, mean):
    print(f"  from {label:>8}: {value:7.1f}")
print("a deeper starting state never costs more: computation accumulates.")
