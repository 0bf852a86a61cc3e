"""Elastic collaborative filtering over aggregated-rating codes.

Users embed into a low-dimensional feature space by incremental SVD; an
R-tree over those vectors groups like-minded users, and every node stores
per-item aggregate ratings computed from the raw matrix. Predictions
correlate the active user against node aggregates - deeper codes mean
smaller, purer neighbourhoods and lower error.
"""

import elastic_mine as em

matrix = em.synthetic.ratings_like(num_users=400, num_items=300, seed=3)
train, test = em.split_ratings(matrix, em.SplitSpec(seed=11))
print(f"{matrix.num_ratings} ratings; {len(test)} held out across"
      f" {len({u for u, _, _ in test})} active users")

features = em.train_incremental_svd(train, d=3, learning_rate=0.001,
                                    epochs_per_feature=120, seed=5)
book = em.build_cf_codebook(train, features, max_entries=3, seed=5)

exact_preds = []
print("\ndepth  length    RMSE      RE   fallback")
exact = [em.exact_cf_predict(train, em.CfQuery.from_matrix(train, u, i)).prediction
         for u, i, _ in test]
exact_rmse = em.rmse(exact, [r for _, _, r in test])
for depth in book.depths():
    preds, fallbacks = [], 0
    for u, i, _ in test:
        result = em.predict(book, depth, em.CfQuery.from_matrix(train, u, i), matrix=train)
        preds.append(result.prediction)
        fallbacks += result.fallback
    value = em.rmse(preds, [r for _, _, r in test])
    re = em.relative_error(value, exact_rmse)
    print(f"{depth:>5}  {book.code_at_depth(depth).length:>6}  {value:6.4f}  {re:+6.3f}"
          f"  {fallbacks / len(test):8.3f}")
print(f"exact  {train.num_users:>6}  {exact_rmse:6.4f}  +0.000")

# --- refinement reuses the rater set of the previous result -----------------
user, item, _ = test[0]
query = em.CfQuery.from_matrix(train, user, item)
state = None
print(f"\nrefining the prediction for user {user}, item {item}:")
for depth in book.depths():
    result = em.predict(book, depth, query, state, matrix=train)
    state = result.state  # the raters, handed on to the next depth
    print(f"  depth {depth}: scanned {result.scanned:>3} nodes,"
          f" raters {len(result.all_rater_node_ids):>3}, p = {result.prediction:.3f}")
