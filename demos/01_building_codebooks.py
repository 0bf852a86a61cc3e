"""Building hierarchical codebooks.

A codebook compresses a training set into per-depth "codes": the set of
all tree nodes at one depth. Shallow codes are short (cheap to scan) and
coarse; deeper codes are longer and finer. This script builds the three
coder variants and prints their depth/length/volume profiles.
"""

import elastic_mine as em

# --- dual per-class R-trees over a labeled point set -----------------------
data = em.synthetic.fourclass_like(seed=42)
print(f"classification data: {len(data)} points, {data.dimensionality} features,"
      f" classes {data.class_counts()}")

book = em.build_dual_rtrees(data, max_entries=3, seed=7)
print("\ndual R-tree codebook (one tree per class):")
print("depth  length  total box volume")
for depth in book.depths():
    code = book.code_at_depth(depth)
    volume = em.total_mbr_volume(book, code)
    print(f"{depth:>5}  {code.length:>6}  {volume:>16.3f}")
print("volumes shrink and lengths grow with depth: deeper codes are finer.")

# a length budget picks the longest affordable code
for budget in (10, 40, 500):
    code = em.select_code(book, budget)
    print(f"length budget {budget:>3} -> depth {code.depth} (length {code.length})")

# --- CF codebook: R-tree over SVD user vectors with aggregated ratings -----
matrix = em.synthetic.ratings_like(num_users=120, num_items=80, seed=3)
features = em.train_incremental_svd(matrix, d=3, epochs_per_feature=60, seed=5)
cf_book = em.build_cf_codebook(matrix, features, max_entries=3, seed=5)
print(f"\nCF codebook over {matrix.num_users} users: depths {cf_book.depths()}")
# node i's aggregates are entries ptr[i] up to ptr[i + 1] of the aggregate columns
root, ptr = cf_book.roots[0], cf_book.arrays.aggregates.ptr
print(f"root aggregates cover {ptr[root + 1] - ptr[root]} of {matrix.num_items} items")

# --- divisive k-means alternate coder ---------------------------------------
km_book = em.build_kmeans_codebook(matrix, features, branching=2, depth_limit=4, seed=5)
print(f"\ndivisive 2-means codebook: depths {km_book.depths()},"
      f" lengths {[km_book.code_at_depth(d).length for d in km_book.depths()]}")

# --- persistence: canonical text, byte-stable under identical inputs --------
text = em.dump_codebook(book)
again = em.dump_codebook(em.load_codebook(text))
print(f"\nserialized codebook: {len(text)} bytes; round-trip identical: {text == again}")
