"""KNN graphs: the exact tie rule, the kd-tree and Gram fast paths, and index expansion.

Run: python demos/02_knn_graphs_and_index_expansion.py
"""

import numpy as np

from puxp.geometry import (
    IndexMatrix,
    PointCloud,
    expand_index,
    knn_accelerated,
    knn_bruteforce,
    knn_features,
)

# --- tie rule: equidistant neighbors resolve to the smaller index ----------
line = PointCloud([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
idx = knn_bruteforce(line, 1)
print("collinear cloud at x=0,1,2,10, k=1 ->", idx.entries[:, 0].tolist())
print("(the middle point ties between 0 and 2; the smaller index wins)")

# --- the kd-tree path agrees with brute force, ties included ---------------
rng = np.random.default_rng(0)
pts = np.round(rng.normal(size=(300, 3)), 1)  # coarse grid provokes exact ties
pts = np.unique(pts, axis=0)
cloud = PointCloud(pts)
fast = knn_accelerated(cloud, 8)
slow = knn_bruteforce(cloud, 8)
print(f"\nkd-tree vs brute force on {cloud.count} tie-heavy points:",
      "identical" if np.array_equal(fast.entries, slow.entries) else "MISMATCH")

# --- index expansion: a doubled point set keeps the old neighborhoods ------
base = IndexMatrix([[1], [2], [0]])
big = expand_index(base)
print("\nbase graph rows:", base.entries.ravel().tolist())
print("expanded graph  :", big.entries.ravel().tolist(), f"(ratio {big.ratio})")
print("rows 2i and 2i+1 both point at 2*j for every old neighbor j,")
print("so no KNN recomputation is needed after a x2 feature expansion.")

twice = expand_index(big)
print("expanding twice maps entry j to 4j:", twice.entries[0::4].ravel().tolist(), f"(ratio {twice.ratio})")
print("the expanded graph keeps the base table and a ratio, no copy:", np.shares_memory(twice.parent, base.parent))
print("so EdgeConv takes one neighbor max per base row and shares it with its children.")

# --- feature-space KNN (the ablation path) ----------------------------------
feats = rng.normal(size=(6, 2))
fidx = knn_features(feats, 2)
print("\nKNN on 2-d features (6 rows, k=2):")
print(fidx.entries.tolist())

# knn_features ranks Gram-distance candidates exactly, so it equals the dense
# oracle even where rounded features tie exactly
tied = np.round(0.3 * rng.normal(size=(200, 32)), 1)
same = np.array_equal(knn_features(tied, 16).entries, knn_bruteforce(tied, 16).entries)
print("knn_features vs the dense oracle on 200 tie-heavy 32-d rows:", "identical" if same else "MISMATCH")
