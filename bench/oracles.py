"""Reference computations made apart from puxp, used to check its outputs.

Each oracle uses only NumPy and SciPy, never the package under test:
  - chamfer/Hausdorff from cKDTree candidates re-ranked by exact squared
    distances (the kd-tree's own distances are only used to find candidates);
  - the closed-form distance to the surface of an axis-aligned box;
  - brute-force KNN ordered by (squared distance, index) on sampled rows;
  - central finite differences on sampled parameter entries.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

CANDIDATES = 8


def nearest_squared(src, dst):
    """Exact squared distance from each row of src to its nearest row of dst."""
    k = min(CANDIDATES, dst.shape[0])
    _, idx = cKDTree(dst).query(src, k=k)
    idx = idx.reshape(src.shape[0], k)
    delta = src[:, None, :] - dst[idx]
    d2 = (delta * delta).sum(axis=-1)
    return d2.min(axis=1)


def chamfer(pred, gt):
    """Squared chamfer: sum of the two directed mean squared distances."""
    return float(nearest_squared(pred, gt).mean() + nearest_squared(gt, pred).mean())


def hausdorff(pred, gt):
    """Unsquared Hausdorff: max of the two directed max distances."""
    worst = max(float(nearest_squared(pred, gt).max()), float(nearest_squared(gt, pred).max()))
    return float(np.sqrt(worst))


def box_surface_distance(points, half_extents):
    """Distance from each point to the surface of the box |x_i| <= h_i."""
    q = np.abs(points) - np.asarray(half_extents, dtype=np.float64)
    outside = np.sqrt((np.maximum(q, 0.0) ** 2).sum(axis=1))
    inside = -q.max(axis=1)
    return np.where(q.max(axis=1) > 0.0, outside, inside)


def nearest_vertex_distance(points, vertices):
    """Distance from each point to its nearest mesh vertex."""
    return np.sqrt(nearest_squared(points, vertices))


def knn_rows(points, rows, k):
    """Brute-force neighbours of the given rows: (squared distance, index) order, self excluded."""
    out = np.empty((len(rows), k), dtype=np.int64)
    index = np.arange(points.shape[0])
    for n, i in enumerate(rows):
        delta = points - points[i]
        d2 = (delta * delta).sum(axis=1)
        keep = index != i
        order = np.lexsort((index[keep], d2[keep]))
        out[n] = index[keep][order[:k]]
    return out


def central_difference(f, values, entry, h):
    """(f(x + h e) - f(x - h e)) / 2h for one flat entry of the array `values`.

    `values` is modified in place during the call and restored afterwards.
    """
    flat = values.reshape(-1)
    orig = flat[entry]
    try:
        flat[entry] = orig + h
        plus = f()
        flat[entry] = orig - h
        minus = f()
    finally:
        flat[entry] = orig
    return (plus - minus) / (2.0 * h)
