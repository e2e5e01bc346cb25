"""Differentiable chamfer loss against a fixed target cloud.

The forward value is computed by the same code path as metrics.chamfer, so
loss curves and evaluation reports agree exactly. That path is an exact
kd-tree search: nearest distances and assignments equal those of the dense
P x Q squared-distance matrix, ties going to the smaller index, so losses
and gradients do not depend on how the neighbors were found. The backward
rule is the analytic gradient of the squared-distance formulation, with the
nearest neighbor assignments treated as locally constant. Non-finite
predictions raise GradientError from the search, naming the row, rather
than giving a NaN loss; a squared distance beyond float64 gives an inf loss
with no warning. Both point sets follow geometry.as_rows (ShapeError).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record_op
from .geometry import as_rows
from .metrics import chamfer_parts


def chamfer_loss(pred, gt):
    """Scalar chamfer between pred (Tensor[P, 3]) and a fixed target cloud."""
    gt_pts = as_rows(gt, "ground truth", 3)
    value, nearest_gt, nearest_pred = chamfer_parts(pred.data, gt)
    out = Tensor(np.array([value]))
    p = pred.shape[0]
    q = gt_pts.shape[0]

    def backward(g):
        grad = 2.0 * (pred.data - gt_pts[nearest_gt]) / p
        pulled = 2.0 * (pred.data[nearest_pred] - gt_pts) / q
        for axis in range(3):
            grad[:, axis] += np.bincount(nearest_pred, weights=pulled[:, axis], minlength=p)
        return (g[0] * grad,)

    return record_op(out, (pred,), backward)
