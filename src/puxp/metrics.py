"""Chamfer, Hausdorff, and point-to-face distances.

Conventions (stored values are raw; table formatting may scale by 1e3):
  - chamfer: squared distances, sum of the two directed means.
  - hausdorff: unsquared distances, max of the two directed maxes.
  - point_to_face: directed only, mean distance from predictions to the
    ground-truth mesh surface.

Nearest neighbors come from an exact kd-tree search
(geometry.nearest_neighbors). The tree only bounds each distance; the
squared distances of all candidates within the bound are recomputed as
`(diff * diff)` summed over x, y, z, and ties go to the smaller index. So
values, means, maxes and assignments equal those of a dense P x Q matrix
with `min`/`argmin`, bit for bit, in O(P + Q) memory. Point-to-face visits
only the faces that could hold a point's minimum
(geometry.squared_distances_to_mesh), with the same per-face arithmetic as
a loop over every face.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import PointCloud, nearest_neighbors, squared_distances_to_mesh


@dataclasses.dataclass
class MetricReport:
    """One evaluation row: metric values plus the cloud sizes they came from."""

    label: str
    cd: float
    hd: float
    p2f: float | None
    pred_count: int
    gt_count: int

    def __post_init__(self):
        for field in ("cd", "hd", "p2f"):
            value = getattr(self, field)
            if value is None:
                continue
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{field} must be finite and non-negative, got {value}")


def _as_points(cloud):
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError(f"need a non-empty (N, 3) point set, got shape {pts.shape}")
    return pts


def chamfer_parts(pred_pts, gt_pts):
    """Chamfer value plus the nearest-neighbor assignments in both directions."""
    fwd, nearest_gt = nearest_neighbors(pred_pts, gt_pts)
    bwd, nearest_pred = nearest_neighbors(gt_pts, pred_pts)
    value = float(fwd.mean() + bwd.mean())
    return value, nearest_gt, nearest_pred


def chamfer(pred, gt):
    """Symmetric squared chamfer distance between two clouds."""
    value, _, _ = chamfer_parts(_as_points(pred), _as_points(gt))
    return value


def hausdorff(pred, gt):
    """Symmetric Hausdorff distance (unsquared)."""
    pred_pts, gt_pts = _as_points(pred), _as_points(gt)
    fwd, _ = nearest_neighbors(pred_pts, gt_pts)
    bwd, _ = nearest_neighbors(gt_pts, pred_pts)
    worst = max(float(fwd.max()), float(bwd.max()))
    return float(np.sqrt(worst))


def point_to_face(pred, mesh):
    """Mean distance from each predicted point to the nearest mesh face."""
    if mesh.face_count < 1:
        raise ValueError("mesh has no faces")
    d2 = squared_distances_to_mesh(_as_points(pred), mesh)
    return float(np.sqrt(d2).mean())


def report(label, pred, gt, mesh=None):
    pred_pts = _as_points(pred)
    gt_pts = _as_points(gt)
    return MetricReport(
        label=label,
        cd=chamfer(pred_pts, gt_pts),
        hd=hausdorff(pred_pts, gt_pts),
        p2f=None if mesh is None else point_to_face(pred_pts, mesh),
        pred_count=pred_pts.shape[0],
        gt_count=gt_pts.shape[0],
    )
