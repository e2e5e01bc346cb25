"""Chamfer, Hausdorff, and point-to-face distances.

Conventions (stored values are raw; table formatting may scale by 1e3):
  - chamfer: squared distances, sum of the two directed means.
  - hausdorff: unsquared distances, max of the two directed maxes.
  - point_to_face: directed only, mean distance from predictions to the
    ground-truth mesh surface.

Nearest neighbors come from geometry.nearest_neighbors: one exact kd-tree
search per direction, which `report` shares between CD and HD. Values and
assignments equal a dense P x Q `min`/`argmin` bit for bit, in O(P + Q)
memory. Point-to-face (geometry.squared_distances_to_mesh) walks a box
hierarchy over the faces to the few that could hold a point's minimum, and
equals a loop over every face. PointClouds and meshes are passed through to
geometry, not copied, so a ground-truth cloud keeps its kd-tree and a mesh
its index from one call to the next.
Both scale inputs outside [1e-50, 1e50) by a power of two first and reject a
non-finite point (GradientError, naming its row). Values return at the input
scale. Where a squared distance overflows float64, `chamfer`, `hausdorff`,
`point_to_face` and `report` raise ValueError with no warning; `chamfer_parts`,
the loss's path, returns inf, also with no warning, which training reports
as a divergence.

Inputs follow geometry's one point-set rule, geometry.as_rows: predictions
and ground truth are PointClouds or arrays of float64 rows (N, 3) with
N >= 1, and any other shape raises ShapeError naming the input before a
search starts.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import PointCloud, as_rows, nearest_neighbors, squared_distances_to_mesh


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


def _shared(pred):
    """The predictions for every search of one call, named "predictions" if malformed.

    A finite raw array becomes a read-only PointCloud over its rows, without
    a copy, so the searches share one build of its columns, copy groups and
    tree; a non-finite one stays raw and the search raises GradientError
    naming its row.
    """
    rows = as_rows(pred, "predictions", 3)  # named here: the searches would name it "query points"
    if isinstance(pred, PointCloud) or not np.isfinite(rows).all():
        return pred
    view = rows.view()  # the cloud lives only for this call; the caller's array stays writeable
    view.flags.writeable = False
    return PointCloud(view, _fresh=True)


def _summaries(pred, gt):
    """CD, HD and both assignments from one nearest-neighbour search per direction."""
    pred = _shared(pred)
    as_rows(gt, "ground truth", 3)
    fwd, nearest_gt = nearest_neighbors(pred, gt)
    bwd, nearest_pred = nearest_neighbors(gt, pred)
    hd = float(np.sqrt(max(float(fwd.max()), float(bwd.max()))))
    return float(fwd.mean() + bwd.mean()), hd, nearest_gt, nearest_pred


def chamfer_parts(pred, gt):
    """Chamfer value plus the nearest-neighbor assignments in both directions.

    A squared distance beyond float64 gives inf, with no overflow warning.
    """
    with np.errstate(over="ignore"):
        cd, _, nearest_gt, nearest_pred = _summaries(pred, gt)
    return cd, nearest_gt, nearest_pred


def _within_float64(compute):
    """compute() with overflow warnings off; ValueError if a value it returns is inf.

    geometry rejects non-finite points (GradientError), so an inf here can
    only be a squared distance, or a sum of them, beyond float64.
    """
    with np.errstate(over="ignore"):
        values = compute()
    if not np.isfinite(values).all():
        raise ValueError("squared distances overflow float64 at this coordinate scale")
    return values


def chamfer(pred, gt):
    """Symmetric squared chamfer distance between two clouds."""
    return _within_float64(lambda: _summaries(pred, gt)[0])


def hausdorff(pred, gt):
    """Symmetric Hausdorff distance (unsquared)."""
    return _within_float64(lambda: _summaries(pred, gt)[1])


def point_to_face(pred, mesh):
    """Mean distance from each predicted point to the nearest mesh face."""
    return _within_float64(lambda: float(np.sqrt(squared_distances_to_mesh(pred, mesh)).mean()))


def report(label, pred, gt, mesh=None):
    """CD, HD and (given a mesh) P2F from one nearest-neighbour search per direction."""
    pred = _shared(pred)  # one build of raw predictions for both searches and P2F
    pred_pts, gt_pts = as_rows(pred, "predictions", 3), as_rows(gt, "ground truth", 3)
    cd, hd = _within_float64(lambda: _summaries(pred, gt)[:2])
    p2f = None if mesh is None else point_to_face(pred, mesh)
    return MetricReport(
        label=label,
        cd=cd,
        hd=hd,
        p2f=p2f,
        pred_count=pred_pts.shape[0],
        gt_count=gt_pts.shape[0],
    )
