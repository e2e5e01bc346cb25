import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puxp import metrics
from puxp.errors import GradientError, ShapeError
from puxp.geometry import PointCloud, TriangleMesh, nearest_neighbors, point_triangle_distance
from puxp.metrics import MetricReport, chamfer, chamfer_parts, hausdorff, point_to_face, report
from puxp.shapes import SHAPE_KINDS, SyntheticShape, sample_pair, surface_mesh, surface_sample


def brute_chamfer(a, b):
    # independent nearest-neighbor enumeration; the final mean uses numpy's
    # reduction so it matches the production path bit for bit
    fwd = np.array([min(((p - q) ** 2).sum() for q in b) for p in a]).mean()
    bwd = np.array([min(((q - p) ** 2).sum() for p in a) for q in b]).mean()
    return fwd + bwd


def dense_parts(a, b):
    """The dense P x Q reference: chamfer value, both argmins, Hausdorff value."""
    diff = a[:, None, :] - b[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    fwd, bwd = d2.min(axis=1), d2.min(axis=0)
    value = float(fwd.mean() + bwd.mean())
    return value, d2.argmin(axis=1), d2.argmin(axis=0), float(np.sqrt(max(fwd.max(), bwd.max())))


def brute_hausdorff(a, b):
    fwd = max(min(np.sqrt(((p - q) ** 2).sum()) for q in b) for p in a)
    bwd = max(min(np.sqrt(((q - p) ** 2).sum()) for p in a) for q in b)
    return max(fwd, bwd)


class TestChamfer:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        assert chamfer(pts, pts.copy()) == 0.0

    def test_hand_case_is_50(self):
        assert chamfer([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]]) == pytest.approx(50.0, abs=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(int(rng.integers(1, 12)), 3))
        b = rng.normal(size=(int(rng.integers(1, 12)), 3))
        assert chamfer(a, b) == chamfer(b, a)

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(9, 3))
        b = rng.normal(size=(7, 3))
        assert chamfer(a, b) == brute_chamfer(a, b)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.zeros((0, 3)), np.zeros((3, 3)))

    def test_zero_iff_mutual_subsets(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = np.array([[1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        assert chamfer(a, b) == 0.0
        c = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        assert chamfer(a, c) > 0.0


class TestKdTreeMatchesDenseOracle:
    """The kd-tree search gives the dense matrix's values and argmins, bit for bit."""

    @staticmethod
    def clouds(variant, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(int(rng.integers(1, 150)), 3))
        b = rng.normal(size=(int(rng.integers(1, 150)), 3))
        if variant == "rounded":  # many exact distance ties
            a, b = np.round(a, 1), np.round(b, 1)
        elif variant == "duplicates":  # repeated points within and across clouds
            b = np.vstack([b, a[:3], b[:2], a[:1]])
            a = np.vstack([a, a[:1], b[:1]])
        elif variant == "scaled_offset":
            a, b = a * 1e3 + 1e6, b * 1e3 + 1e6
        elif variant == "collapsed":  # a diverged model's output: one point repeated
            b[:] = b[0]
        elif variant == "half_duplicated":
            b[len(b) // 2 :] = b[: len(b) - len(b) // 2]
        elif variant == "grid":  # a 0.5 grid: exact distance ties and repeated points
            a, b = np.round(a * 2.0) / 2.0, np.round(b * 2.0) / 2.0
        return a, b

    @pytest.mark.parametrize(
        "variant", ["random", "rounded", "duplicates", "scaled_offset", "collapsed", "half_duplicated", "grid"]
    )
    def test_chamfer_parts_and_hausdorff(self, variant):
        for seed in range(25):
            a, b = self.clouds(variant, seed)
            value, nearest_gt, nearest_pred, hd = dense_parts(a, b)
            got_value, got_gt, got_pred = chamfer_parts(a, b)
            assert got_value == value
            assert np.array_equal(got_gt, nearest_gt)
            assert np.array_equal(got_pred, nearest_pred)
            assert hausdorff(a, b) == hd

    def test_grid_ties_go_to_smallest_index(self):
        g = np.arange(3, dtype=np.float64)
        grid = np.array([[x, y, z] for x in g for y in g for z in g])
        probes = grid[:-1] + 0.5  # each probe is equidistant from up to 8 grid points
        value, nearest_gt, nearest_pred, _ = dense_parts(probes, grid)
        got = chamfer_parts(probes, grid)
        assert got[0] == value
        assert np.array_equal(got[1], nearest_gt)
        assert np.array_equal(got[2], nearest_pred)

    @pytest.mark.parametrize("shift", [600, -600, 300, -300])
    @pytest.mark.parametrize("variant", ["random", "rounded", "duplicates", "grid"])
    def test_power_of_two_scaled_pairs_keep_the_unit_scale_assignments(self, variant, shift):
        # at 2^+-600 every unscaled square overflows to inf or underflows to 0
        for seed in range(10):
            a, b = self.clouds(variant, seed)
            big_a, big_b = np.ldexp(a, shift), np.ldexp(b, shift)
            with np.errstate(over="ignore"):
                for p, q, big_p, big_q in ((a, b, big_a, big_b), (b, a, big_b, big_a)):
                    d2, idx = nearest_neighbors(p, q)
                    got_d2, got_idx = nearest_neighbors(big_p, big_q)
                    assert np.array_equal(got_idx, idx)
                    assert np.array_equal(got_d2, np.ldexp(d2, 2 * shift))
                got, unit = chamfer_parts(big_a, big_b), chamfer_parts(a, b)
            assert np.array_equal(got[1], unit[1])
            assert np.array_equal(got[2], unit[2])

    def test_overflowing_distances_keep_the_true_nearest(self):
        a = np.array([[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = np.array([[-1e200, 0.0, 0.0], [0.0, 1e-3, 0.0]])
        with np.errstate(over="ignore"):
            value, nearest_gt, nearest_pred = chamfer_parts(a, b)
        assert value == np.inf
        assert nearest_gt.tolist() == [1, 1]  # 1e400 < 4e400, though both overflow
        assert nearest_pred.tolist() == [1, 1]

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([[0.0, 0.0, 0.0], [1.0, np.nan, 0.0]], [[0.0, 1.0, 0.0]], "row 1 of the predictions is not finite"),
            ([[0.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]], "row 0 of the ground truth is not finite"),
        ],
        ids=["nan", "inf"],
    )
    def test_non_finite_input_raises_naming_the_row(self, a, b, message):
        for metric in (chamfer_parts, hausdorff):
            with pytest.raises(GradientError, match=message):
                metric(np.array(a), np.array(b))

    @pytest.mark.parametrize("side", ["predictions", "ground truth"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_entry_point_names_a_non_finite_set_by_its_role(self, side, bad):
        # they were "query points" or "searched points", by the search direction that met them first
        rng = np.random.default_rng(12)
        pred, gt = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        (pred if side == "predictions" else gt)[4, 1] = bad
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        calls = [
            lambda: report("r", pred, gt), lambda: report("r", pred, gt, mesh), lambda: chamfer(pred, gt),
            lambda: hausdorff(pred, gt), lambda: chamfer_parts(pred, gt),
        ]
        if side == "predictions":
            calls.append(lambda: point_to_face(pred, mesh))
        for call in calls:
            with pytest.raises(GradientError, match=f"^row 4 of the {side} is not finite$"):
                call()


class TestHausdorff:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(1).normal(size=(15, 3))
        assert hausdorff(pts, pts.copy()) == 0.0

    def test_hand_case_is_5(self):
        assert hausdorff([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]]) == pytest.approx(5.0, abs=1e-12)

    def test_covered_point_contributes_zero_to_directed_term(self):
        b = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        a = np.array([[5.0, 0.0, 0.0]])  # already in b
        assert hausdorff(np.vstack([a, b[:1]]), b) == 0.0

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 3))
        b = rng.normal(size=(11, 3))
        assert hausdorff(a, b) == pytest.approx(brute_hausdorff(a, b), abs=0)


class TestPointToFace:
    RIGHT_TRI_MESH = TriangleMesh([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])

    def test_points_on_surface_give_zero(self):
        mesh = self.RIGHT_TRI_MESH
        pts = [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
        assert point_to_face(pts, mesh) == 0.0

    def test_single_point_height_one(self):
        assert point_to_face([[0.0, 0.0, 1.0]], self.RIGHT_TRI_MESH) == pytest.approx(1.0, abs=1e-12)

    def test_two_heights_mean_two(self):
        big = TriangleMesh([[-100, -100, 0], [100, -100, 0], [0, 100, 0]], [[0, 1, 2]])
        pts = [[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]]
        assert point_to_face(pts, big) == pytest.approx(2.0, abs=1e-12)

    def test_directed_only(self):
        # a huge mesh far from covering the cloud does not hurt if points sit
        # on it; interior closest points reconstruct to eps * scale
        mesh = TriangleMesh([[-50, -50, 0], [50, -50, 0], [0, 50, 0]], [[0, 1, 2]])
        assert point_to_face([[0.3, 0.2, 0.0]], mesh) <= 1e-12 * 50

    def test_at_most_distance_to_vertex_set(self):
        rng = np.random.default_rng(4)
        verts = rng.normal(size=(12, 3))
        mesh = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])
        pts = rng.normal(size=(30, 3))
        for p in pts:
            face_d = min(point_triangle_distance(p, mesh.triangle(f)) for f in range(4))
            vert_d = np.linalg.norm(verts - p, axis=1).min()
            assert face_d <= vert_d + 1e-15

    def test_empty_mesh_rejected(self):
        mesh = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(ValueError):
            point_to_face([[0.0, 0.0, 1.0]], mesh)


class TestRigidInvariance:
    def test_metrics_under_common_rigid_motion(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(14, 3))
        b = rng.normal(size=(9, 3))
        mesh = TriangleMesh(rng.normal(size=(6, 3)), [[0, 1, 2], [3, 4, 5]])
        angle = 0.9
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        shift = np.array([3.0, -1.0, 2.0])
        a2, b2 = a @ rot.T + shift, b @ rot.T + shift
        mesh2 = TriangleMesh(mesh.vertices @ rot.T + shift, mesh.faces)
        assert chamfer(a2, b2) == pytest.approx(chamfer(a, b), abs=1e-9)
        assert hausdorff(a2, b2) == pytest.approx(hausdorff(a, b), abs=1e-9)
        assert point_to_face(a2, mesh2) == pytest.approx(point_to_face(a, mesh), abs=1e-9)


class TestReport:
    def test_report_fields(self):
        rng = np.random.default_rng(2)
        pred = PointCloud(rng.normal(size=(8, 3)))
        gt = PointCloud(rng.normal(size=(16, 3)))
        r = report("toy", pred, gt)
        assert r.label == "toy"
        assert r.p2f is None
        assert (r.pred_count, r.gt_count) == (8, 16)

    @pytest.mark.parametrize(
        "pred_shape, gt_shape, name", [((4, 2), (5, 3), "predictions"), ((4, 3), (0, 3), "ground truth")]
    )
    def test_point_sets_follow_the_geometry_rule(self, pred_shape, gt_shape, name):
        for metric in (chamfer, hausdorff, chamfer_parts, lambda a, b: report("bad", a, b)):
            with pytest.raises(ShapeError, match=f"{name} must be a non-empty"):
                metric(np.zeros(pred_shape), np.zeros(gt_shape))

    def test_8k_clouds_with_mesh_in_bounded_memory(self):
        # a dense P x Q x 3 difference array here would take 1.5 GiB
        shape = SyntheticShape("sphere")
        rng = np.random.default_rng(3)
        pred = surface_sample(shape, 8192, rng)
        gt = surface_sample(shape, 8192, rng)
        mesh = surface_mesh(shape)
        tracemalloc.start()
        try:
            row = report("big", pred, gt, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert row.p2f is not None and row.cd > 0.0

    def test_one_search_per_direction_gives_chamfer_and_hausdorff(self, monkeypatch):
        cases = []
        for seed, kind in enumerate(SHAPE_KINDS):
            cloud, gt, mesh = sample_pair(SyntheticShape(kind), 64, 4, seed)
            cases.append((kind, cloud.points, gt.points, mesh))
        rng = np.random.default_rng(9)
        rounded = np.round(rng.normal(size=(300, 3)), 1), np.round(rng.normal(size=(200, 3)), 1)
        cases.append(("rounded", *rounded, None))  # many exact distance ties
        search, calls = metrics.nearest_neighbors, []

        def counted(src, dst):
            calls.append(len(src))
            return search(src, dst)

        monkeypatch.setattr(metrics, "nearest_neighbors", counted)
        for name, pred, gt, mesh in cases:
            calls.clear()
            row = report(name, pred, gt, mesh)
            assert calls == [len(pred), len(gt)], name
            value, _, _, dense_hd = dense_parts(pred, gt)
            assert (row.cd, row.hd) == (chamfer(pred, gt), hausdorff(pred, gt)) == (value, dense_hd), name

    @pytest.mark.parametrize("shift", [0, 300, -300])
    def test_kept_indexes_repeat_the_first_report_and_a_fresh_one(self, shift):
        rng = np.random.default_rng(6)
        cloud, gt, unit_mesh = sample_pair(SyntheticShape("cylinder"), 64, 4, 6)
        gt = PointCloud(np.ldexp(gt.points, shift))
        mesh = TriangleMesh(np.ldexp(unit_mesh.vertices, shift), unit_mesh.faces)
        preds = [PointCloud(np.ldexp(rng.normal(scale=0.6, size=(256, 3)), shift)) for _ in range(2)]

        def rows(gt, mesh):
            return [
                (dataclasses.astuple(report("r", pred, gt, mesh)), point_to_face(pred, mesh), chamfer(pred, gt))
                for pred in preds
            ]

        first = rows(gt, mesh)
        assert rows(gt, mesh) == first
        assert rows(PointCloud(gt.points), TriangleMesh(mesh.vertices, mesh.faces)) == first
        assert rows(gt.points, mesh) == first  # a raw array is prepared afresh, by the same code

    @staticmethod
    def scaled_metrics(shift):
        """chamfer, hausdorff, point_to_face and report of one sphere case scaled by 2^shift."""
        shape = SyntheticShape("sphere")
        rng = np.random.default_rng(5)
        pred = np.ldexp(surface_sample(shape, 48, rng) + rng.normal(scale=0.02, size=(48, 3)), shift)
        gt = np.ldexp(surface_sample(shape, 96, rng), shift)
        unit_mesh = surface_mesh(shape)
        mesh = TriangleMesh(np.ldexp(unit_mesh.vertices, shift), unit_mesh.faces)
        return {
            "chamfer": lambda: chamfer(pred, gt),
            "hausdorff": lambda: hausdorff(pred, gt),
            "point_to_face": lambda: point_to_face(pred, mesh),
            "report": lambda: report("big", pred, gt, mesh),
        }

    @pytest.mark.parametrize("metric", ["chamfer", "hausdorff", "point_to_face", "report"])
    def test_overflow_is_one_value_error_with_no_warning(self, metric):
        # at 2^600 every squared distance is beyond float64, though HD and P2F are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared distances overflow float64 at this coordinate scale"):
                self.scaled_metrics(600)[metric]()

    def test_below_overflow_values_scale_exactly_with_no_warning(self):
        unit = {name: compute() for name, compute in self.scaled_metrics(0).items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = {name: compute() for name, compute in self.scaled_metrics(500).items()}
        assert big["chamfer"] == np.ldexp(unit["chamfer"], 1000)
        assert big["hausdorff"] == np.ldexp(unit["hausdorff"], 500)
        assert big["point_to_face"] == np.ldexp(unit["point_to_face"], 500)
        assert (big["report"].cd, big["report"].hd, big["report"].p2f) == (
            big["chamfer"],
            big["hausdorff"],
            big["point_to_face"],
        )

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            MetricReport("bad", cd=-1.0, hd=0.0, p2f=None, pred_count=1, gt_count=1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MetricReport("bad", cd=np.nan, hd=0.0, p2f=None, pred_count=1, gt_count=1)
