import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puxp import geometry, metrics
from puxp.errors import DegenerateTriangleError, GradientError, IndexRangeError, ShapeError
from puxp.geometry import (
    IndexMatrix,
    PointCloud,
    TriangleMesh,
    expand_index,
    knn_accelerated,
    knn_bruteforce,
    knn_features,
    nearest_neighbors,
    point_triangle_distance,
    squared_distances_to_mesh,
    squared_distances_to_triangle,
)
from puxp.shapes import SHAPE_KINDS, SyntheticShape, sample_pair, surface_mesh, surface_sample


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    return np.array(
        [
            [c + x * x * (1 - c), x * y * (1 - c) - z * s, x * z * (1 - c) + y * s],
            [y * x * (1 - c) + z * s, c + y * y * (1 - c), y * z * (1 - c) - x * s],
            [z * x * (1 - c) - y * s, z * y * (1 - c) + x * s, c + z * z * (1 - c)],
        ]
    )


class TestContainers:
    def test_cloud_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, 0.0, np.inf]])

    def test_cloud_rejects_empty(self):
        with pytest.raises(ShapeError):
            PointCloud(np.zeros((0, 3)))

    def test_mesh_rejects_out_of_range_face(self):
        with pytest.raises(IndexRangeError):
            TriangleMesh(np.zeros((3, 3)), [[0, 1, 5]])

    def test_mesh_filter_drops_zero_area(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]]
        faces = [[0, 1, 2], [0, 1, 3]]  # second face is collinear
        mesh, dropped = TriangleMesh.filtered(verts, faces)
        assert mesh.face_count == 1
        assert dropped == 1

    def test_mesh_filter_checks_faces_like_the_mesh(self):
        # three quads were reshaped into four unrelated triangles
        verts = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(ShapeError, match="faces"):
            TriangleMesh.filtered(verts, [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]])
        with pytest.raises(IndexRangeError):
            TriangleMesh.filtered(verts, [[0, 1, 6]])

    @pytest.mark.parametrize("shift", [-600, -18, 0, 300, 600])
    def test_mesh_filter_drops_what_the_mesh_search_rejects_at_any_scale(self, shift):
        # a sliver below the area threshold, one above it, a proper face and a collinear one
        verts = np.ldexp(
            np.array([[0, 0, 0], [1, 0, 0], [0.5, 4e-15, 0], [0.5, 1e-14, 0], [0, 1, 0], [2, 0, 0]]), shift
        )
        mesh, dropped = TriangleMesh.filtered(verts, [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5]])
        assert dropped == 2
        assert mesh.faces.tolist() == [[0, 1, 3], [0, 1, 4]]
        squared_distances_to_mesh(verts[:1], mesh)  # every kept face passes the search's check

    def test_clouds_and_meshes_are_read_only_copies(self):
        pts, verts, faces = np.zeros((4, 3)), np.eye(3), np.array([[0, 1, 2]])
        cloud, mesh = PointCloud(pts), TriangleMesh(verts, faces)
        pts[0, 0], verts[0, 0], faces[0, 0] = 9.0, 9.0, 2  # the objects hold their own copies
        assert cloud.points[0, 0] == 0.0 and mesh.vertices[0, 0] == 1.0 and mesh.faces[0, 0] == 0
        for array in (cloud.points, mesh.vertices, mesh.faces):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        with pytest.raises(AttributeError):
            cloud.points = pts
        clouds = sample_pair(SyntheticShape("torus"), 16, 4, 0)[:2]  # clouds made in place, not copied
        assert not any(c.points.flags.writeable for c in clouds)

    def test_nothing_is_built_before_a_search(self):
        cloud, mesh = PointCloud(np.eye(3)), surface_mesh(SyntheticShape("box_surface"))
        assert not cloud._memo and not mesh._memo
        nearest_neighbors(np.zeros((2, 3)), cloud)
        squared_distances_to_mesh(np.zeros((2, 3)), mesh)
        assert list(cloud._memo) == list(mesh._memo) == [0]

    def test_index_matrix_rejects_self_reference(self):
        with pytest.raises(ValueError, match="itself"):
            IndexMatrix([[1], [1]])

    def test_index_matrix_rejects_duplicates_in_row(self):
        with pytest.raises(ValueError, match="duplicate"):
            IndexMatrix([[1, 1], [0, 2], [0, 1]])


class TestPointSetRule:
    """Every point-set input is checked once, by geometry.as_rows, and never reshaped."""

    TRI = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("shape", [(3, 2), (4, 6)])
    def test_triangle_and_mesh_distances_reject_rows_that_are_not_3d(self, shape):
        # both were reshaped to (-1, 3): 2 distances for (3, 2), 8 for (4, 6)
        with pytest.raises(ShapeError, match=r"query points must be a non-empty \(N, 3\) array"):
            squared_distances_to_triangle(np.zeros(shape), self.TRI)
        with pytest.raises(ShapeError, match=r"query points must be a non-empty \(N, 3\) array"):
            squared_distances_to_mesh(np.zeros(shape), TriangleMesh(self.TRI, [[0, 1, 2]]))

    def test_nearest_neighbors_rejects_rows_that_are_not_3d(self):
        with pytest.raises(ShapeError, match="query points"):
            nearest_neighbors(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(ShapeError, match="searched points"):
            nearest_neighbors(np.zeros((4, 3)), np.zeros((4, 2)))

    def test_empty_sets_are_rejected_by_name(self):
        with pytest.raises(ShapeError, match="searched points"):
            nearest_neighbors(np.zeros((2, 3)), np.zeros((0, 3)))
        with pytest.raises(ShapeError, match="query points"):
            squared_distances_to_mesh(np.zeros((0, 3)), TriangleMesh(self.TRI, [[0, 1, 2]]))
        with pytest.raises(ShapeError, match="KNN input"):
            knn_features(np.zeros((0, 4)), 1)

    def test_rows_of_a_cloud_or_an_array(self):
        pts = np.arange(12.0).reshape(4, 3)
        cloud = PointCloud(pts)
        assert geometry.as_rows(cloud, "cloud", 3) is cloud.points
        rows = geometry.as_rows(pts[:, ::2].astype(np.int64), "features")  # any width without one given
        assert rows.dtype == np.float64 and np.array_equal(rows, pts[:, ::2])
        with pytest.raises(ShapeError, match=r"cloud must be a non-empty \(N, 3\) array, got shape \(4, 2\)"):
            geometry.as_rows(pts[:, :2], "cloud", 3)
        with pytest.raises(ShapeError, match=r"\(N, C\) array, got shape \(12,\)"):
            geometry.as_rows(pts.ravel(), "features")


class TestKnnBruteforce:
    def test_collinear_hand_case(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]])
        idx = knn_bruteforce(cloud, 1)
        assert idx.entries[:, 0].tolist() == [1, 0, 1, 2]

    def test_k_equals_n_minus_1_lists_all_others(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(6, 3)))
        idx = knn_bruteforce(cloud, 5)
        for i in range(6):
            assert sorted(idx.entries[i].tolist()) == sorted(set(range(6)) - {i})

    def test_coincident_points_and_tie_rule(self):
        # points 0 and 1 coincide; 2 and 3 are equidistant from both
        cloud = PointCloud([[0, 0, 0], [0, 0, 0], [1, 0, 0], [-1, 0, 0]])
        idx = knn_bruteforce(cloud, 2)
        assert idx.entries[0].tolist() == [1, 2]  # ties: index 2 before 3
        assert idx.entries[1].tolist() == [0, 2]

    def test_rows_sorted_by_ascending_distance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(30, 3))
        idx = knn_bruteforce(PointCloud(pts), 6)
        for i in range(30):
            d = np.linalg.norm(pts[idx.entries[i]] - pts[i], axis=1)
            assert np.all(np.diff(d) >= 0)

    def test_k_out_of_range(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(5, 3)))
        with pytest.raises(ValueError):
            knn_bruteforce(cloud, 5)

    @pytest.mark.parametrize("k", [2.7, 2.0, "2", None])
    def test_k_must_be_an_integer(self, k):
        # int(2.7) would silently search for 2 neighbours
        pts = np.random.default_rng(0).normal(size=(8, 3))
        for kernel in (knn_bruteforce, knn_accelerated, knn_features):
            with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k!r}"):
                kernel(pts, k)

    def test_numpy_integer_k(self):
        pts = np.random.default_rng(0).normal(size=(8, 3))
        assert np.array_equal(knn_bruteforce(pts, np.int32(3)).entries, knn_bruteforce(pts, 3).entries)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(40, 3))  # generic: no exact ties
        rot = rotation_matrix([1, 2, 3], 0.7)
        base = knn_bruteforce(PointCloud(pts), 5)
        moved = knn_bruteforce(PointCloud(pts @ rot.T + [10, -3, 2]), 5)
        assert np.array_equal(base.entries, moved.entries)


class TestKnnAccelerated:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 120))
        k = int(rng.choice([1, 4, min(8, n - 1), min(16, n - 1)]))
        pts = rng.normal(size=(n, 3))
        if seed % 3 == 0:
            pts = np.round(pts, 1)  # provoke ties
            pts = np.unique(pts, axis=0)
            if pts.shape[0] <= k:
                return
        cloud = PointCloud(pts)
        assert np.array_equal(knn_accelerated(cloud, k).entries, knn_bruteforce(cloud, k).entries)

    def test_outlier_row_contains_cluster_members(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(scale=0.01, size=(20, 3)), [[50.0, 0.0, 0.0]]])
        idx = knn_accelerated(PointCloud(pts), 4)
        assert set(idx.entries[20]) <= set(range(20))
        assert np.array_equal(idx.entries, knn_bruteforce(PointCloud(pts), 4).entries)

    def test_grid_cloud_with_heavy_ties(self):
        g = np.arange(3, dtype=np.float64)
        pts = np.array([[x, y, z] for x in g for y in g for z in g])
        cloud = PointCloud(pts)
        for k in (1, 4, 8):
            assert np.array_equal(knn_accelerated(cloud, k).entries, knn_bruteforce(cloud, k).entries)

    def test_rejects_rows_that_are_not_3d(self):
        with pytest.raises(ShapeError):
            knn_accelerated(np.random.default_rng(2).normal(size=(20, 4)), 3)


def ulp_lattice(seed, ulps, offset=0.0):
    """A shuffled 6 x 6 x 6 unit lattice, each coordinate moved by up to `ulps` ulps.

    Its rows have 6 neighbours at distance 1 and 12 at sqrt(2): exact ties
    when ulps is 0, else near-ties far inside the kd-tree's 1e-9 slack.
    """
    rng = np.random.default_rng(seed)
    g = np.arange(1.0, 7.0)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)[rng.permutation(216)] + offset
    return pts + rng.integers(-ulps, ulps + 1, size=pts.shape) * np.spacing(pts)


class TestKdTreeCertifiedOrder:
    """Rows whose kd-tree distances are all farther apart than the slack keep the tree's order."""

    def test_tie_free_cloud_never_re_ranks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("re-ranked")

        monkeypatch.setattr(geometry, "_rank_pairs", refuse)
        monkeypatch.setattr(geometry, "_ball_pairs", refuse)
        pts = np.random.default_rng(3).normal(size=(3000, 3))
        assert np.array_equal(knn_accelerated(pts, 16).entries, knn_bruteforce(pts, 16).entries)

    @pytest.mark.parametrize("ulps", [0, 1, 3])
    def test_lattice_ties_and_near_ties_equal_bruteforce(self, ulps, monkeypatch):
        ranked = []
        original = geometry._rank_pairs

        def spy(rows, cand, d2, k):
            ranked.append(len(rows))
            return original(rows, cand, d2, k)

        monkeypatch.setattr(geometry, "_rank_pairs", spy)
        for seed in range(3):
            pts = ulp_lattice(seed, ulps)
            oracle = knn_bruteforce(pts, 30).entries  # rows ascend, so k columns answer k
            for k in (1, 4, 8, 16, 30):
                assert np.array_equal(knn_accelerated(pts, k).entries, oracle[:, :k]), (seed, k)
        assert ranked  # rows whose order the tree could not prove were re-ranked

    @pytest.mark.parametrize("ulps", [0, 1, 3])
    def test_lattice_nearest_neighbors_equal_dense_min_and_argmin(self, ulps):
        for seed in range(3):
            dst = ulp_lattice(seed, ulps)
            src = ulp_lattice(seed + 10, ulps, offset=0.5)  # each equidistant from up to 8 lattice rows
            diff = src[:, None, :] - dst[None, :, :]
            d2 = (diff * diff).sum(axis=-1)
            got_d2, got_idx = nearest_neighbors(src, dst)
            assert np.array_equal(got_idx, d2.argmin(axis=1))
            assert np.array_equal(got_d2, d2.min(axis=1))


def copy_heavy_cloud(variant, copies):
    """Rows that are all copies: one point, or eight points each repeated `copies` times."""
    rng = np.random.default_rng(11)
    if variant == "identical":
        return np.repeat(rng.normal(size=(1, 3)), copies, axis=0)
    return rng.normal(size=(8, 3))[rng.permutation(np.arange(8 * copies) % 8)]


class TestKnnAcceleratedTies:
    """Inputs whose k-th and (k+1)-th distances tie, so rows take the ball query."""

    def assert_matches_bruteforce(self, pts, ks):
        cloud = PointCloud(pts)
        oracle = knn_bruteforce(cloud, max(ks)).entries  # rows ascend, so k columns answer k
        for k in ks:
            assert np.array_equal(knn_accelerated(cloud, k).entries, oracle[:, :k]), k

    def test_more_than_k_plus_1_coincident_copies(self):
        rng = np.random.default_rng(8)
        pts = np.vstack([np.tile([[0.25, -0.5, 1.0]], (30, 1)), rng.normal(size=(40, 3))])
        self.assert_matches_bruteforce(rng.permutation(pts), (1, 8, 16, 29, 35))

    def test_n_equals_k_plus_1(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 17):
            self.assert_matches_bruteforce(rng.normal(size=(n, 3)), (n - 1,))
        self.assert_matches_bruteforce(np.round(rng.normal(size=(9, 3))), (8,))
        self.assert_matches_bruteforce(np.zeros((4, 3)), (3,))

    def test_rounded_cloud_keeps_its_duplicates(self):
        pts = np.round(np.random.default_rng(10).normal(size=(2000, 3)), 1)
        assert np.unique(pts, axis=0).shape[0] < pts.shape[0]
        self.assert_matches_bruteforce(pts, (1, 4, 16))

    def test_tie_at_the_k_boundary_goes_to_the_smaller_index(self, monkeypatch):
        # the origin's six unit-axis neighbours tie; the 3rd and 4th straddle k=3
        axes = np.vstack([np.eye(3), -np.eye(3)])
        far = 5.0 * np.array([[1.0, 1.0, 1.0], [-1.0, 2.0, 0.0], [0.0, -2.0, 1.0]])
        pts = np.vstack([far[:1], axes[[4, 0, 5, 1, 3, 2]], [[0.0, 0.0, 0.0]], far[1:]])
        queried = []
        original = geometry._ball_pairs

        def spy(tree, rows, radii):
            queried.extend(rows)
            return original(tree, rows, radii)

        monkeypatch.setattr(geometry, "_ball_pairs", spy)
        idx = knn_accelerated(PointCloud(pts), 3)
        assert any(not p.any() for p in queried)  # the origin's row took the ball query
        assert idx.entries[7].tolist() == [1, 2, 3]
        self.assert_matches_bruteforce(pts, (1, 2, 3, 5, 6, 7))

    @pytest.mark.parametrize("variant, copies", [("identical", 4096), ("eight-points", 512)])
    def test_copy_groups_in_memory_that_follows_the_distinct_rows(self, variant, copies):
        pts = copy_heavy_cloud(variant, copies)
        tracemalloc.start()
        try:
            idx = knn_accelerated(pts, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ranking every tied pair held 73 MB for 1,024 identical rows and 148 MB for 8 x 512
        assert peak < 12 * 2**20, peak
        first = np.argsort(pts[:, 0], kind="stable")  # each group's copies, in index order
        group_of = np.unique(pts, axis=0, return_inverse=True)[1].reshape(-1)
        for row in (0, len(pts) // 2, len(pts) - 1):
            same = first[group_of[first] == group_of[row]]
            assert idx.entries[row].tolist() == [j for j in same if j != row][:16]

    @pytest.mark.parametrize("variant, copies", [("identical", 512), ("eight-points", 64)])
    def test_copy_groups_match_bruteforce(self, variant, copies):
        # k inside and beyond a group of 64 copies
        self.assert_matches_bruteforce(copy_heavy_cloud(variant, copies), (1, 16, 63, 80))

    def test_copy_groups_at_one_distance_merge_by_index(self):
        a, b = [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]  # both at distance 1 from the origin
        pts = np.array([a, b, b, a, [0.0, 0.0, 0.0], a, b, a, a, b, b, a, [5.0, 5.0, 5.0]])
        ring = [j for j in range(len(pts)) if j not in (4, 12)]  # the copies of a and b, by index
        ks = (2, 3, 5, 8, 11)  # within one group of 6 copies, and across both
        for k in ks:
            assert knn_accelerated(pts, k).entries[4].tolist() == ring[:k]
        self.assert_matches_bruteforce(pts, ks)


def grouping_case(variant):
    """(N, 3) rows of one kind the copy grouping must sort exactly as np.lexsort does."""
    rng = np.random.default_rng(12)
    if variant == "random":
        return rng.normal(size=(500, 3))
    if variant == "grid":
        return np.round(2.0 * rng.normal(size=(800, 3))) / 2.0  # x repeats everywhere, rows often
    if variant == "box_surface":
        return surface_sample(SyntheticShape("box_surface"), 600, rng)  # x = +-0.8 on two faces
    if variant == "repeated":
        return rng.normal(size=(40, 3))[rng.integers(0, 40, size=400)]
    if variant == "signed_zeros":
        zeros = np.where(rng.integers(0, 2, size=(300, 3)) == 1, -0.0, 0.0)
        return np.where(rng.random((300, 3)) < 0.3, 1.0, zeros)
    return np.repeat(rng.normal(size=(1, 3)), 300, axis=0)  # collapsed


class TestCopyGroups:
    @pytest.mark.parametrize("variant", ["random", "grid", "box_surface", "repeated", "signed_zeros", "collapsed"])
    def test_groups_equal_a_full_lexsort_and_its_runs(self, variant):
        pts = grouping_case(variant)
        cols, tree, (order, first, copies) = geometry._searched(pts)
        want = np.lexsort(pts.T[::-1])
        srt = pts[want]
        starts = np.flatnonzero(np.append(True, (srt[1:] != srt[:-1]).any(axis=1)))  # -0.0 == 0.0
        assert np.array_equal(order, want)
        assert np.array_equal(first, starts)
        assert np.array_equal(copies, np.diff(np.append(starts, len(pts))))
        assert np.array_equal(tree.data, pts[want[starts]])
        assert np.array_equal(geometry._copy_groups(cols)[0], want)


class TestKnnHugeCoordinates:
    """Squared distances of coordinates beyond 1e154 overflow; both kernels must still answer."""

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_accelerated_equals_bruteforce(self, scale):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(50, 3)) * scale)
        for k in (1, 8):
            assert np.array_equal(knn_accelerated(cloud, k).entries, knn_bruteforce(cloud, k).entries)

    @pytest.mark.parametrize("exponent", [530, 1000])
    def test_power_of_two_scale_keeps_the_unit_scale_answer(self, exponent):
        pts = np.random.default_rng(1).normal(size=(50, 3))
        expected = knn_bruteforce(PointCloud(pts), 8).entries
        assert np.array_equal(knn_bruteforce(PointCloud(pts * 2.0**exponent), 8).entries, expected)


class TestKnnTinyCoordinates:
    """Squared distances of coordinates below 1e-154 underflow; every kernel must still answer."""

    @pytest.mark.parametrize("scale", [1e-300, 2.0**-1000])
    def test_every_kernel_keeps_the_unit_scale_answer(self, scale):
        pts = np.random.default_rng(0).normal(size=(50, 3))  # generic: no near ties
        for k in (1, 8):
            expected = knn_bruteforce(PointCloud(pts), k).entries
            for kernel in (knn_bruteforce, knn_accelerated, knn_features):
                assert np.array_equal(kernel(PointCloud(pts * scale), k).entries, expected), kernel

    @pytest.mark.parametrize("scale", [1e-49, 1.0, 1e49])
    def test_normal_range_is_not_rescaled(self, scale):
        feats = np.random.default_rng(1).normal(size=(20, 4)) * scale
        assert np.array_equal(geometry._knn_input(feats, 3)[0], feats)

    @pytest.mark.parametrize("scale", [1e-51, 2.0**-1074, 1e51, 1e300])
    def test_outside_it_a_power_of_two_brings_the_largest_value_into_half_to_one(self, scale):
        feats = np.random.default_rng(1).normal(size=(20, 4)) * scale
        scaled = geometry._knn_input(feats, 3)[0]
        assert 0.5 <= np.abs(scaled).max() < 1.0
        shift = np.frexp(np.abs(scaled).max())[1] - np.frexp(np.abs(feats).max())[1]
        assert np.array_equal(np.ldexp(scaled, -shift), feats)  # one exact power of two


def feature_oracle_case(variant, m=200, c=32, seed=0):
    """(features, k) for one stress variant: knncheck's four and a harsher offset."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(m, c))
    k = 16
    if variant == "duplicated-rows":
        feats[m // 2 :] = feats[: m - m // 2]
    elif variant == "rounded-ties":
        feats = np.round(0.3 * feats, 1)
    elif variant == "offset-1e3":
        feats += 1e3
    elif variant == "offset-1e6-spread-1e-3":
        feats = 1e6 + 1e-3 * feats  # Gram rounding dwarfs every distance
    elif variant == "k=M-1":
        k = m - 1
    return feats, k


def assert_equals_dense_oracle(feats, k):
    assert np.array_equal(knn_features(feats, k).entries, knn_bruteforce(feats, k).entries)


class TestKnnFeatures:
    @pytest.mark.parametrize(
        "variant", ["duplicated-rows", "rounded-ties", "offset-1e3", "offset-1e6-spread-1e-3", "k=M-1"]
    )
    def test_equals_dense_oracle_on_stress_cases(self, variant):
        for seed in range(3):
            assert_equals_dense_oracle(*feature_oracle_case(variant, seed=seed))

    def test_rounded_features_tie_at_the_kth_distance(self):
        # the stress case is only worth its name if ties straddle the k-th column
        feats, k = feature_oracle_case("rounded-ties")
        diff = feats[:, None, :] - feats[None, :, :]
        d2 = np.sort((diff * diff).sum(axis=-1) + np.diag(np.full(len(feats), np.inf)), axis=1)
        assert np.sum(d2[:, k - 1] == d2[:, k]) >= 10

    @pytest.mark.parametrize("delta", [-1, 0, 1, 65])
    def test_equals_dense_oracle_around_the_block_size(self, delta):
        m = geometry._GRAM_ROWS + delta
        feats = np.round(np.random.default_rng(m).normal(size=(m, 8)), 1)
        for k in (1, 5, m - 1):
            assert_equals_dense_oracle(feats, k)

    def test_tie_free_blocks_never_take_the_pair_path(self, monkeypatch):
        original = geometry._rank_pairs

        def refuse(rows, cand, d2, k):
            if np.bincount(rows).max() > k:  # a row with more than k pairs: not a re-rank of k
                raise AssertionError("pair path taken")
            return original(rows, cand, d2, k)

        monkeypatch.setattr(geometry, "_rank_pairs", refuse)
        feats = np.random.default_rng(6).normal(size=(300, 32))  # five blocks, no ties
        assert_equals_dense_oracle(feats, 16)
        with pytest.raises(AssertionError, match="pair path taken"):
            knn_features(*feature_oracle_case("rounded-ties"))

    @pytest.mark.parametrize("k", [1, 16, 2 * geometry._GRAM_ROWS + 4])
    def test_one_tied_row_sends_only_its_block_down_the_pair_path(self, k, monkeypatch):
        # three blocks, the last partial. In the middle one, row r gets two exact
        # copies at its k-th distance: its k-th row j, the k-th row of no other
        # row, and j's features written over the middle-block row farthest from r
        block = geometry._GRAM_ROWS
        m = 2 * block + 5
        feats = np.random.default_rng(7).normal(size=(m, 32))
        kth = knn_bruteforce(feats, k).entries[:, k - 1]
        r = block + int(np.argmax(np.bincount(kth, minlength=m)[kth[block : 2 * block]] == 1))
        ranked = knn_bruteforce(feats, m - 1).entries[r]
        feats[ranked[(ranked >= block) & (ranked < 2 * block)][-1]] = feats[kth[r]]
        blocks = []
        original = geometry._rank_pairs

        def spy(rows, cand, d2, k):
            tied = np.flatnonzero(np.bincount(rows) > k).tolist()  # its rows with ties
            if tied:  # re-ranks of exactly k candidates per row are not the pair path
                blocks.append(tied)
            return original(rows, cand, d2, k)

        monkeypatch.setattr(geometry, "_rank_pairs", spy)
        assert_equals_dense_oracle(feats, k)
        assert blocks == ([] if k == m - 1 else [[r - block]])

    @pytest.mark.parametrize("m", [512, 1024])
    def test_tie_free_features_keep_the_gram_order(self, m, monkeypatch):
        def refuse(*args):
            raise AssertionError("re-ranked")

        monkeypatch.setattr(geometry, "_rank_pairs", refuse)
        assert_equals_dense_oracle(np.random.default_rng(m).normal(size=(m, 32)), 16)

    def test_a_tie_inside_the_first_k_re_ranks_only_its_row(self, monkeypatch):
        # dyadic features make every distance exact; in the middle block, row r
        # gets a mirror of its nearest row through itself, at the same distance
        block = geometry._GRAM_ROWS
        m = 2 * block + 5
        feats = np.round(np.random.default_rng(12).normal(size=(m, 32)) * 256) / 256
        r = block + 7
        ranked = knn_bruteforce(feats, m - 1).entries[r]
        feats[ranked[-1]] = 2 * feats[r] - feats[ranked[0]]
        rows = []
        original = geometry._rank_pairs

        def spy(pair_rows, cand, d2, k):
            rows.extend(sorted(cand[pair_rows == row].tolist()) for row in range(pair_rows.max() + 1))
            return original(pair_rows, cand, d2, k)

        monkeypatch.setattr(geometry, "_rank_pairs", spy)
        expected = knn_bruteforce(feats, 16).entries
        assert np.array_equal(knn_features(feats, 16).entries, expected)
        assert expected[r][:2].tolist() == sorted([ranked[0], ranked[-1]])  # tied at ranks 1 and 2
        assert rows == [sorted(expected[r])]

    @given(st.integers(2, 41), st.integers(1, 40), st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_dense_oracle_on_rows_a_few_ulps_apart(self, groups, c, copies, seed):
        # each row has copies - 1 near-copies, each coordinate moved by up to 3 ulps:
        # their Gram gaps fall within the bound while their squared distances mostly
        # differ. k takes whole groups, so every block is dense, with near-ties inside k
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(groups, c))[rng.permutation(np.arange(groups * copies) % groups)]
        feats += rng.integers(-3, 4, size=feats.shape) * np.spacing(feats)
        assert_equals_dense_oracle(feats, copies - 1 + copies * int(rng.integers(0, groups)))

    def test_equals_dense_oracle_at_training_size(self):
        # a 512 x 32 feature_knn graph of a 256-point patch at ratio 2: a 67 MB oracle tensor
        assert_equals_dense_oracle(np.random.default_rng(8).normal(size=(512, 32)), 16)

    def test_identical_rows_take_the_smallest_other_indices(self):
        m = 2 * geometry._GRAM_ROWS + 3
        feats = np.tile(np.random.default_rng(2).normal(size=(1, 32)), (m, 1))
        idx = knn_features(feats, 5).entries
        assert all(row.tolist() == [j for j in range(6) if j != i][:5] for i, row in enumerate(idx))
        assert_equals_dense_oracle(feats, 5)

    @given(st.integers(2, 160), st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_equals_dense_oracle_property(self, m, c, seed, quantise):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(m, c))
        if quantise == 1:
            feats = np.round(feats, 1)
        elif quantise == 2:
            feats = feats[rng.integers(0, max(1, m // 3), size=m)]  # many duplicated rows
        k = int(rng.integers(1, m))
        assert_equals_dense_oracle(feats, k)

    @pytest.mark.parametrize("m, identical, limit_mb", [(4096, False, 24), (2048, True, 48)])
    def test_memory_stays_far_below_the_dense_tensor(self, m, identical, limit_mb):
        # the dense kernel holds an m x m x 32 float64 tensor: 4.3 GB at 4096, 1.1 GB at 2048.
        # Identical rows make every column a candidate of every row.
        feats = np.random.default_rng(3).normal(size=(m, 32))
        if identical:
            feats[:] = feats[0]
        tracemalloc.start()
        try:
            idx = knn_features(feats, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert idx.entries.shape == (m, 16)
        assert peak < limit_mb * 2**20, peak

    def test_uncertain_rows_re_rank_in_batches_of_pairs(self):
        # k = m - 1 gives every row exactly k candidates; half-step features tie in
        # most rows, whose re-rank held one (rows, k, C) difference block: 73 MB here
        m = 2048
        feats = np.round(np.random.default_rng(0).normal(size=(m, 32)) * 2) / 2
        tracemalloc.start()
        try:
            idx = knn_features(feats, m - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - m * (m - 1) * 8 < 48 * 2**20, peak
        for row in (0, m // 2, m - 1):  # the oracle's (distance, index) order, one row at a time
            diff = feats - feats[row]
            d2 = (diff * diff).sum(axis=1)
            d2[row] = np.inf
            assert np.array_equal(idx.entries[row], np.lexsort((np.arange(m), d2))[: m - 1])

    def test_non_finite_row_is_named(self):
        feats = np.random.default_rng(4).normal(size=(10, 3))
        feats[7, 1] = np.nan
        feats[9, 0] = np.inf
        for kernel in (knn_features, knn_bruteforce, knn_accelerated):
            with pytest.raises(GradientError, match="row 7 "):
                kernel(feats, 2)

    def test_matches_euclidean_knn_on_coordinates(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(25, 3))
        assert np.array_equal(knn_features(pts, 4).entries, knn_bruteforce(PointCloud(pts), 4).entries)

    def test_one_hot_rows_tie_to_smallest_indices(self):
        feats = np.eye(5)
        idx = knn_features(feats, 2)
        # all pairwise distances equal: row i keeps the two smallest other indices
        for i in range(5):
            expected = [j for j in range(5) if j != i][:2]
            assert idx.entries[i].tolist() == expected

    def test_matches_exhaustive_enumeration_2d(self):
        rng = np.random.default_rng(42)
        feats = rng.normal(size=(6, 2))
        idx = knn_features(feats, 2)
        for i in range(6):
            ranked = sorted(
                (j for j in range(6) if j != i),
                key=lambda j: (((feats[j] - feats[i]) ** 2).sum(), j),
            )
            assert idx.entries[i].tolist() == ranked[:2]


class TestColumnSquaredDistances:
    """The 3-D kernels square differences of coordinate columns, not rows.

    They compute dx*dx + dy*dy + dz*dz, added left to right. NumPy sums a
    length-3 axis in that same order, ((d0 * d0) + (d1 * d1)) + (d2 * d2), so
    the column form must give `(diff * diff).sum(axis=-1)` of the rows bit for
    bit, at every scale, in the subnormal range and for signed zeros.
    """

    @staticmethod
    def assert_columns_match_rows(a, b):
        rows = a - b
        want = (rows * rows).sum(axis=-1)
        got = geometry._sum_squares(geometry._columns(a) - geometry._columns(b))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e5, 1e150])
    def test_rows_at_every_scale(self, scale):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 4000, 3)) * scale
        self.assert_columns_match_rows(a, b)

    def test_subnormal_differences(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2000, 3)) * 1e-308
        b = a + rng.integers(-3, 4, size=a.shape) * 5e-324  # a few subnormal steps apart
        self.assert_columns_match_rows(a, b)
        self.assert_columns_match_rows(a * 1e-15, np.zeros_like(a))

    def test_signed_zeros(self):
        signs = np.array(list(np.ndindex(2, 2, 2)), dtype=np.float64)
        zeros = np.where(signs == 1.0, -0.0, 0.0)
        a = np.repeat(zeros, 8, axis=0)
        b = np.tile(zeros, (8, 1))
        self.assert_columns_match_rows(a, b)
        self.assert_columns_match_rows(a, b + [[1.0, -0.0, 2.0]])

    def test_rows_mixing_magnitudes_across_coordinates(self):
        rng = np.random.default_rng(2)
        mags = 10.0 ** rng.integers(-300, 150, size=(5000, 3))
        a = rng.normal(size=(5000, 3)) * mags
        b = a + rng.normal(size=(5000, 3)) * mags[:, ::-1]
        self.assert_columns_match_rows(a, b)


class TestNearestNeighborsTies:
    """Targets with repeated rows: every query ties with every copy.

    Agreement with the dense oracle on such inputs is in
    test_metrics.py::TestKdTreeMatchesDenseOracle.
    """

    def test_identical_targets_in_bounded_memory(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(4096, 3))
        pred = np.repeat(rng.normal(size=(1, 3)), 4096, axis=0)
        tracemalloc.start()
        try:
            d2, idx = nearest_neighbors(gt, pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every pair tied at once held ~290 MB at half these sizes
        assert peak < 4 * 2**20, peak
        assert np.array_equal(idx, np.zeros(4096, dtype=np.int64))
        diff = gt - pred[0]
        assert np.array_equal(d2, (diff * diff).sum(axis=1))

    @pytest.mark.parametrize("where", ["far", "near"])
    def test_a_collapsed_target_costs_a_tree_of_its_distinct_rows(self, where):
        # a kd-tree over every copy scanned one leaf of 65,536 rows per query: 15 s for 65,536 queries
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(16384, 3))
        point = [[40.0, 0.0, 0.0]] if where == "far" else gt[:1] + 1e-3
        pred = np.repeat(point, 65536, axis=0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            d2, idx = nearest_neighbors(gt, pred)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0, elapsed
        assert peak < 16 * 2**20, peak
        assert not idx.any()  # every copy is as near: the smallest index
        diff = gt - pred[0]
        assert np.array_equal(d2, (diff * diff).sum(axis=1))

    def test_self_knn_of_a_collapsed_cloud_is_fast(self):
        # every copy ran the ball-query fallback: ~0.4 s and a ~114 MB peak
        pts = np.repeat(np.random.default_rng(5).normal(size=(1, 3)), 65536, axis=0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            idx = knn_accelerated(pts, 16)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0, elapsed
        assert peak < 32 * 2**20, peak
        for row in (0, 7, 65535):
            assert idx.entries[row].tolist() == [j for j in range(17) if j != row][:16]


class TestExpandIndex:
    @pytest.mark.parametrize("factor", [0, -2, 2.7, 2.0, "2", None])
    def test_factor_must_be_an_integer_of_at_least_one(self, factor):
        # factor 0 gave a 0-row matrix, -2 negative rows, and 2.7 was cut to 2
        with pytest.raises(ValueError, match="expansion factor must be an integer >= 1"):
            expand_index(IndexMatrix([[1], [0]]), factor)

    def test_numpy_integer_factor(self):
        out = expand_index(IndexMatrix([[1], [0]]), np.int64(3))
        assert out.ratio == 3 and type(out.ratio) is int

    def test_hand_case(self):
        out = expand_index(IndexMatrix([[1], [2], [0]]))
        assert out.entries.tolist() == [[2], [2], [4], [4], [0], [0]]

    def test_smallest_case(self):
        out = expand_index(IndexMatrix([[1], [0]]))
        assert out.entries.tolist() == [[2], [2], [0], [0]]

    def test_double_application_multiplies_by_four(self):
        idx = IndexMatrix([[1, 2], [2, 0], [0, 1]])
        out = expand_index(expand_index(idx))
        assert out.rows == 12
        assert np.array_equal(out.entries[0::4], idx.entries * 4)
        assert np.all(out.entries % 4 == 0)

    def test_children_share_parents_mapped_neighbors(self):
        rng = np.random.default_rng(17)
        cloud = PointCloud(rng.normal(size=(30, 3)))
        idx = knn_bruteforce(cloud, 6)
        big = expand_index(idx)
        for i in range(30):
            for j in idx.entries[i]:
                assert 2 * j in big.entries[2 * i]
                assert 2 * j in big.entries[2 * i + 1]

    def test_output_is_valid_index_matrix(self):
        rng = np.random.default_rng(3)
        idx = knn_bruteforce(PointCloud(rng.normal(size=(15, 3))), 4)
        big = expand_index(idx)
        assert big.rows == 30 and big.k == 4
        assert big.entries.max() < 30
        assert np.all(big.entries % 2 == 0)

    def test_result_shares_the_parent_table(self):
        idx = knn_bruteforce(PointCloud(np.random.default_rng(5).normal(size=(12, 3))), 3)
        big = expand_index(expand_index(idx))
        assert big.ratio == 4 and idx.ratio == 1
        assert np.shares_memory(big.parent, idx.parent)

    def test_doubling_a_large_table_allocates_nothing_of_its_size(self):
        m, k = 65536, 16
        idx = IndexMatrix((np.arange(m)[:, None] + np.arange(1, k + 1)) % m)
        tracemalloc.start()
        try:
            big = expand_index(expand_index(idx))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert big.rows == 4 * m and big.k == k
        assert peak < 1024

    @pytest.mark.parametrize("doublings", [1, 2, 3])
    def test_entries_follow_the_repeat_rule_bit_for_bit(self, doublings):
        idx = knn_bruteforce(PointCloud(np.random.default_rng(doublings).normal(size=(20, 3))), 5)
        big, want = idx, idx.entries
        for _ in range(doublings):
            big, want = expand_index(big), np.repeat(want * 2, 2, axis=0)
        assert big.entries.dtype == want.dtype and big.entries.tobytes() == want.tobytes()
        assert big.rows == want.shape[0] and big.k == want.shape[1]
        assert IndexMatrix(big.entries).entries.tobytes() == want.tobytes()


def built_table_case(variant, m=120, seed=0):
    """An M x 3 cloud for one stress variant of the kernels' own tables."""
    pts = np.random.default_rng(seed).normal(size=(m, 3))
    if variant == "grid-0.5-ties":
        pts = np.round(2.0 * pts) / 2.0  # exact ties and many copies
    elif variant == "duplicated-rows":
        pts[m // 2 :] = pts[: m - m // 2]
    elif variant == "offset-1e3":
        pts += 1e3
    return pts


class TestBuiltTables:
    """KNN results and expand_index skip IndexMatrix's checks; their tables pass them anyway."""

    @pytest.mark.parametrize("variant", ["random", "grid-0.5-ties", "duplicated-rows", "offset-1e3"])
    @pytest.mark.parametrize("kernel", [knn_bruteforce, knn_accelerated, knn_features])
    def test_pass_every_public_check(self, kernel, variant):
        idx = kernel(built_table_case(variant), 8)
        assert idx.parent.dtype == np.int64 and idx.parent.flags.c_contiguous
        for table in (idx, expand_index(idx, 2), expand_index(idx, 3)):
            assert np.array_equal(IndexMatrix(table.entries).entries, table.entries)


class TestPointTriangleDistance:
    TRI = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

    def test_projects_inside(self):
        assert point_triangle_distance([0.0, 0.0, 1.0], self.TRI) == pytest.approx(1.0, abs=1e-12)

    def test_closest_vertex_region(self):
        assert point_triangle_distance([-1.0, -1.0, 0.0], self.TRI) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_point_on_vertex_is_zero(self):
        assert point_triangle_distance([2.0, 0.0, 0.0], self.TRI) == 0.0

    def test_all_seven_regions_hand_checked(self):
        cases = [
            ([0.5, 0.5, 0.0], 0.0),  # interior
            ([1.0, -1.0, 0.0], 1.0),  # edge ab
            ([-1.0, 1.0, 0.0], 1.0),  # edge ac
            ([2.0, 2.0, 0.0], np.sqrt(2.0)),  # edge bc
            ([-1.0, -1.0, 0.0], np.sqrt(2.0)),  # vertex a
            ([3.0, -1.0, 0.0], np.sqrt(2.0)),  # vertex b
            ([-1.0, 3.0, 0.0], np.sqrt(2.0)),  # vertex c
        ]
        for p, expected in cases:
            assert point_triangle_distance(p, self.TRI) == pytest.approx(expected, abs=1e-12)

    def test_zero_iff_on_triangle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u, v = rng.uniform(0, 1, size=2)
            if u + v > 1:
                u, v = 1 - u, 1 - v
            p = self.TRI[0] + u * (self.TRI[1] - self.TRI[0]) + v * (self.TRI[2] - self.TRI[0])
            assert point_triangle_distance(p, self.TRI) <= 1e-12
            off = p + np.array([0.0, 0.0, 0.3])
            assert point_triangle_distance(off, self.TRI) > 0.29

    def test_rigid_invariance(self):
        rng = np.random.default_rng(9)
        rot = rotation_matrix([0.3, -1.0, 0.8], 1.1)
        shift = np.array([4.0, -2.0, 7.0])
        for _ in range(25):
            p = rng.normal(size=3)
            tri = rng.normal(size=(3, 3))
            d0 = point_triangle_distance(p, tri)
            d1 = point_triangle_distance(rot @ p + shift, tri @ rot.T + shift)
            assert d1 == pytest.approx(d0, abs=1e-9)

    def test_point_and_triangle_are_not_reshaped(self):
        # a (3, 1) point and a flat 9-vector triangle were reshaped to fit
        with pytest.raises(ShapeError, match="query points"):
            point_triangle_distance([[0.2], [0.2], [1.0]], self.TRI)
        with pytest.raises(ShapeError, match=r"triangle must have shape \(3, 3\), got \(9,\)"):
            point_triangle_distance([0.2, 0.2, 1.0], np.ravel(self.TRI))
        with pytest.raises(ShapeError, match="triangle"):
            squared_distances_to_triangle([[0.2, 0.2, 1.0]], self.TRI[:, :2])

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            point_triangle_distance([0, 0, 1], [[0, 0, 0], [1, 1, 1], [2, 2, 2]])

    @pytest.mark.parametrize("shift", [300, -300])
    def test_power_of_two_scaled_triangle_gives_the_scaled_unit_result(self, shift):
        pts = np.random.default_rng(3).normal(size=(40, 3))
        unit = squared_distances_to_triangle(pts, self.TRI)
        got = squared_distances_to_triangle(np.ldexp(pts, shift), np.ldexp(self.TRI, shift))
        assert np.array_equal(got, np.ldexp(unit, 2 * shift))

    def test_matches_dense_barycentric_sampling(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(0.0, 1.0, 120)
        for _ in range(10):
            tri = rng.normal(size=(3, 3))
            p = rng.normal(size=3)
            uu, vv = np.meshgrid(grid, grid)
            keep = uu + vv <= 1.0
            u, v = uu[keep], vv[keep]
            samples = tri[0] + np.outer(u, tri[1] - tri[0]) + np.outer(v, tri[2] - tri[0])
            brute = np.min(np.linalg.norm(samples - p, axis=1))
            exact = point_triangle_distance(p, tri)
            assert exact <= brute + 1e-12
            assert brute - exact < 0.05  # grid resolution bound


class TestMeshDistance:
    def test_min_over_faces(self):
        mesh = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 10, 10], [11, 10, 10], [10, 11, 10]],
            [[0, 1, 2], [3, 4, 5]],
        )
        d2 = squared_distances_to_mesh([[0.2, 0.2, 0.5]], mesh)
        assert np.sqrt(d2[0]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_per_face_loop(self):
        rng = np.random.default_rng(6)
        verts = rng.normal(size=(9, 3))
        faces = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        mesh = TriangleMesh(verts, faces)
        pts = rng.normal(size=(20, 3))
        fast = np.sqrt(squared_distances_to_mesh(pts, mesh))
        slow = np.array(
            [min(point_triangle_distance(p, mesh.triangle(f)) for f in range(3)) for p in pts]
        )
        assert np.array_equal(fast, slow)


def per_face_loop(pts, mesh):
    """The unpruned reference: every face, one point_triangle_distance at a time."""
    return np.array(
        [min(point_triangle_distance(p, mesh.triangle(f)) for f in range(mesh.face_count)) for p in pts]
    )


def per_face_batches(pts, mesh):
    """The unpruned reference for large meshes: every face against all points."""
    best = np.full(len(pts), np.inf)
    for f in range(mesh.face_count):
        np.minimum(best, squared_distances_to_triangle(pts, mesh.triangle(f)), out=best)
    return best


def run_under_other_kernels(script, *args):
    """{kernel: stdout} of `python -c script *args` with this checkout's puxp, under
    OpenBLAS Haswell, and under Sandybridge with numpy's own SIMD capped at its baseline."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    beyond_baseline = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])
    kernels = {
        "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge", "NPY_DISABLE_CPU_FEATURES": beyond_baseline},
    }
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    out = {}
    for name, kernel in kernels.items():
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            env={**os.environ, "PYTHONPATH": src, **kernel}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out[name] = proc.stdout
    return out


class TestPrunedMeshDistance:
    def test_random_meshes_match_per_face_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            verts = rng.normal(size=(int(rng.integers(3, 25)), 3))
            faces = [rng.choice(len(verts), 3, replace=False) for _ in range(int(rng.integers(1, 20)))]
            mesh = TriangleMesh(verts, faces)
            pts = rng.normal(scale=1.5, size=(30, 3))
            assert np.array_equal(np.sqrt(squared_distances_to_mesh(pts, mesh)), per_face_loop(pts, mesh))

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_shape_meshes_match_per_face_loop(self, kind):
        rng = np.random.default_rng(15)
        shape = SyntheticShape(kind)
        mesh = surface_mesh(shape)
        near = surface_sample(shape, 300, rng) + rng.normal(scale=0.03, size=(300, 3))
        far = rng.normal(scale=20.0, size=(40, 3)) + [50.0, -30.0, 10.0]
        for pts in (near, far):
            assert np.array_equal(squared_distances_to_mesh(pts, mesh), per_face_batches(pts, mesh))
        few = near[:4]
        assert np.array_equal(np.sqrt(squared_distances_to_mesh(few, mesh)), per_face_loop(few, mesh))

    def test_scaled_and_offset_mesh(self):
        rng = np.random.default_rng(16)
        shape = SyntheticShape("torus")
        base = surface_mesh(shape)
        mesh = TriangleMesh(base.vertices * 1e3 + 1e6, base.faces)
        pts = surface_sample(shape, 200, rng) * 1e3 + 1e6 + rng.normal(scale=5.0, size=(200, 3))
        assert np.array_equal(squared_distances_to_mesh(pts, mesh), per_face_batches(pts, mesh))

    def test_zero_area_face_raises_for_first_bad_face(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0], [3, 0, 0], [0, 0, 5]]
        mesh = TriangleMesh(verts, [[0, 1, 2], [0, 1, 3], [0, 2, 5], [1, 3, 4]])
        with pytest.raises(DegenerateTriangleError) as caught:
            squared_distances_to_mesh([[0.2, 0.2, 1.0]], mesh)
        assert str(caught.value) == "triangle has (near-)zero area: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]"

    @pytest.mark.parametrize("height, degenerate", [(4e-15, True), (1e-14, False)])
    def test_sliver_near_the_area_threshold(self, height, degenerate):
        # cross2 / span = h^2 / (0.25 + h^2): the threshold 1e-28 sits at h = 5e-15
        tri = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, height, 0.0]]
        mesh = TriangleMesh(tri + [[0.0, 0.0, 1.0]], [[0, 1, 3], [0, 1, 2]])
        pts = [[0.5, 0.5, 0.5]]
        if degenerate:
            with pytest.raises(DegenerateTriangleError):
                point_triangle_distance(pts[0], tri)
            with pytest.raises(DegenerateTriangleError):
                squared_distances_to_mesh(pts, mesh)
        else:
            assert np.array_equal(np.sqrt(squared_distances_to_mesh(pts, mesh)), per_face_loop(pts, mesh))

    @staticmethod
    def boundary_slivers(n=2000, seed=0):
        """n pairs of slivers one ulp of the apex apart, either side of the 1e-28 threshold.

        The base runs along x from the origin, so the cross product and the
        norms are exact products and the verdict turns on how three squares
        are summed. The apex height is bisected by elementwise left-to-right
        sums only, so the slivers are the same under every BLAS kernel.
        """
        def degenerate(tris):
            def norm2(u):
                return u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1] + u[:, 2] * u[:, 2]

            ab, ac = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
            span = norm2(ab) * norm2(ac)
            return (norm2(np.cross(ab, ac)) <= 1e-28 * span) | (span == 0.0)

        rng = np.random.default_rng(seed)
        base, run = rng.uniform(0.5, 2.0, size=(2, n))
        depth = rng.uniform(0.1, 0.9, size=n) * 1e-14 * run

        def slivers(height):
            tris = np.zeros((n, 3, 3))
            tris[:, 1, 0] = base
            tris[:, 2] = np.stack([run, height, depth], axis=1)
            return tris

        lo, hi = np.zeros(n), 1e-13 * run
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = degenerate(slivers(mid))
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        tris = np.concatenate([slivers(lo), slivers(hi)])
        return tris, degenerate(tris)

    def test_degeneracy_verdicts_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # A BLAS dot may sum three squares in another order or with fused
        # multiply-adds, which flips slivers within an ulp of the threshold.
        tris, expected = self.boundary_slivers()
        assert expected[:2000].all() and not expected[2000:].any()
        assert np.array_equal(geometry._degenerate_faces(tris), expected)
        np.save(tmp_path / "tris.npy", tris)
        script = (
            "import sys, numpy as np\n"
            "from puxp import geometry\n"
            "print(np.packbits(geometry._degenerate_faces(np.load(sys.argv[1]))).tobytes().hex())\n"
        )
        for kernel, out in run_under_other_kernels(script, tmp_path / "tris.npy").items():
            assert out.strip() == np.packbits(expected).tobytes().hex(), kernel

    def test_sample_pair_bytes_do_not_depend_on_the_blas_kernel(self, capsys):
        # the draws and meshes of every shape, the P2F reference surfaces included
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from puxp.shapes import SHAPE_KINDS, SyntheticShape, sample_pair\n"
            "for kind in SHAPE_KINDS:\n"
            "    cloud, gt, mesh = sample_pair(SyntheticShape(kind), 256, 4, 1)\n"
            "    arrays = (cloud.points, gt.points, mesh.vertices, mesh.faces)\n"
            "    print(kind, hashlib.sha256(b''.join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest())\n"
        )
        exec(script, {})
        expected = capsys.readouterr().out
        assert len(expected.splitlines()) == len(SHAPE_KINDS)
        for kernel, out in run_under_other_kernels(script).items():
            assert out == expected, kernel

    @pytest.mark.parametrize("shift", [300, -300])
    def test_power_of_two_scaled_torus_gives_the_scaled_unit_result(self, shift):
        # at 2^+-300 the triangle arithmetic's fourth powers over- or underflow unscaled
        rng = np.random.default_rng(17)
        shape = SyntheticShape("torus")
        mesh = surface_mesh(shape)
        pts = surface_sample(shape, 200, rng) + rng.normal(scale=0.05, size=(200, 3))
        unit = squared_distances_to_mesh(pts, mesh)
        scaled = TriangleMesh(np.ldexp(mesh.vertices, shift), mesh.faces)
        assert np.array_equal(squared_distances_to_mesh(np.ldexp(pts, shift), scaled), np.ldexp(unit, 2 * shift))

    @pytest.mark.parametrize("faces", [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65])
    def test_every_face_count_matches_per_face_batches(self, faces):
        # 2^k - 1, 2^k and 2^k + 1 faces: full, exact and barely padded hierarchies
        rng = np.random.default_rng(faces)
        mesh = TriangleMesh(rng.normal(size=(3 * faces, 3)), np.arange(3 * faces).reshape(-1, 3))
        pts = rng.normal(scale=1.5, size=(200, 3))
        assert np.array_equal(squared_distances_to_mesh(pts, mesh), per_face_batches(pts, mesh))

    @pytest.mark.parametrize("ring", [3, 8, 33])
    def test_sliver_faces_match_per_face_batches(self, ring):
        # a cylinder of faces 2 long and at most 0.02 wide, and points near, on and inside it
        rng = np.random.default_rng(ring)
        angle = 2.0 * np.pi * np.arange(ring) / ring
        circle = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(ring)]) * 0.01
        verts = np.vstack([circle - [0.0, 0.0, 1.0], circle + [0.0, 0.0, 1.0]])
        i, j = np.arange(ring), (np.arange(ring) + 1) % ring
        faces = np.vstack([np.column_stack([i, j, i + ring]), np.column_stack([j, j + ring, i + ring])])
        mesh = TriangleMesh(verts, faces)
        pts = np.vstack([verts, rng.normal(scale=[0.02, 0.02, 1.0], size=(300, 3)), rng.normal(size=(50, 3))])
        assert np.array_equal(squared_distances_to_mesh(pts, mesh), per_face_batches(pts, mesh))

    def test_more_pairs_than_a_batch_match_per_face_batches(self, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_BATCH", 64)  # the walk splits its pairs many times over
        rng = np.random.default_rng(18)
        mesh = surface_mesh(SyntheticShape("torus"))
        pts = np.vstack([rng.normal(scale=0.6, size=(300, 3)), rng.normal(scale=30.0, size=(20, 3))])
        assert np.array_equal(squared_distances_to_mesh(pts, mesh), per_face_batches(pts, mesh))

    def test_far_points_walk_in_bounded_memory(self):
        # far from the sphere every point keeps hundreds of faces: walking all 16k at once held 292 MB, in chunks 13
        mesh = surface_mesh(SyntheticShape("sphere"))
        pts = np.random.default_rng(21).normal(scale=3.0, size=(16384, 3))
        squared_distances_to_mesh(pts[:1], mesh)  # the index is kept, not counted
        tracemalloc.start()
        try:
            squared_distances_to_mesh(pts, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak

    @pytest.mark.parametrize("shift", [0, 300, -300])
    def test_a_kept_index_gives_what_a_fresh_mesh_gives(self, shift):
        rng = np.random.default_rng(19)
        base = surface_mesh(SyntheticShape("cylinder"))
        mesh = TriangleMesh(np.ldexp(base.vertices, shift), base.faces)
        pts = [np.ldexp(rng.normal(size=(100, 3)), shift) for _ in range(2)]
        first = [squared_distances_to_mesh(p, mesh) for p in pts]
        again = [squared_distances_to_mesh(p, mesh) for p in pts]
        fresh = [squared_distances_to_mesh(p, TriangleMesh(mesh.vertices, mesh.faces)) for p in pts]
        for a, b, c, p in zip(first, again, fresh, pts):
            assert np.array_equal(a, b) and np.array_equal(a, c) and np.array_equal(a, per_face_batches(p, mesh))

    def test_one_index_per_scale(self):
        # far query points scale the mesh with them (e != 0); near ones leave it as it is (e = 0)
        rng = np.random.default_rng(20)
        mesh = surface_mesh(SyntheticShape("torus"))
        near, far = rng.normal(size=(50, 3)), np.ldexp(rng.normal(size=(50, 3)), 200)
        for pts in (far, near, far):
            assert np.array_equal(squared_distances_to_mesh(pts, mesh), per_face_batches(pts, mesh))
        assert len(mesh._memo) == 2
        cloud = PointCloud(rng.normal(size=(80, 3)))
        for src in (far, near, far):
            d2, idx = nearest_neighbors(src, cloud)
            assert np.array_equal(d2, nearest_neighbors(src, cloud.points)[0])
            assert np.array_equal(idx, nearest_neighbors(src, cloud.points)[1])
        assert len(cloud._memo) == 2

    def test_degenerate_face_raises_on_every_call(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], [[0, 1, 3], [0, 1, 2]])
        for _ in range(2):
            with pytest.raises(DegenerateTriangleError, match=r"\[2\.0, 0\.0, 0\.0\]"):
                squared_distances_to_mesh([[0.0, 0.0, 1.0]], mesh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_naming_the_row(self, bad):
        mesh = surface_mesh(SyntheticShape("box_surface"))
        pts = np.array([[0.1, 0.2, 2.0], [bad, 0.0, 0.0], [1e200, 0.0, 0.0]])
        with pytest.raises(GradientError, match="row 1 of the query points is not finite"):
            squared_distances_to_mesh(pts, mesh)
        verts = mesh.vertices.copy()
        verts[5, 2] = bad
        with pytest.raises(GradientError, match="row 5 of the mesh vertices is not finite"):
            squared_distances_to_mesh(pts[:1], TriangleMesh(verts, mesh.faces))

    def test_degenerate_face_of_a_scaled_mesh_quotes_its_own_coordinates(self):
        verts = np.ldexp(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=np.float64), 400)
        mesh = TriangleMesh(verts, [[0, 1, 2], [0, 1, 3]])
        with pytest.raises(DegenerateTriangleError) as caught:
            squared_distances_to_mesh([[0.0, 0.0, 1.0]], mesh)
        assert str(caught.value) == f"triangle has (near-)zero area: {verts[[0, 1, 3]].tolist()}"


def duplicated_queries(rng, distinct, copies):
    """`distinct` random rows and the origin, each repeated `copies` times in shuffled order; half the
    zero coordinates are -0.0, which is a copy of 0.0."""
    rows = np.vstack([np.zeros((1, 3)), rng.normal(size=(distinct - 1, 3))])
    pts = rows[rng.permutation(np.arange(distinct * copies) % distinct)]
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    return pts


class TestQueryCopyGroups:
    """Cross searches query each distinct row once; every copy takes its group's result."""

    @pytest.mark.parametrize("as_cloud", [False, True])
    def test_equal_to_one_search_per_row(self, as_cloud):
        rng = np.random.default_rng(21)
        _, gt, mesh = sample_pair(SyntheticShape("torus"), 64, 4, 3)
        grid = np.round(2.0 * rng.normal(size=(60, 3))) / 2.0  # rows that share x, some of them copies
        src = np.vstack([duplicated_queries(rng, 12, 5), grid, gt.points[:20], gt.points[:20]])  # ties with gt rows
        query = PointCloud(src) if as_cloud else src
        d2, idx = nearest_neighbors(query, gt)
        p2f = squared_distances_to_mesh(query, mesh)
        for i, row in enumerate(src):
            one_d2, one_idx = nearest_neighbors(row[None], gt.points)
            assert (d2[i], idx[i]) == (one_d2[0], one_idx[0]), i
            assert p2f[i] == squared_distances_to_mesh(row[None], mesh)[0], i
        assert np.array_equal(p2f, per_face_batches(src, mesh))

    def test_a_cloud_that_is_query_and_target_is_grouped_once(self, monkeypatch):
        cloud, gt, mesh = sample_pair(SyntheticShape("sphere"), 64, 4, 4)
        pred = PointCloud(np.repeat(cloud.points, 4, axis=0))
        calls = []
        grouped = geometry._copy_groups
        monkeypatch.setattr(geometry, "_copy_groups", lambda cols: calls.append(cols.shape[1]) or grouped(cols))
        report = metrics.report("r", pred, gt, mesh)
        assert sorted(calls) == [256, 256]  # pred and gt, once each, for both directions and P2F
        assert report == metrics.report("r", pred.points, gt.points, mesh)

    def test_a_raw_prediction_is_grouped_once(self, monkeypatch):
        cloud, gt, mesh = sample_pair(SyntheticShape("sphere"), 64, 4, 4)
        pred = np.repeat(cloud.points, 4, axis=0)
        expected = metrics.report("r", PointCloud(pred), gt, mesh)  # and gt keeps its groups
        calls = []
        grouped = geometry._copy_groups
        monkeypatch.setattr(geometry, "_copy_groups", lambda cols: calls.append(cols.shape[1]) or grouped(cols))
        assert metrics.report("r", pred, gt, mesh) == expected
        assert calls == [256]  # the two searches and P2F share one build of the raw rows
        assert pred.flags.writeable

    @pytest.mark.parametrize("search", ["nearest", "report", "p2f"])
    def test_copies_of_the_torus_centre_are_fast(self, search):
        # one search per copy: nearest 8.0 s, report with the mesh 12.5 s, P2F 3.75 s
        _, gt, mesh = sample_pair(SyntheticShape("torus"), 16384, 4, 1)
        pred = np.zeros((65536, 3))  # nearly equidistant from the whole inner ring
        run = {
            "nearest": lambda: nearest_neighbors(pred, gt),
            "report": lambda: metrics.report("centre", pred, gt, mesh),
            "p2f": lambda: squared_distances_to_mesh(pred, mesh),
        }[search]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            got = run()
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0, elapsed
        assert peak < 16 * 2**20, peak
        (d2,), (idx,) = nearest_neighbors(pred[:1], gt)  # every copy takes the one row's result
        (p2f,) = squared_distances_to_mesh(pred[:1], mesh)
        if search == "nearest":
            assert (got[0] == d2).all() and (got[1] == idx).all()
        elif search == "p2f":
            assert (got == p2f).all()
        else:
            assert got.p2f == pytest.approx(np.sqrt(p2f), rel=1e-12)
