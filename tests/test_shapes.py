import numpy as np
import pytest

from puxp.errors import ConfigError
from puxp.geometry import squared_distances_to_mesh
from puxp.shapes import SHAPE_KINDS, SyntheticShape, _icosphere, sample_pair, surface_mesh, surface_sample


class TestSamplers:
    def test_sphere_points_have_exact_radius(self):
        shape = SyntheticShape("sphere")
        pts = surface_sample(shape, 500, np.random.default_rng(0))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_torus_points_satisfy_surface_equation(self):
        shape = SyntheticShape("torus")
        R, r = shape.params["major"], shape.params["minor"]
        pts = surface_sample(shape, 400, np.random.default_rng(1))
        ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        residual = (ring - R) ** 2 + pts[:, 2] ** 2 - r**2
        assert np.max(np.abs(residual)) < 1e-12

    def test_cylinder_points_on_lateral_surface(self):
        shape = SyntheticShape("cylinder")
        pts = surface_sample(shape, 300, np.random.default_rng(2))
        rad = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        assert np.allclose(rad, shape.params["radius"], atol=1e-12)
        assert np.max(np.abs(pts[:, 2])) <= shape.params["height"] / 2

    def test_box_points_on_box_mesh_exactly(self):
        shape = SyntheticShape("box_surface")
        pts = surface_sample(shape, 300, np.random.default_rng(3))
        d2 = squared_distances_to_mesh(pts, surface_mesh(shape))
        assert np.max(d2) < 1e-24

    def test_all_kinds_sample_and_mesh(self):
        for kind in SHAPE_KINDS:
            shape = SyntheticShape(kind)
            pts = surface_sample(shape, 50, np.random.default_rng(7))
            mesh = surface_mesh(shape)
            assert pts.shape == (50, 3)
            assert mesh.face_count > 0
            # sampled points sit near the triangulated surface
            d = np.sqrt(squared_distances_to_mesh(pts, mesh))
            assert np.max(d) < 0.05

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticShape("sphere", {"radius": -1.0})
        with pytest.raises(ConfigError):
            SyntheticShape("doughnut")


class TestIcosphereCache:
    def test_cached_mesh_equals_a_fresh_build(self):
        fresh_verts, fresh_faces = _icosphere.__wrapped__(3)
        mesh = surface_mesh(SyntheticShape("sphere"))
        assert np.array_equal(mesh.vertices, fresh_verts)
        assert np.array_equal(mesh.faces, fresh_faces)
        assert _icosphere(3) is _icosphere(3)

    def test_cached_arrays_are_read_only(self):
        verts, faces = _icosphere(3)
        with pytest.raises(ValueError):
            verts[0, 0] = 2.0
        with pytest.raises(ValueError):
            faces[0, 0] = 1


class TestSamplePair:
    def test_counts_are_exact(self):
        cloud, gt, mesh = sample_pair(SyntheticShape("sphere"), 32, 4, seed=5)
        assert cloud.count == 32
        assert gt.count == 128
        assert mesh.face_count > 0

    def test_same_seed_is_identical(self):
        a = sample_pair(SyntheticShape("torus"), 16, 2, seed=9)
        b = sample_pair(SyntheticShape("torus"), 16, 2, seed=9)
        assert np.array_equal(a[0].points, b[0].points)
        assert np.array_equal(a[1].points, b[1].points)

    def test_different_seed_differs(self):
        a = sample_pair(SyntheticShape("sphere"), 16, 2, seed=1)
        b = sample_pair(SyntheticShape("sphere"), 16, 2, seed=2)
        assert not np.array_equal(a[1].points, b[1].points)

    def test_minimum_input_count(self):
        with pytest.raises(ConfigError):
            sample_pair(SyntheticShape("sphere"), 4, 2, seed=0)

    def test_input_is_not_a_ground_truth_subset(self):
        cloud, gt, _ = sample_pair(SyntheticShape("sphere"), 16, 2, seed=3)
        gt_set = {tuple(p) for p in gt.points}
        assert not any(tuple(p) in gt_set for p in cloud.points)
