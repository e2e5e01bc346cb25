import hashlib
import importlib
import pathlib
import sys

import numpy as np
import pytest

import shape_loops
from puxp.errors import ConfigError
from puxp.geometry import squared_distances_to_mesh
from puxp.pipeline import make_dataset
from puxp.shapes import SHAPE_KINDS, SyntheticShape, _grid_faces, _icosphere, sample_pair, surface_mesh, surface_sample


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


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


# sha256 of (cloud, gt, mesh vertices, mesh faces) of sample_pair(shape, n, 4, seed), recorded
# from the loop builders these array builders replaced
PAIR_SHA256 = {
    ("sphere", 8, 1): "2f36aac44b5b9fa4fcdc3e249c08d7c1f2758ffa48f03cb43ad0408dbee8992f",
    ("sphere", 8, 2026): "3b6d24cb91eb173ca39f86b3ee7a9c3189ec9e181fc36826ec4e2a2dbd2ae70f",
    ("sphere", 256, 1): "db10a868a021c937decd4e30cdd2032b7cd09f950818cde4432714a6ef9b24c4",
    ("sphere", 256, 2026): "6b51a77d2f5176000cbb28a1fa1564b15ad2d94eb89a22dc13f1e2624ec95b13",
    ("sphere", 16384, 1): "3d83ea324802c4e8d017b298d9db41cccf26ca0a7587a6ab926a7f0e83dfdba4",
    ("sphere", 16384, 2026): "9e5efa0f78f6090c3e5a0a136cce418ace2a705a16f741c79fea020098848d37",
    ("torus", 8, 1): "e1c8f8d783ff6db2d77d83ff6005f81a03e61d1fa1abc5caf790ffa2e2acdd79",
    ("torus", 8, 2026): "1e181719bddaeab69cbdd80585c56e69250134a396fe3ca7ebb03170da4cc4ac",
    ("torus", 256, 1): "39c7c49ed83bc4133ffd8d5ff7abd3d32b50c38335a34e95e0fef3a6edf93cb0",
    ("torus", 256, 2026): "742c24c3028e2d50ddec9676ea2cc7f1d4815cf8fbf913a7fcdfdc8dac3735ac",
    ("torus", 16384, 1): "9a0e05a69366c6fb1a009afa997d72118b25ba54be8f7897f6f689c2726badd2",
    ("torus", 16384, 2026): "04bfefc569de77c6db88eb885a4aaf5b3a7a16cac18c6c1a759a49e4deba81d5",
    ("cylinder", 8, 1): "418c0f80988719c229f329f963de1f58a41717f4deca086811b3c2c049ef20f0",
    ("cylinder", 8, 2026): "61d2f4b2a19632854924b75d88fab27c26d43fdd16cff929a01cddf213942a97",
    ("cylinder", 256, 1): "ab6d846b52e9104b934c4b8af23d8fc79d2da979af9551987a97c5431949a3f5",
    ("cylinder", 256, 2026): "f4fca2c3a9b3a5aa384a2bd854e77e9175ad8618b38141ea28579bafb36ada74",
    ("cylinder", 16384, 1): "2e05a741fd301286346a2d5f91a326284793e14239cfb1730470dab7803cddeb",
    ("cylinder", 16384, 2026): "c64c8c0f53c92b9f6000aa3b3f754f0c9ab8bbd7e5206c9cf2adabec42fb7be6",
    ("box_surface", 8, 1): "622ef26df8b065e8f4e74229956fa27fccd511524cf79be148e34e2c1a2b2728",
    ("box_surface", 8, 2026): "e1381e080d1eb4b6f86e17d3f0a794017c122030555060a67396dbf35d44e936",
    ("box_surface", 256, 1): "99ce3f1e8e2462ddd380da636a57b6ae85d0318f01dd448b1b359597be3993f1",
    ("box_surface", 256, 2026): "be436a0117a7cc6676edcaaa4b93be39b402637bc2af0702fd51e72d25bec655",
    ("box_surface", 16384, 1): "2fc6fe463d2456c3b1091d24a60ebff891badef6a5b1e9d949d94c88630eb996",
    ("box_surface", 16384, 2026): "97c2b007d7104724159e316fc9df23272bd1f5d22ef29c59c18eb9799f569cf5",
}
# the same four arrays of every patch of make_dataset(bench/workloads.py train_config(1))
BENCH_DATASET_SHA256 = "a601b7294bd8ba956b1a97b53c40dad8976aa3c17eede59d3c69193e153a693a"


class TestPinnedDraws:
    """Every draw is pinned by hash: a changed bit or RNG call in a sampler or mesh fails here."""

    @pytest.mark.parametrize("kind, n, seed", sorted(PAIR_SHA256))
    def test_sample_pair_bytes(self, kind, n, seed):
        cloud, gt, mesh = sample_pair(SyntheticShape(kind), n, 4, seed)
        assert _sha256(cloud.points, gt.points, mesh.vertices, mesh.faces) == PAIR_SHA256[kind, n, seed]

    def test_bench_dataset_bytes(self):
        bench = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
        sys.path.insert(0, bench)  # imported, never written
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(bench)
        patches = make_dataset(workloads.train_config(1))
        arrays = [a for p in patches for a in (p.cloud.points, p.gt.points, p.mesh.vertices, p.mesh.faces)]
        assert _sha256(*arrays) == BENCH_DATASET_SHA256


class TestBuildersEqualTheLoops:
    """The array builders against shape_loops, at default and other parameters."""

    @pytest.mark.parametrize("nu, nv, wrap_v", [(32, 16, True), (48, 2, False), (5, 7, True), (5, 7, False)])
    def test_grid_faces(self, nu, nv, wrap_v):
        got = _grid_faces(nu, nv, wrap_v)
        assert got.dtype == np.int64
        assert np.array_equal(got, shape_loops.grid_faces(nu, nv, wrap_v))

    @pytest.mark.parametrize("subdivisions", [0, 1, 2, 3, 4])
    def test_icosphere(self, subdivisions):
        verts, faces = _icosphere(subdivisions)
        loop_verts, loop_faces = shape_loops.icosphere(subdivisions)
        assert faces.dtype == np.int64
        assert np.array_equal(verts, loop_verts)
        assert np.array_equal(faces, loop_faces)

    @pytest.mark.parametrize("major, minor", [(1.0, 0.35), (2.5, 1.1), (0.3, 0.29), (1e3, 7e-3)])
    def test_torus(self, major, minor):
        mesh = surface_mesh(SyntheticShape("torus", {"major": major, "minor": minor}))
        assert np.array_equal(mesh.vertices, shape_loops.torus_vertices(major, minor))
        assert np.array_equal(mesh.faces, shape_loops.grid_faces(32, 16, wrap_v=True))

    @pytest.mark.parametrize("radius, height", [(0.7, 2.0), (3.3, 0.1), (1e-3, 5e2)])
    def test_cylinder(self, radius, height):
        mesh = surface_mesh(SyntheticShape("cylinder", {"radius": radius, "height": height}))
        assert np.array_equal(mesh.vertices, shape_loops.cylinder_vertices(radius, height))
        assert np.array_equal(mesh.faces, shape_loops.grid_faces(48, 2, wrap_v=False))

    @pytest.mark.parametrize("major, minor", [(1.0, 0.35), (2.5, 1.1), (0.3, 0.29)])
    def test_torus_sampler(self, major, minor):
        got = surface_sample(SyntheticShape("torus", {"major": major, "minor": minor}), 700, np.random.default_rng(4))
        assert np.array_equal(got, shape_loops.torus_sample(major, minor, 700, np.random.default_rng(4)))

    @pytest.mark.parametrize("half", [(0.8, 0.6, 1.0), (2.0, 0.1, 0.5), (1e-3, 4.0, 4.0)])
    def test_box_sampler(self, half):
        got = surface_sample(SyntheticShape("box_surface", {"half_extents": half}), 900, np.random.default_rng(5))
        assert np.array_equal(got, shape_loops.box_sample(half, 900, np.random.default_rng(5)))
