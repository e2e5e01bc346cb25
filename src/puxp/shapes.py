"""Synthetic benchmark surfaces: seeded samplers plus reference triangulations.

Samplers draw uniformly (by area) on the analytic surface, so sampled points
satisfy the surface equation to machine precision. Meshes approximate curved
surfaces with fine triangulations; the box mesh is exact.

Samplers are array code, with no loop over points, and so is every mesh:
the sphere subdivides an icosahedron one whole level at a time, and
_icosphere caches each level. No draw or mesh reaches BLAS, so each has the
same bits under every BLAS kernel. Draws are pinned by hash: the tests hold
the sha256 of sample_pair and make_dataset outputs, so a change of one bit
or of one RNG call fails them.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import ConfigError, integer
from .geometry import PointCloud, TriangleMesh, _dot3

SHAPE_KINDS = ("sphere", "torus", "cylinder", "box_surface")

_DEFAULTS = {
    "sphere": {"radius": 1.0},
    "torus": {"major": 1.0, "minor": 0.35},
    "cylinder": {"radius": 0.7, "height": 2.0},
    "box_surface": {"half_extents": (0.8, 0.6, 1.0)},
}
_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])  # the two in-face axes of each box face axis


@dataclasses.dataclass
class SyntheticShape:
    kind: str
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ConfigError(f"unknown shape {self.kind!r}; choose from {SHAPE_KINDS}")
        merged = dict(_DEFAULTS[self.kind])
        merged.update(self.params)
        self.params = merged
        flat = []
        for v in self.params.values():
            flat.extend(np.atleast_1d(v).tolist())
        if any(not np.isfinite(v) or v <= 0 for v in flat):
            raise ConfigError(f"shape parameters must be positive and finite, got {self.params}")


def surface_sample(shape, n, rng):
    """n points drawn uniformly by area on the analytic surface."""
    kind, p = shape.kind, shape.params
    if kind == "sphere":
        g = rng.normal(size=(n, 3))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        return p["radius"] * g / norms
    if kind == "torus":
        major, minor = p["major"], p["minor"]
        theta, ring = np.empty(0), np.empty(0)
        while theta.size < n:  # rejection keeps the area element uniform
            cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
            cand_ring = major + minor * np.cos(cand)
            accept = rng.uniform(0.0, 1.0, size=2 * n) < cand_ring / (major + minor)
            theta, ring = np.concatenate([theta, cand[accept]]), np.concatenate([ring, cand_ring[accept]])
        theta, ring = theta[:n], ring[:n]
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([ring * np.cos(phi), ring * np.sin(phi), minor * np.sin(theta)])
    if kind == "cylinder":
        radius, height = p["radius"], p["height"]
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        z = rng.uniform(-height / 2.0, height / 2.0, size=n)
        return np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    half = np.asarray(p["half_extents"], dtype=np.float64)
    areas = 4.0 * np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    probs = np.repeat(areas, 2) / (2.0 * areas.sum())
    face = rng.choice(6, size=n, p=probs)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    axis, sign = np.divmod(face, 2)  # face 2a + s lies at (-1)^s half[a] along axis a
    cols = np.column_stack([axis, _OTHER_AXES[axis]])
    pts = np.empty((n, 3))
    pts[np.arange(n)[:, None], cols] = np.column_stack([half[axis] * (1 - 2 * sign), uv * half[cols[:, 1:]]])
    return pts


@functools.lru_cache(maxsize=None)
def _icosphere(subdivisions):
    """Unit icosphere (vertices, faces), built once per level; both are read-only.

    Each level appends the unit midpoint of every edge, in order of first use
    over the faces' edges ab, bc, ca, and splits each face into four."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.sqrt(_dot3(verts.T, verts.T))[:, None]  # explicit sums, no BLAS dot
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        edges = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1), axis=-1).reshape(-1, 2)
        _, first, inverse = np.unique(edges[:, 0] * len(verts) + edges[:, 1], return_index=True, return_inverse=True)
        mid = verts[edges[np.sort(first)]].sum(axis=1)  # new vertices in order of first use
        ab, bc, ca = (len(verts) + np.argsort(np.argsort(first))[inverse]).reshape(-1, 3).T
        verts = np.concatenate([verts, mid / np.sqrt(_dot3(mid.T, mid.T))[:, None]])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    verts.flags.writeable = False
    faces.flags.writeable = False
    return verts, faces


def _grid_faces(nu, nv, wrap_v):
    """Triangulate a nu x nv vertex grid that wraps in u (and optionally v).

    Cell (u, v) gives the faces (a, b, b2) and (a, b2, a2), cells in row-major order.
    """
    u, v = np.arange(nu, dtype=np.int64)[:, None] * nv, np.arange(nv if wrap_v else nv - 1)
    u2, v2 = (u + nv) % (nu * nv), (v + 1) % nv
    a, b, a2, b2 = u + v, u2 + v, u + v2, u2 + v2
    return np.stack([a, b, b2, a, b2, a2], axis=-1).reshape(-1, 3)


def _revolved(nu, ring, z, closed):
    """The mesh of the profile (ring[j], z[j]) turned to nu angles phi_i about the z axis.

    Vertex i * len(z) + j is (ring[j] cos phi_i, ring[j] sin phi_i, z[j]); a
    closed profile joins its last point to its first.
    """
    phi = 2.0 * np.pi * np.arange(nu) / nu
    verts = np.empty((nu, z.size, 3))
    verts[..., 0], verts[..., 1], verts[..., 2] = np.cos(phi)[:, None] * ring, np.sin(phi)[:, None] * ring, z
    return TriangleMesh(verts.reshape(-1, 3), _grid_faces(nu, z.size, closed))


def surface_mesh(shape):
    """Reference triangulation used for the point-to-face metric."""
    kind, p = shape.kind, shape.params
    if kind == "sphere":
        verts, faces = _icosphere(3)
        return TriangleMesh(p["radius"] * verts, faces)
    if kind == "torus":
        major, minor = p["major"], p["minor"]
        theta = 2.0 * np.pi * np.arange(16) / 16
        return _revolved(32, major + minor * np.cos(theta), minor * np.sin(theta), closed=True)
    if kind == "cylinder":
        radius, height = p["radius"], p["height"]
        return _revolved(48, np.full(2, radius), np.array([-height / 2.0, height / 2.0]), closed=False)
    hx, hy, hz = np.asarray(p["half_extents"], dtype=np.float64)
    corners = np.array(
        [[sx * hx, sy * hy, sz * hz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    faces = np.array(
        [
            (0, 1, 3), (0, 3, 2),  # -x
            (4, 6, 7), (4, 7, 5),  # +x
            (0, 4, 5), (0, 5, 1),  # -y
            (2, 3, 7), (2, 7, 6),  # +y
            (0, 2, 6), (0, 6, 4),  # -z
            (1, 5, 7), (1, 7, 3),  # +z
        ],
        dtype=np.int64,
    )
    return TriangleMesh(corners, faces)


def sample_pair(shape, n, ratio, seed):
    """(input cloud of n points, ground truth of ratio*n points, reference mesh).

    Ground truth is a direct uniform draw; the input is an n-point subsample
    of an independent uniform draw, so input points are not a subset of the
    ground truth.
    """
    n = integer("n", n, least=8)
    ratio = integer("ratio", ratio)
    rng = np.random.default_rng(seed)
    gt = PointCloud(surface_sample(shape, ratio * n, rng), _fresh=True)
    pool = surface_sample(shape, 2 * n, rng)
    pick = rng.choice(2 * n, size=n, replace=False)
    return PointCloud(pool[pick], _fresh=True), gt, surface_mesh(shape)
