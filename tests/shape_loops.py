"""Synthetic surfaces built the long way: oracles for puxp.shapes.

The mesh loops visit the grid in the order the mesh lists it (u outer, v
inner) and compute every coordinate with scalar arithmetic. The icosphere
loop splits one face at a time and keeps a dict of edge midpoints. The
samplers make the same RNG calls as puxp.shapes, the box one face at a time
and the torus with each accepted angle's cos computed again. The array
builders must give the same vertices, faces and points bit for bit.
"""

import numpy as np


def grid_faces(nu, nv, wrap_v):
    """Triangulate a nu x nv vertex grid that wraps in u (and optionally v)."""
    faces = []
    v_limit = nv if wrap_v else nv - 1
    for u in range(nu):
        for v in range(v_limit):
            a = u * nv + v
            b = ((u + 1) % nu) * nv + v
            a2 = u * nv + (v + 1) % nv
            b2 = ((u + 1) % nu) * nv + (v + 1) % nv
            faces += [(a, b, b2), (a, b2, a2)]
    return np.array(faces, dtype=np.int64)


def icosphere(subdivisions):
    """Unit icosphere (vertices, faces): each midpoint normalised by an explicit sum."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v for v in verts]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                mid = verts[i] + verts[j]
                verts.append(mid / np.sqrt(mid[0] * mid[0] + mid[1] * mid[1] + mid[2] * mid[2]))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=np.int64)


def torus_vertices(major, minor, nu=32, nv=16):
    phi = 2.0 * np.pi * np.arange(nu) / nu
    theta = 2.0 * np.pi * np.arange(nv) / nv
    return np.array(
        [
            [
                (major + minor * np.cos(tv)) * np.cos(pu),
                (major + minor * np.cos(tv)) * np.sin(pu),
                minor * np.sin(tv),
            ]
            for pu in phi
            for tv in theta
        ]
    )


def cylinder_vertices(radius, height, nu=48):
    phi = 2.0 * np.pi * np.arange(nu) / nu
    z = np.array([-height / 2.0, height / 2.0])
    return np.array([[radius * np.cos(pu), radius * np.sin(pu), zv] for pu in phi for zv in z])


def torus_sample(major, minor, n, rng):
    """The torus sampler computing each accepted angle's cos a second time."""
    theta = np.empty(0)
    while theta.size < n:
        cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
        accept = rng.uniform(0.0, 1.0, size=2 * n) < (major + minor * np.cos(cand)) / (major + minor)
        theta = np.concatenate([theta, cand[accept]])
    theta = theta[:n]
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = major + minor * np.cos(theta)
    return np.column_stack([ring * np.cos(phi), ring * np.sin(phi), minor * np.sin(theta)])


def box_sample(half_extents, n, rng):
    """The box sampler filling one face at a time."""
    half = np.asarray(half_extents, dtype=np.float64)
    areas = 4.0 * np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    probs = np.repeat(areas, 2) / (2.0 * areas.sum())
    face = rng.choice(6, size=n, p=probs)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    for f in range(6):
        axis, sign = divmod(f, 2)
        rows = face == f
        other = [i for i in range(3) if i != axis]
        pts[rows, axis] = half[axis] * (1.0 if sign == 0 else -1.0)
        pts[rows, other[0]] = uv[rows, 0] * half[other[0]]
        pts[rows, other[1]] = uv[rows, 1] * half[other[1]]
    return pts
