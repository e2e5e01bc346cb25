"""Point clouds, triangle meshes, and exact K-nearest-neighbor graphs.

Neighbor searches order candidates by (squared distance, index): ties go to
the smaller index, rows come back in ascending distance, and a point is
never its own neighbor. Squared distances are always `(diff * diff)` summed
over the columns, so all searches agree on every input. The 3-D kernels
work on coordinate columns: dx*dx + dy*dy + dz*dz from gathers of
contiguous x, y and z arrays, added left to right. NumPy sums a length-3
axis in that order, so the bits are those of the row form, which
knn_bruteforce and the tests' oracles keep as independent witnesses.

There is one dense kernel, knn_bruteforce: the M x M x C difference tensor,
kept as the oracle for the tests and `puxp knncheck`. The fast kernels pick
candidates and order them by their own rounded distances. A row keeps that
order where every gap in it exceeds the proven error of those distances;
the other rows are re-ranked with the oracle's arithmetic. So rounding in
the fast pass can never change a result:

- One kd-tree search serves self and cross queries: knn_accelerated (the
  k + 1 nearest rows of an M x 3 cloud, less the point itself) and
  nearest_neighbors (k = 1 across two sets). Its tree holds the distinct
  rows, so N copies of one point cost O(N log N), not O(N^2). Every
  search, self, cross or point-to-face, queries each distinct row once,
  and each copy takes its group's result. A row keeps the tree's order
  where its n + 1 hits are each more than a relative 1e-9 apart and copies
  do not fill the n rows early; every other row ranks the first
  min(copies, n) copies of each distinct row within a ball query, in
  memory that follows the distinct rows in reach, not the copies.
- knn_features (M x C features) works in blocks of rows. One matmul per
  block gives Gram values -2 a.b + |b|^2 (squared distances less the row's
  |a|^2), and every column within a proven error bound e of the k-th
  smallest is a candidate. Where every row of the block has exactly k, a
  row whose gaps all exceed 2 e keeps its Gram order and the rest are
  re-ranked; else the block is ranked pair by pair. Memory is
  O(block M + M C) however many rows tie, against O(M^2 C) for the dense
  kernel.

Every point set comes in through one shape rule, as_rows: a PointCloud or an
array becomes float64 rows (N, C) with N >= 1, and C == 3 wherever the
kernel is 3-D. Anything else, an empty set or an (N, 2) or (N, 6) array
included, raises ShapeError naming the input; nothing is reshaped.

The 3-D searches (knn_accelerated, nearest_neighbors and
squared_distances_to_mesh) and their callers read point sets through one
boundary, as_cloud: a PointCloud passes through, and an array becomes a
read-only view PointCloud, not a copy, after as_rows and the one finiteness
rule, _finite: GradientError naming the first non-finite row. PointCloud and
TriangleMesh construction apply the same rule. The oracles (knn_bruteforce,
knn_features, squared_distances_to_triangle) read arrays through as_rows
alone, apart from the code they check, and meet _finite in _in_range, the
one scale rule of every distance kernel and of the triangle degeneracy rule:
inputs whose largest |x| lies outside [1e-50, 1e50) are scaled together by
a power of two, so no square or product overflows or underflows.

A PointCloud or TriangleMesh keeps what searches build from it, on first
use: a cloud its knn_accelerated table per k and, per _in_range exponent (0
for every input in [1e-50, 1e50)), the columns and copy groups of
nearest_neighbors and squared_distances_to_mesh, and a tree built at the
first search of the cloud, so a set that is only queried builds none; a
mesh the index of squared_distances_to_mesh. The view cloud of an array
lives for one call.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DegenerateTriangleError, GradientError, IndexRangeError, ShapeError, integer

# Relative inflation of a kd-tree distance bound: far above the tree's own
# rounding error, so a ball query with it misses no candidate.
_RADIUS_SLACK = 1.0 + 1e-9
# Within [1 / _SCALE_LIMIT, _SCALE_LIMIT) no squared distance and no product
# of the point-triangle arithmetic (fourth powers of coordinate differences)
# can overflow or underflow at the scale of the data.
_SCALE_LIMIT = 1e50
# Candidate pairs per distance batch of knn_features and
# squared_distances_to_mesh: it bounds their temporary arrays.
_PAIR_BATCH = 1 << 15
_LEAFSIZE = 16  # points per leaf of every kd-tree; 32 made near-collapsed searches 15% faster, trained ones 5% slower


def _kept(owner, key, build):
    """build(), kept in the memo of a PointCloud or TriangleMesh under key: an
    _in_range exponent, or ("knn", k) for a KNN table."""
    memo = owner._memo
    return memo[key] if key in memo else memo.setdefault(key, build())


class PointCloud:
    """Ordered list of finite 3D points; order defines row identity. Read-only."""

    __slots__ = ("_points", "_memo")

    def __init__(self, points):
        pts = _finite(np.array(as_rows(points, "point cloud", 3), order="C"), "point cloud")
        pts.flags.writeable = False  # a private copy: no caller can change it later
        self._points, self._memo = pts, {}

    points = property(lambda self: self._points)

    @property
    def count(self):
        return self.points.shape[0]

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"PointCloud({self.count} points)"


class TriangleMesh:
    """Vertex/face arrays with all faces triangular and indices in range. Read-only."""

    __slots__ = ("_vertices", "_faces", "_memo")

    def __init__(self, vertices, faces):
        verts = np.array(vertices, dtype=np.float64, order="C")  # private copies, read-only below
        tris = np.array(integer_table(faces, "mesh faces"))
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ShapeError(f"mesh vertices must have shape (V, 3), got {verts.shape}")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ShapeError(f"mesh faces must have shape (F, 3), got {tris.shape}")
        _finite(verts, "mesh vertices")
        if tris.size and (tris.min() < 0 or tris.max() >= verts.shape[0]):
            bad = int(tris.min()) if tris.min() < 0 else int(tris.max())
            raise IndexRangeError(f"face index {bad} out of range for {verts.shape[0]} vertices")
        verts.flags.writeable = tris.flags.writeable = False
        self._vertices, self._faces, self._memo = verts, tris, {}

    vertices = property(lambda self: self._vertices)
    faces = property(lambda self: self._faces)

    @property
    def face_count(self):
        return self.faces.shape[0]

    def triangle(self, f):
        return self.vertices[self.faces[f]]

    @staticmethod
    def filtered(vertices, faces):
        """Build a mesh without the faces the distance kernels reject; returns (mesh, dropped)."""
        mesh = TriangleMesh(vertices, faces)
        (scaled,), _ = _in_range([mesh.vertices], ["mesh vertices"])
        keep = ~_degenerate_faces(scaled[mesh.faces])
        return TriangleMesh(mesh.vertices, mesh.faces[keep]), int((~keep).sum())

    def __repr__(self):
        return f"TriangleMesh({self.vertices.shape[0]} vertices, {self.face_count} faces)"


class IndexMatrix:
    """M x K table of neighbor indices into a point set of size M.

    Every entry is in range, no row lists its own index, and entries within
    a row are distinct.

    The table is kept as a validated parent table [N, K] and a ratio r, with
    M = r N. Row r*i + s (s < r) lists r * parent[i]: every KNN result has
    r = 1, and expand_index multiplies r, never the parent. `entries`
    gives the M x K table; at r > 1 it is built only when asked for. The
    constructor checks a read-only copy of a table from outside; _built
    skips the checks for the kernels' valid tables and makes them read-only.
    """

    __slots__ = ("_parent", "_ratio")
    parent = property(lambda self: self._parent)
    ratio = property(lambda self: self._ratio)

    def __init__(self, entries):
        idx = np.array(integer_table(entries, "index matrix"))  # private: no caller can change it later
        if idx.ndim != 2 or 0 in idx.shape:
            raise ShapeError(f"index matrix must have shape (M, K), got {idx.shape}")
        m = idx.shape[0]
        if idx.min() < 0 or idx.max() >= m:
            bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
            raise IndexRangeError(f"neighbor index {bad} out of range for {m} rows")
        if np.any(idx == np.arange(m)[:, None]):
            row = int(np.nonzero((idx == np.arange(m)[:, None]).any(axis=1))[0][0])
            raise ValueError(f"row {row} lists itself as a neighbor")
        srt = np.sort(idx, axis=1)
        if idx.shape[1] > 1 and np.any(srt[:, 1:] == srt[:, :-1]):
            row = int(np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0][0])
            raise ValueError(f"row {row} contains duplicate neighbor indices")
        idx.flags.writeable = False
        self._parent, self._ratio = idx, 1

    @classmethod
    def _built(cls, parent, ratio=1):  # parent: C-contiguous int64, valid by construction
        out = object.__new__(cls)
        parent.flags.writeable = False
        out._parent, out._ratio = parent, ratio
        return out

    @property
    def entries(self):
        if self.ratio == 1:
            return self.parent
        return np.repeat(self.parent * self.ratio, self.ratio, axis=0)

    @property
    def rows(self):
        return self.parent.shape[0] * self.ratio

    @property
    def k(self):
        return self.parent.shape[1]

    def __repr__(self):
        return f"IndexMatrix({self.rows} rows, k={self.k}, ratio={self.ratio})"


def integer_table(table, what):
    """The one integer-table rule: table as C-contiguous int64, nothing truncated. A
    non-empty table of another dtype raises ShapeError; an empty one keeps its caller's."""
    arr = np.asarray(table)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ShapeError(f"{what} must be an integer matrix, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


# ---------------------------------------------------------------------------
# K nearest neighbors


def as_rows(obj, what, width=None):
    """The float64 rows (N, C) of a PointCloud or an array, N >= 1 and C == width if given.

    Any other shape raises ShapeError naming `what`.
    """
    rows = obj.points if isinstance(obj, PointCloud) else np.asarray(obj, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1 or width not in (None, rows.shape[1]):
        raise ShapeError(f"{what} must be a non-empty (N, {width or 'C'}) array, got shape {rows.shape}")
    return rows


def _finite(rows, what):
    """The one finiteness rule: rows, or GradientError naming the first non-finite one of `what`."""
    if not np.isfinite(rows).all():  # the per-row test is ~25x slower: run it only to name the row
        raise GradientError(f"row {int(np.argmin(np.isfinite(rows).all(axis=1)))} of the {what} is not finite")
    return rows


def as_cloud(obj, what):
    """The one point-set boundary of the 3-D searches: obj as a PointCloud.

    A PointCloud passes through. An array goes through as_rows (ShapeError)
    and _finite (GradientError), both naming `what`, and becomes a PointCloud
    over a read-only view of its float64 rows: a float64 array is not
    copied, and the caller's array stays writeable.
    """
    if isinstance(obj, PointCloud):
        return obj
    view = _finite(as_rows(obj, what, 3), what).view()
    view.flags.writeable = False
    cloud = object.__new__(PointCloud)
    cloud._points, cloud._memo = view, {}
    return cloud


def _columns(rows):
    """The x, y and z columns of (N, 3) rows as one (3, N) array.

    Each column is contiguous. Rows are gathered from it with
    `np.take(cols, index, axis=1)`, several times faster than fancy indexing
    along axis 1.
    """
    return np.ascontiguousarray(rows.T)


def _sum_squares(columns):
    """x*x + y*y + z*z for the three arrays columns[0..2], added left to right.

    NumPy sums a length-3 axis in that order, so on the columns of a
    difference this is bit for bit `(diff * diff).sum(axis=-1)` on its rows,
    without an array-of-rows gather or a reduction over a short axis. The
    arrays are squared in place: pass a fresh one.
    """
    x, y, z = columns
    x *= x
    y *= y
    z *= z
    x += y
    x += z
    return x


def _in_range(arrays, names):
    """The (N, C) arrays, checked and scaled by one shared power of two: (arrays, e).

    Where the largest |x| of them all is not 0 and lies outside [1e-50, 1e50),
    each comes back times the 2^-e that brings that value into [0.5, 1), and a
    squared distance d2 between them is np.ldexp(d2, 2 e) at the input scale.
    Scaling is exact unless a value falls below the smallest normal float,
    and only values ~1e150 times below the largest then have squares that
    underflow.
    NaN and inf fail the range test too; only then are the rows looked at, and
    _finite names the first non-finite one and its array (only an oracle's can hold one).
    """
    top = np.max([np.abs(a).max(initial=0.0) for a in arrays])
    if 1.0 / _SCALE_LIMIT <= top < _SCALE_LIMIT or top == 0.0:
        return arrays, 0
    for a, name in zip(arrays, names):
        _finite(a, name)
    e = int(np.frexp(top)[1])
    return [np.ldexp(a, -e) for a in arrays], e


def _knn_input(data, k):
    """(M, C) float64 rows and k for a KNN search, checked and scaled by _in_range."""
    x = as_rows(data, "KNN input")
    m = x.shape[0]
    k = integer("k", k)
    if k >= m:
        raise ConfigError(f"KNN input has {m} points but k={k} needs more")
    (x,), _ = _in_range([x], ["KNN input"])
    return x, k


def _rank_pairs(rows, cand, d2, k):
    """The first k candidates of each row by (squared distance, index): R x k.

    (rows[i], cand[i]) is a candidate pair at squared distance d2[i]; rows
    are numbered 0 .. R - 1 and each has at least k pairs. The one exact
    re-rank of every search here.
    """
    order = np.lexsort((cand, d2, rows))
    counts = np.bincount(rows)
    return cand[order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]


def knn_bruteforce(cloud, k):
    """Exact KNN from the dense M x M x C difference tensor.

    The oracle for knn_accelerated and knn_features: only the tests and
    `puxp knncheck` call it, since it needs O(M^2 C) memory.
    """
    x, k = _knn_input(cloud, k)
    m = x.shape[0]
    diff = x[:, None, :] - x[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    cols = np.broadcast_to(np.arange(m), (m, m))
    order = np.lexsort((cols, d2), axis=-1)
    return IndexMatrix._built(np.ascontiguousarray(order[:, :k]))


def _ball_pairs(tree, points, radii):
    """(row, candidate) index pairs of a ball query, grouped by row in order."""
    lists = tree.query_ball_point(points, radii, return_sorted=False)
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    cand = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=int(counts.sum()))
    return np.repeat(np.arange(len(lists)), counts), cand


def _copy_groups(cols):
    """Copy groups of the rows whose (3, N) columns are cols: (order, first, copies).

    order is the stable sort of the rows by (x, y, z), bit for bit
    np.lexsort(cols[::-1]): one stable argsort of x, then a lexsort of only
    the rows whose x repeats, keyed by their sorted x, then y, then z. Group g
    of equal rows starts at order[first[g]] and holds copies[g] rows in index
    order.
    """
    order = np.argsort(cols[0], kind="stable")
    x = np.take(cols[0], order)
    same = x[1:] == x[:-1]
    tied = np.append(same, False)
    tied[1:] |= same  # every row of a run of equal x, in sorted order
    ties = order[tied]
    order[tied] = ties[np.lexsort(np.take(cols, ties, axis=1)[::-1])]
    first = np.flatnonzero(np.append(True, np.diff(np.take(cols, order, axis=1), axis=1).any(axis=0)))
    return order, first, np.append(first[1:], order.size) - first


class _Searched:
    """What _nearest reads of (D, 3) rows: their columns `cols`, their copy
    groups `groups` and, built at its first read, the kd-tree `tree`.

    The tree holds one row per copy group: cKDTree cannot split identical
    rows, so over N copies each query scanned a leaf of N. A set that is
    only queried reads its columns and groups alone, and builds no tree.
    """

    def __init__(self, rows):
        self.cols = _columns(rows)
        self.groups = _copy_groups(self.cols)

    @functools.cached_property
    def tree(self):
        order, first, _ = self.groups
        return cKDTree(np.take(self.cols, order[first], axis=1).T, leafsize=_LEAFSIZE)


def _queried(src, rows, e):
    """The distinct rows of the (S, 3) query rows of the PointCloud src at the
    _in_range exponent e: (rows, their columns, the copy groups of src's rows).

    src keeps its columns and groups as its _Searched, so a cloud that is
    both query and target of a pair of searches is grouped once.
    """
    searched = _kept(src, e, lambda: _Searched(rows))
    distinct = searched.groups[0][searched.groups[1]]
    return np.take(rows, distinct, axis=0), np.take(searched.cols, distinct, axis=1), searched.groups


def _per_row(values, groups):
    """One value per row from values[g] of each copy group g: every copy takes its group's value."""
    order, _, copies = groups
    out = np.empty((order.size, *values.shape[1:]), dtype=values.dtype)
    out[order] = np.repeat(values, copies, axis=0)
    return out


def _nearest(src, searched, n):
    """The indices of the n nearest rows of dst for each row of src, ranked: S x n.

    src is (S, 3) and searched is the _Searched of dst, dst (D, 3) with
    n <= D. The tree gives each row its n + 1 nearest distinct rows
    (infinitely far where missing). Where each is farther than the one before
    by more than the slack and the first n - 1 have one copy each, the first
    copies of the first n are the answer, in the tree's order. Every other
    row takes one fallback: a ball query out to the hit whose copies complete
    n rows, times the slack, then _rank_pairs over the first min(copies, n)
    copies of each distinct row in reach, the only ones that can rank.
    """
    cols, tree, (order, first, copies) = searched.cols, searched.tree, searched.groups
    dist, hits = tree.query(src, k=n + 1)
    # missing hits (index tree.n) come after the one that completes n rows; clipped, they change nothing
    c = np.take(copies, hits, mode="clip")
    idx = order[np.take(first, hits[:, :n], mode="clip")]
    rest = np.flatnonzero((dist[:, 1:] <= dist[:, :-1] * _RADIUS_SLACK).any(axis=1) | (c[:, :n - 1] > 1).any(axis=1))
    if rest.size:
        reach = np.argmax(np.cumsum(c[rest], axis=1) >= n, axis=1)
        rows, cand = _ball_pairs(tree, src[rest], dist[rest, reach] * _RADIUS_SLACK)
        take = np.minimum(copies[cand], n)
        cand = order[np.repeat(first[cand] - (np.cumsum(take) - take), take) + np.arange(take.sum())]
        rows = np.repeat(rows, take)
        pair_d2 = _sum_squares(np.take(cols, cand, axis=1) - np.take(_columns(src[rest]), rows, axis=1))
        idx[rest] = _rank_pairs(rows, cand, pair_d2, n)
    return idx


def knn_accelerated(cloud, k):
    """Exact KNN through the kd-tree search; agrees with knn_bruteforce on every input.

    A row's k + 1 nearest rows depend on its coordinates alone, so only the
    distinct rows the tree holds are searched, and each copy takes its
    group's list. Of a point's list, drop the point itself or, where k + 1
    copies of it with smaller indices come first, the last one.

    The cloud (as_cloud, "KNN input") keeps the table, one per k, and not
    the search's tree.
    """
    k = integer("k", k)  # before the lookup, where k=True would find the k = 1 table
    cloud = as_cloud(cloud, "KNN input")

    def search():
        pts, _ = _knn_input(cloud, k)
        searched = _Searched(pts)
        hits = _per_row(_nearest(searched.tree.data, searched, k + 1), searched.groups)
        other = hits != np.arange(pts.shape[0])[:, None]
        other[other.all(axis=1), k] = False
        return IndexMatrix._built(hits[other].reshape(-1, k))

    return _kept(cloud, ("knn", k), search)


def nearest_neighbors(src, dst):
    """Nearest row of dst for each row of src: (squared distances, indices).

    Bit for bit what the dense src x dst squared-distance matrix gives with
    `min` and `argmin` along dst: squared distances are `(diff * diff)`
    summed over the three coordinates, and ties go to the smaller index. Both
    sets pass as_cloud ("query points", "searched points"), and each keeps
    its _Searched for the next search. Each distinct row of src is
    searched once, and its copies take its result.
    """
    src, dst = as_cloud(src, "query points"), as_cloud(dst, "searched points")
    (rows, dst_rows), e = _in_range([src.points, dst.points], ["query points", "searched points"])
    searched = _kept(dst, e, lambda: _Searched(dst_rows))
    rows, cols, groups = _queried(src, rows, e)
    idx = _nearest(rows, searched, 1)[:, 0]
    d2 = _sum_squares(np.take(searched.cols, idx, axis=1) - cols)
    return _per_row(np.ldexp(d2, 2 * e), groups), _per_row(idx, groups)


# Rows per Gram block of knn_features: its memory is a few blocks of M floats.
_GRAM_ROWS = 64


def knn_features(features, k):
    """Exact KNN over M x C rows in blocks of rows: bit for bit knn_bruteforce.

    Candidate pass. For a block of rows a_i, one matmul with -2 x^T (exact:
    a power-of-two scale) and one add give G_ij = -2 a_i.a_j + |a_j|^2: the
    squared distance less c_i = |a_i|^2, which shifts all of row i alike and
    is never added. Let D_ij be the squared distance as the re-rank computes
    it, (diff * diff).sum(), and d = |a_i - a_j|^2 the exact one. With
    u = 2^-53, S = |a_i|^2 + |a_j|^2 and g_n = n u / (1 - n u), the standard
    rounding-error bounds give
      |D - d| <= g_(C+2) d <= 2 g_(C+2) S
        (a rounded difference and square per column, then C non-negative
        terms summed in any order; d <= 2 S);
      |G + c_i - d| <= (2 g_C + 2u (1 + g_C)) S
        (the norm |a_j|^2; twice the dot product in any BLAS order, with
        sum|a b| <= S/2; one add of terms summing to at most 2 (1 + g_C) S).
    So |G + c_i - D| <= g_(4C+6) S, and e_i = (4C + 16) u (|a_i|^2 +
    max_j |a_j|^2), from the computed norms, bounds it for every j. The
    10 u S to spare covers the rounding of the norms, of e_i and of
    t_i + 2 e_i below, and underflow: after the input scaling the largest
    |x| is 0 or at least 1e-50, so 10 u S > 1e-116 whenever S is not 0, far
    above C subnormal steps of 5e-324.

    Let t_i be the k-th smallest G_ij over j != i. Those k columns have
    D <= t_i + c_i + e_i, so the k-th smallest D is at most that, and every
    column of the answer has G <= t_i + 2 e_i.

    Certify or re-rank. Every column with G <= t_i + 2 e_i is a candidate,
    self left out: the flat indices of the block's mask, row-major, so each
    row lists its at least k candidates in ascending index order. Where
    every row has exactly k, they are its answer. Where every gap of a row's
    stable sort by G exceeds 2 e_i (a rounded gap above the float 2 e_i is
    an exact one above it, as rounding is monotone), D strictly increases
    along it: that is the (D, index) order. The other rows, with an exact
    tie or a gap lost to cancellation, take the pair path. So does every
    row of a block where some row has more than k candidates. The pair path
    computes D of a row's candidates as knn_bruteforce does, _PAIR_BATCH
    pairs at a time, and ranks them by _rank_pairs. Rows that tie
    everywhere, such as identical features, make every column a candidate:
    that costs time, not memory, which is two block x M buffers made once
    per call and one C x M copy of the rows: O(block M + M C).
    """
    x, k = _knn_input(features, k)
    m, c = x.shape
    sq = (x * x).sum(axis=1)
    bound = (4 * c + 16) * 2.0**-53 * (sq + sq.max())
    scaled = np.ascontiguousarray(-2.0 * x.T)
    gram_buf, kth_buf = np.empty((2, min(m, _GRAM_ROWS), m))
    out = np.empty((m, k), dtype=np.int64)
    for start in range(0, m, _GRAM_ROWS):
        block = slice(start, start + _GRAM_ROWS)
        part = x[block]
        local = np.arange(part.shape[0])
        gram, kth = gram_buf[: local.size], kth_buf[: local.size]
        np.matmul(part, scaled, out=gram)
        gram += sq
        gram[local, local + start] = np.inf  # never its own neighbor
        np.copyto(kth, gram)
        kth.partition(k - 1, axis=1)
        flat = np.flatnonzero(gram <= (kth[:, k - 1] + 2.0 * bound[block])[:, None])
        rows, cand = np.divmod(flat, m)
        ranked = local  # the block rows of the pair path, which rows numbers 0 .. ranked.size - 1
        if rows.size == k * local.size:  # exactly k candidates in every row
            cand = cand.reshape(-1, k)
            near = np.take(gram, flat).reshape(-1, k)
            order = np.argsort(near, axis=1, kind="stable") + np.arange(0, flat.size, k)[:, None]
            out[block] = np.take(cand, order)
            gaps = np.diff(np.take(near, order), axis=1)
            ranked = np.flatnonzero((gaps <= 2.0 * bound[block, None]).any(axis=1))
            if not ranked.size:
                continue
            rows, cand = np.repeat(np.arange(ranked.size), k), cand[ranked].ravel()
        d2 = np.empty(rows.size)
        for at in range(0, rows.size, _PAIR_BATCH):
            pairs = slice(at, at + _PAIR_BATCH)
            diff = x[ranked[rows[pairs]] + start] - x[cand[pairs]]
            d2[pairs] = (diff * diff).sum(axis=-1)
        out[start + ranked] = _rank_pairs(rows, cand, d2, k)
    return IndexMatrix._built(out)


def expand_index(idx, factor=2):
    """Neighbor table for a point set grown by a x`factor` feature expansion.

    Row i of the input describes point i; after expansion its r children
    sit at rows r*i .. r*i + r - 1, and the child representing old neighbor
    j sits at row r*j. Every child therefore copies row i with every entry
    multiplied by r, which keeps the original graph locality without
    recomputing KNN. Expanding by a then by b equals expanding by a*b.

    The result shares the parent table and multiplies the ratio by
    `factor`: O(1) work, no copy and no re-validation. It is valid by
    construction at any integer ratio r >= 1. Row r*i + s (s < r) lists
    r * parent[i]; those entries are in range (r j <= r (N - 1) < r N),
    distinct (j -> r j is injective) and never the row itself (r j = r i + s
    needs j = i, as s < r, and the parent never lists i). As IndexMatrix's
    own checks are skipped, the factor passes the integer rule here (else
    ConfigError), and idx must be an IndexMatrix (else ShapeError naming
    its type).
    """
    factor = integer("expansion factor", factor)
    if not isinstance(idx, IndexMatrix):
        raise ShapeError(f"expand_index: index must be an IndexMatrix, got {type(idx).__name__}")
    return IndexMatrix._built(idx.parent, factor * idx.ratio)


# ---------------------------------------------------------------------------
# point-to-triangle distance


def _dot3(u, v):
    # explicit component sums keep the arithmetic identical for any batch size
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _face_columns(tris):
    """The columns the triangle arithmetic reads, for tris[F, 3, 3].

    One (18, F) array: x, y and z of the vertices a, b and c, then of the
    edges ab = b - a, ac = c - a and bc = c - b. Edges are computed once per
    face, with the same bits as per (point, face) pair.
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    return _columns(np.hstack([a, b, c, b - a, c - a, c - b]))


def _squared_distances(p, face):
    """Squared distance from each point p[:, i] to the closed triangle face[:, i].

    p is (3, P) columns and face is (18, P) columns of _face_columns, or
    (18, 1) for one triangle. Every step is elementwise, so a (point,
    triangle) pair gets the same bits whatever else is in the batch. Region
    tests follow the classic barycentric case analysis (vertex, edge,
    interior), checked in a fixed order so results are deterministic.
    """
    a, b, c, ab, ac, bc = face[0:3], face[3:6], face[6:9], face[9:12], face[12:15], face[15:18]
    ap = p - a
    d1 = _dot3(ap, ab)
    d2 = _dot3(ap, ac)
    bp = p - b
    d3 = _dot3(bp, ab)
    d4 = _dot3(bp, ac)
    cp = p - c
    d5 = _dot3(cp, ab)
    d6 = _dot3(cp, ac)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = va + vb + vc
        v_in = vb / denom
        w_in = vc / denom
        closest = a + ab * v_in + ac * w_in

        # Overwrite in reverse priority so the first matching region wins.
        m = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        np.copyto(closest, b + bc * w, where=m)

        m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
        w = d2 / (d2 - d6)
        np.copyto(closest, a + ac * w, where=m)

        m = (d6 >= 0) & (d5 <= d6)
        np.copyto(closest, c, where=m)

        m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
        v = d1 / (d1 - d3)
        np.copyto(closest, a + ab * v, where=m)

        m = (d3 >= 0) & (d4 <= d3)
        np.copyto(closest, b, where=m)
        m = (d1 <= 0) & (d2 <= 0)
        np.copyto(closest, a, where=m)
    return _sum_squares(p - closest)


def _degenerate_faces(tris):
    """The one degeneracy rule: a mask of the (near-)zero-area faces of tris[F, 3, 3].

    A face is degenerate where |ab x ac|^2 <= 1e-28 |ab|^2 |ac|^2, or the span
    is 0. Each squared norm is an explicit left-to-right sum (_dot3), never a
    BLAS dot, whose order and fused multiply-adds depend on the CPU kernel,
    so a face at the boundary gets the same verdict on every machine.
    """
    ab = (tris[:, 1] - tris[:, 0]).T
    ac = (tris[:, 2] - tris[:, 0]).T
    cross = np.cross(ab, ac, axis=0)
    span = _dot3(ab, ab) * _dot3(ac, ac)
    return (_dot3(cross, cross) <= 1e-28 * span) | (span == 0.0)


def _zero_area(tri):
    return DegenerateTriangleError(f"triangle has (near-)zero area: {tri.tolist()}")


def squared_distances_to_triangle(points, tri):
    """Squared distance from each of points[P, 3] to the closed triangle."""
    tri = np.asarray(tri, dtype=np.float64)
    if tri.shape != (3, 3):
        raise ShapeError(f"triangle must have shape (3, 3), got {tri.shape}")
    pts = as_rows(points, "query points", 3)
    (pts, face), e = _in_range([pts, tri], ["query points", "triangle"])
    if _degenerate_faces(face[None])[0]:
        raise _zero_area(tri)
    return np.ldexp(_squared_distances(_columns(pts), _face_columns(face[None])), 2 * e)


def point_triangle_distance(p, tri):
    """Euclidean distance from a 3D point, shape (3,), to the closed triangle (3x3 vertices)."""
    d2 = squared_distances_to_triangle([p], tri)
    return float(np.sqrt(d2[0]))


def _box_levels(boxes):
    """Box hierarchy over face boxes (6, F), lo then hi: (Morton order of the faces, levels).

    The last level is the face boxes sorted by the 30-bit Morton code of
    their centres and padded with empty boxes (lo inf, hi -inf) to a power
    of two. Node i of each level above is the min/max of nodes 2i and 2i + 1
    below it, up to one root; levels come root first.
    """
    centre = boxes[:3] + boxes[3:]
    low, span = centre.min(axis=1, keepdims=True), np.ptp(centre, axis=1, keepdims=True)
    grid = ((centre - low) / np.where(span > 0.0, span, 1.0) * 1023.0).astype(np.int64)
    code = sum(((grid[axis] >> bit) & 1) << (3 * bit + axis) for bit in range(10) for axis in range(3))
    order = np.argsort(code, kind="stable")
    levels = [np.full((6, 1 << (order.size - 1).bit_length()), np.inf)]
    levels[0][3:] = -np.inf
    levels[0][:, : order.size] = boxes[:, order]
    while levels[-1].shape[1] > 1:
        lo, hi = levels[-1][:3], levels[-1][3:]
        levels.append(np.vstack([np.minimum(lo[:, 0::2], lo[:, 1::2]), np.maximum(hi[:, 0::2], hi[:, 1::2])]))
    return order, levels[::-1]


def _mesh_index(verts, faces):
    """What squared_distances_to_mesh keeps of a mesh at one scale: (first degenerate
    face, None), or (None, (face columns, largest |x| of a face, centroid tree, order, levels))."""
    tris = verts[faces]
    bad = np.flatnonzero(_degenerate_faces(tris))
    if bad.size:
        return int(bad[0]), None
    boxes = _columns(np.hstack([tris.min(axis=1), tris.max(axis=1)]))
    centroids = cKDTree(tris.mean(axis=1), leafsize=_LEAFSIZE)
    return None, (_face_columns(tris), float(np.abs(tris).max()), centroids, *_box_levels(boxes))


def squared_distances_to_mesh(points, mesh):
    """Per-point squared distance to the nearest face of the mesh.

    Bit for bit the minimum of squared_distances_to_triangle over all faces,
    but each point visits only the faces that could hold that minimum. The
    face with the nearest centroid gives an upper bound u on the distance,
    widened by a relative 1e-9 plus 1e-9 of the coordinate scale, far above
    the rounding of the distance arithmetic. The points walk down the box
    hierarchy as flat (point, node) pairs, at most _PAIR_BATCH at a time: a
    pair whose node box lies farther than u is dropped, a kept one goes on
    to the node's two children, and the faces left at the last level get the
    exact distance. A node box holds its faces' boxes and rounded
    subtraction is monotone, so no face whose own box lies within u is
    dropped on the way. Each distinct point walks once; its copies take its
    distance. The points pass as_cloud ("query points").
    """
    if mesh.face_count < 1:
        raise ValueError("mesh has no faces")
    points = as_cloud(points, "query points")
    (pts, verts), e = _in_range([points.points, mesh.vertices], ["query points", "mesh vertices"])
    bad, index = _kept(mesh, e, lambda: _mesh_index(verts, mesh.faces))
    if index is None:
        raise _zero_area(mesh.triangle(bad))
    faces, top, centroids, order, levels = index
    pts, cols, groups = _queried(points, pts, e)
    best = _squared_distances(cols, np.take(faces, centroids.query(pts, k=1)[1], axis=1))
    limit = (np.sqrt(best) * _RADIUS_SLACK + 1e-9 * max(float(np.abs(pts).max(initial=0.0)), top)) ** 2
    work = [(0, np.arange(pts.shape[0]), np.zeros(pts.shape[0], dtype=np.int64))]
    while work:
        depth, rows, node = work.pop()
        if rows.size > _PAIR_BATCH:  # no temporary outgrows a batch of pairs
            cuts = range(_PAIR_BATCH, rows.size, _PAIR_BATCH)
            work += [(depth, r, n) for r, n in zip(np.split(rows, cuts), np.split(node, cuts))]
            continue
        p, box = np.take(cols, rows, axis=1), np.take(levels[depth], node, axis=1)
        lo, hi = box[:3], box[3:]  # squared distance to the box: max(lo - p, p - hi, 0) per axis
        lo -= p
        np.maximum(lo, np.subtract(p, hi, out=hi), out=lo)
        keep = _sum_squares(np.maximum(lo, 0.0, out=lo)) <= limit[rows]
        rows, node = rows[keep], node[keep]
        if depth + 1 < len(levels):
            node = np.repeat(2 * node, 2)
            node[1::2] += 1
            work.append((depth + 1, np.repeat(rows, 2), node))
        else:
            face = np.take(faces, order[node], axis=1)
            np.minimum.at(best, rows, _squared_distances(np.compress(keep, p, axis=1), face))
    return _per_row(np.ldexp(best, 2 * e), groups)
