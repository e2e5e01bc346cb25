"""Property suites behind the gradcheck/knncheck commands.

Each suite returns CheckResult records so callers (CLI, tests) can decide
how to report. The gradient suite compares tape gradients against central
finite differences, the independent oracle for every differentiable path.

Every many-case check of `puxp knncheck` goes through `_agreement`: a case
generator yields `(ok, payload)` per case, the payload being the case's
inputs and its trial or variant; the check reports "{failures} {noun} out
of {cases}" and keeps the first failing payload for replay.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tape, Tensor
from .geometry import (
    PointCloud,
    TriangleMesh,
    expand_index,
    knn_accelerated,
    knn_bruteforce,
    knn_features,
    nearest_neighbors,
    squared_distances_to_mesh,
    squared_distances_to_triangle,
)

GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7
# A kink (ReLU, max over k, a nearest-neighbour switch) within h of the point
# spoils a central difference, so h shrinks before an entry counts as wrong.
FD_STEPS = (1e-6, 1e-7, 1e-8)


@dataclasses.dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    payload: dict | None = None  # failing case, for replay


def _agreement(name, cases, noun):
    """One check over (ok, payload) cases: count the failures, keep the first one's payload."""
    total, bad = 0, []
    for total, (ok, payload) in enumerate(cases, 1):
        if not ok:
            bad.append(payload)
    return CheckResult(name, not bad, f"{len(bad)} {noun} out of {total}", bad[0] if bad else None)


def _runtime(name, start):
    """A whole suite must finish within 30 s of `start`."""
    elapsed = time.perf_counter() - start
    return CheckResult(name, elapsed < 30.0, f"{elapsed:.2f}s")


def finite_difference_gradient(f, x, step=FD_STEPS[0], entries=None):
    """Central-difference gradient of scalar f at array x with the given step,
    at the flat entries listed (all by default; the others stay 0)."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size) if entries is None else entries:
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f(x)
        flat[i] = orig - step
        f_minus = f(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def check_gradient(name, build_loss, x):
    """Compare the tape gradient of build_loss (Tensor -> scalar Tensor) at
    array x with its finite-difference estimate. An entry fails only if it
    disagrees at every step of FD_STEPS; each step retries only the entries
    that disagreed at the one before."""
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        tape.backward(build_loss(xt))
    analytic = (np.zeros_like(xt.data) if xt.grad is None else xt.grad).reshape(-1)

    def loss(a):
        return build_loss(Tensor(a)).item()

    bad = np.arange(analytic.size)
    least = np.full(analytic.size, np.inf)  # each entry's smallest error over the steps tried
    for step in FD_STEPS:
        estimate = finite_difference_gradient(loss, x, step, bad).reshape(-1)[bad]
        least[bad] = np.minimum(least[bad], np.abs(analytic[bad] - estimate))
        bad = bad[~np.isclose(analytic[bad], estimate, rtol=GRAD_RTOL, atol=GRAD_ATOL)]
        if not bad.size:
            return CheckResult(name, True)
    return CheckResult(name, False, f"max abs gradient error {least[bad].max():.3e}", payload={"input": x})


# ---------------------------------------------------------------------------
# gradient suite: core ops


def _op_cases(seed):
    rng = np.random.default_rng(seed)

    def case_matmul():
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        yield "matmul/left", lambda t: ad.sum_all(ad.matmul(t, Tensor(b))), a
        yield "matmul/right", lambda t: ad.sum_all(ad.matmul(Tensor(a), t)), b

    def case_relu():
        # keep inputs away from the kink so finite differences are clean
        x = rng.normal(size=(4, 3))
        x[np.abs(x) < 1e-2] = 0.5
        w = rng.normal(size=(3, 3))
        yield "relu", lambda t: ad.sum_all(ad.matmul(ad.relu(t), Tensor(w))), x

    def case_elementwise():
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 1))
        yield "add", lambda t: ad.sum_all(ad.matmul(ad.add(t, Tensor(b)), Tensor(w))), a
        yield "scale", lambda t: ad.sum_all(ad.scale(t, -1.7)), a
        bias = rng.normal(size=4)
        yield "add_bias/x", lambda t: ad.sum_all(ad.add_bias(t, Tensor(bias))), a
        yield "add_bias/bias", lambda t: ad.sum_all(ad.add_bias(Tensor(a), t)), bias

    def case_concat():
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 2))
        yield "concat_last/left", lambda t: ad.sum_all(ad.matmul(ad.concat_last(t, Tensor(b)), Tensor(w))), a
        yield "concat_last/right", lambda t: ad.sum_all(ad.matmul(ad.concat_last(Tensor(a), t), Tensor(w))), b

    def case_edge_conv():
        base = np.array([[1, 2, 3], [0, 3, 5], [4, 0, 1], [2, 1, 5], [0, 1, 3], [4, 2, 0]])
        # the graph itself, then doubled twice: the 4 children of a point
        # share one neighbour max, and their gradients meet on its winner;
        # then 16 neighbours per row, so winners run up to k = 15
        ring = (np.arange(20)[:, None] + np.arange(1, 17)) % 20
        graphs = (("", base, 6), ("expanded/", expand_index(expand_index(base)), 24), ("k16/", ring, 20))
        for graph, idx, m in graphs:
            args = {"x": rng.normal(size=(m, 3)), "w": rng.normal(size=(6, 4)), "b": rng.normal(size=4)}
            v = Tensor(rng.normal(size=(4, 1)))  # uneven upstream gradient per channel
            p = Tensor(rng.uniform(0.5, 2.0, size=(1, m)))  # and per row, so children differ
            for activate, tag in ((True, "relu"), (False, "linear")):
                for name in args:
                    def loss(t, name=name, activate=activate, idx=idx, args=args, v=v, p=p):
                        xt, wt, bt = (t if n == name else Tensor(a) for n, a in args.items())
                        return ad.sum_all(ad.matmul(p, ad.matmul(ad.edge_conv(xt, idx, wt, bt, activate), v)))

                    yield f"edge_conv/{graph}{tag}/{name}", loss, args[name]

    def case_shapes():
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 3))
        yield "reshape", lambda t: ad.sum_all(ad.matmul(ad.reshape(t, (6, 2)), Tensor(w))), x
        yield "shuffle_expand", lambda t: ad.sum_all(ad.matmul(ad.shuffle_expand(t, 2), Tensor(w))), x

    def case_chamfer():
        from .losses import chamfer_loss

        pred = rng.normal(size=(4, 3))
        gt = rng.normal(size=(7, 3))
        yield "chamfer_loss", lambda t: chamfer_loss(t, gt), pred

    def case_sum_all():
        yield "sum_all", ad.sum_all, rng.normal(size=(3, 4))

    for group in (
        case_matmul,
        case_relu,
        case_elementwise,
        case_concat,
        case_shapes,
        case_chamfer,
        case_edge_conv,
        case_sum_all,
    ):
        yield from group()


def run_op_gradient_checks(seed=7):
    return [check_gradient(f"op/{name}", fn, x) for name, fn, x in _op_cases(seed)]


def run_unit_gradient_checks(seed=11):
    """Finite-difference check of d sum(output) / d features for all units,
    at r = 2 and then at r = 6, whose rounds grow by 2 and then by 3."""
    from .units import ExpansionContext, ExpansionSpec, UNIT_KINDS, build_unit

    rng = np.random.default_rng(seed)
    n, c, k = 6, 4, 3
    cloud = PointCloud(rng.normal(size=(n, 3)))
    base = knn_bruteforce(cloud, k)
    feats = np.abs(rng.normal(size=(n, c))) + 0.1
    results = []
    for ratio, suffix in ((2, ""), (6, "/r6")):
        for kind in UNIT_KINDS:
            spec = ExpansionSpec(kind=kind, ratio=ratio, channels=c, k=k)
            unit = build_unit(ParameterStore(), spec, np.random.default_rng(seed + 1))

            def loss(t, unit=unit):
                out = unit.expand(ExpansionContext(cloud, base, t))
                return ad.sum_all(out.features)

            results.append(check_gradient(f"unit/{kind}{suffix}", loss, feats))
    return results


def run_gradient_checks(seed=7):
    start = time.perf_counter()
    results = run_op_gradient_checks(seed) + run_unit_gradient_checks(seed + 4)
    return results + [_runtime("gradient-suite-runtime", start)]


# ---------------------------------------------------------------------------
# KNN oracle suite


def _knn_agrees(points, k):
    return np.array_equal(knn_accelerated(points, k).entries, knn_bruteforce(points, k).entries)


def run_knn_checks(clouds=200, seed=2024):
    """kd-tree path must equal the brute-force oracle on seeded random clouds;
    the mesh search must equal a loop over every face."""
    rngs = [np.random.default_rng(seed + i) for i in range(6)]
    rng, feature_rng, nearest_rng, duplicate_rng, mesh_rng, collapsed_rng = rngs
    start = time.perf_counter()
    results = [_agreement("knn/oracle-agreement", _cloud_cases(rng, clouds), "mismatching clouds")]
    results[0].detail += f" ({time.perf_counter() - start:.2f}s)"
    results += [
        _agreement("knn/feature-oracle-agreement", _feature_cases(feature_rng), "mismatching feature matrices"),
        _agreement("knn/duplicate-oracle-agreement", _duplicate_cases(duplicate_rng), "mismatching (cloud, k) pairs"),
    ]
    # outlier and grid shapes exercise pruning and tie-heavy rows
    cluster = np.vstack([rng.normal(scale=0.01, size=(40, 3)), [[100.0, 100.0, 100.0]]])
    g = np.arange(4, dtype=np.float64)
    grid = np.array([[x, y, z] for x in g for y in g for z in g])
    return results + [
        CheckResult("knn/outlier-cluster", _knn_agrees(cluster, 5)),
        CheckResult("knn/grid-ties", _knn_agrees(grid, 8)),
        _agreement("nearest/oracle-agreement", _nearest_cases(nearest_rng), "mismatching cloud pairs"),
        _agreement("nearest/collapsed-target", _collapsed_cases(collapsed_rng), "mismatching collapsed clouds"),
        _agreement("p2f/oracle-agreement", _mesh_cases(mesh_rng), "mismatching meshes"),
        _runtime("knn-suite-runtime", start),  # last, so it spans every check above
    ]


def _cloud_cases(rng, clouds):
    """Random clouds of 20-512 points; every fifth is snapped to a 0.5 grid,
    which forces exact distance ties."""
    for trial in range(clouds):
        n = int(rng.integers(20, 513))
        k = int(rng.choice((4, 8, 16)))
        pts = rng.normal(size=(n, 3))
        if trial % 5 == 0:
            snapped = np.unique(np.round(pts * 2.0) / 2.0, axis=0)
            if snapped.shape[0] > k:
                pts = snapped
        yield _knn_agrees(pts, k), {"points": pts, "k": k, "trial": trial}


def _duplicate_cases(rng):
    """knn_accelerated must equal the dense oracle on clouds of repeated rows:
    a few points with many copies each, and copies of a 0.5 grid, with k both
    inside and beyond a group of copies."""
    for trial in range(20):
        if trial % 2 == 0:
            rows = rng.normal(size=(int(rng.integers(2, 9)), 3))
            copies = int(rng.integers(20, 60))
        else:
            rows = np.unique(np.round(rng.normal(size=(60, 3)) * 2.0) / 2.0, axis=0)
            copies = int(rng.integers(2, 6))
        pts = rows[rng.permutation(np.arange(len(rows) * copies) % len(rows))]
        for k in (max(1, copies // 2), min(2 * copies, len(pts) - 1)):
            yield _knn_agrees(pts, k), {"points": pts, "k": k, "trial": trial}


def _nearest_cases(rng):
    """nearest_neighbors (cross-set, k = 1) must give the dense src x dst
    matrix's `min` and `argmin`, bit for bit, in both directions. The sets
    scaled by 2^s must give the same argmins and the mins times 2^2s, also at
    2^+-600, where the squares of the scaled coordinates over- or underflow."""
    variants = ("random", "duplicated-target", "grid-0.5") * 10 + ("2^600", "2^-600", "2^300", "2^-300") * 2
    for variant in variants:
        src = rng.normal(size=(int(rng.integers(1, 300)), 3))
        dst = rng.normal(size=(int(rng.integers(1, 300)), 3))
        if variant == "duplicated-target":
            dst = dst[rng.integers(0, max(1, dst.shape[0] // 8), size=dst.shape[0])]  # few rows, many copies
        elif variant == "grid-0.5":
            src, dst = np.round(src * 2.0) / 2.0, np.round(dst * 2.0) / 2.0  # exact distance ties
        shift = int(variant[2:]) if variant.startswith("2^") else 0
        diff = src[:, None, :] - dst[None, :, :]
        dense = (diff * diff).sum(axis=-1)
        src, dst = np.ldexp(src, shift), np.ldexp(dst, shift)
        with np.errstate(over="ignore"):  # squared distances of 2^1200
            d2, idx = nearest_neighbors(src, dst)
            back_d2, back_idx = nearest_neighbors(dst, src)
            fwd, bwd = np.ldexp(dense.min(axis=1), 2 * shift), np.ldexp(dense.min(axis=0), 2 * shift)
        ok = (
            np.array_equal(d2, fwd)
            and np.array_equal(idx, dense.argmin(axis=1))
            and np.array_equal(back_d2, bwd)
            and np.array_equal(back_idx, dense.argmin(axis=0))
        )
        yield ok, {"src": src, "dst": dst, "variant": variant}


def _collapsed_cases(rng):
    """A searched cloud of 1-3 distinct rows with 100-200 copies each, as an
    untrained or diverged model predicts: nearest_neighbors in both directions
    against a random cloud must give the dense matrix's `min` and `argmin`, and
    knn_accelerated on the copies the dense oracle's table, with k inside and
    beyond a group of copies."""
    for trial in range(6):
        rows = rng.normal(size=(int(rng.integers(1, 4)), 3))
        copies = int(rng.integers(100, 201))
        dst = rows[rng.permutation(np.arange(len(rows) * copies) % len(rows))]
        src = rng.normal(size=(int(rng.integers(1, 300)), 3))
        diff = src[:, None, :] - dst[None, :, :]
        dense = (diff * diff).sum(axis=-1)
        (d2, idx), (back_d2, back_idx) = nearest_neighbors(src, dst), nearest_neighbors(dst, src)
        ok = (
            np.array_equal(d2, dense.min(axis=1))
            and np.array_equal(idx, dense.argmin(axis=1))
            and np.array_equal(back_d2, dense.min(axis=0))
            and np.array_equal(back_idx, dense.argmin(axis=0))
            and all(_knn_agrees(dst, k) for k in (16, min(copies + 8, len(dst) - 1)))
        )
        yield ok, {"src": src, "dst": dst, "trial": trial}


def _mesh_cases(rng):
    """squared_distances_to_mesh must equal the minimum of squared_distances_to_triangle
    over every face, bit for bit: on random triangle soups of 1-70 faces, on
    rings of faces 2 long and at most 0.02 wide (a thin cylinder), and on
    both scaled by 2^+-300. Each mesh is searched twice, so the second search runs
    on the index the first one kept."""
    for variant in ("random", "sliver", "random-2^300", "sliver-2^-300") * 5:
        if variant.startswith("random"):
            faces = np.arange(3 * int(rng.integers(1, 71))).reshape(-1, 3)
            verts = rng.normal(size=(faces.size, 3))
            pts = rng.normal(scale=1.5, size=(int(rng.integers(1, 200)), 3))
        else:
            ring = int(rng.integers(3, 40))
            angle = 2.0 * np.pi * np.arange(ring) / ring
            circle = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(ring)]) * 0.01
            verts = np.vstack([circle - [0.0, 0.0, 1.0], circle + [0.0, 0.0, 1.0]])
            i, j = np.arange(ring), (np.arange(ring) + 1) % ring
            faces = np.vstack([np.column_stack([i, j, i + ring]), np.column_stack([j, j + ring, i + ring])])
            pts = rng.normal(scale=[0.03, 0.03, 1.2], size=(int(rng.integers(1, 200)), 3))
        shift = int(variant.rsplit("^", 1)[1]) if "^" in variant else 0
        verts, pts = np.ldexp(verts, shift), np.ldexp(pts, shift)
        mesh = TriangleMesh(verts, faces)
        want = np.full(pts.shape[0], np.inf)
        for f in range(mesh.face_count):
            np.minimum(want, squared_distances_to_triangle(pts, mesh.triangle(f)), out=want)
        ok = all(np.array_equal(squared_distances_to_mesh(pts, mesh), want) for _ in range(2))
        yield ok, {"points": pts, "vertices": verts, "faces": faces, "variant": variant}


def _feature_cases(rng):
    """knn_features must equal the dense oracle on C=32 features that span
    several of its row blocks, built to stress each step of its bound."""
    for variant in ("duplicated-rows", "rounded-ties", "offset-1e3", "k=M-1") * 3:
        m = int(rng.integers(130, 300))
        feats = rng.normal(size=(m, 32))
        k = int(rng.choice((4, 8, 16)))
        if variant == "duplicated-rows":
            feats[m // 2 :] = feats[: m - m // 2]
        elif variant == "rounded-ties":
            feats = np.round(0.3 * feats, 1)  # few values per column: exact distance ties
        elif variant == "offset-1e3":
            feats += 1e3  # norms ~3e7 against distances ~64: the Gram form cancels ~6 digits
        else:
            k = m - 1
        ok = np.array_equal(knn_features(feats, k).entries, knn_bruteforce(feats, k).entries)
        yield ok, {"features": feats, "k": k, "variant": variant}


def _graph_cases(rng, laws):
    """`laws` on the brute-force KNN graphs of 100 random clouds of 6-63 points."""
    for trial in range(100):
        n = int(rng.integers(6, 64))
        k = int(rng.integers(1, min(n - 1, 12) + 1))
        idx = knn_bruteforce(PointCloud(rng.normal(size=(n, 3))), k)
        yield laws(idx), {"entries": idx.entries, "trial": trial}


def _expansion_laws(idx, r):
    """Row r*i + s of the expanded table lists r * parent[i], from the shared parent."""
    big = expand_index(idx, r)
    return (
        big.rows == r * idx.rows
        and big.k == idx.k
        and big.parent is idx.parent
        and np.all(big.entries % r == 0)
        and big.entries.max() < r * idx.rows
        and all(np.array_equal(big.entries[s::r], idx.entries * r) for s in range(r))
    )


def _any_ratio_laws(idx):
    composed, direct = expand_index(expand_index(idx, 3), 2), expand_index(idx, 6)
    return (
        _expansion_laws(idx, 3)
        and _expansion_laws(idx, 5)
        and composed.ratio == direct.ratio == 6
        and np.array_equal(composed.entries, direct.entries)
    )


def run_index_expansion_checks(seed=5):
    """Structural laws of index expansion on seeded random graphs: the doubling
    rule, then factors 3 and 5 and their composition (3 then 2 is 6)."""
    doubling = _graph_cases(np.random.default_rng(seed), lambda idx: _expansion_laws(idx, 2))
    any_ratio = _graph_cases(np.random.default_rng(seed + 1), _any_ratio_laws)
    return [
        _agreement("index-expansion/laws", doubling, "failing graphs"),
        _agreement("index-expansion/any-ratio-laws", any_ratio, "failing graphs"),
    ]
