"""Release acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS line (run with -s to see them live). Budgets are desk scale:
the whole module runs in a few minutes on one core.
"""

import time

import numpy as np
import pytest

from puxp.checks import (
    run_gradient_checks,
    run_index_expansion_checks,
    run_knn_checks,
)
from puxp.autodiff import ParameterStore, Tensor
from puxp.cli import main as cli_main
from puxp.geometry import PointCloud, TriangleMesh, knn_bruteforce, point_triangle_distance
from puxp.metrics import chamfer, hausdorff, point_to_face
from puxp.pipeline import BackboneSpec, TrainConfig, compare_units, make_dataset, train
from puxp.units import (
    GRAPH_KINDS,
    UNIT_KINDS,
    ExpansionContext,
    ExpansionSpec,
    build_unit,
)

from csv_reader import read_csv_rows


def _ok(results):
    bad = [r for r in results if not r.ok]
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)


def _toy_config(kind, steps, seed=1, points=64, k=8, channels=16, lr=0.001, shapes=("sphere",)):
    unit = ExpansionSpec(kind=kind, ratio=4, channels=channels, k=k)
    return TrainConfig(
        unit=unit,
        backbone=BackboneSpec("edgeconv_stack", 2, channels),
        k=k,
        steps=steps,
        lr=lr,
        seed=seed,
        shapes=shapes,
        points=points,
        data_seed=100,
    )


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    results = run_gradient_checks(seed=7)
    elapsed = time.perf_counter() - start
    _ok(results)
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: gradient suite, ops + all 7 units ({elapsed:.1f}s)")


def test_criterion_02_knn_oracle_agreement():
    start = time.perf_counter()
    results = run_knn_checks(clouds=200, seed=2024)
    elapsed = time.perf_counter() - start
    _ok(results)
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: kd-tree KNN == brute force on 200 clouds ({elapsed:.1f}s)")


def test_criterion_03_index_expansion_laws():
    results = run_index_expansion_checks(seed=5)
    _ok(results)
    print("\nPASS criterion 3: index-expansion laws on 100 graphs")


RATIOS = pytest.mark.parametrize("r", [2, 3, 6, 12])  # every unit grows at every integer ratio


@RATIOS
def test_criterion_04_permutation_equivariance(r):
    n, c, k = 8, 4, 3
    worst = 0.0
    for kind in UNIT_KINDS:
        spec = ExpansionSpec(kind=kind, ratio=r, channels=c, k=k)
        unit = build_unit(ParameterStore(), spec, np.random.default_rng(11))
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            pts = rng.normal(size=(n, 3))
            feats = rng.normal(size=(n, c))
            perm = rng.permutation(n)
            out = unit.expand(
                ExpansionContext(PointCloud(pts), knn_bruteforce(PointCloud(pts), k), Tensor(feats))
            ).features.data
            out_p = unit.expand(
                ExpansionContext(
                    PointCloud(pts[perm]), knn_bruteforce(PointCloud(pts[perm]), k), Tensor(feats[perm])
                )
            ).features.data
            diff = np.max(np.abs(out_p.reshape(n, r, -1) - out.reshape(n, r, -1)[perm]))
            worst = max(worst, float(diff))
            assert diff <= 1e-9, f"{kind} trial {trial}: block deviation {diff:.3e}"
    print(f"\nPASS criterion 4: block equivariance at r={r}, 7 units x 50 pairs (worst {worst:.1e})")


@RATIOS
def test_criterion_05_isolation_dichotomy(r):
    n, c, k = 16, 8, 4
    rng = np.random.default_rng(33)
    cloud = PointCloud(rng.normal(size=(n, 3)))
    base = knn_bruteforce(cloud, k)
    feats = rng.normal(size=(n, c))
    j = int(base.entries[0, 0])  # guaranteed to be someone's neighbor
    bumped = feats.copy()
    bumped[j] += 1e-2
    isolated, coupled = [], []
    for kind in UNIT_KINDS:
        spec = ExpansionSpec(kind=kind, ratio=r, channels=c, k=k)
        unit = build_unit(ParameterStore(), spec, np.random.default_rng(5))
        out0 = unit.expand(ExpansionContext(cloud, base, Tensor(feats))).features.data
        out1 = unit.expand(ExpansionContext(cloud, base, Tensor(bumped))).features.data
        others = np.ones(out0.shape[0], dtype=bool)
        others[r * j : r * j + r] = False
        if kind in GRAPH_KINDS:
            assert not np.array_equal(out0[others], out1[others]), f"{kind}: no neighbor reacted"
            changed_parents = set(np.nonzero((out0 != out1).any(axis=1))[0] // r)
            assert changed_parents & set(np.nonzero((base.entries == j).any(axis=1))[0]), (
                f"{kind}: no point with {j} in its neighborhood changed"
            )
            coupled.append(kind)
        else:
            assert np.array_equal(out0[others], out1[others]), f"{kind}: isolation broken"
            assert not np.array_equal(out0[~others], out1[~others]), f"{kind}: dead unit"
            isolated.append(kind)
    assert set(coupled) == set(GRAPH_KINDS)
    print(f"\nPASS criterion 5 at r={r}: isolation for {isolated}, coupling for {coupled}")


def test_criterion_06_metric_goldens():
    assert abs(chamfer([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]]) - 50.0) <= 1e-12
    assert abs(hausdorff([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]]) - 5.0) <= 1e-12
    tri_mesh = TriangleMesh([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])
    assert abs(point_to_face([[0.0, 0.0, 1.0]], tri_mesh) - 1.0) <= 1e-12

    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(11, 3)), rng.normal(size=(7, 3))
    brute_fwd = np.array([min(((p - q) ** 2).sum() for q in b) for p in a])
    brute_bwd = np.array([min(((q - p) ** 2).sum() for p in a) for q in b])
    assert chamfer(a, b) == brute_fwd.mean() + brute_bwd.mean()
    assert hausdorff(a, b) == max(np.sqrt(brute_fwd).max(), np.sqrt(brute_bwd).max())
    mesh = TriangleMesh(rng.normal(size=(9, 3)), [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    brute_p2f = np.array(
        [min(point_triangle_distance(p, mesh.triangle(f)) for f in range(3)) for p in a]
    ).mean()
    assert point_to_face(a, mesh) == brute_p2f
    print("\nPASS criterion 6: metric goldens (50, 5, 1.0) and exact oracle agreement")


def test_criterion_07_overfit_every_unit():
    start = time.perf_counter()
    ratios = {}
    for kind in UNIT_KINDS:
        cfg = _toy_config(kind, steps=500, seed=1)
        dataset = make_dataset(cfg)
        assert len(dataset) == 1  # one fixed patch
        result = train(cfg, dataset)
        first, last = result.losses[0], result.losses[-1]
        ratios[kind] = last / first
        assert last < 0.1 * first, f"{kind}: CD only reached {last / first:.1%} of initial"
        assert np.mean(result.losses[-100:]) < np.mean(result.losses[:100])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    summary = ", ".join(f"{k}={v:.1%}" for k, v in ratios.items())
    print(f"\nPASS criterion 7: overfit to <10% initial CD ({elapsed:.0f}s; {summary})")


def test_criterion_08_trend_proedgeshuffle_vs_branch():
    shapes = ("sphere", "torus", "cylinder", "box_surface")

    def run(seeds):
        configs = [
            _toy_config("branch", steps=200, shapes=shapes),
            _toy_config("proedgeshuffle", steps=200, shapes=shapes),
        ]
        table = compare_units(configs, seeds=seeds)
        return table.rows[0].cd, table.rows[1].cd

    branch_cd, pro_cd = run((1, 2, 3))
    print(f"\ntrend check: branch cd={branch_cd:.4f}, proedgeshuffle cd={pro_cd:.4f}")
    if pro_cd > 1.10 * branch_cd:  # escalate before blocking release
        branch_cd, pro_cd = run((1, 2, 3, 4, 5))
        print(f"trend check at 5 seeds: branch cd={branch_cd:.4f}, proedgeshuffle cd={pro_cd:.4f}")
    assert pro_cd <= 1.10 * branch_cd
    print(f"PASS criterion 8: proedgeshuffle cd <= 1.10 x branch cd ({pro_cd / branch_cd:.2f}x)")


def test_criterion_09_train_determinism(tmp_path):
    flags = [
        "train", "--unit", "proedgeshuffle", "--ratio", "4", "--k", "6", "--channels", "8",
        "--steps", "5", "--seed", "3", "--points", "32", "--shapes", "sphere",
    ]
    a, b = tmp_path / "a.puxp", tmp_path / "b.puxp"
    assert cli_main([*flags, "--out", str(a)]) == 0
    assert cli_main([*flags, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.puxp.loss.csv").read_bytes() == (tmp_path / "b.puxp.loss.csv").read_bytes()
    print("\nPASS criterion 9: identical flags give byte-identical checkpoint and loss CSV")


def test_criterion_10_ablation_matrix_structure(tmp_path):
    cfg = tmp_path / "ablation.cfg"
    out = tmp_path / "ablation.csv"
    cfg.write_text(
        "backbone.kind=edgeconv_stack\nbackbone.depth=2\nbackbone.width=8\n"
        "train.steps=20\ntrain.k=6\ntrain.ratio=4\ntrain.seeds=1\n"
        "data.shapes=sphere\ndata.points=32\n"
        "compare.units=proedgeshuffle\n"
        "compare.index_modes=feature_knn,expand\n"
        "compare.regression_modes=direct,edgeconv_after,edgeconv_before\n"
        f"out={out}\n"
    )
    assert cli_main(["compare", "--config", str(cfg)]) == 0
    rows = read_csv_rows(out)
    cells = {(r["index_mode"], r["regression_mode"]) for r in rows}
    expected = {
        (i, m)
        for i in ("feature_knn", "expand")
        for m in ("direct", "edgeconv_after", "edgeconv_before")
    }
    assert cells == expected, f"matrix incomplete: {cells}"
    for r in rows:
        for col in ("cd", "hd", "p2f"):
            assert r[col] != "" and np.isfinite(float(r[col])), f"cell {r['unit']}/{col} not finite"
    print("\nPASS criterion 10: 2x3 ablation matrix populated with finite CD/HD/P2F")
