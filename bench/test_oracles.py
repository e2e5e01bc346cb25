"""Small checks of the benchmark's oracles against dense or hand-derived values."""

import numpy as np

import oracles


def _dense_nearest(src, dst):
    diff = src[:, None, :] - dst[None, :, :]
    return (diff * diff).sum(axis=-1).min(axis=1)


def test_kdtree_chamfer_and_hausdorff_match_dense_pairs():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(300, 3))
    gt = np.concatenate([rng.normal(size=(200, 3)), pred[:50]])  # exact matches too
    a, b = _dense_nearest(pred, gt), _dense_nearest(gt, pred)
    assert oracles.chamfer(pred, gt) == a.mean() + b.mean()
    assert oracles.hausdorff(pred, gt) == np.sqrt(max(a.max(), b.max()))


def test_box_surface_distance_closed_form():
    half = (0.8, 0.6, 1.0)
    points = np.array(
        [
            [0.0, 0.0, 0.0],  # centre: nearest faces are y = +-0.6
            [0.8, 0.1, -0.2],  # on the +x face
            [1.8, 0.0, 0.0],  # 1 beyond the +x face
            [1.1, -1.0, 1.0],  # beyond the x and y faces, level with the z face
            [0.5, 0.5, 0.9],  # inside, 0.1 from two faces
        ]
    )
    expected = [0.6, 0.0, 1.0, np.hypot(0.3, 0.4), 0.1]
    assert np.allclose(oracles.box_surface_distance(points, half), expected, rtol=0, atol=1e-15)


def test_knn_rows_orders_ties_by_index_and_skips_self():
    points = np.array([[x, 0.0, 0.0] for x in (0.0, 1.0, 2.0, 3.0, 5.0)])
    got = oracles.knn_rows(points, [1, 2, 4], 3)
    assert got.tolist() == [[0, 2, 3], [1, 3, 0], [3, 2, 1]]


def test_central_difference_on_a_quadratic_restores_the_input():
    values = np.array([[1.5, -2.0], [0.25, 3.0]])
    before = values.copy()
    for entry, x in enumerate(before.reshape(-1)):
        estimate = oracles.central_difference(lambda: float((values**2).sum()), values, entry, 1e-6)
        assert abs(estimate - 2 * x) < 1e-8
    assert np.array_equal(values, before)
