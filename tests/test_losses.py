import warnings

import numpy as np
import pytest

from puxp import geometry
from puxp.autodiff import Tape, Tensor
from puxp.checks import check_gradient, finite_difference_gradient
from puxp.errors import GradientError, ShapeError
from puxp.geometry import PointCloud
from puxp.losses import chamfer_loss
from puxp.metrics import chamfer

from dense_reference import product


def test_loss_value_equals_metric_exactly():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(10, 3))
    gt = rng.normal(size=(25, 3))
    assert chamfer_loss(Tensor(pred), gt).item() == chamfer(pred, gt)


@pytest.mark.parametrize("shift", [0, 300, -300])
def test_a_kept_target_gives_the_loss_and_gradient_of_a_fresh_one(shift):
    rng = np.random.default_rng(4)
    gt = PointCloud(np.ldexp(rng.normal(size=(40, 3)), shift))
    preds = [np.ldexp(rng.normal(size=(20, 3)), shift) for _ in range(2)]

    def run(target):
        out = []
        for pred in preds:
            t = Tensor(pred, requires_grad=True)
            with Tape() as tape:
                loss = chamfer_loss(t, target)
                tape.backward(loss)
            out.append((loss.item(), t.grad.tobytes()))
        return out

    first = run(gt)
    assert run(gt) == first == run(PointCloud(gt.points)) == run(gt.points)


def test_zero_for_identical_clouds():
    pts = np.random.default_rng(1).normal(size=(6, 3))
    assert chamfer_loss(Tensor(pts), PointCloud(pts)).item() == 0.0


def test_gradient_matches_finite_differences_four_point_toy():
    rng = np.random.default_rng(7)
    gt = rng.normal(size=(8, 3))
    pred = rng.normal(size=(4, 3))
    result = check_gradient("chamfer_loss", lambda t: chamfer_loss(t, gt), pred)
    assert result.ok, result.detail


def test_gradient_through_linear_regression_toy():
    # chamfer through a linear map: d loss / d features via the tape
    rng = np.random.default_rng(9)
    gt = rng.normal(size=(4, 3))
    w = Tensor(rng.normal(size=(5, 3)))
    feats = rng.normal(size=(4, 5))

    def loss(t):
        return chamfer_loss(product(t, w), gt)

    analytic = None
    xt = Tensor(feats, requires_grad=True)
    with Tape() as tape:
        tape.backward(loss(xt))
    analytic = xt.grad
    estimate = finite_difference_gradient(lambda a: loss(Tensor(a)).item(), feats)
    assert np.allclose(analytic, estimate, rtol=1e-4, atol=1e-7)


def test_upstream_scale_flows_through():
    from puxp import autodiff as ad

    rng = np.random.default_rng(5)
    gt = rng.normal(size=(6, 3))
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with Tape() as tape:  # a bias-free linear layer of weight 2 doubles the upstream gradient
        tape.backward(product(ad.reshape(chamfer_loss(x, gt), (1, 1)), Tensor([[2.0]])))
    g2 = x.grad.copy()
    x.grad = None
    with Tape() as tape:
        tape.backward(chamfer_loss(x, gt))
    assert np.allclose(g2, 2.0 * x.grad, atol=0)


def test_overflowing_loss_is_inf_with_no_warning():
    # at 2^600 every squared distance is beyond float64; training reports the inf as a divergence
    rng = np.random.default_rng(2)
    pred, gt = np.ldexp(rng.normal(size=(8, 3)), 600), np.ldexp(rng.normal(size=(16, 3)), 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chamfer_loss(Tensor(pred), gt).item() == np.inf


@pytest.mark.parametrize(
    "pred_shape, gt_shape, name", [((4, 2), (5, 3), "predictions"), ((4, 3), (0, 3), "ground truth")]
)
def test_point_sets_follow_the_geometry_rule(pred_shape, gt_shape, name):
    with pytest.raises(ShapeError, match=name):
        chamfer_loss(Tensor(np.zeros(pred_shape)), np.zeros(gt_shape))


@pytest.mark.parametrize("side", ["predictions", "ground truth"])
def test_a_non_finite_set_is_named_by_its_role(side):
    pred, gt = np.zeros((4, 3)), np.ones((5, 3))
    (pred if side == "predictions" else gt)[2, 0] = np.nan
    with pytest.raises(GradientError, match=f"^row 2 of the {side} is not finite$"):
        chamfer_loss(Tensor(pred), gt)


def test_raw_predictions_are_grouped_once_per_loss(monkeypatch):
    # the pred -> gt query and the gt -> pred target share one build of the raw
    # predictions; the kept target builds nothing after its first loss
    rng = np.random.default_rng(6)
    gt = PointCloud(rng.normal(size=(40, 3)))
    chamfer_loss(Tensor(rng.normal(size=(20, 3))), gt)
    calls = []
    real = geometry._copy_groups
    monkeypatch.setattr(geometry, "_copy_groups", lambda cols: calls.append(cols.shape) or real(cols))
    pred = Tensor(rng.normal(size=(20, 3)))
    chamfer_loss(pred, gt)
    assert calls == [(3, 20)]
    assert pred.data.flags.writeable  # the shared build made no read-only flag stick to the tensor
