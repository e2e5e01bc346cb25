import numpy as np
import pytest

from puxp import autodiff as ad
from puxp.autodiff import ParameterStore, Tape, Tensor
from puxp.errors import GradientError, ShapeError
from puxp.optim import AdamState, adam_step

from dense_reference import product


def make_store(value):
    store = ParameterStore()
    store.add("w", np.array(value, dtype=np.float64))
    return store


def test_zero_gradient_leaves_everything_unchanged():
    store = make_store([1.0, -2.0])
    state = AdamState(store)
    store["w"].tensor.grad = np.zeros(2)
    adam_step(store, state)
    assert np.array_equal(store["w"].data, [1.0, -2.0])
    assert np.all(state.m["w"] == 0.0)
    assert np.all(state.v["w"] == 0.0)


def test_first_step_magnitude_is_learning_rate():
    # closed form at t=1 with g=1: m_hat = v_hat = 1, update = lr / (1 + eps)
    store = make_store([0.0])
    state = AdamState(store)
    store["w"].tensor.grad = np.ones(1)
    adam_step(store, state, lr=0.001)
    assert store["w"].data[0] == pytest.approx(-0.001, rel=1e-6)


def test_missing_gradient_counts_as_zero():
    store = make_store([4.0])
    state = AdamState(store)
    adam_step(store, state)
    assert store["w"].data[0] == 4.0


def test_quadratic_bowl_loss_strictly_decreases():
    store = make_store([1.0])
    state = AdamState(store)
    losses = []
    for _ in range(100):
        store.zero_grads()
        w = store["w"].tensor
        with Tape() as tape:
            w2 = ad.reshape(w, (1, 1))
            loss = ad.sum_all(product(w2, w2))
            losses.append(loss.item())
            tape.backward(loss)
        adam_step(store, state, lr=0.01)
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.1 * losses[0]


def test_non_finite_gradient_aborts_without_touching_parameters():
    store = ParameterStore()
    store.add("layer.weight", np.array([1.0]))
    store.add("layer.bias", np.array([2.0]))
    state = AdamState(store)
    store["layer.weight"].tensor.grad = np.array([1.0])
    store["layer.bias"].tensor.grad = np.array([np.nan])
    with pytest.raises(GradientError, match="layer.bias"):
        adam_step(store, state, lr=0.1)
    assert store["layer.weight"].data[0] == 1.0
    assert state.t == 0


def test_state_shape_mismatch_rejected():
    store = make_store([1.0, 2.0])
    state = AdamState(store)
    state.m["w"] = np.zeros(3)
    store["w"].tensor.grad = np.zeros(2)
    with pytest.raises(ShapeError):
        adam_step(store, state)
