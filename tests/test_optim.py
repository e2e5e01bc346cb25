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
    store["w"].grad[...] = 0.0
    adam_step(store, state)
    assert np.array_equal(store["w"].data, [1.0, -2.0])
    assert np.all(state.m == 0.0)
    assert np.all(state.v == 0.0)


def test_first_step_magnitude_is_learning_rate():
    # closed form at t=1 with g=1: m_hat = v_hat = 1, update = lr / (1 + eps)
    store = make_store([0.0])
    state = AdamState(store)
    store["w"].grad[...] = 1.0
    adam_step(store, state, lr=0.001)
    assert state.m[0] == pytest.approx(0.1)
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
    store["layer.weight"].grad[...] = 1.0
    store["layer.bias"].grad[...] = np.nan
    with pytest.raises(GradientError, match="layer.bias"):
        adam_step(store, state, lr=0.1)
    assert np.array_equal(store.values, [1.0, 2.0])
    assert np.all(state.m == 0.0) and np.all(state.v == 0.0)
    assert state.t == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["first", "last"])
def test_non_finite_entry_names_its_parameter(entry, bad):
    # two neighbouring parameters: the first and last entry of each sit next to
    # the other's, so an off-by-one in the offsets names the wrong one
    store = ParameterStore()
    store.add("a", np.zeros((2, 3)))
    store.add("b", np.zeros(4))
    store.add("c", np.zeros((3, 1)))
    state = AdamState(store)
    for name in ("a", "b", "c"):
        store.zero_grads()
        store[name].grad.reshape(-1)[0 if entry == "first" else -1] = bad
        with pytest.raises(GradientError, match=f"parameter '{name}'"):
            adam_step(store, state)
    assert state.t == 0


def test_state_shape_mismatch_rejected():
    store = make_store([1.0, 2.0])
    state = AdamState(store)
    state.m = np.zeros(3)
    with pytest.raises(ShapeError):
        adam_step(store, state)
    assert np.array_equal(store["w"].data, [1.0, 2.0])


def test_state_of_another_store_rejected():
    state = AdamState(make_store([1.0, 2.0]))
    other = ParameterStore()
    other.add("v", np.array([1.0, 2.0]))
    with pytest.raises(ShapeError, match="does not match"):
        adam_step(other, state)


def test_state_made_before_an_add_is_rejected():
    store = make_store([1.0, 2.0])
    state = AdamState(store)
    store.add("b", np.zeros(1))
    with pytest.raises(ShapeError, match="does not match"):
        adam_step(store, state)
    adam_step(store, AdamState(store))


@pytest.mark.parametrize("field", ["grad", "data"])
def test_reassigned_tensor_array_is_refused_by_name(field):
    store = ParameterStore()
    store.add("layer.weight", np.array([1.0]))
    store.add("layer.bias", np.array([2.0]))
    state = AdamState(store)
    setattr(store["layer.bias"].tensor, field, np.array([0.5]))
    with pytest.raises(ShapeError, match="'layer.bias'"):
        adam_step(store, state)
    assert store["layer.weight"].data[0] == 1.0 and state.t == 0
