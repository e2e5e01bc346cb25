"""Tour of the tensor core: one dense layer on the tape, gradient checking, the
expansion ops, and Adam.

Run: python demos/01_autodiff_and_training_core.py
"""

import numpy as np

from puxp import autodiff as ad
from puxp.autodiff import ParameterStore, Tape, Tensor
from puxp.checks import finite_difference_gradient
from puxp.geometry import IndexMatrix
from puxp.optim import AdamState, adam_step

rng = np.random.default_rng(7)

# --- forward + backward through one shared-MLP layer ----------------------
# ad.dense is a whole layer in one taped op: relu(x . w + b), applied to
# every row with the same weights.
x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
b = Tensor(rng.normal(size=2), requires_grad=True)
with Tape() as tape:
    loss = ad.sum_all(ad.dense(x, w, b, activate=True))
    tape.backward(loss)
print("loss:", loss.item(), "from", len(tape), "taped ops")
print("grad shapes:", x.grad.shape, w.grad.shape, b.grad.shape)

# the tape gradient matches central finite differences (the house oracle)
fd = finite_difference_gradient(
    lambda a: ad.sum_all(ad.dense(Tensor(a), Tensor(w.data), Tensor(b.data), activate=True)).item(), x.data
)
print("max |tape - finite difference|:", np.max(np.abs(x.grad - fd)))

# --- the expansion-specific ops -------------------------------------------
row = Tensor([[1.0, 2.0, 3.0, 4.0]])
print("\nshuffle_expand turns channel groups into rows:")
print(row.data, "->", ad.shuffle_expand(row, 2).data.tolist())

# EdgeConv is one op: out[i] = relu(max_k [x_i, x_j - x_i] . w + b). With the
# centre and edge weights both 1 the edge feature is x_j, so each row picks
# the largest value among its neighbours.
pts = Tensor([[0.0], [1.0], [3.0]])
nbrs = IndexMatrix([[1, 2], [0, 2], [0, 1]])
out = ad.edge_conv(pts, nbrs, Tensor([[1.0], [1.0]]), Tensor([0.0]), activate=True)
print("edge_conv of", pts.data.ravel().tolist(), "over neighbours", nbrs.entries.tolist(), "->", out.data.ravel().tolist())

# --- Adam on a quadratic bowl ----------------------------------------------
store = ParameterStore()
store.add("w", np.array([1.0]))
state = AdamState(store)
curve = []
for _ in range(200):
    store.zero_grads()
    w = store["w"].tensor
    with Tape() as tape:
        w2 = ad.reshape(w, (1, 1))
        loss = ad.sum_all(ad.dense(w2, w2, Tensor([0.0]), activate=False))  # w . w with a zero bias
        curve.append(loss.item())
        tape.backward(loss)
    adam_step(store, state, lr=0.05)
print(f"\nAdam on w^2: loss {curve[0]:.3f} -> {curve[-1]:.2e} in {len(curve)} steps")
