"""EdgeConv composed the long way, in plain NumPy: the oracles for ad.edge_conv.

composed_edge_conv gathers the neighbours, forms x_j - x_i, concatenates with
x_i, multiplies by the weights, adds the bias, applies ReLU, then takes the
max over the K neighbours. It holds the whole M x K x 2C edge tensor, so keep
it to small inputs.

per_neighbour_edge_conv_grads is the backward one neighbour column at a time:
mask the gradient to the outputs that column won, then gather, multiply and
scatter-add it for that column alone.

random_graph draws the valid neighbour tables the tests feed them.
"""

import numpy as np

from puxp.autodiff import Tensor
from puxp.geometry import IndexMatrix


def random_graph(rng, m, k):
    """A valid IndexMatrix: k distinct neighbours per row, never the row itself."""
    rows = [rng.choice(m - 1, size=k, replace=False) for _ in range(m)]
    entries = np.array(rows)
    return IndexMatrix(entries + (entries >= np.arange(m)[:, None]))


def composed_edge_conv(x, idx, w, b, activate):
    data = x.data
    entries = np.asarray(getattr(idx, "entries", idx))
    centre = np.broadcast_to(data[:, None, :], (*entries.shape, data.shape[1]))
    edge = np.concatenate([centre, data[entries] - centre], axis=-1)  # M x K x 2C
    h = edge @ w.data + b.data
    if activate:
        h = np.maximum(h, 0.0)
    return Tensor(h.max(axis=1))


def per_neighbour_edge_conv_grads(x, idx, w, b, activate, g):
    """Gradients (x, w, b) of sum(g * edge_conv(x, idx, w, b, activate))."""
    data = x.data
    entries = np.asarray(getattr(idx, "entries", idx))
    c = data.shape[1]
    w2 = w.data[c:]
    centre = w.data[:c] - w2
    edges = np.stack([data[entries[:, j]] @ w2 for j in range(entries.shape[1])])  # K x M x D
    winner = edges.argmax(axis=0)  # ties go to the first k
    if activate:
        g = g * (data @ centre + b.data + edges.max(axis=0) > 0.0)
    gx = g @ centre.T
    gw1 = data.T @ g
    gw2 = -gw1
    for j in range(entries.shape[1]):
        gj = np.where(winner == j, g, 0.0)
        gw2 += data[entries[:, j]].T @ gj
        np.add.at(gx, entries[:, j], gj @ w2.T)
    return gx, np.concatenate([gw1, gw2]), g.sum(axis=0)
