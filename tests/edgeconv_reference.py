"""EdgeConv composed the long way, in plain NumPy: the oracle for ad.edge_conv.

Gather the neighbours, form x_j - x_i, concatenate with x_i, multiply by the
weights, add the bias, apply ReLU, then take the max over the K neighbours.
It holds the whole M x K x 2C edge tensor, so keep it to small inputs.
"""

import numpy as np

from puxp.autodiff import Tensor


def composed_edge_conv(x, idx, w, b, activate):
    data = x.data
    entries = np.asarray(getattr(idx, "entries", idx))
    centre = np.broadcast_to(data[:, None, :], (*entries.shape, data.shape[1]))
    edge = np.concatenate([centre, data[entries] - centre], axis=-1)  # M x K x 2C
    h = edge @ w.data + b.data
    if activate:
        h = np.maximum(h, 0.0)
    return Tensor(h.max(axis=1))
