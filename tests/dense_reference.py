"""A shared-MLP layer composed the long way, in plain NumPy: the oracles for ad.dense.

composed_dense is np.maximum(x @ w + b, 0), or x @ w + b with no ReLU.

three_rule_dense_grads is the backward the layer had as three taped ops,
matmul -> add_bias -> relu: each rule's gradient is added into zeros, as
the tape adds it, and handed to the rule before it.

product(a, b) is a . b for Tensors, taped as one bias-free linear dense op.
"""

import numpy as np

from puxp import autodiff as ad
from puxp.autodiff import Tensor


def product(a, b):
    return ad.dense(a, b, Tensor(np.zeros(b.shape[1])), False)


def composed_dense(x, w, b, activate):
    h = x @ w + b
    return np.maximum(h, 0.0) if activate else h


def three_rule_dense_grads(x, w, b, activate, g):
    """Gradients (x, w, b) of sum(g * dense(x, w, b, activate)), one old rule at a time."""
    pre = x @ w + b
    if activate:  # relu: g passes where the pre-activation is positive
        g = np.zeros_like(pre) + g * (pre > 0.0)
    gb = np.zeros_like(b) + g.sum(axis=0)  # add_bias: g to the product, its column sums to b
    g = np.zeros_like(pre) + g
    return np.zeros_like(x) + g @ w.T, np.zeros_like(w) + x.T @ g, gb  # matmul
