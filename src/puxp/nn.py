"""Shared-parameter MLPs, EdgeConv, and latent-code duplication.

Every block applies the same trainable weights to every point row, so the
row count is free at inference time and permuting input rows permutes the
output rows identically.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def glorot_uniform(rng, fan_in, fan_out):
    """Uniform (fan_in, fan_out) init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class SharedMLP:
    """Per-point affine stack: x[M, C_in] -> [M, C_out], identical for every row.

    Each layer is one `autodiff.dense` call, product, bias and ReLU in one
    taped op. ReLU follows every layer except the last; set
    activate_output=True when the stack feeds further feature processing
    rather than coordinates. Every layer computes in `dtype`, by default the
    dtype of x and the weights (see `autodiff.dense`).
    """

    def __init__(self, store, name, widths, rng, activate_output=False, dtype=None):
        if len(widths) < 2:
            raise ValueError(f"{name}: need at least input and output widths, got {widths}")
        self.name = name
        self.widths = list(widths)
        self.activate_output = activate_output
        self.dtype = dtype
        self.layers = []
        for i, (c_in, c_out) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            w = store.add(f"{name}.w{i}", glorot_uniform(rng, c_in, c_out))
            b = store.add(f"{name}.b{i}", np.zeros(c_out))
            self.layers.append((w, b))

    @property
    def in_width(self):
        return self.widths[0]

    def __call__(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_width:
            raise ShapeError(f"{self.name}: expected (M, {self.in_width}) input, got {x.shape}")
        for i, (w, b) in enumerate(self.layers, 1):
            x = ad.dense(x, w.tensor, b.tensor, self.activate_output or i < len(self.layers), self.dtype)
        return x


class EdgeConvLayer:
    """Graph convolution out[i] = max_k act([x[i], x[j_k] - x[i]] . W + b).

    The neighbor set j_k comes from a fixed IndexMatrix; entries within a
    row are interchangeable because the max reduction is symmetric. The
    whole layer is one `autodiff.edge_conv` call, with or without a tape.
    """

    def __init__(self, store, name, c_in, c_out, rng, activate_output=True):
        self.activate_output = activate_output
        self.w = store.add(f"{name}.h.w0", glorot_uniform(rng, 2 * c_in, c_out))
        self.b = store.add(f"{name}.h.b0", np.zeros(c_out))

    def __call__(self, x, idx):
        return ad.edge_conv(x, idx, self.w.tensor, self.b.tensor, self.activate_output)


def duplicate_with_code(x, copies=2):
    """Copy each row `copies` times and append a latent code column.

    Output row f*i + s (f = copies) is x[i] with code linspace(1, -1, f)[s],
    +1/-1 at f = 2, so a point's children stay contiguous: [x, ..., x] shuffled.
    The codes take x's dtype.
    """
    stacked = functools.reduce(ad.concat_last, [x] * copies)
    codes = np.tile(np.linspace(1.0, -1.0, copies, dtype=x.data.dtype)[:, None], (x.shape[0], 1))
    return ad.concat_last(ad.shuffle_expand(stacked, copies), Tensor(codes))
