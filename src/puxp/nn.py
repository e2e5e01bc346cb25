"""Shared-parameter MLPs, EdgeConv, and latent-code duplication.

Every block applies the same trainable weights to every point row, so the
row count is free at inference time and permuting input rows permutes the
output rows identically.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def glorot_uniform(rng, fan_in, fan_out, shape=None):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


class SharedMLP:
    """Per-point affine stack: x[M, C_in] -> [M, C_out], identical for every row.

    ReLU follows every layer except the last; set activate_output=True when
    the stack feeds further feature processing rather than coordinates.
    """

    def __init__(self, store, name, widths, rng, activate_output=False, bias=True):
        if len(widths) < 2:
            raise ValueError(f"{name}: need at least input and output widths, got {widths}")
        self.name = name
        self.widths = [int(w) for w in widths]
        self.activate_output = activate_output
        self.layers = []
        for i, (c_in, c_out) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            w = store.add(f"{name}.w{i}", glorot_uniform(rng, c_in, c_out))
            b = store.add(f"{name}.b{i}", np.zeros(c_out)) if bias else None
            self.layers.append((w, b))

    @property
    def in_width(self):
        return self.widths[0]

    @property
    def out_width(self):
        return self.widths[-1]

    def __call__(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_width:
            raise ShapeError(f"{self.name}: expected (M, {self.in_width}) input, got {x.shape}")
        h = x
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = ad.matmul(h, w.tensor)
            if b is not None:
                h = ad.add_bias(h, b.tensor)
            if i < last or self.activate_output:
                h = ad.relu(h)
        return h


# Rows per EdgeConv block when no tape records. The M x K x 2C edge tensors
# of a block stay in cache; rows 256-1024 ran equally fast.
EDGECONV_BLOCK_ROWS = 512


class EdgeConvLayer:
    """Graph convolution out[i] = max_k mlp(concat(x[i], x[j_k] - x[i])).

    The neighbor set j_k comes from a fixed IndexMatrix; entries within a
    row are interchangeable because the max reduction is symmetric.

    Every output row depends only on its own neighbours, so with no tape
    active and more than EDGECONV_BLOCK_ROWS rows the layer runs block by
    block into one preallocated output: memory is O(block * K * C) instead
    of O(M * K * C), and the bytes equal the whole-array result. While a tape
    records (even when x itself needs no gradient, as the coordinates fed to
    the first backbone layer do) it runs all rows at once, so the backward
    rules reach the weights through the same ops and records as always.
    """

    def __init__(self, store, name, c_in, c_out, rng, hidden=(), activate_output=True):
        self.name = name
        self.c_in = int(c_in)
        self.c_out = int(c_out)
        widths = [2 * self.c_in, *hidden, self.c_out]
        self.mlp = SharedMLP(store, f"{name}.h", widths, rng, activate_output=activate_output)

    def __call__(self, x, idx):
        if x.ndim != 2 or x.shape[1] != self.c_in:
            raise ShapeError(f"{self.name}: expected (M, {self.c_in}) input, got {x.shape}")
        m = x.shape[0]
        entries = idx.entries
        if entries.shape[0] != m:
            raise ShapeError(
                f"{self.name}: index matrix has {entries.shape[0]} rows for {m} points"
            )
        if ad.tape_active() or m <= EDGECONV_BLOCK_ROWS:
            return self._rows(x, entries, 0, m)
        out = np.empty((m, self.c_out))
        for start in range(0, m, EDGECONV_BLOCK_ROWS):
            stop = min(start + EDGECONV_BLOCK_ROWS, m)
            out[start:stop] = self._rows(x, entries, start, stop).data
        return Tensor(out)

    def _rows(self, x, entries, start, stop):
        """Output rows start..stop-1, computed from all of x."""
        b, k = stop - start, entries.shape[1]
        neighbors = ad.gather_rows(x, entries[start:stop])  # b x K x C
        self_rows = np.broadcast_to(np.arange(start, stop)[:, None], (b, k))
        center = ad.gather_rows(x, self_rows)  # b x K x C
        edge = ad.concat_last(center, ad.sub(neighbors, center))  # b x K x 2C
        flat = ad.reshape(edge, (b * k, 2 * self.c_in))
        h = self.mlp(flat)
        return ad.max_over_k(ad.reshape(h, (b, k, self.c_out)))


def duplicate_with_code(x):
    """Copy each row twice and append a +1/-1 latent code column.

    Output rows 2i and 2i+1 are x[i] with code +1 and -1 respectively, so the
    two children of a point stay contiguous, matching the shuffle layout.
    """
    n, c = x.shape
    doubled = ad.reshape(ad.gather_rows(x, np.repeat(np.arange(n), 2)[:, None]), (2 * n, c))
    codes = np.tile([[1.0], [-1.0]], (n, 1))
    return ad.concat_last(doubled, Tensor(codes))

