"""Dense float64 or float32 tensors with a reverse-mode gradient tape.

Rank is capped at 2 (M x C point features; no op builds anything larger)
and there is no implicit broadcasting: every op states an exact shape
contract and raises ShapeError when operands disagree. Ops record a
backward rule on the innermost active Tape; replaying the rules in reverse
execution order fills `.grad` on every requires_grad tensor the loss
depends on.

A rule is `backward(g)`: given its output's gradient it returns one
gradient per input, or None for an input it skipped. `record_op` alone runs
the rest: it tapes an op only when an input requires a gradient, calls the
rule only once the output has one, and adds each returned gradient into its
input, in input order, when that input requires one.

All forward computation is plain numpy on contiguous buffers, so a fixed
input always produces a bitwise-identical output. An op computes in its
operands' dtype: a model built or trained here holds float64 values and
computes in float64; a model loaded from a checkpoint holds the float32
values the file stores, and its features are float32.
"""

from __future__ import annotations

import functools
import typing

import numpy as np

from .errors import ShapeError, integer
from .geometry import IndexMatrix


def _floats(data):
    """data as a contiguous float32 or float64 array, as it holds; any other dtype becomes float64."""
    arr = np.asarray(data)
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    return np.ascontiguousarray(arr, dtype=dtype)  # a scalar comes back with shape (1,)


class Tensor:
    """A dense float64 or float32 array (rank 1 or 2) that can participate in a Tape.

    Data of any other dtype (integers, float16, Python floats) becomes float64.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = _floats(data)
        if arr.ndim > 2:
            raise ShapeError(f"tensor rank must be 1 or 2, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(typing.NamedTuple):
    """A named trainable tensor: the name keys checkpoints and error messages."""

    name: str
    tensor: Tensor
    data = property(lambda self: self.tensor.data)
    grad = property(lambda self: self.tensor.grad)


class ParameterStore:
    """Uniquely named parameters laid end to end, in insertion order, in one
    `values` and one `grads` buffer; a parameter's `tensor.data` and
    `tensor.grad` are reshaped views of its slice offsets[i]:offsets[i + 1].
    The first read of `values`, `grads` or `offsets` lays them out in one pass,
    copying in the values and any gradients already taped; `add` drops the
    layout, so the next read remakes it with every value and gradient kept.
    The tape adds into the grad views: write into `grad`, never reassign it.

    The buffers' dtype, `dtype`, is the one the values hold: float64 for
    values drawn here, float32 after `load` of a checkpoint's float32 values."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._layout = None  # (values, grads, offsets) once laid out

    def add(self, name, value):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        param = self._params[name] = Parameter(str(name), Tensor(value, requires_grad=True))
        self._layout = None
        return param

    def load(self, arrays):
        """Set every parameter to a copy of arrays[name], an array of its shape,
        in its dtype, and drop the layout: the next read lays the store out
        in that dtype, so float32 arrays make a float32 store."""
        for p in self._params.values():
            p.tensor.data, p.tensor.grad = _floats(arrays[p.name]).copy(), None
        self._layout = None

    @property
    def dtype(self):
        """The dtype of the values held, read without laying them out."""
        return np.result_type(*(p.tensor.data for p in self._params.values())) if self._params else np.float64

    def _laid_out(self):
        if self._layout is None:
            tensors = [p.tensor for p in self._params.values()]
            offsets = np.cumsum([0] + [t.data.size for t in tensors])
            values, grads = np.empty(offsets[-1], self.dtype), np.zeros(offsets[-1], self.dtype)
            for t, lo, hi in zip(tensors, offsets, offsets[1:]):
                values[lo:hi] = t.data.reshape(-1)
                if t.grad is not None:
                    grads[lo:hi] = t.grad.reshape(-1)
                t.data, t.grad = values[lo:hi].reshape(t.shape), grads[lo:hi].reshape(t.shape)
            self._layout = values, grads, offsets
        return self._layout

    values = property(lambda self: self._laid_out()[0])
    grads = property(lambda self: self._laid_out()[1])
    offsets = property(lambda self: self._laid_out()[2])

    def __iter__(self):
        return iter(self._params.values())

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return list(self._params)

    def zero_grads(self):
        self.grads.fill(0.0)

    def value_count(self):
        return self.values.size


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of backward rules for one forward pass.

    Use as a context manager around the forward computation, then call
    backward(loss) once. Gradients accumulate into `.grad`, so callers zero
    parameter grads between steps.
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        if popped is not self:
            raise RuntimeError("gradient tapes exited out of order")
        return False

    def __len__(self):
        return len(self._records)

    def record(self, backward):
        self._records.append(backward)

    def backward(self, loss):
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            raise ShapeError("backward needs a one-element loss tensor")
        loss.grad = np.ones_like(loss.data)
        for rule in reversed(self._records):
            rule()


def _taped(inputs):
    """True when a tape is listening and some input requires a gradient."""
    return bool(_TAPES) and any(t.requires_grad for t in inputs)


def record_op(out, inputs, backward):
    """Mark `out` differentiable and tape its rule `backward(g)` if a tape listens."""
    if not _taped(inputs):
        return out
    out.requires_grad = True

    @functools.wraps(backward)  # the tape entry keeps the op's qualname
    def rule():
        if out.grad is None:
            return
        for t, g in zip(inputs, backward(out.grad), strict=True):
            if g is not None and t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g

    _TAPES[-1].record(rule)
    return out


# ---------------------------------------------------------------------------
# ops

_WIDEN_ROWS = 4096  # rows of x a dense widens at a time: 1 MiB of float64 at C = 32


def dense(x, w, b, activate, dtype=None):
    """One shared-MLP layer, act(x[M,C] . w[C,D] + b[D]) with act ReLU if
    `activate`: one product, then the bias and ReLU in place. Its one rule
    masks g by out > 0 and skips a product for an input that needs no gradient.

    It computes in `dtype`, by default the dtype of x and w together. Rows of
    a narrower x are widened _WIDEN_ROWS at a time, so no wide copy of the
    whole of x is made."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"dense: shapes {x.shape}, {w.shape} and {b.shape} do not align")
    out = np.empty((x.shape[0], w.shape[1]), dtype or np.result_type(x.data, w.data))
    weights = w.data.astype(out.dtype, copy=False)
    step = _WIDEN_ROWS if x.data.dtype != out.dtype else max(x.shape[0], 1)
    for start in range(0, x.shape[0], step):
        np.matmul(x.data[start : start + step], weights, out=out[start : start + step])
    out += b.data
    if activate:
        np.maximum(out, 0.0, out=out)
    out = Tensor(out)

    def backward(g):
        if activate:
            g = g * (out.data > 0.0)
        return (g @ w.data.T if x.requires_grad else None, x.data.T @ g if w.requires_grad else None, g.sum(axis=0))

    return record_op(out, (x, w, b), backward)


def sum_all(x):
    """Full reduction to a one-element tensor."""
    out = Tensor(np.array([x.data.sum()]))

    def backward(g):
        return (np.full_like(x.data, g[0]),)

    return record_op(out, (x,), backward)


def concat_last(a, b):
    """Concatenate a[M,C] and b[M,D] into [M, C+D]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_last: shapes {a.shape} and {b.shape} do not align")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    split = a.shape[1]

    def backward(g):
        return g[:, :split], g[:, split:]

    return record_op(out, (a, b), backward)


def edge_conv(x, idx, w, b, activate):
    """EdgeConv out[i] = act(max_k [x[i], x[j_k] - x[i]] . w + b), max first.

    x is [M,C], idx the (M, K) neighbour table, w [2C, D], b [D] and act ReLU
    if `activate`, else the identity. With w = [w1; w2], [x_i, x_j - x_i] . w
    = x_i . (w1 - w2) + x_j . w2, and ReLU is monotone, so out[i] =
    act(x[i] . (w1 - w2) + b + max_k x[j_k] . w2).

    idx is an IndexMatrix, checked once when made and read-only, so no
    forward checks its entries; any other table raises ShapeError. An expanded
    table of ratio r lists r * parent[i] on each child row r*i + s, so the r
    children of a point share one neighbour max: best[i] = max_k x[r p_k] .
    w2 over the parent row p = parent[i]. As x_j . w2 depends on j alone,
    the forward makes one product proj = x[::r] . w2 per call and keeps it
    (n x D) beside the output. It then runs in blocks of parent rows, one
    neighbour column at a time: a row gather of proj into a reused block
    buffer and a running max. It never holds an M x K x D tensor. The centre
    term x . (w1 - w2) + b is one product per call too, made into the output
    before the block loop. Under a tape it keeps, per parent row, the first
    k attaining each max; the gradient flows to that neighbour only. The
    winner is the running max of the codes j * [edge_j > best] over the
    columns, with no masked scatter: j only grows, so the max code is the
    last column where best strictly rose, and as a later column equal to
    best does not rise, that column is the first k attaining the final max
    (0 if none rose). As each value of best has one winner, the backward needs no per-neighbour loop:
    the children's gradients are summed per parent row, one bincount
    scatters them onto the winning rows (s), then four matmuls give
    gx = g . (w1 - w2)^T (+ s . w2^T on rows r*j), gw1 = x^T g and
    gw2 = x[::r]^T s - gw1.
    """
    if not isinstance(idx, IndexMatrix):
        raise ShapeError(f"edge_conv: index must be an IndexMatrix, got {type(idx).__name__}")
    parent, r = idx.parent, idx.ratio
    if x.ndim != 2:
        raise ShapeError(f"edge_conv: need a rank-2 source, got shape {x.shape}")
    m, c = x.shape
    if idx.rows != m:
        raise ShapeError(f"edge_conv: index of shape {parent.shape} at ratio {r} for {m} rows")
    n = parent.shape[0]
    if w.ndim != 2 or w.shape[0] != 2 * c or b.shape != (w.shape[1],):
        raise ShapeError(f"edge_conv: weights {w.shape} and bias {b.shape} for {c} input channels")
    k, d = parent.shape[1], w.shape[1]
    w2 = w.data[c:]
    centre = w.data[:c] - w2
    heads = x.data[::r]  # row r*j, the point every child row lists for neighbour j
    proj = heads @ w2  # x_j . w2 depends on j alone: one product, then row gathers
    taped = _taped((x, w, b))
    out = x.data @ centre
    out += b.data
    block = 512  # parent rows; a block's gathers stay in cache
    best_rows, edge_rows = np.empty((2, min(block, n), d), dtype=proj.dtype)  # reused by every block
    if taped:
        winner = np.zeros((n, d), dtype=np.intp)
        rise_rows = np.empty((min(block, n), d), dtype=bool)
        code_rows = np.empty((min(block, n), d), dtype=np.intp)
    for start in range(0, n, block):
        rows = slice(start, min(start + block, n))
        size = rows.stop - start
        best, edge = best_rows[:size], edge_rows[:size]
        if taped:
            won, rise, code = winner[rows], rise_rows[:size], code_rows[:size]
        # An IndexMatrix's entries are in range, so "clip" never clips; unlike
        # the default "raise", it gathers into the block buffer with no copy.
        np.take(proj, parent[rows, 0], axis=0, out=best, mode="clip")
        for j in range(1, k):
            np.take(proj, parent[rows, j], axis=0, out=edge, mode="clip")
            if taped:  # won = max of j * [edge > best]: the last strict rise
                np.greater(edge, best, out=rise)  # strict: ties keep the first k
                np.multiply(rise, j, out=code)
                np.maximum(won, code, out=won)
            np.maximum(best, edge, out=best)
        shared = out[start * r : rows.stop * r].reshape(-1, r, d)  # a view: child s of parent row i
        shared += best[:, None, :]
    if activate:
        np.maximum(out, 0.0, out=out)
    out = Tensor(out)

    def backward(g):
        if activate:
            g = g * (out.data > 0.0)
        # s[j, e] sums g[i, e] over the outputs whose parent row's winning
        # neighbour is point j (row r*j). The bin numbers are built in place
        # and both scatter inputs freed at once, so the per-parent sum of
        # the children adds no array to the backward's peak, even at r = 1.
        slot = np.take(parent, winner + k * np.arange(n)[:, None])
        slot *= d
        slot += np.arange(d)
        weights = g.reshape(n, r, d).sum(axis=1)
        s = np.bincount(slot.ravel(), weights=weights.ravel(), minlength=n * d).reshape(n, d)
        del slot, weights
        gx = gw = None  # products skipped for an input that needs no gradient
        if x.requires_grad:
            gx = g @ centre.T
            gx[::r] += s @ w2.T
        if w.requires_grad:
            gw1 = x.data.T @ g
            gw = np.concatenate([gw1, heads.T @ s - gw1])
        return gx, gw, g.sum(axis=0)

    return record_op(out, (x, w, b), backward)


def reshape(x, shape):
    """Row-major reshape preserving element count (target rank 1 or 2)."""
    shape = tuple(shape)
    if len(shape) not in (1, 2):
        raise ShapeError(f"reshape: target rank must be 1 or 2, got {shape}")
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape))

    def backward(g):
        return (g.reshape(x.shape),)

    return record_op(out, (x,), backward)


def shuffle_expand(x, ratio):
    """Reshape x[N, r*C] to [r*N, C] so channel groups become new rows.

    Output row r*i + s holds channels [s*C, (s+1)*C) of input row i: the r
    children of a point are contiguous. The map is a bijection on elements.
    """
    ratio = integer("ratio", ratio)
    if x.ndim != 2:
        raise ShapeError(f"shuffle_expand: need a rank-2 tensor, got shape {x.shape}")
    n, rc = x.shape
    if rc % ratio != 0:
        raise ShapeError(f"shuffle_expand: channel count {rc} not divisible by ratio {ratio}")
    return reshape(x, (n * ratio, rc // ratio))

