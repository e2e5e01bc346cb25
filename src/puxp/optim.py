"""Adam with bias correction over a ParameterStore: flat moments laid out like
its `values` and `grads`, so a step is one vectorised update. The tape adds into
the grad views, so write into `p.grad[...]`; a reassigned `tensor.grad` is refused."""

from __future__ import annotations

import numpy as np

from .errors import GradientError, ShapeError


class AdamState:
    """Flat first/second moments, the step counter and the names they were made for."""

    def __init__(self, store):
        self.t = 0
        self.names = store.names()
        self.m, self.v = np.zeros((2, store.values.size))


def adam_step(store, state, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Apply one Adam update in place. It touches no parameter if the state was made
    for another layout, or if a parameter no longer aliases the buffers or has a
    non-finite gradient; the last two name the parameter."""
    values, grads, offsets = store.values, store.grads, store.offsets
    if state.names != store.names() or state.m.shape != values.shape:
        raise ShapeError(f"optimizer state for {len(state.names)} parameters does not match the store")
    for p in store:
        if p.data.base is not values or getattr(p.grad, "base", None) is not grads:
            raise ShapeError(f"parameter {p.name!r} no longer aliases the store: write into grad, never reassign it")
    finite = np.isfinite(grads)
    if not finite.all():
        bad = state.names[np.searchsorted(offsets, np.argmin(finite), side="right") - 1]
        raise GradientError(f"non-finite gradient for parameter {bad!r}")

    state.t += 1
    state.m *= beta1
    state.m += (1.0 - beta1) * grads
    state.v *= beta2
    state.v += (1.0 - beta2) * grads * grads
    values -= lr * (state.m / (1.0 - beta1**state.t)) / (np.sqrt(state.v / (1.0 - beta2**state.t)) + eps)
    return state
