"""The ParameterStore layout rule, checked view by view."""


def assert_laid_out(store):
    """Every parameter's data and grad is its reshaped slice of the flat buffers."""
    values, grads, offsets = store.values, store.grads, store.offsets
    assert values.shape == grads.shape == (offsets[-1],)
    for p, lo, hi in zip(store, offsets, offsets[1:]):
        for view, flat in ((p.data, values), (p.grad, grads)):
            assert view.base is flat and view.shape == p.tensor.shape, p.name
            assert view.__array_interface__["data"][0] == flat[lo:].__array_interface__["data"][0], p.name
            assert view.size == hi - lo, p.name
