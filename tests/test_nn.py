import tracemalloc

import numpy as np
import pytest

from puxp import autodiff as ad
from puxp.autodiff import ParameterStore, Tape, Tensor
from puxp.checks import check_gradient
from puxp.errors import ShapeError
from puxp.geometry import IndexMatrix, expand_index
from puxp.nn import EdgeConvLayer, SharedMLP, duplicate_with_code, glorot_uniform

from edgeconv_reference import random_graph


def make_mlp(widths, rng=None, **kw):
    store = ParameterStore()
    mlp = SharedMLP(store, "m", widths, rng or np.random.default_rng(0), **kw)
    return store, mlp


class TestSharedMLP:
    def test_identity_weights_zero_bias_pass_through(self):
        store, mlp = make_mlp([3, 3])
        store["m.w0"].tensor.data[:] = np.eye(3)
        x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
        out = mlp(Tensor(x))
        assert np.array_equal(out.data, x)  # no activation on the output layer

    def test_permuting_rows_permutes_output(self):
        rng = np.random.default_rng(3)
        _, mlp = make_mlp([4, 5, 2], rng)
        x = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        out = mlp(Tensor(x)).data
        out_perm = mlp(Tensor(x[perm])).data
        assert np.array_equal(out_perm, out[perm])

    def test_matches_per_row_hand_unroll(self):
        rng = np.random.default_rng(11)
        store, mlp = make_mlp([2, 3, 2], rng)
        w0, b0 = store["m.w0"].data, store["m.b0"].data
        w1, b1 = store["m.w1"].data, store["m.b1"].data
        x = rng.normal(size=(3, 2))
        expected = np.array([np.maximum(row @ w0 + b0, 0.0) @ w1 + b1 for row in x])
        assert np.allclose(mlp(Tensor(x)).data, expected, atol=1e-12)

    def test_width_mismatch(self):
        _, mlp = make_mlp([3, 2])
        with pytest.raises(ShapeError):
            mlp(Tensor(np.zeros((4, 5))))

    def test_gradient_through_two_layers(self):
        rng = np.random.default_rng(7)
        _, mlp = make_mlp([3, 4, 2], rng)
        x = rng.normal(size=(5, 3))
        result = check_gradient("mlp", lambda t: ad.sum_all(mlp(t)), x)
        assert result.ok, result.detail


class TestGlorot:
    def test_bounds_and_determinism(self):
        limit = np.sqrt(6.0 / 7.0)
        a = glorot_uniform(np.random.default_rng(5), 3, 4)
        b = glorot_uniform(np.random.default_rng(5), 3, 4)
        assert a.shape == (3, 4)
        assert np.all(np.abs(a) <= limit)
        assert np.array_equal(a, b)


class TestEdgeConv:
    def test_identical_features_give_identical_rows(self):
        rng = np.random.default_rng(2)
        store = ParameterStore()
        conv = EdgeConvLayer(store, "c", 3, 4, rng)
        x = Tensor(np.tile([[0.3, -0.7, 1.1]], (5, 1)))
        idx = IndexMatrix([[1, 2], [2, 3], [3, 4], [4, 0], [0, 1]])
        out = conv(x, idx).data
        assert np.allclose(out, out[0], atol=0)

    def test_k_equals_1_is_plain_aggregation(self):
        rng = np.random.default_rng(4)
        store = ParameterStore()
        conv = EdgeConvLayer(store, "c", 2, 2, rng)
        x = rng.normal(size=(3, 2))
        idx = IndexMatrix([[1], [2], [0]])
        w = store["c.h.w0"].data
        b = store["c.h.b0"].data
        expected = np.array(
            [
                np.maximum(np.concatenate([x[i], x[j] - x[i]]) @ w + b, 0.0)
                for i, j in enumerate([1, 2, 0])
            ]
        )
        assert np.allclose(conv(Tensor(x), idx).data, expected, atol=1e-12)

    def test_hand_computed_linear_case(self):
        # out[i] = max_k relu(w_c . x_i + w_d . (x_j - x_i)), scalar features
        store = ParameterStore()
        conv = EdgeConvLayer(store, "c", 1, 1, np.random.default_rng(0))
        store["c.h.w0"].tensor.data[:] = np.array([[2.0], [1.0]])  # w_c = 2, w_d = 1
        store["c.h.b0"].tensor.data[:] = 0.0
        x = np.array([[1.0], [2.0], [4.0]])
        idx = IndexMatrix([[1, 2], [2, 0], [0, 1]])
        # row 0: max(relu(2*1 + (2-1)), relu(2*1 + (4-1))) = max(3, 5) = 5
        # row 1: max(relu(4 + 2), relu(4 - 1)) = 6
        # row 2: max(relu(8 - 3), relu(8 - 2)) = 6
        out = conv(Tensor(x), idx).data
        assert np.array_equal(out, [[5.0], [6.0], [6.0]])

    def test_invariant_to_neighbor_order_within_rows(self):
        rng = np.random.default_rng(9)
        store = ParameterStore()
        conv = EdgeConvLayer(store, "c", 3, 5, rng)
        x = Tensor(rng.normal(size=(6, 3)))
        idx = IndexMatrix([[1, 2, 3], [0, 2, 4], [5, 1, 0], [4, 5, 0], [3, 1, 2], [0, 4, 3]])
        flipped = IndexMatrix(idx.entries[:, ::-1])
        assert np.array_equal(conv(x, idx).data, conv(x, flipped).data)

    def test_permutation_equivariance_with_remapped_graph(self):
        rng = np.random.default_rng(14)
        store = ParameterStore()
        conv = EdgeConvLayer(store, "c", 2, 3, rng)
        x = rng.normal(size=(5, 2))
        idx = IndexMatrix([[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]])
        perm = rng.permutation(5)
        inv = np.argsort(perm)
        remapped = IndexMatrix(inv[idx.entries][perm])
        out = conv(Tensor(x), idx).data
        out_perm = conv(Tensor(x[perm]), remapped).data
        assert np.allclose(out_perm, out[perm], atol=1e-9)

    def test_row_count_mismatch(self):
        store = ParameterStore()
        conv = EdgeConvLayer(store, "c", 2, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            conv(Tensor(np.zeros((4, 2))), IndexMatrix([[1], [0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        store = ParameterStore()
        conv = EdgeConvLayer(store, "c", 2, 3, rng)
        x = rng.normal(size=(5, 2))
        idx = IndexMatrix([[1, 2], [0, 3], [4, 1], [2, 0], [3, 2]])
        result = check_gradient("edgeconv", lambda t: ad.sum_all(conv(t, idx)), x)
        assert result.ok, result.detail


class TestEdgeConvBlocks:
    B = 512  # rows per block of the edge_conv forward

    @pytest.mark.parametrize("m", [B - 1, B, B + 1, 2 * B + 3])
    def test_untaped_output_equals_taped_bytes(self, m):
        rng = np.random.default_rng(m)
        conv = EdgeConvLayer(ParameterStore(), "c", 3, 6, rng)
        x = rng.normal(size=(m, 3))
        idx = random_graph(rng, m, 4)
        with Tape():
            taped = conv(Tensor(x), idx)
        assert taped.requires_grad  # the weights put the taped call on the tape
        untaped = conv(Tensor(x), idx)
        assert untaped.data.tobytes() == taped.data.tobytes()

    @staticmethod
    def peak_beyond_output(conv, x, idx, tape):
        tracemalloc.start()
        try:
            if tape:
                with Tape():
                    out = conv(x, idx)
            else:
                out = conv(x, idx)
            return tracemalloc.get_traced_memory()[1] - out.data.nbytes
        finally:
            tracemalloc.stop()

    def test_untaped_call_holds_fixed_blocks_beyond_its_output_and_projection(self):
        c, d = 8, 16
        block_bytes = self.B * (c + d) * 8  # one block of gathered rows and products
        rng = np.random.default_rng(3)
        conv = EdgeConvLayer(ParameterStore(), "c", c, d, rng)
        for m in (2 * self.B + 3, 8 * self.B):
            x, idx = Tensor(rng.normal(size=(m, c))), random_graph(rng, m, 6)
            projection = m * d * 8  # x . w2 once per point, gathered by every block
            assert self.peak_beyond_output(conv, x, idx, tape=False) - projection <= 3 * block_bytes, m
            # a taped call also keeps the winning neighbour of every output value
            assert self.peak_beyond_output(conv, x, idx, tape=True) >= m * d * 8, m

    def test_ratio_table_holds_fixed_blocks_and_winners_per_parent_row(self):
        c, d, r = 8, 16, 4
        out_block = r * self.B * d * 8  # the output rows of one block of parent rows
        rng = np.random.default_rng(4)
        conv = EdgeConvLayer(ParameterStore(), "c", c, d, rng)
        for m in (2 * r * self.B + 12, 8 * r * self.B):
            n = m // r
            x, idx = Tensor(rng.normal(size=(m, c))), expand_index(expand_index(random_graph(rng, n, 6)))
            untaped = self.peak_beyond_output(conv, x, idx, tape=False)
            # the projection holds one row per parent row; each block writes
            # its output rows in place, with no temporary of their size
            assert untaped - n * d * 8 < out_block, m
            # a taped call adds the winners of its n parent rows, not of all m rows
            extra = self.peak_beyond_output(conv, x, idx, tape=True) - untaped
            assert 0.9 * n * d * 8 < extra < 2 * n * d * 8, m

    def test_gradient_matches_finite_differences_beyond_one_block(self):
        # With K=1 and no output ReLU the layer is linear: no max or ReLU
        # kink over 515 rows can spoil a central difference.
        rng = np.random.default_rng(22)
        m = self.B + 3
        conv = EdgeConvLayer(ParameterStore(), "c", 2, 3, rng, activate_output=False)
        x = rng.normal(size=(m, 2))
        idx = random_graph(rng, m, 1)
        result = check_gradient("edgeconv/blocks", lambda t: ad.sum_all(conv(t, idx)), x)
        assert result.ok, result.detail


class TestDuplicateWithCode:
    def test_single_row(self):
        out = duplicate_with_code(Tensor([[7.0]]))
        assert np.array_equal(out.data, [[7.0, 1.0], [7.0, -1.0]])

    def test_codes_alternate(self):
        rng = np.random.default_rng(1)
        out = duplicate_with_code(Tensor(rng.normal(size=(4, 3)))).data
        assert np.array_equal(out[:, -1], [1.0, -1.0] * 4)

    def test_stripping_code_and_dedup_recovers_input(self):
        x = np.random.default_rng(2).normal(size=(5, 2))
        out = duplicate_with_code(Tensor(x)).data
        assert np.array_equal(out[0::2, :-1], x)
        assert np.array_equal(out[1::2, :-1], x)

    def test_children_differ_only_in_code_column(self):
        x = np.random.default_rng(3).normal(size=(6, 4))
        out = duplicate_with_code(Tensor(x)).data
        assert np.array_equal(out[0::2, :-1], out[1::2, :-1])
        assert np.all(out[0::2, -1] != out[1::2, -1])

    def test_gradient_accumulates_over_both_children(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(duplicate_with_code(x)))
        assert np.array_equal(x.grad, 2 * np.ones((3, 2)))


    def test_matches_repeat_reference_bit_for_bit(self):
        # loss = p . out . v gives every output row its own upstream gradient,
        # so the two children's contributions are summed in a visible order
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        p, v = rng.normal(size=(1, 14)), rng.normal(size=(4, 1))
        with Tape() as tape:
            out = duplicate_with_code(x)
            tape.backward(ad.sum_all(ad.matmul(ad.matmul(Tensor(p), out), Tensor(v))))
        codes = np.tile([[1.0], [-1.0]], (7, 1))
        assert np.array_equal(out.data, np.hstack([np.repeat(x.data, 2, axis=0), codes]))
        want = np.zeros((7, 3))
        np.add.at(want, np.repeat(np.arange(7), 2), (p.T @ v.T)[:, :3])
        assert np.array_equal(x.grad, want)

    @pytest.mark.parametrize("copies", [1, 3, 5])
    def test_any_copy_count_matches_repeat_reference(self, copies):
        # f children per row, contiguous, with codes linspace(1, -1, f); each
        # child passes its upstream gradient back to its parent row
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        p, v = rng.normal(size=(1, 4 * copies)), rng.normal(size=(4, 1))
        with Tape() as tape:
            out = duplicate_with_code(x, copies)
            tape.backward(ad.sum_all(ad.matmul(ad.matmul(Tensor(p), out), Tensor(v))))
        codes = np.tile(np.linspace(1.0, -1.0, copies)[:, None], (4, 1))
        assert np.array_equal(out.data, np.hstack([np.repeat(x.data, copies, axis=0), codes]))
        want = (p.T @ v.T)[:, :3].reshape(4, copies, 3).sum(axis=1)
        assert np.allclose(x.grad, want, rtol=0, atol=1e-12)
