import ast
import inspect
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puxp import autodiff as ad
from puxp import checks
from puxp.autodiff import ParameterStore, Tape, Tensor
from puxp.checks import _op_cases, check_gradient, finite_difference_gradient, run_op_gradient_checks
from puxp.errors import IndexRangeError, ShapeError
from puxp.geometry import IndexMatrix, expand_index, knn_bruteforce

from dense_reference import composed_dense, product, three_rule_dense_grads
from edgeconv_reference import composed_edge_conv, per_neighbour_edge_conv_grads, random_graph
from store_layout import assert_laid_out
from taped_ops import taped_op_cases


def grad_of(build_loss, x):
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        loss = build_loss(xt)
        tape.backward(loss)
    return xt.grad


class TestTensor:
    def test_rejects_rank_4(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_rejects_rank_3(self):
        with pytest.raises(ShapeError, match="rank"):
            Tensor(np.zeros((2, 2, 2)))

    def test_reshape_rejects_rank_3_target(self):
        with pytest.raises(ShapeError, match="rank"):
            ad.reshape(Tensor(np.zeros((2, 4))), (2, 2, 2))

    def test_scalar_promoted_to_rank_1(self):
        t = Tensor(3.0)
        assert t.shape == (1,)
        assert t.item() == 3.0

    def test_item_needs_one_element(self):
        with pytest.raises(ShapeError, match=r"^item\(\) needs a one-element tensor, got shape \(2,\)$"):
            Tensor([1.0, 2.0]).item()

    def test_reshape_rejects_another_element_count(self):
        with pytest.raises(ShapeError, match=r"^reshape: cannot view \(2, 4\) as \(3, 3\)$"):
            ad.reshape(Tensor(np.zeros((2, 4))), (3, 3))

    def test_data_is_float64_and_contiguous(self):
        t = Tensor(np.arange(6, dtype=np.int32).reshape(2, 3))
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("dtype, kept", [(np.float32, np.float32), (np.float64, np.float64),
                                             (np.int32, np.float64), (np.float16, np.float64)])
    def test_keeps_float32_and_float64_and_widens_any_other_dtype(self, dtype, kept):
        data = np.arange(6, dtype=dtype).reshape(3, 2)
        t = Tensor(data.T)  # not contiguous
        assert t.data.dtype == kept and t.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(t.data, data.T)


def weighted_sum(out, g):
    """sum(g * out) as a 1 x 1 product, so the gradient reaching out is g exactly."""
    return product(ad.reshape(out, (1, g.size)), Tensor(g.reshape(-1, 1)))


class TestDense:
    def test_identity(self):
        out = product(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    @pytest.mark.parametrize("activate, want", [(True, [[0.0, 3.0]]), (False, [[-9.0, 3.0]])])
    def test_hand_layer(self, activate, want):
        # [1, 2] . [[3, 1], [4, 1]] = [11, 3], plus the bias [-20, 0]
        out = ad.dense(Tensor([[1.0, 2.0]]), Tensor([[3.0, 1.0], [4.0, 1.0]]), Tensor([-20.0, 0.0]), activate)
        assert np.array_equal(out.data, want)

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_size",
        [((2, 3), (2, 3), 3), ((2, 3), (3, 4), 3), ((3,), (3, 4), 4), ((2, 3), (3, 4), 1)],
    )
    def test_shape_mismatch_names_every_shape(self, x_shape, w_shape, b_size):
        with pytest.raises(ShapeError, match=rf"^dense: shapes \({x_shape[0]},.*\({w_shape[0]}, {w_shape[1]}\)"):
            ad.dense(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_size)), True)

    def test_gradient_matches_finite_differences_seed7(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = Tensor(rng.normal(size=(4, 2)))
        result = check_gradient("dense", lambda t: ad.sum_all(product(t, b)), a)
        assert result.ok, result.detail

    def relu(self, x):
        return ad.dense(x, Tensor(np.eye(x.shape[1])), Tensor(np.zeros(x.shape[1])), True)

    def test_relu_forward(self):
        out = self.relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_relu_all_negative_is_all_zero(self):
        out = self.relu(Tensor([[-3.0, -0.5], [-1.0, -2.0]]))
        assert np.all(out.data == 0.0)

    def test_relu_gradient_matches_finite_differences(self):
        x = np.array([[-1.0, 2.0]])
        analytic = grad_of(lambda t: ad.sum_all(self.relu(t)), x)
        estimate = finite_difference_gradient(lambda a: ad.sum_all(self.relu(Tensor(a))).item(), x)
        assert np.array_equal(analytic, [[0.0, 1.0]])
        assert np.allclose(analytic, estimate, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("frozen", [None, 0, 1, 2])
    @pytest.mark.parametrize("activate", [True, False])
    def test_matches_three_rule_reference_bit_for_bit(self, activate, frozen):
        rng = np.random.default_rng(50 + (frozen or 0))
        x, w, b = rng.normal(size=(40, 5)), rng.normal(size=(5, 7)), rng.normal(size=7)
        x[3], b[2] = 0.0, 0.0  # pre-activations of exactly zero: ReLU passes no gradient there
        g = rng.normal(size=(40, 7)) * rng.uniform(0.1, 10.0, size=7)  # uneven per channel, half negative
        inputs = [Tensor(a, requires_grad=i != frozen) for i, a in enumerate((x, w, b))]
        with Tape() as tape:
            out = ad.dense(*inputs, activate)
            tape.backward(weighted_sum(out, g))
        assert out.data.tobytes() == composed_dense(x, w, b, activate).tobytes()
        assert out.data.tobytes() == ad.dense(Tensor(x), Tensor(w), Tensor(b), activate).data.tobytes()
        for i, (t, want) in enumerate(zip(inputs, three_rule_dense_grads(x, w, b, activate, g))):
            if i == frozen:
                assert t.grad is None
            else:
                assert t.grad.tobytes() == want.tobytes(), i


class TestFloat32Ops:
    """Each op computes in its operands' dtype; dense can be asked for a wider one."""

    @pytest.mark.parametrize("activate", [True, False])
    def test_dense_of_float32_operands_is_float32(self, activate):
        rng = np.random.default_rng(60)
        x, w, b = rng.normal(size=(30, 5)), rng.normal(size=(5, 4)), rng.normal(size=4)
        out = ad.dense(*(Tensor(a.astype(np.float32)) for a in (x, w, b)), activate)
        assert out.data.dtype == np.float32
        assert np.allclose(out.data, ad.dense(Tensor(x), Tensor(w), Tensor(b), activate).data, rtol=1e-5, atol=1e-5)

    def test_dense_widens_float32_rows_a_block_at_a_time(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(3 * ad._WIDEN_ROWS + 5, 32)).astype(np.float32)
        w, b = rng.normal(size=(32, 3)).astype(np.float32), rng.normal(size=3).astype(np.float32)
        tracemalloc.start()
        try:
            out = ad.dense(Tensor(x), Tensor(w), Tensor(b), False, np.float64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.dtype == np.float64
        assert peak < x.nbytes, peak  # a float64 copy of all of x is twice that
        want = x.astype(np.float64) @ w.astype(np.float64) + b.astype(np.float64)
        assert np.allclose(out.data, want, rtol=1e-12, atol=1e-12)

    def test_edge_conv_of_float32_operands_is_float32(self):
        rng = np.random.default_rng(62)
        x, idx = rng.normal(size=(600, 3)), knn_bruteforce(rng.normal(size=(600, 3)), 5)  # more rows than a block
        w, b = rng.normal(size=(6, 4)), rng.normal(size=4)
        narrow = ad.edge_conv(Tensor(x.astype(np.float32)), idx, Tensor(w.astype(np.float32)),
                              Tensor(b.astype(np.float32)), True)
        assert narrow.data.dtype == np.float32
        wide = ad.edge_conv(Tensor(x), idx, Tensor(w), Tensor(b), True).data
        assert np.allclose(narrow.data, wide, rtol=1e-5, atol=1e-5)

    def test_concat_and_reshape_keep_float32(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32))
        assert ad.concat_last(a, a).data.dtype == np.float32
        assert ad.reshape(a, (3, 2)).data.dtype == np.float32
        assert ad.shuffle_expand(a, 3).data.dtype == np.float32


class TestConcatLast:
    def test_rows_concatenate(self):
        out = ad.concat_last(Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_zero_width_second_input(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.concat_last(Tensor(a), Tensor(np.zeros((2, 0))))
        assert np.array_equal(out.data, a)

    def test_leading_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat_last(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))

    def test_rejects_rank_1_operand(self):
        with pytest.raises(ShapeError):
            ad.concat_last(Tensor(np.zeros(2)), Tensor(np.zeros(2)))

    def test_backward_splits_ones(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.concat_last(a, b)))
        assert np.array_equal(a.grad, np.ones((2, 2)))
        assert np.array_equal(b.grad, np.ones((2, 3)))


class TestEdgeConv:
    def weights(self, rng, c, d):
        return Tensor(rng.normal(size=(2 * c, d))), Tensor(rng.normal(size=d))

    @pytest.mark.parametrize("activate", [True, False])
    @pytest.mark.parametrize("m", [7, 1100])  # one block, three blocks
    def test_matches_composed_reference(self, m, activate):
        rng = np.random.default_rng(m)
        x = rng.normal(size=(m, 4))
        x[1::3] = x[0::3][: len(x[1::3])]  # duplicated rows: exact ties in the max
        idx = random_graph(rng, m, 5)
        w, b = self.weights(rng, 4, 6)
        got = ad.edge_conv(Tensor(x), idx, w, b, activate).data
        want = composed_edge_conv(Tensor(x), idx, w, b, activate).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("activate", [True, False])
    @pytest.mark.parametrize("m", [7, 1100])  # one block, three blocks
    def test_backward_matches_per_neighbour_reference(self, m, activate):
        rng = np.random.default_rng(m + 1)
        x = rng.normal(size=(m, 4))
        x[1::3] = x[0::3][: len(x[1::3])]  # duplicated rows: exact ties in the max
        idx = random_graph(rng, m, 5)
        w, b = self.weights(rng, 4, 6)
        g = rng.normal(size=(m, 6)) * rng.uniform(0.1, 10.0, size=6)  # uneven per channel
        xt = Tensor(x, requires_grad=True)
        w.requires_grad = b.requires_grad = True
        with Tape() as tape:
            out = ad.edge_conv(xt, idx, w, b, activate)
            tape.backward(weighted_sum(out, g))
        reference = per_neighbour_edge_conv_grads(xt, idx, w, b, activate, g)
        for got, want in zip((xt.grad, w.grad, b.grad), reference):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("activate", [True, False])
    @pytest.mark.parametrize("n", [7, 600])  # 600 parent rows cross a 512-row block
    @pytest.mark.parametrize("r", [2, 3, 4, 6, 8])
    def test_ratio_table_matches_its_materialised_entries(self, r, n, activate):
        rng = np.random.default_rng(100 * r + n)
        idx = expand_index(random_graph(rng, n, 5), r)
        x = rng.normal(size=(n * r, 4))
        heads = x[::r]  # the rows every child lists: duplicate some for exact ties in the max
        heads[1::3] = heads[0::3][: len(heads[1::3])]
        w, b = self.weights(rng, 4, 6)
        w.requires_grad = b.requires_grad = True
        g = rng.normal(size=(n * r, 6)) * rng.uniform(0.1, 10.0, size=6)  # uneven per channel
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ad.edge_conv(xt, idx, w, b, activate)
            tape.backward(weighted_sum(out, g))
        entries = IndexMatrix(idx.entries)  # the same table at ratio 1, every row stored
        assert out.data.tobytes() == ad.edge_conv(Tensor(x), entries, w, b, activate).data.tobytes()
        reference = per_neighbour_edge_conv_grads(xt, entries, w, b, activate, g)
        for got, want in zip((xt.grad, w.grad, b.grad), reference):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("activate", [True, False])
    @pytest.mark.parametrize("k", [1, 16])  # k = 16: winners run up to 15; k = 1: every winner is 0
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_train_shape_tape_matches_references(self, r, k, activate):
        rng = np.random.default_rng(200 + 10 * r + k)
        n, c, d = 600, 2, 64  # 600 parent rows cross a 512-row block; d as in the backbone
        idx = expand_index(random_graph(rng, n, k), r)
        x = rng.normal(size=(n * r, c))
        x[::r] = np.round(x[::r] * 2.0) / 2.0  # heads on a 0.5 grid: ~5% of the maxima tie at k = 16
        w, b = self.weights(rng, c, d)
        w.requires_grad = b.requires_grad = True
        g = rng.normal(size=(n * r, d)) * rng.uniform(0.1, 10.0, size=d)  # uneven per channel
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ad.edge_conv(xt, idx, w, b, activate)
            tape.backward(weighted_sum(out, g))
        assert out.data.tobytes() == ad.edge_conv(Tensor(x), idx, w, b, activate).data.tobytes()
        reference = per_neighbour_edge_conv_grads(xt, idx.entries, w, b, activate, g)
        for got, want in zip((xt.grad, w.grad, b.grad), reference):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 600),
        r=st.sampled_from([1, 2, 3, 4]),
        k=st.integers(1, 8),
        c=st.integers(1, 8),
        d=st.integers(1, 8),
        activate=st.booleans(),
    )
    def test_property_matches_composed_reference(self, seed, n, r, k, c, d, activate):
        rng = np.random.default_rng(seed)
        idx = expand_index(random_graph(rng, n, min(k, n - 1)), r)
        x = rng.normal(size=(idx.rows, c))
        heads = x[:: idx.ratio]  # the rows every child lists: duplicates give exact ties in the max
        heads[1::3] = heads[0::3][: len(heads[1::3])]
        w, b = self.weights(rng, c, d)
        untaped = ad.edge_conv(Tensor(x), idx, w, b, activate).data
        want = composed_edge_conv(Tensor(x), idx, w, b, activate).data
        assert np.max(np.abs(untaped - want)) <= 1e-12 * np.max(np.abs(want))
        with Tape():
            taped = ad.edge_conv(Tensor(x, requires_grad=True), idx, w, b, activate)
        assert taped.requires_grad
        assert taped.data.tobytes() == untaped.tobytes()

    @pytest.mark.parametrize("tape", [False, True])
    @pytest.mark.parametrize("r", [1, 4])
    def test_nan_row_reaches_every_row_that_reads_it(self, r, tape):
        # np.maximum, not np.fmax: a diverged feature must reach the loss
        rng = np.random.default_rng(30 + r)
        idx = random_graph(rng, 40, 5)
        while idx.ratio < r:
            idx = expand_index(idx)
        x = rng.normal(size=(idx.rows, 3))
        p = 7
        x[r * p, 1] = np.nan  # the row every child of a parent row listing p reads
        w, b = self.weights(rng, 3, 4)
        xt = Tensor(x, requires_grad=tape)
        if tape:
            with Tape():
                out = ad.edge_conv(xt, idx, w, b, True).data
        else:
            out = ad.edge_conv(xt, idx, w, b, True).data
        readers = np.flatnonzero((idx.entries == r * p).any(axis=1))
        assert readers.size
        expected = np.zeros(idx.rows, dtype=bool)
        expected[readers] = True
        expected[r * p] = True  # its own output, through the centre term
        assert np.array_equal(~np.isfinite(out).all(axis=1), expected)
        assert np.isnan(out[expected]).all()

    def test_ratio_table_tie_gradient_goes_to_first_neighbour(self):
        # out[i] = -x[i] + max_k x[2 p_k]; parent row 0 lists points 1 and 2,
        # whose rows 2 and 4 tie at 2; rows 0 and 1 are parent row 0's children
        x = Tensor([[0.0], [1.0], [2.0], [3.0], [2.0], [5.0]], requires_grad=True)
        w = Tensor([[0.0], [1.0]], requires_grad=True)
        idx = expand_index(IndexMatrix([[1, 2], [0, 2], [0, 1]]))
        with Tape() as tape:
            out = ad.edge_conv(x, idx, w, Tensor([0.0]), activate=False)
            tape.backward(ad.sum_all(out))
        assert np.array_equal(out.data, [[2.0], [1.0], [0.0], [-1.0], [0.0], [-3.0]])
        # row 2 wins for parent rows 0 (the tie) and 2, row 4 for parent row 1:
        # two children each, on top of the -1 every row gets from its centre term
        assert np.array_equal(x.grad, [[-1.0], [-1.0], [3.0], [-1.0], [1.0], [-1.0]])
        # d/dw1 = sum x_i = 13; d/dw2 = -13 + six winners of 2
        assert np.array_equal(w.grad, [[13.0], [-1.0]])

    @staticmethod
    def backward_peak(k, m=4096, c=8, d=16):
        rng = np.random.default_rng(k)
        x = Tensor(rng.normal(size=(m, c)), requires_grad=True)
        w = Tensor(rng.normal(size=(2 * c, d)), requires_grad=True)
        b = Tensor(rng.normal(size=d), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.edge_conv(x, random_graph(rng, m, k), w, b, True))
        tracemalloc.start()
        try:
            tape.backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_backward_peak_memory_does_not_grow_with_k(self):
        # no per-neighbour or M x K x D temporary in the backward
        assert self.backward_peak(32) <= 1.25 * self.backward_peak(4)

    def test_tie_gradient_goes_to_first_neighbour(self):
        # out[i] = -x[i] + max_k x[j_k]; row 0's neighbours 1 and 2 tie at 2,
        # and rows 1 and 2 each have one neighbour at 2, which wins
        x = Tensor([[0.0], [2.0], [2.0]], requires_grad=True)
        w = Tensor([[0.0], [1.0]], requires_grad=True)
        idx = IndexMatrix([[1, 2], [0, 2], [0, 1]])
        with Tape() as tape:
            out = ad.edge_conv(x, idx, w, Tensor([0.0]), activate=False)
            tape.backward(ad.sum_all(out))
        assert np.array_equal(out.data, [[2.0], [0.0], [0.0]])
        # row 1 won row 0's tie, not row 2: rows 1 and 2 win once more each
        assert np.array_equal(x.grad, [[-1.0], [1.0], [0.0]])
        # d/dw1 = sum x_i = 4; d/dw2 = -sum x_i + winners (2 + 2 + 2) = 2
        assert np.array_equal(w.grad, [[4.0], [2.0]])

    def test_relu_blocks_gradient_of_negative_outputs(self):
        x = Tensor([[1.0], [-1.0]], requires_grad=True)
        w = Tensor([[1.0], [0.0]])  # out[i] = relu(x[i])
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.edge_conv(x, IndexMatrix([[1], [0]]), w, Tensor([0.0]), True)))
        assert np.array_equal(x.grad, [[1.0], [0.0]])

    def test_untaped_output_needs_no_grad(self):
        rng = np.random.default_rng(0)
        w, b = self.weights(rng, 2, 3)
        w.requires_grad = True
        out = ad.edge_conv(Tensor(rng.normal(size=(4, 2))), IndexMatrix([[1], [2], [3], [0]]), w, b, True)
        assert not out.requires_grad

    @pytest.mark.parametrize(
        "x_shape, idx, w_shape, b_size",
        [
            ((3, 2), np.zeros((3, 0), dtype=np.int64), (4, 5), 5),  # K = 0, not an IndexMatrix
            ((3, 2), IndexMatrix([[1], [0]]), (4, 5), 5),  # rows differ
            ((3, 2), IndexMatrix([[1], [2], [0]]), (2, 5), 5),  # w not 2C rows
            ((3, 2), IndexMatrix([[1], [2], [0]]), (4, 5), 4),  # bias width
            ((3, 2), np.zeros((3, 1)), (4, 5), 5),  # float index, not an IndexMatrix
            ((3,), IndexMatrix([[1], [2], [0]]), (4, 5), 5),  # rank-1 source
        ],
    )
    def test_rejects_bad_shapes(self, x_shape, idx, w_shape, b_size):
        with pytest.raises(ShapeError):
            ad.edge_conv(Tensor(np.zeros(x_shape)), idx, Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_size)), True)

    def test_out_of_range_names_value(self):
        # the IndexMatrix check is the one range check before edge_conv
        with pytest.raises(IndexRangeError, match="9"):
            IndexMatrix(np.array([[1], [9]]))

    def test_index_matrix_tables_cannot_change_after_their_check(self):
        # edge_conv trusts an IndexMatrix, so no table may be broken after it is validated
        source = np.array([[1], [0]])
        idx = IndexMatrix(source)
        source[0, 0] = 0  # row 0 would list itself
        assert idx.parent.tolist() == [[1], [0]]
        for table in (idx, expand_index(expand_index(idx)), knn_bruteforce(np.eye(3), 1)):
            with pytest.raises(ValueError, match="read-only"):
                table.parent[1, 0] = 9
            with pytest.raises(AttributeError):
                table.parent = np.array([[9], [0]])
            with pytest.raises(AttributeError):
                table.ratio = 0

    @pytest.mark.parametrize("bad", [36, -1])
    def test_out_of_range_raw_table_names_index_and_rows(self, bad):
        table = np.array([[1], [0], [3], [2], [5], [4], [7], [6]])
        table[5, 0] = bad
        with pytest.raises(IndexRangeError, match=f"^neighbor index {bad} out of range for 8 rows$"):
            IndexMatrix(table)


class TestShuffleExpand:
    def test_layout(self):
        out = ad.shuffle_expand(Tensor([[1.0, 2.0, 3.0, 4.0]]), 2)
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_ratio_1_is_identity(self):
        x = np.arange(8, dtype=np.float64).reshape(2, 4)
        assert np.array_equal(ad.shuffle_expand(Tensor(x), 1).data, x)

    def test_preserves_element_multiset(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 6))
        out = ad.shuffle_expand(Tensor(x), 3)
        assert np.array_equal(np.sort(out.data, axis=None), np.sort(x, axis=None))

    def test_non_divisible_channel_count(self):
        with pytest.raises(ShapeError):
            ad.shuffle_expand(Tensor(np.zeros((2, 5))), 2)

    def test_rejects_rank_1(self):
        with pytest.raises(ShapeError, match=r"^shuffle_expand: need a rank-2 tensor, got shape \(4,\)$"):
            ad.shuffle_expand(Tensor(np.zeros(4)), 2)


class TestTape:
    def test_no_tape_means_no_grad_tracking(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = ad.dense(x, Tensor(np.eye(2)), Tensor(np.zeros(2)), True)
        assert not out.requires_grad

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.concat_last(x, x)))
        assert np.array_equal(x.grad, 2 * np.ones((2, 2)))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = ad.dense(x, Tensor(np.eye(2)), Tensor(np.zeros(2)), True)
            with pytest.raises(ShapeError):
                tape.backward(out)

    def test_tapes_exited_out_of_order_raise(self):
        with Tape() as outer:
            Tape().__enter__()
            with pytest.raises(RuntimeError, match="^gradient tapes exited out of order$"):
                outer.__exit__(None, None, None)  # pops the inner tape
        assert ad._TAPES == []

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        one = product(Tensor(a), Tensor(b)).data
        two = product(Tensor(a), Tensor(b)).data
        assert np.array_equal(one, two)


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError, match="w"):
            store.add("w", np.zeros(2))

    def test_iteration_order_is_insertion_order(self):
        store = ParameterStore()
        for name in ("b", "a", "c"):
            store.add(name, np.zeros(1))
        assert store.names() == ["b", "a", "c"]

    def test_value_count(self):
        store = ParameterStore()
        store.add("w", np.zeros((3, 4)))
        store.add("b", np.zeros(4))
        assert store.value_count() == 16

    def test_layout_is_insertion_order_and_copies_values(self):
        store = ParameterStore()
        store.add("w", np.arange(6.0).reshape(2, 3))
        store.add("b", np.array([7.0, 8.0]))
        assert_laid_out(store)
        assert np.array_equal(store.values, [0, 1, 2, 3, 4, 5, 7, 8])
        assert np.array_equal(store.offsets, [0, 6, 8])
        store.values[6] = -1.0  # a write through the buffer is a write to the parameter
        assert store["b"].data[0] == -1.0

    def test_layout_copies_gradients_taped_before_it(self):
        store = ParameterStore()
        w = store.add("w", np.array([[2.0], [3.0]]))
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.dense(Tensor([[1.0, 5.0]]), w.tensor, Tensor([0.0]), False)))
        taped = w.grad.copy()
        assert_laid_out(store)
        assert np.array_equal(w.grad, taped) and np.array_equal(store.grads, [1.0, 5.0])

    def test_tape_accumulates_into_the_grad_views(self):
        store = ParameterStore()
        w = store.add("w", np.array([[2.0], [3.0]]))
        store.zero_grads()
        for _ in range(2):
            with Tape() as tape:
                tape.backward(ad.sum_all(ad.dense(Tensor([[1.0, 5.0]]), w.tensor, Tensor([0.0]), False)))
        assert_laid_out(store)
        assert np.array_equal(store.grads, [2.0, 10.0])
        store.zero_grads()
        assert not store.grads.any() and not w.grad.any()

    def test_a_store_of_drawn_values_is_float64(self):
        store = ParameterStore()
        store.add("w", np.arange(3.0))
        assert store.dtype == np.float64 and store.grads.dtype == np.float64

    def test_load_lays_float32_values_out_in_float32_as_copies(self):
        store = ParameterStore()
        store.add("w", np.zeros((2, 3)))
        store.add("b", np.zeros(2))
        store.zero_grads()
        loaded = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.array([7.0, 8.0], dtype=np.float32)}
        store.load(loaded)
        assert_laid_out(store)
        assert store.dtype == np.float32 and store.grads.dtype == np.float32 and not store.grads.any()
        assert np.array_equal(store.values, [0, 1, 2, 3, 4, 5, 7, 8])
        loaded["b"][0] = -1.0  # the store holds its own copy
        assert store["b"].data[0] == 7.0
        store.load({name: values.astype(np.float64) for name, values in loaded.items()})
        assert store.dtype == np.float64 and np.array_equal(store.values, [0, 1, 2, 3, 4, 5, -1, 8])

    def test_add_after_layout_keeps_values_and_grads(self):
        store = ParameterStore()
        store.add("w", np.array([1.0, 2.0]))
        store.zero_grads()  # lays the buffers out
        store["w"].grad[...] = [3.0, 4.0]
        before = store.values
        store.add("b", np.array([5.0]))
        assert_laid_out(store)
        assert store.values is not before
        assert np.array_equal(store.values, [1.0, 2.0, 5.0])
        assert np.array_equal(store.grads, [3.0, 4.0, 0.0])


def test_full_op_gradient_suite_passes():
    results = run_op_gradient_checks(seed=7)
    failing = [r for r in results if not r.ok]
    assert not failing, failing


def test_a_rule_off_by_one_percent_fails_at_every_step(monkeypatch):
    def doubled(x):  # the gradient of 2x is 2, and this rule says 2.02
        return ad.record_op(Tensor(2.0 * x.data), (x,), lambda g: (2.02 * g,))

    steps = []
    fd = checks.finite_difference_gradient
    monkeypatch.setattr(
        checks, "finite_difference_gradient", lambda f, x, step, entries: steps.append(step) or fd(f, x, step, entries)
    )
    result = check_gradient("doubled", lambda t: ad.sum_all(doubled(t)), np.random.default_rng(0).normal(size=(3, 2)))
    assert not result.ok
    assert steps == list(checks.FD_STEPS)
    assert result.detail.startswith("max abs gradient error 2.0")


def _public_ops():
    """Top-level functions of puxp.autodiff that record a backward rule."""
    tree = ast.parse(inspect.getsource(ad))
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and any(getattr(n, "id", None) == "record_op" for n in ast.walk(node))
    ]


def _called_ops(tree, bare):
    """Names called as ad.<name> (or bare <name> if `bare`) in `tree`, outside
    checks._op_cases: an op whose only caller is its own gradcheck is unused."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "_op_cases":
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if bare and isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "ad":
                names.add(func.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_op_has_a_caller_and_a_gradcheck_case():
    ops = _public_ops()
    assert sorted(ops) == ["concat_last", "dense", "edge_conv", "reshape", "sum_all"]
    called = set()
    for path in pathlib.Path(ad.__file__).parent.glob("*.py"):
        called |= _called_ops(ast.parse(path.read_text(encoding="utf-8")), bare=path.name == "autodiff.py")
    cased = {name.split("/", 1)[0] for name, _, _ in _op_cases(seed=0)}
    assert [op for op in ops if op not in called] == []
    assert [op for op in ops if op not in cased] == []


def test_every_taped_op_has_a_contract_case():
    assert sorted(taped_op_cases()) == sorted([*_public_ops(), "chamfer_loss"])


@pytest.mark.parametrize("name", sorted(taped_op_cases()))
def test_record_op_gates_and_accumulates_every_rule(name):
    arrays, call = taped_op_cases()[name]

    def run(frozen=None, on_loss_path=True):
        inputs = [Tensor(a, requires_grad=i != frozen) for i, a in enumerate(arrays)]
        with Tape() as tape:
            out = call(*inputs)
            loss = ad.sum_all(out if on_loss_path else Tensor(np.ones(2), requires_grad=True))
            tape.backward(loss)
        return out, [t.grad for t in inputs]

    # taped, but off the loss path: its rule runs, adds nothing and raises nothing
    out, grads = run(on_loss_path=False)
    assert out.requires_grad and out.grad is None
    assert grads == [None] * len(arrays)
    _, full = run()
    assert [g.shape for g in full] == [a.shape for a in arrays]
    # an input that needs no gradient gets none; the others get theirs, unchanged
    for frozen in range(len(arrays)):
        out, grads = run(frozen)
        assert out.requires_grad == (len(arrays) > 1)
        assert grads[frozen] is None
        for i, (g, want) in enumerate(zip(grads, full)):
            if i != frozen:
                assert np.array_equal(g, want), (name, frozen, i)
