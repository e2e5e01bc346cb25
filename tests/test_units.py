import hashlib

import numpy as np
import pytest

from puxp import autodiff as ad
from puxp import checks
from puxp.autodiff import ParameterStore, Tensor
from puxp.checks import check_gradient, run_unit_gradient_checks
from puxp.errors import ConfigError
from puxp.geometry import IndexMatrix, PointCloud, expand_index, knn_bruteforce
from puxp.pipeline import BackboneSpec, UpsamplingModel
from puxp.units import (
    _UNIT_CLASSES,
    GRAPH_KINDS,
    INDEX_MODES,
    UNIT_KINDS,
    ExpansionContext,
    ExpansionSpec,
    RegressionStage,
    build_unit,
    expanded_graph,
    prime_factors,
    run_index_mode,
)


def make_context(n=6, c=4, k=3, seed=0, nonneg=False):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(size=(n, 3)))
    base = knn_bruteforce(cloud, k)
    feats = rng.normal(size=(n, c))
    if nonneg:
        feats = np.abs(feats) + 0.1
    return ExpansionContext(cloud, base, Tensor(feats)), rng


def build(kind, ratio=2, channels=4, k=3, seed=1, **kw):
    spec = ExpansionSpec(kind=kind, ratio=ratio, channels=channels, k=k, **kw)
    store = ParameterStore()
    unit = build_unit(store, spec, np.random.default_rng(seed))
    return unit, store, spec


class TestExpansionSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown unit kind"):
            ExpansionSpec(kind="magic", ratio=2, channels=4)

    @pytest.mark.parametrize("index_mode", INDEX_MODES)
    def test_proedgeshuffle_expands_at_ratio_32(self, index_mode):
        # no ratio cap: five doubling rounds give 32 N rows and a valid graph over them
        ctx, _ = make_context(n=6, c=4, k=3)
        unit, _, _ = build("proedgeshuffle", ratio=32, index_mode=index_mode)
        out = unit.expand(ctx)
        assert out.features.shape == (32 * 6, 4)
        assert (out.index.rows, out.index.k) == (32 * 6, 3)
        IndexMatrix(out.index.entries)  # passes every public check

    def test_graph_kinds_need_k(self):
        with pytest.raises(ConfigError, match="neighbor count"):
            ExpansionSpec(kind="nodeshuffle", ratio=2, channels=4)

    @pytest.mark.parametrize("kind", [k for k in UNIT_KINDS if k != "proedgeshuffle"])
    def test_feature_knn_only_for_proedgeshuffle(self, kind):
        with pytest.raises(ConfigError, match=f"read only by proedgeshuffle, not by '{kind}'"):
            ExpansionSpec(kind=kind, ratio=2, channels=4, k=4, index_mode="feature_knn")

    def test_regression_mode_defaults(self):
        assert ExpansionSpec(kind="branch", ratio=2, channels=4).regression_mode == "direct"
        pro = ExpansionSpec(kind="proedgeshuffle", ratio=2, channels=4, k=4)
        assert pro.regression_mode == "edgeconv_before"

    def test_prime_factors_ascend_and_multiply_back(self):
        assert [prime_factors(n) for n in (1, 2, 3, 4, 6, 12, 16, 30)] == [
            [], [2], [3], [2, 2], [2, 3], [2, 2, 3], [2, 2, 2, 2], [2, 3, 5],
        ]
        for n in range(1, 200):
            factors = prime_factors(n)
            assert factors == sorted(factors) and int(np.prod(factors)) == n
            assert all(prime_factors(f) == [f] for f in factors)

    def test_prime_factors_of_a_large_prime_stop_at_its_square_root(self):
        # 2^31 - 1 is prime: trial division up to sqrt(n) takes ~46,000 steps, not n
        assert prime_factors(2**31 - 1) == [2**31 - 1]
        assert prime_factors(2 * (2**31 - 1)) == [2, 2**31 - 1]

    def test_kind_order_is_pinned(self):
        # CLI choices, compare rows and the gradcheck names follow this order
        assert UNIT_KINDS == (
            "branch", "duplicate", "single_mlp", "multilayer_mlp", "progressive_mlp",
            "nodeshuffle", "proedgeshuffle",
        )
        assert GRAPH_KINDS == ("nodeshuffle", "proedgeshuffle")

    # kind: (reads_graph, index_modes, regression_default)
    RULES = {
        "branch": (False, ("expand",), "direct"),
        "duplicate": (False, ("expand",), "direct"),
        "single_mlp": (False, ("expand",), "direct"),
        "multilayer_mlp": (False, ("expand",), "direct"),
        "progressive_mlp": (False, ("expand",), "direct"),
        "nodeshuffle": (True, ("expand",), "direct"),
        "proedgeshuffle": (True, ("expand", "feature_knn"), "edgeconv_before"),
    }

    @pytest.mark.parametrize("kind", [*UNIT_KINDS, "magic"])
    def test_a_unit_runs_expand_unless_it_reads_the_mode_asked_for(self, kind):
        modes = self.RULES.get(kind, (None, ("expand",)))[1]
        for mode in INDEX_MODES:
            assert run_index_mode(kind, mode) == (mode if mode in modes else "expand")

    @pytest.mark.parametrize("kind", UNIT_KINDS)
    def test_spec_accepts_exactly_what_the_class_declares(self, kind):
        cls = _UNIT_CLASSES[kind]
        rules = (cls.reads_graph, cls.index_modes, cls.regression_default)
        assert rules == self.RULES[kind]
        for ratio in range(1, 33):
            for mode in INDEX_MODES:
                if mode not in cls.index_modes:
                    with pytest.raises(ConfigError) as err:
                        ExpansionSpec(kind, ratio, 4, k=3, index_mode=mode)
                    assert str(err.value) == f"index mode '{mode}' is read only by proedgeshuffle, not by '{kind}'"
                    continue
                spec = ExpansionSpec(kind, ratio, 4, k=3, index_mode=mode)
                assert (spec.k, spec.index_mode) == (3 if cls.reads_graph else None, mode)
                assert spec.regression_mode == cls.regression_default
                if cls.reads_graph:
                    with pytest.raises(ConfigError) as err:
                        ExpansionSpec(kind, ratio, 4, index_mode=mode)
                    assert str(err.value) == f"unit '{kind}' needs a neighbor count k"


class TestPowerOfTwoPin:
    # One sha256 over the parameter names, initial parameter bytes and expand
    # output of every unit (proedgeshuffle in both index modes) at r = 1..16,
    # recorded before the units grew one round per prime factor of r. The
    # outputs run through matmul, so the bytes belong to the BLAS kernel they
    # were recorded under, OpenBLAS SkylakeX: the pin holds under Haswell and
    # fails under Sandybridge.
    DIGEST = "d00d9ad74ec3f844090357a522d91a925d82c92a17f8a02b1e61fa079b7e6e58"

    def test_units_at_powers_of_two_are_byte_identical(self):
        digest = hashlib.sha256()
        ctx, _ = make_context(n=6, c=4, k=3)
        for kind in UNIT_KINDS:
            for mode in _UNIT_CLASSES[kind].index_modes:
                for ratio in (1, 2, 4, 8, 16):
                    unit, store, _ = build(kind, ratio=ratio, index_mode=mode)
                    for param in store:
                        digest.update(param.name.encode())
                        digest.update(np.ascontiguousarray(param.data).tobytes())
                    out = unit.expand(ctx)
                    digest.update(out.features.data.tobytes())
                    if out.index is not None:
                        digest.update(np.ascontiguousarray(out.index.entries).tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestUniversalShapeLaw:
    @pytest.mark.parametrize("kind", UNIT_KINDS)
    @pytest.mark.parametrize("ratio", [2, 4])
    def test_output_rows_and_block_layout(self, kind, ratio):
        ctx, _ = make_context(n=6, c=4, k=3)
        unit, _, _ = build(kind, ratio=ratio)
        out = unit.expand(ctx)
        assert out.features.shape == (ratio * 6, unit.spec.channels)

    @pytest.mark.parametrize("kind", UNIT_KINDS)
    def test_every_kind_expands_at_every_ratio_up_to_32(self, kind):
        ctx, _ = make_context(n=3, c=2, k=2)
        for ratio in range(1, 33):
            unit, _, _ = build(kind, ratio=ratio, channels=2, k=2)
            assert unit.expand(ctx).features.shape == (3 * ratio, 2)


class TestBranchUnit:
    def test_ratio_1_identity_weights_pass_nonneg_input(self):
        ctx, _ = make_context(n=4, c=3, nonneg=True)
        unit, store, _ = build("branch", ratio=1, channels=3)
        store["unit.branch0.w0"].tensor.data[:] = np.eye(3)
        store["unit.branch0.w1"].tensor.data[:] = np.eye(3)
        out = unit.expand(ctx)
        assert np.allclose(out.features.data, ctx.features.data, atol=1e-15)

    def test_zero_input_zero_output(self):
        # biases start at zero, so a zero feature map stays zero
        cloud = PointCloud(np.random.default_rng(0).normal(size=(4, 3)))
        ctx = ExpansionContext(cloud, knn_bruteforce(cloud, 2), Tensor(np.zeros((4, 3))))
        unit, _, _ = build("branch", ratio=2, channels=3)
        assert np.all(unit.expand(ctx).features.data == 0.0)

    def test_hand_computed_two_branches(self):
        # scalar features, both layers 1x1: branch b computes relu(w2_b * relu(w1_b * f))
        cloud = PointCloud(np.random.default_rng(0).normal(size=(2, 3)))
        ctx = ExpansionContext(cloud, knn_bruteforce(cloud, 1), Tensor([[1.0], [-2.0]]))
        unit, store, _ = build("branch", ratio=2, channels=1)
        store["unit.branch0.w0"].tensor.data[:] = [[2.0]]
        store["unit.branch0.w1"].tensor.data[:] = [[3.0]]
        store["unit.branch1.w0"].tensor.data[:] = [[-1.0]]
        store["unit.branch1.w1"].tensor.data[:] = [[5.0]]
        out = unit.expand(ctx).features.data
        # point 0: branch0 relu(3*relu(2*1)) = 6; branch1 relu(5*relu(-1)) = 0
        # point 1: branch0 relu(3*relu(-4)) = 0; branch1 relu(5*relu(2)) = 10
        assert out.tolist() == [[6.0], [0.0], [0.0], [10.0]]


class TestDuplicateUnit:
    def test_one_round_doubles_rows(self):
        ctx, _ = make_context(n=3, c=4, k=2)
        unit, _, _ = build("duplicate", ratio=2)
        assert unit.expand(ctx).features.shape == (6, 4)

    def test_ratio_4_uses_two_rounds(self):
        ctx, _ = make_context(n=3, c=4, k=2)
        unit, _, _ = build("duplicate", ratio=4)
        assert len(unit.round_mlps) == 2
        assert unit.expand(ctx).features.shape == (12, 4)

    def test_children_differ_only_through_code(self):
        # with the code column weights zeroed, both children collapse to the same output
        ctx, _ = make_context(n=4, c=3)
        unit, store, _ = build("duplicate", ratio=2, channels=3)
        store["unit.round0.w0"].tensor.data[-1, :] = 0.0
        out = unit.expand(ctx).features.data
        assert np.array_equal(out[0::2], out[1::2])

    def test_ratio_12_runs_rounds_of_2_2_3_with_one_shared_layer_each(self):
        ctx, _ = make_context(n=3, c=4, k=2)
        unit, store, _ = build("duplicate", ratio=12)
        assert unit.rounds == [2, 2, 3]
        assert [store[f"unit.round{i}.w0"].data.shape for i in range(3)] == [(5, 4)] * 3
        assert unit.expand(ctx).features.shape == (36, 4)


class TestMlpUnits:
    def test_single_stacked_identity_children_equal_parent(self):
        ctx, _ = make_context(n=3, c=4, k=2, nonneg=True)
        unit, store, _ = build("single_mlp", ratio=2)
        store["unit.expandmlp.w0"].tensor.data[:] = np.hstack([np.eye(4), np.eye(4)])
        out = unit.expand(ctx).features.data
        assert np.allclose(out[0::2], ctx.features.data, atol=1e-15)
        assert np.allclose(out[1::2], ctx.features.data, atol=1e-15)

    def test_multilayer_identity_hidden_reduces_to_single(self):
        ctx, _ = make_context(n=4, c=3, nonneg=True)
        deep, deep_store, _ = build("multilayer_mlp", ratio=2, channels=3)
        single, single_store, _ = build("single_mlp", ratio=2, channels=3)
        for i in range(5):
            deep_store[f"unit.deepmlp.w{i}"].tensor.data[:] = np.eye(3)
        deep_store["unit.deepmlp.w5"].tensor.data[:] = single_store["unit.expandmlp.w0"].data
        deep_store["unit.deepmlp.b5"].tensor.data[:] = single_store["unit.expandmlp.b0"].data
        assert np.allclose(
            deep.expand(ctx).features.data, single.expand(ctx).features.data, atol=1e-12
        )

    def test_progressive_ratio_4_runs_two_rounds(self):
        ctx, _ = make_context(n=3, c=4, k=2)
        unit, _, _ = build("progressive_mlp", ratio=4)
        assert len(unit.round_mlps) == 2
        assert unit.expand(ctx).features.shape == (12, 4)

    def test_progressive_ratio_6_grows_by_2_then_by_3(self):
        ctx, _ = make_context(n=3, c=4, k=2)
        unit, store, _ = build("progressive_mlp", ratio=6)
        assert [store[f"unit.double{i}.w0"].data.shape for i in range(2)] == [(4, 8), (4, 12)]
        assert unit.expand(ctx).features.shape == (18, 4)


class TestNodeShuffle:
    def test_requires_graph(self):
        # the context refuses a missing graph, so no unit ever runs without one
        cloud = PointCloud(np.random.default_rng(0).normal(size=(4, 3)))
        with pytest.raises(ConfigError, match="base index"):
            ExpansionContext(cloud, None, Tensor(np.zeros((4, 4))))

    def test_hand_computed_scalar_case(self):
        # edgeconv 1 -> 2 with hand weights, then shuffle to 6 x 1
        cloud = PointCloud([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        base = IndexMatrix([[1], [2], [0]])
        ctx = ExpansionContext(cloud, base, Tensor([[1.0], [2.0], [4.0]]))
        unit, store, _ = build("nodeshuffle", ratio=2, channels=1, k=1)
        store["unit.conv.h.w0"].tensor.data[:] = [[1.0, 3.0], [2.0, -1.0]]
        # per row: [relu(x_i + 2 d), relu(3 x_i - d)] with d = x_j - x_i
        # row 0: d=1  -> [3, 2]; row 1: d=2 -> [6, 4]; row 2: d=-3 -> [0, 15]
        out = unit.expand(ctx).features.data
        assert out.tolist() == [[3.0], [2.0], [6.0], [4.0], [0.0], [15.0]]


class TestProEdgeShuffle:
    def test_row_trace_ratio_16(self):
        ctx, _ = make_context(n=4, c=4, k=2)
        unit, _, _ = build("proedgeshuffle", ratio=16, k=2)
        traced = []
        feats = ctx.features
        idx = ctx.base_index
        for conv in unit.convs:
            feats = ad.shuffle_expand(conv(feats, idx), 2)
            idx = expand_index(idx)
            traced.append(feats.shape[0])
        assert traced == [8, 16, 32, 64]
        out = unit.expand(ctx)
        assert out.features.shape == (64, 4)
        assert out.index.rows == 64

    def test_expand_mode_graph_is_expanded_base(self):
        ctx, _ = make_context(n=4, c=4, k=2)
        unit, _, _ = build("proedgeshuffle", ratio=2, k=2)
        out = unit.expand(ctx)
        assert np.array_equal(out.index.entries, expand_index(ctx.base_index).entries)

    def test_feature_knn_mode_recomputes_graph(self):
        ctx, _ = make_context(n=5, c=4, k=2)
        unit, _, _ = build("proedgeshuffle", ratio=2, k=2, index_mode="feature_knn")
        out = unit.expand(ctx)
        assert out.index.rows == 10
        assert out.index.k == 2
        # entries need not be even: the graph came from feature-space KNN
        assert out.features.shape == (10, 4)

    def test_round_count_matches_ratio(self):
        for ratio, rounds in [(2, 1), (4, 2), (8, 3), (16, 4)]:
            unit, _, _ = build("proedgeshuffle", ratio=ratio, k=2)
            assert len(unit.convs) == rounds

    def test_ratio_12_rounds_follow_its_prime_factors(self):
        # rounds grow x2, x2, x3; the graph follows by expand_index at each factor
        ctx, _ = make_context(n=4, c=4, k=2)
        unit, store, _ = build("proedgeshuffle", ratio=12, k=2)
        assert [store[f"unit.conv{i}.h.w0"].data.shape for i in range(3)] == [(8, 8), (8, 8), (8, 12)]
        out = unit.expand(ctx)
        assert out.features.shape == (48, 4)
        assert np.array_equal(out.index.entries, expanded_graph(ctx.base_index, 12).entries)

    def test_feature_knn_mode_at_ratio_6_keeps_a_valid_graph(self):
        ctx, _ = make_context(n=5, c=4, k=2)
        unit, _, _ = build("proedgeshuffle", ratio=6, k=2, index_mode="feature_knn")
        out = unit.expand(ctx)
        assert out.features.shape == (30, 4)
        assert (out.index.rows, out.index.k) == (30, 2)
        IndexMatrix(out.index.entries)


class TestRegressionStage:
    def make(self, kind="proedgeshuffle", mode=None, n=6, ratio=2, c=4, k=3, seed=0):
        ctx, _ = make_context(n=n, c=c, k=k, seed=seed)
        spec = ExpansionSpec(kind=kind, ratio=ratio, channels=c, k=k, regression_mode=mode)
        store = ParameterStore()
        rng = np.random.default_rng(seed + 1)
        unit = build_unit(store, spec, rng)
        stage = RegressionStage(store, spec, rng)
        return ctx, spec, unit, stage

    def model(self, kind="proedgeshuffle", mode=None, ratio=2, c=4, k=3):
        """A whole model, whose upsample is the one way to finish a regression."""
        spec = ExpansionSpec(kind=kind, ratio=ratio, channels=c, k=k, regression_mode=mode)
        return UpsamplingModel(spec, BackboneSpec(width=c), k, np.random.default_rng(1))

    @pytest.mark.parametrize("mode", ["direct", "edgeconv_after", "edgeconv_before"])
    def test_all_modes_output_rn_points(self, mode):
        ctx, _ = make_context(n=6)
        cloud = self.model(mode=mode).upsample(ctx.cloud)
        assert cloud.count == 12

    def test_direct_mode_never_reads_the_index(self):
        class CountingIndex(IndexMatrix):
            def __init__(self, entries):
                super().__init__(entries)
                self.reads = 0

            def __getattribute__(self, name):
                if name == "entries":
                    object.__setattr__(self, "reads", object.__getattribute__(self, "reads") + 1)
                return object.__getattribute__(self, name)

        ctx, spec, unit, stage = self.make(kind="branch", mode="direct", k=3)
        result = unit.expand(ctx)
        probe = CountingIndex(np.asarray(ctx.base_index.entries))
        probe.reads = 0
        stage.forward(result.features, probe)
        assert probe.reads == 0

    @pytest.mark.parametrize("mode", ["edgeconv_before", "edgeconv_after"])
    def test_edgeconv_modes_build_at_a_ratio_that_is_not_a_power_of_two(self, mode):
        ctx, _ = make_context(n=6)
        assert self.model(kind="branch", mode=mode, ratio=3).upsample(ctx.cloud).count == 18
        graph = expanded_graph(ctx.base_index, 3)
        assert np.array_equal(graph.entries, np.repeat(3 * ctx.base_index.entries, 3, axis=0))

    def test_edgeconv_before_identical_features_collapse(self):
        ctx, spec, unit, stage = self.make(mode="edgeconv_before")
        feats = Tensor(np.tile([[0.5, 1.0, -0.3, 0.2]], (12, 1)))
        graph = expanded_graph(ctx.base_index, 2)
        coords = stage.forward(feats, graph).data
        assert np.allclose(coords, coords[0], atol=0)

    def test_derived_graph_matches_repeated_expansion(self):
        ctx, _ = make_context(n=5, c=4, k=2)
        twice = expand_index(expand_index(ctx.base_index))
        derived = expanded_graph(ctx.base_index, 4)
        assert np.array_equal(derived.entries, twice.entries)
        assert derived.parent is twice.parent and derived.ratio == twice.ratio == 4


class TestIsolationDichotomy:
    @pytest.mark.parametrize("kind", UNIT_KINDS)
    def test_isolated_units_vs_graph_units(self, kind):
        n, c, k = 16, 8, 4
        rng = np.random.default_rng(33)
        cloud = PointCloud(rng.normal(size=(n, 3)))
        base = knn_bruteforce(cloud, k)
        feats = rng.normal(size=(n, c))
        unit, _, _ = build(kind, ratio=2, channels=c, k=k, seed=5)
        out0 = unit.expand(ExpansionContext(cloud, base, Tensor(feats))).features.data

        j = int(base.entries[0, 0])  # perturbed point is a neighbor of point 0
        bumped = feats.copy()
        bumped[j] += 1e-2
        out1 = unit.expand(ExpansionContext(cloud, base, Tensor(bumped))).features.data

        r = 2
        own = slice(r * j, r * j + r)
        others = np.ones(out0.shape[0], dtype=bool)
        others[own] = False
        if kind in GRAPH_KINDS:
            assert not np.array_equal(out0[others], out1[others]), "neighbors must see the change"
            changed_rows = np.nonzero((out0 != out1).any(axis=1))[0] // r
            assert 0 in changed_rows  # point 0 has j as a neighbor
        else:
            assert np.array_equal(out0[others], out1[others]), "bitwise isolation must hold"
            assert not np.array_equal(out0[own], out1[own])


class TestPermutationEquivariance:
    @pytest.mark.parametrize("kind", UNIT_KINDS)
    def test_block_level_equivariance(self, kind):
        n, c, k, r = 8, 4, 3, 2
        rng = np.random.default_rng(77)
        pts = rng.normal(size=(n, 3))
        feats = rng.normal(size=(n, c))
        perm = rng.permutation(n)

        unit, _, _ = build(kind, ratio=r, channels=c, k=k, seed=9)
        base = knn_bruteforce(PointCloud(pts), k)
        out = unit.expand(ExpansionContext(PointCloud(pts), base, Tensor(feats))).features.data
        base_p = knn_bruteforce(PointCloud(pts[perm]), k)
        out_p = unit.expand(
            ExpansionContext(PointCloud(pts[perm]), base_p, Tensor(feats[perm]))
        ).features.data

        blocks = out.reshape(n, r, -1)
        blocks_p = out_p.reshape(n, r, -1)
        assert np.allclose(blocks_p, blocks[perm], atol=1e-9)


class TestUnitGradients:
    @pytest.mark.parametrize("ratio", [2, 3, 6, 12])
    @pytest.mark.parametrize(
        "kind, mode", [(kind, "expand") for kind in UNIT_KINDS] + [("proedgeshuffle", "feature_knn")]
    )
    def test_fd_gradient_through_unit(self, kind, mode, ratio):
        ctx, _ = make_context(n=6, c=4, k=3, seed=3, nonneg=True)
        unit, _, _ = build(kind, ratio=ratio, channels=4, k=3, seed=4, index_mode=mode)

        def loss(t):
            out = unit.expand(ExpansionContext(ctx.cloud, ctx.base_index, t))
            return ad.sum_all(out.features)

        result = check_gradient(f"unit/{kind}/r{ratio}", loss, np.array(ctx.features.data))
        assert result.ok, result.detail


@pytest.mark.parametrize("seed", [15, 35, 256, 296, 343])
def test_unit_gradient_checks_at_seeds_near_a_kink(seed):
    # `puxp gradcheck --seed s` runs the unit suite at s + 4. At these seeds a
    # finite-difference step of 1e-4 straddled a ReLU or max kink.
    failing = [r for r in run_unit_gradient_checks(seed + 4) if not r.ok]
    assert not failing, failing


def test_gradient_suite_passes_with_a_kink_within_the_first_step(monkeypatch):
    # at seed 55 a ReLU or max kink lies within 1e-6 of an input entry of
    # unit/nodeshuffle/r6: that entry agrees only at a smaller step
    steps = []
    fd = checks.finite_difference_gradient
    monkeypatch.setattr(
        checks, "finite_difference_gradient", lambda f, x, step, entries: steps.append(step) or fd(f, x, step, entries)
    )
    failing = [r for r in checks.run_gradient_checks(55) if not r.ok]
    assert not failing, failing
    assert checks.FD_STEPS[1] in steps
