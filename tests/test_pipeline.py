import dataclasses
import pathlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from puxp import autodiff as ad
from puxp import geometry, pipeline
from puxp.autodiff import Tape, Tensor
from puxp.dataio import Checkpoint, load_checkpoint, read_xyz, save_checkpoint, write_xyz
from puxp.errors import ConfigError, DivergenceError, FormatError, GradientError
from puxp.pipeline import (
    Backbone,
    BackboneSpec,
    TrainConfig,
    UpsamplingModel,
    build_model,
    compare_units,
    evaluate,
    make_dataset,
    model_from_checkpoint,
    model_to_checkpoint,
    spec_from_fields,
    spec_to_fields,
    train,
)
from puxp.geometry import PointCloud, knn_bruteforce
from puxp.losses import chamfer_loss
from puxp.shapes import SyntheticShape, sample_pair, surface_sample
from puxp.units import REGRESSION_MODES, UNIT_KINDS, ExpansionSpec

from edgeconv_reference import composed_edge_conv
from store_layout import assert_laid_out

SMALL = dict(k=6, points=32, shapes=("sphere",), data_seed=100)


def count_knn_searches(monkeypatch):
    """The list that gets one entry per KNN search from now on: every search checks its input once."""
    searches, checked = [], geometry._knn_input
    monkeypatch.setattr(geometry, "_knn_input", lambda *args: searches.append(args[1]) or checked(*args))
    return searches


def small_config(kind="proedgeshuffle", steps=5, **kw):
    merged = {**SMALL, **kw}
    backbone = merged.pop("backbone", BackboneSpec("edgeconv_stack", 2, 8))
    unit = ExpansionSpec(kind=kind, ratio=4, channels=8, k=merged["k"])
    return TrainConfig(unit=unit, backbone=backbone, steps=steps, **merged)


class TestConfigValidation:
    def test_ratio_below_2_rejected(self):
        unit = ExpansionSpec(kind="branch", ratio=1, channels=8)
        with pytest.raises(ConfigError, match="at least 2"):
            TrainConfig(unit=unit, backbone=BackboneSpec(width=8))

    def test_channels_must_match_backbone_width(self):
        unit = ExpansionSpec(kind="branch", ratio=2, channels=8)
        cfg = TrainConfig(unit=unit, backbone=BackboneSpec(width=16), **SMALL)
        with pytest.raises(ConfigError, match="width"):
            build_model(cfg)

    def test_k_must_be_below_points(self):
        unit = ExpansionSpec(kind="branch", ratio=2, channels=8)
        with pytest.raises(ConfigError, match="k"):
            TrainConfig(unit=unit, backbone=BackboneSpec(width=8), k=32, points=32)

    def test_graph_unit_k_must_match_model_k(self):
        unit = ExpansionSpec(kind="nodeshuffle", ratio=2, channels=8, k=4)
        with pytest.raises(ConfigError, match=r"^unit k \(4\) disagrees with model k \(6\)$"):
            UpsamplingModel(unit, BackboneSpec(width=8), 6, np.random.default_rng(0))

    def test_unknown_backbone(self):
        with pytest.raises(ConfigError, match="backbone"):
            BackboneSpec(kind="transformer")


class TestModelForward:
    @pytest.mark.parametrize("backbone_kind", ["mlp_stack", "edgeconv_stack"])
    def test_output_count_is_ratio_times_input(self, backbone_kind):
        cfg = small_config(backbone=BackboneSpec(backbone_kind, 2, 8))
        ds = make_dataset(cfg)
        model = build_model(cfg)
        out = model.upsample(ds[0].cloud)
        assert out.count == 4 * 32

    def test_parameter_counts_by_stage(self):
        model = build_model(small_config())
        counts = model.parameter_counts()
        assert counts["backbone"] > 0 and counts["unit"] > 0 and counts["regress"] > 0
        assert sum(counts.values()) == model.store.value_count()

    def test_small_cloud_rejected_for_k(self):
        model = build_model(small_config())
        with pytest.raises(ConfigError, match="k=6"):
            model.upsample(PointCloud(np.random.default_rng(0).normal(size=(5, 3))))


    def test_upsample_returns_the_regressed_coordinates(self):
        cfg = small_config()
        cloud = make_dataset(cfg)[0].cloud
        model = build_model(cfg)
        assert np.array_equal(model.upsample(cloud).points, model.forward_tensor(cloud).data)

    def test_non_finite_output_names_row(self, monkeypatch):
        cfg = small_config(kind="branch")
        model = build_model(cfg)
        coords = np.zeros((4 * cfg.points, 3))
        coords[1, 0], coords[5, 2] = np.inf, np.nan
        monkeypatch.setattr(model, "forward_tensor", lambda cloud, base_index=None: Tensor(coords))
        with pytest.raises(GradientError, match="^row 1 of the upsampled points is not finite$"):
            model.upsample(make_dataset(cfg)[0].cloud)

    def test_inf_head_bias_names_the_row(self):
        cfg = small_config(kind="branch")
        model = build_model(cfg)
        model.store["regress.head.b0"].tensor.data[:] = np.inf
        with pytest.raises(GradientError, match="^row 0 of the upsampled points is not finite$"):
            model.upsample(make_dataset(cfg)[0].cloud)


class TestEdgeConvOracle:
    """Every EdgeConv of a model against the composed reference, and the
    untaped upsample against a taped forward."""

    N = 700  # beyond one 512-row block already in the backbone; r*N = 2800 rows after expansion

    def cloud(self):
        points = surface_sample(SyntheticShape("torus"), self.N // 2, np.random.default_rng(5))
        return PointCloud(np.repeat(points, 2, axis=0))  # every point twice: exact ties in the max

    @pytest.mark.parametrize("backbone_kind", ["mlp_stack", "edgeconv_stack"])
    @pytest.mark.parametrize("mode", REGRESSION_MODES)
    @pytest.mark.parametrize("kind", UNIT_KINDS)
    def test_upsample_matches_composed_edgeconv(self, kind, mode, backbone_kind, monkeypatch):
        unit = ExpansionSpec(kind=kind, ratio=4, channels=6, k=5, regression_mode=mode)
        model = UpsamplingModel(unit, BackboneSpec(backbone_kind, 2, 6), 5, np.random.default_rng(4))
        cloud = self.cloud()
        got = model.upsample(cloud).points
        with Tape():
            taped = model.forward_tensor(cloud)
        assert taped.requires_grad
        assert got.tobytes() == taped.data.tobytes()
        monkeypatch.setattr(ad, "edge_conv", composed_edge_conv)
        want = model.upsample(cloud).points
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_train_step_beyond_one_block_reaches_every_parameter(self):
        cfg = small_config(steps=1, points=532)
        model = train(cfg).model
        missing = [p.name for p in model.store if p.grad is None or not np.any(p.grad)]
        assert not missing
        assert any(p.name.startswith("backbone.conv0.") for p in model.store)


class TestBoundedMemory:
    CHECKPOINT = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data" / "proedgeshuffle-r4.puxp"

    def peak_bytes(self, model, points):
        cloud, _, _ = sample_pair(SyntheticShape("torus"), points, 4, 3)
        tracemalloc.start()
        try:
            model.upsample(cloud)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_upsample_peak_memory_is_bounded(self):
        model = model_from_checkpoint(load_checkpoint(self.CHECKPOINT))
        small = self.peak_bytes(model, 1024)
        large = self.peak_bytes(model, 4096)  # 16,384 output rows
        assert large < 64 * 2**20, large
        # Per output row at r=4, C=32, k=16, the loaded model's features are
        # float32 and the peak measures 315 B (608 B when they were float64):
        # one live EdgeConv and nothing finished beside it. The regression
        # EdgeConv holds its input (C values, 128 B), its output (C, 128 B),
        # its projection (C per input point, 128 / r = 32 B) and the base
        # graph (k entries per input point, 128 / r = 32 B): 320 B. The head
        # after it holds the same input and output and 24 B of float64
        # coordinates, and widens a fixed block of rows at a time. A float64
        # copy of the features before the head would add 256 B; an
        # M x K x C EdgeConv intermediate adds several KiB.
        per_row = (large - small) / (4 * 4096 - 4 * 1024)
        assert per_row <= 620, (large, small, per_row)


class TestTrain:
    def test_empty_dataset_refused(self):
        with pytest.raises(ConfigError, match="^empty training dataset$"):
            train(small_config(), [])

    def test_loss_curve_length_matches_steps(self):
        cfg = small_config(steps=4)
        result = train(cfg, make_dataset(cfg))
        assert len(result.losses) == 4

    def test_zero_learning_rate_keeps_loss_constant(self):
        cfg = small_config(steps=4, lr=0.0)
        result = train(cfg, make_dataset(cfg))
        assert len(set(result.losses)) == 1

    def test_same_seed_same_losses_and_parameters(self):
        cfg = small_config(steps=4)
        a = train(cfg, make_dataset(cfg))
        b = train(cfg, make_dataset(cfg))
        assert a.losses == b.losses
        for pa, pb in zip(a.model.store, b.model.store):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        cfg = small_config(steps=3)
        a = train(cfg, make_dataset(cfg))
        b = train(dataclasses.replace(cfg, seed=2), make_dataset(cfg))
        assert a.losses != b.losses

    def test_divergence_reports_step(self):
        # first update pushes weights to ~1e200, so step 1 predicts non-finite points
        cfg = small_config(steps=10, lr=1e200)
        with pytest.raises(DivergenceError, match="non-finite predictions at step 1") as exc:
            with np.errstate(all="ignore"):
                train(cfg, make_dataset(cfg))
        assert exc.value.step == 1
        assert isinstance(exc.value.__cause__, GradientError)

    def test_feature_knn_divergence_reports_step(self):
        # the same overflow reaches knn_features as NaN features before any loss exists
        cfg = small_config(steps=10, lr=1e200)
        cfg = dataclasses.replace(cfg, unit=dataclasses.replace(cfg.unit, index_mode="feature_knn"))
        with pytest.raises(DivergenceError, match="non-finite features at step 1") as exc:
            with np.errstate(all="ignore"):
                train(cfg, make_dataset(cfg))
        assert exc.value.step == 1
        assert isinstance(exc.value.__cause__, GradientError)

    def test_overflowing_loss_is_a_divergence_not_a_warning(self):
        # at 2^600 the first loss is inf; no overflow warning may escape before DivergenceError
        cfg = small_config(kind="duplicate", steps=2, backbone=BackboneSpec("mlp_stack", 1, 8))
        (patch,) = make_dataset(cfg)
        cloud, gt = (PointCloud(np.ldexp(c.points, 600)) for c in (patch.cloud, patch.gt))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite loss at step 0"):
                train(cfg, [dataclasses.replace(patch, cloud=cloud, gt=gt)])

    def test_overfit_single_patch_improves(self):
        cfg = small_config(kind="nodeshuffle", steps=60, lr=0.01)
        result = train(cfg, make_dataset(cfg))
        assert result.losses[-1] < 0.3 * result.losses[0]


class TestBatches:
    """batch_size B over four patches: a step's loss and gradient are the means of
    B patches' own, the steps take the patches in dataset order, and a step holds
    one patch's tape at a time."""

    SHAPES = ("sphere", "torus", "cylinder", "box_surface")

    def patch_losses(self, cfg, dataset):
        """Each patch's own loss under the initial model of cfg."""
        model = build_model(cfg)
        return [chamfer_loss(model.forward_tensor(p.cloud), p.gt).item() for p in dataset]

    def test_each_step_averages_the_next_two_patches(self):
        # step 0 runs the initial model at any lr; at lr 0 every later step does too,
        # so each loss names its two patches
        cfg = small_config(steps=3, batch_size=2, shapes=self.SHAPES, lr=0.0)
        dataset = make_dataset(cfg)
        l0, l1, l2, l3 = self.patch_losses(cfg, dataset)
        assert train(cfg, dataset).losses == [(l0 + l1) * 0.5, (l2 + l3) * 0.5, (l0 + l1) * 0.5]

    def test_batched_runs_repeat(self):
        cfg = small_config(steps=3, batch_size=2, shapes=self.SHAPES)
        a, b = train(cfg, make_dataset(cfg)), train(cfg, make_dataset(cfg))
        assert a.losses == b.losses
        assert a.model.store.values.tobytes() == b.model.store.values.tobytes()

    def step_grads(self, dataset, batch_size):
        """The flat gradient of one step over the first batch_size patches."""
        cfg = small_config(steps=1, batch_size=batch_size, shapes=self.SHAPES, lr=0.0)
        return train(cfg, dataset[:batch_size]).model.store.grads

    def test_step_gradient_is_the_mean_of_the_patch_gradients(self):
        dataset = make_dataset(small_config(shapes=self.SHAPES))
        g0, g1, g2 = (self.step_grads([patch], 1) for patch in dataset[:3])
        assert self.step_grads(dataset, 2).tobytes() == (0.5 * (g0 + g1)).tobytes()
        assert np.allclose(self.step_grads(dataset, 3), (g0 + g1 + g2) / 3, rtol=1e-12, atol=0)

    def peak_bytes(self, batch_size):
        cfg = small_config(steps=2, batch_size=batch_size, shapes=self.SHAPES)
        dataset = make_dataset(cfg)
        train(dataclasses.replace(cfg, steps=1), dataset)  # warm-up: every patch's graph and lazy import
        tracemalloc.start()
        try:
            train(cfg, dataset)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_batch_holds_one_patch_tape(self):
        # one tape per patch, its gradients summed in the store: the peak does not grow with B
        one, four = self.peak_bytes(1), self.peak_bytes(4)
        assert four <= 1.2 * one, (one, four)


class TestFlatParameters:
    """Every parameter of a model is a view of the store's flat buffers, in stage order."""

    CHECKPOINT = TestBoundedMemory.CHECKPOINT

    def test_built_model_lays_out_without_moving_its_output(self):
        cfg = small_config(kind="branch")
        cloud = make_dataset(cfg)[0].cloud
        model = build_model(cfg)
        before = model.upsample(cloud).points
        assert_laid_out(model.store)
        stages = [p.name.split(".", 1)[0] for p in model.store]
        assert stages == sorted(stages, key=["backbone", "unit", "regress"].index)
        assert model.upsample(cloud).points.tobytes() == before.tobytes()

    def test_checkpoint_model_lays_out_the_stored_values(self):
        ckpt = load_checkpoint(self.CHECKPOINT)
        model = model_from_checkpoint(ckpt)
        assert_laid_out(model.store)
        stored = np.concatenate([values.reshape(-1) for _, values in ckpt.params])
        assert np.array_equal(model.store.values, stored.astype(np.float64))

    def test_train_step_leaves_every_view_on_the_buffers(self):
        model = train(small_config(steps=1)).model
        assert_laid_out(model.store)
        assert model.store.grads.any()


class TestEvaluate:
    def test_row_count_is_dataset_plus_aggregate(self):
        cfg = small_config(shapes=("sphere", "box_surface"))
        ds = make_dataset(cfg)
        reports = evaluate(build_model(cfg), ds)
        assert len(reports) == 3
        assert reports[-1].label == "mean"

    def test_gt_against_itself_is_zero(self):
        from puxp import metrics

        cfg = small_config(shapes=("box_surface",))
        patch = make_dataset(cfg)[0]
        r = metrics.report("self", patch.gt, patch.gt, patch.mesh)
        assert r.cd == 0.0
        assert r.hd == 0.0
        assert r.p2f <= 1e-12  # box sampling lies exactly on the mesh

    def test_trained_beats_untrained_on_training_shape(self):
        cfg = small_config(kind="nodeshuffle", steps=80, lr=0.01, shapes=("sphere",))
        ds = make_dataset(cfg)
        before = evaluate(build_model(cfg), ds)[-1].cd
        after = evaluate(train(cfg, ds).model, ds)[-1].cd
        assert after < before

    def test_mean_row_averages_the_patch_rows(self):
        cfg = small_config(shapes=("sphere", "box_surface"))
        ds = make_dataset(cfg)
        model = build_model(cfg)
        rows = evaluate(model, ds)
        for field in ("cd", "hd", "p2f"):
            assert getattr(rows[-1], field) == float(np.mean([getattr(r, field) for r in rows[:-1]]))
        # one patch without a mesh leaves the mean p2f undefined
        rows = evaluate(model, [ds[0], dataclasses.replace(ds[1], mesh=None)])
        assert rows[1].p2f is None and rows[-1].p2f is None
        assert rows[-1].cd == float(np.mean([rows[0].cd, rows[1].cd]))

    def test_a_second_pass_searches_no_graph_and_repeats_its_rows(self, monkeypatch):
        cfg = small_config(shapes=("sphere", "cylinder"))
        ds = make_dataset(cfg)
        model = build_model(cfg)
        searches = count_knn_searches(monkeypatch)
        first = evaluate(model, ds)
        assert len(searches) == 2  # one graph per patch, kept by its cloud
        assert evaluate(model, ds) == first and len(searches) == 2
        assert evaluate(model, make_dataset(cfg)) == first  # fresh clouds search their own
        cloud = ds[0].cloud
        given = model.forward_tensor(cloud, knn_bruteforce(cloud, cfg.k))
        assert np.array_equal(model.upsample(cloud).points, given.data)

    def test_compare_searches_each_patch_graph_once_over_its_seeds(self, monkeypatch):
        cfg = small_config(steps=2, shapes=("sphere", "cylinder"))
        searches = count_knn_searches(monkeypatch)
        compare_units([cfg], seeds=(1, 2))
        assert len(searches) == 2

    def test_a_patch_too_small_for_k_fails_before_step_0(self, monkeypatch):
        cfg = small_config(steps=1)
        ds = make_dataset(cfg)
        tiny = dataclasses.replace(ds[0], cloud=PointCloud(ds[0].cloud.points[: cfg.k]))
        steps = []
        monkeypatch.setattr(pipeline, "adam_step", lambda *args, **kw: steps.append(1))
        with pytest.raises(ConfigError, match=f"has {cfg.k} points but k={cfg.k} needs more"):
            train(cfg, [*ds, tiny])  # step 0 reads only the first patch
        assert not steps

    def test_empty_dataset_refused(self):
        with pytest.raises(ConfigError, match="^empty evaluation dataset$"):
            evaluate(build_model(small_config()), [])

    def test_ratio_mismatch_rejected(self):
        cfg = small_config()
        ds = make_dataset(cfg)
        other = small_config(kind="branch")
        other = dataclasses.replace(other, unit=ExpansionSpec(kind="branch", ratio=2, channels=8))
        model = build_model(other)
        with pytest.raises(Exception, match="ratio"):
            evaluate(model, ds)


class TestCheckpointRoundTrip:
    def test_round_trip_preserves_spec_and_values(self, tmp_path):
        from puxp.dataio import load_checkpoint, save_checkpoint

        cfg = small_config(steps=2)
        result = train(cfg, make_dataset(cfg))
        path = tmp_path / "model.puxp"
        save_checkpoint(path, model_to_checkpoint(result.model))
        loaded = model_from_checkpoint(load_checkpoint(path))
        assert loaded.unit_spec == result.model.unit_spec
        assert loaded.backbone_spec == result.model.backbone_spec
        for pa, pb in zip(result.model.store, loaded.store):
            assert pa.name == pb.name
            assert np.array_equal(pa.data.astype(np.float32), pb.data.astype(np.float32))

    def test_loaded_model_upsamples_within_1e_5_of_the_trained_model(self, tmp_path):
        from puxp.dataio import load_checkpoint, save_checkpoint

        cfg = small_config(steps=2)
        ds = make_dataset(cfg)
        result = train(cfg, ds)
        path = tmp_path / "model.puxp"
        save_checkpoint(path, model_to_checkpoint(result.model))
        loaded = model_from_checkpoint(load_checkpoint(path))
        a = result.model.upsample(ds[0].cloud).points
        b = loaded.upsample(ds[0].cloud).points
        assert np.allclose(a, b, atol=1e-5)

    def test_the_bench_checkpoint_saves_back_byte_for_byte(self, tmp_path):
        # but for its one empty field, a feature left off, which a load drops
        path = tmp_path / "again.puxp"
        save_checkpoint(path, model_to_checkpoint(model_from_checkpoint(load_checkpoint(TestBoundedMemory.CHECKPOINT))))
        original = TestBoundedMemory.CHECKPOINT.read_bytes()
        (length,) = struct.unpack("<I", original[5:9])
        header = original[9 : 9 + length].replace(b"unit.edge_hidden=\n", b"")
        assert path.read_bytes() == original[:5] + struct.pack("<I", len(header)) + header + original[9 + length :]

    @pytest.mark.parametrize("key", ["unit.kind", "unit.ratio", "unit.channels", "backbone.kind", "model.k"])
    def test_a_missing_spec_field_is_a_format_error(self, key):
        ckpt = model_to_checkpoint(build_model(small_config()))
        del ckpt.fields[key]
        with pytest.raises(FormatError, match=f"^checkpoint is missing spec field '{key}'$"):
            model_from_checkpoint(ckpt)

    def test_a_parameter_of_the_wrong_shape_is_a_format_error(self):
        ckpt = model_to_checkpoint(build_model(small_config()))
        name, values = ckpt.params[-1]
        ckpt.params[-1] = (name, values[..., None])
        want = f"parameter {name!r} has shape {values[..., None].shape}, expected {values.shape}"
        with pytest.raises(FormatError) as caught:
            model_from_checkpoint(ckpt)
        assert str(caught.value) == want


class TestLoadedModelComputesInFloat32:
    """A loaded model keeps its checkpoint's float32 values: its features are
    float32, and its coordinates leave it as float64."""

    @pytest.mark.parametrize("backbone_kind", ["mlp_stack", "edgeconv_stack"])
    @pytest.mark.parametrize("regression_mode", REGRESSION_MODES)
    @pytest.mark.parametrize("kind", UNIT_KINDS)
    def test_features_are_float32_and_coordinates_float64(self, tmp_path, kind, regression_mode, backbone_kind):
        cfg = small_config(kind, backbone=BackboneSpec(backbone_kind, 2, 8))
        cfg = dataclasses.replace(cfg, unit=dataclasses.replace(cfg.unit, regression_mode=regression_mode))
        save_checkpoint(tmp_path / "model.puxp", model_to_checkpoint(build_model(cfg)))
        loaded = model_from_checkpoint(load_checkpoint(tmp_path / "model.puxp"))
        wide = model_from_checkpoint(load_checkpoint(tmp_path / "model.puxp"))
        wide.store.load({p.name: p.data.astype(np.float64) for p in wide.store})  # the same values in float64
        assert (loaded.store.dtype, wide.store.dtype) == (np.float32, np.float64)

        seen = []
        expand = loaded.unit.expand
        loaded.unit.expand = lambda ctx: seen.append((ctx.features, result := expand(ctx))) or result
        ds = make_dataset(cfg)
        first, again = loaded.upsample(ds[0].cloud).points, loaded.upsample(ds[0].cloud).points
        features, result = seen[0]
        assert features.data.dtype == result.features.data.dtype == np.float32
        assert first.dtype == np.float64
        assert not np.array_equal(first.astype(np.float32).astype(np.float64), first)
        assert first.tobytes() == again.tobytes()

        for narrow, exact in zip(evaluate(loaded, ds), evaluate(wide, ds)):
            for field in ("cd", "hd", "p2f"):
                assert getattr(narrow, field) == pytest.approx(getattr(exact, field), rel=1e-5), field


class TestWrittenCoordinates:
    def test_the_16k_torus_reads_back_to_9_significant_digits(self, tmp_path):
        # float32 coordinates can sit on a decimal tie at the 9th digit
        # (-0.1591796875 is written -0.159179688); float64 ones do not
        cloud, _, _ = sample_pair(SyntheticShape("torus"), 16384, 4, 1)
        np.savetxt(tmp_path / "torus-16k.xyz", cloud.points, fmt="%.9g")
        model = model_from_checkpoint(load_checkpoint(TestBoundedMemory.CHECKPOINT))
        dense = model.upsample(read_xyz(tmp_path / "torus-16k.xyz"))
        write_xyz(tmp_path / "torus-64k.xyz", dense)
        out, back = dense.points, np.loadtxt(tmp_path / "torus-64k.xyz", ndmin=2)
        # the bound of the upsample-16k check in bench/workloads.py: half a unit in the 9th digit
        magnitude = np.floor(np.log10(np.where(out == 0.0, 1.0, np.abs(out))))
        allowed = 0.5 * 10.0 ** (magnitude - 8) * (1.0 + 1e-9)
        assert back.shape == out.shape
        assert not np.any(np.abs(back - out) > allowed), np.flatnonzero((np.abs(back - out) > allowed).any(axis=1))


class TestSpecCodec:
    def non_default_config(self):
        unit = ExpansionSpec(
            kind="proedgeshuffle",
            ratio=2,
            channels=8,
            k=5,
            index_mode="feature_knn",
            regression_mode="edgeconv_after",
        )
        return TrainConfig(
            unit=unit,
            backbone=BackboneSpec("mlp_stack", 3, 8),
            k=5,
            steps=7,
            lr=0.02,
            beta1=0.5,
            beta2=0.95,
            eps=1e-6,
            batch_size=2,
            seed=4,
            shapes=("torus", "sphere"),
            points=40,
            data_seed=9,
        )

    def test_every_field_round_trips(self):
        cfg = self.non_default_config()
        for spec in (cfg, cfg.unit, cfg.backbone):  # no field may pass by keeping its default
            for field in dataclasses.fields(spec):
                if field.default is not dataclasses.MISSING:
                    assert getattr(spec, field.name) != field.default, field.name
                elif field.default_factory is not dataclasses.MISSING:
                    assert getattr(spec, field.name) != field.default_factory(), field.name
        assert spec_from_fields(TrainConfig, spec_to_fields(cfg, "train"), "train") == cfg
        assert spec_from_fields(ExpansionSpec, spec_to_fields(cfg.unit, "unit"), "unit") == cfg.unit
        backbone = spec_to_fields(cfg.backbone, "backbone")
        assert spec_from_fields(BackboneSpec, backbone, "backbone") == cfg.backbone

    def test_keys_and_text(self):
        fields = spec_to_fields(self.non_default_config(), "train")
        assert fields["data.shapes"] == "torus,sphere"
        assert fields["data.seed"] == "9"
        assert fields["train.eps"] == "1e-06"
        assert spec_to_fields(ExpansionSpec("branch", 2, 8), "unit")["unit.k"] == "none"

    def test_unread_k_is_dropped(self):
        spec = ExpansionSpec("branch", 2, 8, k=4)
        assert spec.k is None
        assert spec_to_fields(spec, "unit")["unit.k"] == "none"

    def test_budget_key_ignores_seed_and_unit_choices_only(self):
        cfg = self.non_default_config()
        same = dataclasses.replace(
            cfg, seed=1, unit=ExpansionSpec("branch", 2, 8, regression_mode="direct")
        )
        assert same.budget_key() == cfg.budget_key()
        changes = (dict(beta1=0.9), dict(unit=ExpansionSpec("branch", 4, 8)), dict(data_seed=1))
        for change in changes:
            assert dataclasses.replace(cfg, **change).budget_key() != cfg.budget_key()

    @pytest.mark.parametrize(
        "header, spec, backbone, k",
        [
            (
                "unit.kind=proedgeshuffle unit.ratio=4 unit.channels=32 unit.k=16 "
                "unit.index_mode=expand unit.regression_mode=edgeconv_before "
                "backbone.kind=edgeconv_stack backbone.depth=2 backbone.width=32 model.k=16",
                ExpansionSpec("proedgeshuffle", 4, 32, k=16),
                BackboneSpec(),
                16,
            ),
            (
                "unit.kind=branch unit.ratio=3 unit.channels=8 unit.k=none unit.index_mode=expand "
                "unit.regression_mode=direct backbone.kind=mlp_stack "
                "backbone.depth=3 backbone.width=8 model.k=6",
                ExpansionSpec("branch", 3, 8),
                BackboneSpec("mlp_stack", 3, 8),
                6,
            ),
            (
                "unit.kind=proedgeshuffle unit.ratio=2 unit.channels=8 unit.k=6 "
                "unit.index_mode=feature_knn unit.regression_mode=edgeconv_after "
                "backbone.kind=edgeconv_stack backbone.depth=1 "
                "backbone.width=8 model.k=6",
                ExpansionSpec(
                    "proedgeshuffle", 2, 8, k=6, index_mode="feature_knn", regression_mode="edgeconv_after"
                ),
                BackboneSpec("edgeconv_stack", 1, 8),
                6,
            ),
        ],
    )
    def test_checkpoint_header_is_unchanged(self, header, spec, backbone, k):
        """The headers are those the hand-written writer emitted, key order included."""
        fields = dict(item.split("=", 1) for item in header.split())
        model = UpsamplingModel(spec, backbone, k, np.random.default_rng(0))
        ckpt = model_to_checkpoint(model)
        assert list(ckpt.fields.items()) == list(fields.items())
        loaded = model_from_checkpoint(Checkpoint(fields, ckpt.params))
        assert (loaded.unit_spec, loaded.backbone_spec, loaded.k) == (spec, backbone, k)

    def test_header_without_optional_keys_keeps_defaults(self):
        spec, backbone = ExpansionSpec("branch", 2, 8), BackboneSpec("mlp_stack", 2, 8)
        model = UpsamplingModel(spec, backbone, 6, np.random.default_rng(0))
        params = model_to_checkpoint(model).params
        fields = {
            "unit.kind": "branch", "unit.ratio": "2", "unit.channels": "8",
            "backbone.kind": "mlp_stack", "model.k": "6",
        }
        loaded = model_from_checkpoint(Checkpoint(fields, params))
        assert (loaded.unit_spec, loaded.backbone_spec) == (spec, backbone)


class TestOldCheckpoints:
    """Headers written while EdgeConv could have hidden layers carry unit.edge_hidden."""

    def checkpoint(self, **extra_fields):
        model = UpsamplingModel(ExpansionSpec("nodeshuffle", 2, 8, k=6), BackboneSpec(width=8), 6,
                                np.random.default_rng(0))
        ckpt = model_to_checkpoint(model)
        return Checkpoint({**ckpt.fields, **extra_fields}, list(ckpt.params)), model

    def test_empty_edge_hidden_loads(self):
        ckpt, model = self.checkpoint(**{"unit.edge_hidden": ""})
        loaded = model_from_checkpoint(ckpt)
        assert loaded.unit_spec == model.unit_spec
        assert load_checkpoint(TestBoundedMemory.CHECKPOINT).fields["unit.edge_hidden"] == ""

    def test_hidden_layers_are_a_format_error(self):
        ckpt, _ = self.checkpoint(**{"unit.edge_hidden": "8"})
        with pytest.raises(FormatError, match="does not know: unit.edge_hidden=8$"):
            model_from_checkpoint(ckpt)
        ckpt, _ = self.checkpoint()
        ckpt.params.append(("unit.conv.h.w1", np.zeros((8, 16), dtype="<f4")))
        with pytest.raises(FormatError, match=r"extra \['unit.conv.h.w1'\]"):
            model_from_checkpoint(ckpt)

    def test_unit_k_disagreeing_with_model_k_is_a_format_error(self):
        ckpt, _ = self.checkpoint(**{"unit.k": "5"})  # a nodeshuffle header with model.k=6
        with pytest.raises(FormatError, match=r"unit k \(5\) disagrees with model k \(6\)"):
            model_from_checkpoint(ckpt)

    def test_feature_knn_on_a_unit_that_never_reads_it_is_a_format_error(self):
        ckpt, _ = self.checkpoint(**{"unit.index_mode": "feature_knn"})  # a nodeshuffle header
        with pytest.raises(FormatError, match="index mode 'feature_knn' is read only by proedgeshuffle"):
            model_from_checkpoint(ckpt)


class TestCompareUnits:
    def test_identical_configs_identical_rows(self):
        cfg = small_config(kind="branch", steps=2)
        table = compare_units([cfg, dataclasses.replace(cfg)], seeds=(1,))
        a, b = table.rows
        assert (a.cd, a.hd, a.p2f) == (b.cd, b.hd, b.p2f)

    def test_rows_follow_request_order(self):
        cfgs = [small_config(kind=k, steps=2) for k in ("nodeshuffle", "branch")]
        table = compare_units(cfgs, seeds=(1,))
        assert [r.unit for r in table.rows] == ["nodeshuffle", "branch"]

    def test_rows_average_the_per_seed_mean_rows(self):
        cfg = small_config(kind="branch", steps=2)
        (row,) = compare_units([cfg], seeds=(1, 2)).rows
        dataset = make_dataset(cfg)
        runs = [train(dataclasses.replace(cfg, seed=s), dataset) for s in (1, 2)]
        means = [evaluate(run.model, dataset)[-1] for run in runs]
        for field in ("cd", "hd", "p2f"):
            assert getattr(row, field) == float(np.mean([getattr(m, field) for m in means]))

    @pytest.mark.parametrize(
        "configs, seeds, message",
        [(0, (1,), "no configurations to compare"), (1, (), "need at least one seed")],
        ids=["no-configs", "no-seeds"],
    )
    def test_empty_matrix_refused(self, configs, seeds, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            compare_units([small_config(kind="branch", steps=2)] * configs, seeds=seeds)

    def test_mismatched_budgets_refused(self):
        a = small_config(kind="branch", steps=2)
        b = small_config(kind="nodeshuffle", steps=3)
        with pytest.raises(ConfigError, match="mismatched budgets"):
            compare_units([a, b], seeds=(1,))

    def test_rows_have_finite_metrics_and_param_counts(self):
        cfgs = [small_config(kind=k, steps=2) for k in ("branch", "proedgeshuffle")]
        table = compare_units(cfgs, seeds=(1, 2))
        for row in table.rows:
            assert np.isfinite(row.cd) and np.isfinite(row.hd) and np.isfinite(row.p2f)
            assert row.unit_params > 0
            assert row.seeds == 2
        assert table.rows[0].backbone_params == table.rows[1].backbone_params
