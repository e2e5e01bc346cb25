import dataclasses
import pathlib
import re
import struct
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from puxp import checks, metrics, pipeline
from puxp.cli import TRAIN_FIELD_FLAGS, _compare_configs, build_parser, main
from puxp.dataio import (
    CHECKPOINT_MAGIC, Checkpoint, load_checkpoint, read_fields, read_xyz, save_checkpoint, write_comparison_csv,
    write_xyz,
)
from puxp.errors import ConfigError
from puxp.geometry import IndexMatrix, PointCloud
from puxp.pipeline import BackboneSpec, TrainConfig, spec_to_fields
from puxp.shapes import SHAPE_KINDS, SyntheticShape, surface_mesh, surface_sample
from puxp.units import INDEX_MODES, REGRESSION_MODES, UNIT_KINDS, ExpansionSpec

from csv_reader import read_csv_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent

TRAIN_FLAGS = [
    "train",
    "--unit", "nodeshuffle",
    "--ratio", "4",
    "--k", "6",
    "--channels", "8",
    "--steps", "4",
    "--seed", "1",
    "--points", "32",
    "--shapes", "sphere",
]


def run(argv):
    return main([str(a) for a in argv])


def write_cloud(path, n, seed=0):
    pts = surface_sample(SyntheticShape("sphere"), n, np.random.default_rng(seed))
    write_xyz(path, PointCloud(pts))


def write_mesh_off(path):
    mesh = surface_mesh(SyntheticShape("box_surface"))
    with open(path, "w") as f:
        f.write(f"OFF\n{len(mesh.vertices)} {mesh.face_count} 0\n")
        for v in mesh.vertices:
            f.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for a, b, c in mesh.faces:
            f.write(f"3 {a} {b} {c}\n")


class TestTrainCommand:
    def test_writes_checkpoint_and_per_step_loss_rows(self, tmp_path, capsys):
        out = tmp_path / "m.puxp"
        assert run(TRAIN_FLAGS + ["--out", out]) == 0
        assert out.exists()
        loss_lines = [
            l for l in (tmp_path / "m.puxp.loss.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(loss_lines) == 4
        text = capsys.readouterr().out
        assert "resolved config:" in text
        assert "train.seed=1" in text

    def test_proedgeshuffle_trains_and_upsamples_at_ratio_3(self, tmp_path):
        model, inp, out = tmp_path / "x.puxp", tmp_path / "in.xyz", tmp_path / "out.xyz"
        flags = ["train", "--unit", "proedgeshuffle", "--ratio", "3", "--k", "6", "--channels", "8"]
        assert run(flags + ["--steps", "2", "--points", "32", "--shapes", "sphere", "--out", model]) == 0
        write_cloud(inp, 40)
        assert run(["upsample", "--model", model, "--input", inp, "--out", out]) == 0
        assert read_xyz(out).count == 3 * 40

    def test_same_flags_twice_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.puxp", tmp_path / "b.puxp"
        assert run(TRAIN_FLAGS + ["--out", a]) == 0
        assert run(TRAIN_FLAGS + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.puxp.loss.csv").read_bytes() == (tmp_path / "b.puxp.loss.csv").read_bytes()

    def test_feature_knn_on_branch_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **kw: trained.append(a))
        out = tmp_path / "m.puxp"
        assert run(["train", "--unit", "branch", "--index-mode", "feature_knn", "--out", out]) == 2
        assert "index mode 'feature_knn' is read only by proedgeshuffle" in capsys.readouterr().err
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--loss-csv"])
    def test_unwritable_output_exits_2_before_training(self, tmp_path, capsys, monkeypatch, flag):
        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **kw: trained.append(a))
        missing = tmp_path / "missing"
        outputs = {"--out": tmp_path / "m.puxp", "--loss-csv": tmp_path / "l.csv", flag: missing / "x"}
        assert run(TRAIN_FLAGS + [a for pair in outputs.items() for a in pair]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag}: cannot write {str(missing / 'x')!r}: directory {str(missing)!r} does not exist\n"
        assert trained == []
        assert list(tmp_path.iterdir()) == []

    # flag, its compare-file key, a value that differs from the default
    FIELD_FLAGS = [
        ("--backbone", "backbone.kind", "mlp_stack"), ("--depth", "backbone.depth", "3"),
        ("--channels", "backbone.width", "8"), ("--k", "train.k", "6"), ("--steps", "train.steps", "7"),
        ("--lr", "train.lr", "0.01"), ("--batch-size", "train.batch_size", "2"), ("--seed", "train.seeds", "5"),
        ("--shapes", "data.shapes", "torus,sphere"), ("--points", "data.points", "40"),
        ("--data-seed", "data.seed", "9"),
    ]

    @pytest.mark.parametrize("given", [False, True])
    def test_flags_resolve_as_their_compare_keys(self, tmp_path, monkeypatch, given):
        resolved = []
        monkeypatch.setattr(pipeline, "train", lambda cfg: resolved.append(cfg) or 1 / 0)
        fields = self.FIELD_FLAGS if given else []
        unit = ["--unit", "proedgeshuffle", "--ratio", "3", "--index-mode", "feature_knn"]
        unit += ["--regression-mode", "direct"]
        with pytest.raises(ZeroDivisionError):
            run(["train", *unit, *[a for flag, _, text in fields for a in (flag, text)], "--out", tmp_path / "m.puxp"])
        pairs = {
            "train.ratio": "3", "train.seeds": "1", "compare.units": "proedgeshuffle",
            "compare.index_modes": "feature_knn", "compare.regression_modes": "direct",
        }
        (config,), spec = _compare_configs({**pairs, **{key: text for _, key, text in fields}})
        assert resolved == [dataclasses.replace(config, seed=spec.seeds[0])]

    def test_field_flags_have_no_parser_default(self):
        args = vars(build_parser().parse_args(["train"]))
        assert [args[key] for key in TRAIN_FIELD_FLAGS.values()] == [None] * 11

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--steps", "2.5"], "train.steps: '2.5' is not an integer"),
            (["--channels", "x"], "backbone.width: 'x' is not an integer"),
            (["--lr", "fast"], "train.lr: 'fast' is not a number"),
            (["--backbone", "foo"], "unknown backbone 'foo'; choose from ('mlp_stack', 'edgeconv_stack')"),
        ],
    )
    def test_malformed_field_flag_exits_2_with_the_codec_message(self, tmp_path, capsys, flags, message):
        assert run(["train", *flags, "--out", tmp_path / "m.puxp"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.puxp").exists()

    def test_empty_shape_items_are_dropped(self, tmp_path, capsys):
        flags = [a if a != "sphere" else "sphere,,torus," for a in TRAIN_FLAGS]
        assert run(flags + ["--out", tmp_path / "m.puxp"]) == 0
        assert "  data.shapes=sphere,torus" in capsys.readouterr().out.splitlines()

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--frobnicate"])
        assert exc.value.code == 2

    def test_divergence_exits_3(self, tmp_path):
        # the first update overflows the weights, so step 1 predicts non-finite points
        with np.errstate(all="ignore"):
            code = run(TRAIN_FLAGS + ["--lr", "1e200", "--out", tmp_path / "x.puxp"])
        assert code == 3

    def test_feature_knn_divergence_exits_3(self, tmp_path, capsys):
        flags = ["train", "--unit", "proedgeshuffle", "--ratio", "4", "--k", "16", "--index-mode", "feature_knn"]
        with np.errstate(all="ignore"):
            code = run(flags + ["--lr", "1e200", "--steps", "5", "--out", tmp_path / "x.puxp"])
        assert code == 3
        assert "numerical failure: non-finite features at step 1" in capsys.readouterr().err


class TestUpsampleCommand:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        out = tmp_path / "m.puxp"
        assert run(TRAIN_FLAGS + ["--out", out]) == 0
        return out

    def test_output_count_and_round_trip(self, tmp_path, checkpoint):
        inp, out = tmp_path / "in.xyz", tmp_path / "out.xyz"
        write_cloud(inp, 40)
        assert run(["upsample", "--model", checkpoint, "--input", inp, "--out", out]) == 0
        cloud = read_xyz(out)
        assert cloud.count == 160

    def test_unwritable_out_exits_2_before_reading_anything(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.xyz"
        assert run(["upsample", "--model", tmp_path / "no.puxp", "--input", tmp_path / "no.xyz", "--out", out]) == 2
        want = f"error: --out: cannot write {str(out)!r}: directory {str(out.parent)!r} does not exist\n"
        assert capsys.readouterr().err == want

    def test_empty_input_exits_2(self, tmp_path, checkpoint):
        inp = tmp_path / "in.xyz"
        inp.write_text("# nothing here\n")
        assert run(["upsample", "--model", checkpoint, "--input", inp, "--out", tmp_path / "o"]) == 2

    def test_hidden_edgeconv_checkpoint_exits_2(self, tmp_path, checkpoint, capsys):
        ckpt = load_checkpoint(checkpoint)
        old = tmp_path / "hidden.puxp"  # as written with unit.edge_hidden=8
        params = [*ckpt.params, ("unit.conv.h.w1", np.zeros((8, 32), dtype="<f4"))]
        save_checkpoint(old, Checkpoint({**ckpt.fields, "unit.edge_hidden": "8"}, params))
        inp = tmp_path / "in.xyz"
        write_cloud(inp, 16)
        capsys.readouterr()
        assert run(["upsample", "--model", old, "--input", inp, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint sets field(s) this version does not know")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["unit.ratio", "model.k"])
    def test_non_integer_header_value_exits_2_and_names_its_key(self, tmp_path, checkpoint, capsys, key):
        ckpt = load_checkpoint(checkpoint)
        bad = tmp_path / "bad.puxp"
        save_checkpoint(bad, Checkpoint({**ckpt.fields, key: "2.5"}, ckpt.params))
        inp = tmp_path / "in.xyz"
        write_cloud(inp, 16)
        capsys.readouterr()
        assert run(["upsample", "--model", bad, "--input", inp, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: checkpoint spec block is invalid: {key}: '2.5' is not an integer\n"

    @pytest.mark.parametrize("fault", ["missing-field", "wrong-shape"])
    def test_checkpoint_that_disagrees_with_its_spec_exits_2(self, tmp_path, checkpoint, capsys, fault):
        ckpt = load_checkpoint(checkpoint)
        fields, params = dict(ckpt.fields), list(ckpt.params)
        if fault == "missing-field":
            del fields["model.k"]
            want = "checkpoint is missing spec field 'model.k'"
        else:
            name, values = params[0]
            params[0] = (name, values[..., None])
            want = f"parameter {name!r} has shape {values[..., None].shape}, expected {values.shape}"
        bad = tmp_path / "bad.puxp"
        save_checkpoint(bad, Checkpoint(fields, params))
        inp = tmp_path / "in.xyz"
        write_cloud(inp, 16)
        capsys.readouterr()
        assert run(["upsample", "--model", bad, "--input", inp, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not (tmp_path / "o").exists()

    def test_foreign_checkpoint_exits_2(self, tmp_path):
        bad = tmp_path / "bad.puxp"
        bad.write_bytes(b"WRONG" + b"\x00" * 32)
        inp = tmp_path / "in.xyz"
        write_cloud(inp, 16)
        assert run(["upsample", "--model", bad, "--input", inp, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize(
        "shape", [(2**31, 2**31), (2**32 - 1,), (2**32 - 1,) * 3], ids=["2^62-values", "17-gb", "wraps-int64"]
    )
    def test_parameter_longer_than_the_file_exits_2(self, tmp_path, capsys, shape):
        # read as asked: OverflowError (exit 1, a traceback) or MemoryError; np.prod wrapped (2^32 - 1)^3
        bad = tmp_path / "huge.puxp"
        dims = struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 0, 1) + struct.pack("<H", 1) + b"w" + dims + bytes(16))
        inp = tmp_path / "in.xyz"
        write_cloud(inp, 16)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run(["upsample", "--model", bad, "--input", inp, "--out", tmp_path / "o"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: truncated checkpoint\n"
        assert peak < 2**20, peak


class TestEvalCommand:
    def test_unwritable_csv_exits_2_before_reading_anything(self, tmp_path, capsys):
        assert run(["eval", "--pred", tmp_path / "p.xyz", "--gt", tmp_path / "g.xyz", "--csv", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: --csv: cannot write {str(tmp_path)!r}: it is a directory\n"

    def test_identical_clouds_give_zero(self, tmp_path, capsys):
        a = tmp_path / "a.xyz"
        write_cloud(a, 24)
        assert run(["eval", "--pred", a, "--gt", a]) == 0
        out = capsys.readouterr().out
        assert "cd=0 " in out
        assert "hd=0 " in out

    def test_with_mesh_and_csv(self, tmp_path):
        pred, gt, off, csv = (tmp_path / n for n in ("p.xyz", "g.xyz", "m.off", "r.csv"))
        write_cloud(pred, 16, seed=1)
        write_cloud(gt, 32, seed=2)
        write_mesh_off(off)
        assert run(["eval", "--pred", pred, "--gt", gt, "--mesh", off, "--csv", csv]) == 0
        rows = read_csv_rows(csv)
        assert len(rows) == 1
        assert float(rows[0]["cd"]) > 0
        assert rows[0]["p2f"] != ""

    def test_label_with_a_comma_is_quoted(self, tmp_path):
        pred, gt, csv = tmp_path / "run,1.xyz", tmp_path / "g.xyz", tmp_path / "r.csv"
        write_cloud(pred, 16, seed=1)
        write_cloud(gt, 32, seed=2)
        assert run(["eval", "--pred", pred, "--gt", gt, "--csv", csv]) == 0
        assert '\n"run,1",' in csv.read_text()
        (row,) = read_csv_rows(csv)
        want = metrics.report("run,1", read_xyz(pred), read_xyz(gt), None)
        assert row == {
            "label": "run,1", "cd": f"{want.cd:.17g}", "hd": f"{want.hd:.17g}", "p2f": "",
            "pred_count": "16", "gt_count": "32",
        }

    @pytest.mark.parametrize("shift", [-18, 300])
    def test_scaled_sphere_mesh_gives_the_scaled_unit_metrics(self, tmp_path, shift):
        # every face of the sphere is kept at 2^-18, and no product overflows at 2^300
        shape = SyntheticShape("sphere")
        mesh = surface_mesh(shape)
        rng = np.random.default_rng(3)
        pred_pts = surface_sample(shape, 48, rng) + rng.normal(scale=0.02, size=(48, 3))
        gt_pts = surface_sample(shape, 96, rng)
        faces = "".join(f"3 {a} {b} {c}\n" for a, b, c in mesh.faces.tolist())

        def coords(rows, s):
            return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in np.ldexp(rows, s).tolist())

        rows = {}
        for s in (0, shift):
            pred, gt, off, csv = (tmp_path / f"{name}{s}" for name in ("p.xyz", "g.xyz", "m.off", "r.csv"))
            pred.write_text(coords(pred_pts, s))
            gt.write_text(coords(gt_pts, s))
            off.write_text(f"OFF\n{len(mesh.vertices)} {mesh.face_count} 0\n{coords(mesh.vertices, s)}{faces}")
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # no face dropped
                assert run(["eval", "--pred", pred, "--gt", gt, "--mesh", off, "--csv", csv]) == 0
            rows[s] = read_csv_rows(csv)[0]
        for key, power in (("cd", 2), ("hd", 1), ("p2f", 1)):  # the CSV keeps 17 digits: exact
            assert float(rows[shift][key]) == np.ldexp(float(rows[0][key]), power * shift)

    @pytest.mark.parametrize("with_mesh", [False, True])
    def test_squared_distances_beyond_float64_exit_2_and_say_so(self, tmp_path, capsys, with_mesh):
        shape = SyntheticShape("sphere")
        mesh = surface_mesh(shape)
        rng = np.random.default_rng(3)

        def coords(rows):
            return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in np.ldexp(rows, 600).tolist())

        pred, gt, off = tmp_path / "p.xyz", tmp_path / "g.xyz", tmp_path / "m.off"
        pred.write_text(coords(surface_sample(shape, 48, rng) + rng.normal(scale=0.02, size=(48, 3))))
        gt.write_text(coords(surface_sample(shape, 96, rng)))
        faces = "".join(f"3 {a} {b} {c}\n" for a, b, c in mesh.faces.tolist())
        off.write_text(f"OFF\n{len(mesh.vertices)} {mesh.face_count} 0\n{coords(mesh.vertices)}{faces}")
        argv = ["eval", "--pred", pred, "--gt", gt] + (["--mesh", off] if with_mesh else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 2
        assert "squared distances overflow float64 at this coordinate scale" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.50 GiB")

        monkeypatch.setattr(metrics, "report", exhausted)
        a = tmp_path / "a.xyz"
        write_cloud(a, 24)
        assert run(["eval", "--pred", a, "--gt", a]) == 2
        assert "error: out of memory: Unable to allocate 1.50 GiB" in capsys.readouterr().err


class TestCompareCommand:
    def test_two_units_two_rows(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "backbone.width=8\ntrain.steps=2\ntrain.k=6\ntrain.ratio=4\ntrain.seeds=1\n"
            "data.shapes=sphere\ndata.points=32\ncompare.units=branch,nodeshuffle\n"
            f"out={out}\n"
        )
        assert run(["compare", "--config", cfg]) == 0
        rows = read_csv_rows(out)
        assert [r["unit"] for r in rows] == ["branch", "nodeshuffle"]
        assert all(np.isfinite(float(r["cd"])) for r in rows)
        text = out.read_text()
        assert "# chamfer: squared" in text  # conventions block
        assert "full-scale PU1K benchmark" in text  # documentation footer, not asserted values

    SMALL_COMPARE = (
        "backbone.width=8\ntrain.steps=2\ntrain.k=6\ntrain.seeds=1\n"
        "data.shapes=sphere\ndata.points=32\ncompare.units=branch,nodeshuffle\n"
    )

    def test_misspelled_key_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE + "train.step=10\n")
        assert run(["compare", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown compare config key(s) train.step;")
        assert not (tmp_path / "comparison.csv").exists()

    def test_optimizer_keys_reach_every_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            self.SMALL_COMPARE + f"train.beta1=0.5\ntrain.beta2=0.99\ntrain.eps=1e-06\nout={out}\n"
        )
        configs, _ = _compare_configs(read_fields(cfg))
        assert [(c.beta1, c.beta2, c.eps) for c in configs] == [(0.5, 0.99, 1e-6)] * 2
        assert run(["compare", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("train.beta1=0.5", "train.beta2=0.99", "train.eps=1e-06", "unit.ratio=4",
                     "compare.rows=branch/expand/direct;nodeshuffle/expand/direct"):
            assert f"  {line}" in lines
        # branch and nodeshuffle differ in unit.kind and unit.k: not one shared value
        for key in ("train.seed=", "unit.kind=", "unit.k="):
            assert not any(line.startswith(f"  {key}") for line in lines), key

    def test_index_modes_reach_only_the_units_that_read_them(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            self.SMALL_COMPARE.replace("branch,nodeshuffle", "branch,proedgeshuffle")
            + "compare.index_modes=expand,feature_knn\n"
        )
        configs, _ = _compare_configs(read_fields(cfg))
        assert [(c.unit.kind, c.unit.index_mode, c.unit.k) for c in configs] == [
            ("branch", "expand", None),
            ("proedgeshuffle", "expand", 6),
            ("proedgeshuffle", "feature_knn", 6),
        ]

    def test_unknown_unit_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            self.SMALL_COMPARE.replace("branch,nodeshuffle", "branch,magic")
            + "compare.index_modes=feature_knn\n"
        )
        assert run(["compare", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: unknown unit kind 'magic'; choose from")

    def test_train_seed_points_to_seeds(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE + "train.seed=3\n")
        assert run(["compare", "--config", cfg]) == 2
        assert "train.seeds" in capsys.readouterr().err

    def test_repeated_key_exits_2_and_names_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE + "train.steps=20\n")
        assert run(["compare", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:8: key 'train.steps' is set again (first set on line 2)")
        assert not (tmp_path / "comparison.csv").exists()

    def test_graph_regression_mode_runs_at_ratio_3(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "backbone.width=8\ntrain.steps=2\ntrain.k=6\ntrain.ratio=3\ntrain.seeds=1,2\n"
            "data.shapes=sphere\ndata.points=32\ncompare.units=branch\n"
            f"compare.regression_modes=direct,edgeconv_before\nout={out}\n"
        )
        assert run(["compare", "--config", cfg]) == 0
        rows = read_csv_rows(out)
        assert [(r["unit"], r["index_mode"], r["regression_mode"]) for r in rows] == [
            ("branch", "expand", "direct"),
            ("branch", "expand", "edgeconv_before"),
        ]

    def test_every_unit_compares_at_ratio_6(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "cmp.csv"
        cfg.write_text(
            "backbone.width=8\ntrain.steps=2\ntrain.k=6\ntrain.ratio=6\ntrain.seeds=1\n"
            f"data.shapes=sphere\ndata.points=32\ncompare.units={','.join(UNIT_KINDS)}\nout={out}\n"
        )
        assert run(["compare", "--config", cfg]) == 0
        rows = read_csv_rows(out)
        assert [r["unit"] for r in rows] == list(UNIT_KINDS)
        for r in rows:
            assert all(np.isfinite(float(r[col])) for col in ("cd", "hd", "p2f")), r

    def test_repeated_seed_exits_2_and_names_it(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **kw: trained.append(a))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE.replace("train.seeds=1\n", "train.seeds=1,2,1\n"))
        assert run(["compare", "--config", cfg]) == 2
        assert "train.seeds lists seed 1 more than once" in capsys.readouterr().err
        assert trained == []

    @pytest.mark.parametrize("text", ["1,2,", " 1, 2"])
    def test_seed_items_are_stripped_and_empty_ones_dropped(self, text):
        _, spec = _compare_configs({"compare.units": "branch", "train.seeds": text})
        assert spec.seeds == (1, 2)

    @pytest.mark.parametrize(
        "seeds, message",
        [("1,-1", "train.seeds must be an integer >= 0, got -1"), ("", "train.seeds lists no seed")],
    )
    def test_bad_seed_exits_2_before_any_cell_trains(self, tmp_path, capsys, monkeypatch, seeds, message):
        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **kw: trained.append(a))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE.replace("train.seeds=1\n", f"train.seeds={seeds}\n"))
        assert run(["compare", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trained == []

    @pytest.mark.parametrize(
        "line, replacement, message",
        [
            ("compare.units=branch,nodeshuffle\n", "", "compare config is missing 'compare.units'"),
            ("compare.units=branch,nodeshuffle\n", "compare.units=\n", "compare config selects no unit"),
            ("data.shapes=sphere\n", "data.shapes=cube\n", f"unknown shape 'cube'; choose from {SHAPE_KINDS}"),
            ("data.shapes=sphere\n", "data.shapes=\n", "need at least one shape"),
            ("train.seeds=1\n", "train.seeds=1\ntrain.beta1=1\n", "invalid optimizer settings"),
            (
                "train.seeds=1\n",
                "train.seeds=1\ncompare.index_modes=bogus\n",
                f"unknown index mode 'bogus'; choose from {INDEX_MODES}",
            ),
            (
                "train.seeds=1\n",
                "train.seeds=1\ncompare.regression_modes=bogus\n",
                f"unknown regression mode 'bogus'; choose from {REGRESSION_MODES}",
            ),
        ],
        ids=[
            "no-units-key", "empty-units", "unknown-shape", "no-shape", "beta1-of-1",
            "bogus-index-mode", "bogus-regression-mode",
        ],
    )
    def test_bad_compare_file_exits_2_before_any_cell_trains(
        self, tmp_path, capsys, monkeypatch, line, replacement, message
    ):
        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **kw: trained.append(a))
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE.replace(line, replacement))
        assert run(["compare", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trained == []
        assert list(tmp_path.iterdir()) == [cfg]  # no CSV

    def test_printed_config_is_a_compare_file_for_the_same_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "compare_units", lambda configs, seeds: calls.append((configs, seeds)) or 1 / 0)
        cfg = tmp_path / "c.cfg"
        text = self.SMALL_COMPARE.replace("train.seeds=1", "train.seeds=5, 2").replace("nodeshuffle", "proedgeshuffle,")
        cfg.write_text(
            text + "train.ratio=3\ntrain.lr=0.01\ncompare.index_modes=expand,feature_knn\n"
            "compare.regression_modes=default,direct\nout=replaced.csv\n"
        )
        out = tmp_path / "cmp.csv"
        with pytest.raises(ZeroDivisionError):
            run(["compare", "--config", cfg, "--out", out])
        lines = capsys.readouterr().out.splitlines()
        block = [line.strip() for line in lines[lines.index("resolved config:") + 1:]]
        replay = tmp_path / "replay.cfg"
        replay.write_text("".join(f"{line}\n" for line in block if not line.startswith(("unit.", "compare.rows="))))
        configs, spec = _compare_configs(read_fields(replay))
        assert calls == [(configs, (5, 2))]
        assert spec.seeds == (5, 2) and spec.out == str(out)

    def test_readme_lists_every_accepted_key_with_its_default(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("Accepted keys and their defaults:\n\n")[1].split("\n\n")[0]
        documented = {}
        for row in table.splitlines()[2:]:
            keys_cell, default_cell = row.strip("|").split("|")
            keys = re.findall(r"`([^`]*)`", keys_cell)
            # a required key has no default: CompareSpec() holds it empty
            defaults = [""] if default_cell.strip().startswith("required") else re.findall(r"`([^`]*)`", default_cell)
            documented.update(zip(keys, defaults[: len(keys)], strict=True))
        train = spec_to_fields(pipeline.train_config({}, "branch", 4), "train")
        assert documented == {
            **spec_to_fields(pipeline.CompareSpec(), "compare"),
            **{key: value for key, value in train.items() if not key.startswith("unit.") and key != "train.seed"},
        }
        with pytest.raises(ConfigError) as exc:
            _compare_configs({"compare.units": "branch", "compare.unit": "branch"})
        assert str(exc.value).split("accepted keys: ")[1].split(", ") == sorted(documented)

    def test_library_and_cli_write_the_same_csv(self, tmp_path):
        # the library route of demos/06_unit_comparison.py at a tiny budget
        C, K = 16, 8
        configs = [
            TrainConfig(
                unit=ExpansionSpec(kind=kind, ratio=4, channels=C, k=K),
                backbone=BackboneSpec("edgeconv_stack", depth=2, width=C),
                k=K,
                steps=2,
                lr=0.001,
                shapes=("sphere", "box_surface"),
                points=32,
            )
            for kind in UNIT_KINDS
        ]
        write_comparison_csv(tmp_path / "library.csv", pipeline.compare_units(configs, seeds=(1,)))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"backbone.width={C}\ntrain.k={K}\ntrain.steps=2\ntrain.seeds=1\ndata.shapes=sphere,box_surface\n"
            f"data.points=32\ncompare.units={','.join(UNIT_KINDS)}\n"
        )
        assert run(["compare", "--config", cfg, "--out", tmp_path / "cli.csv"]) == 0
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
        budget = (
            "# budget: unit.ratio=4 backbone.kind=edgeconv_stack backbone.depth=2 backbone.width=16 train.k=8 "
            "train.steps=2 train.lr=0.001 train.beta1=0.9 train.beta2=0.999 train.eps=1e-08 train.batch_size=1 "
            "data.shapes=sphere,box_surface data.points=32 data.seed=100"
        )
        assert budget in (tmp_path / "cli.csv").read_text().splitlines()

    def test_budget_line_tells_learning_rates_apart(self, tmp_path):
        lines = []
        for lr in ("0.001", "0.01"):
            cfg, out = tmp_path / "c.cfg", tmp_path / f"{lr}.csv"
            cfg.write_text(self.SMALL_COMPARE.replace("branch,nodeshuffle", "nodeshuffle") + f"train.lr={lr}\n")
            assert run(["compare", "--config", cfg, "--out", out]) == 0
            (budget,) = [line for line in out.read_text().splitlines() if line.startswith("# budget: ")]
            lines.append(budget)
        assert "train.lr=0.001 " in lines[0]
        assert lines[0].replace("train.lr=0.001 ", "train.lr=0.01 ") == lines[1]

    @pytest.mark.parametrize(
        "config_out, flag_out, reason",
        [
            ("{tmp}/missing/cmp.csv", None, "directory '{tmp}/missing' does not exist"),
            ("", None, "the path is empty"),
            (None, "{tmp}/missing/cmp.csv", "directory '{tmp}/missing' does not exist"),
            (None, "{tmp}", "it is a directory"),
        ],
        ids=["config-missing-directory", "config-empty", "flag-missing-directory", "flag-directory"],
    )
    def test_unwritable_out_exits_2_before_any_cell_trains(
        self, tmp_path, capsys, monkeypatch, config_out, flag_out, reason
    ):
        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **kw: trained.append(a))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE + ("" if config_out is None else f"out={config_out.format(tmp=tmp_path)}\n"))
        flags = [] if flag_out is None else ["--out", flag_out.format(tmp=tmp_path)]
        assert run(["compare", "--config", cfg, *flags]) == 2
        path = (config_out if flag_out is None else flag_out).format(tmp=tmp_path)
        assert capsys.readouterr().err == f"error: out: cannot write {path!r}: {reason.format(tmp=tmp_path)}\n"
        assert trained == []

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("train.k=6\n", "train.k=6\ntrain.ratio=2.5\n", "train.ratio: '2.5' is not an integer"),
            ("train.steps=2\n", "train.steps=2.5\n", "train.steps: '2.5' is not an integer"),
            ("train.seeds=1\n", "train.seeds=1,x\n", "train.seeds: 'x' is not an integer"),
            ("train.seeds=1\n", "train.seeds=1\ntrain.lr=fast\n", "train.lr: 'fast' is not a number"),
        ],
    )
    def test_unparsable_value_exits_2_and_names_its_key(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.SMALL_COMPARE.replace(old, new))
        assert run(["compare", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_config_line_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("this is not key value\n")
        assert run(["compare", "--config", cfg]) == 2
        assert ":1" in capsys.readouterr().err


def result_lines(out):
    """The PASS/FAIL lines of a check suite, timing figures masked."""
    return [re.sub(r"\d+\.\d\ds", "N.NNs", line) for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]


class TestCheckCommands:
    GRADCHECK_NAMES = [
        "op/dense/relu/x", "op/dense/relu/w", "op/dense/relu/b", "op/dense/linear/x", "op/dense/linear/w",
        "op/dense/linear/b", "op/concat_last/left", "op/concat_last/right", "op/reshape", "op/shuffle_expand",
        "op/chamfer_loss", "op/edge_conv/relu/x", "op/edge_conv/relu/w", "op/edge_conv/relu/b",
        "op/edge_conv/linear/x", "op/edge_conv/linear/w", "op/edge_conv/linear/b",
        "op/edge_conv/expanded/relu/x", "op/edge_conv/expanded/relu/w", "op/edge_conv/expanded/relu/b",
        "op/edge_conv/expanded/linear/x", "op/edge_conv/expanded/linear/w", "op/edge_conv/expanded/linear/b",
        "op/edge_conv/k16/relu/x", "op/edge_conv/k16/relu/w", "op/edge_conv/k16/relu/b",
        "op/edge_conv/k16/linear/x", "op/edge_conv/k16/linear/w", "op/edge_conv/k16/linear/b", "op/sum_all",
        "unit/branch", "unit/duplicate", "unit/single_mlp", "unit/multilayer_mlp", "unit/progressive_mlp",
        "unit/nodeshuffle", "unit/proedgeshuffle", "unit/branch/r6", "unit/duplicate/r6", "unit/single_mlp/r6",
        "unit/multilayer_mlp/r6", "unit/progressive_mlp/r6", "unit/nodeshuffle/r6", "unit/proedgeshuffle/r6",
        "gradient-suite-runtime",
    ]
    KNNCHECK_LINES = [
        "PASS knn/oracle-agreement 0 mismatching clouds out of 25 (N.NNs)",
        "PASS knn/feature-oracle-agreement 0 mismatching feature matrices out of 12",
        "PASS knn/duplicate-oracle-agreement 0 mismatching (cloud, k) pairs out of 40",
        "PASS knn/outlier-cluster",
        "PASS knn/grid-ties",
        "PASS nearest/oracle-agreement 0 mismatching cloud pairs out of 38",
        "PASS nearest/collapsed-target 0 mismatching collapsed clouds out of 6",
        "PASS p2f/oracle-agreement 0 mismatching meshes out of 20",
        "PASS knn-suite-runtime N.NNs",
        "PASS index-expansion/laws 0 failing graphs out of 100",
        "PASS index-expansion/any-ratio-laws 0 failing graphs out of 100",
    ]

    def test_gradcheck_exits_zero(self, tmp_path, capsys):
        assert run(["gradcheck", "--replay-dir", tmp_path]) == 0
        lines = result_lines(capsys.readouterr().out)
        assert [line.split()[1] for line in lines] == self.GRADCHECK_NAMES
        assert all(line.startswith("PASS ") for line in lines)

    def test_knncheck_exits_zero(self, tmp_path, capsys):
        assert run(["knncheck", "--clouds", 25, "--replay-dir", tmp_path]) == 0
        assert result_lines(capsys.readouterr().out) == self.KNNCHECK_LINES

    def test_knncheck_runtime_spans_the_mesh_checks(self, tmp_path, capsys, monkeypatch):
        # A clock that jumps 100 s while the mesh cases run, the suite's last check.
        skipped = [0.0]
        real_cases = checks._mesh_cases

        def slowed_mesh_cases(rng):
            skipped[0] = 100.0
            yield from real_cases(rng)

        clock = types.SimpleNamespace(perf_counter=lambda: time.perf_counter() + skipped[0])
        monkeypatch.setattr(checks, "time", clock)
        monkeypatch.setattr(checks, "_mesh_cases", slowed_mesh_cases)
        assert run(["knncheck", "--clouds", 1, "--replay-dir", tmp_path]) == 1
        (line,) = [line for line in capsys.readouterr().out.splitlines() if "knn-suite-runtime" in line]
        assert re.fullmatch(r"FAIL knn-suite-runtime 1\d\d\.\d\ds", line), line

    @pytest.mark.parametrize("command, seed", [("gradcheck", -1), ("knncheck", -3)])
    def test_negative_seed_exits_2_and_names_it(self, tmp_path, capsys, command, seed):
        assert run([command, "--seed", seed, "--replay-dir", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: seed must be an integer >= 0, got {seed}\n"

    @pytest.mark.parametrize("clouds", [-5, 0])
    def test_knncheck_needs_a_cloud(self, tmp_path, capsys, clouds):
        assert run(["knncheck", "--clouds", clouds, "--replay-dir", tmp_path]) == 2
        assert f"error: --clouds must be an integer >= 1, got {clouds}" in capsys.readouterr().err

    def test_knncheck_failure_exits_1_and_saves_the_first_failing_cloud(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = checks.knn_accelerated

        def corrupt_from_call_4(points, k):
            calls.append((points, k))
            idx = real(points, k)
            return idx if len(calls) < 4 else IndexMatrix(idx.entries[:, ::-1])

        monkeypatch.setattr(checks, "knn_accelerated", corrupt_from_call_4)
        assert run(["knncheck", "--clouds", 10, "--replay-dir", tmp_path]) == 1
        lines = result_lines(capsys.readouterr().out)
        path = tmp_path / "failcase-knn_oracle-agreement.npz"
        assert f"FAIL knn/oracle-agreement 7 mismatching clouds out of 10 (N.NNs) [case saved to {path}]" in lines
        points, k = calls[3]  # trial 3 is the first corrupted call
        with np.load(path) as case:
            assert np.array_equal(case["points"], points)
            assert case["k"] == k and case["trial"] == 3
