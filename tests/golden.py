"""The golden manifest: sha256 digests of the outputs a refactor must keep byte for byte.

Every output is made on the benchmark configuration: proedgeshuffle at r = 4,
k = 16, C = 32, an edgeconv_stack 2 x 32 backbone, 256-point patches, model seed 1.
- train/<index mode>: the losses of a 9-step pipeline.train on the patches of data
  seed 1,000,001 and the parameter values it ends with, in both index modes;
- evaluate/<data seed>: the rows pipeline.evaluate gives for the checked-in
  checkpoint (bench/data/proedgeshuffle-r4.puxp) on the patches of data seeds
  1,000,001 and 1,000,002;
- upsample/torus-16k: the XYZ file that checkpoint writes for the 16,384-point
  torus of seed 1, read from a "%.9g" file as `puxp upsample` reads it;
- loss_csv/<index mode> and metric_csv/<data seed>: the write_loss_csv bytes of
  both train curves and the write_metric_csv bytes of both evaluate row sets;
- eval/*: the stdout of `puxp eval` on the checkpoint's upsampled first patch of
  data seed 1,000,001 against its ground truth, with the patch mesh written as
  OFF and without it, and the metric CSV of the run without (an empty p2f);
- compare/*: the stdout and CSV of `puxp compare` on a small matrix: branch,
  proedgeshuffle and duplicate at r = 4 with 2 steps, 32 points, k = 6, width 8
  and seeds 1 and 2.
The commands run in a temporary working directory with relative paths, so the
paths they print do not depend on where the manifest is made.

These outputs run through GEMM, whose rounding belongs to the OpenBLAS kernel, so
the digests are made in a child process under the kernel the GEMM byte pins were
recorded under (blas_kernels.run_under_recorded_kernel). golden.json holds them
with that kernel's name and the numpy and scipy versions.

    python tests/golden.py           print the manifest this checkout makes
    python tests/golden.py --write   write it to tests/golden.json
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import scipy

from blas_kernels import RECORDED, run_under_recorded_kernel

TESTS = pathlib.Path(__file__).resolve().parent
MANIFEST = TESTS / "golden.json"
CHECKPOINT = TESTS.parent / "bench" / "data" / "proedgeshuffle-r4.puxp"
DATA_SEEDS = (1_000_001, 1_000_002)
TRAIN_STEPS = 9
TORUS_POINTS = 16384
COMPARE_FILE = """\
compare.units=branch,proedgeshuffle,duplicate
train.ratio=4
train.seeds=1,2
train.steps=2
data.points=32
train.k=6
backbone.width=8
"""


def _config(data_seed, index_mode="expand"):
    from puxp import pipeline, units

    return pipeline.TrainConfig(
        unit=units.ExpansionSpec("proedgeshuffle", ratio=4, channels=32, k=16, index_mode=index_mode),
        backbone=pipeline.BackboneSpec("edgeconv_stack", depth=2, width=32),
        k=16,
        steps=TRAIN_STEPS,
        lr=1e-3,
        seed=1,
        points=256,
        data_seed=data_seed,
    )


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _write_off(path, mesh):
    rows = ["OFF", f"{len(mesh.vertices)} {mesh.face_count} 0"]
    rows += ["%.17g %.17g %.17g" % tuple(v) for v in mesh.vertices.tolist()]
    rows += ["3 %d %d %d" % tuple(f) for f in mesh.faces.tolist()]
    pathlib.Path(path).write_text("\n".join(rows) + "\n")


def _puxp_stdout(*argv):
    """What `puxp *argv` prints; it must exit 0."""
    from puxp import cli

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(list(argv)) == 0, argv
    return printed.getvalue()


def digests():
    """{output: sha256} of every covered output, made in this process."""
    from puxp import dataio, pipeline, shapes, units

    out = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for mode in units.INDEX_MODES:
                run = pipeline.train(_config(DATA_SEEDS[0], mode))
                out[f"train/{mode}"] = _sha256(np.array(run.losses).tobytes() + run.model.store.values.tobytes())
                dataio.write_loss_csv("loss.csv", run.losses)
                out[f"loss_csv/{mode}"] = _sha256(pathlib.Path("loss.csv").read_bytes())
            model = pipeline.model_from_checkpoint(dataio.load_checkpoint(CHECKPOINT))
            for seed in DATA_SEEDS:
                rows = pipeline.evaluate(model, pipeline.make_dataset(_config(seed)))
                out[f"evaluate/{seed}"] = _sha256(repr([dataclasses.astuple(r) for r in rows]).encode())
                dataio.write_metric_csv("metrics.csv", rows)
                out[f"metric_csv/{seed}"] = _sha256(pathlib.Path("metrics.csv").read_bytes())
            cloud, _, _ = shapes.sample_pair(shapes.SyntheticShape("torus"), TORUS_POINTS, 4, 1)
            np.savetxt("torus-16k.xyz", cloud.points, fmt="%.9g")
            dataio.write_xyz("torus-64k.xyz", model.upsample(dataio.read_xyz("torus-16k.xyz")))
            out["upsample/torus-16k"] = _sha256(pathlib.Path("torus-64k.xyz").read_bytes())

            patch = pipeline.make_dataset(_config(DATA_SEEDS[0]))[0]
            dataio.write_xyz("pred.xyz", model.upsample(patch.cloud))
            dataio.write_xyz("gt.xyz", patch.gt)
            _write_off("mesh.off", patch.mesh)
            printed = _puxp_stdout("eval", "--pred", "pred.xyz", "--gt", "gt.xyz", "--mesh", "mesh.off")
            printed += _puxp_stdout("eval", "--pred", "pred.xyz", "--gt", "gt.xyz", "--csv", "eval.csv")
            out["eval/stdout"] = _sha256(printed.encode())
            out["eval/csv"] = _sha256(pathlib.Path("eval.csv").read_bytes())
            pathlib.Path("compare.txt").write_text(COMPARE_FILE)
            printed = _puxp_stdout("compare", "--config", "compare.txt", "--out", "comparison.csv")
            out["compare/stdout"] = _sha256(printed.encode())
            out["compare/csv"] = _sha256(pathlib.Path("comparison.csv").read_bytes())
        finally:
            os.chdir(home)
    return out


def manifest():
    """This checkout's manifest: the digests made under the recorded kernel, with
    that kernel's name and the numpy and scipy versions."""
    made = run_under_recorded_kernel("import json, golden\nprint(json.dumps(golden.digests()))")
    return {
        "kernel": f"OpenBLAS {RECORDED['OPENBLAS_CORETYPE']}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "digests": json.loads(made),
    }


def main(argv):
    text = json.dumps(manifest(), indent=2) + "\n"
    if argv == ["--write"]:
        MANIFEST.write_text(text)
    elif argv:
        sys.exit("usage: python tests/golden.py [--write]")
    else:
        print(text, end="")


if __name__ == "__main__":
    main(sys.argv[1:])
