"""The golden manifest: sha256 digests of the outputs a refactor must keep byte for byte.

Every output is made on the benchmark configuration: proedgeshuffle at r = 4,
k = 16, C = 32, an edgeconv_stack 2 x 32 backbone, 256-point patches, model seed 1.
- train/<index mode>: the losses of a 9-step pipeline.train on the patches of data
  seed 1,000,001 and the parameter values it ends with, in both index modes;
- evaluate/<data seed>: the rows pipeline.evaluate gives for the checked-in
  checkpoint (bench/data/proedgeshuffle-r4.puxp) on the patches of data seeds
  1,000,001 and 1,000,002;
- upsample/torus-16k: the XYZ file that checkpoint writes for the 16,384-point
  torus of seed 1, read from a "%.9g" file as `puxp upsample` reads it.

These outputs run through GEMM, whose rounding belongs to the OpenBLAS kernel, so
the digests are made in a child process under the kernel the GEMM byte pins were
recorded under (blas_kernels.run_under_recorded_kernel). golden.json holds them
with that kernel's name and the numpy and scipy versions.

    python tests/golden.py           print the manifest this checkout makes
    python tests/golden.py --write   write it to tests/golden.json
"""

import dataclasses
import hashlib
import json
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


def digests():
    """{output: sha256} of every covered output, made in this process."""
    from puxp import dataio, pipeline, shapes, units

    out = {}
    for mode in units.INDEX_MODES:
        run = pipeline.train(_config(DATA_SEEDS[0], mode))
        out[f"train/{mode}"] = _sha256(np.array(run.losses).tobytes() + run.model.store.values.tobytes())
    model = pipeline.model_from_checkpoint(dataio.load_checkpoint(CHECKPOINT))
    for seed in DATA_SEEDS:
        rows = pipeline.evaluate(model, pipeline.make_dataset(_config(seed)))
        out[f"evaluate/{seed}"] = _sha256(repr([dataclasses.astuple(r) for r in rows]).encode())
    cloud, _, _ = shapes.sample_pair(shapes.SyntheticShape("torus"), TORUS_POINTS, 4, 1)
    with tempfile.TemporaryDirectory() as tmp:
        given, written = pathlib.Path(tmp, "torus-16k.xyz"), pathlib.Path(tmp, "torus-64k.xyz")
        np.savetxt(given, cloud.points, fmt="%.9g")
        dataio.write_xyz(written, model.upsample(dataio.read_xyz(given)))
        out["upsample/torus-16k"] = _sha256(written.read_bytes())
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
