"""The golden manifest: sha256 digests of the outputs a refactor must keep byte for byte.

Every output is made on the benchmark configuration: proedgeshuffle at r = 4,
k = 16, C = 32, an edgeconv_stack 2 x 32 backbone, 256-point patches, model seed 1.
- train/<index mode>: the losses of a 9-step pipeline.train on the patches of data
  seed 1,000,001 and the parameter values it ends with, in both index modes;
- train/batch-2: the same for the expand run at batch size 2;
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
  and seeds 1 and 2;
- units/power-of-two: the parameter names, initial parameter bytes and expand
  outputs of every unit (proedgeshuffle in both index modes) at r = 1, 2, 4, 8
  and 16 on one 6-point context, recorded before the units grew one round per
  prime factor of r;
- upsample/torus-4k: the points the checkpoint gives for the 4,096-point torus
  of seed 3, recorded before the forward stopped holding finished activations;
- gradcheck/stdout and knncheck/stdout: what `puxp gradcheck` and
  `puxp knncheck --clouds 25` print, each `<digits>.<digits>s` timing masked.
The commands run in a temporary working directory with relative paths, so the
paths they print do not depend on where the manifest is made. The kernel-free
outputs run through no BLAS call:
- sample_pair/<kind>/<n>/<seed>: cloud, ground truth, mesh vertices and faces of
  sample_pair(kind, n, 4, seed) for every shape, n = 8, 256 and 16,384 and seeds
  1 and 2026, recorded from the loop builders the array builders replaced;
- dataset/bench: the same four arrays of every patch of the benchmark dataset
  (data seed 1,000,001);
- degeneracy/boundary-slivers: the packed geometry._degenerate_faces verdicts on
  boundary_slivers(), 4,000 slivers within an ulp of the 1e-28 threshold.

The other outputs run through GEMM, whose rounding belongs to the OpenBLAS
kernel, so every digest is made in a child process under the kernel the manifest
was recorded under, SkylakeX (RECORDED), whatever kernel runs the caller.
golden.json holds them with that kernel's name and the numpy and scipy versions.
tests/test_golden.py compares them key by key, and also makes the kernel-free
digests under each of OTHER_KERNELS, which must give the same bytes.

    python tests/golden.py           print the manifest this checkout makes
    python tests/golden.py --write   write it to tests/golden.json
    python tests/golden.py --diff    list each key whose digest differs from
                                     tests/golden.json as `key: old -> new`
                                     (`-` where a side lacks the key); exits 0
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import scipy

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = pathlib.Path(__file__).resolve().parent
MANIFEST = TESTS / "golden.json"
CHECKPOINT = TESTS.parent / "bench" / "data" / "proedgeshuffle-r4.puxp"
# The OpenBLAS kernel the manifest is made under, and two others that the
# kernel-free outputs are made under too: Haswell, and Sandybridge with numpy's
# own SIMD capped at its baseline.
RECORDED = {"OPENBLAS_CORETYPE": "SkylakeX"}
OTHER_KERNELS = {
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge": {
        "OPENBLAS_CORETYPE": "Sandybridge",
        "NPY_DISABLE_CPU_FEATURES": " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]),
    },
}
DATA_SEEDS = (1_000_001, 1_000_002)
TRAIN_STEPS = 9
TORUS_POINTS = 16384
PAIR_POINTS = (8, 256, 16384)
PAIR_SEEDS = (1, 2026)
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


def _sha256(*chunks):
    """sha256 of the chunks in turn: bytes as they are, arrays as their C-order bytes."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return digest.hexdigest()


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


def boundary_slivers(n=2000, seed=0):
    """n pairs of slivers one ulp of the apex apart, either side of the 1e-28
    threshold, and the degeneracy verdict of each by left-to-right sums.

    The base runs along x from the origin, so the cross product and the
    norms are exact products and the verdict turns on how three squares
    are summed. The apex height is bisected by elementwise left-to-right
    sums only, so the slivers are the same under every BLAS kernel.
    """
    def degenerate(tris):
        def norm2(u):
            return u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1] + u[:, 2] * u[:, 2]

        ab, ac = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
        span = norm2(ab) * norm2(ac)
        return (norm2(np.cross(ab, ac)) <= 1e-28 * span) | (span == 0.0)

    rng = np.random.default_rng(seed)
    base, run = rng.uniform(0.5, 2.0, size=(2, n))
    depth = rng.uniform(0.1, 0.9, size=n) * 1e-14 * run

    def slivers(height):
        tris = np.zeros((n, 3, 3))
        tris[:, 1, 0] = base
        tris[:, 2] = np.stack([run, height, depth], axis=1)
        return tris

    lo, hi = np.zeros(n), 1e-13 * run
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = degenerate(slivers(mid))
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    tris = np.concatenate([slivers(lo), slivers(hi)])
    return tris, degenerate(tris)


def kernel_free_digests():
    """{output: sha256} of the outputs that run through no BLAS call, made in this process."""
    from puxp import geometry, pipeline, shapes

    out = {}
    for kind in shapes.SHAPE_KINDS:
        for n in PAIR_POINTS:
            for seed in PAIR_SEEDS:
                cloud, gt, mesh = shapes.sample_pair(shapes.SyntheticShape(kind), n, 4, seed)
                out[f"sample_pair/{kind}/{n}/{seed}"] = _sha256(cloud.points, gt.points, mesh.vertices, mesh.faces)
    patches = pipeline.make_dataset(_config(DATA_SEEDS[0]))
    arrays = [a for p in patches for a in (p.cloud.points, p.gt.points, p.mesh.vertices, p.mesh.faces)]
    out["dataset/bench"] = _sha256(*arrays)
    tris, _ = boundary_slivers()
    out["degeneracy/boundary-slivers"] = _sha256(np.packbits(geometry._degenerate_faces(tris)))
    return out


def _power_of_two_chunks():
    """The parameter names, initial parameter bytes and expand output of every unit
    (proedgeshuffle in both index modes) at r = 1, 2, 4, 8 and 16."""
    from puxp import autodiff, geometry, units

    rng = np.random.default_rng(0)
    cloud = geometry.PointCloud(rng.normal(size=(6, 3)))
    ctx = units.ExpansionContext(cloud, geometry.knn_bruteforce(cloud, 3), autodiff.Tensor(rng.normal(size=(6, 4))))
    for kind in units.UNIT_KINDS:
        for mode in units._UNIT_CLASSES[kind].index_modes:
            for ratio in (1, 2, 4, 8, 16):
                store = autodiff.ParameterStore()
                spec = units.ExpansionSpec(kind, ratio=ratio, channels=4, k=3, index_mode=mode)
                unit = units.build_unit(store, spec, np.random.default_rng(1))
                for param in store:
                    yield param.name.encode()
                    yield param.data
                out = unit.expand(ctx)
                yield out.features.data
                if out.index is not None:
                    yield out.index.entries


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
                out[f"train/{mode}"] = _sha256(np.array(run.losses), run.model.store.values)
                dataio.write_loss_csv("loss.csv", run.losses)
                out[f"loss_csv/{mode}"] = _sha256(pathlib.Path("loss.csv").read_bytes())
            run = pipeline.train(dataclasses.replace(_config(DATA_SEEDS[0]), batch_size=2))
            out["train/batch-2"] = _sha256(np.array(run.losses), run.model.store.values)
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
            out["units/power-of-two"] = _sha256(*_power_of_two_chunks())
            cloud, _, _ = shapes.sample_pair(shapes.SyntheticShape("torus"), 4096, 4, 3)
            out["upsample/torus-4k"] = _sha256(model.upsample(cloud).points)
            for command in (["gradcheck"], ["knncheck", "--clouds", "25"]):
                printed = re.sub(r"\d+\.\d+s", "?s", _puxp_stdout(*command))
                out[f"{command[0]}/stdout"] = _sha256(printed.encode())
        finally:
            os.chdir(home)
    return {**out, **kernel_free_digests()}


def _run_python(script, kernel):
    """stdout of `python -c script` with src and tests importable, under exactly `kernel`:
    numpy's SIMD cap from this process's environment is not passed on."""
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env.update(kernel, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def manifest():
    """This checkout's manifest: the digests made under the recorded kernel, with
    that kernel's name and the numpy and scipy versions."""
    made = _run_python("import json, golden\nprint(json.dumps(golden.digests()))", RECORDED)
    return {
        "kernel": f"OpenBLAS {RECORDED['OPENBLAS_CORETYPE']}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "digests": json.loads(made),
    }


def kernel_free_digests_under(kernel):
    """kernel_free_digests() made under `kernel`, one of OTHER_KERNELS."""
    made = _run_python("import json, golden\nprint(json.dumps(golden.kernel_free_digests()))", OTHER_KERNELS[kernel])
    return json.loads(made)


def diff(recorded, made):
    """`key: old -> new` for each key whose digest differs, in the order made, then recorded."""
    return [
        f"{key}: {recorded.get(key, '-')} -> {made.get(key, '-')}"
        for key in {**made, **recorded}
        if recorded.get(key) != made.get(key)
    ]


def main(argv):
    if argv not in ([], ["--write"], ["--diff"]):
        sys.exit("usage: python tests/golden.py [--write | --diff]")
    made = manifest()
    if argv == ["--diff"]:
        for line in diff(json.loads(MANIFEST.read_text())["digests"], made["digests"]):
            print(line)
        return
    text = json.dumps(made, indent=2) + "\n"
    if argv == ["--write"]:
        MANIFEST.write_text(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main(sys.argv[1:])
