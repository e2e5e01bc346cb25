"""Run a Python snippet in a child process, with this checkout's puxp, under a named
OpenBLAS kernel. The child gets exactly the kernel it is given, whatever its parent
runs under: numpy's SIMD cap from the parent's environment is not passed on."""

import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
# The kernel the GEMM byte pins were recorded under.
RECORDED = {"OPENBLAS_CORETYPE": "SkylakeX"}


def run_python(script, kernel, *args):
    """stdout of `python -c script *args` with src and tests importable, under `kernel`."""
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env.update(kernel, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_under_other_kernels(script, *args):
    """{kernel: stdout} under OpenBLAS Haswell, and under Sandybridge with numpy's own
    SIMD capped at its baseline."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    beyond_baseline = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])
    kernels = {
        "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge", "NPY_DISABLE_CPU_FEATURES": beyond_baseline},
    }
    return {name: run_python(script, kernel, *args) for name, kernel in kernels.items()}


def run_under_recorded_kernel(script, *args):
    """stdout under the kernel the GEMM byte pins were recorded under."""
    return run_python(script, RECORDED, *args)
