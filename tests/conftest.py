"""The first lines of every test run name the BLAS kernel numpy runs on.

Two byte pins run through matmul, so their bytes belong to the OpenBLAS kernel
they were recorded under, SkylakeX: test_upsample_output_bytes_are_pinned and
TestPowerOfTwoPin. Each makes its digest in a child process under that kernel
(blas_kernels.run_under_recorded_kernel), so both hold whatever kernel runs the
suite, on a CPU with the AVX-512 that SkylakeX needs."""

import ctypes
import glob
import os

import numpy as np
import scipy


def _openblas_core():
    """The core numpy's libscipy_openblas64_ picked for this CPU, or "unknown"."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")
    for path in sorted(glob.glob(pattern)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return f"BLAS kernel: OpenBLAS {_openblas_core()}; numpy {np.__version__}, scipy {scipy.__version__}"
