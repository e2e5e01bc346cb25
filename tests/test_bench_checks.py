"""Each benchmark workload's own output check, after one round on this source tree.

bench/workloads.py calls into the package directly: ExpansionContext,
unit.expand, units.expanded_graph and the regression stage with no graph in
`direct` mode. Running prepare, setup, one round of operations and check for
every workload makes a change that breaks those calls fail here, not only in
a benchmark run. The bench files are imported, never written; the workdir is
a temporary directory.
"""

import pathlib
import sys

import pytest

BENCH_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
SEED = 1  # bench/run.py's default


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH_DIR)
    try:
        import workloads as module
    finally:
        sys.path.remove(BENCH_DIR)
    return module


@pytest.mark.parametrize("name", ["train-expand", "train-feature-knn", "evaluate", "upsample-16k"])
def test_one_round_passes_the_workload_check(workloads, name, tmp_path):
    workload = workloads.make(name, str(tmp_path))
    workload.prepare(SEED)
    state = workload.setup(SEED)
    workload.begin_round(state)
    for _ in range(workload.round_ops):
        workload.op(state)
    assert workload.check(state) == []
