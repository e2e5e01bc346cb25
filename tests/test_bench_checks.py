"""Each benchmark workload's own output check, after one round on this source tree.

bench/workloads.py calls into the package directly: ExpansionContext,
unit.expand, units.expanded_graph and the regression stage with no graph in
`direct` mode. Running prepare, setup, one round of operations and check for
every workload makes a change that breaks those calls fail here, not only in
a benchmark run. bench/tracer.py names each backward span from the rule the
tape records, so one taped pass through every op runs under it too. The
bench files are imported, never written; the workdir is a temporary
directory.
"""

import functools
import importlib
import inspect
import pathlib
import sys

import pytest

import puxp
from puxp import autodiff as ad

from taped_ops import taped_op_cases

BENCH_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
SEED = 1  # bench/run.py's default


def _bench_module(name):
    sys.path.insert(0, BENCH_DIR)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH_DIR)


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


@pytest.mark.parametrize("name", ["train-expand", "train-feature-knn", "evaluate", "upsample-16k"])
def test_one_round_passes_the_workload_check(workloads, name, tmp_path):
    workload = workloads.make(name, str(tmp_path))
    workload.prepare(SEED)
    state = workload.setup(SEED)
    workload.begin_round(state)
    for _ in range(workload.round_ops):
        workload.op(state)
    assert workload.check(state) == []


def _bindings(tracer):
    """Every function and class attribute the tracer may replace, by where it is bound."""
    found = {}
    for ns in [puxp, *(importlib.import_module(f"puxp.{m}") for m in tracer.MODULES)]:
        for attr, obj in vars(ns).items():
            if inspect.isfunction(obj):
                found[ns.__name__, attr] = obj
            elif inspect.isclass(obj):
                found.update(((ns.__name__, attr, a), raw) for a, raw in vars(obj).items())
    return found


def test_tracer_names_every_backward_rule_and_uninstalls():
    tracer = _bench_module("tracer")
    before = _bindings(tracer)
    traced = tracer.Tracer()
    traced.install(puxp)
    try:
        assert _bindings(tracer) != before
        with ad.Tape() as tape:
            cases = taped_op_cases().values()
            parts = [ad.sum_all(call(*(ad.Tensor(a, requires_grad=True) for a in arrays))) for arrays, call in cases]
            tape.backward(ad.sum_all(functools.reduce(ad.concat_last, (ad.reshape(p, (1, 1)) for p in parts))))
    finally:
        traced.uninstall()
    assert _bindings(tracer) == before
    names = {span[2] for span in traced.spans}
    assert {f"autodiff.backward.{op}" for op in taped_op_cases()} <= names
    assert traced.counts["setup", "autodiff.tape_records"] == len(tape)
