"""Outside-in tracer: spans around puxp's public calls, installed from here.

Nothing in `src/` knows about it. `Tracer.install()` replaces every public
function and public method of the listed puxp modules with a timing
wrapper, in every puxp namespace that binds it (so `pipeline.adam_step`,
imported from `optim`, is traced too). `Tape.record` is wrapped specially:
each backward closure an op hands to the tape is timed as
`autodiff.backward.<op>`, the op being read from the closure's qualified
name. `uninstall()` puts every original back. An untraced run never calls
`install()`, so it runs the program unmodified.

Spans are kept in memory as (id, parent, name, phase, op, t0, t1) and
written as JSON lines at the end. Layer metrics are computed from them by
`layer_metrics`.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
import time

MODULES = (
    "autodiff",
    "optim",
    "geometry",
    "nn",
    "units",
    "metrics",
    "losses",
    "shapes",
    "pipeline",
    "dataio",
)

# Stage spans own their self time: duration minus the stage spans nested in
# them. Spans of every other traced call (ops, nn layers, helpers) count
# toward the nearest enclosing stage.
STAGES = {
    "pipeline.Backbone.forward": "pipeline.backbone_ms",
    "units.RegressionStage.forward": "units.regress_ms",
    "losses.chamfer_loss": "losses.chamfer_loss_ms",
    "autodiff.Tape.backward": "autodiff.backward_ms",
    "optim.adam_step": "optim.adam_step_ms",
    "geometry.knn_accelerated": "geometry.knn_accelerated_ms",
    "geometry.knn_features": "geometry.knn_features_ms",
    "metrics.chamfer": "metrics.chamfer_ms",
    "metrics.hausdorff": "metrics.hausdorff_ms",
    "metrics.point_to_face": "metrics.point_to_face_ms",
    "pipeline.UpsamplingModel.upsample": "pipeline.upsample_ms",
    "dataio.read_xyz": "dataio.read_xyz_ms",
    "dataio.write_xyz": "dataio.write_xyz_ms",
    "dataio.load_checkpoint": "dataio.load_checkpoint_ms",
    "shapes.sample_pair": "shapes.sample_pair_ms",
}
EXPAND_METRIC = "units.expand_ms"  # any `units.<Unit>.expand`
OP_SPAN = "bench.op"  # the benchmark's span around one timed operation

# Backward rules are a breakdown of autodiff.backward_ms (inclusive times).
BACKWARD_OPS = (
    "gather_rows",
    "matmul",
    "relu",
    "max_over_k",
    "concat_last",
    "sub",
    "reshape",
    "add_bias",
    "chamfer_loss",
)

COUNTED_CALLS = {
    "geometry.knn_features": "geometry.knn_features_calls",
    "geometry.squared_distances_to_triangle": "geometry.triangle_distance_calls",
    "metrics.pairwise_squared_distances": "metrics.pairwise_calls",
}


class Tracer:
    """Collects spans and counters for one process; install once at a time."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.phase = "setup"
        self.op = -1
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- span recording ----------------------------------------------------

    def _begin(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid, parent, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, self.phase, self.op, t0, t1))

    @contextlib.contextmanager
    def span(self, name):
        sid, parent = self._begin()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._end(sid, parent, name, t0)

    def wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._begin()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(sid, parent, name, t0)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def count(self, name, amount=1):
        self.counts[(self.phase, name)] += amount

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the public functions and methods of `package`'s modules."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        namespaces = [package, *modules]
        replacements = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._function_wrapper(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{attr}")
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in replacements:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, replacements[id(obj)])

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _function_wrapper(self, fn, name):
        on_result = None
        if name == "autodiff.gather_rows":
            def on_result(out):
                self.count("autodiff.gather_rows_bytes", out.data.nbytes)
        return self.wrap(fn, name, on_result)

    def _wrap_methods(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(fn):
                continue
            name = f"{prefix}.{attr}"
            if name == "autodiff.Tape.record":
                wrapped = self._record_wrapper(fn)
            else:
                wrapped = self.wrap(fn, name)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _record_wrapper(self, record):
        @functools.wraps(record)
        def traced_record(tape, backward):
            op = backward.__qualname__.split(".", 1)[0]
            self.count("autodiff.tape_records")
            return record(tape, self.wrap(backward, f"autodiff.backward.{op}"))

        return traced_record

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, phase, op, t0, t1 in sorted(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "phase": phase,
                            "op": op,
                            "start_us": round(t0 * 1e6, 1),
                            "end_us": round(t1 * 1e6, 1),
                        }
                    )
                    + "\n"
                )


def _metric_for(name):
    if name in STAGES:
        return STAGES[name]
    if name.startswith("units.") and name.endswith(".expand"):
        return EXPAND_METRIC
    return None


def layer_metrics(tracer, n_setups, n_ops):
    """Per-layer values from the recorded spans.

    Stage times are self times in ms. A stage that ran during the timed
    operations is reported per operation; one that ran only during set-up is
    reported per set-up. Counts are per operation.
    """
    by_id = {s[0]: s for s in tracer.spans}
    self_ms = collections.defaultdict(float)  # (phase, metric) -> ms
    inclusive_ms = collections.defaultdict(float)
    calls = collections.Counter()
    op_ms = 0.0
    for sid, parent, name, phase, _op, t0, t1 in tracer.spans:
        dur = (t1 - t0) * 1e3
        if name == OP_SPAN:
            op_ms += dur if phase == "op" else 0.0
            continue
        if name in COUNTED_CALLS and phase == "op":
            calls[COUNTED_CALLS[name]] += 1
        if name.startswith("autodiff.backward.") and phase == "op":
            inclusive_ms[f"{name}_ms"] += dur
        metric = _metric_for(name)
        if metric is None:
            continue
        self_ms[(phase, metric)] += dur
        ancestor = by_id.get(parent)
        while ancestor is not None and _metric_for(ancestor[2]) is None:
            ancestor = by_id.get(ancestor[1])
        if ancestor is not None:
            self_ms[(ancestor[3], _metric_for(ancestor[2]))] -= dur

    out = {}
    stage_metrics = sorted(set(STAGES.values()) | {EXPAND_METRIC})
    covered = 0.0
    for metric in stage_metrics:
        in_ops = self_ms.get(("op", metric), 0.0)
        covered += in_ops
        if in_ops > 0.0:
            out[metric] = (in_ops / n_ops, "ms")
        else:
            out[metric] = (self_ms.get(("setup", metric), 0.0) / n_setups, "ms")
    for op in BACKWARD_OPS:
        name = f"autodiff.backward.{op}_ms"
        out[name] = (inclusive_ms.get(name, 0.0) / n_ops, "ms")
    out["autodiff.tape_records"] = (tracer.counts[("op", "autodiff.tape_records")] / n_ops, "count")
    out["autodiff.gather_rows_mb"] = (
        tracer.counts[("op", "autodiff.gather_rows_bytes")] / n_ops / 1e6,
        "MB",
    )
    for metric in COUNTED_CALLS.values():
        out[metric] = (calls[metric] / n_ops, "count")
    out["trace.coverage_pct"] = (100.0 * covered / op_ms if op_ms else 0.0, "%")
    return out
