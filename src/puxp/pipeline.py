"""Model assembly, training, evaluation, and the unit-comparison harness.

A model is backbone (N x 3 -> N x C) + expansion unit (N x C -> r*N x C) +
regression stage (r*N x C -> r*N x 3), all sharing one parameter store. The
KNN graph of the raw input is computed once per cloud and reused everywhere,
except when a unit explicitly recomputes feature-space KNN; the cloud keeps it
(geometry.knn_accelerated) for every model that trains on it or is scored on it.

Training minimizes the squared chamfer distance with Adam. Everything is
driven by explicit seeds: a (config, seed) pair fully determines parameter
bytes, the loss curve, and every report.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

import numpy as np

from . import metrics
from .autodiff import ParameterStore, Tape, Tensor
from .dataio import Checkpoint
from .errors import ConfigError, DivergenceError, FormatError, GradientError, ShapeError, integer, real
from .geometry import PointCloud, as_cloud, knn_accelerated
from .losses import chamfer_loss
from .nn import EdgeConvLayer, SharedMLP
from .optim import AdamState, adam_step
from .shapes import SHAPE_KINDS, SyntheticShape, sample_pair
from .units import (
    INDEX_MODES,
    ExpansionContext,
    ExpansionSpec,
    RegressionStage,
    build_unit,
    expanded_graph,
)

BACKBONE_KINDS = ("mlp_stack", "edgeconv_stack")


# ---------------------------------------------------------------------------
# spec <-> key=value codec: checkpoint headers, resolved-config prints, compare
# files and budget keys all read and write specs through these two functions.


@functools.cache  # resolving the annotations is most of a checkpoint load's spec cost
def _spec_fields(cls, prefix):
    """(name, key, type) per field; a nested spec's key is its own prefix."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        own = f.name if dataclasses.is_dataclass(hints[f.name]) else f"{prefix}.{f.name}"
        out.append((f.name, f.metadata.get("key", own), hints[f.name]))
    return tuple(out)


def spec_to_fields(obj, prefix):
    """Flat {key: text} of a spec: None as "none", tuples joined with ","."""
    out = {}
    for name, key, hint in _spec_fields(type(obj), prefix):
        value = getattr(obj, name)
        if dataclasses.is_dataclass(hint):
            out.update(spec_to_fields(value, key))
        elif value is None:
            out[key] = "none"
        elif isinstance(value, tuple):
            out[key] = ",".join(str(v) for v in value)
        else:
            out[key] = str(value)
    return out


def parse_field(hint, key, text):
    """The one text-to-value step of every key=value input; ConfigError names the key."""
    if isinstance(hint, types.UnionType):  # X | None
        if text == "none":
            return None
        (hint,) = (h for h in typing.get_args(hint) if h is not type(None))
    if hint is tuple or isinstance(hint, types.GenericAlias):  # tuple or tuple[int, ...]
        items = tuple(item.strip() for item in text.split(",") if item.strip())
        return items if hint is tuple else tuple(parse_field(int, key, item) for item in items)
    try:
        return hint(text)
    except ValueError:
        raise ConfigError(f"{key}: {text!r} is not {'an integer' if hint is int else 'a number'}") from None


def spec_from_fields(cls, fields, prefix, **given):
    """Inverse of spec_to_fields. Keyword arguments win over fields, and a key
    absent from fields keeps the dataclass default."""
    kwargs = dict(given)
    for name, key, hint in _spec_fields(cls, prefix):
        if name in given:
            continue
        if dataclasses.is_dataclass(hint):
            kwargs[name] = spec_from_fields(hint, fields, key)
        elif key in fields:
            kwargs[name] = parse_field(hint, key, fields[key])
    return cls(**kwargs)


@dataclasses.dataclass
class BackboneSpec:
    kind: str = "edgeconv_stack"
    depth: int = 2
    width: int = 32

    def __post_init__(self):
        if self.kind not in BACKBONE_KINDS:
            raise ConfigError(f"unknown backbone {self.kind!r}; choose from {BACKBONE_KINDS}")
        self.depth = integer("depth", self.depth)
        self.width = integer("width", self.width)


class Backbone:
    """Feature extraction stage: raw coordinates to per-point features."""

    def __init__(self, store, spec, rng):
        self.spec = spec
        self.convs = None
        self.mlp = None
        if spec.kind == "mlp_stack":
            widths = [3] + [spec.width] * spec.depth
            self.mlp = SharedMLP(store, "backbone.mlp", widths, rng, activate_output=True)
        else:
            self.convs = [
                EdgeConvLayer(store, f"backbone.conv{i}", 3 if i == 0 else spec.width, spec.width, rng)
                for i in range(spec.depth)
            ]

    def forward(self, coords, base_index):
        if self.mlp is not None:
            return self.mlp(coords)
        h = coords
        for conv in self.convs:
            h = conv(h, base_index)
        return h


class UpsamplingModel:
    """Backbone + expansion unit + regression over one parameter store."""

    def __init__(self, unit_spec, backbone_spec, k, rng):
        if unit_spec.channels != backbone_spec.width:
            raise ConfigError(
                f"unit channels ({unit_spec.channels}) must match backbone width "
                f"({backbone_spec.width})"
            )
        self.k = integer("k", k)
        if unit_spec.k is not None and unit_spec.k != self.k:
            raise ConfigError(f"unit k ({unit_spec.k}) disagrees with model k ({self.k})")
        self.unit_spec = unit_spec
        self.backbone_spec = backbone_spec
        self.store = ParameterStore()
        self.backbone = Backbone(self.store, backbone_spec, rng)
        self.unit = build_unit(self.store, unit_spec, rng)
        self.regression = RegressionStage(self.store, unit_spec, rng)

    @property
    def ratio(self):
        return self.unit_spec.ratio

    def base_graph(self, cloud):
        return knn_accelerated(cloud, self.k)

    def forward_tensor(self, cloud, base_index=None):
        """Predicted coordinates as a tensor (rows = ratio * cloud.count)."""
        if base_index is None:
            base_index = self.base_graph(cloud)
        # No local holds the backbone features: the context is their only
        # reference, so without a tape they are freed with it once the unit
        # returns, and stay out of the regression's peak.
        result = self.unit.expand(
            ExpansionContext(cloud, base_index, self.backbone.forward(Tensor(cloud.points), base_index))
        )
        index = expanded_graph(base_index, self.ratio, result.index)
        return self.regression.forward(result.features, index)

    def upsample(self, cloud):
        """The predicted cloud: a view of the forward's rows, which no one else holds."""
        return as_cloud(self.forward_tensor(cloud).data, "upsampled points")

    def parameter_counts(self):
        """Value counts per stage, keyed by parameter name prefix."""
        counts = {"backbone": 0, "unit": 0, "regress": 0}
        for p in self.store:
            counts[p.name.split(".", 1)[0]] += p.data.size
        return counts


@dataclasses.dataclass
class TrainConfig:
    unit: ExpansionSpec
    backbone: BackboneSpec = dataclasses.field(default_factory=BackboneSpec)
    k: int = 16
    steps: int = 2000
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 1
    seed: int = 1
    shapes: tuple = dataclasses.field(default=SHAPE_KINDS, metadata={"key": "data.shapes"})
    points: int = dataclasses.field(default=256, metadata={"key": "data.points"})
    data_seed: int = dataclasses.field(default=100, metadata={"key": "data.seed"})

    def __post_init__(self):
        least = {"points": 8, "seed": 0, "data_seed": 0}  # sample_pair draws at least 8 points
        for name in ("k", "steps", "points", "batch_size", "seed", "data_seed"):
            setattr(self, name, integer(name, getattr(self, name), least.get(name, 1)))
        # floats as floats, so budget keys compare lr=1 and lr=1.0 as equal
        for name in ("lr", "beta1", "beta2", "eps"):
            setattr(self, name, real(name, getattr(self, name)))
        self.shapes = tuple(self.shapes)
        if self.unit.ratio < 2:
            raise ConfigError(f"upsampling ratio must be at least 2, got {self.unit.ratio}")
        if self.k >= self.points:
            raise ConfigError(f"need 1 <= k < points, got k={self.k}, points={self.points}")
        for name, ok, rule in (("lr", self.lr >= 0, ">= 0"), ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                               ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"), ("eps", self.eps > 0, "> 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        if not self.shapes:
            raise ConfigError("need at least one shape")
        for s in self.shapes:
            if s not in SHAPE_KINDS:
                raise ConfigError(f"unknown shape {s!r}; choose from {SHAPE_KINDS}")

    def budget_key(self):
        """Everything that must match for a fair unit comparison: every field
        but the seed and the unit's own choices, of which only the ratio counts."""
        return {
            key: value
            for key, value in spec_to_fields(self, "train").items()
            if key == "unit.ratio" or not (key == "train.seed" or key.startswith("unit."))
        }


def train_config(fields, kind, ratio, index_mode="expand", regression_mode=None):
    """The one route from {key: text} fields (`puxp train` flags, compare rows)
    and a unit's own choices to a TrainConfig. A key absent from fields keeps
    its dataclass default. The unit is checked first; its channels and k then
    follow the backbone width and the model k."""
    unit = ExpansionSpec(kind, ratio, 1, 1, index_mode, regression_mode)
    config = spec_from_fields(TrainConfig, fields, "train", unit=unit)
    return dataclasses.replace(config, unit=dataclasses.replace(unit, channels=config.backbone.width, k=config.k))


@dataclasses.dataclass
class CompareSpec:
    """A compare file's own keys; every other key is a TrainConfig field shared by all rows.
    A row is one (unit, index mode, regression mode); "default" is the unit's own mode."""

    units: tuple = ()
    index_modes: tuple = ("expand",)
    regression_modes: tuple = ("default",)
    ratio: int = dataclasses.field(default=4, metadata={"key": "train.ratio"})
    seeds: tuple[int, ...] = dataclasses.field(default=(1, 2, 3), metadata={"key": "train.seeds"})
    out: str = dataclasses.field(default="comparison.csv", metadata={"key": "out"})

    def __post_init__(self):
        for mode in self.index_modes:
            if mode not in INDEX_MODES:
                raise ConfigError(f"unknown index mode {mode!r}; choose from {INDEX_MODES}")
        self.seeds = tuple(integer("train.seeds", seed, 0) for seed in self.seeds)
        if not self.seeds:
            raise ConfigError("train.seeds lists no seed")
        for seed in self.seeds:
            if self.seeds.count(seed) > 1:
                raise ConfigError(f"train.seeds lists seed {seed} more than once")


@dataclasses.dataclass
class Patch:
    name: str
    cloud: PointCloud
    gt: PointCloud
    mesh: "object"


def make_dataset(config):
    """One patch per shape; the draw depends only on the data fields."""
    patches = []
    for i, name in enumerate(config.shapes):
        shape = SyntheticShape(name)
        cloud, gt, mesh = sample_pair(shape, config.points, config.unit.ratio, config.data_seed + 7919 * i)
        patches.append(Patch(name, cloud, gt, mesh))
    return patches


def build_model(config):
    rng = np.random.default_rng(config.seed)
    return UpsamplingModel(config.unit, config.backbone, config.k, rng)


@dataclasses.dataclass
class TrainResult:
    model: UpsamplingModel
    losses: list
    config: TrainConfig


def train(config, dataset=None):
    """Minimize chamfer(predicted, gt) with Adam; per-step losses recorded.

    A step of batch size B takes the next B patches in dataset order, each on
    its own tape: forward, loss, a finite check, then backward, which adds the
    patch's gradients into the store's flat `grads`. So one patch's tape is
    live at a time. The buffer is then scaled by 1/B in place, and the step's
    loss is the patch losses summed in order, times 1/B: the batch mean.
    """
    if dataset is None:
        dataset = make_dataset(config)
    if not dataset:
        raise ConfigError("empty training dataset")
    model = build_model(config)
    state = AdamState(model.store)
    for patch in dataset:  # each cloud keeps its graph; one too small for k fails before step 0
        model.base_graph(patch.cloud)
    losses = []
    cursor = 0
    for step in range(config.steps):
        model.store.zero_grads()
        total = 0.0
        for _ in range(config.batch_size):
            patch = dataset[cursor % len(dataset)]
            cursor += 1
            with Tape() as tape:
                stage = "features"  # non-finite features meet a feature-space KNN
                try:
                    pred = model.forward_tensor(patch.cloud)
                    stage = "predictions"  # non-finite predictions meet the loss's search
                    loss = chamfer_loss(pred, patch.gt)
                except GradientError as exc:
                    raise DivergenceError(step, f"non-finite {stage} at step {step}: {exc}") from exc
            value = loss.item()
            if not np.isfinite(value):  # before its backward, which would overflow
                raise DivergenceError(step)
            tape.backward(loss)
            total += value
        model.store.grads[...] *= 1.0 / config.batch_size  # `grads` has no setter: scale in place
        adam_step(
            model.store, state, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps
        )
        losses.append(total * (1.0 / config.batch_size))
    return TrainResult(model, losses, config)


def evaluate(model, dataset):
    """Per-patch report rows plus their MetricReport.mean, labeled 'mean'."""
    if not dataset:
        raise ConfigError("empty evaluation dataset")
    reports = []
    for patch in dataset:
        if patch.cloud.count * model.ratio != patch.gt.count:
            raise ShapeError(
                f"patch {patch.name!r}: {patch.cloud.count} x ratio {model.ratio} "
                f"!= {patch.gt.count} ground-truth points"
            )
        pred = model.upsample(patch.cloud)
        reports.append(metrics.report(patch.name, pred, patch.gt, patch.mesh))
    reports.append(metrics.MetricReport.mean("mean", reports))
    return reports


def model_to_checkpoint(model):
    """Checkpoint payload: spec fields plus float32 parameters in store order."""
    fields = {
        **spec_to_fields(model.unit_spec, "unit"),
        **spec_to_fields(model.backbone_spec, "backbone"),
        "model.k": str(model.k),
    }
    params = [(p.name, p.data.astype("<f4")) for p in model.store]
    return Checkpoint(fields, params)


def model_from_checkpoint(ckpt):
    """Rebuild a model from a checkpoint, validating spec/parameter agreement."""
    required = ("unit.kind", "unit.ratio", "unit.channels", "backbone.kind", "model.k")
    for key in required:
        if key not in ckpt.fields:
            raise FormatError(f"checkpoint is missing spec field {key!r}")
    fields = {"backbone.width": ckpt.fields["unit.channels"], **ckpt.fields}
    try:
        unit_spec = spec_from_fields(ExpansionSpec, fields, "unit")
        backbone_spec = spec_from_fields(BackboneSpec, fields, "backbone")
        k = parse_field(int, "model.k", fields["model.k"])
        model = UpsamplingModel(unit_spec, backbone_spec, k, np.random.default_rng(0))
    except (ConfigError, ValueError) as exc:
        raise FormatError(f"checkpoint spec block is invalid: {exc}") from exc
    # an empty value is a feature left off; any other value this version cannot honour
    known = {*spec_to_fields(unit_spec, "unit"), *spec_to_fields(backbone_spec, "backbone"), "model.k"}
    unknown = [f"{key}={value}" for key, value in ckpt.fields.items() if value and key not in known]
    if unknown:
        raise FormatError(f"checkpoint sets field(s) this version does not know: {', '.join(unknown)}")
    stored = dict(ckpt.params)
    expected = model.store.names()
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise FormatError(f"checkpoint parameters do not match spec (missing {missing}, extra {extra})")
    for p in model.store:
        values = stored[p.name]
        if tuple(values.shape) != tuple(p.data.shape):
            raise FormatError(
                f"parameter {p.name!r} has shape {tuple(values.shape)}, expected {tuple(p.data.shape)}"
            )
        p.tensor.data[:] = values.astype(np.float64)
    return model


@dataclasses.dataclass
class ComparisonRow:
    """One comparison CSV row, its fields the columns in order; metrics are means over the seeds."""

    unit: str
    index_mode: str
    regression_mode: str
    cd: float
    hd: float
    p2f: float | None
    unit_params: int
    backbone_params: int
    seeds: int


@dataclasses.dataclass
class ComparisonTable:
    rows: list
    config: TrainConfig  # the first row's; every row shares its budget


def compare_units(configs, seeds):
    """Train every config over the shared dataset and seed set, then average.

    Configs must agree on everything except the unit (budget fairness);
    otherwise the comparison is refused.
    """
    if not configs:
        raise ConfigError("no configurations to compare")
    if not seeds:
        raise ConfigError("need at least one seed")
    ref = configs[0]
    for cfg in configs[1:]:
        if cfg.budget_key() != ref.budget_key():
            raise ConfigError(
                "mismatched budgets: all configs must share backbone, steps, optimizer, "
                "ratio, and dataset settings"
            )
    dataset = make_dataset(ref)
    rows = []
    for cfg in configs:
        aggs = []
        counts = None
        for seed in seeds:
            run = train(dataclasses.replace(cfg, seed=seed), dataset)
            aggs.append(evaluate(run.model, dataset)[-1])
            counts = run.model.parameter_counts()
        mean = metrics.MetricReport.mean(cfg.unit.kind, aggs)
        rows.append(
            ComparisonRow(
                unit=cfg.unit.kind,
                index_mode=cfg.unit.index_mode,
                regression_mode=cfg.unit.regression_mode,
                **{field: getattr(mean, field) for field in metrics.METRICS},
                unit_params=counts["unit"],
                backbone_params=counts["backbone"],
                seeds=len(seeds),
            )
        )
    return ComparisonTable(rows, ref)
