"""Feature-expansion units: N x C point features -> r*N x C' under one contract.

All units keep the children of point i contiguous at output rows
r*i .. r*i + r - 1. The branch/duplicate/MLP units process every point in
isolation; NodeShuffle and ProEdgeShuffle mix neighbor features through
EdgeConv, which is exactly the property the comparison harness probes.
Every unit gets the KNN graph of the raw cloud in its ExpansionContext,
whether it reads it or not.
"""

from __future__ import annotations

import dataclasses

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, integer
from .geometry import IndexMatrix, PointCloud, expand_index, knn_features
from .nn import EdgeConvLayer, SharedMLP, duplicate_with_code

INDEX_MODES = ("expand", "feature_knn")
REGRESSION_MODES = ("direct", "edgeconv_after", "edgeconv_before")


@dataclasses.dataclass
class ExpansionSpec:
    """Configuration of one feature-expansion unit, checked against the rules
    its unit class states (see _UnitBase) and the integer rule, errors.integer.
    A k given to a unit that does not read the graph is dropped: it is None.
    """

    kind: str
    ratio: int
    channels: int
    k: int | None = None
    index_mode: str = "expand"
    regression_mode: str | None = None

    def __post_init__(self):
        rules = _UNIT_CLASSES.get(self.kind)
        if rules is None:
            raise ConfigError(f"unknown unit kind {self.kind!r}; choose from {UNIT_KINDS}")
        self.ratio = integer("ratio", self.ratio)
        self.channels = integer("channels", self.channels)
        if rules.reads_graph and self.k is None:
            raise ConfigError(f"unit {self.kind!r} needs a neighbor count k")
        self.k = integer("k", self.k) if rules.reads_graph else None
        if self.index_mode not in INDEX_MODES:
            raise ConfigError(f"unknown index mode {self.index_mode!r}; choose from {INDEX_MODES}")
        if self.index_mode not in rules.index_modes:
            readers = ", ".join(c.kind for c in _UNIT_CLASSES.values() if self.index_mode in c.index_modes)
            raise ConfigError(
                f"index mode {self.index_mode!r} is read only by {readers}, not by {self.kind!r}"
            )
        if self.regression_mode is None:
            self.regression_mode = rules.regression_default
        if self.regression_mode not in REGRESSION_MODES:
            raise ConfigError(
                f"unknown regression mode {self.regression_mode!r}; choose from {REGRESSION_MODES}"
            )


@dataclasses.dataclass
class ExpansionContext:
    """What a unit sees: the raw cloud, its fixed KNN graph, and features.

    The graph is always present, whether or not the unit reads it: a context
    without an IndexMatrix raises ConfigError here, so no unit checks for one.
    """

    cloud: PointCloud
    base_index: IndexMatrix
    features: Tensor

    def __post_init__(self):
        n = self.features.shape[0]
        if self.cloud.count != n:
            raise ShapeError(f"cloud has {self.cloud.count} points but features have {n} rows")
        if not isinstance(self.base_index, IndexMatrix):
            raise ConfigError(f"base index must be an IndexMatrix, got {type(self.base_index).__name__}")
        if self.base_index.rows != n:
            raise ShapeError(f"index matrix has {self.base_index.rows} rows but features have {n}")


@dataclasses.dataclass
class ExpansionResult:
    features: Tensor
    index: IndexMatrix | None  # graph over the expanded rows, when the unit kept one


def prime_factors(n):
    """Prime factors of n in ascending order (12 -> [2, 2, 3]), by trial division up to sqrt(n)."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return [p, *prime_factors(n // p)]
        p += 1
    return [n] if n > 1 else []


class _UnitBase:
    """Each unit class states its rules as class data; ExpansionSpec checks them.

    reads_graph: reads the KNN graph, so needs k. index_modes: the index modes
    read. regression_default: the regression mode used when none is given.
    rounds: the prime factors of r, ascending; a progressive unit runs one round per factor f, growing rows by f.
    """

    kind = ""
    reads_graph = False
    index_modes = ("expand",)
    regression_default = "direct"

    def __init__(self, spec):
        self.spec = spec
        self.rounds = prime_factors(spec.ratio)


class BranchUnit(_UnitBase):
    """r independent two-layer point convolutions, concatenated then shuffled."""

    kind = "branch"

    def __init__(self, store, spec, rng):
        super().__init__(spec)
        c = spec.channels
        self.branches = [
            SharedMLP(store, f"unit.branch{i}", [c, c, c], rng, activate_output=True)
            for i in range(spec.ratio)
        ]

    def expand(self, ctx):
        outs = [branch(ctx.features) for branch in self.branches]
        merged = outs[0]
        for out in outs[1:]:
            merged = ad.concat_last(merged, out)
        return ExpansionResult(ad.shuffle_expand(merged, self.spec.ratio), None)


class DuplicateUnit(_UnitBase):
    """Per prime factor f of r: f copies with latent codes, then a shared layer."""

    kind = "duplicate"

    def __init__(self, store, spec, rng):
        super().__init__(spec)
        c = spec.channels
        self.round_mlps = [
            SharedMLP(store, f"unit.round{i}", [c + 1, c], rng, activate_output=True)
            for i in range(len(self.rounds))
        ]

    def expand(self, ctx):
        feats = ctx.features
        for f, mlp in zip(self.rounds, self.round_mlps):
            feats = mlp(duplicate_with_code(feats, f))
        return ExpansionResult(feats, None)


class SingleMlpUnit(_UnitBase):
    """One shared layer C -> r*C, then shuffle."""

    kind = "single_mlp"

    def __init__(self, store, spec, rng):
        super().__init__(spec)
        c = spec.channels
        self.mlp = SharedMLP(store, "unit.expandmlp", [c, spec.ratio * c], rng, activate_output=True)

    def expand(self, ctx):
        return ExpansionResult(ad.shuffle_expand(self.mlp(ctx.features), self.spec.ratio), None)


class MultilayerMlpUnit(_UnitBase):
    """Five shared C -> C layers, then the single-layer expansion and shuffle."""

    kind = "multilayer_mlp"

    def __init__(self, store, spec, rng):
        super().__init__(spec)
        c = spec.channels
        widths = [c] * 6 + [spec.ratio * c]
        self.mlp = SharedMLP(store, "unit.deepmlp", widths, rng, activate_output=True)

    def expand(self, ctx):
        return ExpansionResult(ad.shuffle_expand(self.mlp(ctx.features), self.spec.ratio), None)


class ProgressiveMlpUnit(_UnitBase):
    """An extraction layer, then [C -> fC layer, shuffle by f] per prime factor f of r."""

    kind = "progressive_mlp"

    def __init__(self, store, spec, rng):
        super().__init__(spec)
        c = spec.channels
        self.extract = SharedMLP(store, "unit.extract", [c, c], rng, activate_output=True)
        self.round_mlps = [
            SharedMLP(store, f"unit.double{i}", [c, f * c], rng, activate_output=True)
            for i, f in enumerate(self.rounds)
        ]

    def expand(self, ctx):
        feats = self.extract(ctx.features)
        for f, mlp in zip(self.rounds, self.round_mlps):
            feats = ad.shuffle_expand(mlp(feats), f)
        return ExpansionResult(feats, None)


class NodeShuffleUnit(_UnitBase):
    """EdgeConv C -> r*C on the base graph, then shuffle."""

    kind = "nodeshuffle"
    reads_graph = True

    def __init__(self, store, spec, rng):
        super().__init__(spec)
        c = spec.channels
        self.conv = EdgeConvLayer(store, "unit.conv", c, spec.ratio * c, rng)

    def expand(self, ctx):
        feats = self.conv(ctx.features, ctx.base_index)
        return ExpansionResult(ad.shuffle_expand(feats, self.spec.ratio), None)


class ProEdgeShuffleUnit(_UnitBase):
    """One round of [EdgeConv C -> fC, shuffle, index update] per prime factor f of r.

    Each round multiplies the rows by f; the neighbor table follows either
    by the index-expansion rule (default, the whole model then only ever
    uses the KNN of the raw cloud) or by recomputing KNN in feature space.
    """

    kind = "proedgeshuffle"
    reads_graph = True
    index_modes = INDEX_MODES
    regression_default = "edgeconv_before"  # its final local fusion pass

    def __init__(self, store, spec, rng):
        super().__init__(spec)
        c = spec.channels
        self.convs = [EdgeConvLayer(store, f"unit.conv{i}", c, f * c, rng) for i, f in enumerate(self.rounds)]

    def expand(self, ctx):
        feats = ctx.features
        idx = ctx.base_index
        for f, conv in zip(self.rounds, self.convs):
            feats = ad.shuffle_expand(conv(feats, idx), f)
            if self.spec.index_mode == "expand":
                idx = expand_index(idx, f)
            else:
                idx = knn_features(feats.data, self.spec.k)
        return ExpansionResult(feats, idx)


_UNIT_CLASSES = {
    cls.kind: cls
    for cls in (
        BranchUnit,
        DuplicateUnit,
        SingleMlpUnit,
        MultilayerMlpUnit,
        ProgressiveMlpUnit,
        NodeShuffleUnit,
        ProEdgeShuffleUnit,
    )
}
UNIT_KINDS = tuple(_UNIT_CLASSES)
GRAPH_KINDS = tuple(kind for kind, cls in _UNIT_CLASSES.items() if cls.reads_graph)


def run_index_mode(kind, index_mode):
    """The index mode a unit of this kind runs under when index_mode is asked
    for: a unit that does not read the requested mode runs expand."""
    return index_mode if index_mode in _UNIT_CLASSES.get(kind, _UnitBase).index_modes else "expand"


def build_unit(store, spec, rng):
    return _UNIT_CLASSES[spec.kind](store, spec, rng)


def expanded_graph(base_index, ratio, provided=None):
    """Neighbor table over the r*N expanded rows.

    Units that track their own graph hand it over; anything else gets the
    base graph expanded by the ratio in one O(1) expand_index call, at any
    ratio.
    """
    if provided is not None:
        return provided
    return expand_index(base_index, ratio)


class RegressionStage:
    """Turns r*N x C features into r*N coordinates.

    direct: shared head only, never touches a neighbor table.
    edgeconv_before: one EdgeConv C -> C on the expanded graph, then the head.
    edgeconv_after: head first, then EdgeConv 3 -> 3 on the coordinates.
    """

    def __init__(self, store, spec, rng):
        c = spec.channels
        self.mode = spec.regression_mode
        self.pre = None
        self.post = None
        if self.mode == "edgeconv_before":
            self.pre = EdgeConvLayer(store, "regress.pre", c, c, rng)
        self.head = SharedMLP(store, "regress.head", [c, 3], rng, activate_output=False)
        if self.mode == "edgeconv_after":
            self.post = EdgeConvLayer(store, "regress.post", 3, 3, rng, activate_output=False)

    def forward(self, features, index):
        if self.mode == "direct":
            return self.head(features)
        if self.mode == "edgeconv_before":
            return self.head(self.pre(features, index))
        coords = self.head(features)
        return self.post(coords, index)

