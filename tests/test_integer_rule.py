"""The one integer rule: every count, ratio, seed and k is checked where it
enters, refused unless it is an integer of at least its least value, and
never truncated. Integer tables (neighbour tables, mesh faces) refuse
non-integer dtypes. The optimizer's real-valued settings follow one
real-number rule: a finite real, not a bool, stored as a float."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from puxp import autodiff as ad
from puxp.errors import ConfigError, ShapeError
from puxp.geometry import IndexMatrix, TriangleMesh, expand_index, knn_accelerated, knn_bruteforce, knn_features
from puxp.pipeline import BackboneSpec, CompareSpec, TrainConfig, UpsamplingModel, spec_from_fields, spec_to_fields
from puxp.shapes import SyntheticShape, sample_pair
from puxp.units import ExpansionSpec

BRANCH = ExpansionSpec("branch", 2, 4)
PTS = np.random.default_rng(0).normal(size=(8, 3))

# entry point: (field name, least, build(value) -> the value it stores or yields)
ENTRY_POINTS = {
    "ExpansionSpec.ratio": ("ratio", 1, lambda v: ExpansionSpec("branch", v, 4).ratio),
    "ExpansionSpec.channels": ("channels", 1, lambda v: ExpansionSpec("branch", 2, v).channels),
    "ExpansionSpec.k": ("k", 1, lambda v: ExpansionSpec("nodeshuffle", 2, 4, k=v).k),
    "BackboneSpec.depth": ("depth", 1, lambda v: BackboneSpec(depth=v).depth),
    "BackboneSpec.width": ("width", 1, lambda v: BackboneSpec(width=v).width),
    "TrainConfig.k": ("k", 1, lambda v: TrainConfig(BRANCH, k=v).k),
    "TrainConfig.steps": ("steps", 1, lambda v: TrainConfig(BRANCH, steps=v).steps),
    "TrainConfig.points": ("points", 1, lambda v: TrainConfig(BRANCH, k=1, points=v).points),
    "TrainConfig.batch_size": ("batch_size", 1, lambda v: TrainConfig(BRANCH, batch_size=v).batch_size),
    "TrainConfig.seed": ("seed", 0, lambda v: TrainConfig(BRANCH, seed=v).seed),
    "TrainConfig.data_seed": ("data_seed", 0, lambda v: TrainConfig(BRANCH, data_seed=v).data_seed),
    "CompareSpec.seeds": ("train.seeds", 0, lambda v: CompareSpec(seeds=(v,)).seeds[0]),
    "UpsamplingModel.k": (
        "k", 1, lambda v: UpsamplingModel(BRANCH, BackboneSpec(width=4), v, np.random.default_rng(0)).k
    ),
    "sample_pair.n": ("n", 8, lambda v: sample_pair(SyntheticShape("sphere"), v, 2, 0)[0].count),
    "sample_pair.ratio": ("ratio", 1, lambda v: sample_pair(SyntheticShape("sphere"), 8, v, 0)[1].count // 8),
    "knn_bruteforce.k": ("k", 1, lambda v: knn_bruteforce(PTS, v).k),
    "knn_accelerated.k": ("k", 1, lambda v: knn_accelerated(PTS, v).k),
    "knn_features.k": ("k", 1, lambda v: knn_features(PTS, v).k),
    "expand_index.factor": ("expansion factor", 1, lambda v: expand_index(IndexMatrix([[1], [0]]), v).ratio),
    "shuffle_expand.ratio": ("ratio", 1, lambda v: ad.shuffle_expand(ad.Tensor(np.zeros((2, 4))), v).shape[0] // 2),
}


def refusals(least):
    return [2.7, 2.0, "2", None, True, least - 1]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", range(6), ids=["2.7", "2.0", "'2'", "None", "True", "least-1"])
def test_entry_point_refuses_non_integers_and_values_below_least(entry, bad):
    name, least, build = ENTRY_POINTS[entry]
    value = refusals(least)[bad]
    message = f"{name} must be an integer >= {least}, got {value!r}"
    if entry == "ExpansionSpec.k" and value is None:
        message = "unit 'nodeshuffle' needs a neighbor count k"  # a graph unit's own refusal
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_takes_a_numpy_integer_as_a_python_int(entry):
    name, least, build = ENTRY_POINTS[entry]
    got = build(np.int64(least + 1))
    assert type(got) is int and got == least + 1


def test_numpy_integers_leave_the_spec_text_unchanged():
    def config(n):
        unit = ExpansionSpec("nodeshuffle", n(4), n(8), k=n(6))
        backbone = BackboneSpec(depth=n(2), width=n(8))
        return TrainConfig(unit, backbone, k=n(6), steps=n(3), batch_size=n(2), seed=n(0), points=n(32),
                           data_seed=n(5))

    assert spec_to_fields(config(np.int64), "train") == spec_to_fields(config(int), "train")


def test_replace_reruns_the_rule():
    cfg = TrainConfig(BRANCH)
    with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0, got 2.5$"):
        dataclasses.replace(cfg, seed=2.5)


REAL_FIELDS = ("lr", "beta1", "beta2", "eps")
# '0.5' and True were read as 0.5 and 1.0, and NaN and inf learning rates were accepted
REAL_REFUSALS = {"'0.5'": "0.5", "True": True, "None": None, "nan": math.nan, "inf": math.inf,
                 "-inf": -math.inf, "10**400": 10**400, "1j": 1j}


@pytest.mark.parametrize("field", REAL_FIELDS)
@pytest.mark.parametrize("bad", REAL_REFUSALS)
def test_real_field_refuses_non_reals_and_non_finite_values(field, bad):
    value = REAL_REFUSALS[bad]
    message = f"{field} must be a finite real number, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        TrainConfig(BRANCH, **{field: value})


@pytest.mark.parametrize("field", REAL_FIELDS)
@pytest.mark.parametrize("value", [0.25, np.float32(0.25), Fraction(1, 4)], ids=["float", "float32", "Fraction"])
def test_real_field_stores_any_finite_real_as_a_float(field, value):
    got = getattr(TrainConfig(BRANCH, **{field: value}), field)
    assert type(got) is float and got == 0.25


def test_real_field_text_still_parses_before_the_rule():
    fields = {"train.lr": "1", "train.eps": "1e-6"}
    cfg = spec_from_fields(TrainConfig, fields, "train", unit=BRANCH)
    assert (cfg.lr, cfg.eps) == (1.0, 1e-6) and cfg.budget_key() == TrainConfig(BRANCH, lr=1, eps=1e-6).budget_key()
    with pytest.raises(ConfigError, match=r"^lr must be a finite real number, got nan$"):
        spec_from_fields(TrainConfig, {"train.lr": "nan"}, "train", unit=BRANCH)


class TestIntegerTables:
    @pytest.mark.parametrize("table", [[[1.7], [0.2]], [[1.0], [0.0]], [[True], [False]]])
    def test_index_matrix_refuses_a_non_integer_dtype(self, table):
        with pytest.raises(ShapeError, match="^index matrix must be an integer matrix, got dtype"):
            IndexMatrix(table)

    def test_mesh_refuses_float_faces(self):
        # [[0.2, 1.9, 2.1]] was face (0, 1, 2)
        with pytest.raises(ShapeError, match=r"^mesh faces must be an integer matrix, got dtype float64$"):
            TriangleMesh(np.eye(3), [[0.2, 1.9, 2.1]])

    def test_edge_conv_refuses_a_float_raw_table(self):
        w, b = ad.Tensor(np.zeros((2, 1))), ad.Tensor(np.zeros(1))
        with pytest.raises(ShapeError, match=r"^edge_conv: index must be an integer matrix, got dtype float64$"):
            ad.edge_conv(ad.Tensor(np.zeros((2, 1))), np.array([[1.0], [0.0]]), w, b, True)

    def test_empty_tables_keep_their_shape_errors(self):
        with pytest.raises(ShapeError, match=r"must have shape \(M, K\), got \(0,\)"):
            IndexMatrix([])
        with pytest.raises(ShapeError, match=r"must have shape \(F, 3\), got \(0,\)"):
            TriangleMesh(np.eye(3), [])
        assert TriangleMesh(np.eye(3), np.zeros((0, 3))).face_count == 0

    def test_integer_tables_of_any_width_pass(self):
        assert IndexMatrix(np.array([[1], [0]], dtype=np.int32)).parent.dtype == np.int64
        assert TriangleMesh(np.eye(3), np.array([[0, 1, 2]], dtype=np.uint8)).faces.tolist() == [[0, 1, 2]]
