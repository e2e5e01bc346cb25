"""Feature-expansion units for point-cloud upsampling on a numpy autodiff core.

The package is organized by stage:
  autodiff  - Tensor/Tape/Parameter core with the op set the models need
  optim     - Adam with bias correction
  geometry  - clouds, meshes, exact KNN graphs, index expansion
  nn        - shared MLPs, EdgeConv, latent-code duplication
  units     - the seven feature-expansion units behind one contract
  metrics   - chamfer / Hausdorff / point-to-face evaluation
  losses    - differentiable chamfer loss
  shapes    - synthetic benchmark surfaces
  pipeline  - model assembly, training, evaluation, unit comparison
  dataio    - XYZ / OFF / checkpoint / CSV formats
  checks    - gradient and KNN property suites
  cli       - the `puxp` command-line front end
"""

from .autodiff import Parameter, ParameterStore, Tape, Tensor
from .geometry import (
    IndexMatrix,
    PointCloud,
    TriangleMesh,
    expand_index,
    knn_accelerated,
    knn_bruteforce,
    knn_features,
    point_triangle_distance,
)
from .losses import chamfer_loss
from .metrics import MetricReport, chamfer, hausdorff, point_to_face
from .optim import AdamState, adam_step
from .pipeline import (
    BackboneSpec,
    TrainConfig,
    UpsamplingModel,
    build_model,
    compare_units,
    evaluate,
    make_dataset,
    model_from_checkpoint,
    model_to_checkpoint,
    train,
)
from .shapes import SyntheticShape, sample_pair
from .units import ExpansionContext, ExpansionSpec, UNIT_KINDS, build_unit

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BackboneSpec",
    "ExpansionContext",
    "ExpansionSpec",
    "IndexMatrix",
    "MetricReport",
    "Parameter",
    "ParameterStore",
    "PointCloud",
    "SyntheticShape",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TriangleMesh",
    "UNIT_KINDS",
    "UpsamplingModel",
    "adam_step",
    "build_model",
    "build_unit",
    "chamfer",
    "chamfer_loss",
    "compare_units",
    "evaluate",
    "expand_index",
    "hausdorff",
    "knn_accelerated",
    "knn_bruteforce",
    "knn_features",
    "make_dataset",
    "model_from_checkpoint",
    "model_to_checkpoint",
    "point_to_face",
    "point_triangle_distance",
    "sample_pair",
    "train",
    "__version__",
]
