"""One small call of every op that records a backward rule, for the tape-contract tests.

taped_op_cases maps each op's name to (arrays, call): call(*tensors) applies
the op to Tensors made from the arrays, one per differentiable input. Ops
are looked up on their modules at call time, so a tracer installed before
the call sees them.
"""

import numpy as np

from puxp import autodiff as ad
from puxp import losses


def taped_op_cases(seed=0):
    rng = np.random.default_rng(seed)
    idx = np.array([[1, 2], [0, 2], [3, 1], [2, 0]])  # 4 points, 2 neighbours each
    gt = rng.normal(size=(5, 3))

    def rows(c=3):
        return rng.normal(size=(4, c))

    return {
        "matmul": ([rows(), rng.normal(size=(3, 2))], lambda a, b: ad.matmul(a, b)),
        "relu": ([rows()], lambda x: ad.relu(x)),
        "add": ([rows(), rows()], lambda a, b: ad.add(a, b)),
        "add_bias": ([rows(), rng.normal(size=3)], lambda x, bias: ad.add_bias(x, bias)),
        "scale": ([rows()], lambda x: ad.scale(x, -1.5)),
        "sum_all": ([rows()], lambda x: ad.sum_all(x)),
        "concat_last": ([rows(), rows(2)], lambda a, b: ad.concat_last(a, b)),
        "edge_conv": (
            [rows(), rng.normal(size=(6, 2)), rng.normal(size=2)],
            lambda x, w, b: ad.edge_conv(x, idx, w, b, True),
        ),
        "reshape": ([rows()], lambda x: ad.reshape(x, (6, 2))),
        "chamfer_loss": ([rows()], lambda pred: losses.chamfer_loss(pred, gt)),
    }
