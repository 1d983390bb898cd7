"""semtok: desk-scale visual token grouping lab.

A small numpy autodiff core, a ViT-style encoder with appended semantic
tokens and isolated attention, a Gumbel-softmax grouping block with
straight-through hard assignment, baseline token reducers, evaluation
metrics, and a deterministic two-stage training harness.
"""

from .baselines import ReducerSpec, avg_pool, random_drop, reduce
from .encoder import Encoder, EncoderConfig, SemanticTokens
from .gradcheck import check_gradients
from .grouping import (
    GroupingParams,
    group_forward,
    hard_assign,
    merge,
    sample_gumbel,
    similarity,
)
from .metrics import CostModelConfig, EvalRecord, avg_inference_time, prefill_cost, prefill_reduction, prt
from .optim import Adam
from .tensor import Tensor, no_grad, softmax, stop_gradient
from .tensor_io import read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CostModelConfig",
    "Encoder",
    "EncoderConfig",
    "EvalRecord",
    "GroupingParams",
    "ReducerSpec",
    "SemanticTokens",
    "Tensor",
    "avg_inference_time",
    "avg_pool",
    "check_gradients",
    "group_forward",
    "hard_assign",
    "merge",
    "no_grad",
    "prefill_cost",
    "prefill_reduction",
    "prt",
    "random_drop",
    "reduce",
    "sample_gumbel",
    "similarity",
    "softmax",
    "stop_gradient",
    "read_tensor",
    "write_tensor",
]
