"""Coarse-to-fine one-shot neural network pruning at desk scale.

The coarse step turns global importance scores (weight magnitude,
first-order saliency, or forward-only zeroth-order gradient estimates)
into per-layer sparsity ratios under a global budget and a per-layer
cap; the fine step prunes each layer locally (activation-aware, Hessian
OBS, or magnitude) conditioned on the already-pruned prefix.
"""

from .allocation import SparsityPlan, allocate_sparsity, uniform_plan, validate_plan
from .baselines import (
    global_magnitude_prune,
    iterative_gradient_prune,
    local_score_ratios,
    uniform_layerwise_prune,
)
from .evaluation import EvalResult, compare_runs, distribution_report, evaluate
from .localprune import (
    build_hessian,
    magnitude_prune_layer,
    sequential_prune,
    sparsegpt_prune_layer,
    wanda_prune_layer,
)
from .model import (
    Block,
    CalibrationSet,
    LayerSpec,
    ModelGraph,
    backprop_gradients,
    forward_with_activations,
)
from .pipeline import PruneReport, RunConfig, cmd_compare, cmd_eval, cmd_prune, cmd_score
from .scoring import (
    ScoreMap,
    aggregate_to_layers,
    first_order_saliency,
    magnitude_scores,
)
from .tasks import TaskSpec, build_model, get_split, make_task, train_reference
from .zograd import BufferMeter, ZOConfig, perturb_replay, zo_all_scores, zo_layer_score

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BufferMeter",
    "CalibrationSet",
    "EvalResult",
    "LayerSpec",
    "ModelGraph",
    "PruneReport",
    "RunConfig",
    "ScoreMap",
    "SparsityPlan",
    "TaskSpec",
    "ZOConfig",
    "aggregate_to_layers",
    "allocate_sparsity",
    "backprop_gradients",
    "build_hessian",
    "build_model",
    "cmd_compare",
    "cmd_eval",
    "cmd_prune",
    "cmd_score",
    "compare_runs",
    "distribution_report",
    "evaluate",
    "first_order_saliency",
    "forward_with_activations",
    "get_split",
    "global_magnitude_prune",
    "iterative_gradient_prune",
    "local_score_ratios",
    "magnitude_prune_layer",
    "magnitude_scores",
    "make_task",
    "perturb_replay",
    "sequential_prune",
    "sparsegpt_prune_layer",
    "train_reference",
    "uniform_layerwise_prune",
    "uniform_plan",
    "validate_plan",
    "wanda_prune_layer",
    "zo_all_scores",
    "zo_layer_score",
]
