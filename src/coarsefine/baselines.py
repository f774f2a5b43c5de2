"""Comparison methods: global magnitude, iterative gradient-based global
pruning, uniform-ratio layer-wise pruning, and the local-scores-as-ratios
ablation.

All baselines hit the exact global keep budget round((1-p)*|W_total|).
The two global baselines only read their input model: they rank all
prunable weights as one vector, and across the iterations of one run
their masks only shrink.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .allocation import (
    SparsityPlan, allocate_sparsity, default_p_max, keep_budget, uniform_plan,
)
from .errors import InputError
from .localprune import (
    apply_mask, sequential_prune, sparsegpt_layer_score, top_k_mask, wanda_scores,
)
from .model import CalibrationSet, ModelGraph, check_finite, forward_with_activations
from .scoring import ScoreMap, aggregate_to_layers, first_order_saliency, magnitude_scores


def _global_prune(
    model: ModelGraph,
    targets: list[float],
    saliency: Callable[[ModelGraph], dict[str, np.ndarray]],
) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    """Prune to each global target in turn, rescoring the masked model.

    The input model is only read.  All prunable weights are ranked as one
    flat vector in layer order with earlier-pruned positions at -inf, so
    masks only shrink.  The previous iterate is dropped once scored, so it
    is not alive through the ranking; each iterate masks the input model's
    arrays, which gives the same bits as masking the previous one.  The
    result counts the forwards its scoring spent.
    """
    layers = model.prunable_layers()
    n_total = model.num_prunable_weights()
    cuts = np.cumsum([l.size for l in layers])[:-1]
    pruned = ModelGraph(model.blocks, model.head)  # shares layers, counts own forwards
    kept = np.ones(n_total, dtype=bool)
    for target in targets:
        per_layer = saliency(pruned)
        spent = pruned.forward_count
        del pruned
        flat = np.concatenate([per_layer.pop(l.name).reshape(-1) for l in layers])
        flat[~kept] = -np.inf
        kept = top_k_mask(flat[None, :], keep_budget(target, n_total))[0]
        del flat  # not alive through the next target's scoring
        pieces = np.split(kept, cuts)
        masks = {l.name: m.reshape(l.weight.shape) for l, m in zip(layers, pieces)}
        pruned = model.copy(weights={
            l.name: check_finite(apply_mask(l, masks[l.name]), f"weights for {l.name!r}")
            for l in layers
        })
        pruned.forward_count = spent
    return pruned, masks


def global_magnitude_prune(
    model: ModelGraph, p: float
) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    """One global |W| threshold across all prunable layers."""
    if not 0 <= p < 1:
        raise InputError(f"sparsity must be in [0, 1), got {p}")
    return _global_prune(model, [p], magnitude_scores)


def iterative_gradient_prune(
    model: ModelGraph,
    batch: CalibrationSet,
    p: float,
    targets: list[float] | None = None,
) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    """Global |W|*|grad| pruning in increasing-sparsity iterations.

    targets is a non-empty, strictly increasing list of global sparsities
    ending at p; the default is [p/3, 2p/3, p], or [0.0] at p = 0.
    Saliency is recomputed on the masked model at every iteration and
    previously pruned weights stay pruned (masks are monotone).
    """
    if not 0 <= p < 1:
        raise InputError(f"sparsity must be in [0, 1), got {p}")
    if targets is None:
        targets = [p * t / 3 for t in range(1, 4)] if p > 0 else [0.0]
    if not targets or any(b <= a for a, b in zip(targets, targets[1:])):
        raise InputError("targets must be a non-empty, strictly increasing list")
    if abs(targets[-1] - p) > 1e-12:
        raise InputError("targets must end at the target sparsity")
    return _global_prune(model, targets, lambda m: first_order_saliency(m, batch))


def uniform_layerwise_prune(
    model: ModelGraph,
    batch: CalibrationSet,
    p: float,
    fine_method: str,
) -> tuple[ModelGraph, dict[str, np.ndarray], dict[str, float]]:
    """Fixed ratio p_i = p for every layer, then the sequential fine step."""
    return sequential_prune(model, uniform_plan(model, p), batch, fine_method)


def local_layer_scores(
    model: ModelGraph,
    batch: CalibrationSet,
    fine_method: str,
    norm_exponent: int = 1,
    lam: float | None = None,
) -> ScoreMap:
    """Layer scores from the fine method's own local measure (dense model).

    wanda: sum of |W_ij| * ||X_j||^e; sparsegpt: sum of W_ij^2 / [H^-1]_jj;
    magnitude: sum of |W_ij|.
    """
    method = {"wanda": "local_wanda", "sparsegpt": "local_sparsegpt",
              "magnitude": "magnitude"}.get(fine_method)
    if method is None:
        raise InputError(f"unknown fine method {fine_method!r}")
    if fine_method == "magnitude":
        return aggregate_to_layers(
            magnitude_scores(model), method=method, sample_count=batch.count
        )
    _, activations = forward_with_activations(model, batch)
    entries = {}
    for l in model.prunable_layers():
        x = activations[l.name]
        if fine_method == "wanda":
            entries[l.name] = float(wanda_scores(l.weight, x, norm_exponent).sum())
        else:
            entries[l.name] = sparsegpt_layer_score(l.weight, x, lam)
    return ScoreMap(
        entries=entries, method=method, aggregation="sum", sample_count=batch.count
    )


def local_score_ratios(
    model: ModelGraph,
    batch: CalibrationSet,
    p: float,
    fine_method: str,
    p_max: float | None = None,
) -> SparsityPlan:
    """The ablation: layer ratios from local scores instead of global ones."""
    if p_max is None:
        p_max = default_p_max(p)
    return allocate_sparsity(local_layer_scores(model, batch, fine_method), model, p, p_max)
