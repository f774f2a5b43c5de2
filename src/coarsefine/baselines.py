"""Comparison methods: global magnitude, iterative gradient-based global
pruning, uniform-ratio layer-wise pruning, and the local-scores-as-ratios
ablation.

All baselines hit the exact global keep budget round((1-p)*|W_total|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import SparsityPlan, allocate_sparsity, round_half_up, uniform_plan
from .errors import InputError
from .localprune import sequential_prune, sparsegpt_layer_score
from .model import CalibrationSet, ModelGraph, forward_with_activations, set_layer_weights
from .scoring import ScoreMap, first_order_saliency


@dataclass
class IterSchedule:
    """Increasing per-iteration sparsity targets ending at the final p."""

    iterations: int = 3
    targets: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.iterations < 1:
            raise InputError("iterations must be >= 1")
        if self.targets:
            if len(self.targets) != self.iterations:
                raise InputError("targets length must equal iterations")
            if any(b <= a for a, b in zip(self.targets, self.targets[1:])):
                raise InputError("targets must be strictly increasing")

    @classmethod
    def linear(cls, p: float, iterations: int = 3) -> "IterSchedule":
        targets = [p * t / iterations for t in range(1, iterations + 1)]
        return cls(iterations=iterations, targets=targets)


def _flat_scores(model: ModelGraph, per_layer: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate(
        [per_layer[l.name].reshape(-1) for l in model.prunable_layers()]
    )


def _split_mask(model: ModelGraph, flat: np.ndarray) -> dict[str, np.ndarray]:
    masks = {}
    offset = 0
    for l in model.prunable_layers():
        masks[l.name] = flat[offset : offset + l.size].reshape(l.weight.shape)
        offset += l.size
    return masks


def _apply_masks(model: ModelGraph, masks: dict[str, np.ndarray]) -> None:
    for name, mask in masks.items():
        layer = model.layer(name)
        w = layer.weight.copy()
        w[~mask] = 0.0
        set_layer_weights(model, name, w)


def _global_top_k(flat_scores: np.ndarray, keep: int, candidates: np.ndarray) -> np.ndarray:
    """Keep-mask of the top-keep scores among candidate positions, ties by
    lowest flat index."""
    scores = np.where(candidates, flat_scores, -np.inf)
    order = np.argsort(-scores, kind="stable")
    mask = np.zeros(flat_scores.size, dtype=bool)
    mask[order[:keep]] = True
    return mask


def global_magnitude_prune(
    model: ModelGraph, p: float
) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    """One global |W| threshold across all prunable layers."""
    if not 0 <= p < 1:
        raise InputError(f"sparsity must be in [0, 1), got {p}")
    pruned = model.copy()
    n_total = pruned.num_prunable_weights()
    keep = round_half_up((1.0 - p) * n_total)
    flat = _flat_scores(pruned, {l.name: np.abs(l.weight) for l in pruned.prunable_layers()})
    mask_flat = _global_top_k(flat, keep, np.ones(n_total, dtype=bool))
    masks = _split_mask(pruned, mask_flat)
    _apply_masks(pruned, masks)
    return pruned, masks


def iterative_gradient_prune(
    model: ModelGraph,
    batch: CalibrationSet,
    p: float,
    schedule: IterSchedule | None = None,
) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    """Global |W|*|grad| pruning in increasing-sparsity iterations.

    Saliency is recomputed on the masked model at every iteration and
    previously pruned weights stay pruned (masks are monotone).
    """
    if not 0 <= p < 1:
        raise InputError(f"sparsity must be in [0, 1), got {p}")
    if schedule is None:
        schedule = IterSchedule.linear(p)
    targets = schedule.targets or IterSchedule.linear(p, schedule.iterations).targets
    if abs(targets[-1] - p) > 1e-12:
        raise InputError("schedule must end at the target sparsity")

    pruned = model.copy()
    n_total = pruned.num_prunable_weights()
    kept_flat = np.ones(n_total, dtype=bool)
    for target in targets:
        keep = round_half_up((1.0 - target) * n_total)
        saliency = first_order_saliency(pruned, batch)
        flat = _flat_scores(pruned, saliency)
        kept_flat = _global_top_k(flat, keep, kept_flat)
        masks = _split_mask(pruned, kept_flat)
        _apply_masks(pruned, masks)
    return pruned, _split_mask(pruned, kept_flat)


def uniform_layerwise_prune(
    model: ModelGraph,
    batch: CalibrationSet,
    p: float,
    fine_method: str,
    **fine_kwargs,
) -> tuple[ModelGraph, dict[str, np.ndarray], dict[str, float]]:
    """Fixed ratio p_i = p for every layer, then the sequential fine step."""
    plan = uniform_plan(model, p)
    return sequential_prune(model, plan, batch, fine_method, **fine_kwargs)


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
    entries = {}
    if fine_method == "magnitude":
        for l in model.prunable_layers():
            entries[l.name] = float(np.abs(l.weight).sum())
    elif fine_method in ("wanda", "sparsegpt"):
        _, activations = forward_with_activations(model, batch)
        for l in model.prunable_layers():
            x = activations[l.name]
            if fine_method == "wanda":
                col_norms = np.sqrt(np.sum(x * x, axis=0))
                entries[l.name] = float(
                    (np.abs(l.weight) * col_norms[None, :] ** norm_exponent).sum()
                )
            else:
                entries[l.name] = sparsegpt_layer_score(l.weight, x, lam)
    else:
        raise InputError(f"unknown fine method {fine_method!r}")
    method = "local_wanda" if fine_method == "wanda" else (
        "local_sparsegpt" if fine_method == "sparsegpt" else "magnitude"
    )
    return ScoreMap(
        entries=entries, method=method, aggregation="sum", sample_count=batch.count
    )


def local_score_ratios(
    model: ModelGraph,
    batch: CalibrationSet,
    p: float,
    fine_method: str,
    p_max: float | None = None,
    granularity: str = "layer",
    norm_exponent: int = 1,
    lam: float | None = None,
) -> SparsityPlan:
    """The ablation: layer ratios from local scores instead of global ones."""
    if p_max is None:
        p_max = min(p + 0.1, 1.0)
    scores = local_layer_scores(model, batch, fine_method, norm_exponent, lam)
    return allocate_sparsity(scores, model, p, p_max, granularity)
