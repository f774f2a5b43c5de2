"""Metrics, sparsity accounting, distribution diagnostics, run comparison.

EvalResult holds loss (always), accuracy (classification heads),
perplexity (next-token heads, exp of the mean token cross-entropy), the
achieved per-layer and global sparsity, and optional per-layer
reconstruction errors from the pruning pass.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .baselines import local_layer_scores
from .errors import InputError
from .io import _create
from .model import CalibrationSet, ModelGraph, backprop_gradients, run_forward
from .tasks import TaskSpec, get_split

HIST_BINS = 64
_METRICS = ("loss", "accuracy", "perplexity", "global_sparsity")  # compare_runs, to_row


@dataclass
class EvalResult:
    loss: float
    accuracy: float | None = None
    perplexity: float | None = None
    per_layer_sparsity: dict[str, dict] = field(default_factory=dict)
    global_sparsity: float = 0.0
    reconstruction: dict[str, float] | None = None
    task: str = ""
    split: str = ""
    sample_count: int = 0

    def to_json(self) -> dict:
        return asdict(self)

    def to_row(self) -> dict:
        """Flat single-row form for CSV tables."""
        return {k: getattr(self, k) for k in ("task", "split", "sample_count", *_METRICS)}


def sparsity_accounting(
    model: ModelGraph, masks: dict[str, np.ndarray] | None = None
) -> tuple[dict[str, dict], float]:
    """Per-layer and global fraction of pruned weights.

    With masks given, counts come from the masks (authoritative);
    otherwise exact zeros in the weights are counted.
    """
    per_layer = {}
    zeros_total = 0
    size_total = 0
    for layer in model.prunable_layers():
        if masks is not None and layer.name in masks:
            mask = masks[layer.name]
            zeros = mask.size - int(np.count_nonzero(mask))
        else:  # NaN is nonzero, as it is not == 0.0
            zeros = layer.size - int(np.count_nonzero(layer.weight))
        per_layer[layer.name] = {
            "zeros": zeros,
            "size": layer.size,
            "sparsity": zeros / layer.size,
        }
        zeros_total += zeros
        size_total += layer.size
    global_sparsity = zeros_total / size_total if size_total else 0.0
    return per_layer, global_sparsity


def evaluate_on_batch(
    model: ModelGraph,
    batch: CalibrationSet,
    masks: dict[str, np.ndarray] | None = None,
    reconstruction: dict[str, float] | None = None,
    task: str = "",
    split: str = "",
    start: int = 0,
    layer_input: np.ndarray | None = None,
) -> EvalResult:
    """Metrics of the model on the batch.  start/layer_input run the
    forward on from layers[start]'s input (see :func:`run_forward`), for a
    caller that holds it already; the result is the full forward's."""
    losses, out, _ = run_forward(model, batch, start, layer_input)
    loss = float(np.mean(losses))
    accuracy = None
    perplexity = None
    if model.head == "cross_entropy":
        preds = np.argmax(out[:, 0, :], axis=1)
        accuracy = float(np.mean(preds == batch.ys.astype(np.int64)))
    elif model.head == "next_token_cross_entropy":
        perplexity = float(np.exp(loss))
    per_layer, global_sparsity = sparsity_accounting(model, masks)
    return EvalResult(
        loss=loss,
        accuracy=accuracy,
        perplexity=perplexity,
        per_layer_sparsity=per_layer,
        global_sparsity=global_sparsity,
        reconstruction=reconstruction,
        task=task,
        split=split,
        sample_count=batch.count,
    )


def evaluate(model: ModelGraph, task: TaskSpec, split: str) -> EvalResult:
    """Deterministic metrics of the model on one task split."""
    return evaluate_on_batch(model, get_split(task, split), task=task.kind, split=split)


# -- distribution diagnostics ---------------------------------------------------


def _log_histogram(values: np.ndarray, edges: np.ndarray) -> list[int]:
    """Histogram over log-spaced edges; zeros fall into the lowest bin."""
    counts, _ = np.histogram(values[values > 0], bins=edges)
    counts[0] += int((values == 0).sum())
    return [int(c) for c in counts]


def _log_edges(values: np.ndarray) -> np.ndarray:
    positive = values[values > 0]
    if positive.size == 0:
        return np.logspace(-12.0, 0.0, HIST_BINS + 1)
    lo, hi = float(positive.min()), float(positive.max())
    if lo == hi:
        lo, hi = lo / 10.0, hi * 10.0
    return np.logspace(np.log10(lo), np.log10(hi), HIST_BINS + 1)


def distribution_report(model: ModelGraph, batch: CalibrationSet) -> dict:
    """Per-block |W| and |dL/dW| histograms, means, cross-block ratios,
    plus the per-layer distribution of local Hessian-based scores."""
    grads = backprop_gradients(model, batch)
    block_w = {b.name: np.concatenate([np.abs(l.weight).reshape(-1) for l in b.layers])
               for b in model.blocks}
    block_g = {b.name: np.concatenate([np.abs(grads[l.name]).reshape(-1) for l in b.layers])
               for b in model.blocks}
    w_edges = _log_edges(np.concatenate(list(block_w.values())))
    g_edges = _log_edges(np.concatenate(list(block_g.values())))

    blocks = {}
    for name in block_w:
        blocks[name] = {
            "weight_mean_abs": float(block_w[name].mean()),
            "grad_mean_abs": float(block_g[name].mean()),
            "weight_hist": _log_histogram(block_w[name], w_edges),
            "grad_hist": _log_histogram(block_g[name], g_edges),
        }

    names = list(block_w)
    ratios = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            denom = blocks[b]["weight_mean_abs"]
            ratios[f"{a}/{b}"] = (
                blocks[a]["weight_mean_abs"] / denom if denom > 0 else None
            )

    local_scores = local_layer_scores(model, batch, "sparsegpt").entries
    score_values = np.array(list(local_scores.values()))
    skew = {
        "min": float(score_values.min()),
        "max": float(score_values.max()),
        "max_over_min": (
            float(score_values.max() / score_values.min())
            if score_values.min() > 0
            else None
        ),
    }
    return {
        "weight_bin_edges": [float(e) for e in w_edges],
        "grad_bin_edges": [float(e) for e in g_edges],
        "blocks": blocks,
        "cross_block_weight_mean_ratio": ratios,
        "local_score_per_layer": local_scores,
        "local_score_skew": skew,
    }


# -- run comparison ---------------------------------------------------------------


def compare_runs(
    results: list[tuple[str, EvalResult]], dense_label: str | None = None
) -> list[dict]:
    """One row per labelled run, sorted by label, with deltas vs a
    declared dense baseline (default: the first label in sorted order)."""
    labels = [label for label, _ in results]
    if len(labels) != len(set(labels)):
        raise InputError("duplicate run labels in comparison")
    by_label = dict(results)
    ordered = sorted(labels)
    if dense_label is None:
        dense_label = ordered[0]
    if dense_label not in by_label:
        raise InputError(f"dense baseline {dense_label!r} not among the runs")
    base = by_label[dense_label]
    rows = []
    for label in ordered:
        r = by_label[label]
        row = {"label": label}
        for m in _METRICS:
            row[m] = getattr(r, m)
        for m in _METRICS:
            a, b = getattr(r, m), getattr(base, m)
            row[f"delta_{m}"] = (a - b) if (a is not None and b is not None) else None
        rows.append(row)
    return rows


def write_csv(rows: list[dict], path: str | Path) -> Path:
    """UTF-8 comma-separated table, header row, 6 significant digits, in a
    new file at path (an old one is unlinked first, as every writer does)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        raise InputError("no rows to write")
    header = list(rows[0].keys())
    with _create(path, "x", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:  # csv writes None as "" and str() of other values
            values = (row.get(key) for key in header)
            writer.writerow(f"{v:.6g}" if isinstance(v, float) else v for v in values)
    return path
