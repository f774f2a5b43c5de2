"""Global importance scores and their aggregation to layers and blocks.

Element-level scores (per weight entry) come from weight magnitude or
from first-order saliency |W| * |dL/dW|; zeroth-order layer scores are
produced directly at layer granularity by :mod:`coarsefine.zograd` and
bypass element aggregation.  A ScoreMap carries one nonnegative scalar
per layer (or block) plus provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError, UnknownLayerError
from .io import NUMBER, _field, read_json, write_json
from .model import CalibrationSet, ModelGraph, backprop_gradients

SCORE_METHODS = (
    "magnitude",
    "first_order",
    "zeroth_order",
    "uniform",
    "local_wanda",
    "local_sparsegpt",
)
AGGREGATIONS = ("sum", "mean", "scalar")


@dataclass
class ScoreMap:
    """Per-layer (or per-block) nonnegative importance scores."""

    entries: dict[str, float]
    method: str
    aggregation: str = "sum"
    seed: int = 0
    sample_count: int = 0
    level: str = field(default="layer")  # "layer" | "block"

    def __post_init__(self):
        if self.method not in SCORE_METHODS:
            raise InputError(f"unknown score method {self.method!r}")
        if self.aggregation not in AGGREGATIONS:
            raise InputError(f"unknown aggregation {self.aggregation!r}")
        clean = {}
        for name, value in self.entries.items():
            value = float(value)
            if not np.isfinite(value):
                raise NumericalError(f"score for {name!r} is not finite")
            if value < 0:
                raise InputError(f"score for {name!r} is negative")
            clean[name] = value
        self.entries = clean

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "aggregation": self.aggregation,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "entries": dict(sorted(self.entries.items())),
        }

    @classmethod
    def from_json(cls, obj: dict, level: str = "layer") -> "ScoreMap":
        """Parse a score map; a missing or mistyped field is a ModelFormatError."""
        entries = _field(obj, "entries", dict, "score map")
        return cls(
            entries={n: _field(entries, n, NUMBER, "score map entries") for n in entries},
            method=_field(obj, "method", str, "score map"),
            aggregation=_field(obj, "aggregation", str, "score map"),
            seed=_field(obj, "seed", int, "score map", 0),
            sample_count=_field(obj, "sample_count", int, "score map", 0),
            level=level,
        )

    def save(self, path: str | Path) -> Path:
        return write_json(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path) -> "ScoreMap":
        return cls.from_json(read_json(path))


# -- element-level scores ----------------------------------------------------


def magnitude_scores(model: ModelGraph) -> dict[str, np.ndarray]:
    """Elementwise |W| per prunable layer."""
    return {l.name: np.abs(l.weight) for l in model.prunable_layers()}


def first_order_saliency(
    model: ModelGraph, batch: CalibrationSet
) -> dict[str, np.ndarray]:
    """Elementwise |W| * |dL/dW| per prunable layer, batch-mean gradients."""
    grads = backprop_gradients(model, batch)
    return {
        l.name: np.abs(l.weight) * np.abs(grads[l.name])
        for l in model.prunable_layers()
    }


# -- aggregation ---------------------------------------------------------------


def aggregate_to_layers(
    element_scores: dict[str, np.ndarray],
    mode: str = "sum",
    method: str = "magnitude",
    seed: int = 0,
    sample_count: int = 0,
) -> ScoreMap:
    """Collapse elementwise scores to one scalar per layer (sum or mean)."""
    if mode not in ("sum", "mean"):
        raise InputError(f"aggregation mode must be sum or mean, got {mode!r}")
    entries = {}
    for name, scores in element_scores.items():
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size == 0:
            raise InputError(f"layer {name!r} has no elements to aggregate")
        if np.any(scores < 0):
            raise InputError(f"negative element scores in layer {name!r}")
        entries[name] = float(scores.sum() if mode == "sum" else scores.mean())
    return ScoreMap(
        entries=entries,
        method=method,
        aggregation=mode,
        seed=seed,
        sample_count=sample_count,
    )


def aggregate_to_blocks(scores: ScoreMap, model: ModelGraph) -> ScoreMap:
    """Block score = sum of member layer scores (prunable members only)."""
    if scores.level != "layer":
        raise InputError("aggregate_to_blocks expects layer-level scores")
    entries: dict[str, float] = {}
    for name, value in scores.entries.items():
        block = model.block_of(name)  # raises UnknownLayerError if absent
        entries[block.name] = entries.get(block.name, 0.0) + value
    if not entries:
        raise UnknownLayerError("no scored layer maps to any block")
    return ScoreMap(
        entries=entries,
        method=scores.method,
        aggregation=scores.aggregation,
        seed=scores.seed,
        sample_count=scores.sample_count,
        level="block",
    )
