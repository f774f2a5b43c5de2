"""Global importance scores and their aggregation to layers.

Element-level scores (per weight entry) come from weight magnitude or
from first-order saliency |W| * |dL/dW|; zeroth-order layer scores are
produced directly at layer granularity by :mod:`coarsefine.zograd` and
bypass element aggregation.  A ScoreMap carries one nonnegative scalar
per prunable layer plus provenance; block-granularity allocation pools
a block's layer scores itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError
from .io import read_json, read_record, write_json
from .model import CalibrationSet, ModelGraph, backprop_layers

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
    """Per-layer nonnegative importance scores."""

    entries: dict[str, float]
    method: str
    aggregation: str = "sum"
    seed: int = 0
    sample_count: int = 0

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
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ScoreMap":
        """Parse a score map; a missing or mistyped field is a ModelFormatError."""
        return read_record(cls, obj, "score map")

    def save(self, path: str | Path) -> Path:
        return write_json(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path) -> "ScoreMap":
        return cls.from_json(read_json(path))


def uniform_scores(model: ModelGraph, seed: int = 0) -> ScoreMap:
    """Every prunable layer scores its size: the fixed-ratio baseline."""
    return ScoreMap(
        entries={l.name: float(l.size) for l in model.prunable_layers()},
        method="uniform",
        aggregation="sum",
        seed=seed,
    )


# -- element-level scores ----------------------------------------------------


def magnitude_scores(model: ModelGraph) -> dict[str, np.ndarray]:
    """Elementwise |W| per prunable layer."""
    return {l.name: np.abs(l.weight) for l in model.prunable_layers()}


def first_order_saliency(
    model: ModelGraph, batch: CalibrationSet
) -> dict[str, np.ndarray]:
    """Elementwise |W| * |dL/dW| per prunable layer, batch-mean gradients;
    each gradient becomes its saliency in place as it arrives."""
    saliency = {
        l.name: np.multiply(np.abs(g, out=g), np.abs(l.weight), out=g)
        for l, g in backprop_layers(model, batch) if not l.frozen
    }
    return dict(reversed(saliency.items()))


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

