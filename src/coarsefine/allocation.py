"""Convert global importance scores into per-layer sparsity ratios.

Given a target global sparsity p and a per-layer cap p_max, the keep
budget N_select = round((1-p)*|W_total|) (``keep_budget``) is split in two
stages: every layer first receives a guaranteed keep of
ceil((1-p_max)*|W_i|) (``min_keep``, the pre-pick that enforces the cap),
then the remainder is split over units proportionally to normalized
scores, clamping units at full size and redistributing any overflow until
a fixed point.  A unit is one prunable layer at layer granularity and a
block's prunable layers at block granularity, so a layer is a block of
one; each unit's extra keep goes to its members in proportion to their
headroom.  Fractional keeps are rounded by largest remainder (ties broken
by position) so the global budget is hit exactly.

Scores are canonicalized by an exact power-of-two rescale before the
proportional split, so multiplying all scores by a constant leaves the
plan unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FeasibilityError, InputError, UnknownLayerError
from .io import FORMAT_VERSION, NUMBER, _field, read_json, write_json
from .model import ModelGraph
from .scoring import ScoreMap, aggregate_to_blocks


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def keep_budget(p: float, n: int) -> int:
    """N_select: weights kept out of n at global sparsity p."""
    return round_half_up((1.0 - p) * n)


def min_keep(size: int, p_max: float) -> int:
    """The fewest weights a unit of this size keeps under the cap p_max."""
    return math.ceil((1.0 - p_max) * size)


@dataclass
class LayerAllocation:
    sparsity: float
    keep_count: int
    size: int


@dataclass
class SparsityPlan:
    """Per-layer sparsity ratios with exact integer keep counts."""

    target_p: float
    p_max: float
    granularity: str
    per_layer: dict[str, LayerAllocation]
    n_select: int

    def keep_total(self) -> int:
        return sum(a.keep_count for a in self.per_layer.values())

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "target_p": self.target_p,
            "p_max": self.p_max,
            "granularity": self.granularity,
            "n_select": self.n_select,
            "per_layer": {
                name: {
                    "sparsity": a.sparsity,
                    "keep_count": a.keep_count,
                    "size": a.size,
                }
                for name, a in self.per_layer.items()
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SparsityPlan":
        """Parse a plan; a missing or mistyped field is a ModelFormatError."""
        per_layer = {}
        for name, e in _field(obj, "per_layer", dict, "plan").items():
            where = f"plan layer {name!r}"
            per_layer[name] = LayerAllocation(
                sparsity=float(_field(e, "sparsity", NUMBER, where)),
                keep_count=_field(e, "keep_count", int, where),
                size=_field(e, "size", int, where),
            )
        return cls(
            target_p=float(_field(obj, "target_p", NUMBER, "plan")),
            p_max=float(_field(obj, "p_max", NUMBER, "plan")),
            granularity=_field(obj, "granularity", str, "plan"),
            n_select=_field(obj, "n_select", int, "plan"),
            per_layer=per_layer,
        )

    def save(self, path: str | Path) -> Path:
        return write_json(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path) -> "SparsityPlan":
        return cls.from_json(read_json(path))


def _canonical(scores: np.ndarray) -> np.ndarray:
    """Rescale by an exact power of two so max(score) lands near [0.5, 1).

    The shift is clamped to the representable exponent range, so subnormal
    or near-overflow score scales cannot overflow the rescale itself.
    """
    top = scores.max()
    if top <= 0:
        return scores
    _, exp = math.frexp(top)
    shift = min(max(-exp, -1023), 1023)
    return scores * math.ldexp(1.0, shift)


def _largest_remainder(fractions: np.ndarray, total: int, caps: np.ndarray) -> np.ndarray:
    """Round fractions to integers summing to total, each <= its cap.

    Ties in the remainders break by position.  Caps are integer ceilings
    (unit sizes); fractions are assumed <= caps.
    """
    base = np.minimum(np.floor(fractions).astype(np.int64), caps)
    leftover = total - int(base.sum())
    if leftover < 0:
        raise InputError("largest-remainder called with an overfull base")
    remainders = fractions - base
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    out = base.copy()
    # one unit per pass by remainder rank, wrapping to any remaining headroom
    while leftover > 0:
        progressed = False
        for i in order:
            if leftover == 0:
                break
            if out[i] < caps[i]:
                out[i] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            raise FeasibilityError("keep budget exceeds total capacity")
    return out


def _proportional_fill(
    scores: np.ndarray, capacities: np.ndarray, budget: int
) -> np.ndarray:
    """Split an integer budget across units proportionally to scores.

    Units hitting their integer capacity are clamped and the excess is
    redistributed among the rest, iterating to a fixed point; the final
    fractional shares are rounded by largest remainder.
    """
    n = len(scores)
    assigned = np.zeros(n, dtype=np.int64)
    active = scores > 0
    remaining = int(budget)

    while remaining > 0 and active.any():
        denom = scores[active].sum()
        shares = np.zeros(n)
        shares[active] = remaining * (scores[active] / denom)
        over = active & (shares >= capacities - assigned)
        if not over.any():
            fracs = shares[active]
            caps = (capacities - assigned)[active]
            rounded = _largest_remainder(fracs, remaining, caps)
            assigned[active] += rounded
            remaining = 0
            break
        assigned[over] = capacities[over]
        remaining = int(budget) - int(assigned.sum())
        active = active & ~over

    if remaining > 0:
        # every positively-scored unit is full: spill to zero-score units
        # proportionally to their remaining headroom
        room = capacities - assigned
        if room.sum() < remaining:
            raise FeasibilityError("keep budget exceeds total capacity")
        fracs = remaining * (room / room.sum())
        assigned += _largest_remainder(fracs, remaining, room)
    return assigned


def allocate_sparsity(
    scores: ScoreMap,
    model: ModelGraph,
    target_p: float,
    p_max: float,
    granularity: str = "layer",
) -> SparsityPlan:
    """Turn a ScoreMap into a budget-exact SparsityPlan.

    The budget is split over units: each prunable layer at layer
    granularity, each block with a prunable member at block granularity
    (scores pooled per block).  A unit's keep goes to its members by
    size, so every member shares the unit's ratio up to integer rounding.
    """
    if not 0 <= target_p < 1:
        raise InputError(f"target sparsity must be in [0, 1), got {target_p}")
    if not target_p < p_max <= 1:
        raise InputError(f"p_max must satisfy target_p < p_max <= 1, got {p_max}")
    if granularity not in ("layer", "block"):
        raise InputError(f"granularity must be layer or block, got {granularity!r}")

    layers = model.prunable_layers()
    if not layers:
        raise InputError("model has no prunable layers")
    n_total = sum(l.size for l in layers)
    n_select = keep_budget(target_p, n_total)
    if min_keep(n_total, p_max) > n_select:
        raise FeasibilityError(
            f"p_max={p_max} forces keeping more than the budget N_select={n_select}"
        )
    # guaranteed per-layer keep enforcing p_i <= p_max
    guaranteed = {l.name: min_keep(l.size, p_max) for l in layers}
    extra_budget = n_select - sum(guaranteed.values())
    if extra_budget < 0:
        raise FeasibilityError(
            "per-layer pre-picks exceed the keep budget; raise p_max or lower p"
        )

    if granularity == "layer":
        if scores.level != "layer":
            raise InputError("layer-granularity allocation needs layer-level scores")
        units = {l.name: [l] for l in layers}
    else:
        if scores.level == "layer":
            scores = aggregate_to_blocks(scores, model)
        units = {b.name: [l for l in b.layers if not l.frozen] for b in model.blocks}
        units = {name: members for name, members in units.items() if members}
    unit_scores = _unit_scores(scores, list(units), granularity)
    if not np.any(unit_scores > 0):
        raise InputError("all scores are zero; cannot allocate sparsity")
    member_caps = [
        np.array([l.size - guaranteed[l.name] for l in members], dtype=np.int64)
        for members in units.values()
    ]
    unit_caps = np.array([caps.sum() for caps in member_caps], dtype=np.int64)
    extra = _proportional_fill(_canonical(unit_scores), unit_caps, extra_budget)

    per_layer = {}
    for members, caps, e in zip(units.values(), member_caps, extra):
        shares = int(e) * (caps / caps.sum()) if caps.sum() else np.zeros(len(caps))
        for l, me in zip(members, _largest_remainder(shares, int(e), caps)):
            keep = guaranteed[l.name] + int(me)
            per_layer[l.name] = LayerAllocation(
                sparsity=1.0 - keep / l.size, keep_count=keep, size=l.size
            )
    return SparsityPlan(
        target_p=target_p,
        p_max=p_max,
        granularity=granularity,
        per_layer=per_layer,
        n_select=n_select,
    )


def _unit_scores(scores: ScoreMap, unit_names: list[str], what: str) -> np.ndarray:
    missing = [n for n in unit_names if n not in scores.entries]
    if missing:
        raise UnknownLayerError(f"scores missing for {what}s: {missing}")
    stray = [n for n in scores.entries if n not in unit_names]
    if stray:
        raise UnknownLayerError(f"scores for unknown/frozen {what}s: {stray}")
    return np.array([scores.entries[n] for n in unit_names], dtype=np.float64)


def uniform_plan(model: ModelGraph, target_p: float) -> SparsityPlan:
    """The fixed-ratio baseline: p_i = p for every layer, budget-exact."""
    sizes = ScoreMap(
        entries={l.name: float(l.size) for l in model.prunable_layers()},
        method="uniform",
        aggregation="sum",
    )
    return allocate_sparsity(sizes, model, target_p, p_max=1.0, granularity="layer")


def validate_plan(plan: SparsityPlan, model: ModelGraph) -> list[str]:
    """Check every plan invariant; returns all violations (empty = ok)."""
    violations = []
    layers = {l.name: l for l in model.prunable_layers()}
    for name in plan.per_layer:
        if name not in layers:
            violations.append(f"unknown layer: plan entry {name!r} not prunable in model")
    for name, l in layers.items():
        if name not in plan.per_layer:
            violations.append(f"missing layer: {name!r} has no plan entry")

    n_total = sum(l.size for l in layers.values())
    expected_select = keep_budget(plan.target_p, n_total)
    if plan.n_select != expected_select:
        violations.append(
            f"n_select mismatch: plan says {plan.n_select}, model implies {expected_select}"
        )
    if plan.keep_total() != plan.n_select:
        violations.append(
            f"keep-total mismatch: sum of keeps {plan.keep_total()} != N_select {plan.n_select}"
        )

    for name, a in plan.per_layer.items():
        if name not in layers:
            continue
        size = layers[name].size
        if a.size != size:
            violations.append(f"{name}: recorded size {a.size} != model size {size}")
        if not 0 <= a.keep_count <= size:
            violations.append(f"{name}: keep_count {a.keep_count} out of range")
        floor_keep = min_keep(size, plan.p_max)
        if a.keep_count < floor_keep:
            violations.append(
                f"{name}: cap exceeded (keep {a.keep_count} < minimum {floor_keep} "
                f"for p_max {plan.p_max})"
            )
        if a.keep_count != size - round_half_up(a.sparsity * size):
            violations.append(
                f"{name}: keep/sparsity inconsistency (p={a.sparsity}, keep={a.keep_count})"
            )
    return violations
