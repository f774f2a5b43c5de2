"""Convert global importance scores into per-layer sparsity ratios.

Given a target global sparsity p and a per-layer cap p_max (by default
p + 0.1, ``default_p_max``), the keep budget N_select = round((1-p)*|W_total|)
(``keep_budget``) is split in two stages: every layer first receives a
guaranteed keep, the smallest whose recorded sparsity 1 - keep/|W_i| is at
most p_max (``min_keep``, the pre-pick that enforces the cap), then the
remainder is split over units proportionally
to normalized scores, clamping units at full size and redistributing any
overflow until a fixed point.  A unit is one prunable layer at layer
granularity and a block's prunable layers at block granularity, so a
layer is a block of one; each unit's extra keep goes to its members in
proportion to their headroom.  Every final share lies below its unit's
headroom, so one largest-remainder pass (shares round down, the largest
remainders take one more, ties by position) hits the global budget exactly.

Scores are canonicalized by an exact power-of-two rescale before the
proportional split, so multiplying all scores by a constant leaves the
plan unchanged.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import FeasibilityError, InputError, UnknownLayerError
from .io import FORMAT_VERSION, check_version, read_json, read_record, write_json
from .model import LayerSpec, ModelGraph
from .scoring import ScoreMap, uniform_scores


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def keep_budget(p: float, n: int) -> int:
    """N_select: weights kept out of n at global sparsity p."""
    return round_half_up((1.0 - p) * n)


def default_p_max(p: float) -> float:
    """The per-layer cap when none is given: p + 0.1, at most 1."""
    return min(p + 0.1, 1.0)


def min_keep(size: int, p_max: float) -> int:
    """The fewest weights a unit of this size keeps under the cap p_max:
    the smallest keep whose recorded sparsity 1.0 - keep/size is <= p_max,
    the comparison a reader of the plan makes.  The float ceiling of
    (1 - p_max) * size misses it by one where the product rounds onto an
    integer, so it is stepped to the smallest such keep."""
    keep = math.ceil((1.0 - p_max) * size)
    while keep > 0 and 1.0 - (keep - 1) / size <= p_max:
        keep -= 1
    while keep < size and 1.0 - keep / size > p_max:
        keep += 1
    return keep


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
        return {"format_version": FORMAT_VERSION, **asdict(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "SparsityPlan":
        """Parse a plan; a bad field or another format version is a ModelFormatError."""
        check_version(obj, "plan")
        return read_record(cls, obj, "plan")

    def save(self, path: str | Path) -> Path:
        return write_json(self.to_json(), path)

    @classmethod
    def load(cls, path: str | Path) -> "SparsityPlan":
        return cls.from_json(read_json(path))


def _canonical(scores: np.ndarray) -> np.ndarray:
    """Rescale by an exact power of two so max(score), which must be
    positive, lands near [0.5, 1).

    The shift is clamped to the representable exponent range, so subnormal
    or near-overflow score scales cannot overflow the rescale itself.
    """
    _, exp = math.frexp(scores.max())
    shift = min(max(-exp, -1023), 1023)
    return scores * math.ldexp(1.0, shift)


def _largest_remainder(fractions: np.ndarray, total: int, caps: np.ndarray) -> np.ndarray:
    """Round fractions to integers summing to total, each <= its cap.

    One ranked pass: every fraction rounds down (to at most its cap), then
    the units still below their cap take one more each in order of their
    remainders, ties by position, until total is reached.  A unit gains
    at most one, so a total that needs more is a FeasibilityError; shares
    below their caps, as ``_proportional_fill`` passes, never do.
    """
    base = np.minimum(np.floor(fractions).astype(np.int64), caps)
    leftover = total - int(base.sum())
    if leftover < 0:
        raise InputError("largest-remainder called with an overfull base")
    room = np.flatnonzero(base < caps)
    if leftover > room.size:
        raise FeasibilityError("keep budget exceeds total capacity")
    remainders = fractions - base
    base[room[np.argsort(-remainders[room], kind="stable")[:leftover]]] += 1
    return base


def _proportional_fill(
    scores: np.ndarray, capacities: np.ndarray, budget: int
) -> np.ndarray:
    """Split an integer budget across units proportionally to scores.

    Units hitting their integer capacity are clamped and the excess is
    redistributed among the rest, iterating to a fixed point; the final
    fractional shares are rounded by largest remainder.  Budget left once
    every positively-scored unit is full goes to the rest in proportion to
    their headroom, by the same rounding.
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
            caps = (capacities - assigned)[active]
            assigned[active] += _largest_remainder(shares[active], remaining, caps)
            return assigned
        assigned[over] = capacities[over]
        remaining = int(budget) - int(assigned.sum())
        active = active & ~over

    if remaining > 0:
        room = capacities - assigned
        if room.sum() < remaining:
            raise FeasibilityError("keep budget exceeds total capacity")
        assigned += _largest_remainder(remaining * (room / room.sum()), remaining, room)
    return assigned


def allocate_sparsity(
    scores: ScoreMap,
    model: ModelGraph,
    target_p: float,
    p_max: float,
    granularity: str = "layer",
) -> SparsityPlan:
    """Turn a ScoreMap into a budget-exact SparsityPlan.

    scores must hold one entry per prunable layer, no more and no less
    (UnknownLayerError otherwise).  The budget is split over units: each
    prunable layer at layer granularity, each block with a prunable member
    at block granularity, whose score is the sum of its prunable members'
    scores.  A unit's keep goes to its members by size, so every member
    shares the unit's ratio up to integer rounding.
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
    # guaranteed per-layer keep enforcing p_i <= p_max
    guaranteed = {l.name: min_keep(l.size, p_max) for l in layers}
    extra_budget = n_select - sum(guaranteed.values())
    if extra_budget < 0:
        raise FeasibilityError(
            "per-layer pre-picks exceed the keep budget; raise p_max or lower p"
        )

    if granularity == "layer":
        units = [[l] for l in layers]
    else:
        units = [[l for l in b.layers if not l.frozen] for b in model.blocks]
        units = [members for members in units if members]
    unit_scores = _unit_scores(scores, units)
    if not np.any(unit_scores > 0):
        raise InputError("all scores are zero; cannot allocate sparsity")
    member_caps = [
        np.array([l.size - guaranteed[l.name] for l in members], dtype=np.int64)
        for members in units
    ]
    unit_caps = np.array([caps.sum() for caps in member_caps], dtype=np.int64)
    extra = _proportional_fill(_canonical(unit_scores), unit_caps, extra_budget)

    per_layer = {}
    for members, caps, e in zip(units, member_caps, extra):
        for l, me in zip(members, _proportional_fill(caps.astype(np.float64), caps, int(e))):
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


def _unit_scores(scores: ScoreMap, units: list[list[LayerSpec]]) -> np.ndarray:
    """Check that scores name exactly the units' layers (the prunable ones),
    then sum each unit's member scores left to right, so a one-layer unit
    keeps its score's bits."""
    names = [l.name for members in units for l in members]
    missing = [n for n in names if n not in scores.entries]
    if missing:
        raise UnknownLayerError(f"scores missing for layers: {missing}")
    stray = [n for n in scores.entries if n not in names]
    if stray:
        raise UnknownLayerError(f"scores for unknown/frozen layers: {stray}")
    unit_scores = np.zeros(len(units))
    for i, members in enumerate(units):
        for l in members:
            unit_scores[i] += scores.entries[l.name]
    return unit_scores


def uniform_plan(model: ModelGraph, target_p: float) -> SparsityPlan:
    """The fixed-ratio baseline: p_i = p for every layer, budget-exact."""
    return allocate_sparsity(
        uniform_scores(model), model, target_p, p_max=1.0, granularity="layer"
    )


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
        # the recorded values themselves, not min_keep: a plan that breaks
        # the cap as its reader compares it is flagged whatever produced it
        if not 0.0 <= a.sparsity <= plan.p_max:
            violations.append(
                f"{name}: cap exceeded (sparsity {a.sparsity} not in [0, p_max "
                f"{plan.p_max}])"
            )
        elif a.keep_count != size - round_half_up(a.sparsity * size):
            violations.append(
                f"{name}: keep/sparsity inconsistency (p={a.sparsity}, keep={a.keep_count})"
            )
    return violations
