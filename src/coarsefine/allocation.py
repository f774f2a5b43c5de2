"""Convert global importance scores into per-layer sparsity ratios.

Given a target global sparsity p and a per-layer cap p_max, the keep
budget N_select = round((1-p)*|W_total|) is split in two stages: every
layer first receives a guaranteed keep of ceil((1-p_max)*|W_i|) (the
pre-pick that enforces the cap), then the remainder is allocated
proportionally to normalized scores, clamping layers at full size and
redistributing any overflow until a fixed point.  Fractional keeps are
rounded by largest remainder (ties broken by layer order) so the global
budget is hit exactly.

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
from .io import FORMAT_VERSION, read_json, write_json
from .model import ModelGraph
from .scoring import ScoreMap, aggregate_to_blocks


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


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
        return cls(
            target_p=float(obj["target_p"]),
            p_max=float(obj["p_max"]),
            granularity=obj["granularity"],
            n_select=int(obj["n_select"]),
            per_layer={
                name: LayerAllocation(
                    sparsity=float(e["sparsity"]),
                    keep_count=int(e["keep_count"]),
                    size=int(e["size"]),
                )
                for name, e in obj["per_layer"].items()
            },
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
    base = np.floor(fractions).astype(np.int64)
    base = np.minimum(base, caps)
    leftover = total - int(base.sum())
    if leftover < 0:
        raise InputError("largest-remainder called with an overfull base")
    remainders = fractions - base
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    out = base.copy()
    # first pass by remainder rank, wrapping to any remaining headroom after
    for i in order:
        if leftover == 0:
            break
        if out[i] < caps[i]:
            out[i] += 1
            leftover -= 1
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

    Layer granularity allocates per prunable layer; block granularity
    pools scores and sizes per block, then distributes each block's keep
    to its members by size so every member shares the block's ratio (up
    to integer rounding).
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
    sizes = {l.name: l.size for l in layers}
    n_total = sum(sizes.values())
    n_select = round_half_up((1.0 - target_p) * n_total)
    if (1.0 - p_max) * n_total > n_select:
        raise FeasibilityError(
            f"p_max={p_max} forces keeping more than the budget N_select={n_select}"
        )

    # guaranteed per-layer keep enforcing p_i <= p_max
    guaranteed = {
        name: int(math.ceil((1.0 - p_max) * size)) for name, size in sizes.items()
    }
    extra_budget = n_select - sum(guaranteed.values())
    if extra_budget < 0:
        raise FeasibilityError(
            "per-layer pre-picks exceed the keep budget; raise p_max or lower p"
        )

    if granularity == "layer":
        if scores.level != "layer":
            raise InputError("layer-granularity allocation needs layer-level scores")
        unit_names = [l.name for l in layers]
        unit_scores = _unit_scores(scores, unit_names, "layer")
        unit_caps = np.array(
            [sizes[n] - guaranteed[n] for n in unit_names], dtype=np.int64
        )
    else:
        block_scores = (
            scores if scores.level == "block" else aggregate_to_blocks(scores, model)
        )
        blocks = [b for b in model.blocks if any(not l.frozen for l in b.layers)]
        unit_names = [b.name for b in blocks]
        unit_scores = _unit_scores(block_scores, unit_names, "block")
        unit_caps = np.array(
            [
                sum(sizes[l.name] - guaranteed[l.name] for l in b.layers if not l.frozen)
                for b in blocks
            ],
            dtype=np.int64,
        )

    if not np.any(unit_scores > 0):
        raise InputError("all scores are zero; cannot allocate sparsity")
    unit_scores = _canonical(unit_scores)
    extra = _proportional_fill(unit_scores, unit_caps, extra_budget)

    keeps: dict[str, int] = {}
    if granularity == "layer":
        for name, e in zip(unit_names, extra):
            keeps[name] = guaranteed[name] + int(e)
    else:
        for b, e in zip(blocks, extra):
            members = [l for l in b.layers if not l.frozen]
            caps = np.array(
                [sizes[l.name] - guaranteed[l.name] for l in members], dtype=np.int64
            )
            if caps.sum() == 0:
                shares = np.zeros(len(members))
            else:
                shares = int(e) * (caps / caps.sum())
            member_extra = _largest_remainder(shares, int(e), caps)
            for l, me in zip(members, member_extra):
                keeps[l.name] = guaranteed[l.name] + int(me)

    per_layer = {}
    for l in layers:
        keep = keeps[l.name]
        per_layer[l.name] = LayerAllocation(
            sparsity=1.0 - keep / sizes[l.name], keep_count=keep, size=sizes[l.name]
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
    expected_select = round_half_up((1.0 - plan.target_p) * n_total)
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
        floor_keep = math.ceil((1.0 - plan.p_max) * size)
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
