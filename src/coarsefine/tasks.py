"""Desk-scale tasks: data generation, reference training, splits.

Four task kinds cover the pruning surfaces: linear regression (identity
chain), Gaussian-blob classification, a character LM over a synthetic
bigram corpus, and a two-tower regression net whose frozen fusion adapter
exercises the frozen-layer path.  Each kind is declared once in
``_KINDS``: its default sizes, split counts, training epochs, quality
floor, loss head and layers; size overrides reshape the layers.
Everything is generated from the task seed; training is deterministic
full-batch Adam, so the same spec always yields bit-identical models.
Each step updates a layer as the backward loop hands over its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .model import (
    Block,
    CalibrationSet,
    LayerSpec,
    ModelGraph,
    backprop_layers,
    batch_input_matrix,
)


class _Layer(NamedTuple):
    block: str
    name: str  # the layer is named "<block>.<name>"
    d_out: str  # size key of the output width
    d_in: str  # size key of the input width (the vocabulary for an embedding)
    activation: str = "identity"
    scale: str | None = None  # size key of the init scale; 1.0 when None
    kind: str = "linear"
    frozen: bool = False


class _Kind(NamedTuple):
    sizes: dict
    counts: tuple[int, int, int]  # (n_train, n_val, n_calib)
    epochs: int  # full-batch Adam steps of the reference model
    floor: dict  # metric -> bound the reference model must reach on val
    head: str  # loss head
    layers: tuple[_Layer, ...]  # in forward order; a block's rows are adjacent


_KINDS = {
    "synthetic_regression": _Kind(
        sizes={"d_in": 8, "d_hidden": 8, "d_out": 4},
        counts=(256, 64, 32), epochs=300, floor={"loss": 1e-2}, head="mse",
        layers=(
            _Layer("body", "fc", "d_hidden", "d_in"),
            _Layer("head", "out", "d_out", "d_hidden"),
        ),
    ),
    "synthetic_classification": _Kind(
        sizes={"d_in": 8, "d_hidden": 16, "classes": 2},
        counts=(256, 64, 32), epochs=300, floor={"accuracy": 0.95}, head="cross_entropy",
        layers=(
            _Layer("body", "fc", "d_hidden", "d_in", "relu"),
            _Layer("head", "out", "classes", "d_hidden"),
        ),
    ),
    "char_lm": _Kind(
        sizes={"vocab": 20, "d_embed": 10, "d_hidden": 48, "seq_len": 16},
        counts=(192, 48, 32), epochs=200, floor={"perplexity": 8.0},
        head="next_token_cross_entropy",
        layers=(
            _Layer("embed", "tok", "d_embed", "vocab", kind="embedding"),
            _Layer("body", "fc1", "d_hidden", "d_embed", "relu"),
            _Layer("body", "fc2", "d_hidden", "d_hidden", "relu"),
            _Layer("head", "out", "vocab", "d_hidden"),
        ),
    ),
    # tower_a -> frozen fusion adapter -> tower_b -> head.  Tower A is wide
    # and redundant, tower B sits behind the narrow frozen adapter and is
    # tight.  With tower_b_width == tower_a_width and d_fused == d_mid the
    # towers mirror exactly, so the per-tower init scales map directly onto
    # mean-magnitude ratios.
    "two_tower_fusion": _Kind(
        sizes={"d_in": 16, "tower_a_width": 32, "tower_b_width": 16, "d_mid": 16,
               "d_fused": 8, "d_out": 4, "tower_a_scale": 1.0, "tower_b_scale": 1.0},
        counts=(256, 64, 32), epochs=600, floor={"loss": 0.1}, head="mse",
        layers=(
            _Layer("tower_a", "fc1", "tower_a_width", "d_in", "relu", "tower_a_scale"),
            _Layer("tower_a", "fc2", "d_mid", "tower_a_width", "relu", "tower_a_scale"),
            _Layer("fusion", "adapter", "d_fused", "d_mid", frozen=True),
            _Layer("tower_b", "fc1", "tower_b_width", "d_fused", "relu", "tower_b_scale"),
            _Layer("tower_b", "fc2", "d_fused", "tower_b_width", "relu", "tower_b_scale"),
            _Layer("head", "out", "d_out", "d_fused"),
        ),
    ),
}
TASK_KINDS = tuple(_KINDS)
SPLITS = ("train", "val", "calib")
_LR = 0.02  # Adam learning rate of every kind


@dataclass
class TaskSpec:
    """A reproducible desk-scale task: sizes, seed, split counts, floor."""

    kind: str
    seed: int = 0
    n_train: int = 0
    n_val: int = 0
    n_calib: int = 0
    sizes: dict = field(default_factory=dict)
    floor: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise InputError(f"unknown task kind {self.kind!r}")
        if self.seed < 0:
            raise InputError(f"task seed must be nonnegative, got {self.seed}")
        if self.n_calib > self.n_train:
            raise InputError("calibration must fit inside the train split")


def make_task(kind: str, seed: int = 0, **overrides) -> TaskSpec:
    if kind not in TASK_KINDS:
        raise InputError(f"unknown task kind {kind!r}")
    spec = _KINDS[kind]
    sizes = dict(spec.sizes)
    counts = dict(zip(("n_train", "n_val", "n_calib"), spec.counts))
    for key, value in overrides.items():
        if key in counts:
            counts[key] = int(value)
        elif key in sizes:
            sizes[key] = value
        else:
            raise InputError(f"unknown size override {key!r} for {kind}")
    return TaskSpec(kind=kind, seed=seed, sizes=sizes, floor=dict(spec.floor), **counts)


def _rng(task: TaskSpec, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(task.seed, stream)))
    )


# -- data generation ---------------------------------------------------------


def _gen_samples(task: TaskSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    s = task.sizes
    rng = _rng(task, 0)
    if task.kind == "synthetic_regression":
        target_map = _rng(task, 2).normal(size=(s["d_out"], s["d_in"])) / np.sqrt(s["d_in"])
        xs = rng.normal(size=(count, s["d_in"]))
        return xs, xs @ target_map.T
    if task.kind == "synthetic_classification":
        direction = _rng(task, 2).normal(size=s["d_in"])
        direction /= np.linalg.norm(direction)
        labels = rng.integers(0, s["classes"], size=count)
        centers = np.where(labels[:, None] == 0, -2.0, 2.0) * direction[None, :]
        return centers + 0.8 * rng.normal(size=(count, s["d_in"])), labels.astype(np.float64)
    if task.kind == "char_lm":
        v, t = s["vocab"], s["seq_len"]
        trng = _rng(task, 2)
        # sparse bigram language: each symbol has 3 likely successors
        trans = np.full((v, v), 0.1 / (v - 3))
        for c in range(v):
            succ = trng.choice(v, size=3, replace=False)
            trans[c, succ] = np.array([0.6, 0.2, 0.1])
        trans /= trans.sum(axis=1, keepdims=True)
        seqs = np.empty((count, t + 1), dtype=np.int64)
        seqs[:, 0] = rng.integers(0, v, size=count)
        for pos in range(1, t + 1):
            u = rng.random(count)
            cdf = np.cumsum(trans[seqs[:, pos - 1]], axis=1)
            seqs[:, pos] = np.minimum((u[:, None] > cdf).sum(axis=1), v - 1)
        return seqs[:, :t].astype(np.float64), seqs[:, 1:].astype(np.float64)
    # two_tower_fusion: teacher net defines the regression target
    trng = _rng(task, 2)
    t1 = trng.normal(size=(10, s["d_in"])) / np.sqrt(s["d_in"])
    t2 = trng.normal(size=(s["d_out"], 10)) / np.sqrt(10)
    xs = rng.normal(size=(count, s["d_in"]))
    return xs, np.maximum(xs @ t1.T, 0.0) @ t2.T


def get_split(task: TaskSpec, split: str) -> CalibrationSet:
    """train / val / calib samples; calib is a prefix of train."""
    if split not in SPLITS:
        raise InputError(f"unknown split {split!r}")
    xs, ys = _gen_samples(task, task.n_train + task.n_val)
    if split == "train":
        picked = slice(task.n_train)
    elif split == "val":
        picked = slice(task.n_train, None)
    else:
        picked = slice(task.n_calib)
    if not len(xs[picked]):
        raise InputError(f"split {split!r} of task {task.kind} is empty")
    return CalibrationSet.stacked(xs[picked], ys[picked])


# -- architectures -------------------------------------------------------------


def build_model(task: TaskSpec) -> ModelGraph:
    """Untrained architecture for the task; each weight is drawn in layer
    order from the task's init stream, scaled by 1/sqrt(d_in)."""
    s = task.sizes
    rng = _rng(task, 1)
    spec = _KINDS[task.kind]
    blocks: dict[str, list[LayerSpec]] = {}
    for l in spec.layers:
        scale = 1.0 if l.scale is None else s[l.scale]
        weight = scale * rng.normal(size=(s[l.d_out], s[l.d_in])) / np.sqrt(s[l.d_in])
        blocks.setdefault(l.block, []).append(LayerSpec(
            f"{l.block}.{l.name}", l.kind, weight, activation=l.activation, frozen=l.frozen,
        ))
    return ModelGraph([Block(name, layers) for name, layers in blocks.items()], head=spec.head)


# -- training -------------------------------------------------------------------


def _adam_train(model: ModelGraph, batch: CalibrationSet, lr: float, epochs: int) -> None:
    """Full-batch Adam on the non-frozen weights; fully deterministic."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trainable = [l for l in model.layers() if not l.frozen]
    m = {l.name: np.zeros_like(l.weight) for l in trainable}
    v = {l.name: np.zeros_like(l.weight) for l in trainable}
    h, _ = batch_input_matrix(model, batch)
    for step in range(1, epochs + 1):
        c1 = 1.0 - beta1**step
        c2 = 1.0 - beta2**step
        for layer, g in backprop_layers(model, batch, layer_input=h):
            if layer.frozen:
                continue
            mw = m[layer.name]
            vw = v[layer.name]
            mw *= beta1
            mw += (1.0 - beta1) * g
            vw *= beta2
            vw += (1.0 - beta2) * g * g
            layer.weight = layer.weight - lr * (mw / c1) / (np.sqrt(vw / c2) + eps)


def train_reference(task: TaskSpec) -> ModelGraph:
    """Deterministically train the task's reference model to its floor."""
    model = build_model(task)
    train = get_split(task, "train")
    _adam_train(model, train, _LR, _KINDS[task.kind].epochs)
    _check_floor(model, task)
    return model


def inject_scale_imbalance(
    model: ModelGraph, layer_up: str, layer_down: str, factor: float
) -> ModelGraph:
    """Scale one layer's weights by `factor` and the next layer's by
    1/factor.  With a relu or identity activation in between the network
    function is exactly preserved, but the downstream layer now sees
    input activations `factor` times larger - the cross-layer scale
    imbalance that makes local scores incomparable across layers."""
    up = model.layer(layer_up)
    down = model.layer(layer_down)
    if up.activation not in ("relu", "identity"):
        raise InputError("scale injection needs a positively homogeneous activation")
    if factor <= 0:
        raise InputError("scale factor must be positive")
    if model.layer_index(layer_down) != model.layer_index(layer_up) + 1:
        raise InputError("layers must be adjacent for an exact rescale")
    up.weight = up.weight * factor
    down.weight = down.weight / factor
    return model


def _check_floor(model: ModelGraph, task: TaskSpec) -> None:
    from .evaluation import evaluate  # local import to avoid a cycle

    result = evaluate(model, task, "val")
    for metric, bound in task.floor.items():
        value = getattr(result, metric)
        if metric == "accuracy":
            ok = value is not None and value >= bound
        else:
            ok = value is not None and value <= bound
        if not ok:
            raise InputError(
                f"fixture error: task {task.kind} (seed {task.seed}) reached "
                f"{metric}={value}, floor is {bound}; task misconfigured"
            )
