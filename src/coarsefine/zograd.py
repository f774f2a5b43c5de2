"""Forward-only gradient-magnitude estimation via paired Gaussian noise.

A layer's score is the empirical mean over calibration samples d and
noises z of |(L(W + eps*z, d) - L(W - eps*z, d)) / (2*eps)|, with only
that layer perturbed.  The noise is never stored between cycles: it is
drawn once per cycle from a counter-based seed, so any noise can be
replayed from (seed, layer, noise index) alone.

Snapshot and restore.  A cycle keeps a reference to the original weight
array W0 and draws z into a new array, which it turns in place into the
plus weight P = fl(W0 + eps*z); the minus leg reflects that perturbation
about W0 in the same array, fl(W0 - fl(P - W0)), and the restore step
puts W0 back.  The restore is bit-exact by construction and does no
arithmetic.  An open cycle's extra memory is that one layer-sized array.

Suffix-only forwards.  Perturbing layer i changes nothing before it, so
the loss legs start at layer i from its clean input activation, which
:func:`zo_all_scores` advances once per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrozenLayerError, InputError, NumericalError
from .model import (
    CalibrationSet,
    ModelGraph,
    batch_input_matrix,
    layer_forward,
    per_sample_losses,
)
from .scoring import ScoreMap

RESTORE = "restore"


@dataclass
class ZOConfig:
    """Knobs for the zeroth-order estimator."""

    epsilon: float = 1e-3
    noises_per_sample: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:  # NaN too
            raise InputError("epsilon must be finite and positive")
        if self.noises_per_sample < 1:
            raise InputError("noises_per_sample must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be a nonnegative integer")


class BufferMeter:
    """Tracks transient buffers so the memory contract can be asserted.

    An open perturbation cycle holds one layer-sized array: the noise is
    drawn into it and it becomes the perturbed weight, so it counts as one
    noise buffer and the layer size in extra elements.  The original
    weight is kept by reference and costs nothing.
    """

    def __init__(self):
        self.current_noise_buffers = 0
        self.peak_noise_buffers = 0
        self.current_extra_elements = 0
        self.peak_extra_elements = 0
        self.peak_noise_elements = 0

    def open_cycle(self, n: int):
        self.current_noise_buffers += 1
        self.current_extra_elements += n
        self.peak_noise_buffers = max(self.peak_noise_buffers, self.current_noise_buffers)
        self.peak_extra_elements = max(self.peak_extra_elements, self.current_extra_elements)
        self.peak_noise_elements = max(self.peak_noise_elements, n)

    def close_cycle(self, n: int):
        self.current_noise_buffers -= 1
        self.current_extra_elements -= n


def noise_seed(global_seed: int, layer_index: int, noise_index: int) -> tuple:
    """Counter-based key: one independent stream per (seed, layer, noise)."""
    return (int(global_seed), int(layer_index), int(noise_index))


def _regenerate(seed_key, n: int) -> np.ndarray:
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed_key)))
    return gen.standard_normal(n)


def perturb_replay(
    model: ModelGraph,
    layer_name: str,
    seed,
    epsilon: float,
    direction,
    meter: BufferMeter | None = None,
) -> ModelGraph:
    """Apply one leg of the plus / minus / restore cycle.

    direction +1 keeps the original weight W0 and draws z from the seed
    into a new array, scaled and shifted in place to P = fl(W0 + eps*z),
    opening a cycle; -1 reflects that perturbation about W0 in the same
    array, fl(W0 - fl(P - W0)); "restore" puts W0 back, bit-exact, from
    either leg.  The seed is read on +1 only.
    """
    if not 0 < epsilon < np.inf:  # NaN too; zero makes the estimate 0/0
        raise InputError("epsilon must be finite and positive")
    layer = model.layer(layer_name)
    if layer.frozen:
        raise FrozenLayerError(f"layer {layer_name!r} is frozen")
    if direction not in (1, -1, RESTORE):
        raise InputError(f"direction must be +1, -1 or 'restore', got {direction!r}")

    cycle = getattr(layer, "_perturb_cycle", None)
    if direction == 1 and cycle is not None:
        raise InputError(f"layer {layer_name!r} already has an active cycle")
    if direction == -1 and (cycle is None or cycle["phase"] != 1):
        raise InputError(
            f"direction -1 on layer {layer_name!r} requires an open +1 cycle"
        )
    if direction == RESTORE and cycle is None:
        raise InputError(f"no active perturbation cycle on layer {layer_name!r}")

    if direction == 1:
        w0 = layer.weight
        w = _regenerate(seed, layer.size).reshape(w0.shape)
        w *= epsilon
        w += w0  # fl(fl(eps*z) + W0), the bits of fl(W0 + eps*z)
        layer.weight = w
        layer._perturb_cycle = {"phase": 1, "w0": w0}
        if meter:
            meter.open_cycle(layer.size)
    elif direction == -1:
        w0, w = cycle["w0"], layer.weight
        w -= w0
        np.subtract(w0, w, out=w)
        cycle["phase"] = -1
    else:
        layer.weight = cycle["w0"]
        del layer._perturb_cycle
        if meter:
            meter.close_cycle(layer.size)
    return model


def _advance(layers, h: np.ndarray) -> np.ndarray:
    for layer in layers:
        h = layer_forward(layer, h)
    return h


def zo_layer_score(
    model: ModelGraph,
    layer_name: str,
    batch: CalibrationSet,
    cfg: ZOConfig,
    meter: BufferMeter | None = None,
    layer_input: np.ndarray | None = None,
) -> float:
    """Mean |central difference| / (2*eps) over samples and noises.

    Deterministic given (cfg.seed, batch order); costs 2*K loss
    evaluations per noise, each run from this layer to the loss on
    layer_input, the clean input of the layer (computed here when not
    given).  The layer is restored on every exit path.  A frozen layer is
    refused by the first leg's perturb_replay, before any weight changes.
    """
    layer_index = model.layer_index(layer_name)
    h = layer_input
    if h is None:
        h = _advance(model.layers()[:layer_index], batch_input_matrix(model, batch)[0])
    eps = cfg.epsilon
    per_noise = np.empty((cfg.noises_per_sample, batch.count))
    for j in range(cfg.noises_per_sample):
        key = noise_seed(cfg.seed, layer_index, j)
        perturb_replay(model, layer_name, key, eps, 1, meter)
        try:
            loss_plus = per_sample_losses(model, batch, start=layer_index, layer_input=h)
            perturb_replay(model, layer_name, key, eps, -1, meter)
            loss_minus = per_sample_losses(model, batch, start=layer_index, layer_input=h)
        except NumericalError as e:
            raise NumericalError(f"layer {layer_name!r}: {e}") from e
        finally:
            perturb_replay(model, layer_name, key, eps, RESTORE, meter)
        per_noise[j] = np.abs((loss_plus - loss_minus) / (2.0 * eps))
    # inner mean over noises, outer mean over samples
    return float(np.mean(np.mean(per_noise, axis=0)))


def zo_all_scores(
    model: ModelGraph,
    batch: CalibrationSet,
    cfg: ZOConfig,
    meter: BufferMeter | None = None,
) -> ScoreMap:
    """Score every prunable layer in model order; 2*L*K*noises loss evaluations.

    One clean activation is carried through the model (frozen layers
    included), so each layer's legs run over the suffix only.
    """
    layers = model.layers()
    entries = {}
    h, at = None, 0
    for i, layer in enumerate(layers):
        if layer.frozen:
            continue
        if h is None:
            h, _ = batch_input_matrix(model, batch)
        h, at = _advance(layers[at:i], h), i
        entries[layer.name] = zo_layer_score(model, layer.name, batch, cfg, meter, h)
    return ScoreMap(
        entries=entries,
        method="zeroth_order",
        aggregation="scalar",
        seed=cfg.seed,
        sample_count=batch.count,
    )
