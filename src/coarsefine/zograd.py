"""Forward-only gradient-magnitude estimation via paired Gaussian noise.

A layer's score is the empirical mean over calibration samples d and
noises z of |(L(W + eps*z, d) - L(W - eps*z, d)) / (2*eps)|, with only
that layer perturbed.  The noise is never stored between cycles: it is
drawn once per cycle from a counter-based seed, so any noise can be
replayed from (seed, layer, noise index) alone.

Two paths, chosen from the layer's shape and the batch size alone.  The
loss sees a layer's weight only through its pre-activation h W^T + b,
so a layer with a successor whose clean input h has N rows is scored in
output space when 2*N*d_out + B < d_out*d_in, B being the elements of
one noise block (at most 32,768 unless one row is longer): the legs are
act(pre0 +- eps*h z^T) with pre0 = h W0^T + b formed once per layer, and
z is drawn in row blocks, bit for bit the stream of a single draw, each
block adding its columns into h z^T.  The scored weight is never
written, so there is nothing to restore, and a cycle's extra memory is
pre0, h z^T and one noise block.  Every other layer (the last one, and
one whose weights do not outnumber those elements) is scored in weight
space.

Weight space: snapshot and restore.  A cycle keeps a reference to the
original weight array W0 and draws z into a new array, which it turns in
place into the plus weight P = fl(W0 + eps*z); the minus leg reflects
that perturbation about W0 in the same array, fl(W0 - fl(P - W0)), and
the restore step puts W0 back.  The restore is bit-exact by construction
and does no arithmetic.  An open cycle's extra memory is that one
layer-sized array.

Suffix-only forwards.  Perturbing layer i changes nothing before it, so
the loss legs start at layer i from its clean input activation (at layer
i + 1 from the perturbed activation, in output space), which
:func:`zo_all_scores` advances once per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrozenLayerError, InputError, NumericalError
from .model import (
    CalibrationSet,
    ModelGraph,
    _act,
    batch_input_matrix,
    layer_forward,
    layer_preact,
    per_sample_losses,
)
from .scoring import ScoreMap

RESTORE = "restore"
NOISE_BLOCK = 32_768  # noise elements drawn at a time in output space


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

    A cycle opens with the elements of its one noise buffer and its extra
    elements in all.  In weight space both are the layer size: the noise
    is drawn into the array that becomes the perturbed weight, and the
    original weight is kept by reference.  In output space the noise
    buffer is one row block of B elements, and the extra elements are
    2*N*d_out + B: the clean pre-activation, h z^T and the block.
    """

    def __init__(self):
        self.current_noise_buffers = 0
        self.peak_noise_buffers = 0
        self.current_extra_elements = 0
        self.peak_extra_elements = 0
        self.peak_noise_elements = 0

    def open_cycle(self, noise_elements: int, extra_elements: int):
        self.current_noise_buffers += 1
        self.current_extra_elements += extra_elements
        self.peak_noise_buffers = max(self.peak_noise_buffers, self.current_noise_buffers)
        self.peak_extra_elements = max(self.peak_extra_elements, self.current_extra_elements)
        self.peak_noise_elements = max(self.peak_noise_elements, noise_elements)

    def close_cycle(self, extra_elements: int):
        self.current_noise_buffers -= 1
        self.current_extra_elements -= extra_elements


def noise_seed(global_seed: int, layer_index: int, noise_index: int) -> tuple:
    """Counter-based key: one independent stream per (seed, layer, noise)."""
    return (int(global_seed), int(layer_index), int(noise_index))


def _generator(seed_key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed_key)))


def _regenerate(seed_key, n: int) -> np.ndarray:
    return _generator(seed_key).standard_normal(n)


def _block_rows(layer) -> int:
    return min(layer.d_out, max(1, NOISE_BLOCK // layer.d_in))


def _noise_blocks(seed_key, layer):
    """The layer's noise z, the [d_out, d_in] draw of _regenerate, as
    (first row, block) pairs of _block_rows rows each, drawn one after the
    other into one buffer from one generator, so the bits are the single
    draw's."""
    gen = _generator(seed_key)
    z = np.empty((_block_rows(layer), layer.d_in))
    for r in range(0, layer.d_out, len(z)):
        block = z[:layer.d_out - r]
        gen.standard_normal(out=block)
        yield r, block


def _output_space_elements(layer, n_rows: int) -> tuple[int, int]:
    """(noise, extra) elements of an output-space cycle on n_rows inputs."""
    noise = _block_rows(layer) * layer.d_in
    return noise, 2 * n_rows * layer.d_out + noise


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < np.inf:  # NaN too; zero makes the estimate 0/0
        raise InputError("epsilon must be finite and positive")


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
    _check_epsilon(epsilon)
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
            meter.open_cycle(layer.size, layer.size)
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


def _weight_space_legs(model, index, batch, h, cfg, meter):
    """(plus, minus) losses per noise, each leg run from the layer on h
    with its weight perturbed in place and restored on every exit."""
    name, eps = model.layers()[index].name, cfg.epsilon
    for j in range(cfg.noises_per_sample):
        key = noise_seed(cfg.seed, index, j)
        perturb_replay(model, name, key, eps, 1, meter)
        try:
            loss_plus = per_sample_losses(model, batch, start=index, layer_input=h)
            perturb_replay(model, name, key, eps, -1, meter)
            loss_minus = per_sample_losses(model, batch, start=index, layer_input=h)
        finally:
            perturb_replay(model, name, key, eps, RESTORE, meter)
        yield loss_plus, loss_minus


def _noise_product(h: np.ndarray, seed_key, layer, out: np.ndarray) -> np.ndarray:
    """out = h z^T for the layer's noise z, one row block (one column block
    of out) at a time; the block buffer dies on return, before any leg."""
    for r, z in _noise_blocks(seed_key, layer):
        np.matmul(h, z.T, out=out[:, r:r + len(z)])
    return out


def _output_space_legs(model, index, batch, h, cfg, meter):
    """(plus, minus) losses per noise, each leg act(pre0 +- eps*h z^T) run
    from the next layer; the layer's weight is only read."""
    layer = model.layers()[index]
    noise, extra = _output_space_elements(layer, len(h))
    pre0 = layer_preact(layer, h)
    hz = np.empty_like(pre0)
    for j in range(cfg.noises_per_sample):
        if meter:
            meter.open_cycle(noise, extra)
        try:
            _noise_product(h, noise_seed(cfg.seed, index, j), layer, out=hz)
            hz *= cfg.epsilon
            leg = np.add(pre0, hz)
            loss_plus = per_sample_losses(model, batch, start=index + 1,
                                          layer_input=_act(layer.activation, leg, out=leg))
            leg = np.subtract(pre0, hz, out=hz)  # the plus leg dies here
            loss_minus = per_sample_losses(model, batch, start=index + 1,
                                           layer_input=_act(layer.activation, leg, out=leg))
        finally:
            if meter:
                meter.close_cycle(extra)
        yield loss_plus, loss_minus


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
    evaluations per noise, each run to the loss from layer_input, the
    clean input of the layer (computed here when not given).  The path
    (output or weight space, see the module docstring) follows from the
    layer's shape and the input's rows.  A frozen layer or a bad epsilon
    is refused before any noise is drawn, and the weight's bits are the
    same on every exit path.
    """
    layers = model.layers()
    index = model.layer_index(layer_name)
    layer = layers[index]
    if layer.frozen:
        raise FrozenLayerError(f"layer {layer_name!r} is frozen")
    _check_epsilon(cfg.epsilon)
    h = layer_input
    if h is None:
        h = _advance(layers[:index], batch_input_matrix(model, batch)[0])
    output_space = (index + 1 < len(layers)
                    and _output_space_elements(layer, len(h))[1] < layer.size)
    legs = (_output_space_legs if output_space else _weight_space_legs)(
        model, index, batch, h, cfg, meter)
    per_noise = np.empty((cfg.noises_per_sample, batch.count))
    try:
        for j, (loss_plus, loss_minus) in enumerate(legs):
            per_noise[j] = np.abs((loss_plus - loss_minus) / (2.0 * cfg.epsilon))
    except NumericalError as e:
        raise NumericalError(f"layer {layer_name!r}: {e}") from e
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
