"""Forward-only gradient-magnitude estimation via paired Gaussian noise.

A layer's score is the empirical mean over calibration samples d and
noises z of |(L(W + eps*z, d) - L(W - eps*z, d)) / (2*eps)|, with only
that layer perturbed.  The noise is never stored between cycles: it is
drawn once per cycle from a counter-based seed, so any noise can be
replayed from (seed, layer, noise index) alone.

Two paths, chosen from the layer's shape and the batch size alone.  The
loss sees a layer's weight only through its pre-activation h W^T + b,
and the columns of h z^T are independent N(0, h h^T).  So a layer whose
clean input h has N rows is scored in output space when
3*N*d_out + N^2 < d_out*d_in: the legs are act(pre0 +- eps*L g),
with pre0 = h W0^T + b formed once per layer, L L^T = h h^T and g an
[N, d_out] standard normal draw, N*d_out normals for d_out*d_in.  L's
left-looking Cholesky (one gemv per column) has the same bits at any
BLAS thread count, and leaves a column zero at a rounding-level pivot,
so repeated samples factor too.  The weight is never written; a cycle
holds pre0, L g, g (drawn into the plus leg's buffer) and L, and pre0,
activated in place, becomes the next layer's clean input (the last
layer's legs take the loss of act(pre0 +- eps*L g) itself, and its
pre0 becomes the model's clean output).  The clean input h is dropped
once pre0 and L are formed: :func:`zo_all_scores` hands it to the
layer's scoring with no other reference.  A layer whose weights do not
outnumber those elements is scored in weight space.

Weight space: snapshot and restore.  A cycle keeps a reference to the
original weight array W0 and draws z into a new array, which it turns in
place into the plus weight P = fl(W0 + eps*z); the minus leg reflects
that perturbation about W0 in the same array, fl(W0 - fl(P - W0)), and
the restore step puts W0 back.  The restore is bit-exact by construction
and does no arithmetic.  An open cycle's extra memory is that one
layer-sized array.

Suffix-only forwards.  Perturbing layer i changes nothing before it, so
the loss legs start at layer i from its clean input activation (at layer
i + 1 from the perturbed activation, in output space; past the last
layer that is the loss alone), which :func:`zo_all_scores` advances once
per layer.  That pass is the dense model's own forward, so its last
clean activation can be handed on for the dense evaluation.
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


@dataclass
class ZOConfig:
    """Knobs for the zeroth-order estimator."""

    epsilon: float = 1e-3
    noises_per_sample: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_epsilon(self.epsilon)
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
    buffer is g, N*d_out elements, and the extra elements are
    3*N*d_out + N^2: the clean pre-activation, L g, g and the factor L.
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


def _output_space_extra(layer, n_rows: int) -> int:
    """Extra elements of an output-space cycle: pre0, L g, g and L."""
    return 3 * n_rows * layer.d_out + n_rows * n_rows


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = gram, one gemv per column (the same
    bits at any BLAS thread count); a pivot at or below
    N*eps_mach*max(diag gram) leaves its column zero."""
    factor = np.zeros_like(gram)
    tiny = len(gram) * np.finfo(gram.dtype).eps * np.max(gram.diagonal(), initial=0.0)
    for j in range(len(gram)):
        col = gram[j:, j] - factor[j:, :j] @ factor[j, :j]
        if col[0] > tiny:
            factor[j:, j] = col / np.sqrt(col[0])
    return factor


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


def _output_space_legs(model, index, batch, pre0, factor, cfg, meter):
    """(plus, minus) losses per noise, each leg act(pre0 +- eps*L g) run
    from the next layer (past the last one, the loss of the leg itself),
    L = factor; the layer's weight is only read."""
    layer = model.layers()[index]
    extra = _output_space_extra(layer, len(pre0))
    lg = np.empty_like(pre0)
    for j in range(cfg.noises_per_sample):
        if meter:
            meter.open_cycle(lg.size, extra)
        try:
            leg = _generator(noise_seed(cfg.seed, index, j)).standard_normal(lg.shape)
            np.matmul(factor, leg, out=lg)
            lg *= cfg.epsilon
            np.add(pre0, lg, out=leg)  # g dies here
            loss_plus = per_sample_losses(model, batch, start=index + 1,
                                          layer_input=_act(layer.activation, leg, out=leg))
            leg = np.subtract(pre0, lg, out=lg)  # the plus leg dies here
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
    *,
    _handoff: list | None = None,
) -> float:
    """Mean |central difference| / (2*eps) over samples and noises.

    Deterministic given (cfg.seed, batch order); costs 2*K loss
    evaluations per noise, each run to the loss from layer_input, the
    clean input of the layer (computed here when not given).  The path
    (output or weight space, see the module docstring) follows from the
    layer's shape and the input's rows.  A frozen layer or a bad epsilon
    is refused before any noise is drawn, and the weight's bits are the
    same on every exit path.

    _handoff (for :func:`zo_all_scores`), a list, holds the clean input
    in place of layer_input; it is taken out, so in output space, where
    only pre0 and L are read once they are formed, no reference keeps it
    alive through the legs.  On return the list holds the layer's clean
    output: pre0 activated in place in output space, else the restored
    layer's forward on the clean input.
    """
    layers = model.layers()
    index = model.layer_index(layer_name)
    layer = layers[index]
    if layer.frozen:
        raise FrozenLayerError(f"layer {layer_name!r} is frozen")
    _check_epsilon(cfg.epsilon)
    h = layer_input if _handoff is None else _handoff.pop()
    if h is None:
        h = _advance(layers[:index], batch_input_matrix(model, batch)[0])
    pre0 = None
    if _output_space_extra(layer, len(h)) < layer.size:
        pre0, factor = layer_preact(layer, h), _cholesky(h @ h.T)
        del h  # the legs read pre0 and L alone
        legs = _output_space_legs(model, index, batch, pre0, factor, cfg, meter)
    else:
        legs = _weight_space_legs(model, index, batch, h, cfg, meter)
    per_noise = np.empty((cfg.noises_per_sample, batch.count))
    try:
        for j, (loss_plus, loss_minus) in enumerate(legs):
            per_noise[j] = np.abs((loss_plus - loss_minus) / (2.0 * cfg.epsilon))
    except NumericalError as e:
        raise NumericalError(f"layer {layer_name!r}: {e}") from e
    if _handoff is not None:
        _handoff.append(layer_forward(layer, h) if pre0 is None else
                        _act(layer.activation, pre0, out=pre0))
    # inner mean over noises, outer mean over samples
    return float(np.mean(np.mean(per_noise, axis=0)))


def zo_all_scores(
    model: ModelGraph,
    batch: CalibrationSet,
    cfg: ZOConfig,
    meter: BufferMeter | None = None,
    *,
    _handoff: list | None = None,
) -> ScoreMap:
    """Score every prunable layer in model order; 2*L*K*noises loss evaluations.

    One clean activation is carried through the model (frozen layers
    included), so each layer's legs run over the suffix only.  It is
    handed to each layer's scoring with no other reference, and each
    layer's scoring hands its clean output on.

    _handoff (for :func:`coarsefine.pipeline.compute_scores`), a list,
    receives the last clean activation as one pair (activation, index of
    the layer it is the input of; len(layers) for the model's output), so
    a dense forward can run on from it; with no prunable layer, nothing.
    """
    layers = model.layers()
    entries = {}
    h, at = None, 0
    for i, layer in enumerate(layers):
        if layer.frozen:
            continue
        if h is None:
            h, _ = batch_input_matrix(model, batch)
        handoff = [_advance(layers[at:i], h)]
        del h
        entries[layer.name] = zo_layer_score(model, layer.name, batch, cfg, meter,
                                             _handoff=handoff)
        h, at = handoff.pop(), i + 1
    if _handoff is not None and h is not None:
        _handoff.append((h, at))
    return ScoreMap(
        entries=entries,
        method="zeroth_order",
        aggregation="scalar",
        seed=cfg.seed,
        sample_count=batch.count,
    )
