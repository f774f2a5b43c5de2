"""Prunable model representation: tensors, layers, blocks, forward, backprop.

All tensors are C-contiguous float64 ndarrays in memory (files store
float32, see :mod:`coarsefine.io`).  A model is an ordered sequence of
blocks, each holding named weight layers; the layers compose as a single
sequential path.  A calibration batch is stacked once, when it is built.

One engine, :func:`run_forward`, runs every forward: it starts at any
layer from that layer's input, returns per-sample losses and the final
output, and records each layer's input and pre-activation only when the
caller asks (backprop and activation capture do; loss-only forwards do
not).  One loss head computes the losses and, for backprop only, the
gradient of the mean loss with respect to the output, in place.  Forward
passes are deterministic: identical inputs and weights produce
bit-identical losses.

A forward that records nothing owns its buffers: each layer's GEMM
result is a new array, so the bias, the activation and the loss
arithmetic go in place into it, and a layer's input dies once the next
is formed.  The recording forward keeps every pre-activation, because
backprop reads it, so it activates into a new array.  Both paths do the
same floating-point operations in the same order, and neither writes
into the caller's input, batch or weights.

Backpropagation is one reverse per-layer loop that hands each weight
gradient to its consumer as soon as it is formed.  scipy serves only
gelu's ``erf``; it is imported by the first gelu evaluation, so relu and
identity models never load it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionError,
    InputError,
    NumericalError,
    UnknownLayerError,
)

LAYER_KINDS = ("linear", "embedding")
ACTIVATIONS = ("identity", "relu", "gelu")
LOSS_KINDS = ("mse", "cross_entropy", "next_token_cross_entropy")

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def as_tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (0-d stays 0-d)."""
    return np.asarray(data, dtype=np.float64, order="C")


def check_finite(x: np.ndarray, context: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite values in {context}")
    return x


@dataclass
class LayerSpec:
    """One prunable (or frozen) weight layer.

    weight has shape [d_out, d_in].  For kind == "embedding" the input is
    a sequence of integer ids in [0, d_in) and the output per token is the
    id-th column of weight; the activation applies after the lookup.
    """

    name: str
    kind: str
    weight: np.ndarray
    bias: np.ndarray | None = None
    activation: str = "identity"
    frozen: bool = False

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise InputError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")
        self.weight = as_tensor(self.weight)
        if self.weight.ndim != 2:
            raise DimensionError(f"layer {self.name!r}: weight must be 2-D")
        if self.bias is not None:
            self.bias = as_tensor(self.bias)
            if self.kind == "embedding":
                raise InputError(f"embedding layer {self.name!r} cannot have a bias")
            if self.bias.shape != (self.d_out,):
                raise DimensionError(
                    f"layer {self.name!r}: bias shape {self.bias.shape} != ({self.d_out},)"
                )

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]

    @property
    def size(self) -> int:
        return self.weight.size


@dataclass
class Block:
    name: str
    layers: list[LayerSpec]


@dataclass
class ModelGraph:
    """Ordered blocks forming one sequential path, plus the loss head."""

    blocks: list[Block]
    head: str = "mse"
    forward_count: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.head not in LOSS_KINDS:
            raise InputError(f"unknown loss head {self.head!r}")
        layers = self.layers()
        names = [l.name for l in layers]
        if len(names) != len(set(names)):
            raise InputError("layer names must be unique")
        bnames = [b.name for b in self.blocks]
        if len(bnames) != len(set(bnames)):
            raise InputError("block names must be unique")
        for i, layer in enumerate(layers):
            if layer.kind == "embedding" and i != 0:
                raise DimensionError(
                    f"embedding layer {layer.name!r} must be the first layer"
                )
            if i > 0 and layer.d_in != layers[i - 1].d_out:
                raise DimensionError(
                    f"layer {layer.name!r}: d_in {layer.d_in} != previous "
                    f"d_out {layers[i - 1].d_out}"
                )

    # -- structure helpers -------------------------------------------------

    def layers(self) -> list[LayerSpec]:
        return [l for b in self.blocks for l in b.layers]

    def layer(self, name: str) -> LayerSpec:
        return self.layers()[self.layer_index(name)]

    def layer_index(self, name: str) -> int:
        for i, l in enumerate(self.layers()):
            if l.name == name:
                return i
        raise UnknownLayerError(f"no layer named {name!r}")

    def prunable_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers() if not l.frozen]

    def num_prunable_weights(self) -> int:
        return sum(l.size for l in self.prunable_layers())

    def copy(self, weights: dict[str, np.ndarray] | None = None) -> "ModelGraph":
        """Structural copy in which every layer owns a fresh weight and bias,
        except that a layer named in weights takes the given array as is.
        The copy's forward count starts at 0."""
        weights = weights or {}

        def own(l: LayerSpec) -> LayerSpec:
            w = weights[l.name] if l.name in weights else l.weight.copy()
            return replace(l, weight=w, bias=None if l.bias is None else l.bias.copy())

        return ModelGraph([Block(b.name, [own(l) for l in b.layers]) for b in self.blocks],
                          self.head)


class CalibrationSet:
    """Small sample set (input, target) used for activations and losses.

    The batch is held only stacked, as float64 xs [K, *input] and
    ys [K, *target] (all inputs share one shape, all targets another).  A
    set built from a sample list converts each sample straight into the
    stacked arrays; :meth:`stacked` takes arrays that are stacked already.
    :attr:`samples` builds row views on demand.  Never used for training.
    """

    def __init__(self, samples: list[tuple[np.ndarray, np.ndarray]]):
        if len(samples) < 1:
            raise InputError("calibration set must contain at least one sample")
        pairs = [(np.asarray(x), np.asarray(y)) for x, y in samples]
        x0, y0 = pairs[0]
        for x, y in pairs[1:]:
            if x.shape != x0.shape or y.shape != y0.shape:
                raise DimensionError("calibration samples have inconsistent shapes")
        self.xs = np.stack([x for x, _ in pairs], dtype=np.float64)
        self.ys = np.stack([y for _, y in pairs], dtype=np.float64)

    @classmethod
    def stacked(cls, xs, ys) -> "CalibrationSet":
        """The set whose samples are the rows of xs and ys, held as they
        are: C-contiguous float64 arrays are not copied."""
        xs, ys = as_tensor(xs), as_tensor(ys)
        if xs.ndim == 0 or ys.ndim == 0 or len(xs) != len(ys):
            raise DimensionError("stacked inputs and targets must hold one row per sample")
        if len(xs) < 1:
            raise InputError("calibration set must contain at least one sample")
        batch = cls.__new__(cls)
        batch.xs, batch.ys = xs, ys
        return batch

    @property
    def samples(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(input, target) row views, built per call ([i, ...]: 0-d class ids stay arrays)."""
        return [(self.xs[i, ...], self.ys[i, ...]) for i in range(self.count)]

    @property
    def count(self) -> int:
        return len(self.xs)


# -- activations ----------------------------------------------------------


def _act(name: str, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Activation name of x, written into out when given (numpy's out=
    convention; out=x works in place).  With or without out, each element
    goes through the same floating-point operations in the same order, so
    the bits are the same.  identity without out returns x itself."""
    if name == "identity":
        if out is None or out is x:
            return x
        np.copyto(out, x)
        return out
    if name == "relu":
        return np.maximum(x, 0.0, out=out)
    from scipy.special import erf  # loaded by the first gelu evaluation

    # exact gelu: x * Phi(x) = (0.5 * x) * (1.0 + erf(x * (1 / sqrt 2)))
    phi = x * _INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    out = np.multiply(0.5, x, out=out)
    out *= phi
    return out


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf

    phi = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * phi


# -- forward / backward machinery ------------------------------------------


def _token_ids(x2d: np.ndarray, vocab: int) -> np.ndarray:
    ids = x2d.astype(np.int64)
    if not np.array_equal(ids, x2d):
        raise InputError("embedding inputs must hold integer token ids")
    if ids.min() < 0 or ids.max() >= vocab:
        raise InputError(f"token id out of range [0, {vocab})")
    return ids


def batch_input_matrix(model: ModelGraph, batch: CalibrationSet) -> tuple[np.ndarray, int]:
    """Stack the batch into the [K*tokens, d_in] matrix the first layer sees.

    For an embedding first layer this is the one-hot encoding of the token
    ids (so activation-based pruning sees column usage counts).  Returns
    the matrix and the tokens-per-sample count.
    """
    xs = batch.xs
    layers = model.layers()
    if not layers:
        raise InputError("model has no layers")
    first = layers[0]
    if (xs.ndim == 3 or first.kind == "embedding") and xs.shape[1:2] == (0,):
        raise DimensionError("calibration inputs hold no tokens (empty token axis)")
    if first.kind == "embedding":
        if xs.ndim != 2:
            raise DimensionError("embedding input must be [K, T] token ids")
        ids = _token_ids(xs, first.d_in)
        tokens = ids.shape[1]
        flat = ids.reshape(-1)
        onehot = np.zeros((flat.size, first.d_in))
        onehot[np.arange(flat.size), flat] = 1.0
        return onehot, tokens
    if xs.ndim == 2:
        return xs, 1
    if xs.ndim == 3:
        return xs.reshape(xs.shape[0] * xs.shape[1], xs.shape[2]), xs.shape[1]
    raise DimensionError("linear input must be [K, d] or [K, T, d]")


def layer_preact(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """Pre-activation output x @ W.T (+ bias) of one layer."""
    if x.shape[1] != layer.d_in:
        raise DimensionError(
            f"layer {layer.name!r}: input width {x.shape[1]} != d_in {layer.d_in}"
        )
    pre = x @ layer.weight.T
    if layer.bias is not None:
        pre += layer.bias
    return pre


def layer_forward(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """Post-activation output of one layer on an input matrix, activated
    in the fresh pre-activation's own buffer; x is only read."""
    pre = layer_preact(layer, x)
    return _act(layer.activation, pre, out=pre)


def _loss_head(
    head: str, ys: np.ndarray, out: np.ndarray, grad: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample losses of out [K, tokens, d] against the stacked targets.

    With grad, also d(mean batch loss)/d(out), flattened to [K*tokens, d].
    """
    k, tokens, d = out.shape
    if head == "mse":
        if ys.ndim == 2:
            target = ys.reshape(k, 1, -1)
        elif ys.ndim == 3:
            target = ys
        else:
            raise DimensionError("mse targets must be [K, d] or [K, T, d]")
        if target.shape[1] not in (1, tokens) or target.shape[2] != d:
            raise DimensionError("mse target shape does not match predictions")
        diff = out - target
        if not grad:
            return np.mean(np.multiply(diff, diff, out=diff), axis=(1, 2)), None
        losses = np.mean(diff * diff, axis=(1, 2))
        diff *= 2.0 / (tokens * d * k)
        return losses, diff.reshape(k * tokens, d)

    if head == "cross_entropy":
        if tokens != 1:
            raise DimensionError("cross_entropy head expects single-token samples")
        if ys.ndim != 1:
            raise DimensionError("cross_entropy targets must be [K] class ids")
        classes = _token_ids(ys.reshape(k, 1), d).reshape(k)
    else:  # next_token_cross_entropy
        if ys.ndim != 2 or ys.shape != (k, tokens):
            raise DimensionError("next-token targets must be [K, T] class ids")
        classes = _token_ids(ys, d).reshape(-1)
    rows = np.arange(k * tokens)
    logits = out.reshape(k * tokens, d)
    logp = logits - _logsumexp(logits)
    losses = (-logp[rows, classes]).reshape(k, tokens).mean(axis=1)
    if not grad:
        return losses, None
    probs = np.exp(logp, out=logp)
    probs[rows, classes] -= 1.0
    probs *= 1.0 / (k * tokens)
    return losses, probs


def _logsumexp(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    return m + np.log(np.sum(np.exp(shifted, out=shifted), axis=1, keepdims=True))


def run_forward(
    model: ModelGraph,
    batch: CalibrationSet,
    start: int = 0,
    layer_input: np.ndarray | None = None,
    record: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    grad: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The forward engine: run layers[start:] on the batch.

    With layer_input, the pass starts at layers[start] from that input
    (the [K*tokens, d_in] matrix the layer sees); the losses equal the
    full forward's.  A record dict receives (input, pre-activation) per
    layer run; with grad the loss head also returns dL/d(output).
    Returns (per-sample losses [K], final output [K, tokens, d_out],
    dL/d(output) as [K*tokens, d_out] or None).  Counts K forwards.
    """
    layers = model.layers()
    k = batch.count
    if layer_input is None:
        if start != 0:
            raise InputError("a forward from a later layer needs its layer_input")
        h, tokens = batch_input_matrix(model, batch)
    else:
        if not 0 <= start < len(layers):
            raise InputError(f"start {start} outside the model's {len(layers)} layers")
        h = layer_input
        tokens, rest = divmod(h.shape[0], k)
        if rest or not tokens:
            raise DimensionError(f"layer_input rows {h.shape[0]} are not a multiple of K={k}")

    for layer in layers[start:]:
        pre = layer_preact(layer, h)
        if record is None:
            h = _act(layer.activation, pre, out=pre)
        else:  # backprop reads the recorded pre, so the activation is a new array
            record[layer.name] = (h, pre)
            h = _act(layer.activation, pre)

    check_finite(h, "model output")
    out = h.reshape(k, tokens, -1)
    losses, d_out = _loss_head(model.head, batch.ys, out, grad)
    check_finite(losses, "loss")
    model.forward_count += k
    return losses, out, d_out


def forward_with_activations(
    model: ModelGraph, batch: CalibrationSet
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over the batch plus the input tensor seen by each layer.

    activations[name] has shape [K*tokens, d_in]; for the embedding layer
    it is the stacked one-hot id matrix.
    """
    record: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    losses, _, _ = run_forward(model, batch, record=record)
    return float(np.mean(losses)), {name: x for name, (x, _) in record.items()}


def forward_loss(model: ModelGraph, batch: CalibrationSet) -> float:
    return float(np.mean(run_forward(model, batch)[0]))


def per_sample_losses(
    model: ModelGraph,
    batch: CalibrationSet,
    start: int = 0,
    layer_input: np.ndarray | None = None,
) -> np.ndarray:
    """Loss of each calibration sample individually, shape [K].

    start/layer_input run the forward from layers[start] on its input
    (see :func:`run_forward`); the losses equal the full forward's.
    """
    return run_forward(model, batch, start, layer_input)[0]


def forward_outputs(model: ModelGraph, batch: CalibrationSet) -> np.ndarray:
    """Final post-activation outputs, shape [K, tokens, d_out]."""
    return run_forward(model, batch)[1]


def backprop_layers(
    model: ModelGraph, batch: CalibrationSet, layer_input: np.ndarray | None = None
) -> Iterator[tuple[LayerSpec, np.ndarray]]:
    """Yield (layer, d(mean batch loss)/dW) for every layer, last layer first.

    A layer comes only after the gradient it passes down was formed with
    its weight, so a consumer may replace that weight at once.  Activation
    gradients go in place into the loop's own output gradient (relu's
    subgradient at 0 is 0).  layer_input (see :func:`batch_input_matrix`)
    is only read."""
    record: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    _, _, grad = run_forward(model, batch, layer_input=layer_input, record=record, grad=True)
    for i, layer in reversed(list(enumerate(model.layers()))):
        x, pre = record.pop(layer.name)
        if layer.activation == "relu":
            grad *= pre > 0.0
        elif layer.activation == "gelu":
            grad *= _gelu_grad(pre)
        weight_grad = grad.T @ x
        if i:
            grad = grad @ layer.weight
        yield layer, weight_grad


def backprop_gradients(
    model: ModelGraph, batch: CalibrationSet
) -> dict[str, np.ndarray]:
    """d(mean batch loss)/dW for every layer in layer order, same shapes as
    the weights; matches central finite differences to 1e-4 relative at
    desk scale."""
    return dict(reversed([(l.name, g) for l, g in backprop_layers(model, batch)]))
