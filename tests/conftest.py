"""Shared fixtures: tiny hand-built models and cached trained references."""

import json
import tracemalloc

import numpy as np
import pytest

from coarsefine.model import Block, CalibrationSet, LayerSpec, ModelGraph
from coarsefine.tasks import make_task, train_reference


def tiny_linear_model(weights, head="mse", activations=None, biases=None, frozen=None):
    """One block of linear layers from a list of weight matrices."""
    n = len(weights)
    activations = activations or ["identity"] * n
    biases = biases or [None] * n
    frozen = frozen or [False] * n
    layers = [
        LayerSpec(f"L{i}", "linear", np.asarray(w, dtype=np.float64),
                  bias=None if biases[i] is None else np.asarray(biases[i], float),
                  activation=activations[i], frozen=frozen[i])
        for i, w in enumerate(weights)
    ]
    return ModelGraph(blocks=[Block("b0", layers)], head=head)


def random_mlp(rng, widths, head="mse", activation="gelu"):
    """Random MLP with the given layer widths, last layer identity."""
    weights = []
    for i in range(len(widths) - 1):
        weights.append(rng.normal(size=(widths[i + 1], widths[i])) / np.sqrt(widths[i]))
    acts = [activation] * (len(weights) - 1) + ["identity"]
    return tiny_linear_model(weights, head=head, activations=acts)


def random_batch(rng, k, d_in, d_out):
    return CalibrationSet(
        [(rng.normal(size=d_in), rng.normal(size=d_out)) for _ in range(k)]
    )


def traced(fn, *args, **kwargs):
    """(fn(*args, **kwargs), (current, peak)): tracemalloc's traced bytes
    when the call returns and their peak during it, tracing that call alone."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def write_aliased_model(directory):
    """A model directory by hand whose biased 4x3 layer "a" and 1x4 layer
    "a.bias" both name the file a.bias.bin, which holds [9, 8, 7, 6]."""
    directory.mkdir(parents=True)
    layer = dict(kind="linear", activation="identity", frozen=False)
    manifest = {"format_version": "1", "head": "mse", "blocks": [{"name": "b", "layers": [
        dict(layer, name="a", shape=[4, 3], has_bias=True),
        dict(layer, name="a.bias", shape=[1, 4], has_bias=False),
    ]}]}
    (directory / "manifest.json").write_text(json.dumps(manifest))
    np.ones((4, 3), dtype="<f4").tofile(directory / "a.bin")
    np.array([9, 8, 7, 6], dtype="<f4").tofile(directory / "a.bias.bin")
    return directory


@pytest.fixture(scope="session")
def trained_char_lm():
    task = make_task("char_lm", seed=0)
    return task, train_reference(task)


@pytest.fixture(scope="session")
def trained_two_tower():
    task = make_task("two_tower_fusion", seed=0)
    return task, train_reference(task)


@pytest.fixture(scope="session")
def trained_regression():
    task = make_task("synthetic_regression", seed=0)
    return task, train_reference(task)


def array_bytes(model):
    """Bytes of every layer's weight and bias, by layer name."""
    return {
        l.name: (l.weight.tobytes(), None if l.bias is None else l.bias.tobytes())
        for l in model.layers()
    }


def shared_arrays(model, other):
    """Names of model's layers whose weight or bias shares memory with any
    weight or bias of other."""
    theirs = [a for l in other.layers() for a in (l.weight, l.bias) if a is not None]
    return [
        l.name for l in model.layers()
        if any(np.shares_memory(a, b) for a in (l.weight, l.bias) if a is not None
               for b in theirs)
    ]
