"""Core model: forward, activation capture, backprop oracle, weight writes."""

import numpy as np
import pytest

from coarsefine.errors import (
    DimensionError,
    FrozenLayerError,
    InputError,
)
from coarsefine.model import (
    Block,
    CalibrationSet,
    LayerSpec,
    ModelGraph,
    backprop_gradients,
    forward_loss,
    forward_outputs,
    forward_with_activations,
    per_sample_losses,
    set_layer_weights,
)
from coarsefine.model import layer_forward, run_forward

from conftest import random_batch, random_mlp, tiny_linear_model


class TestForward:
    def test_identity_layer_passthrough(self):
        model = tiny_linear_model([np.eye(3)])
        x = np.array([0.5, -1.25, 3.0])
        batch = CalibrationSet([(x, np.zeros(3))])
        loss, acts = forward_with_activations(model, batch)
        np.testing.assert_array_equal(acts["L0"], x[None, :])
        np.testing.assert_array_equal(forward_outputs(model, batch)[0, 0], x)

    def test_two_layer_loss_matches_scalar_oracle(self):
        # independent oracle: the same arithmetic done with plain Python
        # scalars, no numpy
        w1 = [[1.0, 2.0], [-1.0, 0.5]]
        b1 = [0.1, -0.2]
        w2 = [[0.3, -1.0], [2.0, 1.0]]
        x = [1.0, 0.5]
        y = [0.0, 1.0]
        h = [max(sum(w1[i][j] * x[j] for j in range(2)) + b1[i], 0.0) for i in range(2)]
        out = [sum(w2[i][j] * h[j] for j in range(2)) for i in range(2)]
        expected = sum((out[i] - y[i]) ** 2 for i in range(2)) / 2.0

        model = tiny_linear_model([w1, w2], activations=["relu", "identity"],
                                  biases=[b1, None])
        batch = CalibrationSet([(np.array(x), np.array(y))])
        loss = forward_loss(model, batch)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            CalibrationSet([])

    def test_shape_mismatch_rejected(self):
        model = tiny_linear_model([np.eye(3)])
        batch = CalibrationSet([(np.ones(4), np.ones(3))])
        with pytest.raises(DimensionError):
            forward_loss(model, batch)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(0)
        model = random_mlp(rng, [6, 5, 4])
        batch = random_batch(rng, 8, 6, 4)
        a = per_sample_losses(model, batch)
        b = per_sample_losses(model, batch)
        assert a.tobytes() == b.tobytes()

    def test_loss_is_mean_over_samples(self):
        rng = np.random.default_rng(1)
        model = random_mlp(rng, [4, 3])
        batch = random_batch(rng, 5, 4, 3)
        losses = per_sample_losses(model, batch)
        assert forward_loss(model, batch) == pytest.approx(np.mean(losses), rel=1e-15)

    def test_forward_counter_counts_samples(self):
        rng = np.random.default_rng(2)
        model = random_mlp(rng, [4, 3])
        batch = random_batch(rng, 7, 4, 3)
        forward_loss(model, batch)
        forward_loss(model, batch)
        assert model.forward_count == 14


class TestActivationCapture:
    def test_capture_shape_stacks_samples_and_tokens(self, trained_char_lm):
        task, model = trained_char_lm
        from coarsefine.tasks import get_split

        batch = get_split(task, "calib")
        _, acts = forward_with_activations(model, batch)
        t = task.sizes["seq_len"]
        assert acts["embed.tok"].shape == (batch.count * t, task.sizes["vocab"])
        assert acts["body.fc1"].shape == (batch.count * t, task.sizes["d_embed"])

    def test_capture_faithfulness(self):
        # re-running a layer on its captured input reproduces the captured
        # input of the next layer exactly
        rng = np.random.default_rng(3)
        model = random_mlp(rng, [5, 7, 6, 2], activation="relu")
        batch = random_batch(rng, 4, 5, 2)
        record = {}
        _, out, _ = run_forward(model, batch, record=record)
        inputs = {name: x for name, (x, _) in record.items()}
        layers = model.layers()
        for prev, nxt in zip(layers, layers[1:]):
            redo = layer_forward(prev, inputs[prev.name])
            assert redo.tobytes() == inputs[nxt.name].tobytes()
        last = layers[-1]
        redo = layer_forward(last, inputs[last.name])
        assert redo.tobytes() == out.reshape(redo.shape).tobytes()


class TestBackprop:
    def test_all_zero_weights_give_zero_gradients(self):
        model = tiny_linear_model([np.zeros((3, 3)), np.zeros((2, 3))])
        batch = CalibrationSet([(np.ones(3), np.zeros(2))])
        grads = backprop_gradients(model, batch)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_closed_form_1d_regression(self):
        # L(w) = (w*x - y)^2, dL/dw = 2*(w*x - y)*x = 4 at w=2, x=1, y=0
        model = tiny_linear_model([np.array([[2.0]])])
        batch = CalibrationSet([(np.array([1.0]), np.array([0.0]))])
        grads = backprop_gradients(model, batch)
        assert grads["L0"][0, 0] == 4.0

    @pytest.mark.parametrize("head,widths,act", [
        ("mse", [5, 6, 3], "gelu"),
        ("mse", [4, 4, 2], "relu"),
        ("cross_entropy", [5, 6, 3], "gelu"),
    ])
    def test_gradients_match_central_differences(self, head, widths, act):
        rng = np.random.default_rng(11)
        model = random_mlp(rng, widths, head=head, activation=act)
        if head == "cross_entropy":
            batch = CalibrationSet(
                [(rng.normal(size=widths[0]), np.float64(rng.integers(0, widths[-1])))
                 for _ in range(3)]
            )
        else:
            batch = random_batch(rng, 3, widths[0], widths[-1])
        grads = backprop_gradients(model, batch)
        step = 1e-5
        for layer in model.layers():
            w = layer.weight
            g_num = np.zeros_like(w)
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + step
                lp = forward_loss(model, batch)
                w[idx] = orig - step
                lm = forward_loss(model, batch)
                w[idx] = orig
                g_num[idx] = (lp - lm) / (2 * step)
            denom = np.maximum(np.abs(g_num), 1e-6)
            rel = np.abs(grads[layer.name] - g_num) / denom
            assert rel.max() < 1e-4, f"{layer.name}: max rel {rel.max()}"

    def test_embedding_gradients_match_central_differences(self):
        rng = np.random.default_rng(7)
        emb = LayerSpec("emb", "embedding", rng.normal(size=(4, 6)))
        out = LayerSpec("out", "linear", rng.normal(size=(6, 4)))
        model = ModelGraph(
            blocks=[Block("b", [emb, out])], head="next_token_cross_entropy"
        )
        ids = rng.integers(0, 6, size=(2, 5)).astype(np.float64)
        targets = rng.integers(0, 6, size=(2, 5)).astype(np.float64)
        batch = CalibrationSet(list(zip(ids, targets)))
        grads = backprop_gradients(model, batch)
        step = 1e-5
        w = emb.weight
        g_num = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            lp = forward_loss(model, batch)
            w[idx] = orig - step
            lm = forward_loss(model, batch)
            w[idx] = orig
            g_num[idx] = (lp - lm) / (2 * step)
        denom = np.maximum(np.abs(g_num), 1e-6)
        assert (np.abs(grads["emb"] - g_num) / denom).max() < 1e-4


class TestSetLayerWeights:
    def test_write_then_read_back(self):
        model = tiny_linear_model([np.eye(2)])
        new = np.array([[1.5, -2.5], [0.25, 0.125]])
        set_layer_weights(model, "L0", new)
        assert model.layer("L0").weight.tobytes() == new.tobytes()

    def test_frozen_write_needs_override(self):
        model = tiny_linear_model([np.eye(2)], frozen=[True])
        with pytest.raises(FrozenLayerError):
            set_layer_weights(model, "L0", np.zeros((2, 2)))
        set_layer_weights(model, "L0", np.zeros((2, 2)), override_frozen=True)
        assert np.all(model.layer("L0").weight == 0)

    def test_wrong_shape_rejected(self):
        model = tiny_linear_model([np.eye(2)])
        with pytest.raises(DimensionError):
            set_layer_weights(model, "L0", np.zeros((3, 2)))

    def test_unknown_layer_rejected(self):
        from coarsefine.errors import UnknownLayerError

        model = tiny_linear_model([np.eye(2)])
        with pytest.raises(UnknownLayerError):
            set_layer_weights(model, "nope", np.zeros((2, 2)))


class TestGraphInvariants:
    def test_mismatched_chain_rejected(self):
        with pytest.raises(DimensionError):
            tiny_linear_model([np.eye(3), np.ones((2, 4))])

    def test_duplicate_layer_names_rejected(self):
        layers = [
            LayerSpec("same", "linear", np.eye(2)),
            LayerSpec("same", "linear", np.eye(2)),
        ]
        with pytest.raises(InputError):
            ModelGraph(blocks=[Block("b", layers)], head="mse")

    def test_embedding_must_come_first(self):
        layers = [
            LayerSpec("lin", "linear", np.eye(3)),
            LayerSpec("emb", "embedding", np.ones((2, 3))),
        ]
        with pytest.raises(DimensionError):
            ModelGraph(blocks=[Block("b", layers)], head="mse")
