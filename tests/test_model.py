"""Core model: forward, activation capture, backprop oracle, copies."""

import numpy as np
import pytest

from coarsefine.allocation import uniform_plan
from coarsefine.errors import (
    DimensionError,
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
)
from coarsefine.model import (
    _act,
    _gelu_grad,
    _logsumexp,
    backprop_layers,
    batch_input_matrix,
    layer_forward,
    run_forward,
)
from coarsefine.localprune import sequential_prune
from coarsefine.zograd import ZOConfig, zo_layer_score

from conftest import array_bytes, random_batch, random_mlp, shared_arrays, tiny_linear_model


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


def out_of_place_backprop(model, batch):
    """The backward pass before the in-place loop, kept as the bit oracle:
    the loss-head gradient is built out of place, and every layer
    multiplies a fresh gradient by a float activation gradient (ones for
    identity, a float mask for relu)."""
    record = {}
    _, out, _ = run_forward(model, batch, record=record)
    k, tokens, d = out.shape
    if model.head == "mse":
        target = batch.ys.reshape(k, 1, -1) if batch.ys.ndim == 2 else batch.ys
        grad = ((2.0 / (tokens * d * k)) * (out - target)).reshape(k * tokens, d)
    else:
        logits = out.reshape(k * tokens, d)
        probs = np.exp(logits - _logsumexp(logits))
        probs[np.arange(k * tokens), batch.ys.reshape(-1).astype(np.int64)] -= 1.0
        grad = probs * (1.0 / (k * tokens))
    layers = model.layers()
    grads = {}
    for i in reversed(range(len(layers))):
        x, pre = record[layers[i].name]
        if layers[i].activation == "identity":
            act_grad = np.ones_like(pre)
        elif layers[i].activation == "relu":
            act_grad = (pre > 0.0).astype(np.float64)
        else:
            act_grad = _gelu_grad(pre)
        grad = grad * act_grad
        grads[layers[i].name] = grad.T @ x
        if i:
            grad = grad @ layers[i].weight
    return {l.name: grads[l.name] for l in layers}


def _identity_mse():
    rng = np.random.default_rng(31)
    model = tiny_linear_model([rng.normal(size=(6, 5)), rng.normal(size=(3, 6))],
                              biases=[rng.normal(size=6), None])
    return model, random_batch(rng, 4, 5, 3)


def _relu_mse_tokens():
    # [K, T, d] inputs and targets; a zero input token makes pre == 0
    # exactly, where relu's subgradient is 0
    rng = np.random.default_rng(32)
    model = tiny_linear_model(
        [rng.normal(size=(7, 4)), rng.normal(size=(5, 7)), rng.normal(size=(2, 5))],
        activations=["relu", "relu", "identity"], biases=[None, rng.normal(size=5), None],
    )
    xs = rng.normal(size=(3, 4, 4))
    xs[0, 1] = 0.0
    return model, CalibrationSet(list(zip(xs, rng.normal(size=(3, 4, 2)))))


def _gelu_cross_entropy():
    rng = np.random.default_rng(33)
    model = random_mlp(rng, [5, 8, 6, 3], head="cross_entropy", activation="gelu")
    return model, CalibrationSet(
        [(rng.normal(size=5), np.float64(rng.integers(0, 3))) for _ in range(6)])


def _embedding_next_token():
    rng = np.random.default_rng(34)
    layers = [
        LayerSpec("emb", "embedding", rng.normal(size=(6, 7)), activation="relu"),
        LayerSpec("fc", "linear", rng.normal(size=(5, 6)), rng.normal(size=5), "gelu"),
        LayerSpec("out", "linear", rng.normal(size=(7, 5))),
    ]
    model = ModelGraph([Block("b", layers)], head="next_token_cross_entropy")
    ids = rng.integers(0, 7, size=(3, 5)).astype(np.float64)
    targets = rng.integers(0, 7, size=(3, 5)).astype(np.float64)
    return model, CalibrationSet(list(zip(ids, targets)))


BACKPROP_CASES = {
    "identity-mse": _identity_mse,
    "relu-mse-tokens": _relu_mse_tokens,
    "gelu-cross-entropy": _gelu_cross_entropy,
    "embedding-next-token": _embedding_next_token,
}


# signed zeros, large magnitudes where gelu and relu saturate, subnormals
SPECIALS = [0.0, -0.0, 40.0, -40.0, 5e-324, -5e-324, 1e-310, -2.5e-320]


def _specials_into(activation):
    # an identity-matrix first layer hands the planted inputs to the
    # activation unchanged (up to the sign of zero); the second layer
    # has a bias, the others do not
    def case():
        rng = np.random.default_rng(35)
        model = tiny_linear_model(
            [np.eye(6), rng.normal(size=(4, 6)), rng.normal(size=(3, 4))],
            activations=[activation, activation, "identity"],
            biases=[None, rng.normal(size=4), None])
        batch = random_batch(rng, 5, 6, 3)
        batch.xs.reshape(-1)[:len(SPECIALS)] = SPECIALS
        return model, batch
    return case


FORWARD_CASES = dict(BACKPROP_CASES, **{
    f"{act}-specials-mse": _specials_into(act) for act in ("identity", "relu", "gelu")})


class TestInPlaceBackprop:
    @pytest.mark.parametrize("case", sorted(BACKPROP_CASES))
    def test_bits_equal_the_out_of_place_pass(self, case):
        model, batch = BACKPROP_CASES[case]()
        expected = out_of_place_backprop(model, batch)
        grads = backprop_gradients(model, batch)
        assert list(grads) == [l.name for l in model.layers()]
        for name, g in expected.items():
            assert grads[name].tobytes() == g.tobytes(), name
        streamed = list(backprop_layers(model, batch))
        assert [l.name for l, _ in streamed] == [l.name for l in reversed(model.layers())]
        for layer, g in streamed:
            assert g.tobytes() == expected[layer.name].tobytes(), layer.name

    @pytest.mark.parametrize("case", sorted(FORWARD_CASES))
    def test_writes_nothing_the_caller_sees(self, case):
        model, batch = FORWARD_CASES[case]()
        weights = array_bytes(model)
        xs, ys = batch.xs.tobytes(), batch.ys.tobytes()
        first = backprop_gradients(model, batch)
        second = backprop_gradients(model, batch)
        for name, g in first.items():
            assert second[name].tobytes() == g.tobytes(), name
        h = batch_input_matrix(model, batch)[0]
        h_bytes = h.tobytes()
        for layer, g in backprop_layers(model, batch, layer_input=h):
            assert g.tobytes() == first[layer.name].tobytes(), layer.name
        assert h.tobytes() == h_bytes
        assert batch.xs.tobytes() == xs and batch.ys.tobytes() == ys
        assert array_bytes(model) == weights

        # the loss-only forwards work in buffers they own; the first
        # layer's input is the batch itself for [K, d] inputs
        _, inputs = forward_with_activations(model, batch)
        seen = {name: x.tobytes() for name, x in inputs.items()}
        run_forward(model, batch)
        for i, layer in enumerate(model.layers()):
            x = inputs[layer.name]
            run_forward(model, batch, start=i, layer_input=x)
            per_sample_losses(model, batch, i, x)
            layer_forward(layer, x)
            zo_layer_score(model, layer.name, batch, ZOConfig(), layer_input=x)
        sequential_prune(model, uniform_plan(model, 0.5), batch, "wanda")
        assert {name: x.tobytes() for name, x in inputs.items()} == seen
        assert batch.xs.tobytes() == xs and batch.ys.tobytes() == ys
        assert array_bytes(model) == weights


def allocating_act(name, x):
    from scipy.special import erf

    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "gelu":
        return 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    return x


def allocating_forward(model, batch):
    """The loss-only forward before forwards worked in their own buffers,
    kept as the bit oracle: every bias, activation and loss step makes a
    new array.  Returns (losses, output, each layer's input)."""
    h = batch_input_matrix(model, batch)[0]
    inputs = {}
    for layer in model.layers():
        inputs[layer.name] = h
        pre = h @ layer.weight.T
        if layer.bias is not None:
            pre = pre + layer.bias
        h = allocating_act(layer.activation, pre)
    k = batch.count
    out = h.reshape(k, -1, h.shape[1])
    if model.head == "mse":
        target = batch.ys.reshape(k, 1, -1) if batch.ys.ndim == 2 else batch.ys
        diff = out - target
        return np.mean(diff * diff, axis=(1, 2)), out, inputs
    m = h.max(axis=1, keepdims=True)
    logp = h - (m + np.log(np.sum(np.exp(h - m), axis=1, keepdims=True)))
    picked = logp[np.arange(len(logp)), batch.ys.reshape(-1).astype(np.int64)]
    return (-picked).reshape(k, -1).mean(axis=1), out, inputs


class TestInPlaceForward:
    @pytest.mark.parametrize("case", sorted(FORWARD_CASES))
    def test_bits_equal_the_allocating_forward(self, case):
        model, batch = FORWARD_CASES[case]()
        losses, out, inputs = allocating_forward(model, batch)
        for grad in (False, True):
            got_losses, got_out, _ = run_forward(model, batch, grad=grad)
            assert got_losses.tobytes() == losses.tobytes()
            assert got_out.tobytes() == out.tobytes()
        layers = model.layers()
        for i, layer in enumerate(layers):
            x = inputs[layer.name]
            got_losses, got_out, _ = run_forward(model, batch, start=i, layer_input=x)
            assert got_losses.tobytes() == losses.tobytes(), layer.name
            assert got_out.tobytes() == out.tobytes(), layer.name
            assert per_sample_losses(model, batch, i, x).tobytes() == losses.tobytes()
            nxt = inputs[layers[i + 1].name] if i + 1 < len(layers) else out
            assert layer_forward(layer, x).tobytes() == nxt.tobytes(), layer.name

    @pytest.mark.parametrize("activation", ["identity", "relu"])  # gelu: TestGelu
    def test_act_out_bits_equal_the_allocating_formula(self, activation):
        x = np.random.default_rng(36).normal(scale=3.0, size=(16, 5))
        x.reshape(-1)[:len(SPECIALS)] = SPECIALS
        expected = allocating_act(activation, x)
        assert _act(activation, x).tobytes() == expected.tobytes()
        into = np.full_like(x, np.nan)
        assert _act(activation, x, out=into) is into
        assert into.tobytes() == expected.tobytes()
        inplace = x.copy()
        assert _act(activation, inplace, out=inplace) is inplace
        assert inplace.tobytes() == expected.tobytes()


class TestGelu:
    def test_bits_equal_the_erf_formulas(self):
        from scipy.special import erf

        x = np.random.default_rng(9).normal(scale=3.0, size=(64, 7))
        x.reshape(-1)[:len(SPECIALS)] = SPECIALS
        direct = 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        direct_grad = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))) + x * (
            1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * x * x))
        assert _act("gelu", x).tobytes() == direct.tobytes()
        assert _gelu_grad(x).tobytes() == direct_grad.tobytes()
        into = np.full_like(x, np.nan)
        assert _act("gelu", x, out=into) is into
        assert into.tobytes() == direct.tobytes()
        inplace = x.copy()
        assert _act("gelu", inplace, out=inplace) is inplace
        assert inplace.tobytes() == direct.tobytes()


class TestCopy:
    @staticmethod
    def model():
        # a biased layer, a frozen biased layer, an unbiased layer, two blocks
        rng = np.random.default_rng(21)
        model = tiny_linear_model(
            [rng.normal(size=(4, 5)), rng.normal(size=(4, 4)), rng.normal(size=(3, 4))],
            activations=["gelu", "relu", "identity"],
            biases=[rng.normal(size=4), rng.normal(size=4), None],
            frozen=[False, True, False],
        )
        model.blocks = [Block("b0", model.blocks[0].layers[:2]),
                        Block("b1", model.blocks[0].layers[2:])]
        return model

    def test_copy_owns_every_array(self):
        model = self.model()
        before = array_bytes(model)
        model.forward_count = 5
        dup = model.copy()
        assert shared_arrays(dup, model) == []
        assert array_bytes(dup) == before == array_bytes(model)
        assert dup.forward_count == 0 and dup.head == model.head
        assert [(l.name, l.kind, l.activation, l.frozen) for l in dup.layers()] == [
            (l.name, l.kind, l.activation, l.frozen) for l in model.layers()
        ]
        assert [b.name for b in dup.blocks] == ["b0", "b1"]

    def test_given_weights_are_taken_as_is(self):
        model = self.model()
        before = array_bytes(model)
        new = np.zeros((3, 4))
        dup = model.copy(weights={"L2": new})
        assert dup.layer("L2").weight is new
        assert shared_arrays(dup, model) == []
        assert array_bytes(model) == before
        assert array_bytes(dup)["L0"] == before["L0"]
        assert array_bytes(dup)["L1"] == before["L1"]


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
