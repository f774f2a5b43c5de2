"""Task fixtures: floors, determinism, splits, the imbalance injector."""

import numpy as np
import pytest

from coarsefine.errors import InputError
from coarsefine.evaluation import evaluate
from coarsefine.model import backprop_gradients, forward_loss
from coarsefine.tasks import (
    TASK_KINDS,
    _adam_train,
    build_model,
    get_split,
    inject_scale_imbalance,
    make_task,
    train_reference,
)


class TestSplits:
    def test_calibration_is_a_train_prefix(self):
        task = make_task("synthetic_regression", seed=3)
        train = get_split(task, "train")
        calib = get_split(task, "calib")
        assert calib.count == task.n_calib
        np.testing.assert_array_equal(calib.xs, train.xs[: calib.count])
        np.testing.assert_array_equal(calib.ys, train.ys[: calib.count])

    def test_train_and_val_disjoint(self):
        task = make_task("synthetic_regression", seed=3)
        train = get_split(task, "train")
        val = get_split(task, "val")
        train_bytes = {x.tobytes() for x in train.xs}
        assert not any(x.tobytes() in train_bytes for x in val.xs)

    def test_empty_split_rejected(self):
        task = make_task("synthetic_regression", seed=0, n_val=0)
        with pytest.raises(InputError):
            get_split(task, "val")

    def test_unknown_split_rejected(self):
        task = make_task("synthetic_regression", seed=0)
        with pytest.raises(InputError):
            get_split(task, "test")

    def test_calib_larger_than_train_rejected(self):
        with pytest.raises(InputError):
            make_task("synthetic_regression", n_train=8, n_calib=16)


class TestTraining:
    def test_regression_reaches_floor(self, trained_regression):
        task, model = trained_regression
        assert evaluate(model, task, "val").loss <= 1e-2

    def test_classification_reaches_floor(self):
        task = make_task("synthetic_classification", seed=0)
        model = train_reference(task)
        assert evaluate(model, task, "val").accuracy >= 0.95

    def test_char_lm_reaches_floor(self, trained_char_lm):
        task, model = trained_char_lm
        assert evaluate(model, task, "val").perplexity <= 8.0

    def test_two_tower_reaches_floor(self, trained_two_tower):
        task, model = trained_two_tower
        assert evaluate(model, task, "val").loss <= 0.1

    def test_training_is_bit_deterministic(self):
        task = make_task("synthetic_classification", seed=5)
        m1 = train_reference(task)
        m2 = train_reference(task)
        for a, b in zip(m1.layers(), m2.layers()):
            assert a.weight.tobytes() == b.weight.tobytes()

    def test_two_tower_fusion_adapter_is_frozen(self, trained_two_tower):
        task, model = trained_two_tower
        fresh = build_model(task)
        assert model.layer("fusion.adapter").frozen
        assert (
            model.layer("fusion.adapter").weight.tobytes()
            == fresh.layer("fusion.adapter").weight.tobytes()
        )

    def test_char_lm_golden_metrics(self, trained_char_lm):
        # regression guard: values frozen from the first verified build
        task, model = trained_char_lm
        res = evaluate(model, task, "val")
        assert res.loss == pytest.approx(1.5940439595167482, rel=1e-6)
        assert res.perplexity == pytest.approx(4.923619641573226, rel=1e-6)
        assert evaluate(model, task, "train").loss == pytest.approx(
            1.293944017870467, rel=1e-6
        )

    def test_unreachable_floor_raises_fixture_error(self):
        task = make_task("synthetic_classification", seed=0)
        task.floor = {"accuracy": 1.01}  # impossible by construction
        with pytest.raises(InputError, match="fixture error"):
            train_reference(task)


def whole_dict_adam_train(model, batch, lr, epochs):
    """The Adam loop before the per-layer backward, kept as the bit oracle:
    each step takes the whole gradient dict first, then updates every
    trainable layer in forward order."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trainable = [l for l in model.layers() if not l.frozen]
    m = {l.name: np.zeros_like(l.weight) for l in trainable}
    v = {l.name: np.zeros_like(l.weight) for l in trainable}
    for step in range(1, epochs + 1):
        grads = backprop_gradients(model, batch)
        c1 = 1.0 - beta1**step
        c2 = 1.0 - beta2**step
        for layer in trainable:
            g = grads[layer.name]
            mw = m[layer.name]
            vw = v[layer.name]
            mw *= beta1
            mw += (1.0 - beta1) * g
            vw *= beta2
            vw += (1.0 - beta2) * g * g
            layer.weight = layer.weight - lr * (mw / c1) / (np.sqrt(vw / c2) + eps)


class TestPerLayerAdam:
    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_equals_whole_dict_steps(self, kind):
        # each layer is updated as its gradient arrives; the backward loop
        # must already have used the old weight, or the bits would move
        task = make_task(kind, seed=2)
        batch = get_split(task, "train")
        fresh = build_model(task)
        streamed, whole = build_model(task), build_model(task)
        _adam_train(streamed, batch, 0.02, 4)
        whole_dict_adam_train(whole, batch, 0.02, 4)
        for a, b, f in zip(streamed.layers(), whole.layers(), fresh.layers()):
            assert a.weight.tobytes() == b.weight.tobytes(), a.name
            if a.frozen:
                assert a.weight.tobytes() == f.weight.tobytes(), a.name
            else:
                assert a.weight.tobytes() != f.weight.tobytes(), a.name


class TestImbalanceInjection:
    def test_function_preserved_exactly_through_relu(self, trained_two_tower):
        task, model = trained_two_tower
        m = model.copy()
        val = get_split(task, "val")
        before = forward_loss(m, val)
        inject_scale_imbalance(m, "tower_a.fc1", "tower_a.fc2", 100.0)
        after = forward_loss(m, val)
        assert after == pytest.approx(before, rel=1e-9)
        assert not np.array_equal(
            m.layer("tower_a.fc1").weight, model.layer("tower_a.fc1").weight
        )

    def test_non_adjacent_layers_rejected(self, trained_two_tower):
        _, model = trained_two_tower
        with pytest.raises(InputError):
            inject_scale_imbalance(model.copy(), "tower_a.fc1", "tower_b.fc1", 10.0)


def _architecture(model):
    return model.head, [
        (b.name, l.name, l.kind, l.weight.shape, l.activation, l.frozen)
        for b in model.blocks for l in b.layers
    ]


class TestArchitecture:
    # (block, layer, kind, shape, activation, frozen) in forward order
    EXPECTED = {
        "synthetic_regression": ("mse", [
            ("body", "body.fc", "linear", (8, 8), "identity", False),
            ("head", "head.out", "linear", (4, 8), "identity", False),
        ]),
        "synthetic_classification": ("cross_entropy", [
            ("body", "body.fc", "linear", (16, 8), "relu", False),
            ("head", "head.out", "linear", (2, 16), "identity", False),
        ]),
        "char_lm": ("next_token_cross_entropy", [
            ("embed", "embed.tok", "embedding", (10, 20), "identity", False),
            ("body", "body.fc1", "linear", (48, 10), "relu", False),
            ("body", "body.fc2", "linear", (48, 48), "relu", False),
            ("head", "head.out", "linear", (20, 48), "identity", False),
        ]),
        "two_tower_fusion": ("mse", [
            ("tower_a", "tower_a.fc1", "linear", (32, 16), "relu", False),
            ("tower_a", "tower_a.fc2", "linear", (16, 32), "relu", False),
            ("fusion", "fusion.adapter", "linear", (8, 16), "identity", True),
            ("tower_b", "tower_b.fc1", "linear", (16, 8), "relu", False),
            ("tower_b", "tower_b.fc2", "linear", (8, 16), "relu", False),
            ("head", "head.out", "linear", (4, 8), "identity", False),
        ]),
    }

    @pytest.mark.parametrize("kind", sorted(EXPECTED))
    def test_default_architecture(self, kind):
        assert _architecture(build_model(make_task(kind, seed=0))) == self.EXPECTED[kind]

    def test_override_reshapes_the_towers(self):
        # demo 06's mirrored towers
        task = make_task("two_tower_fusion", seed=0, tower_a_scale=10.0,
                         tower_a_width=32, tower_b_width=32, d_fused=16)
        assert _architecture(build_model(task)) == ("mse", [
            ("tower_a", "tower_a.fc1", "linear", (32, 16), "relu", False),
            ("tower_a", "tower_a.fc2", "linear", (16, 32), "relu", False),
            ("fusion", "fusion.adapter", "linear", (16, 16), "identity", True),
            ("tower_b", "tower_b.fc1", "linear", (32, 16), "relu", False),
            ("tower_b", "tower_b.fc2", "linear", (16, 32), "relu", False),
            ("head", "head.out", "linear", (4, 16), "identity", False),
        ])

    def test_scale_override_scales_only_its_tower(self):
        base = build_model(make_task("two_tower_fusion", seed=0))
        scaled = build_model(make_task("two_tower_fusion", seed=0, tower_a_scale=10.0))
        for layer in base.layers():
            other = scaled.layer(layer.name).weight
            if layer.name.startswith("tower_a."):
                np.testing.assert_allclose(other, 10.0 * layer.weight, rtol=1e-15)
            else:
                assert other.tobytes() == layer.weight.tobytes()


class TestSizes:
    def test_models_stay_desk_scale(self):
        for kind in ("synthetic_regression", "synthetic_classification",
                      "char_lm", "two_tower_fusion"):
            model = build_model(make_task(kind, seed=0))
            assert sum(l.size for l in model.layers()) <= 200_000

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            make_task("mystery_task")

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            make_task("char_lm", seed=-1)

    def test_size_overrides(self):
        task = make_task("char_lm", seed=0, d_hidden=24)
        model = build_model(task)
        assert model.layer("body.fc1").d_out == 24
        with pytest.raises(InputError):
            make_task("char_lm", bogus_dim=3)
