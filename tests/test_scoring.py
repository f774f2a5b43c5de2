"""Score functions and aggregation."""

import numpy as np
import pytest

from coarsefine.allocation import allocate_sparsity
from coarsefine.errors import InputError
from coarsefine.model import CalibrationSet, backprop_gradients, forward_loss
from coarsefine.scoring import (
    ScoreMap,
    aggregate_to_layers,
    first_order_saliency,
    magnitude_scores,
)

from conftest import array_bytes, random_batch, random_mlp, tiny_linear_model


class TestMagnitudeScores:
    def test_zero_weight(self):
        model = tiny_linear_model([np.zeros((1, 1))])
        assert magnitude_scores(model)["L0"][0, 0] == 0.0

    def test_absolute_value(self):
        model = tiny_linear_model([np.array([[-3.0, 2.0]])])
        np.testing.assert_array_equal(magnitude_scores(model)["L0"], [[3.0, 2.0]])

    def test_topk_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 7))
        model = tiny_linear_model([w])
        scores = magnitude_scores(model)["L0"].reshape(-1)
        k = 11
        top_by_score = set(np.argsort(-scores, kind="stable")[:k])
        top_by_abs = set(np.argsort(-np.abs(w.reshape(-1)), kind="stable")[:k])
        assert top_by_score == top_by_abs

    def test_frozen_layers_excluded(self):
        model = tiny_linear_model([np.eye(2), np.eye(2)], frozen=[False, True])
        assert set(magnitude_scores(model)) == {"L0"}


class TestFirstOrderSaliency:
    def test_zero_gradients_give_zero_scores(self):
        model = tiny_linear_model([np.zeros((2, 2))])
        batch = CalibrationSet([(np.ones(2), np.zeros(2))])
        scores = first_order_saliency(model, batch)
        assert np.all(scores["L0"] == 0.0)

    def test_bits_and_order_equal_the_gradient_dict(self):
        # each gradient becomes its saliency in place; the weights stay
        # untouched and a frozen layer gets no entry
        rng = np.random.default_rng(3)
        model = tiny_linear_model(
            [rng.normal(size=(5, 4)), rng.normal(size=(5, 5)), rng.normal(size=(3, 5))],
            activations=["relu", "gelu", "identity"], frozen=[False, True, False],
        )
        batch = random_batch(rng, 6, 4, 3)
        weights = array_bytes(model)
        grads = backprop_gradients(model, batch)
        scores = first_order_saliency(model, batch)
        assert list(scores) == ["L0", "L2"]
        for name, s in scores.items():
            expected = np.abs(model.layer(name).weight) * np.abs(grads[name])
            assert s.tobytes() == expected.tobytes(), name
        assert array_bytes(model) == weights

    def test_1d_analytic(self):
        # w=2, x=1, y=0 (mse): grad = 4, score = |2| * |4| = 8
        model = tiny_linear_model([np.array([[2.0]])])
        batch = CalibrationSet([(np.array([1.0]), np.array([0.0]))])
        scores = first_order_saliency(model, batch)
        assert scores["L0"][0, 0] == 8.0

    def test_matches_finite_difference_saliency(self):
        rng = np.random.default_rng(1)
        model = random_mlp(rng, [4, 5, 3], activation="gelu")
        batch = random_batch(rng, 3, 4, 3)
        scores = first_order_saliency(model, batch)
        step = 1e-5
        for layer in model.layers():
            w = layer.weight
            fd = np.zeros_like(w)
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + step
                lp = forward_loss(model, batch)
                w[idx] = orig - step
                lm = forward_loss(model, batch)
                w[idx] = orig
                fd[idx] = (lp - lm) / (2 * step)
            expected = np.abs(w) * np.abs(fd)
            denom = np.maximum(expected, 1e-8)
            assert (np.abs(scores[layer.name] - expected) / denom).max() < 1e-3


class TestAggregation:
    def test_single_element_layer(self):
        for mode in ("sum", "mean"):
            sm = aggregate_to_layers({"L": np.array([[5.0]])}, mode)
            assert sm.entries == {"L": 5.0}
            assert sm.aggregation == mode

    def test_sum_and_mean_arithmetic(self):
        element = {"L": np.array([[1.0, 2.0, 3.0]])}
        assert aggregate_to_layers(element, "sum").entries == {"L": 6.0}
        assert aggregate_to_layers(element, "mean").entries == {"L": 2.0}

    def test_uniform_elementwise_scores_reduce_to_uniform_sparsity(self):
        # constant elementwise score c with sum aggregation makes layer
        # scores proportional to sizes, so allocation hands back p_i = p
        model = tiny_linear_model([np.ones((30, 1)), np.ones((2, 30))])
        element = {"L0": np.full((30, 1), 0.7), "L1": np.full((2, 30), 0.7)}
        sm = aggregate_to_layers(element, "sum")
        plan = allocate_sparsity(sm, model, 0.5, 1.0)
        assert plan.per_layer["L0"].keep_count == 15
        assert plan.per_layer["L1"].keep_count == 30

    def test_empty_layer_rejected(self):
        with pytest.raises(InputError):
            aggregate_to_layers({"L": np.zeros((0,))}, "sum")

    def test_negative_scores_rejected(self):
        with pytest.raises(InputError):
            aggregate_to_layers({"L": np.array([-1.0])}, "sum")


class TestScoreMap:
    def test_validation(self):
        with pytest.raises(InputError):
            ScoreMap(entries={"a": -1.0}, method="magnitude")
        with pytest.raises(InputError):
            ScoreMap(entries={}, method="typo")

    def test_json_round_trip(self, tmp_path):
        sm = ScoreMap(
            entries={"a": 1.25, "b": 0.0},
            method="zeroth_order",
            aggregation="scalar",
            seed=42,
            sample_count=32,
        )
        path = sm.save(tmp_path / "scores.json")
        again = ScoreMap.load(path)
        assert again.entries == sm.entries
        assert again.method == sm.method
        assert again.seed == 42 and again.sample_count == 32

    def test_scale_covariance_through_allocation(self):
        # c * elementwise scores leave the plan unchanged
        model = tiny_linear_model([np.ones((20, 1)), np.ones((2, 20))])
        element = {
            "L0": np.linspace(0.1, 1.0, 20).reshape(20, 1),
            "L1": np.linspace(0.5, 2.0, 40).reshape(2, 20),
        }
        scaled = {k: 3.7e5 * v for k, v in element.items()}
        p1 = allocate_sparsity(aggregate_to_layers(element, "sum"), model, 0.5, 0.8)
        p2 = allocate_sparsity(aggregate_to_layers(scaled, "sum"), model, 0.5, 0.8)
        assert p1 == p2
