"""Baselines: global magnitude, iterative gradient, uniform, local-score
ratios."""

import tracemalloc

import numpy as np
import pytest

from coarsefine.allocation import uniform_plan, validate_plan
from coarsefine.baselines import (
    global_magnitude_prune,
    iterative_gradient_prune,
    local_score_ratios,
    uniform_layerwise_prune,
)
from coarsefine.errors import InputError
from coarsefine.localprune import sequential_prune, wanda_prune_layer
from coarsefine.model import CalibrationSet, batch_input_matrix

from conftest import array_bytes, random_batch, random_mlp, shared_arrays, tiny_linear_model


class TestGlobalMagnitude:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(0)
        model = random_mlp(rng, [4, 5, 2])
        pruned, masks = global_magnitude_prune(model, 0.0)
        for layer in model.layers():
            assert pruned.layer(layer.name).weight.tobytes() == layer.weight.tobytes()
        assert all(m.all() for m in masks.values())

    def test_global_sort_across_layers(self):
        model = tiny_linear_model([np.array([[1.0, -3.0]]), np.array([[2.0], [0.5]])])
        pruned, masks = global_magnitude_prune(model, 0.5)
        np.testing.assert_array_equal(masks["L0"], [[False, True]])
        np.testing.assert_array_equal(masks["L1"], [[True], [False]])
        assert pruned.layer("L0").weight[0, 0] == 0.0

    def test_layer_collapse_at_high_sparsity(self):
        # layer A holds all the large weights; global pruning at p=0.9
        # zeroes layer B entirely
        a = 5.0 + np.arange(40, dtype=np.float64).reshape(40, 1)
        b = 0.01 * (1.0 + np.arange(40, dtype=np.float64)).reshape(1, 40)
        model = tiny_linear_model([a, b])
        _, masks = global_magnitude_prune(model, 0.9)
        assert masks["L1"].sum() == 0  # collapsed
        assert masks["L0"].sum() == 8

    def test_exact_budget(self):
        rng = np.random.default_rng(1)
        model = random_mlp(rng, [10, 10, 10])
        for p in (0.3, 0.5, 0.77):
            _, masks = global_magnitude_prune(model, p)
            kept = sum(int(m.sum()) for m in masks.values())
            n = model.num_prunable_weights()
            assert kept == int(np.floor((1 - p) * n + 0.5))

    def test_invalid_p_rejected(self):
        model = tiny_linear_model([np.eye(2)])
        with pytest.raises(InputError):
            global_magnitude_prune(model, 1.0)


class TestIterativeGradient:
    def test_single_iteration_equals_one_shot(self):
        rng = np.random.default_rng(2)
        model = random_mlp(rng, [5, 6, 3])
        batch = random_batch(rng, 4, 5, 3)
        one, masks_one = iterative_gradient_prune(model, batch, 0.5, [0.5])
        # oracle: one stable sort of every prunable saliency, in layer order
        from coarsefine.scoring import first_order_saliency

        saliency = first_order_saliency(model, batch)
        flat = np.concatenate([saliency[l.name].reshape(-1) for l in model.prunable_layers()])
        kept = np.zeros(flat.size, dtype=bool)
        kept[np.argsort(-flat, kind="stable")[: int(np.floor(0.5 * flat.size + 0.5))]] = True
        offset = 0
        for layer in model.prunable_layers():
            expected = kept[offset : offset + layer.size].reshape(layer.weight.shape)
            np.testing.assert_array_equal(masks_one[layer.name], expected)
            offset += layer.size

    def test_linear_schedule_targets(self, monkeypatch):
        import coarsefine.baselines as baselines

        seen = []
        monkeypatch.setattr(
            baselines, "_global_prune", lambda model, targets, saliency: seen.append(targets)
        )
        iterative_gradient_prune(tiny_linear_model([np.eye(2)]), None, 0.6)
        np.testing.assert_allclose(seen[0], [0.2, 0.4, 0.6])
        assert seen[0][-1] == 0.6

    def test_masks_are_monotone(self):
        # prefix schedules share the (deterministic) trajectory, so their
        # final masks expose the within-run iterates: each must nest in
        # the previous, and each hits its exact keep budget
        rng = np.random.default_rng(3)
        for trial in range(5):
            model = random_mlp(rng, [5, 7, 3])
            batch = random_batch(rng, 4, 5, 3)
            n = model.num_prunable_weights()
            prev_kept = None
            for i in (1, 2, 3):
                targets = [0.2 * t for t in range(1, i + 1)]
                _, masks = iterative_gradient_prune(model, batch, targets[-1], targets)
                kept = np.concatenate([masks[k].reshape(-1) for k in sorted(masks)])
                assert kept.sum() == int(np.floor((1 - targets[-1]) * n + 0.5))
                if prev_kept is not None:
                    assert np.all(kept <= prev_kept)  # pruned set only grows
                prev_kept = kept

    def test_p_zero_returns_dense_masks(self):
        rng = np.random.default_rng(4)
        model = random_mlp(rng, [3, 4, 2])
        batch = random_batch(rng, 4, 3, 2)
        for pruned, masks in (global_magnitude_prune(model, 0.0),
                              iterative_gradient_prune(model, batch, 0.0)):
            assert all(m.all() for m in masks.values())
            for layer in model.layers():
                assert pruned.layer(layer.name).weight.tobytes() == layer.weight.tobytes()

    def test_schedule_validation(self):
        model = tiny_linear_model([np.eye(2)])
        batch = random_batch(np.random.default_rng(0), 2, 2, 2)
        for p, targets in (
            (0.4, []),  # empty
            (0.3, [0.4, 0.3]),  # decreasing
            (0.4, [0.2, 0.2, 0.4]),  # not strictly increasing
            (0.5, [0.2, 0.4]),  # does not end at p
        ):
            with pytest.raises(InputError):
                iterative_gradient_prune(model, batch, p, targets)


class TestGlobalBaselinesOnlyRead:
    @staticmethod
    def model_and_batch():
        # a biased layer, a frozen biased layer, a biased output layer
        rng = np.random.default_rng(31)
        model = tiny_linear_model(
            [rng.normal(size=(4, 5)), rng.normal(size=(4, 4)), rng.normal(size=(3, 4))],
            activations=["gelu", "relu", "identity"],
            biases=[rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)],
            frozen=[False, True, False],
        )
        return model, random_batch(rng, 4, 5, 3)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.8])
    @pytest.mark.parametrize("method", ["global_magnitude", "iterative_gradient"])
    def test_input_untouched_and_result_owns_its_arrays(self, method, p):
        model, batch = self.model_and_batch()
        model.forward_count = 7
        before = array_bytes(model)
        if method == "global_magnitude":
            pruned, masks = global_magnitude_prune(model, p)
            forwards = 0
        else:
            pruned, masks = iterative_gradient_prune(model, batch, p)
            forwards = (3 if p > 0 else 1) * batch.count  # one backprop per target
        assert array_bytes(model) == before
        assert model.forward_count == 7
        assert pruned.forward_count == forwards
        assert shared_arrays(pruned, model) == []
        assert sorted(masks) == ["L0", "L2"]
        for layer in model.layers():
            got = pruned.layer(layer.name)
            expected = (layer.weight if layer.frozen
                        else np.where(masks[layer.name], layer.weight, 0.0))
            assert got.weight.tobytes() == expected.tobytes()
            assert got.bias.tobytes() == layer.bias.tobytes()
            assert not any(np.shares_memory(m, layer.weight) for m in masks.values())

    # a 256-512-512-128 GELU MLP (458,752 weights), K=64; the bound is in
    # float64 weight bytes.  Magnitude holds the flat scores next to
    # top_k_mask's negated copy of them, or next to the result's weights
    # (2.52x); an up-front model copy rewritten layer by layer read 4.52x.
    # Iterative gradient peaks in its saliency phase (the iterate, the
    # saliency dict, the backprop record and one gradient, 2.72x); with
    # the previous iterate alive through top_k_mask's ranking it read
    # 3.52x, with the whole gradient dict alive in first_order_saliency
    # 3.56x, and with the last flat scores kept alive through the next
    # scoring 4.56x.
    @pytest.mark.parametrize("method, bound", [("global_magnitude", 3.0),
                                               ("iterative_gradient", 2.8)])
    def test_peak_memory(self, method, bound):
        rng = np.random.default_rng(41)
        model = random_mlp(rng, [256, 512, 512, 128])
        batch = random_batch(rng, 64, 256, 128)
        weight_bytes = 8 * model.num_prunable_weights()
        # gelu loads scipy on its first call; that import is not the
        # baseline's memory, so it happens before tracing starts
        import scipy.special  # noqa: F401
        tracemalloc.start()
        try:
            if method == "global_magnitude":
                global_magnitude_prune(model, 0.5)
            else:
                iterative_gradient_prune(model, batch, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * weight_bytes, peak / weight_bytes


class TestUniformLayerwise:
    def test_every_layer_within_one_unit_of_p(self):
        rng = np.random.default_rng(4)
        model = random_mlp(rng, [7, 9, 4])
        batch = random_batch(rng, 4, 7, 4)
        _, masks, _ = uniform_layerwise_prune(model, batch, 0.5, "wanda")
        for name, mask in masks.items():
            size = mask.size
            zeros = int((~mask).sum())
            assert abs(zeros - 0.5 * size) <= 1.0

    def test_matches_hand_built_wanda_masks(self):
        rng = np.random.default_rng(5)
        model = random_mlp(rng, [6, 8, 4])
        batch = random_batch(rng, 4, 6, 4)
        plan = uniform_plan(model, 0.5)
        _, masks, _ = uniform_layerwise_prune(model, batch, 0.5, "wanda")
        h, _ = batch_input_matrix(model, batch)
        m0 = wanda_prune_layer(model.layer("L0"), h, plan.per_layer["L0"].keep_count)
        np.testing.assert_array_equal(masks["L0"], m0)

    def test_equals_sequential_with_uniform_plan(self):
        rng = np.random.default_rng(6)
        model = random_mlp(rng, [6, 8, 4])
        batch = random_batch(rng, 4, 6, 4)
        _, masks_a, _ = uniform_layerwise_prune(model, batch, 0.4, "wanda")
        _, masks_b, _ = sequential_prune(model, uniform_plan(model, 0.4), batch, "wanda")
        for name in masks_a:
            np.testing.assert_array_equal(masks_a[name], masks_b[name])

    def test_reduces_to_constant_scores_on_equal_size_layers(self):
        # the coarse pipeline with a constant ScoreMap on equal-size layers
        # produces the same masks as the uniform baseline, p_max = 1
        from coarsefine.allocation import allocate_sparsity
        from coarsefine.scoring import ScoreMap

        rng = np.random.default_rng(9)
        model = tiny_linear_model([rng.normal(size=(6, 6)), rng.normal(size=(6, 6))])
        batch = random_batch(rng, 4, 6, 6)
        constant = ScoreMap(entries={"L0": 1.0, "L1": 1.0}, method="uniform")
        plan = allocate_sparsity(constant, model, 0.5, 1.0)
        _, masks_a, _ = sequential_prune(model, plan, batch, "wanda")
        _, masks_b, _ = uniform_layerwise_prune(model, batch, 0.5, "wanda")
        for name in masks_a:
            np.testing.assert_array_equal(masks_a[name], masks_b[name])


class TestLocalScoreRatios:
    def test_constant_local_scores_give_uniform_plan(self):
        # equal-size layers with identical weights and activations
        model = tiny_linear_model(
            [np.full((4, 4), 0.5), np.full((4, 4), 0.5)]
        )
        batch = CalibrationSet([(np.ones(4), np.ones(4))])
        plan = local_score_ratios(model, batch, 0.5, "magnitude", p_max=1.0)
        keeps = {a.keep_count for a in plan.per_layer.values()}
        assert keeps == {8}

    def test_scale_skew_absorbs_budget(self):
        # the last layer's weights scaled x100: its wanda sum dwarfs the
        # other layer's (scaling an earlier layer would also scale the
        # next layer's input activations and cancel), so it hoards the
        # keep budget
        rng = np.random.default_rng(7)
        w0 = rng.normal(size=(6, 6))
        w1 = rng.normal(size=(6, 6))
        model = tiny_linear_model([w0, 100.0 * w1])
        batch = random_batch(rng, 4, 6, 6)
        plan = local_score_ratios(model, batch, 0.5, "wanda", p_max=1.0)
        assert plan.per_layer["L1"].keep_count == 36
        assert plan.per_layer["L0"].keep_count == 0

    def test_activation_scale_inflates_the_downstream_layer(self):
        # scale one layer's weights x100 WITHOUT compensating downstream:
        # the next layer's input activations grow x100 and its wanda sum
        # with them, so the activation-scaled layer takes an outsized cut
        # of the keep budget and the untouched layer starves
        rng = np.random.default_rng(10)
        w = [rng.normal(size=(6, 6)) for _ in range(3)]
        w[0] = 100.0 * w[0]
        model = tiny_linear_model(w, activations=["relu", "relu", "identity"])
        batch = random_batch(rng, 4, 6, 6)
        plan = local_score_ratios(model, batch, 0.5, "wanda", p_max=1.0)
        keeps = {n: plan.per_layer[n].keep_count for n in ("L0", "L1", "L2")}
        assert keeps["L1"] > 2 * keeps["L2"]  # activation-scaled layer absorbs
        assert keeps["L2"] < 36 * 0.5         # untouched layer starves

    def test_plan_validates(self):
        rng = np.random.default_rng(8)
        model = random_mlp(rng, [6, 8, 4])
        batch = random_batch(rng, 4, 6, 4)
        for fine in ("wanda", "sparsegpt", "magnitude"):
            plan = local_score_ratios(model, batch, 0.5, fine)
            assert validate_plan(plan, model) == []
