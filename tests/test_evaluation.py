"""Metrics, sparsity accounting, distribution report, run comparison."""

import json

import numpy as np
import pytest

from coarsefine.errors import InputError
from coarsefine.evaluation import (
    EvalResult,
    compare_runs,
    distribution_report,
    evaluate_on_batch,
    sparsity_accounting,
    write_csv,
)
from coarsefine.model import Block, CalibrationSet, LayerSpec, ModelGraph, per_sample_losses
from coarsefine.tasks import build_model, get_split, make_task

from conftest import random_batch, random_mlp, tiny_linear_model


class TestMetrics:
    def test_perfect_predictions_give_accuracy_one(self):
        # logits hard-wired so argmax equals the target for both classes
        model = tiny_linear_model([np.array([[1.0], [-1.0]])], head="cross_entropy")
        batch = CalibrationSet(
            [(np.array([3.0]), np.float64(0)), (np.array([-2.0]), np.float64(1))]
        )
        res = evaluate_on_batch(model, batch)
        assert res.accuracy == 1.0

    def test_one_forward_per_evaluation(self):
        # loss and accuracy of a classification head come from one forward
        rng = np.random.default_rng(5)
        model = random_mlp(rng, [4, 6, 3], head="cross_entropy")
        k = 9
        batch = CalibrationSet([(rng.normal(size=4), np.float64(i % 3)) for i in range(k)])
        res = evaluate_on_batch(model, batch)
        assert model.forward_count == k
        assert res.accuracy is not None

    def test_uniform_logits_give_perplexity_equal_vocab(self):
        vocab, dim = 12, 4
        model = ModelGraph(
            blocks=[Block("b", [
                LayerSpec("emb", "embedding", np.ones((dim, vocab))),
                LayerSpec("out", "linear", np.zeros((vocab, dim))),
            ])],
            head="next_token_cross_entropy",
        )
        ids = np.arange(6, dtype=np.float64) % vocab
        batch = CalibrationSet([(ids, ids)])
        res = evaluate_on_batch(model, batch)
        assert res.perplexity == pytest.approx(vocab, rel=1e-10)

    def test_perplexity_is_exp_of_mean_token_cross_entropy(self, trained_char_lm):
        task, model = trained_char_lm
        batch = get_split(task, "val")
        res = evaluate_on_batch(model, batch)
        losses = per_sample_losses(model, batch)
        assert res.perplexity == pytest.approx(np.exp(np.mean(losses)), rel=1e-10)

    def test_loss_matches_scalar_recomputation(self):
        w1 = [[1.0, 2.0], [-1.0, 0.5]]
        w2 = [[0.3, -1.0], [2.0, 1.0]]
        model = tiny_linear_model([w1, w2], activations=["relu", "identity"],
                                  biases=[[0.1, -0.2], None])
        x, y = [1.0, 0.5], [0.0, 1.0]
        batch = CalibrationSet([(np.array(x), np.array(y))])
        h = [max(sum(w1[i][j] * x[j] for j in range(2)) + [0.1, -0.2][i], 0.0)
             for i in range(2)]
        out = [sum(w2[i][j] * h[j] for j in range(2)) for i in range(2)]
        expected = sum((out[i] - y[i]) ** 2 for i in range(2)) / 2.0
        assert evaluate_on_batch(model, batch).loss == pytest.approx(expected, rel=1e-12)


class TestSparsityAccounting:
    def test_counts_follow_masks_exactly(self):
        rng = np.random.default_rng(0)
        model = random_mlp(rng, [6, 8, 4])
        masks = {
            "L0": rng.random((8, 6)) > 0.3,
            "L1": rng.random((4, 8)) > 0.7,
        }
        per_layer, global_s = sparsity_accounting(model, masks)
        for name, mask in masks.items():
            assert per_layer[name]["zeros"] == int((~mask).sum())
        total = sum(m.size for m in masks.values())
        zeros = sum(int((~m).sum()) for m in masks.values())
        assert global_s == zeros / total

    def test_zero_counting_without_masks(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        model = tiny_linear_model([w])
        per_layer, global_s = sparsity_accounting(model)
        assert per_layer["L0"]["zeros"] == 3
        assert global_s == 0.75

    def test_nan_is_not_a_zero_and_negative_zero_is(self):
        model = tiny_linear_model([np.array([[np.nan, -0.0], [0.0, 1.0]])])
        assert sparsity_accounting(model)[0]["L0"]["zeros"] == 2

    @pytest.mark.parametrize("with_masks", [True, False])
    def test_zeros_are_json_ints(self, with_masks):
        # np.count_nonzero returns np.int64, which json.dumps rejects
        model = tiny_linear_model([np.array([[1.0, 0.0, 2.0]])])
        masks = {"L0": np.array([[True, False, True]])} if with_masks else None
        per_layer, _ = sparsity_accounting(model, masks)
        assert type(per_layer["L0"]["zeros"]) is int
        assert json.loads(json.dumps(per_layer))["L0"]["zeros"] == 1


class TestDistributionReport:
    def test_all_zero_weights_mass_in_lowest_bin(self):
        model = tiny_linear_model([np.zeros((4, 4))])
        batch = CalibrationSet([(np.ones(4), np.zeros(4))])
        rep = distribution_report(model, batch)
        block = rep["blocks"]["b0"]
        assert block["weight_mean_abs"] == 0.0
        assert block["weight_hist"][0] == 16
        assert sum(block["weight_hist"][1:]) == 0

    def test_gaussian_weights_match_half_normal_mean(self):
        rng = np.random.default_rng(1)
        sigma = 0.37
        w = sigma * rng.normal(size=(100, 100))
        model = tiny_linear_model([w])
        batch = CalibrationSet([(np.ones(100), np.zeros(100))])
        rep = distribution_report(model, batch)
        expected = sigma * np.sqrt(2.0 / np.pi)
        assert rep["blocks"]["b0"]["weight_mean_abs"] == pytest.approx(expected, rel=0.05)

    def test_tower_scale_ratio_reported(self):
        # symmetric widths so the towers mirror and the init-scale knob
        # maps directly onto the mean-magnitude ratio
        task = make_task(
            "two_tower_fusion", seed=0, tower_a_scale=10.0,
            tower_a_width=32, tower_b_width=32, d_fused=16,
        )
        model = build_model(task)
        batch = get_split(task, "calib")
        rep = distribution_report(model, batch)
        ratio = rep["cross_block_weight_mean_ratio"]["tower_a/tower_b"]
        assert ratio == pytest.approx(10.0, rel=0.2)

    def test_local_score_skew_present(self, trained_two_tower):
        task, model = trained_two_tower
        rep = distribution_report(model, get_split(task, "calib"))
        assert set(rep["local_score_per_layer"]) == {
            l.name for l in model.prunable_layers()
        }
        assert rep["local_score_skew"]["max_over_min"] is None or (
            rep["local_score_skew"]["max_over_min"] >= 1.0
        )

    def test_report_is_deterministic(self):
        rng = np.random.default_rng(2)
        model = random_mlp(rng, [5, 6, 3])
        batch = random_batch(rng, 4, 5, 3)
        import json

        a = json.dumps(distribution_report(model, batch), sort_keys=True)
        b = json.dumps(distribution_report(model, batch), sort_keys=True)
        assert a == b


class TestCompareRuns:
    def r(self, loss, acc=None, sparsity=0.0):
        return EvalResult(loss=loss, accuracy=acc, global_sparsity=sparsity)

    def test_single_run_zero_deltas(self):
        rows = compare_runs([("only", self.r(1.5))])
        assert len(rows) == 1
        assert rows[0]["delta_loss"] == 0.0

    def test_identical_results_zero_deltas(self):
        rows = compare_runs(
            [("dense", self.r(1.0)), ("copy", self.r(1.0))], dense_label="dense"
        )
        assert all(row["delta_loss"] == 0.0 for row in rows)

    def test_delta_is_direct_subtraction(self):
        rows = compare_runs(
            [("dense", self.r(1.0)), ("pruned", self.r(1.75, sparsity=0.5))],
            dense_label="dense",
        )
        by = {row["label"]: row for row in rows}
        assert by["pruned"]["delta_loss"] == pytest.approx(0.75)
        assert by["pruned"]["delta_global_sparsity"] == pytest.approx(0.5)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            compare_runs([("same", self.r(1.0)), ("same", self.r(2.0))])

    def test_csv_output(self, tmp_path):
        rows = compare_runs(
            [("dense", self.r(1.0)), ("pruned", self.r(2.0))], dense_label="dense"
        )
        path = write_csv(rows, tmp_path / "cmp.csv")
        text = path.read_text(encoding="utf-8").splitlines()
        assert text[0].startswith("label,loss,")
        assert len(text) == 3
        assert text[1].split(",")[0] == "dense"
