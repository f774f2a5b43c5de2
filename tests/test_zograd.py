"""Zeroth-order estimation: seed replay, estimator fidelity, memory."""

import math
import os
import runpy
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import coarsefine.model as model_module
import coarsefine.zograd as zograd
from coarsefine.errors import FrozenLayerError, InputError
from coarsefine.model import (
    CalibrationSet,
    backprop_gradients,
    batch_input_matrix,
    layer_forward,
    per_sample_losses,
)
from coarsefine.tasks import build_model, get_split, make_task
from coarsefine.zograd import (
    BufferMeter,
    ZOConfig,
    _regenerate,
    noise_seed,
    perturb_replay,
    zo_all_scores,
    zo_layer_score,
)

from conftest import array_bytes, random_batch, random_mlp, tiny_linear_model, traced


class TestPerturbReplay:
    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_is_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        model = tiny_linear_model([rng.normal(size=(6, 9))])
        before = model.layer("L0").weight.tobytes()
        perturb_replay(model, "L0", (seed, 0, 0), 1e-3, 1)
        perturb_replay(model, "L0", (seed, 0, 0), 1e-3, -1)
        perturb_replay(model, "L0", (seed, 0, 0), 1e-3, "restore")
        assert model.layer("L0").weight.tobytes() == before

    def test_round_trip_with_extreme_scales(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 8))
        w[0] *= 1e-12   # weights far below the perturbation scale
        w[1] *= 1e6
        w[2, :4] = 0.0  # exact zeros stay exact zeros
        model = tiny_linear_model([w.copy()])
        before = model.layer("L0").weight.tobytes()
        perturb_replay(model, "L0", 7, 1e-1, 1)
        perturb_replay(model, "L0", 7, 1e-1, -1)
        perturb_replay(model, "L0", 7, 1e-1, "restore")
        assert model.layer("L0").weight.tobytes() == before

    def test_plus_and_minus_states_match_noise(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(3, 5))
        model = tiny_linear_model([w0.copy()])
        eps = 1e-3
        z = _regenerate((42, 0, 0), w0.size).reshape(w0.shape)
        w_plus = w0 + eps * z
        perturb_replay(model, "L0", (42, 0, 0), eps, 1)
        assert model.layer("L0").weight.tobytes() == w_plus.tobytes()
        perturb_replay(model, "L0", (42, 0, 0), eps, -1)
        # the applied plus perturbation, reflected about W0
        assert model.layer("L0").weight.tobytes() == (w0 - (w_plus - w0)).tobytes()
        perturb_replay(model, "L0", (42, 0, 0), eps, "restore")

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=(3, 3))
        m1 = tiny_linear_model([w0.copy()])
        m2 = tiny_linear_model([w0.copy()])
        perturb_replay(m1, "L0", 1, 1e-3, 1)
        perturb_replay(m2, "L0", 2, 1e-3, 1)
        assert not np.array_equal(m1.layer("L0").weight, m2.layer("L0").weight)

    def test_zero_epsilon_rejected(self):
        model = tiny_linear_model([np.eye(2)])
        for epsilon in (0.0, math.nan, math.inf):  # NaN and inf used to pass
            with pytest.raises(InputError):
                perturb_replay(model, "L0", 0, epsilon, 1)

    def test_frozen_layer_rejected(self):
        model = tiny_linear_model([np.eye(2)], frozen=[True])
        with pytest.raises(FrozenLayerError):
            perturb_replay(model, "L0", 0, 1e-3, 1)

    def test_cycle_protocol_enforced(self):
        model = tiny_linear_model([np.eye(2)])
        with pytest.raises(InputError):
            perturb_replay(model, "L0", 0, 1e-3, -1)  # no open cycle
        perturb_replay(model, "L0", 0, 1e-3, 1)
        with pytest.raises(InputError):
            perturb_replay(model, "L0", 0, 1e-3, 1)  # double plus
        perturb_replay(model, "L0", 0, 1e-3, "restore")

    def test_cycle_allocates_one_layer(self):
        # the noise is drawn into the plus weight and the minus leg works
        # in it, so a whole cycle allocates one layer plus small objects
        # (the generator, the cycle record; about 1.8 KB)
        rng = np.random.default_rng(4)
        model = tiny_linear_model([rng.normal(size=(256, 512))])
        layer_bytes = model.layer("L0").weight.nbytes
        def cycle():
            for direction in (1, -1, "restore"):
                perturb_replay(model, "L0", (4, 0, 0), 1e-3, direction)

        _, (_, peak) = traced(cycle)
        assert layer_bytes <= peak <= layer_bytes + 64 * 1024, peak / layer_bytes

    def test_restore_directly_from_plus(self):
        rng = np.random.default_rng(3)
        model = tiny_linear_model([rng.normal(size=(5, 5))])
        before = model.layer("L0").weight.tobytes()
        perturb_replay(model, "L0", 9, 1e-3, 1)
        perturb_replay(model, "L0", 9, 1e-3, "restore")
        assert model.layer("L0").weight.tobytes() == before


class TestLayerScore:
    def test_flat_direction_scores_zero(self):
        # downstream weights are zero, so the loss ignores L0 entirely
        model = tiny_linear_model([np.eye(3), np.zeros((2, 3))])
        batch = CalibrationSet([(np.ones(3), np.ones(2))])
        score = zo_layer_score(model, "L0", batch, ZOConfig(seed=5))
        assert score == 0.0

    def test_quadratic_loss_gives_exact_directional_derivative(self):
        # L(w) = (w*x)^2 with x = 1: the paired difference is exactly
        # 2*w*z for every noise, central differences being exact on
        # quadratics
        model = tiny_linear_model([np.array([[1.0]])])
        batch = CalibrationSet([(np.array([1.0]), np.array([0.0]))])
        cfg = ZOConfig(epsilon=1e-3, seed=3)
        z = _regenerate(noise_seed(3, 0, 0), 1)[0]
        score = zo_layer_score(model, "L0", batch, cfg)
        assert score == pytest.approx(abs(2.0 * z), rel=1e-9)

    def test_half_normal_mean_on_quadratic_loss(self):
        # single linear layer + mse is quadratic in W, so each paired
        # estimate is exactly <grad, z>; |<g, z>| is half-normal with mean
        # sqrt(2/pi) * ||g||_F
        rng = np.random.default_rng(4)
        model = tiny_linear_model([rng.normal(size=(2, 4))])
        batch = CalibrationSet([(rng.normal(size=4), rng.normal(size=2))])
        g = backprop_gradients(model, batch)["L0"]
        expected = np.sqrt(2.0 / np.pi) * np.linalg.norm(g)
        cfg = ZOConfig(epsilon=1e-3, noises_per_sample=10_000, seed=0)
        score = zo_layer_score(model, "L0", batch, cfg)
        assert score == pytest.approx(expected, rel=0.05)

    def test_signed_estimate_is_mean_zero(self):
        # property: without the absolute value the estimate averages to ~0
        rng = np.random.default_rng(5)
        model = tiny_linear_model([rng.normal(size=(2, 3))])
        batch = CalibrationSet([(rng.normal(size=3), rng.normal(size=2))])
        eps = 1e-3
        vals = []
        for j in range(2000):
            key = noise_seed(11, 0, j)
            perturb_replay(model, "L0", key, eps, 1)
            lp = per_sample_losses(model, batch)[0]
            perturb_replay(model, "L0", key, eps, -1)
            lm = per_sample_losses(model, batch)[0]
            perturb_replay(model, "L0", key, eps, "restore")
            vals.append((lp - lm) / (2 * eps))
        g = backprop_gradients(model, batch)["L0"]
        sigma = np.linalg.norm(g)
        assert abs(np.mean(vals)) < 4 * sigma / np.sqrt(len(vals))

    @pytest.mark.parametrize("given_input", [False, True])
    def test_frozen_layer_refused_with_bits_unchanged(self, given_input):
        rng = np.random.default_rng(8)
        model = random_mlp(rng, [4, 5, 2])
        model.layer("L1").frozen = True
        batch = random_batch(rng, 3, 4, 2)
        h = None
        if given_input:
            h = layer_forward(model.layer("L0"), batch_input_matrix(model, batch)[0])
        before = array_bytes(model)
        with pytest.raises(FrozenLayerError):
            zo_layer_score(model, "L1", batch, ZOConfig(), layer_input=h)
        assert array_bytes(model) == before
        assert not hasattr(model.layer("L1"), "_perturb_cycle")

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        model = random_mlp(rng, [4, 5, 2])
        batch = random_batch(rng, 4, 4, 2)
        a = zo_layer_score(model, "L0", batch, ZOConfig(seed=9))
        b = zo_layer_score(model, "L0", batch, ZOConfig(seed=9))
        assert a == b

    def test_forward_cost_is_2k_per_noise(self):
        rng = np.random.default_rng(7)
        model = random_mlp(rng, [4, 3])
        batch = random_batch(rng, 5, 4, 3)
        model.forward_count = 0
        zo_layer_score(model, "L0", batch, ZOConfig(seed=0, noises_per_sample=3))
        assert model.forward_count == 2 * 5 * 3


class TestAllScores:
    def test_single_layer_composition(self):
        rng = np.random.default_rng(8)
        model = tiny_linear_model([rng.normal(size=(3, 4))])
        batch = random_batch(rng, 4, 4, 3)
        full = zo_all_scores(model, batch, ZOConfig(seed=1))
        single = zo_layer_score(model, "L0", batch, ZOConfig(seed=1))
        assert full.entries == {"L0": single}
        assert full.method == "zeroth_order"
        assert full.aggregation == "scalar"
        assert full.sample_count == 4

    def test_all_frozen_model_gives_empty_map(self):
        model = tiny_linear_model([np.eye(3), np.eye(3)], frozen=[True, True])
        batch = CalibrationSet([(np.ones(3), np.ones(3))])
        scores = zo_all_scores(model, batch, ZOConfig(seed=0))
        assert scores.entries == {}

    def test_ranking_matches_backprop_norms(self):
        # layers built with clearly separated gradient norms
        rng = np.random.default_rng(12)
        model = random_mlp(rng, [6, 8, 4], activation="relu")
        model.layer("L0").weight *= 0.2   # shrink to separate the norms
        batch = random_batch(rng, 4, 6, 4)
        grads = backprop_gradients(model, batch)
        true_norms = [np.linalg.norm(grads[n]) for n in ("L0", "L1")]
        scores = zo_all_scores(model, batch, ZOConfig(seed=2, noises_per_sample=256))
        est = [scores.entries["L0"], scores.entries["L1"]]
        rho = stats.spearmanr(true_norms, est).statistic
        assert rho >= 0.8

    @pytest.mark.parametrize("widths, k, noise, extra", [
        # weight space: the noise is drawn into the one perturbed copy of
        # the biggest layer
        ([6, 12, 4], 4, 72, 72),
        # both layers in output space, the last one (16 x 512) too: the
        # largest noise is L0's g (8 x 512), and in all L0 holds the clean
        # pre-activation, L g, g and the 8 x 8 factor L
        ([128, 512, 16], 8, 8 * 512, 3 * 8 * 512 + 8 * 8),
    ], ids=["weight-space", "output-space"])
    def test_memory_meter_holds_one_noise_buffer(self, widths, k, noise, extra):
        rng = np.random.default_rng(13)
        model = random_mlp(rng, widths)
        batch = random_batch(rng, k, widths[0], widths[-1])
        meter = BufferMeter()
        zo_all_scores(model, batch, ZOConfig(seed=0), meter=meter)
        assert meter.peak_noise_buffers == 1
        assert meter.peak_noise_elements == noise
        assert meter.peak_extra_elements == extra
        assert meter.current_extra_elements == 0


class TestZOConfig:
    def test_validation(self):
        for epsilon in (0.0, math.nan, math.inf):  # NaN and inf used to pass
            with pytest.raises(InputError):
                ZOConfig(epsilon=epsilon)
        with pytest.raises(InputError):
            ZOConfig(noises_per_sample=0)
        with pytest.raises(InputError):
            ZOConfig(seed=-1)


# -- oracle: an out-of-place replay cycle and full-forward scorer ---------


def twosum_replay(layer, seed, epsilon, direction, cycle):
    """Reference +1 / -1 / restore cycle, computed out of place: the plus
    leg is fl(W0 + eps*z), the minus leg reflects the plus perturbation
    about W0, fl(W0 - fl(P - W0)), and the restore returns the W0 saved
    in ``cycle``."""
    w = layer.weight
    if direction == 1:
        cycle["w0"] = w.copy()
        head = w + epsilon * _regenerate(seed, w.size).reshape(w.shape)
    elif direction == -1:
        head = cycle["w0"] - (w - cycle["w0"])
    else:
        head = cycle.pop("w0")
    layer.weight = head


def full_forward_legs(model, layer_name, batch, cfg):
    """Reference scorer: per noise, (plus weight, minus weight, plus
    losses, minus losses), every loss from a full forward."""
    layer = model.layer(layer_name)
    index = model.layer_index(layer_name)
    legs = []
    for j in range(cfg.noises_per_sample):
        key, cycle = noise_seed(cfg.seed, index, j), {}
        twosum_replay(layer, key, cfg.epsilon, 1, cycle)
        w_plus, loss_plus = layer.weight.copy(), per_sample_losses(model, batch)
        twosum_replay(layer, key, cfg.epsilon, -1, cycle)
        w_minus, loss_minus = layer.weight.copy(), per_sample_losses(model, batch)
        twosum_replay(layer, key, cfg.epsilon, "restore", cycle)
        legs.append((w_plus, w_minus, loss_plus, loss_minus))
    return legs


def full_forward_score(model, layer_name, batch, cfg):
    per_noise = np.array([
        np.abs((lp - lm) / (2.0 * cfg.epsilon))
        for _, _, lp, lm in full_forward_legs(model, layer_name, batch, cfg)
    ])
    return float(np.mean(np.mean(per_noise, axis=0)))


def _gelu_mlp():
    rng = np.random.default_rng(21)
    return random_mlp(rng, [5, 9, 7, 3]), random_batch(rng, 6, 5, 3)


def _relu_mlp():
    rng = np.random.default_rng(22)
    return random_mlp(rng, [4, 8, 8, 6, 2], activation="relu"), random_batch(rng, 5, 4, 2)


def _frozen_middle():
    rng = np.random.default_rng(23)
    model = random_mlp(rng, [6, 10, 8, 4])
    model.layer("L1").frozen = True
    return model, random_batch(rng, 4, 6, 4)


def _char_lm():
    task = make_task("char_lm", seed=0)
    calib = get_split(task, "calib")
    return build_model(task), CalibrationSet.stacked(calib.xs[:8], calib.ys[:8])


ORACLE_CASES = {
    "gelu_mlp": _gelu_mlp,
    "relu_mlp": _relu_mlp,
    "frozen_middle": _frozen_middle,
    "char_lm": _char_lm,
}


def _with_biases(rng, model):
    for layer in model.layers():
        layer.bias = rng.normal(size=layer.d_out)
    return model


def _wide_bias():
    # L0 (512 x 128) has a successor and 3*8*512 + 8*8 < 65,536
    rng = np.random.default_rng(24)
    return _with_biases(rng, random_mlp(rng, [128, 512, 16])), random_batch(rng, 8, 128, 16)


def _wide_frozen():
    # L0 in output space, its legs run through the frozen L1; L2 is last
    rng = np.random.default_rng(25)
    model = _with_biases(rng, random_mlp(rng, [128, 512, 512, 16]))
    model.layer("L1").frozen = True
    return model, random_batch(rng, 8, 128, 16)


def _wide_deep():
    # L0 and L1 (512 x 512, on an advanced clean input) in output space
    rng = np.random.default_rng(26)
    model = _with_biases(rng, random_mlp(rng, [128, 512, 512, 16], activation="relu"))
    return model, random_batch(rng, 8, 128, 16)


def _wide_flat():
    # the loss sees L0 only through the tiny L1: L0's score, about 1e-13,
    # is a loss difference of about one ulp of the losses
    rng = np.random.default_rng(27)
    model = _with_biases(rng, random_mlp(rng, [128, 512, 16]))
    model.layer("L1").weight *= 1e-14
    return model, random_batch(rng, 8, 128, 16)


WIDE_CASES = {
    "wide_bias": _wide_bias,
    "wide_frozen": _wide_frozen,
    "wide_deep": _wide_deep,
    "wide_flat": _wide_flat,
}


class TestSnapshotOracle:
    """The in-place cycle and suffix forwards reproduce the out-of-place
    reference cycle and full forwards bit for bit."""

    @pytest.mark.parametrize("noises", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_legs_match_twosum_full_forward(self, case, noises):
        model, batch = ORACLE_CASES[case]()
        oracle = model.copy()
        cfg = ZOConfig(epsilon=1e-3, noises_per_sample=noises, seed=5)
        layers = model.layers()
        h = batch_input_matrix(model, batch)[0]
        for i, layer in enumerate(layers):
            if not layer.frozen:
                before = layer.weight.tobytes()
                expected = full_forward_legs(oracle, layer.name, batch, cfg)
                for j, (w_plus, w_minus, loss_plus, loss_minus) in enumerate(expected):
                    key = noise_seed(cfg.seed, i, j)
                    perturb_replay(model, layer.name, key, cfg.epsilon, 1)
                    assert layer.weight.tobytes() == w_plus.tobytes()
                    got = per_sample_losses(model, batch, start=i, layer_input=h)
                    assert got.tobytes() == loss_plus.tobytes()
                    perturb_replay(model, layer.name, key, cfg.epsilon, -1)
                    assert layer.weight.tobytes() == w_minus.tobytes()
                    got = per_sample_losses(model, batch, start=i, layer_input=h)
                    assert got.tobytes() == loss_minus.tobytes()
                    perturb_replay(model, layer.name, key, cfg.epsilon, "restore")
                    assert layer.weight.tobytes() == before
                    assert oracle.layer(layer.name).weight.tobytes() == before
            h = layer_forward(layer, h)

    @pytest.mark.parametrize("noises", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_all_scores_match_oracle(self, case, noises):
        model, batch = ORACLE_CASES[case]()
        oracle = model.copy()
        cfg = ZOConfig(epsilon=1e-3, noises_per_sample=noises, seed=7)
        scores = zo_all_scores(model, batch, cfg)
        expected = {
            l.name: full_forward_score(oracle, l.name, batch, cfg)
            for l in oracle.prunable_layers()
        }
        assert scores.entries == expected
        # the loss evaluations are counted as before: 2*L*K*noises
        assert model.forward_count == oracle.forward_count
        # standalone calls compute their own prefix input
        for name, value in expected.items():
            assert zo_layer_score(model, name, batch, cfg) == value

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_suffix_forward_equals_full_forward(self, case):
        model, batch = ORACLE_CASES[case]()
        full = per_sample_losses(model, batch)
        h = batch_input_matrix(model, batch)[0]
        for i, layer in enumerate(model.layers()):
            suffix = per_sample_losses(model, batch, start=i, layer_input=h)
            assert suffix.tobytes() == full.tobytes(), i
            h = layer_forward(layer, h)
        loss_only = per_sample_losses(model, batch, start=len(model.layers()), layer_input=h)
        assert loss_only.tobytes() == full.tobytes()

    def test_suffix_forward_arguments_checked(self):
        model, batch = _gelu_mlp()
        h = batch_input_matrix(model, batch)[0]
        with pytest.raises(InputError):
            per_sample_losses(model, batch, start=1)
        with pytest.raises(InputError):
            per_sample_losses(model, batch, start=4, layer_input=h)
        with pytest.raises(InputError):
            per_sample_losses(model, batch, start=-1, layer_input=h)
        # start == len(layers) runs no layer: the loss of the given output
        out = clean_input(model, batch, 3)
        held = out.copy()
        loss = per_sample_losses(model, batch, start=3, layer_input=out)
        assert loss.tobytes() == per_sample_losses(model, batch).tobytes()
        assert out.tobytes() == held.tobytes()


def preact_shift_losses(model, batch, layer, shift):
    """(plus, minus) per-sample losses, each from a full forward that adds
    +shift or -shift to the layer's pre-activation."""
    preact = model_module.layer_preact
    pair = []
    for sign in (1.0, -1.0):
        def shifted(l, x, sign=sign):
            pre = preact(l, x)
            if l is layer:
                pre += sign * shift
            return pre

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "layer_preact", shifted)
            pair.append(per_sample_losses(model, batch))
    return pair


def clean_input(model, batch, index):
    h = batch_input_matrix(model, batch)[0]
    for layer in model.layers()[:index]:
        h = layer_forward(layer, h)
    return h


def preact_shift_score(model, layer_name, batch, cfg):
    """Reference output-space score: per noise, full forwards that add
    +-eps*(L_ref g) to the layer's pre-activation, L_ref =
    np.linalg.cholesky(h h^T) for the layer's clean input h and g the
    [N, d_out] draw of the noise's key."""
    layer, index = model.layer(layer_name), model.layer_index(layer_name)
    h = clean_input(model, batch, index)
    factor = np.linalg.cholesky(h @ h.T)
    per_noise = []
    for j in range(cfg.noises_per_sample):
        g = zograd._generator(noise_seed(cfg.seed, index, j)).standard_normal((len(h), layer.d_out))
        lp, lm = preact_shift_losses(model, batch, layer, cfg.epsilon * (factor @ g))
        per_noise.append(np.abs((lp - lm) / (2.0 * cfg.epsilon)))
    return float(np.mean(np.mean(per_noise, axis=0)))


class TestOutputSpace:
    """A layer scored in output space, the last one included, matches a full
    forward that adds the same noise to its pre-activation, within rounding.

    The legs round act(pre0 +- eps*L g) with the package's factor L, where
    the reference rounds act(pre0 +- eps*(L_ref g)) with LAPACK's, so the
    losses differ in their last bits and the scores by at most 3e-14
    relative on these cases.  A score is judged equal when
    |got - want| <= RTOL*|want| + ATOL*max|loss|/(2*eps): RTOL = 1e-9 is
    far above that rounding and far below any real difference in score,
    and the ATOL term judges a score at rounding-noise level (a loss
    difference of a few ulps, e.g. L0 of wide_flat) by the size of the
    losses, not by its own size."""

    RTOL, ATOL = 1e-9, 1e-12

    @pytest.mark.parametrize("noises", [1, 3])
    @pytest.mark.parametrize("case", sorted(WIDE_CASES))
    def test_scores_match_full_forward_oracle(self, case, noises, monkeypatch):
        model, batch = WIDE_CASES[case]()
        oracle = model.copy()
        cfg = ZOConfig(epsilon=1e-3, noises_per_sample=noises, seed=11)
        before = array_bytes(model)
        cycled = []

        def spy(graph, layer_name, *args, **kwargs):
            cycled.append(layer_name)
            return perturb_replay(graph, layer_name, *args, **kwargs)

        monkeypatch.setattr(zograd, "perturb_replay", spy)
        scores = zo_all_scores(model, batch, cfg)
        # every layer, the last one too, is scored in output space: no weight
        # is cycled or written
        assert cycled == []
        assert array_bytes(model) == before
        loss_scale = np.abs(per_sample_losses(oracle, batch)).max()
        oracle.forward_count = 0
        for name, got in scores.entries.items():
            want = preact_shift_score(oracle, name, batch, cfg)
            tol = self.RTOL * abs(want) + self.ATOL * loss_scale / (2.0 * cfg.epsilon)
            assert abs(got - want) <= tol, (name, got, want)
            # standalone calls compute the same prefix input
            assert zo_layer_score(model, name, batch, cfg) == got
        # 2*K loss evaluations per noise and layer, as the oracle's
        assert model.forward_count == 2 * oracle.forward_count
        assert oracle.forward_count == 2 * batch.count * noises * len(scores.entries)

    def test_noise_is_one_draw_per_key(self, monkeypatch):
        model, batch = _wide_bias()
        cfg = ZOConfig(noises_per_sample=3, seed=4)
        generator, drawn = zograd._generator, []

        class Recording:
            def __init__(self, key):
                self.key, self.gen = key, generator(key)

            def standard_normal(self, *args, **kwargs):
                g = self.gen.standard_normal(*args, **kwargs)
                drawn.append((self.key, g.copy()))
                return g

        monkeypatch.setattr(zograd, "_generator", Recording)
        zo_layer_score(model, "L0", batch, cfg)
        assert [key for key, _ in drawn] == [noise_seed(4, 0, j) for j in range(3)]
        for key, g in drawn:
            want = generator(key).standard_normal((batch.count, 512))
            assert g.shape == want.shape and g.tobytes() == want.tobytes()

    def test_all_scores_let_go_of_the_clean_input(self, monkeypatch):
        # 16-64-64-8, K = 8: L0 (64 x 16) is scored in weight space, L1
        # (64 x 64) and the last layer L2 (8 x 64) in output space.  The
        # clean inputs of L1 and L2, formed by zo_all_scores, are dead once
        # their legs run: they read pre0 and L alone.  L0's clean input is
        # the batch's own array, which it keeps.
        rng = np.random.default_rng(33)
        model = random_mlp(rng, [16, 64, 64, 8])
        batch = random_batch(rng, 8, 16, 8)
        cfg = ZOConfig(noises_per_sample=2, seed=5)
        inputs, alive_in_legs = {}, []
        preact, losses = zograd.layer_preact, zograd.per_sample_losses

        def spy_preact(layer, h):
            inputs[layer.name] = weakref.ref(h)
            return preact(layer, h)

        def spy_losses(graph, b, start=0, layer_input=None):
            if start:  # a leg of L1 (from L2), then of L2 (the loss alone)
                scored = model.layers()[start - 1].name
                alive_in_legs.append((scored, inputs[scored]() is not None))
            return losses(graph, b, start, layer_input)

        monkeypatch.setattr(zograd, "layer_preact", spy_preact)
        monkeypatch.setattr(zograd, "per_sample_losses", spy_losses)
        handoff = []
        scores = zo_all_scores(model, batch, cfg, _handoff=handoff)
        monkeypatch.undo()
        # two legs per noise and layer
        assert alive_in_legs == [("L1", False)] * 4 + [("L2", False)] * 4
        assert set(inputs) == {"L1", "L2"}  # L0 stayed in weight space
        assert scores.entries == zo_all_scores(model, batch, cfg).entries
        # the pass hands over the model's clean output, past the last layer
        (out, at), = handoff
        assert at == 3
        assert out.tobytes() == clean_input(model, batch, 3).tobytes()

    @pytest.mark.parametrize("widths", [[4, 6, 3], [128, 512, 16]],
                             ids=["weight-space", "output-space"])
    @pytest.mark.parametrize("fault", ["frozen", "epsilon"])
    def test_refused_before_any_noise_is_drawn(self, widths, fault, monkeypatch):
        rng = np.random.default_rng(32)
        model = random_mlp(rng, widths)
        batch = random_batch(rng, 8, widths[0], widths[-1])
        cfg = ZOConfig(seed=0)
        if fault == "frozen":
            model.layer("L0").frozen = True
        else:
            cfg.epsilon = 0.0  # set after the config's own check
        drawn = []
        monkeypatch.setattr(zograd, "_generator", lambda key: drawn.append(key))
        before = array_bytes(model)
        meter = BufferMeter()
        with pytest.raises(FrozenLayerError if fault == "frozen" else InputError):
            zo_layer_score(model, "L0", batch, cfg, meter)
        assert drawn == []
        assert meter.peak_noise_buffers == 0
        assert array_bytes(model) == before


class TestFactor:
    """The output-space noise's factor: L lower-triangular, L L^T = h h^T."""

    @pytest.mark.parametrize("n, d", [(16, 64), (64, 512), (40, 41)])
    def test_matches_lapack_on_positive_definite(self, n, d):
        h = np.random.default_rng(n).normal(size=(n, d))
        gram = h @ h.T
        want = np.linalg.cholesky(gram)
        # measured 1.3e-15 to 2.7e-15 at n = 40, d = 41 (condition ~2,000),
        # 2e-16 elsewhere
        np.testing.assert_allclose(zograd._cholesky(gram), want,
                                   rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("rows", [[0, 1, 2, 0, 3, 1, 4, 5, 2], list(range(8)) * 8],
                             ids=["three-repeats", "each-eight-times"])
    def test_repeated_samples_factor(self, rows):
        h = np.random.default_rng(3).normal(size=(8, 40))[rows]
        gram, n = h @ h.T, len(rows)
        factor = zograd._cholesky(gram)
        assert np.array_equal(factor, np.tril(factor))
        # each repeated row's pivot is rounding and its column stays zero
        assert (factor == 0).all(axis=0).sum() == n - len(set(rows))
        # measured at most 0.09 * n * eps * |G|
        residual = np.linalg.norm(factor @ factor.T - gram)
        assert residual <= n * np.finfo(float).eps * np.linalg.norm(gram)

    def test_zero_input_gives_zero_factor(self):
        assert not zograd._cholesky(np.zeros((5, 5))).any()


class TestSameLaw:
    def test_factored_noise_scores_like_h_z(self):
        rng = np.random.default_rng(41)
        model = random_mlp(rng, [128, 512, 16])
        batch = random_batch(rng, 8, 128, 16)
        layer, h, eps = model.layer("L0"), clean_input(model, batch, 0), 1e-3

        def score(noise):
            lp, lm = preact_shift_losses(model, batch, layer, eps * noise)
            return float(np.mean(np.abs((lp - lm) / (2.0 * eps))))

        seeds = 400
        new = [zo_layer_score(model, "L0", batch, ZOConfig(epsilon=eps, seed=s))
               for s in range(seeds)]
        # the reference, h z^T with z the [d_out, d_in] draw, uses keys the
        # new scores never do
        keys = [noise_seed(seeds + s, 0, 0) for s in range(seeds)]
        old = [score(h @ _regenerate(k, layer.size).reshape(layer.weight.shape).T) for k in keys]
        # measured p = 0.26 (Welch) and 0.42 (KS) over 400 seeds
        assert stats.ttest_ind(new, old, equal_var=False).pvalue > 0.01
        assert stats.ks_2samp(new, old).pvalue > 0.01
        # the tests can tell a wrong law: g without its factor
        bare = [score(zograd._generator(k).standard_normal((len(h), layer.d_out)))
                for k in keys[:100]]
        assert stats.ks_2samp(bare, old).pvalue < 1e-6  # measured 1e-107


# Scores the 459k-weight MLP's shape, whose three layers, the last one
# included, take output space, in a fresh interpreter: BLAS reads its thread
# count once, at load.  The result is one marked line, so anything else on
# stdout (say, a print from conftest) is skipped; it also holds the largest
# noise, 64 x 512, which a weight-space layer (its d_out*d_in) would exceed.
_THREAD_MARK = "zo-scores:"
_THREAD_PROBE = f"""
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from conftest import random_batch, random_mlp
from coarsefine.zograd import BufferMeter, ZOConfig, zo_all_scores
rng = np.random.default_rng(51)
model = random_mlp(rng, [256, 512, 512, 128])
batch = random_batch(rng, 64, 256, 128)
meter = BufferMeter()
scores = zo_all_scores(model, batch, ZOConfig(noises_per_sample=2, seed=3), meter=meter)
print({_THREAD_MARK!r}, meter.peak_noise_elements,
      " ".join(float.hex(v) for v in scores.entries.values()))
"""


def test_output_space_scores_do_not_depend_on_blas_threads():
    src = str(Path(zograd.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    hexes = []
    for threads in ("1", "2"):
        blas = {var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(Path(__file__).parent)],
            capture_output=True, text=True, env={**env, **blas},
        )
        assert proc.returncode == 0, proc.stderr
        marked = [line.split()[1:] for line in proc.stdout.splitlines()
                  if line.startswith(_THREAD_MARK)]
        assert len(marked) == 1, proc.stdout
        hexes.append(marked[0])
    assert hexes[0][0] == str(64 * 512)  # no layer went to weight space
    assert len(hexes[0]) == 4 and hexes[0] == hexes[1]


class TestRestoreOnEveryExit:
    @pytest.mark.parametrize("widths, name, k", [([4, 6, 3], "L1", 3), ([128, 512, 16], "L0", 8)],
                             ids=["weight-space", "output-space"])
    def test_failed_minus_leg_restores_and_releases(self, widths, name, k, monkeypatch):
        rng = np.random.default_rng(31)
        model = random_mlp(rng, widths)
        batch = random_batch(rng, k, widths[0], widths[-1])
        before = model.layer(name).weight.tobytes()
        legs = []

        def failing_minus_leg(*args, **kwargs):
            legs.append(1)
            if len(legs) == 2:
                raise InputError("injected failure on the minus leg")
            return per_sample_losses(*args, **kwargs)

        monkeypatch.setattr(zograd, "per_sample_losses", failing_minus_leg)
        meter = BufferMeter()
        with pytest.raises(InputError, match="injected"):
            zo_layer_score(model, name, batch, ZOConfig(seed=0), meter)
        layer = model.layer(name)
        assert layer.weight.tobytes() == before
        assert not hasattr(layer, "_perturb_cycle")
        assert meter.peak_noise_buffers == 1
        assert meter.current_extra_elements == 0
        assert meter.current_noise_buffers == 0


class TestDemo:
    def test_demo_restores_bit_exactly(self, capsys):
        demo = Path(__file__).resolve().parent.parent / "demos" / "demo_02_zeroth_order_scores.py"
        runpy.run_path(str(demo), run_name="__main__")
        assert "restored bit-exactly: True" in capsys.readouterr().out
