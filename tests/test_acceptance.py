"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they complete.  The e2e criteria train their fixtures on the fly (a few
minutes total on one core); everything else is property-style and fast.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from coarsefine.allocation import allocate_sparsity, round_half_up, uniform_plan
from coarsefine.baselines import local_score_ratios
from coarsefine.errors import FeasibilityError
from coarsefine.io import save_calibration, save_model
from coarsefine.localprune import (
    sequential_prune,
    sparsegpt_prune_layer,
    wanda_prune_layer,
)
from coarsefine.model import (
    CalibrationSet,
    LayerSpec,
    backprop_gradients,
)
from coarsefine.pipeline import RunConfig, cmd_prune
from coarsefine.scoring import ScoreMap
from coarsefine.tasks import (
    _adam_train,
    build_model,
    get_split,
    inject_scale_imbalance,
    make_task,
)
from coarsefine.evaluation import evaluate
from coarsefine.zograd import BufferMeter, ZOConfig, perturb_replay, zo_all_scores

from conftest import random_batch, random_mlp, tiny_linear_model


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _chain_model(col_sizes, rng=None):
    weights = []
    prev = 1
    for c in col_sizes:
        w = np.ones((c, prev)) if rng is None else rng.normal(size=(c, prev))
        weights.append(w)
        prev = c
    return tiny_linear_model(weights)


def _random_allocation_instance(rng):
    cols = rng.integers(5, 60, size=int(rng.integers(2, 6)))
    model = _chain_model(list(map(int, cols)))
    names = [l.name for l in model.prunable_layers()]
    scores = ScoreMap(
        entries={n: float(rng.uniform(0, 10)) for n in names}, method="magnitude"
    )
    if sum(scores.entries.values()) == 0:
        scores.entries[names[0]] = 1.0
    p = float(rng.uniform(0.0, 0.95))
    p_max = float(min(1.0, p + rng.uniform(0.05, 1.0 - p) + 1e-9))
    return model, scores, p, p_max


@pytest.fixture(scope="module")
def trained_fixtures():
    """Per-seed trained char_lm and two_tower models for the e2e criteria."""
    t0 = time.perf_counter()
    out = {"char_lm": {}, "two_tower_fusion": {}}
    epochs = {"char_lm": 200, "two_tower_fusion": 600}
    for kind in out:
        for seed in range(10):
            task = make_task(kind, seed=seed)
            model = build_model(task)
            _adam_train(model, get_split(task, "train"), 0.02, epochs[kind])
            out[kind][seed] = (task, model)
    out["train_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_01_allocation_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1000:
        model, scores, p, p_max = _random_allocation_instance(rng)
        try:
            plan = allocate_sparsity(scores, model, p, p_max)
        except FeasibilityError:
            continue
        n_total = model.num_prunable_weights()
        assert plan.keep_total() == round_half_up((1 - p) * n_total)
        for name, a in plan.per_layer.items():
            size = model.layer(name).size
            assert a.keep_count >= math.ceil((1 - p_max) * size)  # p_i <= p_max
            assert a.keep_count <= size
        checked += 1

    model = tiny_linear_model([np.ones((100, 1)), np.ones((1, 100))])
    s = ScoreMap(entries={"L0": 3.0, "L1": 1.0}, method="magnitude")
    open_plan = allocate_sparsity(s, model, 0.5, 1.0)
    assert (open_plan.per_layer["L0"].keep_count,
            open_plan.per_layer["L1"].keep_count) == (75, 25)
    capped_plan = allocate_sparsity(s, model, 0.5, 0.6)
    assert (capped_plan.per_layer["L0"].keep_count,
            capped_plan.per_layer["L1"].keep_count) == (55, 45)
    elapsed = time.perf_counter() - t0
    _report(1, "allocation exactness", elapsed < 5.0,
            f"1000 instances + worked examples in {elapsed:.2f}s")


def test_criterion_02_scale_invariance():
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 100:
        model, scores, p, p_max = _random_allocation_instance(rng)
        try:
            base = allocate_sparsity(scores, model, p, p_max)
        except FeasibilityError:
            continue
        for c in (1e-6, 1.0, 1e6):
            scaled = ScoreMap(
                entries={k: c * v for k, v in scores.entries.items()},
                method=scores.method,
            )
            assert allocate_sparsity(scaled, model, p, p_max) == base, (c, checked)
        checked += 1
    _report(2, "coarse-step scale invariance", True,
            "100 instances x c in {1e-6, 1, 1e6} bit-exact")


def test_criterion_03_zeroth_order_fidelity():
    t0 = time.perf_counter()
    # (a) half-normal mean on a quadratic loss with known gradient
    rng = np.random.default_rng(303)
    model = tiny_linear_model([rng.normal(size=(2, 4))])
    batch = CalibrationSet([(rng.normal(size=4), rng.normal(size=2))])
    g = backprop_gradients(model, batch)["L0"]
    expected = np.sqrt(2.0 / np.pi) * np.linalg.norm(g)
    from coarsefine.zograd import zo_layer_score

    est = zo_layer_score(model, "L0", batch,
                         ZOConfig(epsilon=1e-3, noises_per_sample=10_000, seed=0))
    rel = abs(est - expected) / expected
    assert rel < 0.05, f"half-normal relative error {rel:.4f}"

    # (b) 3-layer MLP ranking vs true backprop gradient norms
    mlp = random_mlp(np.random.default_rng(304), [6, 8, 8, 4], activation="relu")
    mlp.layer("L0").weight *= 0.25   # separate the gradient norms
    mlp.layer("L2").weight *= 2.0
    mlp_batch = random_batch(np.random.default_rng(305), 4, 6, 4)
    grads = backprop_gradients(mlp, mlp_batch)
    names = [l.name for l in mlp.prunable_layers()]
    true_norms = [float(np.linalg.norm(grads[n])) for n in names]
    scores = zo_all_scores(mlp, mlp_batch, ZOConfig(seed=7, noises_per_sample=256))
    est_scores = [scores.entries[n] for n in names]
    rho = stats.spearmanr(true_norms, est_scores).statistic
    elapsed = time.perf_counter() - t0
    _report(3, "zeroth-order estimator fidelity",
            rho >= 0.8 and elapsed < 60.0,
            f"half-normal rel err {rel:.3f}, spearman {rho:.2f}, {elapsed:.1f}s")


def test_criterion_04_seed_replay_round_trip():
    rng = np.random.default_rng(404)
    for trial in range(100):
        rows = int(rng.integers(1, 10))
        cols = int(rng.integers(1, 12))
        scale = 10.0 ** rng.integers(-6, 4)
        model = tiny_linear_model([scale * rng.normal(size=(rows, cols))])
        before = model.layer("L0").weight.tobytes()
        seed = int(rng.integers(0, 2**32))
        eps = 10.0 ** rng.integers(-4, 0)
        perturb_replay(model, "L0", seed, eps, 1)
        perturb_replay(model, "L0", seed, eps, -1)
        perturb_replay(model, "L0", seed, eps, "restore")
        assert model.layer("L0").weight.tobytes() == before, f"trial {trial}"
    _report(4, "seed-replay bit-exact round trip", True, "100 layers and seeds")


def test_criterion_05_obs_oracle_equivalence():
    rng = np.random.default_rng(505)
    competitive = 0
    trials = 200
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        acts = rng.normal(size=(2 * d + 4, d))
        gram = acts.T @ acts
        w = rng.normal(size=(1, d))
        layer = LayerSpec("L", "linear", w.copy())
        mask, new_w = sparsegpt_prune_layer(layer, acts, keep_count=d - 1, lam=0.0)

        keep_idx = list(np.flatnonzero(mask[0]))
        refit = np.zeros(d)
        sub = gram[np.ix_(keep_idx, keep_idx)]
        refit[keep_idx] = np.linalg.solve(sub, gram[keep_idx] @ w[0])
        assert np.abs(new_w[0] - refit).max() < 1e-8

        errors = []
        for drop in range(d):
            keep = [j for j in range(d) if j != drop]
            refit_k = np.zeros(d)
            refit_k[keep] = np.linalg.solve(
                gram[np.ix_(keep, keep)], gram[keep] @ w[0]
            )
            delta = refit_k - w[0]
            errors.append(float(delta @ gram @ delta))
        chosen = errors[int(np.flatnonzero(~mask[0])[0])]
        threshold = sorted(errors)[max(0, math.ceil(0.25 * d) - 1)]
        competitive += chosen <= threshold + 1e-12
    rate = competitive / trials
    _report(5, "OBS oracle equivalence", rate >= 0.95,
            f"survivors==LS refit @1e-8; mask in best 25% in {rate:.0%} of trials")


def test_criterion_06_wanda_reduction():
    rng = np.random.default_rng(606)
    for trial in range(100):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(2, 12))
        w = rng.normal(size=(rows, cols))
        layer = LayerSpec("L", "linear", w)
        acts = np.full((5, cols), rng.uniform(0.1, 2.0))  # equal column norms
        keep = int(rng.integers(0, w.size + 1))
        mask = wanda_prune_layer(layer, acts, keep, norm_exponent=1)
        base, rem = divmod(keep, rows)
        for r in range(rows):
            k_r = base + (1 if r < rem else 0)
            order = np.argsort(-np.abs(w[r]), kind="stable")
            expected = np.zeros(cols, dtype=bool)
            expected[order[:k_r]] = True
            assert np.array_equal(mask[r], expected), f"trial {trial} row {r}"
    _report(6, "wanda reduces to magnitude under equal norms", True,
            "100 random layers, exact mask equality")


def test_criterion_07_adaptive_beats_uniform_at_high_sparsity(trained_fixtures):
    t0 = time.perf_counter()
    details = []
    ok = True
    for kind in ("char_lm", "two_tower_fusion"):
        wins = 0
        gaps = {0.3: [], 0.6: []}
        for seed in range(10):
            task, model = trained_fixtures[kind][seed]
            calib = get_split(task, "calib")
            scores = zo_all_scores(model, calib, ZOConfig(seed=seed))
            for p, p_max in ((0.6, 0.7), (0.3, 0.4)):
                plan = allocate_sparsity(scores, model, p, p_max, "block")
                ada_model, _, _ = sequential_prune(model, plan, calib, "wanda")
                ada = evaluate(ada_model, task, "val").loss
                uni_model, _, _ = sequential_prune(
                    model, uniform_plan(model, p), calib, "wanda"
                )
                uni = evaluate(uni_model, task, "val").loss
                gaps[p].append(uni - ada)
                if p == 0.6:
                    wins += ada <= uni
        gap_hi, gap_lo = np.mean(gaps[0.6]), np.mean(gaps[0.3])
        kind_ok = wins >= 7 and gap_hi > gap_lo
        ok = ok and kind_ok
        details.append(f"{kind}: {wins}/10 wins, gap 0.6={gap_hi:.4f} > 0.3={gap_lo:.4f}")
    elapsed = time.perf_counter() - t0 + trained_fixtures["train_seconds"]
    ok = ok and elapsed < 600.0
    _report(7, "adaptive vs uniform trend", ok,
            "; ".join(details) + f"; {elapsed:.0f}s incl. training")


def test_criterion_08_layer_collapse_demonstration():
    model = tiny_linear_model([np.ones((100, 1)), np.ones((1, 100))])
    scores = ScoreMap(entries={"L0": 1e9, "L1": 1e-9}, method="magnitude")
    p = 0.5
    collapsed = allocate_sparsity(scores, model, p, 1.0)
    keeps = {n: a.keep_count for n, a in collapsed.per_layer.items()}
    assert min(keeps.values()) == 0, "expected a fully-zeroed layer at p_max=1"
    guarded = allocate_sparsity(scores, model, p, p + 0.1)
    keeps_g = {n: a.keep_count for n, a in guarded.per_layer.items()}
    assert min(keeps_g.values()) > 0, "cap must prevent the collapse"
    _report(8, "layer collapse without the cap", True,
            f"p_max=1 keeps {keeps}, p_max=p+0.1 keeps {keeps_g}")


def test_criterion_09_local_scores_underperform(trained_fixtures):
    wins = 0
    for seed in range(10):
        task, model = trained_fixtures["two_tower_fusion"][seed]
        skewed = model.copy()
        inject_scale_imbalance(skewed, "tower_a.fc1", "tower_a.fc2", 100.0)
        calib = get_split(task, "calib")
        plan_local = local_score_ratios(skewed, calib, 0.5, "wanda")
        local_model, _, _ = sequential_prune(skewed, plan_local, calib, "wanda")
        local_loss = evaluate(local_model, task, "val").loss
        uni_model, _, _ = sequential_prune(
            skewed, uniform_plan(skewed, 0.5), calib, "wanda"
        )
        uni_loss = evaluate(uni_model, task, "val").loss
        wins += local_loss >= uni_loss
    _report(9, "local-score ratios underperform uniform", wins >= 7,
            f"{wins}/10 seeds")


def test_criterion_10_memory_and_forward_counts():
    rng = np.random.default_rng(1010)
    model = random_mlp(rng, [6, 10, 8, 4])
    k, noises = 8, 2
    batch = random_batch(rng, k, 6, 4)
    meter = BufferMeter()
    model.forward_count = 0
    zo_all_scores(model, batch, ZOConfig(seed=0, noises_per_sample=noises), meter=meter)
    layers = len(model.prunable_layers())
    biggest = max(l.size for l in model.prunable_layers())
    forwards_ok = model.forward_count == 2 * layers * k * noises
    memory_ok = (
        meter.peak_noise_buffers == 1
        and meter.peak_noise_elements <= biggest
        and meter.current_extra_elements == 0
    )
    _report(10, "memory contract and forward counts",
            forwards_ok and memory_ok,
            f"forwards={model.forward_count}=2*{layers}*{k}*{noises}, "
            f"peak noise buffers={meter.peak_noise_buffers}")


def test_criterion_11_end_to_end_determinism(tmp_path):
    task = make_task("char_lm", seed=0)
    model = build_model(task)
    _adam_train(model, get_split(task, "train"), 0.02, 200)
    save_model(model, tmp_path / "model")
    save_calibration(get_split(task, "calib"), tmp_path / "calib.json")
    config = RunConfig(
        model_dir=str(tmp_path / "model"),
        calib_path=str(tmp_path / "calib.json"),
        out_dir=str(tmp_path / "out"),
        sparsity=0.5,
        coarse="zeroth",
        fine="wanda",
        samples=32,
        seed=42,
    )
    cmd_prune(config)
    out = tmp_path / "out"
    files = [p for p in sorted(out.rglob("*"))
             if p.is_file() and p.name != "timing.json"]
    snapshot = {p: p.read_bytes() for p in files}
    cmd_prune(config)
    for p, before in snapshot.items():
        assert p.read_bytes() == before, f"{p} changed between identical runs"
    achieved = float(
        __import__("json").loads((out / "report.json").read_text())["achieved"][
            "global_sparsity"
        ]
    )
    _report(11, "end-to-end determinism", True,
            f"{len(snapshot)} files byte-identical; achieved sparsity {achieved}")
