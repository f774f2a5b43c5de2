"""Command-line pipeline: determinism, exit codes, config echo, formats."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coarsefine
from coarsefine.cli import _build_config, build_parser, main
from coarsefine.errors import InputError, ModelFormatError, NumericalError, UsageError
from coarsefine.evaluation import evaluate_on_batch
from coarsefine.io import (
    load_calibration, load_masks, load_model, save_calibration, save_masks, save_model,
)
from coarsefine.localprune import FINE_METHODS
from coarsefine.model import CalibrationSet
from coarsefine.pipeline import (
    COARSE_MODES, MAX_NOISES, RunConfig, _load_inputs, cmd_compare, cmd_eval, cmd_prune,
    cmd_score, compute_scores,
)
from coarsefine.scoring import ScoreMap
from coarsefine.tasks import build_model, get_split, make_task, train_reference

from conftest import random_batch, random_mlp, tiny_linear_model, traced, write_aliased_model


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A trained regression model directory plus a calibration file."""
    root = tmp_path_factory.mktemp("fixture")
    task = make_task("synthetic_regression", seed=0)
    model = train_reference(task)
    save_model(model, root / "model")
    save_calibration(get_split(task, "calib"), root / "calib.json")
    return root


@pytest.fixture(scope="module")
def three_layer_dir(tmp_path_factory):
    """Hand-built 3-layer model with a 32-sample calibration file."""
    root = tmp_path_factory.mktemp("three")
    rng = np.random.default_rng(0)
    model = random_mlp(rng, [6, 8, 8, 4])
    save_model(model, root / "model")
    save_calibration(random_batch(rng, 32, 6, 4), root / "calib.json")
    return root


def run_config(root, out, **kw):
    defaults = dict(
        model_dir=str(root / "model"),
        calib_path=str(root / "calib.json"),
        out_dir=str(out),
        sparsity=0.5,
        samples=16,
        seed=42,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestCmdScore:
    def test_magnitude_mode_needs_no_forwards(self, fixture_dir, tmp_path):
        summary = cmd_score(run_config(fixture_dir, tmp_path, coarse="magnitude"))
        assert summary["forward_passes"] == 0

    def test_zeroth_mode_forward_count(self, three_layer_dir, tmp_path):
        summary = cmd_score(
            run_config(three_layer_dir, tmp_path, coarse="zeroth", samples=32)
        )
        assert summary["forward_passes"] == 2 * 3 * 32 * 1

    def test_first_mode_matches_library_scores(self, fixture_dir, tmp_path):
        from coarsefine.scoring import aggregate_to_layers, first_order_saliency

        config = run_config(fixture_dir, tmp_path, coarse="first")
        cmd_score(config)
        saved = ScoreMap.load(Path(config.out_dir) / "scores.json")
        model = load_model(config.model_dir)
        calib = load_calibration(config.calib_path)
        batch = CalibrationSet.stacked(calib.xs[: config.samples], calib.ys[: config.samples])
        expected = aggregate_to_layers(
            first_order_saliency(model, batch), "sum", "first_order"
        )
        assert saved.entries == expected.entries

    def test_unknown_coarse_mode_is_input_error(self):
        # a library caller may skip RunConfig.validate, so the check is compute_scores' own
        rng = np.random.default_rng(0)
        with pytest.raises(InputError, match=re.escape(f"{COARSE_MODES}, got 'bogus'")):
            compute_scores(RunConfig(coarse="bogus"), random_mlp(rng, [3, 2]),
                           random_batch(rng, 2, 3, 2))

    def test_score_file_schema(self, fixture_dir, tmp_path):
        config = run_config(fixture_dir, tmp_path, coarse="zeroth")
        cmd_score(config)
        obj = json.loads((Path(config.out_dir) / "scores.json").read_text())
        assert set(obj) == {"method", "aggregation", "seed", "sample_count", "entries"}


class TestCmdPrune:
    def test_zero_sparsity_is_identity(self, fixture_dir, tmp_path):
        config = run_config(fixture_dir, tmp_path, sparsity=0.0, coarse="magnitude")
        report = cmd_prune(config)
        assert report.achieved["global_sparsity"] == 0.0
        orig = load_model(fixture_dir / "model")
        pruned = load_model(Path(config.out_dir) / "pruned_model")
        for layer in orig.layers():
            assert pruned.layer(layer.name).weight.tobytes() == layer.weight.tobytes()

    def test_uniform_coarse_equals_uniform_baseline_masks(self, fixture_dir, tmp_path):
        from coarsefine.baselines import uniform_layerwise_prune

        config = run_config(fixture_dir, tmp_path, coarse="uniform", fine="wanda")
        cmd_prune(config)
        masks = load_masks(Path(config.out_dir) / "masks")
        model = load_model(fixture_dir / "model")
        calib = load_calibration(fixture_dir / "calib.json")
        batch = CalibrationSet.stacked(calib.xs[:16], calib.ys[:16])
        _, expected, _ = uniform_layerwise_prune(model, batch, 0.5, "wanda")
        for name in expected:
            np.testing.assert_array_equal(masks[name], expected[name])

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        # identical config (same out_dir): run, snapshot, run again, compare
        out = tmp_path / "run"
        cmd_prune(run_config(fixture_dir, out, coarse="zeroth", fine="sparsegpt"))
        files = [p for p in sorted(out.rglob("*"))
                 if p.is_file() and p.name != "timing.json"]
        snapshot = {p: p.read_bytes() for p in files}
        cmd_prune(run_config(fixture_dir, out, coarse="zeroth", fine="sparsegpt"))
        for p, before in snapshot.items():
            assert p.read_bytes() == before, p

    def test_classification_report_counts_one_forward_per_evaluation(self, tmp_path):
        rng = np.random.default_rng(6)
        save_model(random_mlp(rng, [6, 8, 3], head="cross_entropy"), tmp_path / "model")
        k = 12
        batch = CalibrationSet([(rng.normal(size=6), np.float64(i % 3)) for i in range(k)])
        save_calibration(batch, tmp_path / "calib.json")
        report = cmd_prune(run_config(tmp_path, tmp_path / "out", coarse="magnitude", samples=k))
        assert report.forward_passes["evaluation"] == 2 * k  # dense plus pruned

    def test_config_echo_includes_defaults(self, fixture_dir, tmp_path):
        config = run_config(fixture_dir, tmp_path)
        report = cmd_prune(config)
        echoed = json.loads((Path(config.out_dir) / "report.json").read_text())["config"]
        assert echoed["max_sparsity"] == pytest.approx(0.6)  # default p + 0.1
        assert echoed["noises"] == 1
        assert echoed["epsilon"] == 1e-3
        assert echoed["granularity"] == "block"
        assert echoed["samples"] == 16
        assert echoed["seed"] == 42

    def test_achieved_sparsity_matches_plan(self, fixture_dir, tmp_path):
        config = run_config(fixture_dir, tmp_path)
        report = cmd_prune(config)
        assert (
            sum(v["zeros"] for v in report.achieved["per_layer"].values())
            == sum(a.size - a.keep_count for a in report.plan.per_layer.values())
        )

    def test_eval_matches_disk_model(self, fixture_dir, tmp_path):
        # metrics in the report are those of the reloaded float32 model
        config = run_config(fixture_dir, tmp_path)
        report = cmd_prune(config)
        reloaded = load_model(Path(config.out_dir) / "pruned_model")
        calib = load_calibration(fixture_dir / "calib.json")
        batch = CalibrationSet.stacked(calib.xs[:16], calib.ys[:16])
        again = evaluate_on_batch(reloaded, batch)
        assert again.loss == report.eval_pruned.loss

    def test_report_is_self_contained(self, fixture_dir, tmp_path):
        # a report plus the model directory reproduces the run bit-exactly:
        # rebuild the config from the report's echo and rerun
        config = run_config(fixture_dir, tmp_path / "out", coarse="zeroth")
        cmd_prune(config)
        report_path = tmp_path / "out" / "report.json"
        before = report_path.read_bytes()
        echoed = json.loads(before)["config"]
        cmd_prune(RunConfig.from_json(echoed))
        assert report_path.read_bytes() == before


def _biased_mlp(root, frozen):
    """[32, 64, 64, 8] with biases and one frozen layer, K = 8: every
    prunable layer, the last one too, is scored in output space."""
    rng = np.random.default_rng(7)
    model = random_mlp(rng, [32, 64, 64, 8])
    for layer in model.layers():
        layer.bias = rng.normal(size=layer.d_out)
    if frozen:
        model.layer(frozen).frozen = True
    save_model(model, root / "model")
    save_calibration(random_batch(rng, 8, 32, 8), root / "calib.json")
    return root


@pytest.fixture(scope="module", params=["frozen middle", "frozen last", "char_lm"])
def eval_case(request, tmp_path_factory):
    """The biased MLP with its middle or last layer frozen, or char_lm (8 samples)."""
    root = tmp_path_factory.mktemp("eval")
    if request.param == "char_lm":  # every layer in weight space: N = 8 * 16 rows
        task = make_task("char_lm", seed=0)
        save_model(build_model(task), root / "model")
        save_calibration(get_split(task, "calib"), root / "calib.json")
        return root
    return _biased_mlp(root, {"frozen middle": "L1", "frozen last": "L2"}[request.param])


class TestDenseEvaluation:
    """Zeroth-order scoring is the run's dense forward: the dense evaluation
    runs on from the clean activation it formed, and reports what a fresh
    dense evaluation of the input model does."""

    @pytest.mark.parametrize("coarse", COARSE_MODES)
    def test_equals_a_fresh_dense_evaluation(self, eval_case, tmp_path, coarse):
        config = run_config(eval_case, tmp_path, coarse=coarse, samples=8)
        report = cmd_prune(config)
        model, batch = _load_inputs(config)
        fresh = evaluate_on_batch(model, batch, task="calibration", split="calib")
        assert report.eval_dense == fresh
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["eval_dense"] == json.loads(json.dumps(fresh.to_json()))
        dense_forwards = model.forward_count
        scores, scoring_forwards = compute_scores(config, model, batch)
        assert scores.entries == report.score_map.entries
        passes = report.forward_passes
        assert passes["scoring"] == scoring_forwards
        assert passes["evaluation"] == 2 * dense_forwards == 2 * batch.count
        assert passes["total"] == passes["scoring"] + passes["pruning"] + passes["evaluation"]

    def test_zeroth_wanda_prune_runs_no_forward_from_layer_0(self, tmp_path, monkeypatch):
        # no layer is scored in weight space, so no leg starts at layer 0:
        # the legs start past their layer, and the dense and the pruned
        # evaluation past the last one, from the output of the zeroth-order
        # pass and of the fine pass
        import coarsefine.evaluation as evaluation_module
        import coarsefine.model as model_module

        root = _biased_mlp(tmp_path, frozen=None)
        run_forward, starts = model_module.run_forward, []

        def spy(graph, batch, start=0, *args, **kwargs):
            starts.append(start)
            return run_forward(graph, batch, start, *args, **kwargs)

        monkeypatch.setattr(model_module, "run_forward", spy)
        monkeypatch.setattr(evaluation_module, "run_forward", spy)
        report = cmd_prune(run_config(root, tmp_path / "out", coarse="zeroth", samples=8))
        assert starts == [1, 1, 2, 2, 3, 3, 3, 3]
        assert report.forward_passes == {"scoring": 48, "pruning": 8, "evaluation": 16,
                                         "total": 72}


class TestPrunedEvaluation:
    """Wanda and magnitude hand the fine pass's output to the pruned
    evaluation; sparsegpt's evaluation reads the reload.  Either way the
    report holds what a fresh evaluation of the saved model and masks does."""

    @pytest.mark.parametrize("fine", FINE_METHODS)
    def test_equals_a_fresh_evaluation_of_the_saved_model(self, eval_case, tmp_path, fine):
        config = run_config(eval_case, tmp_path, coarse="magnitude", fine=fine, samples=8)
        report = cmd_prune(config)
        _, batch = _load_inputs(config)
        saved = load_model(tmp_path / "pruned_model")
        fresh = evaluate_on_batch(saved, batch, masks=load_masks(tmp_path / "masks"),
                                  reconstruction=report.eval_pruned.reconstruction,
                                  task="calibration", split="calib")
        assert report.eval_pruned == fresh
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["eval_pruned"] == json.loads(json.dumps(fresh.to_json()))
        passes = report.forward_passes
        assert passes["pruning"] == saved.forward_count == batch.count
        assert passes["evaluation"] == 2 * batch.count  # the dense and the pruned evaluation
        assert passes["total"] == passes["scoring"] + passes["pruning"] + passes["evaluation"]

    @pytest.mark.parametrize("fine, reloads", [("wanda", 0), ("magnitude", 0),
                                               ("sparsegpt", 1)])
    def test_only_sparsegpt_reloads_the_pruned_model(self, tmp_path, monkeypatch, fine,
                                                     reloads):
        import coarsefine.io as cfio

        root = _biased_mlp(tmp_path, frozen="L1")
        load_model, loaded = cfio.load_model, []

        def spy(directory):
            loaded.append(Path(directory).name)
            return load_model(directory)

        monkeypatch.setattr(cfio, "load_model", spy)
        cmd_prune(run_config(root, tmp_path / "out", fine=fine, samples=8))
        assert loaded == ["model"] + ["pruned_model"] * reloads


class TestLibraryRequiredPaths:
    # RunConfig().out_dir is "": a library run without one used to clear
    # and write the run files in the working directory
    @pytest.mark.parametrize("command", [cmd_prune, cmd_score])
    def test_missing_out_dir_raises_before_touching_cwd(
        self, fixture_dir, tmp_path, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "report.json").write_text("sentinel")
        config = RunConfig(model_dir=str(fixture_dir / "model"),
                           calib_path=str(fixture_dir / "calib.json"), coarse="magnitude")
        with pytest.raises(UsageError, match="--out"):
            command(config)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert (tmp_path / "report.json").read_text() == "sentinel"

    @pytest.mark.parametrize("field,flag", [("model_dir", "--model-dir"),
                                            ("calib_path", "--calib")])
    def test_missing_input_path_names_its_flag(self, fixture_dir, tmp_path, field, flag):
        config = run_config(fixture_dir, tmp_path / "out", **{field: ""})
        with pytest.raises(UsageError, match=flag):
            cmd_prune(config)
        assert not (tmp_path / "out").exists()


def traced_prune_peak(config) -> int:
    """tracemalloc peak of one cmd_prune call.  gelu loads scipy on its
    first call; that import is not the prune's memory, so it happens
    before tracing starts."""
    import scipy.special  # noqa: F401

    return traced(cmd_prune, config)[1][1]


class TestPeakMemory:
    # bounds in float64 weight bytes.  A 256-512-512-128 GELU MLP (458,752
    # weights), wanda, K=64: with zeroth-order scores it is 1.38x, the
    # fine pass's reconstruction GEMM on body.fc2, which holds the layer's
    # input, its error and its pruned pre-activation.  The finite check on
    # body.fc2's new weight peaked at the same 1.38x until it went
    # blockwise, once gelu, the float32 writes and wanda's top-k held one
    # bounded block and an output-space layer dropped its clean input
    # (1.48x before, when the save's float32 copy of the largest layer
    # was the peak; 1.48x too while the hidden layers' output-space cycles
    # held two pre-activations and a 32,768-element block of weight-shaped
    # noise;
    # 1.85x while every cycle held a layer-sized perturbed weight; 2.42x
    # when it also held the noise apart from that weight); with uniform
    # scores it is the fine pass, which prunes each layer in its own array
    # (1.38x; 1.47x before).  A 64-128-128-32 GELU MLP (28,672 weights),
    # K=32: with first-order scores and sparsegpt the peak is the last
    # layer's elimination (3.39x); with uniform scores and wanda it is
    # 2.35x (2.92x while gelu held a whole-array phi and the save a
    # float32 copy of a layer; 2.94x when wanda scored the whole layer at
    # once).  A fine pass that pruned each layer into a copy read 1.91x
    # and 3.86x; one that kept every dense layer until it returned read
    # 2.36x and 4.29x.
    @pytest.mark.parametrize("widths, samples, coarse, fine, bound", [
        ((256, 512, 512, 128), 64, "zeroth", "wanda", 1.42),
        ((256, 512, 512, 128), 64, "uniform", "wanda", 1.42),
        ((64, 128, 128, 32), 32, "first", "sparsegpt", 3.55),
        ((64, 128, 128, 32), 32, "uniform", "wanda", 2.45),
    ], ids=["zeroth-wanda", "uniform-wanda", "first-sparsegpt", "small-uniform-wanda"])
    def test_prune_holds_one_extra_model_at_most(self, tmp_path, widths, samples, coarse,
                                                 fine, bound):
        rng = np.random.default_rng(41)
        model = random_mlp(rng, list(widths))
        weight_bytes = 8 * model.num_prunable_weights()
        save_model(model, tmp_path / "model")
        save_calibration(random_batch(rng, samples, widths[0], widths[-1]),
                         tmp_path / "calib.json")
        del model
        config = run_config(tmp_path, tmp_path / "out", samples=samples,
                            coarse=coarse, fine=fine)
        peak = traced_prune_peak(config)
        assert peak < bound * weight_bytes, peak / weight_bytes

    def test_char_lm_prune_holds_few_activations(self, trained_char_lm, tmp_path):
        # zeroth + wanda on the trained char_lm reference with its 32 calib
        # samples; the bound is in bytes of one [K*T, d_hidden] float64
        # activation (32 * 16 * 48 * 8 = 196,608 B).  The peak is the fine
        # pass, 3.43x.  It read 4.43x while forwards added bias and
        # activation into new arrays, squared the reconstruction error into
        # another and exponentiated a copy of the shifted logits.
        task, model = trained_char_lm
        save_model(model, tmp_path / "model")
        calib = get_split(task, "calib")
        save_calibration(calib, tmp_path / "calib.json")
        act_bytes = 8 * calib.count * task.sizes["seq_len"] * task.sizes["d_hidden"]
        config = run_config(tmp_path, tmp_path / "out", samples=calib.count,
                            coarse="zeroth", fine="wanda")
        peak = traced_prune_peak(config)
        assert peak < 3.75 * act_bytes, peak / act_bytes


class TestCmdEval:
    def test_dense_fixture_matches_library_eval(self, tmp_path):
        task = make_task("synthetic_regression", seed=0)
        model = train_reference(task)
        save_model(model, tmp_path / "model")
        from coarsefine.evaluation import evaluate

        expected = evaluate(load_model(tmp_path / "model"), task, "val")
        result = cmd_eval(str(tmp_path / "model"), "synthetic_regression", "val",
                          task_seed=0, out_path=str(tmp_path / "eval.json"))
        assert result.loss == expected.loss
        saved = json.loads((tmp_path / "eval.json").read_text())
        assert saved["loss"] == expected.loss

    def test_unknown_split_errors(self, tmp_path):
        task = make_task("synthetic_regression", seed=0)
        save_model(train_reference(task), tmp_path / "model")
        with pytest.raises(InputError):
            cmd_eval(str(tmp_path / "model"), "synthetic_regression", "nope")

    def test_csv_output_form(self, tmp_path):
        task = make_task("synthetic_regression", seed=0)
        save_model(train_reference(task), tmp_path / "model")
        cmd_eval(str(tmp_path / "model"), "synthetic_regression", "val",
                 out_path=str(tmp_path / "eval.csv"))
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0].startswith("task,split,sample_count,loss")
        assert len(lines) == 2

    @pytest.mark.parametrize("out", [None, "eval.json", "eval.csv"])
    def test_main_prints_one_line_and_writes_out(self, fixture_dir, tmp_path, capsys, out):
        argv = ["eval", "--model-dir", str(fixture_dir / "model"),
                "--task", "synthetic_regression", "--split", "val"]
        assert main(argv + (["--out", str(tmp_path / out)] if out else [])) == 0
        (line,) = capsys.readouterr().out.splitlines()
        from coarsefine.evaluation import evaluate

        expected = evaluate(load_model(fixture_dir / "model"),
                            make_task("synthetic_regression", seed=0), "val")
        assert json.loads(line) == expected.to_json()
        if out == "eval.json":
            assert json.loads((tmp_path / out).read_text()) == expected.to_json()
        elif out == "eval.csv":
            assert (tmp_path / out).read_text().splitlines() == [
                "task,split,sample_count,loss,accuracy,perplexity,global_sparsity",
                f"synthetic_regression,val,{expected.sample_count},{expected.loss:.6g},,,"
                f"{expected.global_sparsity:.6g}",
            ]
        else:
            assert list(tmp_path.iterdir()) == []


class TestCmdCompare:
    def test_two_reports_sorted_by_sparsity(self, fixture_dir, tmp_path):
        paths = []
        for p in (0.5, 0.3):
            out = tmp_path / f"run{p}"
            cmd_prune(run_config(fixture_dir, out, sparsity=p, coarse="magnitude"))
            paths.append(str(out / "report.json"))
        summary = cmd_compare(paths, str(tmp_path / "cmp"))
        rows = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        assert rows[0] == "method,sparsity,metric,value"
        sparsities = [float(r.split(",")[1]) for r in rows[1:]]
        assert sparsities == sorted(sparsities)

    def test_per_layer_table_sums_to_budget(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        report = cmd_prune(run_config(fixture_dir, out, coarse="magnitude"))
        cmd_compare([str(out / "report.json")], str(tmp_path / "cmp"))
        rows = (tmp_path / "cmp" / "per_layer_sparsity.csv").read_text().splitlines()
        keep = sum(int(r.split(",")[4]) for r in rows[1:])
        assert keep == report.plan.n_select

    @pytest.mark.parametrize("kind, metrics", [
        ("synthetic_regression", ["achieved_global_sparsity", "loss"]),
        ("synthetic_classification", ["accuracy", "achieved_global_sparsity", "loss"]),
        ("char_lm", ["achieved_global_sparsity", "loss", "perplexity"]),
    ])
    def test_metric_column_follows_the_head(self, kind, metrics, tmp_path):
        task = make_task(kind, seed=0)
        save_model(build_model(task), tmp_path / "model")
        save_calibration(get_split(task, "calib"), tmp_path / "calib.json")
        report = cmd_prune(run_config(tmp_path, tmp_path / "run", coarse="magnitude"))
        cmd_compare([str(tmp_path / "run" / "report.json")], str(tmp_path / "cmp"))
        rows = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        values = {**report.eval_pruned.to_json(),
                  "achieved_global_sparsity": report.achieved["global_sparsity"]}
        assert rows[1:] == [f"magnitude-wanda,0.5,{m},{values[m]:.6g}" for m in metrics]

    @pytest.mark.parametrize("failure", [
        "directory in the way", "full disk, new --out", "full disk, earlier --out"])
    def test_failed_compare_leaves_neither_csv(
        self, fixture_dir, tmp_path, capsys, monkeypatch, failure
    ):
        # a directory at per_layer_sparsity.csv, or a full disk on writing
        # it, used to leave the run's new comparison.csv behind
        import coarsefine.pipeline as pipeline

        left = {"directory in the way": ["per_layer_sparsity.csv"],
                "full disk, earlier --out": ["NOTES.txt"]}.get(failure)

        report = tmp_path / "run" / "report.json"
        cmd_prune(run_config(fixture_dir, tmp_path / "run", coarse="magnitude"))
        cmp = tmp_path / "cmp"
        if left:
            cmp.mkdir()
            (cmp / "comparison.csv").write_text("an earlier run's")
        if failure == "directory in the way":
            (cmp / "per_layer_sparsity.csv").mkdir()
        elif left:
            (cmp / "NOTES.txt").write_text("mine")
        if failure.startswith("full disk"):
            write_csv = pipeline.write_csv

            def full_disk(rows, path):
                if Path(path).name == "per_layer_sparsity.csv":
                    assert (Path(path).parent / "comparison.csv").is_file()
                    raise OSError(28, "No space left on device")
                return write_csv(rows, path)

            monkeypatch.setattr(pipeline, "write_csv", full_disk)
        assert main(["compare", str(report), "--out", str(cmp)]) == 2
        assert one_error_line(capsys)["error"] == (
            "OSError" if failure.startswith("full disk") else "IsADirectoryError")
        if left:
            assert sorted(p.name for p in cmp.iterdir()) == left
        else:
            assert not cmp.exists()

    def test_incompatible_fixtures_rejected(self, fixture_dir, three_layer_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_prune(run_config(fixture_dir, a, coarse="magnitude"))
        cmd_prune(run_config(three_layer_dir, b, coarse="magnitude", samples=32))
        with pytest.raises(InputError):
            cmd_compare([str(a / "report.json"), str(b / "report.json")],
                        str(tmp_path / "cmp"))


class TestModeMatrix:
    @pytest.mark.parametrize("coarse", ["zeroth", "first", "magnitude", "uniform", "local"])
    @pytest.mark.parametrize("fine", ["wanda", "sparsegpt"])
    def test_every_mode_combination_holds_the_budget(
        self, coarse, fine, fixture_dir, tmp_path
    ):
        from coarsefine.allocation import round_half_up, validate_plan

        config = run_config(fixture_dir, tmp_path, coarse=coarse, fine=fine,
                            sparsity=0.5, granularity="block")
        report = cmd_prune(config)
        masks = load_masks(tmp_path / "masks")
        model = load_model(Path(config.out_dir) / "pruned_model")
        kept = sum(int(m.sum()) for m in masks.values())
        assert kept == round_half_up(0.5 * model.num_prunable_weights())
        assert validate_plan(report.plan, model) == []
        for name, mask in masks.items():
            assert np.all(model.layer(name).weight[~mask] == 0.0)


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["prune", "--sparsity", "0.5"]) == 1  # missing paths
        err = capsys.readouterr().err
        assert json.loads(err)["exit_code"] == 1

    @pytest.mark.parametrize("argv,flag", [
        (["--out", "y"], "--model-dir"),
        (["--model-dir", "x", "--out", "y"], "--calib"),
        (["--model-dir", "x", "--calib", "c"], "--out"),
    ])
    def test_missing_option_names_its_flag(self, capsys, argv, flag):
        assert main(["prune", *argv]) == 1
        err = one_error_line(capsys)
        assert err["error"] == "UsageError"
        assert err["message"] == f"missing required option {flag}"

    def test_unknown_flag_is_exit_1(self, capsys):
        assert main(["prune", "--bogus"]) == 1
        err = one_error_line(capsys)
        assert err["error"] == "UsageError"
        assert "--bogus" in err["message"]

    # a numpy warning would print before the JSON line; as an error it
    # escapes main instead, which pytest's own warning capture would hide
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", [
        "config-is-dir", "bogus-flag", "bogus-choice", "bad-int",
        "prune-out-file", "prune-out-under-file", "score-out-file",
        "score-out-under-file", "eval-out-dir", "compare-out-file", "eval-negative-seed",
        "eval-bad-split", "prune-overflow",
    ])
    def test_failure_is_one_json_line(self, fixture_dir, tmp_path, capsys, case):
        # a bad command line is a usage error (exit 1); an --out that is a
        # file, lies under one, or is a directory where a file goes is an
        # unwritable output (exit 2) named in the message
        (tmp_path / "afile").write_text("x")
        (tmp_path / "adir").mkdir()
        run = ["--model-dir", str(fixture_dir / "model"),
               "--calib", str(fixture_dir / "calib.json"),
               "--coarse", "magnitude", "--samples", "8"]
        report = tmp_path / "run" / "report.json"
        if case == "compare-out-file":
            assert main(["prune", *run, "--out", str(report.parent)]) == 0
        capsys.readouterr()
        argv, code, named = {
            "config-is-dir": (["prune", "--config", str(tmp_path / "adir")], 1, "adir"),
            "bogus-flag": (["prune", "--bogus"], 1, "--bogus"),
            "bogus-choice": (["prune", "--coarse", "bogus"], 1, "bogus"),
            "bad-int": (["score", "--samples", "abc"], 1, "abc"),
            "prune-out-file": (["prune", *run, "--out", str(tmp_path / "afile")], 2, "afile"),
            "prune-out-under-file":
                (["prune", *run, "--out", str(tmp_path / "afile" / "sub")], 2, "afile"),
            "score-out-file": (["score", *run, "--out", str(tmp_path / "afile")], 2, "afile"),
            "score-out-under-file":
                (["score", *run, "--out", str(tmp_path / "afile" / "sub")], 2, "afile"),
            "eval-out-dir": (["eval", "--model-dir", str(fixture_dir / "model"),
                              "--task", "synthetic_regression", "--split", "val",
                              "--out", str(tmp_path / "adir")], 2, "adir"),
            "compare-out-file":
                (["compare", str(report), "--out", str(tmp_path / "afile")], 2, "afile"),
            "eval-negative-seed": (["eval", "--model-dir", str(fixture_dir / "model"),
                                    "--task", "synthetic_regression", "--split", "val",
                                    "--task-seed", "-1"], 1, "--task-seed"),
            "eval-bad-split": (["eval", "--model-dir", str(fixture_dir / "model"),
                                "--task", "synthetic_regression", "--split", "nope"], 1, "nope"),
            # the perturbed losses overflow to inf: a NumericalError, and
            # no RuntimeWarning from numpy before it
            "prune-overflow": (["prune", *run, "--coarse", "zeroth", "--epsilon", "1e300",
                                "--out", str(tmp_path / "run")], 3, "non-finite"),
        }[case]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == code
        assert named in err["message"]
        if code == 1:
            assert err["error"] == "UsageError"
        assert (tmp_path / "afile").read_text() == "x"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["afile", "adir"] + (["run"] if case == "compare-out-file" else [])
        )
        assert list((tmp_path / "adir").iterdir()) == []

    def test_missing_model_is_exit_2(self, tmp_path, capsys):
        code = main([
            "prune", "--model-dir", str(tmp_path / "nope"),
            "--calib", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ModelFormatError"

    def test_aliased_model_files_are_exit_2(self, tmp_path, capsys):
        write_aliased_model(tmp_path / "model")
        save_calibration(random_batch(np.random.default_rng(0), 8, 3, 1), tmp_path / "c.json")
        code = main([
            "prune", "--model-dir", str(tmp_path / "model"),
            "--calib", str(tmp_path / "c.json"), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = one_error_line(capsys)
        assert err["error"] == "ModelFormatError" and "a.bias.bin" in err["message"]

    def test_failed_rerun_leaves_no_report(self, fixture_dir, tmp_path, capsys, monkeypatch):
        # a second prune into the same directory fails while reloading the
        # pruned model (sparsegpt's evaluation reads the reload): the first
        # run's report must not survive as its record
        import coarsefine.io as cfio

        def argv(sparsity):
            return ["prune", "--model-dir", str(fixture_dir / "model"),
                    "--calib", str(fixture_dir / "calib.json"),
                    "--out", str(tmp_path / "out"), "--sparsity", sparsity,
                    "--coarse", "magnitude", "--fine", "sparsegpt", "--samples", "16"]

        assert main(argv("0.5")) == 0
        assert main(["score", *argv("0.5")[1:]]) == 0
        out = tmp_path / "out"
        stale = {"report.json", "timing.json", "score_summary.json", "plan.json", "scores.json"}
        assert stale <= {p.name for p in out.iterdir()}
        load_model = cfio.load_model

        def failing_reload(directory):
            if Path(directory).name == "pruned_model":
                raise ModelFormatError("injected reload failure")
            return load_model(directory)

        monkeypatch.setattr(cfio, "load_model", failing_reload)
        capsys.readouterr()
        assert main(argv("0.7")) == 2
        assert json.loads(capsys.readouterr().err)["message"] == "injected reload failure"
        assert not {p.name for p in out.iterdir()} & stale
        assert not [p for p in out.rglob("*.tmp")]

    def test_failed_score_rerun_leaves_no_scores(self, fixture_dir, tmp_path, capsys):
        # a second score into the same directory fails on its inputs: the
        # first run's scores and summary must not survive as its record
        run = ["score", "--model-dir", str(fixture_dir / "model"),
               "--calib", str(fixture_dir / "calib.json"), "--out", str(tmp_path / "out")]
        assert main([*run, "--coarse", "zeroth", "--samples", "16"]) == 0
        out = tmp_path / "out"
        assert {"scores.json", "score_summary.json"} <= {p.name for p in out.iterdir()}
        capsys.readouterr()
        assert main([*run, "--coarse", "first", "--samples", "999"]) == 2
        assert "samples" in one_error_line(capsys)["message"]
        assert list(out.iterdir()) == []

    def test_numerical_error_is_exit_3(self, tmp_path, capsys):
        # rank-deficient activations with lambda = 0 make the Hessian
        # singular during sparsegpt pruning
        rng = np.random.default_rng(1)
        model = random_mlp(rng, [6, 8, 4])
        save_model(model, tmp_path / "model")
        x = np.zeros(6)
        batch = CalibrationSet([(x.copy(), rng.normal(size=4)) for _ in range(4)])
        save_calibration(batch, tmp_path / "calib.json")
        code = main([
            "prune", "--model-dir", str(tmp_path / "model"),
            "--calib", str(tmp_path / "calib.json"),
            "--out", str(tmp_path / "out"),
            "--sparsity", "0.5", "--coarse", "magnitude", "--fine", "sparsegpt",
            "--samples", "4", "--lambda", "0",
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["exit_code"] == 3

    def test_sparsegpt_behind_a_fully_pruned_layer(self, tmp_path, capsys):
        # under --max-sparsity 1 a bias-free layer can lose every weight,
        # and the next layer's input is all zero: the default damping is
        # then 1 and the run completes, while an explicit 0 stays singular
        rng = np.random.default_rng(2)
        save_model(random_mlp(rng, [6, 8, 8, 3]), tmp_path / "model")
        save_calibration(random_batch(rng, 8, 6, 3), tmp_path / "calib.json")
        argv = ["prune", "--model-dir", str(tmp_path / "model"),
                "--calib", str(tmp_path / "calib.json"), "--out", str(tmp_path / "out"),
                "--coarse", "magnitude", "--fine", "sparsegpt", "--samples", "8",
                "--sparsity", "0.999", "--max-sparsity", "1.0"]
        assert main(argv) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 1.0 in [entry["sparsity"] for entry in report["sparsity_plan"]["per_layer"].values()]
        capsys.readouterr()
        assert main([*argv, "--lambda", "0"]) == 3
        assert "singular (lambda=0.0)" in one_error_line(capsys)["message"]

    @pytest.mark.filterwarnings("error")
    def test_dense_overflow_fails_in_the_first_leg(self, tmp_path, capsys):
        # ten identity layers of weights near 1e37 on inputs of 1e37: the
        # dense output overflows.  Scoring runs before the dense
        # evaluation, so L0's first leg finds it and names the layer.
        rng = np.random.default_rng(8)
        weights = [rng.uniform(1.0, 2.0, size=(4, 4)) * 1e37 for _ in range(10)]
        save_model(tiny_linear_model(weights), tmp_path / "model")
        save_calibration(CalibrationSet.stacked(np.full((4, 4), 1e37), np.zeros((4, 4))),
                         tmp_path / "calib.json")
        code = main([
            "prune", "--model-dir", str(tmp_path / "model"),
            "--calib", str(tmp_path / "calib.json"), "--out", str(tmp_path / "out"),
            "--coarse", "zeroth", "--samples", "4",
        ])
        assert code == 3
        err = one_error_line(capsys)
        assert err["exit_code"] == 3 and err["error"] == "NumericalError"
        assert err["message"] == "layer 'L0': non-finite values in model output"
        assert not (tmp_path / "out").exists()

    def test_success_is_exit_0(self, fixture_dir, tmp_path, capsys):
        code = main([
            "prune", "--model-dir", str(fixture_dir / "model"),
            "--calib", str(fixture_dir / "calib.json"),
            "--out", str(tmp_path / "out"),
            "--sparsity", "0.4", "--coarse", "magnitude", "--samples", "8",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["achieved_global_sparsity"] == pytest.approx(0.4, abs=0.01)


def _prune_argv(fixture_dir, out, sparsity="0.5", model_dir=None):
    return ["prune", "--model-dir", str(model_dir or fixture_dir / "model"),
            "--calib", str(fixture_dir / "calib.json"), "--out", str(out),
            "--sparsity", sparsity, "--coarse", "magnitude", "--samples", "16"]


def _outputs(out) -> dict:
    """Every file under out (timing.json, which holds wall clock, aside) by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timing.json"}


class TestFreshOutputs:
    # every output is a new file: an earlier run's file is unlinked, not
    # truncated or renamed over, and nothing already at the name is followed

    def test_hard_links_keep_the_first_run(self, fixture_dir, tmp_path, capsys):
        out, keep = tmp_path / "out", tmp_path / "keep"
        assert main(_prune_argv(fixture_dir, out, "0.5")) == 0
        layer = sorted(load_masks(out / "masks"))[0]
        keep.mkdir()
        linked = {keep / "weight.bin": out / "pruned_model" / f"{layer}.bin",
                  keep / "mask.bin": out / "masks" / f"{layer}.mask.bin"}
        for link, name in linked.items():
            os.link(name, link)
        first = {link: link.read_bytes() for link in linked}
        assert main(_prune_argv(fixture_dir, out, "0.7")) == 0
        for link, name in linked.items():
            assert link.read_bytes() == first[link]
            assert name.read_bytes() != first[link]  # the second run wrote other bytes

    def test_planted_symlinks_are_not_written_through(self, fixture_dir, tmp_path, capsys):
        out, targets = tmp_path / "out", tmp_path / "targets"
        layer = load_model(fixture_dir / "model").prunable_layers()[0].name
        (out / "pruned_model").mkdir(parents=True)
        targets.mkdir()
        planted = [out / "pruned_model" / f"{layer}.bin",
                   out / "pruned_model" / "manifest.json.tmp", out / "report.json.tmp"]
        for i, link in enumerate(planted):
            (targets / str(i)).write_bytes(b"kept %d" % i)
            link.symlink_to(targets / str(i))
        assert main(_prune_argv(fixture_dir, out)) == 0
        assert [(targets / str(i)).read_bytes() for i in range(3)] == [b"kept 0", b"kept 1",
                                                                         b"kept 2"]
        assert not [p for p in out.rglob("*") if p.is_symlink() or p.suffix == ".tmp"]
        assert load_model(out / "pruned_model").layer(layer).weight.shape

    @pytest.mark.parametrize("name", ["pruned_model", "masks"])
    def test_symlinked_output_directory_is_refused(self, fixture_dir, tmp_path, capsys, name):
        # the link would carry the writes, and a failed run's cleanup, into
        # its target: the run is refused and the target left as it was
        out, target = tmp_path / "out", tmp_path / "target"
        assert main(_prune_argv(fixture_dir, out)) == 0
        shutil.copytree(out / name, target)
        (target / "NOTES.txt").write_text("mine")
        kept = _outputs(target)
        shutil.rmtree(out / name)
        (out / name).symlink_to(target, target_is_directory=True)
        capsys.readouterr()
        assert main(_prune_argv(fixture_dir, out, "0.7")) == 2
        err = one_error_line(capsys)
        assert err["error"] == "InputError" and f"{name} is a symlink" in err["message"]
        assert _outputs(target) == kept
        assert (out / name).is_symlink() and (out / name).resolve() == target.resolve()
        assert "report.json" not in {p.name for p in out.iterdir()}

    def test_rerun_equals_a_run_into_a_fresh_directory(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        # relative --out paths, so both reports echo the same out_dir
        (tmp_path / "rerun").mkdir()
        (tmp_path / "fresh").mkdir()
        monkeypatch.chdir(tmp_path / "rerun")
        assert main(_prune_argv(fixture_dir, "out", "0.7")) == 0
        assert main(_prune_argv(fixture_dir, "out", "0.5")) == 0
        monkeypatch.chdir(tmp_path / "fresh")
        assert main(_prune_argv(fixture_dir, "out", "0.5")) == 0
        rerun = _outputs(tmp_path / "rerun" / "out")
        assert rerun == _outputs(tmp_path / "fresh" / "out")
        assert "pruned_model/manifest.json" in rerun and "masks/masks.json" in rerun

    def test_reprune_of_its_own_output_equals_a_run_from_a_copy(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        (tmp_path / "own").mkdir()
        (tmp_path / "fresh").mkdir()
        monkeypatch.chdir(tmp_path / "own")
        assert main(_prune_argv(fixture_dir, "out", "0.5")) == 0
        copy = tmp_path / "copy"
        shutil.copytree("out/pruned_model", copy)
        assert main(_prune_argv(fixture_dir, "out", "0.7", model_dir="out/pruned_model")) == 0
        monkeypatch.chdir(tmp_path / "fresh")
        assert main(_prune_argv(fixture_dir, "out", "0.7", model_dir=copy)) == 0
        own, fresh = _outputs(tmp_path / "own" / "out"), _outputs(tmp_path / "fresh" / "out")
        # the reports differ only in the echoed --model-dir
        fresh["report.json"] = fresh["report.json"].replace(
            json.dumps(str(copy)).encode(), b'"out/pruned_model"')
        assert own == fresh


    def test_rerun_over_another_models_run_leaves_no_stale_layer(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        # another model's layers (L0-L2, biased, L1 frozen) were written
        # first; the rerun removes the files their indexes name, and an
        # unrelated pruned_model/ and masks/ with no index keep theirs
        other = _other_fixture(tmp_path / "other")
        for name in ("rerun", "fresh", "unrelated"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "rerun")
        assert main(_prune_argv(other, "out")) == 0
        assert "pruned_model/L1.bias.bin" in _outputs(Path("out"))
        assert main(_prune_argv(fixture_dir, "out")) == 0
        monkeypatch.chdir(tmp_path / "fresh")
        assert main(_prune_argv(fixture_dir, "out")) == 0
        fresh = _outputs(tmp_path / "fresh" / "out")
        assert _outputs(tmp_path / "rerun" / "out") == fresh
        monkeypatch.chdir(tmp_path / "unrelated")
        mine = {"pruned_model/L0.bin": b"mine", "pruned_model/NOTES.txt": b"notes",
                "masks/L0.mask.bin": b"mine too"}
        for name, data in mine.items():
            Path("out", name).parent.mkdir(parents=True, exist_ok=True)
            Path("out", name).write_bytes(data)
        assert main(_prune_argv(fixture_dir, "out")) == 0
        assert _outputs(Path("out")) == {**fresh, **mine}

    def test_stale_removal_follows_no_symlink(self, fixture_dir, tmp_path, capsys):
        # a stale name that is a symlink loses the link, not its target, and
        # an index that is a symlink is not read: its directory is not touched
        out, targets = tmp_path / "out", tmp_path / "targets"
        assert main(_prune_argv(_other_fixture(tmp_path / "other"), out)) == 0
        targets.mkdir()
        (targets / "w").write_bytes(b"target")
        (out / "pruned_model" / "L0.bin").unlink()
        (out / "pruned_model" / "L0.bin").symlink_to(targets / "w")
        shutil.move(out / "masks" / "masks.json", targets / "masks.json")
        (out / "masks" / "masks.json").symlink_to(targets / "masks.json")
        kept_masks = sorted(p.name for p in (out / "masks").iterdir())
        assert main(_prune_argv(fixture_dir, out)) == 0
        assert (targets / "w").read_bytes() == b"target"
        assert not os.path.lexists(out / "pruned_model" / "L0.bin")
        # the run's own masks.json replaced the link; the old mask files stay
        assert set(kept_masks) <= {p.name for p in (out / "masks").iterdir()}
        assert (targets / "masks.json").is_file()

    @pytest.mark.parametrize("stage", ["scoring", "allocation", "fine pass"])
    def test_failed_rerun_over_another_models_run_keeps_it(
        self, fixture_dir, tmp_path, capsys, monkeypatch, stage
    ):
        # the rerun fails after its inputs load and before its first write,
        # so the other model's pruned_model/ and masks/ are left whole
        import coarsefine.pipeline as pipeline

        out = tmp_path / "out"
        assert main(_prune_argv(_other_fixture(tmp_path / "other"), out)) == 0
        first = {name: data for name, data in _outputs(out).items() if "/" in name}
        flags = []
        if stage == "scoring":  # the legs' losses overflow
            flags = ["--coarse", "zeroth", "--epsilon", "1e300"]
        else:
            def injected(*args, **kwargs):
                raise NumericalError("injected failure")

            monkeypatch.setattr(pipeline, "allocate_sparsity" if stage == "allocation"
                                else "sequential_prune", injected)
        capsys.readouterr()
        assert main([*_prune_argv(fixture_dir, out), *flags]) == 3
        assert one_error_line(capsys)["error"] == "NumericalError"
        assert {name: data for name, data in _outputs(out).items() if "/" in name} == first
        assert load_model(out / "pruned_model").layer("L1").frozen
        assert sorted(load_masks(out / "masks")) == ["L0", "L2"]


def _other_fixture(root):
    """A model whose layer names (L0-L2, with biases, L1 frozen) differ
    from fixture_dir's, with a 16-sample calibration file."""
    rng = np.random.default_rng(9)
    model = random_mlp(rng, [5, 7, 6, 3])
    for layer in model.layers():
        layer.bias = rng.normal(size=layer.d_out)
    model.layer("L1").frozen = True
    save_model(model, root / "model")
    save_calibration(random_batch(rng, 16, 5, 3), root / "calib.json")
    return root


_STAGES = ["save_masks", "reload", "pruned evaluation", "the last JSON write"]


def _inject_failure(monkeypatch, stage) -> tuple[list[str], str]:
    """prune fails after save_masks has written, at the pruned model's
    reload, in the pruned evaluation of the fine pass's hand-over, or on
    a full disk at report.json, after scores, plan and timing are written;
    returns the flags that make the run reach that stage and the error
    message the run reports."""
    import coarsefine.io as cfio
    import coarsefine.pipeline as pipeline

    save_masks, load_model, write_json = cfio.save_masks, cfio.load_model, cfio.write_json
    evaluate_on_batch = pipeline.evaluate_on_batch

    def failing_save_masks(masks, directory):
        save_masks(masks, directory)
        raise ModelFormatError("injected failure")

    def failing_reload(directory):
        if Path(directory).name == "pruned_model":
            raise ModelFormatError("injected failure")
        return load_model(directory)

    def failing_pruned_evaluation(model, batch, masks=None, **kwargs):
        if masks is not None:
            assert kwargs["layer_input"] is not None  # the hand-over, not a reload
            raise ModelFormatError("injected failure")
        return evaluate_on_batch(model, batch, masks, **kwargs)

    def full_disk(obj, path):
        if Path(path).name == "report.json":
            assert {"scores.json", "plan.json", "timing.json"} <= {
                p.name for p in Path(path).parent.iterdir()}
            raise OSError(28, "injected failure")
        return write_json(obj, path)

    if stage == "save_masks":
        monkeypatch.setattr(cfio, "save_masks", failing_save_masks)
    elif stage == "reload":  # only sparsegpt's pruned evaluation reads the reload
        monkeypatch.setattr(cfio, "load_model", failing_reload)
        return ["--fine", "sparsegpt"], "injected failure"
    elif stage == "the last JSON write":
        monkeypatch.setattr(cfio, "write_json", full_disk)
        return [], "[Errno 28] injected failure"
    else:
        monkeypatch.setattr(pipeline, "evaluate_on_batch", failing_pruned_evaluation)
    return [], "injected failure"


class TestFailedRunCleanup:
    # a failed prune removes exactly the files it created, then masks/ and
    # pruned_model/ (and an --out it made) if they are left empty

    @pytest.mark.parametrize("stage", _STAGES)
    def test_new_out_is_removed(self, fixture_dir, tmp_path, capsys, monkeypatch, stage):
        flags, message = _inject_failure(monkeypatch, stage)
        assert main([*_prune_argv(fixture_dir, tmp_path / "out"), *flags]) == 2
        assert one_error_line(capsys)["message"] == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", _STAGES)
    def test_rerun_removes_only_its_own_files(
        self, fixture_dir, tmp_path, capsys, monkeypatch, stage
    ):
        out = tmp_path / "out"
        assert main(_prune_argv(fixture_dir, out, "0.5")) == 0
        (out / "pruned_model" / "NOTES.txt").write_text("mine")
        flags, message = _inject_failure(monkeypatch, stage)
        capsys.readouterr()
        assert main([*_prune_argv(fixture_dir, out, "0.7"), *flags]) == 2
        assert one_error_line(capsys)["message"] == message
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
            "pruned_model", "pruned_model/NOTES.txt"]
        assert (out / "pruned_model" / "NOTES.txt").read_text() == "mine"

    @pytest.mark.parametrize("existing", [False, True], ids=["new out", "existing out"])
    def test_failed_score_removes_its_scores(
        self, fixture_dir, tmp_path, capsys, monkeypatch, existing
    ):
        # the summary write fails after scores.json is written: the scores
        # go, and so does an --out the run made
        import coarsefine.io as cfio

        write_json = cfio.write_json

        def full_disk(obj, path):
            if Path(path).name == "score_summary.json":
                raise OSError(28, "No space left on device")
            return write_json(obj, path)

        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "NOTES.txt").write_text("mine")
        monkeypatch.setattr(cfio, "write_json", full_disk)
        assert main(["score", *_prune_argv(fixture_dir, out)[1:]]) == 2
        assert one_error_line(capsys)["error"] == "OSError"
        assert sorted(p.name for p in tmp_path.rglob("*")) == (
            ["NOTES.txt", "out"] if existing else [])

    def test_failure_before_the_first_write_removes_nothing(
        self, fixture_dir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main(_prune_argv(fixture_dir, out, "0.5")) == 0
        kept = {name: data for name, data in _outputs(out).items() if "/" in name}
        capsys.readouterr()
        assert main([*_prune_argv(fixture_dir, out, "0.7"), "--samples", "999"]) == 2
        assert "samples" in one_error_line(capsys)["message"]
        assert _outputs(out) == kept  # the stale JSON files alone are gone


class TestConfigFile:
    def test_flags_override_config_file(self, fixture_dir, tmp_path, capsys):
        cfg = {
            "model_dir": str(fixture_dir / "model"),
            "calib_path": str(fixture_dir / "calib.json"),
            "out_dir": str(tmp_path / "out"),
            "sparsity": 0.3,
            "coarse": "magnitude",
            "samples": 8,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["prune", "--config", str(cfg_path), "--sparsity", "0.5"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["sparsity"] == 0.5  # flag wins
        assert report["config"]["samples"] == 8     # file value kept

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sparsify": 0.5}))
        assert main(["prune", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("text", ['{"sparsity": 0.5,', "[1, 2]"])
    def test_malformed_config_is_one_usage_error_line(self, tmp_path, capsys, text):
        # truncated JSON and a non-object must not escape as a traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["prune", "--config", str(cfg_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "UsageError"
        assert err["exit_code"] == 1


    @pytest.mark.parametrize("field,value", [
        ("sparsity", "half"),
        ("samples", "many"),
        ("seed", 1.5),
        ("seed", True),
        ("epsilon", False),
        ("noises", 2.0),
        ("coarse", 3),
        ("sparsity", None),
        pytest.param("epsilon", 10**400, id="epsilon-beyond-float-range"),
    ])
    def test_mistyped_config_field_is_one_usage_error_line(
        self, fixture_dir, tmp_path, capsys, field, value
    ):
        cfg = {
            "model_dir": str(fixture_dir / "model"),
            "calib_path": str(fixture_dir / "calib.json"),
            "out_dir": str(tmp_path / "out"),
            field: value,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["prune", "--config", str(cfg_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "UsageError"
        assert field in err["message"]
        assert not (tmp_path / "out").exists()

    def test_config_types_accepted(self):
        config = RunConfig.from_json(
            {"sparsity": 0, "epsilon": 1, "max_sparsity": None, "lambda": None,
             "samples": 8, "coarse": "magnitude"}
        )
        assert (config.sparsity, config.epsilon, config.samples) == (0, 1, 8)
        assert config.max_sparsity is None and config.hessian_lambda is None


    def test_config_file_echoes_like_the_flags(self, fixture_dir, tmp_path, capsys):
        # JSON integers in float fields echo as floats, as the flags do
        inputs = ["--model-dir", str(fixture_dir / "model"),
                  "--calib", str(fixture_dir / "calib.json"), "--samples", "8"]
        (tmp_path / "cfg.json").write_text(json.dumps({"sparsity": 0, "epsilon": 1}))
        assert main(["prune", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "file"), *inputs]) == 0
        assert main(["prune", "--sparsity", "0", "--epsilon", "1",
                     "--out", str(tmp_path / "flags"), *inputs]) == 0
        reports = [(tmp_path / out / "report.json").read_text().replace(str(tmp_path / out), "")
                   for out in ("file", "flags")]
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert all(isinstance(x, float) for x in (
            report["config"]["sparsity"], report["config"]["epsilon"],
            report["sparsity_plan"]["target_p"]))


def one_error_line(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestNumericFlagValidation:
    # non-finite or negative epsilon/lambda used to pass validation and end
    # as a NumericalError (exit 3) or an InputError (exit 2); a huge noise
    # count escaped as numpy's "array is too big" traceback
    CASES = [
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("epsilon", -1.0),
        ("lambda", float("nan")),
        ("lambda", float("inf")),
        ("lambda", -1.0),
        ("noises", 2**62),
    ]

    def test_noises_ceiling(self):
        config = RunConfig(model_dir="m", calib_path="c", out_dir="o", noises=MAX_NOISES)
        config.validate()
        config.noises += 1
        with pytest.raises(UsageError, match="--noises"):
            config.validate()

    @pytest.mark.parametrize("field,value", CASES)
    def test_flag_is_one_usage_error_line(self, three_layer_dir, tmp_path, capsys, field, value):
        code = main([
            "prune", "--model-dir", str(three_layer_dir / "model"),
            "--calib", str(three_layer_dir / "calib.json"), "--out", str(tmp_path / "out"),
            "--fine", "sparsegpt", "--samples", "8", f"--{field}", str(value),
        ])
        assert code == 1
        err = one_error_line(capsys)
        assert err["error"] == "UsageError" and field in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", CASES)
    def test_config_file_is_one_usage_error_line(
        self, three_layer_dir, tmp_path, capsys, field, value
    ):
        cfg = {
            "model_dir": str(three_layer_dir / "model"),
            "calib_path": str(three_layer_dir / "calib.json"),
            "out_dir": str(tmp_path / "out"),
            "fine": "sparsegpt",
            "samples": 8,
            field: value,  # json writes NaN / Infinity, which its reader accepts
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["prune", "--config", str(cfg_path)]) == 1
        err = one_error_line(capsys)
        assert err["error"] == "UsageError" and field in err["message"]
        assert not (tmp_path / "out").exists()


def _edit_json(path, change):
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def _symlinked(path, target):
    """Move path's file to target, outside path's directory, and leave a
    symlink to it at path."""
    target.parent.mkdir(exist_ok=True)
    path.rename(target)
    path.symlink_to(target)


def _zero_size_layers(root):
    # [0, 6] then [8, 0]: the shapes still chain, and the empty .bin files
    # hold exactly the zero floats they promise
    def change(manifest):
        for entry, shape in zip(manifest["blocks"][0]["layers"], ([0, 6], [8, 0])):
            entry["shape"] = shape
            (root / "model" / f"{entry['name']}.bin").write_bytes(b"")

    _edit_json(root / "model" / "manifest.json", change)


class TestMalformedFiles:
    # each mutation used to escape cli.main as a traceback (or, for the
    # outside paths, to read a file outside the directory it was given)
    MUTATIONS = {
        "calibration index not JSON": lambda root: (root / "calib.json").write_text("{nope"),
        "calibration index not an object": lambda root: (root / "calib.json").write_text("[]"),
        "calibration index without samples": lambda root: _edit_json(
            root / "calib.json", lambda o: o.pop("samples")),
        "calibration shape not a list": lambda root: _edit_json(
            root / "calib.json", lambda o: o["samples"][0].update(input="ab")),
        "calibration data file outside": lambda root: _edit_json(
            root / "calib.json", lambda o: o.update(data_file="../fx/calib.bin")),
        "calibration data file missing": lambda root: _edit_json(
            root / "calib.json", lambda o: o.update(data_file="gone.bin")),
        "manifest without head": lambda root: _edit_json(
            root / "model" / "manifest.json", lambda o: o.pop("head")),
        "manifest layer shape a string": lambda root: _edit_json(
            root / "model" / "manifest.json",
            lambda o: o["blocks"][0]["layers"][0].update(shape="ab")),
        "manifest layer without kind": lambda root: _edit_json(
            root / "model" / "manifest.json",
            lambda o: o["blocks"][0]["layers"][0].pop("kind")),
        "manifest blocks not a list": lambda root: _edit_json(
            root / "model" / "manifest.json", lambda o: o.update(blocks={"b0": 1})),
        "manifest layer name outside": lambda root: _edit_json(
            root / "model" / "manifest.json",
            lambda o: o["blocks"][0]["layers"][0].update(name="../outside/L0")),
        "manifest block name unsafe": lambda root: _edit_json(
            root / "model" / "manifest.json", lambda o: o["blocks"][0].update(name="a/b")),
        "manifest zero-size layers": _zero_size_layers,
        # these three were read as their defaults; every written field is required
        "manifest layer without frozen": lambda root: _edit_json(
            root / "model" / "manifest.json",
            lambda o: o["blocks"][0]["layers"][0].pop("frozen")),
        "manifest layer without activation": lambda root: _edit_json(
            root / "model" / "manifest.json",
            lambda o: o["blocks"][0]["layers"][0].pop("activation")),
        "manifest layer without has_bias": lambda root: _edit_json(
            root / "model" / "manifest.json",
            lambda o: o["blocks"][0]["layers"][0].pop("has_bias")),
        # an empty sample in a shape numpy cannot hold escaped as a ValueError
        "calibration shape past numpy's limits": lambda root: _edit_json(
            root / "calib.json", lambda o: o["samples"].append(
                {"input": [0, 10**400], "target": [0]})),
        # these two were read through the symlink, with exit 0
        "tensor symlinked outside": lambda root: _symlinked(
            root / "model" / "L0.bin", root / "outside" / "L0.bin"),
        "calibration data file symlinked outside": lambda root: _symlinked(
            root / "calib.bin", root.parent / "elsewhere" / "calib.bin"),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_input_is_one_model_format_error_line(
        self, three_layer_dir, tmp_path, capsys, mutation
    ):
        root = tmp_path / "fx"
        shutil.copytree(three_layer_dir, root)
        # readable tensors outside the model directory, where the
        # "outside" layer name points
        shutil.copytree(three_layer_dir / "model", root / "outside")
        self.MUTATIONS[mutation](root)
        code = main([
            "score", "--model-dir", str(root / "model"), "--calib", str(root / "calib.json"),
            "--out", str(tmp_path / "out"), "--coarse", "magnitude", "--samples", "8",
        ])
        assert code == 2
        err = one_error_line(capsys)
        assert err["error"] == "ModelFormatError" and err["exit_code"] == 2
        assert not (tmp_path / "out").exists()

    def test_mask_file_symlinked_outside_is_refused(self, tmp_path):
        save_masks({"a": np.ones((2, 5), dtype=bool)}, tmp_path / "masks")
        _symlinked(tmp_path / "masks" / "a.mask.bin", tmp_path / "elsewhere" / "a.mask.bin")
        with pytest.raises(ModelFormatError, match="a.mask.bin"):
            load_masks(tmp_path / "masks")

    def test_compare_report_not_json(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text("{truncated")
        assert main(["compare", str(bad), "--out", str(tmp_path / "cmp")]) == 2
        assert one_error_line(capsys)["error"] == "ModelFormatError"

    # the first three used to escape cli.main as KeyError, TypeError (from
    # the row sort) and AttributeError tracebacks
    REPORT_MUTATIONS = {
        "report without sparsity_plan": lambda o: o.pop("sparsity_plan"),
        "config sparsity a string": lambda o: o["config"].update(sparsity="half"),
        "plan per_layer a list": lambda o: o["sparsity_plan"].update(per_layer=[1]),
        "plan keep_count a string": lambda o: next(
            iter(o["sparsity_plan"]["per_layer"].values())).update(keep_count="x"),
        "config not an object": lambda o: o.update(config=[]),
        "config without fine": lambda o: o["config"].pop("fine"),
        "achieved without global_sparsity": lambda o: o["achieved"].pop("global_sparsity"),
        "eval_pruned loss a string": lambda o: o["eval_pruned"].update(loss="low"),
        # the first escaped cli.main as an OverflowError traceback, the
        # second printed an InputError
        "plan p_max past the float range": lambda o: o["sparsity_plan"].update(p_max=10**400),
        "report format_version 2": lambda o: o.update(format_version="2"),
        # these four were written to the CSVs with exit 0
        "config sparsity negative": lambda o: o["config"].update(sparsity=-5),
        "config sparsity past the float range": lambda o: o["config"].update(sparsity=10**400),
        "eval_pruned loss NaN": lambda o: o["eval_pruned"].update(loss=float("nan")),
        "achieved global_sparsity NaN": lambda o: o["achieved"].update(
            global_sparsity=float("nan")),
    }

    @pytest.mark.parametrize("mutation", sorted(REPORT_MUTATIONS))
    def test_compare_report_is_one_model_format_error_line(
        self, fixture_dir, tmp_path, capsys, mutation
    ):
        good, bad = tmp_path / "good", tmp_path / "bad"
        cmd_prune(run_config(fixture_dir, good, coarse="magnitude"))
        cmd_prune(run_config(fixture_dir, bad, coarse="magnitude", sparsity=0.3))
        _edit_json(bad / "report.json", self.REPORT_MUTATIONS[mutation])
        code = main([
            "compare", str(good / "report.json"), str(bad / "report.json"),
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 2
        err = one_error_line(capsys)
        assert err["error"] == "ModelFormatError" and err["exit_code"] == 2
        assert not (tmp_path / "cmp").exists()


    # each of these opens blocked for good on a FIFO; a subprocess with a
    # timeout fails the test instead of hanging it
    FIFOS = {  # case: (file made a FIFO, argv after the fixture root, exit code, error)
        "manifest": ("model/manifest.json", ["prune"], 2, "ModelFormatError"),
        "calibration index": ("calib.json", ["prune"], 2, "ModelFormatError"),
        "config": ("cfg.json", ["prune", "--config", "{root}/cfg.json"], 1, "UsageError"),
        "compare report": ("report.json", ["compare", "{root}/report.json"], 2,
                           "ModelFormatError"),
        "mask index": ("masks/masks.json", ["load_masks", "{root}/masks"], 1,
                       "ModelFormatError"),
    }
    _FIFO_PROBE = """
import sys
from coarsefine import cli, io
if sys.argv[1] == "load_masks":
    io.load_masks(sys.argv[2])  # a library error is a traceback, exit 1
sys.exit(cli.main(sys.argv[1:]))
"""

    @pytest.mark.parametrize("case", sorted(FIFOS))
    def test_fifo_is_refused_without_blocking(self, three_layer_dir, tmp_path, case):
        name, argv, code, error = self.FIFOS[case]
        root = tmp_path / "fx"
        shutil.copytree(three_layer_dir, root)
        (root / name).unlink(missing_ok=True)
        (root / name).parent.mkdir(exist_ok=True)
        os.mkfifo(root / name)
        argv = [a.format(root=root) for a in argv]
        if argv[0] == "prune":
            argv += ["--model-dir", str(root / "model"), "--calib", str(root / "calib.json"),
                     "--coarse", "magnitude", "--samples", "8"]
        if argv[0] != "load_masks":
            argv += ["--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-c", self._FIFO_PROBE, *argv],
                              capture_output=True, text=True, env=_src_env(), timeout=30)
        assert proc.returncode == code
        last = proc.stderr.splitlines()[-1]
        if argv[0] == "load_masks":
            assert last.startswith(f"coarsefine.errors.{error}: ")
        else:
            assert len(proc.stderr.splitlines()) == 1
            assert json.loads(last)["error"] == error
        assert "not a regular file" in last and name.split("/")[-1] in last
        assert not (tmp_path / "out").exists()

    def test_oversized_tensor_file_is_refused_before_it_is_read(self, three_layer_dir,
                                                                  tmp_path):
        model = tmp_path / "model"
        shutil.copytree(three_layer_dir / "model", model)
        with open(model / "L0.bin", "r+b") as f:  # sparse: 64 MB long, no blocks written
            f.truncate(64 << 20)

        def refused():
            with pytest.raises(ModelFormatError, match="67108864 bytes on disk, expected 192"):
                load_model(model)

        _, (_, peak) = traced(refused)
        assert peak < 1 << 20


class TestEmptyTokenAxis:
    # calibration samples with zero tokens used to escape cli.main as a
    # ValueError traceback: numpy's empty reduction in the token-id check
    # (char_lm ids [K, 0]) or the output reshape (regression inputs [K, 0, d])
    @pytest.mark.parametrize("kind", ["char_lm", "synthetic_regression"])
    @pytest.mark.parametrize("coarse", ["zeroth", "first", "magnitude"])
    def test_is_one_dimension_error_line(self, tmp_path, capsys, kind, coarse):
        task = make_task(kind, seed=0)
        save_model(build_model(task), tmp_path / "model")
        if kind == "char_lm":
            samples = [(np.zeros(0), np.zeros(0))] * 4
        else:
            samples = [(np.zeros((0, task.sizes["d_in"])), np.zeros(task.sizes["d_out"]))] * 4
        save_calibration(CalibrationSet(samples), tmp_path / "calib.json")
        code = main([
            "prune", "--model-dir", str(tmp_path / "model"),
            "--calib", str(tmp_path / "calib.json"), "--out", str(tmp_path / "out"),
            "--coarse", coarse, "--samples", "4",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DimensionError" and err["exit_code"] == 2
        assert "no tokens" in err["message"]


# the prune/score flags: spelling, dest (the RunConfig field), value type
# and choices
RUN_FLAGS = [
    ("--model-dir", "model_dir", str, None),
    ("--calib", "calib_path", str, None),
    ("--out", "out_dir", str, None),
    ("--config", "config", str, None),
    ("--sparsity", "sparsity", float, None),
    ("--max-sparsity", "max_sparsity", float, None),
    ("--coarse", "coarse", str, ["zeroth", "first", "magnitude", "uniform", "local"]),
    ("--fine", "fine", str, ["wanda", "sparsegpt", "magnitude"]),
    ("--granularity", "granularity", str, ["layer", "block"]),
    ("--samples", "samples", int, None),
    ("--noises", "noises", int, None),
    ("--epsilon", "epsilon", float, None),
    ("--lambda", "hessian_lambda", float, None),
    ("--seed", "seed", int, None),
    ("--aggregation", "aggregation", str, ["sum", "mean"]),
    ("--norm-exponent", "norm_exponent", int, [1, 2]),
]
FIELD_FLAGS = [row for row in RUN_FLAGS if row[0] != "--config"]
PATHS = ["--model-dir", "m", "--calib", "c.json", "--out", "o"]


def _flag_values(dest, kind, choices) -> tuple:
    """Two distinct values for a field, the first not its default."""
    if not choices:
        return {str: ("p1", "p2"), int: (7, 9), float: (0.25, 0.375)}[kind]
    default = getattr(RunConfig(), dest)
    others = [c for c in choices if c != default]
    return others[0], (others[1:] or [default])[0]


class TestFlagSurface:
    @pytest.mark.parametrize("command", ["prune", "score"])
    def test_exactly_the_run_flags(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        actions = {a.option_strings[0]: a for a in sub._actions if a.dest != "help"}
        assert sorted(actions) == sorted(row[0] for row in RUN_FLAGS)
        for flag, dest, kind, choices in RUN_FLAGS:
            action = actions[flag]
            assert action.option_strings == [flag]
            assert action.dest == dest
            assert (list(action.choices) if action.choices else None) == choices

    @pytest.mark.parametrize("command", ["prune", "score"])
    @pytest.mark.parametrize("flag,dest,kind,choices", FIELD_FLAGS)
    def test_flag_parses_into_its_field(self, command, flag, dest, kind, choices):
        value, _ = _flag_values(dest, kind, choices)
        config = _build_config(build_parser().parse_args([command, *PATHS, flag, str(value)]))
        assert type(getattr(config, dest)) is kind
        assert getattr(config, dest) == value

    @pytest.mark.parametrize("command", ["prune", "score"])
    @pytest.mark.parametrize("flag,dest,kind,choices", FIELD_FLAGS)
    def test_flag_overrides_config_file(self, tmp_path, command, flag, dest, kind, choices):
        in_file, on_line = _flag_values(dest, kind, choices)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model_dir": "m", "calib_path": "c.json", "out_dir": "o",
            "lambda" if dest == "hessian_lambda" else dest: in_file,
        }))
        run = [command, "--config", str(cfg)]
        assert getattr(_build_config(build_parser().parse_args(run)), dest) == in_file
        args = build_parser().parse_args([*run, flag, str(on_line)])
        assert getattr(_build_config(args), dest) == on_line


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(coarsefine.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestConsoleEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coarsefine.cli", "--help"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0
        assert "prune" in proc.stdout


# Runs in a fresh interpreter, since the test modules import scipy themselves:
# a relu prune through cli.main, then one gelu forward.
_SCIPY_PROBE = """
import json, sys
from coarsefine import cli
code = cli.main(sys.argv[1:])
loaded = {"exit": code, "after_prune": "scipy" in sys.modules}
import numpy as np
from coarsefine.model import Block, CalibrationSet, LayerSpec, ModelGraph, forward_outputs
gelu = ModelGraph([Block("b", [LayerSpec("g", "linear", np.eye(2), activation="gelu")])])
forward_outputs(gelu, CalibrationSet([(np.ones(2), np.zeros(2))]))
loaded["after_gelu"] = "scipy.special" in sys.modules
print(json.dumps(loaded))
"""


class TestColdImport:
    def test_relu_prune_never_loads_scipy(self, fixture_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, "prune",
             "--model-dir", str(fixture_dir / "model"),
             "--calib", str(fixture_dir / "calib.json"), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {"exit": 0, "after_prune": False, "after_gelu": True}


class TestSharedParser:
    def test_bad_line_then_help_then_prune(self, fixture_dir, tmp_path, capsys):
        assert build_parser() is build_parser()
        assert main(["prune", "--sparsity", "half"]) == 1
        assert one_error_line(capsys)["exit_code"] == 1
        assert main(["prune", "--help"]) == 0
        assert "--sparsity" in capsys.readouterr().out
        assert main(["prune", "--model-dir", str(fixture_dir / "model"),
                     "--calib", str(fixture_dir / "calib.json"),
                     "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["out_dir"] == str(tmp_path / "out")

    def test_peak_memory_is_steady_across_calls(self, trained_char_lm, tmp_path, capsys):
        # cyclic garbage left by a call, such as a parser built per call,
        # moves the next peaks with the collector's timing
        task, model = trained_char_lm
        save_model(model, tmp_path / "model")
        save_calibration(get_split(task, "calib"), tmp_path / "calib.json")
        argv = ["prune", "--model-dir", str(tmp_path / "model"),
                "--calib", str(tmp_path / "calib.json"), "--out", str(tmp_path / "out"),
                "--samples", "32", "--seed", "1"]
        assert main(argv) == 0  # warm-up
        peaks = []
        for _ in range(5):
            code, (_, peak) = traced(main, argv)
            assert code == 0
            peaks.append(peak)
        assert max(peaks) <= 1.01 * min(peaks), peaks
