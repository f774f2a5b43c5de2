"""End-to-end walkthrough: train a small char LM, save it in the on-disk
format, run the full coarse-to-fine prune through the pipeline, and read
the report back.

Run: python demos/demo_01_end_to_end.py
"""

import json
import tempfile
from pathlib import Path

from coarsefine import RunConfig, cmd_prune, get_split, make_task, train_reference
from coarsefine.io import save_calibration, save_model

with tempfile.TemporaryDirectory(prefix="coarsefine_demo_") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}")

    # 1. a reference model: character LM over a synthetic bigram corpus
    task = make_task("char_lm", seed=0)
    model = train_reference(task)
    print(f"trained char_lm: {sum(l.size for l in model.layers())} weights, "
          f"{len(model.layers())} layers")

    # 2. persist the fixture: model directory + calibration file
    save_model(model, workdir / "model")
    save_calibration(get_split(task, "calib"), workdir / "calib.json")

    # 3. the full run: zeroth-order coarse scores -> block sparsity ratios ->
    #    activation-aware (wanda) fine pruning -> evaluation
    config = RunConfig(
        model_dir=str(workdir / "model"),
        calib_path=str(workdir / "calib.json"),
        out_dir=str(workdir / "pruned"),
        sparsity=0.5,          # p_max defaults to p + 0.1
        coarse="zeroth",
        fine="wanda",
        seed=42,
    )
    report = cmd_prune(config)

    print(f"\nachieved global sparsity: {report.achieved['global_sparsity']:.4f}")
    print(f"calibration loss dense -> pruned: "
          f"{report.eval_dense.loss:.4f} -> {report.eval_pruned.loss:.4f}")
    print(f"forward passes: {report.forward_passes}")
    print("\nper-layer sparsity plan:")
    for name, alloc in report.plan.per_layer.items():
        print(f"  {name:12s} p_i={alloc.sparsity:.3f} keep={alloc.keep_count}/{alloc.size}")

    # everything needed to reproduce the run is in the output directory
    files = sorted(p.relative_to(workdir) for p in (workdir / "pruned").rglob("*") if p.is_file())
    print("\nartifacts:", *files, sep="\n  ")

    report_again = json.loads((workdir / "pruned" / "report.json").read_text())
    assert report_again["achieved"]["global_sparsity"] == report.achieved["global_sparsity"]
