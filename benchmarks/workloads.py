"""Benchmark workloads: the fixture each one prunes and the prune flags.

Every fixture is made from the workload seed alone and written in the
program's own on-disk formats, so ``coarsefine prune`` receives nothing
but a model directory and a calibration file.  A run prunes its
workload's ``fixtures`` fixtures, drawn from its seed, in turn, so that
its figures describe the workload rather than one random model.  The
pruned loss of one fixture varies between seeds by 13% (coefficient of
variation) on the 29k-weight MLP and by 5-6% on the others; the mean
over four fixtures of the others has a quartile spread of 2-6% over ten
seeds, and the 29k MLP needs twenty for about as much (twelve gave 4-11%
in three sets of ten seeds).

* ``charlm-zo-wanda``: the trained ``char_lm`` reference (task seeds
  derived from the workload seed), zeroth-order coarse scores, wanda fine step.  The only
  workload with an embedding layer; its set-up is dominated by training.
* ``mlp459k-zo-wanda``: a random GELU MLP 256-512-512-128, zeroth-order
  scores with K=64, wanda.  ZO perturb/restore and wanda's row sort
  dominate.
* ``mlp29k-fo-sparsegpt``: a random GELU MLP 64-128-128-32, first-order
  (backprop) scores, sparsegpt.  The OBS fine step is almost all of a
  call and zeroth-order scoring is never used.

MLP weights are N(0, 1/d_in), inputs N(0, 1), and the targets are the
dense model's own outputs, so the dense loss is float32 rounding noise
and the pruned loss measures output distortion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coarsefine import io as cfio
from coarsefine.model import Block, CalibrationSet, LayerSpec, ModelGraph, forward_outputs
from coarsefine.tasks import get_split, make_task, train_reference


# Every fixture names its prunable layers from this set (the MLPs have no
# embedding), so per-layer metric names are the same on every workload.
LAYER_NAMES = ["embed.tok", "body.fc1", "body.fc2", "head.out"]


@dataclass(frozen=True)
class Workload:
    name: str
    coarse: str
    fine: str
    samples: int
    widths: tuple[int, ...] = ()  # empty: the trained char_lm reference
    sparsity: float = 0.5
    fixtures: int = 4  # per run
    # share of a call spent in coarsefine.io (traced runs), the weight of
    # the file part of the speed probe
    io_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("charlm-zo-wanda", "zeroth", "wanda", samples=32, io_share=0.2),
        Workload("mlp459k-zo-wanda", "zeroth", "wanda", samples=64,
                 widths=(256, 512, 512, 128), io_share=0.05),
        Workload("mlp29k-fo-sparsegpt", "first", "sparsegpt", samples=32,
                 widths=(64, 128, 128, 32), fixtures=20),
    )
}


@dataclass
class Fixture:
    model_dir: Path
    calib_path: Path
    prunable_weights: int
    train_s: float  # time spent in train_reference, 0 for random MLPs


def _f32(x: np.ndarray) -> np.ndarray:
    """Round to float32 so the in-memory fixture equals what is written."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def random_mlp(
    widths: tuple[int, ...], seed: int, index: int
) -> tuple[ModelGraph, np.random.Generator]:
    """GELU MLP whose layers are named like the char_lm body and head.

    Returns the model and the rng stream that goes on to draw the inputs.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    shapes = list(zip(widths[1:], widths[:-1]))
    names = [f"body.fc{i + 1}" for i in range(len(shapes) - 1)] + ["head.out"]
    layers = [
        LayerSpec(
            name, "linear", _f32(rng.normal(size=(d_out, d_in)) / np.sqrt(d_in)),
            activation="identity" if name == "head.out" else "gelu",
        )
        for name, (d_out, d_in) in zip(names, shapes)
    ]
    model = ModelGraph(
        blocks=[Block("body", layers[:-1]), Block("head", layers[-1:])], head="mse"
    )
    return model, rng


def build_fixture(workload: Workload, seed: int, index: int, directory: Path) -> Fixture:
    """Generate fixture `index` of the seed's set and write it to directory."""
    model_dir, calib_path = directory / "model", directory / "calib.json"
    train_s = 0.0
    if not workload.widths:
        task = make_task("char_lm", seed=seed * workload.fixtures + index)
        t0 = time.perf_counter()
        model = train_reference(task)
        train_s = time.perf_counter() - t0
        batch = get_split(task, "calib")
    else:
        model, rng = random_mlp(workload.widths, seed, index)
        xs = _f32(rng.normal(size=(workload.samples, workload.widths[0])))
        probe = CalibrationSet([(x, np.zeros(workload.widths[-1])) for x in xs])
        ys = forward_outputs(model, probe)[:, 0, :]
        batch = CalibrationSet(list(zip(xs, ys)))
    cfio.save_model(model, model_dir)
    cfio.save_calibration(batch, calib_path)
    return Fixture(model_dir, calib_path, model.num_prunable_weights(), train_s)


def prune_argv(workload: Workload, fixture: Fixture, out_dir: Path, seed: int) -> list[str]:
    return [
        "prune",
        "--model-dir", str(fixture.model_dir),
        "--calib", str(fixture.calib_path),
        "--out", str(out_dir),
        "--coarse", workload.coarse,
        "--fine", workload.fine,
        "--sparsity", str(workload.sparsity),
        "--samples", str(workload.samples),
        "--seed", str(seed),
    ]
