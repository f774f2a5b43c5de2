"""Run the 390-run ``prune`` matrix and write one sha256 per output file.

The matrix is 5 coarse modes x 3 fine methods x 2 granularities x
sparsity 0.5 and 0.7 on 7 fixtures: fixture 0 of seed 1 of each benchmark
workload (built by ``benchmarks/workloads.build_fixture``, imported
read-only; the 459k-weight MLP at 0.5 only, as its sparsegpt runs take
seconds each) and a trained reference of each task kind (task seed 3).
Every run goes through ``cli.main`` with paths relative to the work
directory, so the echoed paths are the same wherever it lives.  Its exit
code and stdout are digested with its output files; ``timing.json``
holds wall clock and is left out.  The masks and the pruned weights and
biases of ``global_magnitude_prune`` and ``iterative_gradient_prune``
(default targets) at both sparsities are digested too.  So is the task
harness itself, which ``prune`` sees only through a calibration split and
float32-saved models: for each task kind at the task seed, the three
splits and the untrained and trained float64 weights and biases, and the
splits and untrained weights of demo 06's two-tower size override.

The program is imported from ``src/`` of the checkout this file sits in.
Run it on two checkouts and compare the digest files; equal files mean
byte-identical outputs::

    python tools/output_matrix.py --work /tmp/matrix --digest digest.json

The sparsegpt outputs depend on the BLAS thread count (``np.linalg.inv``
gives other bits at 1 and 2 OpenBLAS threads), so before numpy loads the
tool sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where the environment does not set them.  A
digest file compares only with one made at the same thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read once, when numpy loads BLAS

import numpy as np  # noqa: E402

from coarsefine import io as cfio  # noqa: E402
from coarsefine.baselines import global_magnitude_prune, iterative_gradient_prune  # noqa: E402
from coarsefine.cli import main  # noqa: E402
from coarsefine.localprune import FINE_METHODS  # noqa: E402
from coarsefine.model import CalibrationSet  # noqa: E402
from coarsefine.pipeline import COARSE_MODES  # noqa: E402
from coarsefine.tasks import (  # noqa: E402
    TASK_KINDS, build_model, get_split, make_task, train_reference,
)

SPARSITIES = ("0.5", "0.7")
WORKLOAD_SEED, TASK_SEED, RUN_SEED = 1, 3, 0
DEMO_06_TASK = dict(  # demos/demo_06_distribution_report.py
    kind="two_tower_fusion", seed=0,
    tower_a_scale=10.0, tower_a_width=32, tower_b_width=32, d_fused=16,
)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "benchmarks" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def build_fixtures(work: Path) -> dict[str, tuple[int, tuple[str, ...]]]:
    """Write every fixture under work; name -> (samples, sparsities)."""
    bench = _workloads()
    fixtures = {}
    for name, workload in bench.WORKLOADS.items():
        bench.build_fixture(workload, WORKLOAD_SEED, 0, work / name)
        sparsities = SPARSITIES[:1] if name == "mlp459k-zo-wanda" else SPARSITIES
        fixtures[name] = (workload.samples, sparsities)
    for kind in TASK_KINDS:
        task = make_task(kind, seed=TASK_SEED)
        cfio.save_model(train_reference(task), work / kind / "model")
        cfio.save_calibration(get_split(task, "calib"), work / kind / "calib.json")
        fixtures[kind] = (task.n_calib, SPARSITIES)
    return fixtures


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _model_sha(model) -> str:
    return _sha(b"".join(
        l.name.encode() + l.weight.tobytes() + (b"" if l.bias is None else l.bias.tobytes())
        for l in model.layers()
    ))


def run_matrix(fixtures: dict) -> tuple[dict[str, str], list[str]]:
    """Prune every cell (cwd is the work directory); returns path -> sha256
    and the runs that exited nonzero."""
    digests, failed = {}, []
    for name, (samples, sparsities) in fixtures.items():
        cells = itertools.product(COARSE_MODES, FINE_METHODS, ("layer", "block"), sparsities)
        for coarse, fine, granularity, p in cells:
            out = f"runs/{name}/{coarse}-{fine}-{granularity}-{p}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([
                    "prune", "--model-dir", f"{name}/model",
                    "--calib", f"{name}/calib.json", "--out", out,
                    "--coarse", coarse, "--fine", fine, "--granularity", granularity,
                    "--sparsity", p, "--samples", str(samples), "--seed", str(RUN_SEED),
                ])
            if code:
                failed.append(out)
            digests[f"{out}/<stdout>"] = _sha(f"{code}\n{stdout.getvalue()}".encode())
            for path in sorted(Path(out).rglob("*")):
                if path.is_file() and path.name != "timing.json":
                    digests[str(path)] = _sha(path.read_bytes())
    return digests, failed


def baseline_outputs(fixtures: dict) -> dict[str, str]:
    """Digest the two global baselines' masks and pruned weights and biases
    on every fixture."""
    digests = {}
    for name, (samples, _) in fixtures.items():
        model = cfio.load_model(f"{name}/model")
        batch = CalibrationSet(cfio.load_calibration(f"{name}/calib.json").samples[:samples])
        for p in SPARSITIES:
            for label, (pruned, masks) in (
                ("global_magnitude", global_magnitude_prune(model, float(p))),
                ("iterative_gradient", iterative_gradient_prune(model, batch, float(p))),
            ):
                packed = b"".join(
                    n.encode() + np.packbits(masks[n]).tobytes() for n in sorted(masks)
                )
                digests[f"baselines/{name}/{label}-{p}"] = _sha(packed)
                digests[f"baselines/{name}/{label}-{p}/weights"] = _model_sha(pruned)
    return digests


def task_outputs() -> dict[str, str]:
    """Digest each task kind's splits and untrained and trained weights at
    the task seed, and demo 06's size override (untrained only)."""
    tasks = {kind: make_task(kind, seed=TASK_SEED) for kind in TASK_KINDS}
    tasks["demo_06"] = make_task(**DEMO_06_TASK)
    digests = {}
    for name, task in tasks.items():
        for split in ("train", "val", "calib"):
            batch = get_split(task, split)
            digests[f"tasks/{name}/{split}"] = _sha(
                f"{batch.xs.shape}{batch.ys.shape}".encode()
                + batch.xs.tobytes() + batch.ys.tobytes()
            )
        digests[f"tasks/{name}/untrained"] = _model_sha(build_model(task))
        if name != "demo_06":
            digests[f"tasks/{name}/trained"] = _model_sha(train_reference(task))
    return digests


def main_matrix(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, help="empty work directory to create")
    parser.add_argument("--digest", required=True, help="digest JSON to write")
    args = parser.parse_args(argv)
    digest_path = Path(args.digest).resolve()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=False)
    os.chdir(work)
    fixtures = build_fixtures(Path("."))
    digests, failed = run_matrix(fixtures)
    digests.update(baseline_outputs(fixtures))
    digests.update(task_outputs())
    digest_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    runs = sum(1 for k in digests if k.endswith("<stdout>"))
    print(json.dumps({"runs": runs, "failed": failed, "entries": len(digests)}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_matrix())
