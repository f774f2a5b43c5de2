"""Benchmark of ``coarsefine prune`` on generated fixtures.

Run from the repository root:

    python3 benchmarks/run.py --workload charlm-zo-wanda --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seconds 2     # every metric, every workload

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The metric names and units are those of ``BENCHMARK.json`` at
the repository root.  A run prints one ``name value unit`` line per
metric and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It also writes
that result, the environment (git SHA, library versions, BLAS threads,
``nproc``) and, when traced, every span to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.  End-to-end times
are rescaled to one reference host speed (see ``speed.py``); the record
keeps the raw wall times too.

The program is imported from ``src/`` of the same checkout and driven
in-process through ``coarsefine.cli.main``.  BLAS libraries are pinned
to one thread through this process's environment, before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def import_program() -> float:
    """Import coarsefine from this checkout's src/; returns the seconds taken,
    at the reference speed of speed.py."""
    src = ROOT / "src"
    if not (src / "coarsefine" / "__init__.py").is_file():
        raise BenchError(f"no coarsefine package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import coarsefine  # noqa: F401  (timed: numpy and scipy load here)

    seconds = time.perf_counter() - t0
    # the probe needs numpy, so it can only run after the import
    from speed import probe, rescale

    import_s = rescale(seconds, probe(), probe())
    if Path(coarsefine.__file__).resolve().parent != src / "coarsefine":
        raise BenchError(f"imported coarsefine from {coarsefine.__file__}, not {src}")
    return import_s


def git_sha() -> str:
    """HEAD's commit from .git without starting git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "seed": seed,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(spec: dict, result: dict, trace: bool) -> dict:
    """The contract's result object: every metric of the run's section."""
    section = spec["per_layer" if trace else "end_to_end"]
    values = result["values"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise BenchError(f"run produced no value for {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
        },
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            import_s: float) -> dict:
    from harness import run_workload

    work_dir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        result = run_workload(workload, seed, seconds, trace, work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    line = result_line(spec, result, trace)
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": workload, "trace": trace, "environment": environment(seed),
        "result": line, "notes": result["notes"], "spans": result["spans"],
    }) + "\n", encoding="utf-8")
    for name, metric in line["metrics"].items():
        print(f"{workload:22s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    brief = {k: v for k, v in result["notes"].items() if not isinstance(v, list) or k == "problems"}
    print(f"{workload:22s} attempted {line['attempted']} failed {line['failed']} "
          f"{json.dumps(brief)}")
    return line


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    t0 = time.perf_counter()
    try:
        import_s = import_program()
        spec = load_spec()
        from workloads import WORKLOADS

        if args.workload not in (*WORKLOADS, "all"):
            raise BenchError(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
        if args.workload != "all":
            line = run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s)
            print(json.dumps(line))
            return 0
        # every metric of every workload, end-to-end and traced
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                line = run_one(spec, workload, args.seed, args.seconds, trace, import_s)
                ok = ok and line["correct"]
    except (BenchError, OSError, ValueError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    print(f"all workloads: {'outputs correct' if ok else 'FAILED CHECKS'} "
          f"in {time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
