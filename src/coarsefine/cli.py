"""Command-line entry point.

Subcommands: ``prune`` (full coarse-to-fine run), ``score`` (coarse step
only), ``eval`` (metrics of a model directory on a task split) and
``compare`` (merge prune reports into curve CSVs).  A JSON config file
may supply any field; explicit flags override it.  Exit codes: 0 success,
1 usage error, 2 data/model error, 3 numerical error; failures print one
JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import CoarseFineError, UsageError
from .localprune import FINE_METHODS
from .pipeline import COARSE_MODES, RunConfig, cmd_compare, cmd_eval, cmd_prune, cmd_score
from .tasks import TASK_KINDS


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model-dir", help="model directory (manifest.json + .bin files)")
    p.add_argument("--calib", dest="calib_path", help="calibration index JSON")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--sparsity", type=float, help="global target sparsity p in [0,1)")
    p.add_argument("--max-sparsity", type=float, help="per-layer cap (default p+0.1)")
    p.add_argument("--coarse", choices=COARSE_MODES)
    p.add_argument("--fine", choices=FINE_METHODS)
    p.add_argument("--granularity", choices=["layer", "block"])
    p.add_argument("--samples", type=int, help="calibration samples K (default 32)")
    p.add_argument("--noises", type=int, help="noises per sample (default 1)")
    p.add_argument("--epsilon", type=float, help="perturbation scale (default 1e-3)")
    p.add_argument("--lambda", dest="hessian_lambda", type=float,
                   help="Hessian damping (default 0.01 * mean diag)")
    p.add_argument("--seed", type=int)
    p.add_argument("--aggregation", choices=["sum", "mean"])
    p.add_argument("--norm-exponent", type=int, choices=[1, 2])


def _build_config(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} does not exist")
        try:
            base = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise UsageError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(base, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
    config = RunConfig.from_json(base)
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    for required in ("model_dir", "calib_path", "out_dir"):
        if not getattr(config, required):
            raise UsageError(f"missing required option --{required.replace('_', '-')}")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsefine",
        description="Coarse-to-fine one-shot pruning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prune = sub.add_parser("prune", help="full run: score, allocate, prune, evaluate")
    _add_run_flags(p_prune)

    p_score = sub.add_parser("score", help="coarse step only: write the score map")
    _add_run_flags(p_score)

    p_eval = sub.add_parser("eval", help="evaluate a model directory on a task split")
    p_eval.add_argument("--model-dir", required=True)
    p_eval.add_argument("--task", required=True, choices=list(TASK_KINDS))
    p_eval.add_argument("--split", required=True)
    p_eval.add_argument("--task-seed", type=int, default=0)
    p_eval.add_argument("--out", help="write the EvalResult JSON here")

    p_cmp = sub.add_parser("compare", help="merge prune reports into curve CSVs")
    p_cmp.add_argument("reports", nargs="+", help="report.json files")
    p_cmp.add_argument("--out", required=True, help="output directory for CSVs")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1

    try:
        if args.command == "prune":
            report = cmd_prune(_build_config(args))
            print(json.dumps(
                {
                    "out_dir": report.config.out_dir,
                    "achieved_global_sparsity": report.achieved["global_sparsity"],
                    "pruned_loss": report.eval_pruned.loss,
                    "forward_passes": report.forward_passes["total"],
                },
                sort_keys=True,
            ))
        elif args.command == "score":
            summary = cmd_score(_build_config(args))
            print(json.dumps(summary, sort_keys=True))
        elif args.command == "eval":
            result = cmd_eval(
                args.model_dir, args.task, args.split, args.task_seed, args.out
            )
            print(json.dumps(result.to_json(), sort_keys=True))
        else:
            summary = cmd_compare(args.reports, args.out)
            print(json.dumps(summary, sort_keys=True))
        return 0
    except CoarseFineError as e:
        sys.stderr.write(
            json.dumps(
                {
                    "error": type(e).__name__,
                    "message": str(e),
                    "exit_code": e.exit_code,
                }
            )
            + "\n"
        )
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
