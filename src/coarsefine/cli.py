"""Command-line entry point.

Subcommands: ``prune`` (full coarse-to-fine run), ``score`` (coarse step
only), ``eval`` (metrics of a model directory on a task split) and
``compare`` (merge prune reports into curve CSVs).  A JSON config file
may supply any field; explicit flags override it.  Exit codes: 0 success,
1 usage error (a bad command line included), 2 data/model error or an
output path that cannot be written, 3 numerical error; failures print
one JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import CoarseFineError, ModelFormatError, UsageError
from .io import read_json
from .localprune import FINE_METHODS
from .pipeline import COARSE_MODES, RunConfig, cmd_compare, cmd_eval, cmd_prune, cmd_score
from .tasks import SPLITS, TASK_KINDS


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, not as usage text."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


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
        try:
            base = read_json(args.config)
        except ModelFormatError as e:  # a bad config is a bad command line
            raise UsageError(f"config file: {e}") from e
    config = RunConfig.from_json(base)
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    for required, flag in (("model_dir", "--model-dir"), ("calib_path", "--calib"),
                           ("out_dir", "--out")):
        if not getattr(config, required):
            raise UsageError(f"missing required option {flag}")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_eval.add_argument("--split", required=True, choices=SPLITS)
    p_eval.add_argument("--task-seed", type=int, default=0)
    p_eval.add_argument("--out", help="write the EvalResult JSON here")

    p_cmp = sub.add_parser("compare", help="merge prune reports into curve CSVs")
    p_cmp.add_argument("reports", nargs="+", help="report.json files")
    p_cmp.add_argument("--out", required=True, help="output directory for CSVs")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1
    except (CoarseFineError, OSError) as e:  # OSError: an unwritable output path
        code = getattr(e, "exit_code", 2)
        sys.stderr.write(
            json.dumps({"error": type(e).__name__, "message": str(e), "exit_code": code})
            + "\n"
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
