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
import functools
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .errors import CoarseFineError, ModelFormatError, UsageError
from .io import read_json
from .pipeline import RunConfig, cmd_compare, cmd_eval, cmd_prune, cmd_score
from .tasks import SPLITS, TASK_KINDS


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, not as usage text."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    for f in fields(RunConfig):
        p.add_argument(RunConfig.flag(f), dest=f.name, type=RunConfig.value_type(f),
                       choices=f.metadata["choices"], help=f.metadata["help"])


def _build_config(args: argparse.Namespace) -> RunConfig:
    try:
        config = RunConfig.from_json(read_json(args.config) if args.config else {})
    except ModelFormatError as e:  # a bad config is a bad command line
        raise UsageError(str(e)) from e
    given = {f.name: v for f in fields(RunConfig) if (v := getattr(args, f.name)) is not None}
    return replace(config, **given)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every :func:`main` call.

    Parsing leaves it unchanged; callers must not change it either."""
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
    p_eval.add_argument("--out", help="write the EvalResult here: JSON, or for a path "
                        "ending in .csv one CSV row")

    p_cmp = sub.add_parser("compare", help="merge prune reports into curve CSVs")
    p_cmp.add_argument("reports", nargs="+", help="report.json files")
    p_cmp.add_argument("--out", required=True, help="output directory for CSVs")

    return parser


def _run(args: argparse.Namespace) -> dict:
    """Run the parsed command; returns its one-line stdout summary."""
    if args.command == "prune":
        report = cmd_prune(_build_config(args))
        return {
            "out_dir": report.config.out_dir,
            "achieved_global_sparsity": report.achieved["global_sparsity"],
            "pruned_loss": report.eval_pruned.loss,
            "forward_passes": report.forward_passes["total"],
        }
    if args.command == "score":
        return cmd_score(_build_config(args))
    if args.command == "eval":
        result = cmd_eval(args.model_dir, args.task, args.split, args.task_seed, args.out)
        return result.to_json()
    return cmd_compare(args.reports, args.out)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numpy's overflow warnings would print before the one JSON error
        # line; the finite checks already raise a NumericalError for them
        with np.errstate(all="ignore"):
            summary = _run(args)
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
