"""End-to-end runs: configuration, the prune/score/eval/compare commands,
and artifact persistence.

A prune run writes into its output directory: ``report.json`` (the
byte-deterministic record: config echo, scores, plan, achieved
sparsities, dense and pruned evaluation, forward-pass counts),
``scores.json``, ``plan.json``, ``masks/``, ``pruned_model/`` and a
``timing.json`` sidecar (wall clock lives outside report.json so two
identical runs produce byte-identical reports).  Dense and pruned models
are evaluated on the calibration batch after a round trip through the
on-disk float32 format, so reported metrics match what a reload sees.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import io as cfio
from .allocation import SparsityPlan, allocate_sparsity
from .baselines import local_layer_scores
from .errors import InputError, UsageError
from .evaluation import EvalResult, evaluate, evaluate_on_batch, write_csv
from .io import NUMBER, _field
from .localprune import FINE_METHODS, sequential_prune
from .model import CalibrationSet, ModelGraph
from .scoring import ScoreMap, aggregate_to_layers, first_order_saliency, magnitude_scores
from .tasks import TASK_KINDS, make_task
from .zograd import BufferMeter, ZOConfig, zo_all_scores

COARSE_MODES = ("zeroth", "first", "magnitude", "uniform", "local")
# accepted JSON types per RunConfig annotation: floats take ints too
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass
class RunConfig:
    """Everything a prune/score run needs; defaults follow the toolkit's
    standard recipe (K=32 samples, 1 noise, eps=1e-3, p_max=p+0.1,
    block granularity)."""

    model_dir: str = ""
    calib_path: str = ""
    out_dir: str = ""
    sparsity: float = 0.5
    max_sparsity: float | None = None
    coarse: str = "zeroth"
    fine: str = "wanda"
    granularity: str = "block"
    samples: int = 32
    noises: int = 1
    epsilon: float = 1e-3
    hessian_lambda: float | None = None
    seed: int = 0
    aggregation: str = "sum"
    norm_exponent: int = 1

    def effective_max_sparsity(self) -> float:
        if self.max_sparsity is not None:
            return self.max_sparsity
        return min(self.sparsity + 0.1, 1.0)

    def validate(self) -> None:
        if not 0 <= self.sparsity < 1:
            raise UsageError(f"--sparsity must be in [0, 1), got {self.sparsity}")
        pmax = self.effective_max_sparsity()
        if not self.sparsity < pmax <= 1:
            raise UsageError(
                f"--max-sparsity must satisfy sparsity < p_max <= 1, got {pmax}"
            )
        if self.coarse not in COARSE_MODES:
            raise UsageError(f"--coarse must be one of {COARSE_MODES}")
        if self.fine not in FINE_METHODS:
            raise UsageError(f"--fine must be one of {FINE_METHODS}")
        if self.granularity not in ("layer", "block"):
            raise UsageError("--granularity must be layer or block")
        if self.samples < 1:
            raise UsageError("--samples must be >= 1")
        if self.noises < 1:
            raise UsageError("--noises must be >= 1")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise UsageError(f"--epsilon must be finite and positive, got {self.epsilon}")
        lam = self.hessian_lambda
        if lam is not None and not (math.isfinite(lam) and lam >= 0):
            raise UsageError(f"--lambda must be finite and nonnegative, got {lam}")
        if self.seed < 0:
            raise UsageError("--seed must be nonnegative")
        if self.aggregation not in ("sum", "mean"):
            raise UsageError("--aggregation must be sum or mean")
        if self.norm_exponent not in (1, 2):
            raise UsageError("--norm-exponent must be 1 or 2")

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["max_sparsity"] = self.effective_max_sparsity()
        obj["lambda"] = obj.pop("hessian_lambda")
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        obj = dict(obj)
        if "lambda" in obj:
            obj["hessian_lambda"] = obj.pop("lambda")
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        stray = set(obj) - set(known)
        if stray:
            raise UsageError(f"unknown config fields: {sorted(stray)}")
        for name, value in known.items():
            kind = cls.__dataclass_fields__[name].type  # e.g. "int", "float | None"
            if value is None and kind.endswith("| None"):
                continue
            accepted = _JSON_TYPES[kind.split(" |")[0]]
            # bool is an int subclass but never a valid config value
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise UsageError(f"config field {name!r} must be {kind}, got {value!r}")
        return cls(**known)


@dataclass
class PruneReport:
    config: RunConfig
    score_map: ScoreMap
    plan: SparsityPlan
    achieved: dict
    eval_dense: EvalResult
    eval_pruned: EvalResult
    forward_passes: dict
    wall_clock_seconds: float

    def to_json(self) -> dict:
        # wall clock deliberately excluded: reports must be byte-identical
        # across reruns (the timing sidecar carries it)
        return {
            "format_version": cfio.FORMAT_VERSION,
            "config": self.config.to_json(),
            "score_map": self.score_map.to_json(),
            "sparsity_plan": self.plan.to_json(),
            "achieved": self.achieved,
            "eval_dense": self.eval_dense.to_json(),
            "eval_pruned": self.eval_pruned.to_json(),
            "forward_passes": self.forward_passes,
        }


def _load_inputs(config: RunConfig) -> tuple[ModelGraph, CalibrationSet]:
    model = cfio.load_model(config.model_dir)
    calib = cfio.load_calibration(config.calib_path)
    if calib.count < config.samples:
        raise InputError(
            f"calibration file holds {calib.count} samples, config asks for "
            f"{config.samples}"
        )
    batch = CalibrationSet(calib.samples[: config.samples])
    return model, batch


def compute_scores(
    config: RunConfig, model: ModelGraph, batch: CalibrationSet
) -> tuple[ScoreMap, int]:
    """The coarse step: one global importance score per layer.

    Returns the ScoreMap and the number of forward passes spent.
    """
    before = model.forward_count
    if config.coarse == "zeroth":
        cfg = ZOConfig(
            epsilon=config.epsilon, noises_per_sample=config.noises, seed=config.seed
        )
        scores = zo_all_scores(model, batch, cfg, meter=BufferMeter())
    elif config.coarse == "first":
        element = first_order_saliency(model, batch)
        scores = aggregate_to_layers(
            element,
            mode=config.aggregation,
            method="first_order",
            seed=config.seed,
            sample_count=batch.count,
        )
    elif config.coarse == "magnitude":
        element = magnitude_scores(model)
        scores = aggregate_to_layers(
            element, mode=config.aggregation, method="magnitude", seed=config.seed
        )
    elif config.coarse == "uniform":
        scores = ScoreMap(
            entries={l.name: float(l.size) for l in model.prunable_layers()},
            method="uniform",
            aggregation="sum",
            seed=config.seed,
        )
    else:  # local
        scores = local_layer_scores(
            model,
            batch,
            config.fine,
            norm_exponent=config.norm_exponent,
            lam=config.hessian_lambda,
        )
    return scores, model.forward_count - before


def cmd_score(config: RunConfig) -> dict:
    """Coarse step only: write scores.json, return a run summary."""
    config.validate()
    model, batch = _load_inputs(config)
    scores, forwards = compute_scores(config, model, batch)
    out = Path(config.out_dir)
    scores.save(out / "scores.json")
    summary = {
        "score_file": str(out / "scores.json"),
        "forward_passes": forwards,
        "layers_scored": len(scores.entries),
        "method": scores.method,
    }
    cfio.write_json(summary, out / "score_summary.json")
    return summary


def cmd_prune(config: RunConfig) -> PruneReport:
    """Coarse scoring -> allocation -> sequential fine pruning -> evaluation.

    Writes the pruned model, masks, plan, scores, report and timing into
    config.out_dir.
    """
    config.validate()
    t0 = time.perf_counter()
    model, batch = _load_inputs(config)
    out = Path(config.out_dir)

    eval_dense = evaluate_on_batch(model, batch, task="calibration", split="calib")
    dense_forwards = model.forward_count
    model.forward_count = 0

    scores, scoring_forwards = compute_scores(config, model, batch)
    plan = allocate_sparsity(
        scores,
        model,
        target_p=config.sparsity,
        p_max=config.effective_max_sparsity(),
        granularity="layer" if config.coarse == "uniform" else config.granularity,
    )
    model.forward_count = 0
    pruned, masks, recon = sequential_prune(
        model,
        plan,
        batch,
        config.fine,
        norm_exponent=config.norm_exponent,
        lam=config.hessian_lambda,
    )
    pruning_forwards = model.forward_count + pruned.forward_count

    cfio.save_model(pruned, out / "pruned_model")
    cfio.save_masks(masks, out / "masks")
    reloaded = cfio.load_model(out / "pruned_model")
    eval_pruned = evaluate_on_batch(
        reloaded, batch, masks=masks, reconstruction=recon,
        task="calibration", split="calib",
    )
    eval_forwards = reloaded.forward_count + dense_forwards

    report = PruneReport(
        config=config,
        score_map=scores,
        plan=plan,
        achieved={
            "per_layer": eval_pruned.per_layer_sparsity,
            "global_sparsity": eval_pruned.global_sparsity,
        },
        eval_dense=eval_dense,
        eval_pruned=eval_pruned,
        forward_passes={
            "scoring": scoring_forwards,
            "pruning": pruning_forwards,
            "evaluation": eval_forwards,
            "total": scoring_forwards + pruning_forwards + eval_forwards,
        },
        wall_clock_seconds=time.perf_counter() - t0,
    )
    scores.save(out / "scores.json")
    plan.save(out / "plan.json")
    cfio.write_json(report.to_json(), out / "report.json")
    cfio.write_json({"wall_clock_seconds": report.wall_clock_seconds}, out / "timing.json")
    return report


def cmd_eval(
    model_dir: str,
    task_kind: str,
    split: str,
    task_seed: int = 0,
    out_path: str | None = None,
) -> EvalResult:
    """Evaluate a model directory on a named task split.

    Writes JSON by default; a ``.csv`` out path gets the flat row form.
    """
    if task_kind not in TASK_KINDS:
        raise UsageError(f"--task must be one of {TASK_KINDS}")
    model = cfio.load_model(model_dir)
    task = make_task(task_kind, seed=task_seed)
    result = evaluate(model, task, split)
    if out_path:
        if str(out_path).endswith(".csv"):
            write_csv([result.to_row()], Path(out_path))
        else:
            cfio.write_json(result.to_json(), out_path)
    return result


def cmd_compare(report_paths: list[str], out_dir: str) -> dict:
    """Merge prune reports into curve CSVs (metric vs sparsity, per-layer
    sparsity table)."""
    if not report_paths:
        raise UsageError("compare needs at least one report")
    reports = []
    for p in report_paths:
        obj = cfio.read_json(p)
        if obj.get("format_version") != cfio.FORMAT_VERSION:
            raise InputError(f"{p}: unsupported report format version")
        config = _field(obj, "config", dict, p)
        pruned = _field(obj, "eval_pruned", dict, p)
        where = f"{p} config"
        reports.append((
            f'{_field(config, "coarse", str, where)}-{_field(config, "fine", str, where)}',
            _field(config, "sparsity", NUMBER, where),
            {m: _field(pruned, m, NUMBER + (type(None),), f"{p} eval_pruned", None)
             for m in ("loss", "accuracy", "perplexity")},
            _field(_field(obj, "achieved", dict, p), "global_sparsity", NUMBER,
                   f"{p} achieved"),
            SparsityPlan.from_json(_field(obj, "sparsity_plan", dict, p)),
        ))
    if len({tuple(sorted(r[-1].per_layer)) for r in reports}) > 1:
        raise InputError("reports come from incompatible model fixtures")

    curve_rows = []
    layer_rows = []
    for method, sparsity, metrics, achieved, plan in reports:
        for metric, value in metrics.items():
            if value is None:
                continue
            curve_rows.append(
                {"method": method, "sparsity": sparsity, "metric": metric, "value": value}
            )
        curve_rows.append(
            {
                "method": method,
                "sparsity": sparsity,
                "metric": "achieved_global_sparsity",
                "value": achieved,
            }
        )
        for layer, entry in sorted(plan.per_layer.items()):
            layer_rows.append(
                {
                    "method": method,
                    "sparsity": sparsity,
                    "layer": layer,
                    "layer_sparsity": entry.sparsity,
                    "keep_count": entry.keep_count,
                    "size": entry.size,
                }
            )
    curve_rows.sort(key=lambda row: (row["sparsity"], row["method"], row["metric"]))
    layer_rows.sort(key=lambda row: (row["sparsity"], row["method"], row["layer"]))

    out = Path(out_dir)
    write_csv(curve_rows, out / "comparison.csv")
    write_csv(layer_rows, out / "per_layer_sparsity.csv")
    return {
        "comparison_csv": str(out / "comparison.csv"),
        "per_layer_csv": str(out / "per_layer_sparsity.csv"),
        "reports": len(reports),
    }
