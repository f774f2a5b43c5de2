"""End-to-end runs: configuration, the prune/score/eval/compare commands,
and artifact persistence.

A prune run writes into its output directory: ``report.json`` (the
byte-deterministic record: config echo, scores, plan, achieved
sparsities, dense and pruned evaluation, forward-pass counts),
``scores.json``, ``plan.json``, ``masks/``, ``pruned_model/`` and a
``timing.json`` sidecar (wall clock lives outside report.json so two
identical runs produce byte-identical reports).  An earlier run's JSON
files are removed first and ``report.json`` is written last, so a run
that fails leaves no report and no stale plan or scores.  Once the
inputs are loaded, the layer files that an earlier run's
``pruned_model/manifest.json`` or ``masks/masks.json`` names and this
run does not write (another model's layers) are removed too; a
directory without that index is left alone (:func:`io.remove_stale`).
Every output is a new file (see :mod:`coarsefine.io`): an earlier run's
file of that name is unlinked, never written through, so a hard link to
it or the target of a symlink in its place keeps its bytes.  A run that fails
after its first write removes the files it created, then ``masks/``,
``pruned_model/`` and an ``--out`` it made, each only if left empty; a
file it did not create stays.  A symlink at ``OUT/pruned_model`` or
``OUT/masks`` is refused before the inputs are read, so no write or
cleanup goes through it.  Inputs are loaded whole before the first
write, so ``--model-dir`` may be ``OUT/pruned_model`` itself.  Dense and
pruned models are evaluated on the calibration batch as the on-disk
float32 format holds them, so reported metrics match what a reload sees.

A prune runs load, coarse scoring, dense evaluation, allocation, the
fine pass, save, and the pruned evaluation, in that order.
Zeroth-order scoring carries the dense model's clean activation through
every layer, so it is the run's dense forward: the dense evaluation runs
on from the last clean activation it formed (past the last layer, the
loss alone) and counts K forwards, as a suffix forward does.  Scoring
holds that activation at its end anyway, and it is dropped before
allocation.  The other scorers form none, and the dense evaluation runs
from layer 0.  Scoring restores every weight bit for bit, so the dense
evaluation sees the model as loaded.  Likewise the fine pass carries the
pruned model's activation through every layer, and under wanda and
magnitude the pruned evaluation runs on from its output: those methods
only zero weights of a model read from float32, so the model in memory
is its reload bit for bit.  Sparsegpt's refit weights round on save, so
its pruned evaluation reads the reload, with the pruned model dropped
first.

A prune holds one model's weights: the fine pass prunes each layer in
its own weight array, after the reconstruction GEMM has read the dense
weight for the last time.  Sparsegpt eliminates in that array; wanda
forms one block of rows of scores at a time, partitions it in place and
forms it again for the comparisons, and its mask is ANDed in by row
block, so past the model the fine pass holds the layer's mask, the
sparsegpt inverse Hessian and its update buffer, and block-sized
temporaries.  The calibration batch is held only stacked, converted
from float32 once, and ``--samples`` takes a prefix of its rows without
a copy.  The pruned model is saved one bounded float32 chunk at a time,
and the pruned evaluation holds it or, under sparsegpt, its reload alone.
Past the weights and the batch, a loss-only forward holds one layer's
input and output at a time, because it applies bias, activation and
loss in buffers it owns, and gelu adds one bounded block (see
:mod:`coarsefine.model`).  Zeroth-order scoring of a layer whose
d_out*d_in weights outnumber 3*N*d_out + N^2 (N input rows; see
:mod:`coarsefine.zograd`) holds those elements: its clean
pre-activation, the noise g, the noise L g drawn through the N x N
factor L of h h^T, and L, with the weight never written; its clean
input h is dropped once the pre-activation and L are formed.  Any other
layer holds its clean input and one layer-sized buffer, the perturbed
weight the noise is drawn into.  The fine pass adds one output-sized
array for the reconstruction error.
"""

# no "from __future__ import annotations": RunConfig.value_type reads field types
import math
import time
from dataclasses import Field, dataclass, field, fields, make_dataclass
from pathlib import Path
from typing import get_args

from . import io as cfio
from .allocation import GRANULARITIES, SparsityPlan, allocate_sparsity, default_p_max
from .baselines import local_layer_scores
from .errors import InputError, ModelFormatError, UsageError
from .evaluation import _METRICS, EvalResult, evaluate, evaluate_on_batch, write_csv
from .localprune import FINE_METHODS, NORM_EXPONENTS, sequential_prune
from .model import CalibrationSet, ModelGraph
from .scoring import (
    ELEMENT_AGGREGATIONS, ScoreMap, aggregate_to_layers, first_order_saliency,
    magnitude_scores, uniform_scores,
)
from .tasks import TASK_KINDS, make_task
from .zograd import BufferMeter, ZOConfig, zo_all_scores

# coarse mode -> scorer (config, model, batch, handoff) -> ScoreMap, handoff as
# compute_scores' _handoff; a scorer looks its callees up when it runs, so
# wrappers and monkeypatches of this module reach them
_COARSE = {
    "zeroth": lambda config, model, batch, handoff: zo_all_scores(model, batch, ZOConfig(
        epsilon=config.epsilon, noises_per_sample=config.noises, seed=config.seed),
        meter=BufferMeter(), _handoff=handoff),
    "first": lambda config, model, batch, _: aggregate_to_layers(
        first_order_saliency(model, batch), mode=config.aggregation, method="first_order",
        seed=config.seed, sample_count=batch.count),
    "magnitude": lambda config, model, batch, _: aggregate_to_layers(
        magnitude_scores(model), mode=config.aggregation, method="magnitude",
        seed=config.seed),
    "uniform": lambda config, model, batch, _: uniform_scores(model, seed=config.seed),
    "local": lambda config, model, batch, _: local_layer_scores(
        model, batch, config.fine, norm_exponent=config.norm_exponent,
        lam=config.hessian_lambda),
}
COARSE_MODES = tuple(_COARSE)
# 10**6 noises already cost 2*L*K*10**6 forwards and an 8*K*10**6-byte
# buffer per layer, and no recipe here uses more than 10**4; a larger
# count could only fail deep in numpy, as a traceback
MAX_NOISES = 10**6


def _option(default, help: str, *, choices: tuple | None = None, flag: str = "",
            json: str = "", required: bool = False):
    """A RunConfig field declared with its option: the help text, the allowed
    values, the flag (default --<name-with-dashes>), the JSON name (default
    the field name) and whether a run needs a nonempty value."""
    return field(default=default, metadata=dict(
        help=help, choices=choices, flag=flag, json=json, required=required))


@dataclass
class RunConfig:
    """Everything a prune/score run needs; defaults follow the toolkit's
    standard recipe (K=32 samples, 1 noise, eps=1e-3, p_max=p+0.1,
    block granularity).  Each field declares its command-line option."""

    model_dir: str = _option("", "model directory (manifest.json + .bin files)",
                             required=True)
    calib_path: str = _option("", "calibration index JSON", flag="--calib", required=True)
    out_dir: str = _option("", "output directory", flag="--out", required=True)
    sparsity: float = _option(0.5, "global target sparsity p in [0,1)")
    max_sparsity: float | None = _option(None, "per-layer cap (default p+0.1)")
    coarse: str = _option("zeroth", "coarse (global) layer score", choices=COARSE_MODES)
    fine: str = _option("wanda", "fine (local) pruning method", choices=FINE_METHODS)
    granularity: str = _option("block", "unit the sparsity budget is allocated to",
                               choices=GRANULARITIES)
    samples: int = _option(32, "calibration samples K (default 32)")
    noises: int = _option(1, f"noises per sample, at most {MAX_NOISES} (default 1)")
    epsilon: float = _option(1e-3, "perturbation scale (default 1e-3)")
    hessian_lambda: float | None = _option(
        None, "Hessian damping (default 0.01 * mean diag)", flag="--lambda", json="lambda")
    seed: int = _option(0, "random seed (default 0)")
    aggregation: str = _option("sum", "element-to-layer score aggregation",
                               choices=ELEMENT_AGGREGATIONS)
    norm_exponent: int = _option(1, "wanda activation norm exponent", choices=NORM_EXPONENTS)

    @staticmethod
    def flag(f: Field) -> str:
        return f.metadata["flag"] or "--" + f.name.replace("_", "-")

    @staticmethod
    def value_type(f: Field) -> type:
        """int, float or str: the field's type without its "| None"."""
        return (get_args(f.type) or (f.type,))[0]

    def effective_max_sparsity(self) -> float:
        if self.max_sparsity is not None:
            return self.max_sparsity
        return default_p_max(self.sparsity)

    def validate(self) -> None:
        pmax, eps, lam = self.effective_max_sparsity(), self.epsilon, self.hessian_lambda
        ranges = {  # field: (holds, rule)
            "sparsity": (0 <= self.sparsity < 1, "in [0, 1)"),
            "max_sparsity": (self.sparsity < pmax <= 1, "in (sparsity, 1]"),
            "samples": (self.samples >= 1, ">= 1"),
            "noises": (1 <= self.noises <= MAX_NOISES, f"in [1, {MAX_NOISES}]"),
            "epsilon": (math.isfinite(eps) and eps > 0, "finite and positive"),
            "hessian_lambda":
                (lam is None or (math.isfinite(lam) and lam >= 0), "finite and nonnegative"),
            "seed": (self.seed >= 0, "nonnegative"),
        }
        for f in fields(self):
            value, choices, flag = getattr(self, f.name), f.metadata["choices"], self.flag(f)
            if f.metadata["required"] and not value:
                raise UsageError(f"missing required option {flag}")
            if choices is not None and value not in choices:
                raise UsageError(f"{flag} must be one of {choices}, got {value!r}")
            holds, rule = ranges.get(f.name, (True, ""))
            if not holds:
                raise UsageError(f"{flag} must be {rule}, got {value}")

    def to_json(self) -> dict:
        obj = {f.metadata["json"] or f.name: getattr(self, f.name) for f in fields(self)}
        obj["max_sparsity"] = self.effective_max_sparsity()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        """The config a ``--config`` file sets, the defaults filling in any
        field it leaves out; a stray or mistyped field is a ModelFormatError.
        A float field holds a float, as its flag gives, even for a JSON integer."""
        defaults = {f.metadata["json"] or f.name: f.default for f in fields(cls)}
        stray = set(obj) - set(defaults)
        if stray:
            raise ModelFormatError(f"config: unknown fields {sorted(stray)}")
        return cfio.read_record(cls, {**defaults, **obj}, "config")


_Achieved = make_dataclass("_Achieved", [("global_sparsity", float)])  # what compare reads


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
    return model, CalibrationSet.stacked(calib.xs[: config.samples], calib.ys[: config.samples])


def compute_scores(
    config: RunConfig, model: ModelGraph, batch: CalibrationSet, *,
    _handoff: list | None = None,
) -> tuple[ScoreMap, int]:
    """The coarse step: one global importance score per layer.

    Returns the ScoreMap and the number of forward passes spent.
    _handoff (for :func:`cmd_prune`), a list, receives (the dense model's
    clean activation, index of the layer it is the input of) from a
    scorer that carried one through the model (zeroth order); the others
    leave it empty.
    """
    if config.coarse not in _COARSE:
        raise InputError(f"coarse mode must be one of {COARSE_MODES}, got {config.coarse!r}")
    before = model.forward_count
    scores = _COARSE[config.coarse](config, model, batch, _handoff)
    return scores, model.forward_count - before


def cmd_score(config: RunConfig) -> dict:
    """Coarse step only: write scores.json, return a run summary.

    Stale scores and score summary in config.out_dir are removed first; the
    summary is written last, and a failed write removes what the run made.
    """
    config.validate()
    out = Path(config.out_dir)
    for name in ("score_summary.json", "scores.json"):  # stale
        (out / name).unlink(missing_ok=True)
    model, batch = _load_inputs(config)
    scores, forwards = compute_scores(config, model, batch)
    summary = {
        "score_file": str(out / "scores.json"),
        "forward_passes": forwards,
        "layers_scored": len(scores.entries),
        "method": scores.method,
    }
    with cfio.removed_on_failure(*(() if out.exists() else (out,))):
        scores.save(out / "scores.json")
        cfio.write_json(summary, out / "score_summary.json")
    return summary


def cmd_prune(config: RunConfig) -> PruneReport:
    """Coarse scoring -> dense evaluation -> allocation -> sequential fine
    pruning -> save -> pruned evaluation; each evaluation runs on from the
    pass before it where the module docstring says it may.

    Writes the pruned model, masks, plan, scores, timing and, last, the
    report into config.out_dir, after removing any stale report, timing,
    score summary, plan or scores there.  A failure after the first write
    removes what the run wrote (see the module docstring).
    """
    config.validate()
    t0 = time.perf_counter()
    out = Path(config.out_dir)
    for name in ("report.json", "timing.json", "score_summary.json", "plan.json",
                 "scores.json"):  # stale
        (out / name).unlink(missing_ok=True)
    for name in ("pruned_model", "masks"):
        if (out / name).is_symlink():  # the writes and the cleanup would go through it
            raise InputError(f"{out / name} is a symlink; prune writes a directory there")
    model, batch = _load_inputs(config)
    # another model's run may have left layer files this one does not write
    layers = model.layers()
    cfio.remove_stale(out / "pruned_model", "manifest.json",
                      {f for l in layers for f in cfio.tensor_files(l.name, l.bias is not None)})
    cfio.remove_stale(out / "masks", "masks.json",
                      {cfio.mask_file(l.name) for l in layers if not l.frozen})

    handoff = []
    scores, scoring_forwards = compute_scores(config, model, batch, _handoff=handoff)
    # the dense forward runs on from the clean activation scoring formed, if any
    h, at = handoff.pop() if handoff else (None, 0)
    before = model.forward_count
    eval_dense = evaluate_on_batch(model, batch, start=at, layer_input=h,
                                   task="calibration", split="calib")
    dense_forwards = model.forward_count - before
    del h

    plan = allocate_sparsity(
        scores,
        model,
        target_p=config.sparsity,
        p_max=config.effective_max_sparsity(),
        granularity="layer" if config.coarse == "uniform" else config.granularity,
    )
    # the pruned evaluation runs on from the fine pass's output unless the
    # saved weights round, as sparsegpt's refit ones do (see the module docstring)
    handoff = None if config.fine == "sparsegpt" else []
    before = model.forward_count
    # pruned in place: each layer's fine step writes into its own weight array
    model, masks, recon = sequential_prune(
        model,
        plan,
        batch,
        config.fine,
        norm_exponent=config.norm_exponent,
        lam=config.hessian_lambda,
        out=model,
        _handoff=handoff,
    )
    pruning_forwards = model.forward_count - before

    # nothing is written before this point, so an --out missing here is the run's own
    with cfio.removed_on_failure(out / "pruned_model", out / "masks",
                                 *(() if out.exists() else (out,))):
        cfio.save_model(model, out / "pruned_model")
        cfio.save_masks(masks, out / "masks")
        if handoff:
            h, at = handoff.pop()
        else:
            del model  # not held while its reload is
            model, h, at = cfio.load_model(out / "pruned_model"), None, 0
        before = model.forward_count
        eval_pruned = evaluate_on_batch(
            model, batch, masks=masks, reconstruction=recon, start=at, layer_input=h,
            task="calibration", split="calib",
        )
        eval_forwards = model.forward_count - before + dense_forwards

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
        cfio.write_json({"wall_clock_seconds": report.wall_clock_seconds}, out / "timing.json")
        cfio.write_json(report.to_json(), out / "report.json")  # last: the run is complete
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
    if task_seed < 0:
        raise UsageError("--task-seed must be nonnegative")
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
    curve_rows, layer_rows, fixtures = [], [], set()
    for p in report_paths:
        obj = cfio.read_json(p)
        cfio.check_version(obj, f"report {p}")
        config = cfio.read_record(RunConfig, obj.get("config"), f"{p} config")
        try:
            config.validate()
        except UsageError as e:  # a value no prune run writes
            raise ModelFormatError(f"{p} config: {e}") from e
        pruned = cfio.read_record(EvalResult, obj.get("eval_pruned"), f"{p} eval_pruned")
        achieved = cfio.read_record(_Achieved, obj.get("achieved"), f"{p} achieved")
        plan = SparsityPlan.from_json(obj.get("sparsity_plan"))
        run = {"method": f"{config.coarse}-{config.fine}", "sparsity": config.sparsity}
        metrics = {m: getattr(pruned, m) for m in _METRICS if m != "global_sparsity"}
        metrics["achieved_global_sparsity"] = achieved.global_sparsity
        curve_rows += [{**run, "metric": metric, "value": value}
                       for metric, value in metrics.items() if value is not None]
        layer_rows += [{**run, "layer": layer, "layer_sparsity": entry.sparsity,
                        "keep_count": entry.keep_count, "size": entry.size}
                       for layer, entry in sorted(plan.per_layer.items())]
        fixtures.add(tuple(sorted(plan.per_layer)))
    if len(fixtures) > 1:
        raise InputError("reports come from incompatible model fixtures")
    curve_rows.sort(key=lambda row: (row["sparsity"], row["method"], row["metric"]))
    layer_rows.sort(key=lambda row: (row["sparsity"], row["method"], row["layer"]))

    out = Path(out_dir)
    write_csv(curve_rows, out / "comparison.csv")
    write_csv(layer_rows, out / "per_layer_sparsity.csv")
    return {
        "comparison_csv": str(out / "comparison.csv"),
        "per_layer_csv": str(out / "per_layer_sparsity.csv"),
        "reports": len(report_paths),
    }
