"""Outside-in spans: wrap the program's functions where they are looked up.

``Tracer.install`` replaces module attributes (``coarsefine.pipeline.
compute_scores``, ``coarsefine.zograd.perturb_replay``, ...) with timing
wrappers and ``Tracer.uninstall`` puts the originals back.  Nothing in
``src/`` knows about it.  Spans are kept in memory as
``(call, id, parent, name, label, start, end)`` and summarised per call by
``call_metrics``; a benchmark run writes them out when it ends.

Labels come from ``layer.name`` or a name argument, never from
``str(LayerSpec)``, whose repr prints the whole weight array.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any


def _label_from_layer_name(args, kwargs) -> str:
    return kwargs["layer_name"] if len(args) < 2 else args[1]


def _label_from_layer(args, kwargs) -> str:
    return (args[0] if args else kwargs["layer"]).name


def _pruned_count(result) -> int:
    # sparsegpt returns (mask, new_weights); the other criteria the mask
    mask = result[0] if isinstance(result, tuple) else result
    return int((~mask).sum())


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


# (module, attribute, span name, label from (args, kwargs),
#  (counter, amount from the result))
WRAPS = (
    ("coarsefine.pipeline", "compute_scores", "pipeline.compute_scores", None, None),
    ("coarsefine.pipeline", "evaluate_on_batch", "evaluation.eval", None, None),
    ("coarsefine.pipeline", "allocate_sparsity", "allocation.allocate", None, None),
    ("coarsefine.pipeline", "sequential_prune", "localprune.sequential", None, None),
    ("coarsefine.pipeline", "first_order_saliency", "scoring.first_order", None, None),
    ("coarsefine.io", "load_model", "io.load_model", None, None),
    ("coarsefine.io", "load_calibration", "io.load_calibration", None, None),
    ("coarsefine.io", "save_model", "io.save_model", None, ("io.bytes_written", _dir_bytes)),
    ("coarsefine.io", "save_masks", "io.save_masks", None, ("io.bytes_written", _dir_bytes)),
    ("coarsefine.zograd", "zo_layer_score", "zograd.layer", _label_from_layer_name, None),
    ("coarsefine.zograd", "perturb_replay", "zograd.perturb", None, None),
    ("coarsefine.zograd", "per_sample_losses", "zograd.forward", None, None),
    ("coarsefine.localprune", "build_hessian", "localprune.hessian", None, None),
) + tuple(
    ("coarsefine.localprune", f"{method}_prune_layer", "localprune.layer", _label_from_layer,
     ("localprune.pruned_weights", _pruned_count))
    for method in ("wanda", "magnitude", "sparsegpt")
)

# Forward-only entry points of coarsefine.model, wrapped at every other
# module that imported them (sites already in WRAPS keep their own span).
MODEL_FORWARDS = (
    "per_sample_losses", "forward_loss", "forward_outputs", "forward_with_activations",
)
FORWARD_SPANS = ("model.forward", "zograd.forward")


@dataclass
class Span:
    call: int
    id: int
    parent: int | None
    name: str
    label: str | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.meters: dict[int, list] = defaultdict(list)
        self.missing: set[str] = set()
        self.call = 0
        self._stack: list[Span] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, label: str | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.call, len(self.spans), parent, name, label, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, original, name, label, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name, label(args, kwargs) if label else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if counter:
                self.counters[self.call, counter[0]] += counter[1](result)
            return result

        return traced

    def _recording_meter(self, base):
        tracer = self

        class RecordingMeter(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.meters[tracer.call].append(self)

        return RecordingMeter

    # -- installation ----------------------------------------------------

    def _replace(self, module, attr: str, new) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        """Wrap every site in WRAPS, the model forwards, and BufferMeter.

        A site the program no longer has is listed in ``missing`` and its
        metrics stay zero.
        """
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, label, counter in WRAPS:
            module = _module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._replace(module, attr, self._wrapper(fn, name, label, counter))
        model = _module("coarsefine.model")
        for module_name, module in sorted(_coarsefine_modules().items()):
            for attr in MODEL_FORWARDS:
                fn = getattr(model, attr, None)
                # sites wrapped above no longer hold the original
                if module is not model and fn is not None and getattr(module, attr, None) is fn:
                    self._replace(module, attr, self._wrapper(fn, "model.forward", None, None))
        pipeline = _module("coarsefine.pipeline")
        if isinstance(getattr(pipeline, "BufferMeter", None), type):
            self._replace(pipeline, "BufferMeter", self._recording_meter(pipeline.BufferMeter))
        else:
            self.missing.add("coarsefine.pipeline.BufferMeter")

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- summaries -------------------------------------------------------

    def call_metrics(self, root: Span, layer_names: list[str]) -> dict[str, float]:
        """Per-layer metrics of one traced call whose outermost span is root."""
        spans = self.spans[root.id + 1:]  # everything begun after root
        total: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for s in spans:
            key = f"{s.name}.{s.label}" if s.label is not None else s.name
            total[key] += s.duration
            count[s.name] += 1
        children = sum(s.duration for s in spans if s.parent == root.id)
        meters = self.meters.get(root.call, [])
        out = {
            f"{module}.layer_s.{layer}": total[f"{module}.layer.{layer}"]
            for module in ("zograd", "localprune")
            for layer in layer_names
        }
        out.update({
            "zograd.perturb_s": total["zograd.perturb"],
            "zograd.perturb_calls": count["zograd.perturb"],
            "zograd.forward_s": total["zograd.forward"],
            "zograd.peak_extra_elements": max(
                (m.peak_extra_elements for m in meters), default=0),
            "zograd.peak_noise_buffers": max(
                (m.peak_noise_buffers for m in meters), default=0),
            "localprune.hessian_s": total["localprune.hessian"],
            "localprune.pruned_weights": self.counters[root.call, "localprune.pruned_weights"],
            "model.forward_s": sum(total[n] for n in FORWARD_SPANS),
            "model.forward_calls": sum(count[n] for n in FORWARD_SPANS),
            "io.load_model_s": total["io.load_model"],
            "io.load_calibration_s": total["io.load_calibration"],
            "io.save_model_s": total["io.save_model"],
            "io.save_masks_s": total["io.save_masks"],
            "io.bytes_written": self.counters[root.call, "io.bytes_written"],
            "evaluation.eval_s": total["evaluation.eval"],
            "scoring.first_order_s": total["scoring.first_order"],
            "allocation.allocate_s": total["allocation.allocate"],
            "pipeline.compute_scores_s": total["pipeline.compute_scores"],
            "pipeline.self_s": root.duration - children,
        })
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _coarsefine_modules() -> dict[str, Any]:
    importlib.import_module("coarsefine")  # loads every submodule
    return {
        name: module for name, module in sys.modules.items()
        if name.startswith("coarsefine.") and module is not None
    }
