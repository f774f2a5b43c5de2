"""One benchmark run of one workload: set-up, timed prune calls, checks.

Every ``coarsefine prune`` call goes in-process through
``coarsefine.cli.main(argv)`` and is checked afterwards, outside its
timing: exit code 0; ``report.json`` byte-identical to the first call on
the same fixture (each fixture reuses one output directory, since the
report echoes it); achieved keep counts equal the plan's ``n_select``
and per-layer ``keep_count``; ``masks.json`` kept counts match; the
pruned loss is finite.  A call that fails any of these counts as failed.

The untraced run (``trace=False``) gives the end-to-end metrics and
installs no wrappers.  Its times (calls and set-up) are rescaled to the
reference speed of ``speed.py``, with a probe between every two calls;
the raw wall times go into the run's notes.  The traced run alternates
traced and untraced calls; its per-layer metrics are (low) medians over
the traced calls, in raw wall seconds, and ``trace.overhead_s`` is the
difference of the two medians.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from coarsefine import cli

from spans import Span, Tracer
from speed import probe, rescale
from workloads import (
    LAYER_NAMES, WORKLOADS, Workload, build_fixture, prune_argv,
)

MAX_PROBLEMS = 10  # failure messages kept for the record


class Case:
    """One fixture of the run: its prune argv, first report bytes, latest report."""

    def __init__(self, workload: Workload, seed: int, index: int, directory: Path):
        self.fixture = build_fixture(workload, seed, index, directory)
        self.out_dir = directory / "out"
        self.argv = prune_argv(workload, self.fixture, self.out_dir, seed)
        self.reference: bytes | None = None
        self.report: dict = {}


class Runner:
    """Owns a run's fixtures and counts its attempted and failed calls."""

    def __init__(self, workload_name: str, seed: int, work_dir: Path):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.work_dir = work_dir
        self.cases: list[Case] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> float:
        """Build and write the next fixture, then make one untimed warm-up call."""
        t0 = time.perf_counter()
        index = len(self.cases)
        case = Case(self.workload, self.seed, index, self.work_dir / f"fixture{index}")
        self.cases.append(case)
        self.call(case)
        return time.perf_counter() - t0

    def call(self, case: Case, tracer: Tracer | None = None) -> tuple[float, Span | None]:
        """One checked prune call; returns its wall time (and root span)."""
        report_path = case.out_dir / "report.json"
        masks_path = case.out_dir / "masks" / "masks.json"
        for stale in (report_path, masks_path):
            stale.unlink(missing_ok=True)
        self.attempted += 1
        sink = io.StringIO()
        root = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                root = tracer.begin("prune") if tracer else None
                try:
                    code = cli.main(case.argv)
                finally:
                    if root:
                        tracer.end(root)
        except Exception as e:  # a crash is one failed call; the run goes on
            code = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        if code != 0:
            problems = [f"exit code {code}: {sink.getvalue().strip()[-300:]}"]
        else:
            problems = _check(case, report_path, masks_path)
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])
        return seconds, root


def _check(case: Case, report_path: Path, masks_path: Path) -> list[str]:
    try:
        raw = report_path.read_bytes()
        report = json.loads(raw)
        plan = report["sparsity_plan"]
        achieved = report["achieved"]["per_layer"]
        masks = json.loads(masks_path.read_text(encoding="utf-8"))["layers"]
        loss = report["eval_pruned"]["loss"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]
    case.report = report
    if case.reference is None:
        case.reference = raw
    problems = []
    if raw != case.reference:
        problems.append("report.json differs from the fixture's first call")
    kept = {name: e["size"] - e["zeros"] for name, e in achieved.items()}
    if sum(kept.values()) != plan["n_select"]:
        problems.append(f"kept {sum(kept.values())} weights, plan n_select {plan['n_select']}")
    for name, alloc in plan["per_layer"].items():
        if kept.get(name) != alloc["keep_count"]:
            problems.append(f"{name}: achieved keep {kept.get(name)} != {alloc['keep_count']}")
        if masks.get(name, {}).get("kept") != alloc["keep_count"]:
            problems.append(f"{name}: masks.json keep != {alloc['keep_count']}")
    if not (isinstance(loss, (int, float)) and math.isfinite(loss)):
        problems.append(f"pruned loss {loss!r} is not finite")
    return problems


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten calls above it.

    Returns (value, percentile, calls above); with ten or fewer calls it
    falls back to the fastest one, which has all the others above it.
    """
    ordered = sorted(times)
    index = max(0, len(ordered) - 11)
    pct = 100.0 * index / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[index], pct, len(ordered) - 1 - index


def _round_robin(seconds: float, cases: list[Case], step) -> None:
    """step(case) over the cases in turn until `seconds` have passed, once at least."""
    start, calls = time.perf_counter(), 0
    while calls == 0 or time.perf_counter() - start < seconds:
        step(cases[calls % len(cases)])
        calls += 1


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    import_s: float = 0.0,
    fixtures: int | None = None,
) -> dict:
    """Set up `fixtures` fixtures (by default the workload's), then measure
    for `seconds`, pruning them in turn.

    Returns ``{"values", "attempted", "failed", "notes", "spans"}``, where
    values maps metric names to numbers (end-to-end ones untraced,
    per-layer ones traced).
    """
    runner = Runner(name, seed, work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)

    def slowness() -> float:
        return probe(runner.workload.io_share, work_dir / "probe.bin")

    setups, raw_setups = [], []
    for _ in range(fixtures or runner.workload.fixtures):
        before = slowness()
        raw_setups.append(runner.setup())
        setups.append(rescale(raw_setups[-1], before, slowness()))
    cases = runner.cases
    notes: dict = {"setup_s_each": setups, "raw_setup_s_each": raw_setups}

    if not trace:
        times: list[float] = []
        raw_times: list[float] = []
        probes = [slowness()]

        def step(case):
            raw_times.append(runner.call(case)[0])
            probes.append(slowness())
            times.append(rescale(raw_times[-1], probes[-2], probes[-1]))

        _round_robin(seconds, cases, step)
        tracemalloc.start()
        try:
            runner.call(cases[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tail_s, tail_pct, above = tail(times)
        losses = [c.report.get("eval_pruned", {}).get("loss", math.nan) for c in cases]
        values = {
            "prune_s_p50": statistics.median(times),
            # the fixtures of a workload share one architecture
            "weights_per_s": cases[0].fixture.prunable_weights * len(times) / sum(times),
            "setup_s": import_s + statistics.median(setups),
            "peak_mem_mb": peak / 1e6,
            "pruned_loss": statistics.fmean(losses),
            "success_rate": 1.0 - runner.failed / runner.attempted,
        }
        # Reported but not gated: on a shared host the slowest one percent
        # of 20 ms calls measures bursts from other tenants, not the program.
        notes.update(timed_calls=len(times), prune_s_tail=tail_s,
                     tail_percentile=tail_pct, tail_calls_above=above,
                     pruned_loss_each=losses, call_s=times, raw_call_s=raw_times, slowness=probes,
                     raw_prune_s_p50=statistics.median(raw_times),
                     slowness_p50=statistics.median(probes))
        spans = []
    else:
        tracer = Tracer()
        per_call: list[dict] = []
        traced, untraced = [], []

        def pair(case):
            tracer.call = len(per_call)
            tracer.install()
            try:
                seconds_traced, root = runner.call(case, tracer)
            finally:
                tracer.uninstall()
            traced.append(seconds_traced)
            metrics = tracer.call_metrics(root, LAYER_NAMES) if root else {}
            forwards = case.report.get("forward_passes", {})
            for stage in ("scoring", "pruning", "evaluation"):
                metrics[f"model.forwards_{stage}"] = forwards.get(stage, 0)
            per_call.append(metrics)
            untraced.append(runner.call(case)[0])

        _round_robin(seconds, cases, pair)
        keys = set().union(*per_call)
        # median_low keeps counts whole: it picks one call's value
        values = {key: statistics.median_low(m.get(key, 0) for m in per_call) for key in keys}
        values.update({
            "tasks.train_s": statistics.median(c.fixture.train_s for c in cases),
            "trace.prune_s_p50": statistics.median(traced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        })
        notes.update(traced_calls=len(traced), untraced_calls=len(untraced),
                     missing_sites=sorted(tracer.missing))
        spans = tracer.to_json()
    notes["problems"] = runner.problems
    return {"values": values, "attempted": runner.attempted, "failed": runner.failed,
            "notes": notes, "spans": spans}
