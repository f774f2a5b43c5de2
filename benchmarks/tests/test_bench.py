"""Tests of the benchmark itself (not of coarsefine).

Run from the repository root: python3 -m pytest benchmarks/tests -q
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import run  # noqa: E402
from harness import Runner, run_workload, tail  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import probe, rescale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()


def _short(name, tmp_path, trace):
    return run_workload(name, seed=1, seconds=0, trace=trace, work_dir=tmp_path / name,
                        fixtures=1)


def _coarsefine_namespaces():
    return {
        name: dict(vars(module)) for name, module in sys.modules.items()
        if name == "coarsefine" or name.startswith("coarsefine.")
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_mode_emits_every_end_to_end_metric(name, tmp_path):
    result = _short(name, tmp_path, trace=False)
    line = run.result_line(SPEC, result, trace=False)
    assert line["correct"] and line["failed"] == 0, result["notes"]["problems"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert line["metrics"]["success_rate"]["value"] == 1.0  # error rate 0


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(Tracer, "install", refuse)
    result = _short("mlp459k-zo-wanda", tmp_path, trace=False)
    assert result["failed"] == 0 and result["spans"] == []


def test_traced_run_removes_its_wrappers(tmp_path):
    import coarsefine  # noqa: F401  (every submodule loaded before the snapshot)

    before = _coarsefine_namespaces()
    result = _short("charlm-zo-wanda", tmp_path, trace=True)
    after = _coarsefine_namespaces()
    assert result["failed"] == 0 and result["notes"]["missing_sites"] == []
    assert before.keys() == after.keys()
    for module, names in before.items():
        changed = [k for k, v in names.items() if after[module].get(k) is not v]
        assert not changed, f"{module}: {changed} still wrapped"
    values = result["values"]
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["zograd.perturb_calls"] == 12  # 4 layers x 3 replay legs
    assert values["zograd.peak_noise_buffers"] == 1
    assert values["model.forward_calls"] > 0 and values["io.bytes_written"] > 0
    assert all(span["end"] >= span["start"] for span in result["spans"])


def test_sparsegpt_workload_bypasses_zograd(tmp_path):
    values = _short("mlp29k-fo-sparsegpt", tmp_path, trace=True)["values"]
    zo_counts = ("zograd.perturb_calls", "zograd.peak_extra_elements",
                 "zograd.peak_noise_buffers")
    assert all(values[k] == 0 for k in zo_counts)
    layer_s = sum(v for k, v in values.items() if k.startswith("localprune.layer_s."))
    assert layer_s >= 0.9 * values["trace.prune_s_p50"]


def test_checks_count_failed_calls(tmp_path):
    runner = Runner("mlp29k-fo-sparsegpt", seed=2, work_dir=tmp_path)
    runner.setup()
    assert (runner.attempted, runner.failed) == (1, 0)
    case = runner.cases[0]
    case.reference = b"{}"  # a report that differs from the first call's
    runner.call(case)
    case.argv = case.argv + ["--sparsity", "1.5"]  # exit code 1
    runner.call(case)
    assert (runner.attempted, runner.failed) == (3, 2)
    assert "differs" in runner.problems[0] and "exit code 1" in runner.problems[1]


def test_rescale_reads_wall_time_at_the_reference_speed(tmp_path):
    # a host twice as slow as the reference halves what an interval counts for
    assert rescale(2.0, 2.0, 2.0) == pytest.approx(1.0)
    assert rescale(1.0, 1.0, 3.0) == pytest.approx(0.5)
    assert 0 < probe() < 100
    assert 0 < probe(0.2, tmp_path / "probe.bin") < 100
    assert [p.name for p in tmp_path.iterdir()] == ["probe.bin"]


def test_untraced_run_keeps_raw_wall_times(tmp_path):
    notes = run_workload("mlp459k-zo-wanda", seed=1, seconds=0.5, trace=False,
                         work_dir=tmp_path, fixtures=2)["notes"]
    calls = notes["timed_calls"]
    assert len(notes["raw_call_s"]) == len(notes["call_s"]) == calls >= 2
    assert len(notes["slowness"]) == calls + 1  # one probe before every call, one after the last
    assert len(notes["raw_setup_s_each"]) == len(notes["setup_s_each"]) == 2


def test_tail_has_ten_calls_above():
    times = [float(i) for i in range(100)]
    assert tail(times) == (89.0, pytest.approx(100 * 89 / 99), 10)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 2)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "charlm-zo-wanda",
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    assert "no coarsefine package" in done.stderr
