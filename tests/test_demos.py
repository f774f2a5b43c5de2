"""Every demo runs to completion against the current API (demo 02, which
checks its own output, is tested in test_zograd.py)."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "demo_01_end_to_end",
    "demo_03_sparsity_allocation",
    "demo_04_local_criteria",
    "demo_05_baselines",
    "demo_06_distribution_report",
])
def test_demo_runs_to_completion(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # demo 01's work directory
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # every temporary file is removed
