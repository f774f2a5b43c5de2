"""Whole ``prune`` runs keep their bits: the 30 coarse x fine x
granularity runs at sparsity 0.5 on three fixtures (``GOLDEN`` in
``tools/output_matrix.py``: the 29k-weight MLP, ``char_lm`` and
``two_tower_fusion``) digest as ``golden_digests.json`` records.  The tool
makes both the digests and the file, so there is one definition of "the
same bits"; its docstring gives the command that regenerates the file.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_digests.json")
# sparsegpt's bits depend on the BLAS thread count, read once when numpy loads
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_prune_outputs_match_the_golden_digests(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_matrix.py"), "--golden",
         "--work", str(tmp_path / "work"), "--digest", str(tmp_path / "digest.json")],
        capture_output=True, text=True, env={**os.environ, **ONE_THREAD},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    golden = json.loads(GOLDEN.read_text())
    now = json.loads((tmp_path / "digest.json").read_text())
    moved = sorted(path for path in golden["digests"].keys() | now["digests"].keys()
                   if golden["digests"].get(path) != now["digests"].get(path))
    assert not moved, (
        f"{len(moved)} of {len(golden['digests'])} outputs differ from {GOLDEN.name}, "
        f"first {moved[:3]}; it was made with {golden['versions']}, "
        f"this run used {now['versions']}"
    )


@pytest.fixture(scope="module")
def matrix_tool():
    """tools/output_matrix.py as a module; the BLAS thread variables it sets
    on import are taken back, so later subprocesses see the environment
    they saw before."""
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("output_matrix",
                                                  ROOT / "tools" / "output_matrix.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return module


@pytest.mark.parametrize("shape", ["flat", "golden"])
def test_against_names_every_moved_path(matrix_tool, shape):
    def record(digests):
        return {"versions": {"numpy": "x"}, "digests": digests} if shape == "golden" else digests

    parent = record({"runs/a/report.json": "1", "runs/a/plan.json": "2", "runs/b/<stdout>": "3"})
    same = record({"runs/b/<stdout>": "3", "runs/a/plan.json": "2", "runs/a/report.json": "1"})
    change = record({"runs/a/report.json": "1", "runs/a/plan.json": "9", "runs/c/<stdout>": "3"})
    assert matrix_tool.moved_paths(same, parent) == []
    assert matrix_tool.moved_paths(change, parent) == [
        "runs/a/plan.json", "runs/b/<stdout>", "runs/c/<stdout>"]
    assert matrix_tool.moved_paths(parent, change) == matrix_tool.moved_paths(change, parent)


@pytest.mark.parametrize("threads", [{"OPENBLAS_NUM_THREADS": "2"}, None],
                         ids=["other threads", "threads unrecorded"])
def test_against_refuses_other_thread_settings_before_running(
    matrix_tool, tmp_path, capsys, monkeypatch, threads
):
    # a digest made at 2 threads would read as moved sparsegpt bits
    theirs = {**matrix_tool.THREADS, **(threads or {})}
    versions = {"numpy": "x", **({"threads": theirs} if threads else {})}
    against = tmp_path / "against.json"
    against.write_text(json.dumps({"versions": versions, "digests": {}}))
    ran = []
    monkeypatch.setattr(matrix_tool, "build_fixtures", lambda *a: ran.append(a) or {})
    monkeypatch.chdir(tmp_path)
    code = matrix_tool.main_matrix(["--work", str(tmp_path / "work"), "--golden",
                                    "--digest", str(tmp_path / "d.json"),
                                    "--against", str(against)])
    if threads:
        assert code == 2 and not ran and not (tmp_path / "work").exists()
        err = capsys.readouterr().err
        assert str(theirs) in err and str(matrix_tool.THREADS) in err
    else:  # compared as before: nothing ran, so nothing moved
        assert code == 0 and ran
        assert json.loads(capsys.readouterr().out)["moved"] == []
