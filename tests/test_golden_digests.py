"""Whole ``prune`` runs keep their bits: the 30 coarse x fine x
granularity runs at sparsity 0.5 on three fixtures (``GOLDEN`` in
``tools/output_matrix.py``: the 29k-weight MLP, ``char_lm`` and
``two_tower_fusion``) digest as ``golden_digests.json`` records.  The tool
makes both the digests and the file, so there is one definition of "the
same bits"; its docstring gives the command that regenerates the file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
