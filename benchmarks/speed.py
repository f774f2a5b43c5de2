"""Host speed probe: wall times rescaled to one reference speed.

The shared 2-vCPU host the benchmark was written on changes speed by up
to 40%, every few seconds to minutes: a fixed pure-Python loop and a
128x128 matmul slow down together, and so does a ``prune`` call.  CPU
time tracks wall time, so the process is not waiting; the whole host
runs slower.  A run of tens of seconds can fall mostly into a slow or a
fast stretch, and the median call time of a char_lm run moved by 28%
(quartile spread over 25-second windows).

So every timed interval is bracketed by a probe, a fixed piece of work
that does not touch the program, and divided by the mean slowness the
probes before and after it read: the probe's time over its time at the
reference speed.  The result is the wall time the interval would take
at the reference speed.  The compute part of the probe mixes the kinds
of work a prune call does, since the host slows them by different
amounts: interpreted Python, small numpy calls, rank-one updates of a
128x128 matrix (the inner step of sparsegpt) and a copy larger than the
per-core caches.  Without the rank-one updates the probe missed the
slow stretches of the sparsegpt workload.

File I/O has slow stretches of its own: rewriting and reading back a
small file took up to twice as long while the compute probe held still,
and the char_lm call, whose saves and loads are about a fifth of it,
slowed by 40%.  So the probe also rewrites and reads a file, and weighs
the two parts by the I/O share of the workload's call (``io_share``).
On that stretch the spread of the char_lm median over 20-second windows
was 15% with the compute probe alone and 5% with both parts.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

PROBE_REPEATS = 3
# Each part's time on the host above at its faster speed (CPython 3.11,
# OpenBLAS on one thread): rescaled times read as wall seconds there.
COMPUTE_NOMINAL_S = 1.0e-3
IO_NOMINAL_S = 2.5e-4

_rng = np.random.default_rng(0)
_MATRIX = _rng.normal(size=(128, 128))
_VECTOR = _rng.normal(size=128)
_HESSIAN = np.eye(128) + _MATRIX @ _MATRIX.T / 128
_BLOCK = _rng.normal(size=(512, 1024))  # 4 MB
_FILE_BYTES = _rng.normal(size=8192).astype(np.float32).tobytes()  # 32 KB


def _compute() -> None:
    total = 0
    for i in range(3000):
        total += i * i
    x = _VECTOR
    for _ in range(40):
        x = _MATRIX @ x
        x = x / np.abs(x).max()
    h = _HESSIAN.copy()
    for q in range(6):  # sparsegpt's rank-one downdate of a 128x128 inverse
        col = h[:, q].copy()
        h -= np.outer(col, col) / (h[q, q] + 1.0)
    _BLOCK.copy()


def _io(path: Path) -> None:
    # rewrites in place, as the program's saves do; no file is created or removed
    for _ in range(2):
        path.write_bytes(_FILE_BYTES)
        path.read_bytes()


def _fastest(work) -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def probe(io_share: float = 0.0, io_path: Path | None = None) -> float:
    """Host slowness: 1 at the reference speed, 2 when twice as slow.

    Each part is the fastest of a few repeats; with ``io_share`` > 0 the
    file part, which rewrites ``io_path``, weighs that much.
    """
    slowness = _fastest(_compute) / COMPUTE_NOMINAL_S
    if io_share:
        io = _fastest(lambda: _io(io_path)) / IO_NOMINAL_S
        slowness = (1 - io_share) * slowness + io_share * io
    return slowness


def rescale(seconds: float, before: float, after: float) -> float:
    """Wall time `seconds`, measured between probes reading slowness
    `before` and `after`, at the reference speed."""
    return seconds / ((before + after) / 2)
