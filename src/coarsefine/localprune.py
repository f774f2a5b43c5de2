"""Layer-local pruning criteria and the sequential fine pass.

Three local criteria fill the per-layer budgets of a SparsityPlan:

* wanda: score |W_ij| * ||X_j||^e where ||X_j|| is the l2 norm of input
  activation column j (e = 1 by default, 2 available), compared within
  per-row groups (or the whole layer);
* sparsegpt: row-wise optimal-brain-surgeon on the damped Gram matrix
  H = X^T X + lam*I - greedily prune the lowest score W_ij^2 / [H^-1]_jj,
  compensate the surviving weights of the row, and downdate the inverse
  after every elimination (so survivors equal the least-squares refit of
  the chosen mask).  Blocks of rows eliminate in lockstep, each row's
  inverse held in Woodbury form H^-1 - U U^T, so one greedy step is a
  handful of numpy calls for the whole block; the block's U buffer is
  bounded by about two cols x cols matrices;
* magnitude: plain |W| top-k within the layer.

The sequential driver prunes layers in model order, feeding each layer
the activations produced by the already-pruned prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import SparsityPlan, validate_plan
from .errors import InputError, NumericalError
from .model import (
    CalibrationSet,
    LayerSpec,
    ModelGraph,
    batch_input_matrix,
    layer_forward,
    set_layer_weights,
)

FINE_METHODS = ("wanda", "sparsegpt", "magnitude")


@dataclass
class HessianState:
    """Damped activation Gram matrix and its inverse for one layer."""

    H: np.ndarray
    lam: float
    Hinv: np.ndarray


def build_hessian(activations: np.ndarray, lam: float | None = None) -> HessianState:
    """H = X^T X + lam*I over stacked activations X of shape [rows, d_in].

    lam defaults to 0.01 * mean(diag(X^T X)).  Raises a numerical error
    when H is singular (advice: add damping).
    """
    x = np.asarray(activations, dtype=np.float64)
    if x.ndim != 2:
        raise InputError("activations must be a [rows, d_in] matrix")
    h = x.T @ x
    if lam is None:
        lam = 0.01 * float(np.mean(np.diag(h)))
    if lam < 0:
        raise InputError("damping lambda must be nonnegative")
    h[np.diag_indices_from(h)] += lam
    try:
        hinv = np.linalg.inv(h)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"activation Gram matrix is singular (lambda={lam}); increase damping"
        ) from e
    if not np.all(np.isfinite(hinv)):
        raise NumericalError(
            f"inverse Hessian has non-finite entries (lambda={lam}); increase damping"
        )
    return HessianState(H=h, lam=lam, Hinv=hinv)


def sparsegpt_layer_score(
    weight: np.ndarray, activations: np.ndarray, lam: float | None = None
) -> float:
    """The layer's local sparsegpt score: sum of W_ij^2 / [H^-1]_jj."""
    diag = np.diag(build_hessian(activations, lam).Hinv)
    return float((weight**2 / diag[None, :]).sum())


def _row_budgets(keep_count: int, rows: int, cols: int) -> np.ndarray:
    """Spread a layer keep budget across rows as evenly as possible."""
    if not 0 <= keep_count <= rows * cols:
        raise InputError(f"keep_count {keep_count} infeasible for {rows}x{cols} layer")
    base, rem = divmod(keep_count, rows)
    budgets = np.full(rows, base, dtype=np.int64)
    budgets[:rem] += 1  # equal remainders: ties break by row order
    return budgets


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean keep-mask of the k largest scores, ties to the lowest index."""
    flat = scores.reshape(-1)
    order = np.argsort(-flat, kind="stable")
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:k]] = True
    return mask.reshape(scores.shape)


def wanda_scores(
    weight: np.ndarray, activations: np.ndarray, norm_exponent: int = 1
) -> np.ndarray:
    """|W_ij| * ||X_j||^e, ||X_j|| the l2 norm of activation column j."""
    col_norms = np.sqrt(np.sum(activations * activations, axis=0))
    return np.abs(weight) * col_norms[None, :] ** norm_exponent


def wanda_prune_layer(
    layer: LayerSpec,
    activations: np.ndarray,
    keep_count: int,
    group: str = "per_row",
    norm_exponent: int = 1,
) -> np.ndarray:
    """Keep the top |W_ij| * ||X_j||^e scores within each comparison group."""
    if group not in ("per_row", "per_layer"):
        raise InputError(f"group must be per_row or per_layer, got {group!r}")
    if norm_exponent not in (1, 2):
        raise InputError(f"norm_exponent must be 1 or 2, got {norm_exponent}")
    w = layer.weight
    x = np.asarray(activations, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise InputError(
            f"activations shape {x.shape} does not match layer d_in {w.shape[1]}"
        )
    scores = wanda_scores(w, x, norm_exponent)
    if group == "per_layer":
        return top_k_mask(scores, keep_count)
    budgets = _row_budgets(keep_count, w.shape[0], w.shape[1])
    mask = np.zeros_like(w, dtype=bool)
    for r in range(w.shape[0]):
        mask[r] = top_k_mask(scores[r], int(budgets[r]))
    return mask


def magnitude_prune_layer(layer: LayerSpec, keep_count: int) -> np.ndarray:
    """Keep the top keep_count |W_ij| in the layer, ties to lowest index."""
    if not 0 <= keep_count <= layer.size:
        raise InputError(f"keep_count {keep_count} out of range for {layer.name!r}")
    return top_k_mask(np.abs(layer.weight), keep_count)


def sparsegpt_prune_layer(
    layer: LayerSpec,
    activations: np.ndarray,
    keep_count: int,
    lam: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise OBS pruning with weight compensation.

    Per row: repeatedly prune the column with the lowest current score
    W_ij^2 / [H^-1]_jj (ties to the lowest index) until the row budget is
    met; each elimination updates the remaining weights by
    w <- w - (w_q / [H^-1]_qq) * H^-1[:, q], zeroes w_q, and downdates the
    inverse to the surviving support.  Exact eliminations commute, so the
    final survivors equal the least-squares refit of the chosen mask.
    Returns (mask, new weights); pruned entries are exactly zero.

    Rows are eliminated in lockstep, B = max(1, 2*cols // T) at a time,
    where T is the largest per-row prune count.  After t steps row r's
    inverse is H^-1_0 - U_r U_r^T with U_r of shape [cols, t]: the pivot
    column is H^-1_0[:, q] - U_r U_r[q]^T and its diagonal is tracked
    as d_r.  The block's U buffer (B x T x cols) is thus no larger than
    the dense inverse copy plus the rank-1 update a per-row loop holds;
    only H^-1_0 is kept, not H.
    """
    w = layer.weight
    rows, cols = w.shape
    x = np.asarray(activations, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cols:
        raise InputError(
            f"activations shape {x.shape} does not match layer d_in {cols}"
        )
    budgets = _row_budgets(keep_count, rows, cols)
    if keep_count == w.size:
        return np.ones_like(w, dtype=bool), w.copy()

    hinv0 = build_hessian(x, lam).Hinv
    n_prune = cols - budgets  # non-decreasing: the first rows keep one more
    steps = int(n_prune[-1])
    block = max(1, 2 * cols // steps)
    u = np.empty((block, steps, cols))
    mask = np.ones_like(w, dtype=bool)
    new_w = w.copy()
    for b0 in range(0, rows, block):
        b1 = min(b0 + block, rows)
        _eliminate_block(
            new_w[b0:b1], mask[b0:b1], n_prune[b0:b1], hinv0, u, layer.name
        )
    new_w[~mask] = 0.0
    return mask, new_w


def _eliminate_block(
    w: np.ndarray,
    active: np.ndarray,
    n_prune: np.ndarray,
    hinv0: np.ndarray,
    u: np.ndarray,
    name: str,
) -> None:
    """Greedy OBS elimination of a block of rows in lockstep, in place.

    Row r's downdated inverse is H^-1_0 - U_r U_r^T, where column t of U_r
    is the scaled pivot column of its t-th elimination; only its diagonal
    d_r is kept explicitly.  n_prune is non-decreasing, so the rows still
    eliminating at step t are a suffix of the block.  Entries of w at
    pruned positions are left stale for the caller to zero.
    """
    u = u[: w.shape[0]]
    d = np.repeat(np.diag(hinv0)[None, :], w.shape[0], axis=0)
    r = np.arange(w.shape[0])
    for t in range(int(n_prune[-1])):
        if t == n_prune[0]:  # the rows with one prune fewer are done
            k = int(np.searchsorted(n_prune, t, side="right"))
            w, active, n_prune, u, d, r = (
                w[k:], active[k:], n_prune[k:], u[k:], d[k:], r[: r.size - k]
            )
        diag = np.where(active, d, 1.0)
        if (diag <= 0).any():
            raise NumericalError(
                f"layer {name!r}: inverse Hessian lost positivity "
                "during elimination; increase damping"
            )
        q = np.where(active, w * w / diag, np.inf).argmin(axis=1)
        dq = d[r, q]
        # column q of each row's current inverse, by one batched matmul
        col = hinv0.T[q] - np.matmul(u[r, :t, q][:, None, :], u[:, :t])[:, 0]
        w -= (w[r, q] / dq)[:, None] * col
        u[:, t] = col / np.sqrt(dq)[:, None]
        d -= u[:, t] ** 2
        active[r, q] = False


def apply_mask(layer: LayerSpec, mask: np.ndarray) -> np.ndarray:
    """Zero the pruned entries of a weight copy, bit-preserving survivors."""
    out = layer.weight.copy()
    out[~mask] = 0.0
    return out


def sequential_prune(
    model: ModelGraph,
    plan: SparsityPlan,
    batch: CalibrationSet,
    fine_method: str,
    norm_exponent: int = 1,
    lam: float | None = None,
) -> tuple[ModelGraph, dict[str, np.ndarray], dict[str, float]]:
    """Prune layers in model order, conditioning on the pruned prefix.

    Each layer's activations are the batch propagated through the already
    pruned earlier layers; frozen layers are skipped but still forwarded.
    Returns (pruned model copy, keep-masks, per-layer reconstruction
    errors), where the reconstruction error is the squared Frobenius
    distance between dense and pruned pre-activation outputs on the
    captured activations.
    """
    if fine_method not in FINE_METHODS:
        raise InputError(f"fine_method must be one of {FINE_METHODS}")
    violations = validate_plan(plan, model)
    if violations:
        raise InputError("invalid plan: " + "; ".join(violations))

    pruned = model.copy()
    h, _ = batch_input_matrix(pruned, batch)
    masks: dict[str, np.ndarray] = {}
    recon: dict[str, float] = {}
    for layer in pruned.layers():
        if layer.frozen:
            h = layer_forward(layer, h)
            continue
        alloc = plan.per_layer[layer.name]
        dense_out = h @ layer.weight.T
        try:
            if alloc.keep_count == layer.size:
                mask = np.ones_like(layer.weight, dtype=bool)
                new_w = layer.weight
            elif fine_method == "wanda":
                mask = wanda_prune_layer(
                    layer, h, alloc.keep_count, norm_exponent=norm_exponent
                )
                new_w = apply_mask(layer, mask)
            elif fine_method == "magnitude":
                mask = magnitude_prune_layer(layer, alloc.keep_count)
                new_w = apply_mask(layer, mask)
            else:
                mask, new_w = sparsegpt_prune_layer(layer, h, alloc.keep_count, lam)
        except (InputError, NumericalError) as e:
            raise type(e)(f"while pruning layer {layer.name!r}: {e}") from e
        kept = int(mask.sum())
        if kept != alloc.keep_count:
            raise InputError(
                f"layer {layer.name!r}: mask keeps {kept}, plan says {alloc.keep_count}"
            )
        set_layer_weights(pruned, layer.name, new_w)
        masks[layer.name] = mask
        pruned_out = h @ layer.weight.T
        recon[layer.name] = float(np.sum((dense_out - pruned_out) ** 2))
        h = layer_forward(layer, h)
    pruned.forward_count += batch.count
    return pruned, masks, recon
