"""Layer-local pruning criteria and the sequential fine pass.

Three local criteria fill the per-layer budgets of a SparsityPlan:

* wanda: score |W_ij| * ||X_j||^e where ||X_j|| is the l2 norm of input
  activation column j (e = 1 by default, 2 available), compared within
  each output row;
* sparsegpt: row-wise optimal-brain-surgeon on the damped Gram matrix
  H = X^T X + lam*I - greedily prune the lowest score W_ij^2 / [H^-1]_jj,
  compensate the surviving weights of the row, and downdate the inverse
  after every elimination (so survivors equal the least-squares refit of
  the chosen mask).  Blocks of rows eliminate in lockstep, each row's
  inverse held in Woodbury form H^-1 - U U^T, so one greedy step is a
  handful of numpy calls for the whole block; the block's U buffer is
  bounded by twice the larger of the weight and the inverse Hessian;
* magnitude: plain |W| top-k within the layer.

The sequential driver prunes layers in model order, feeding each layer
the activations produced by the already-pruned prefix, and writes each
pruned layer into its output model's own weight array (in place when the
output is the input model).
"""

from __future__ import annotations

import numpy as np

from .allocation import SparsityPlan, validate_plan
from .errors import DimensionError, InputError, NumericalError
from .model import (
    CalibrationSet,
    LayerSpec,
    ModelGraph,
    _act,
    batch_input_matrix,
    check_finite,
    layer_forward,
)

FINE_METHODS = ("wanda", "sparsegpt", "magnitude")
NORM_EXPONENTS = (1, 2)  # wanda's e in ||X_j||^e
TOP_K_BLOCK = 1 << 15  # elements per block of rows in top_k_mask
MASK_BLOCK = 1 << 13  # elements per block of rows in apply_mask


def build_hessian(activations: np.ndarray, lam: float | None = None) -> np.ndarray:
    """H^-1 for the damped Gram matrix H = X^T X + lam*I over stacked
    activations X of shape [rows, d_in].

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
    return hinv


def sparsegpt_layer_score(
    weight: np.ndarray, activations: np.ndarray, lam: float | None = None
) -> float:
    """The layer's local sparsegpt score: sum of W_ij^2 / [H^-1]_jj."""
    diag = np.diag(build_hessian(activations, lam))
    return float((weight**2 / diag[None, :]).sum())


def _row_budgets(keep_count: int, rows: int, cols: int) -> np.ndarray:
    """Spread a layer keep budget across rows as evenly as possible."""
    if not 0 <= keep_count <= rows * cols:
        raise InputError(f"keep_count {keep_count} infeasible for {rows}x{cols} layer")
    base, rem = divmod(keep_count, rows)
    budgets = np.full(rows, base, dtype=np.int64)
    budgets[:rem] += 1  # equal remainders: ties break by row order
    return budgets


def top_k_mask(scores: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """Keep-mask of the k largest entries in each row of a 2-D score array.

    k is one budget for every row or one budget per row, each in
    [0, cols].  A row keeps the same entries as the first k of a stable
    argsort of its negated scores: ties go to the lowest index and NaN
    ranks below every number, -inf included.  Each row's k-th largest
    score t is found by partitioning a negated copy, which keeps NaN
    last; the row keeps every score above t and its first (k - #above)
    entries equal to t.  A numeric t has k scores at or above it, so a
    block whose t are all numbers and whose rows hold k such scores per
    row in total keeps them with no tie pass.  Rows are grouped by
    budget and processed TOP_K_BLOCK elements at a time (one row at
    least), so every temporary stays within a block.
    """
    s = np.asarray(scores, dtype=np.float64)
    return _top_k_rows(s.shape, k, lambda rows: s[rows])


def _top_k_rows(shape: tuple[int, int], k, block_scores) -> np.ndarray:
    """top_k_mask of a [rows, cols] score array that block_scores(rows)
    gives one block of rows (a slice or an index array) at a time; rows
    whose budget is 0 or cols are never scored."""
    rows, cols = shape
    budgets = np.broadcast_to(np.asarray(k, dtype=np.int64), (rows,))
    if budgets.size and not (0 <= budgets.min() and budgets.max() <= cols):
        raise InputError(f"top-k budgets must lie in [0, {cols}]")
    mask = np.zeros((rows, cols), dtype=bool)
    step = max(1, TOP_K_BLOCK // max(cols, 1))
    for b in np.unique(budgets):
        group = np.flatnonzero(budgets == b)
        if b == cols:
            mask[group] = True
        elif b > 0:
            for i in range(0, group.size, step):
                sel = group[i : i + step]
                if sel[-1] - sel[0] == sel.size - 1:  # a run of rows: slice, no copy
                    sel = slice(sel[0], sel[-1] + 1)
                mask[sel] = _top_k_block(block_scores(sel), int(b))
    return mask


def _top_k_block(s: np.ndarray, b: int) -> np.ndarray:
    """top_k_mask of a block of rows with one budget, 0 < b < cols."""
    neg = np.negative(s)
    neg.partition(b - 1, axis=1)
    t = -neg[:, b - 1 : b]
    keep = s >= t
    nan_t = np.flatnonzero(np.isnan(t[:, 0]))
    if not nan_t.size and np.count_nonzero(keep) == keep.shape[0] * b:
        return keep  # no tie crosses the budget
    tie = s == t
    keep ^= tie  # s > t
    if nan_t.size:  # fewer than b numbers: keep them all, then NaN by index
        nan_s = np.isnan(s[nan_t])
        keep[nan_t] = ~nan_s
        tie[nan_t] = nan_s
    short = b - keep.sum(axis=1)
    over = np.flatnonzero(tie.sum(axis=1) > short)
    if over.size:  # the ties cross the budget: the first ones by index stay
        tie[over] &= np.cumsum(tie[over], axis=1) <= short[over, None]
    keep |= tie
    return keep


def wanda_scores(
    weight: np.ndarray, activations: np.ndarray, norm_exponent: int = 1
) -> np.ndarray:
    """|W_ij| * ||X_j||^e, ||X_j|| the l2 norm of activation column j."""
    col_norms = np.sqrt(np.sum(activations * activations, axis=0))
    scores = np.abs(weight)
    scores *= col_norms[None, :] ** norm_exponent
    return scores


def _layer_input(layer: LayerSpec, activations: np.ndarray) -> np.ndarray:
    """The activations as float64 [samples, d_in]; any other shape is refused."""
    x, d_in = np.asarray(activations, dtype=np.float64), layer.weight.shape[1]
    if x.ndim != 2 or x.shape[1] != d_in:
        raise InputError(f"activations shape {x.shape} does not match layer d_in {d_in}")
    return x


def wanda_prune_layer(
    layer: LayerSpec,
    activations: np.ndarray,
    keep_count: int,
    norm_exponent: int = 1,
) -> np.ndarray:
    """Keep the top |W_ij| * ||X_j||^e scores within each output row.

    The scores are those of wanda_scores, formed one top_k_mask block of
    rows at a time, so no layer-sized array but the mask is made."""
    if norm_exponent not in NORM_EXPONENTS:
        raise InputError(f"norm_exponent must be one of {NORM_EXPONENTS}, got {norm_exponent}")
    w = layer.weight
    x = _layer_input(layer, activations)
    budgets = _row_budgets(keep_count, w.shape[0], w.shape[1])
    norms = np.sqrt(np.sum(x * x, axis=0)) ** norm_exponent

    def block_scores(rows):
        scores = np.abs(w[rows])
        scores *= norms
        return scores

    return _top_k_rows(w.shape, budgets, block_scores)


def magnitude_prune_layer(layer: LayerSpec, keep_count: int) -> np.ndarray:
    """Keep the top keep_count |W_ij| in the layer, ties to lowest index."""
    if not 0 <= keep_count <= layer.size:
        raise InputError(f"keep_count {keep_count} out of range for {layer.name!r}")
    scores = np.abs(layer.weight).reshape(1, -1)
    return top_k_mask(scores, keep_count).reshape(layer.weight.shape)


def sparsegpt_prune_layer(
    layer: LayerSpec,
    activations: np.ndarray,
    keep_count: int,
    lam: float | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise OBS pruning with weight compensation.

    Per row: repeatedly prune the column with the lowest current score
    W_ij^2 / [H^-1]_jj (ties to the lowest index) until the row budget is
    met; each elimination updates the remaining weights by
    w <- w - (w_q / [H^-1]_qq) * H^-1[:, q], zeroes w_q, and downdates the
    inverse to the surviving support.  Exact eliminations commute, so the
    final survivors equal the least-squares refit of the chosen mask.
    Returns (mask, new weights); pruned entries are exactly zero.

    The new weights are written into out (numpy's out= convention: a
    C-contiguous float64 array of the weight's shape), which is returned;
    by default a new array.  out=layer.weight eliminates in place, so the
    dense weight must have been read for the last time before the call.
    A call that raises may leave out partly eliminated.

    Rows are eliminated in lockstep, B = max(1, 2*max(rows, cols) // T)
    at a time (at most rows), where T is the largest per-row prune count.
    After t steps row r's inverse is H^-1_0 - U_r U_r^T with U_r of shape
    [cols, t]: the pivot column is H^-1_0[:, q] - U_r U_r[q]^T and its
    diagonal is tracked as d_r.  The block's U buffer (B x T x cols) is
    thus at most twice the larger of the weight (rows x cols) and the
    dense inverse (cols x cols), and a tall layer takes fewer, larger
    blocks than a square one.  Only H^-1_0 is kept, not H.  How many rows
    share a block changes no bit of the result: each row goes through
    the same operations in the same order.
    """
    w = layer.weight
    rows, cols = w.shape
    x = _layer_input(layer, activations)
    budgets = _row_budgets(keep_count, rows, cols)
    _check_out(w, out)
    if out is None:
        out = w.copy()
    elif out is not w:
        np.copyto(out, w)
    if keep_count == w.size:
        return np.ones_like(w, dtype=bool), out

    hinv0 = build_hessian(x, lam)
    n_prune = cols - budgets  # non-decreasing: the first rows keep one more
    steps = int(n_prune[-1])
    block = min(rows, max(1, 2 * max(rows, cols) // steps))
    u = np.empty((block, steps, cols))
    mask = np.ones_like(w, dtype=bool)
    for b0 in range(0, rows, block):
        b1 = min(b0 + block, rows)
        _eliminate_block(out[b0:b1], mask[b0:b1], n_prune[b0:b1], hinv0, u, layer.name)
    out[~mask] = 0.0
    return mask, out


def _check_out(w: np.ndarray, out: np.ndarray | None) -> None:
    """out, when given, must be a C-contiguous float64 array of w's shape."""
    if out is not None and not (out.shape == w.shape and out.dtype == np.float64
                                and out.flags.c_contiguous):
        raise DimensionError(f"out must be a C-contiguous float64 {w.shape} array")


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
    eliminating at step t are a suffix of the block.  An eliminated entry
    of w is set to +inf; finite updates leave it there, so its score is
    inf / 1.0 = inf and argmin (ties to the lowest index) never prefers
    it to an active entry.  The caller zeroes those
    entries; active, not w, is the mask, so a weight that overflows to
    inf stays in the result for the finite check to catch.
    """
    u = u[: w.shape[0]]
    d = np.repeat(np.diag(hinv0)[None, :], w.shape[0], axis=0)
    r = np.arange(w.shape[0])
    row_start = r * w.shape[1]  # [r, q] is flat (C-order) index row_start[r] + q
    for t in range(int(n_prune[-1])):
        if t == n_prune[0]:  # the rows with one prune fewer are done
            k = int(np.searchsorted(n_prune, t, side="right"))
            w, active, n_prune, u, d = w[k:], active[k:], n_prune[k:], u[k:], d[k:]
            r, row_start = r[: r.size - k], row_start[: r.size - k]
        diag = np.where(active, d, 1.0)
        # any active d <= 0; fmin skips NaN, which compares false anyway
        if np.fmin.reduce(diag, axis=None) <= 0:
            raise NumericalError(
                f"layer {name!r}: inverse Hessian lost positivity "
                "during elimination; increase damping"
            )
        score = np.square(w)
        score /= diag
        q = score.argmin(axis=1)
        at = row_start + q
        dq = d.take(at)
        # column q of each row's current inverse, by one batched matmul
        col = hinv0.T[q]
        if t:
            col -= np.matmul(u[r, :t, q][:, None, :], u[:, :t])[:, 0]
        w -= (w.take(at) / dq)[:, None] * col
        ut = u[:, t]
        np.divide(col, np.sqrt(dq)[:, None], out=ut)
        d -= np.square(ut)
        active.put(at, False)
        w.put(at, np.inf)


def apply_mask(layer: LayerSpec, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The weight with pruned entries set to +0.0 and survivors keeping
    their bits, written into out (numpy's out= convention: a C-contiguous
    float64 array of the weight's shape; out=layer.weight masks in place),
    which is returned; by default a new array.  The mask (read as bool,
    of the weight's shape) is negated as int64 to 0 or all ones and
    ANDed with the weight bits, MASK_BLOCK elements at a time (one row
    at least), so the only temporary is one block's int64 buffer."""
    w = layer.weight
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != w.shape:
        raise DimensionError(f"mask shape {mask.shape} != weight shape {w.shape}")
    _check_out(w, out)
    out = np.empty(w.shape) if out is None else out
    src, dst = w.view(np.int64), out.view(np.int64)
    step = max(1, MASK_BLOCK // w.shape[1])
    buf = np.empty((min(step, w.shape[0]), w.shape[1]), dtype=np.int64)
    for r0 in range(0, w.shape[0], step):
        keep = mask[r0 : r0 + step]
        bits = buf[: len(keep)]
        bits[...] = keep
        np.negative(bits, out=bits)
        np.bitwise_and(bits, src[r0 : r0 + step], out=dst[r0 : r0 + step])
    return out


def sequential_prune(
    model: ModelGraph,
    plan: SparsityPlan,
    batch: CalibrationSet,
    fine_method: str,
    norm_exponent: int = 1,
    lam: float | None = None,
    out: ModelGraph | None = None,
) -> tuple[ModelGraph, dict[str, np.ndarray], dict[str, float]]:
    """Prune layers in model order, conditioning on the pruned prefix.

    Each layer's activations are the batch propagated through the already
    pruned earlier layers; frozen layers are skipped but still forwarded.
    The pruned model is written into out (numpy's out= convention), which
    has model's layers: a structural copy, or model itself.  Each pruned
    layer's fine step writes straight into out's own weight array, once
    the reconstruction GEMM has read the dense weight for the last time;
    out keeps every array it holds, its frozen layers and biases are not
    touched, and its forward count grows by the batch's sample count.
    With out=model each layer is pruned in place, so a prune holds one
    model's weights and no second copy of any layer.  By default out is
    ``model.copy()``, which owns all its arrays: model is only read and
    the result shares no array with it.  A pass that raises may leave a
    pruned prefix in out, and out's current layer partly pruned.

    A layer's pruned pre-activation serves both its reconstruction error
    and, with bias and activation applied in its own buffer, the next
    layer's input.  The error is squared in the dense pre-activation's
    buffer, so a layer holds its input and two output-sized arrays at
    most.  Returns (out, keep-masks, per-layer reconstruction errors),
    where the reconstruction error is the squared Frobenius distance
    between dense and pruned pre-activation outputs on the captured
    activations.
    """
    if fine_method not in FINE_METHODS:
        raise InputError(f"fine_method must be one of {FINE_METHODS}")
    violations = validate_plan(plan, model)
    if violations:
        raise InputError("invalid plan: " + "; ".join(violations))

    h, _ = batch_input_matrix(model, batch)
    if out is None:
        out = model.copy()
    masks: dict[str, np.ndarray] = {}
    recon: dict[str, float] = {}
    for layer in model.layers():
        if layer.frozen:
            h = layer_forward(layer, h)
            continue
        alloc = plan.per_layer[layer.name]
        new_w = out.layer(layer.name).weight  # layer.weight itself when out is model
        try:
            if fine_method == "sparsegpt":
                err = h @ layer.weight.T  # the dense weight's last read
                mask, _ = sparsegpt_prune_layer(layer, h, alloc.keep_count, lam, out=new_w)
            else:
                mask = (
                    wanda_prune_layer(layer, h, alloc.keep_count, norm_exponent)
                    if fine_method == "wanda"
                    else magnitude_prune_layer(layer, alloc.keep_count)
                )
                err = h @ layer.weight.T  # the dense weight's last read
                apply_mask(layer, mask, out=new_w)
        except (InputError, NumericalError) as e:
            raise type(e)(f"while pruning layer {layer.name!r}: {e}") from e
        kept = int(np.count_nonzero(mask))
        if kept != alloc.keep_count:
            raise InputError(
                f"layer {layer.name!r}: mask keeps {kept}, plan says {alloc.keep_count}"
            )
        masks[layer.name] = mask
        check_finite(new_w, f"weights for {layer.name!r}")
        pre = h @ new_w.T
        err -= pre
        recon[layer.name] = float(np.sum(np.square(err, out=err)))
        del err
        if layer.bias is not None:
            pre += layer.bias
        h = _act(layer.activation, pre, out=pre)
    out.forward_count += batch.count
    return out, masks, recon
