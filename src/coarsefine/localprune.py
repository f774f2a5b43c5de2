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
  dozen or so numpy calls for the whole block, into buffers the layer
  allocates once; the step count, not the arithmetic, sets the cost at
  desk sizes.  Called alone, a block's U buffer is bounded by twice the
  larger of the weight and the inverse Hessian; in the sequential pass a
  layer takes larger blocks as long as its elimination, beside the
  pass's arrays of that layer, holds no more than the pass's largest
  one would under the standalone rule, so the pass's peak does not
  rise;
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
BLOCK_ARRAYS = 4  # [block, cols] arrays a sparsegpt step holds: d, col, tmp, the scores


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
    try:
        return check_finite(hinv)  # blockwise: no d_in x d_in flags
    except NumericalError:
        raise NumericalError(
            f"inverse Hessian has non-finite entries (lambda={lam}); increase damping"
        ) from None


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


def _top_k_rows(shape: tuple[int, int], k, block_scores, owned: bool = False) -> np.ndarray:
    """top_k_mask of a [rows, cols] score array that block_scores(rows)
    gives one block of rows (a slice or an index array) at a time; rows
    whose budget is 0 or cols are never scored.  Scores that are only
    read (owned false) are negated into a copy for the partition.  With
    owned, each call returns a new array the selection may write: it is
    negated and partitioned in place, then formed again for the
    comparisons, so one block of scores is alive at a time."""
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
                mask[sel] = _top_k_block(lambda: block_scores(sel), int(b), owned)
    return mask


def _top_k_block(scores, b: int, owned: bool) -> np.ndarray:
    """top_k_mask of the block of rows scores() forms, with one budget,
    0 < b < cols; see _top_k_rows for owned."""
    s = scores()
    neg = np.negative(s, out=s if owned else None)
    neg.partition(b - 1, axis=1)
    t = -neg[:, b - 1 : b]
    del neg
    if owned:  # s was partitioned as neg: form it again
        del s
        s = scores()
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
    rows at a time and twice (see _top_k_rows's owned), so no
    layer-sized array but the mask is made and one block of scores is
    alive at a time."""
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

    return _top_k_rows(w.shape, budgets, block_scores, owned=True)


def magnitude_prune_layer(layer: LayerSpec, keep_count: int) -> np.ndarray:
    """Keep the top keep_count |W_ij| in the layer, ties to lowest index.

    The layer is one row of |W|, formed twice (see _top_k_rows's owned),
    so one layer-sized float array is alive at a time."""
    if not 0 <= keep_count <= layer.size:
        raise InputError(f"keep_count {keep_count} out of range for {layer.name!r}")
    w = layer.weight.reshape(1, -1)
    mask = _top_k_rows(w.shape, keep_count, lambda rows: np.abs(w[rows]), owned=True)
    return mask.reshape(layer.weight.shape)


def sparsegpt_prune_layer(
    layer: LayerSpec,
    activations: np.ndarray,
    keep_count: int,
    lam: float | None = None,
    out: np.ndarray | None = None,
    _budget: int | None = None,
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

    Rows are eliminated in lockstep, B at a time.  After t steps row r's
    inverse is H^-1_0 - U_r U_r^T with U_r of shape [cols, t]: the pivot
    column is H^-1_0[:, q] - U_r U_r[q]^T and its diagonal is tracked as
    d_r.  Only H^-1_0 is kept (transposed), not H.  Called alone, the
    standalone rule sets B = max(1, 2*max(rows, cols) // T), at most
    rows, where T is the largest per-row prune count: the block's U
    buffer (B x T x cols) is thus at most twice the larger of the weight
    (rows x cols) and the dense inverse (cols x cols), and a tall layer
    takes fewer, larger blocks than a square one.  sequential_prune
    passes a private _budget instead, the bytes the elimination may hold
    (_elimination_bytes: U, H^-1_0 and a step's BLOCK_ARRAYS [B, cols]
    arrays); B is then the most rows that fit, spread evenly over the
    blocks, and no layer's elimination, with the pass's arrays beside
    it, holds more than the pass's largest one under the standalone
    rule (see _elimination_budgets).  How many rows share a block
    changes no bit of the result: each row goes through the same
    operations in the same order.
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

    hinv_t = np.ascontiguousarray(build_hessian(x, lam).T)  # H^-1_0's columns as rows
    n_prune = cols - budgets  # non-decreasing: the first rows keep one more
    steps = int(n_prune[-1])
    block = _block_rows(rows, cols, steps, _budget)
    u = np.empty((block, steps, cols))
    work = np.empty((BLOCK_ARRAYS - 1, block, cols))  # d, col, tmp
    mask = np.ones_like(w, dtype=bool)
    for b0 in range(0, rows, block):
        b1 = min(b0 + block, rows)
        _eliminate_block(out[b0:b1], mask[b0:b1], n_prune[b0:b1], hinv_t, u, work, layer.name)
    del hinv_t, u, work
    out[~mask] = 0.0
    return mask, out


def _block_rows(rows: int, cols: int, steps: int, budget: int | None = None) -> int:
    """Rows a sparsegpt block eliminates in lockstep.  With no budget, the
    standalone rule min(rows, max(1, 2*max(rows, cols) // steps)); with
    one, as many as fit _elimination_bytes into it (one at least), spread
    evenly over the blocks that takes."""
    if budget is None:
        return min(rows, max(1, 2 * max(rows, cols) // steps))
    fit = max(1, (budget // 8 - cols * cols) // (cols * (steps + BLOCK_ARRAYS)))
    return -(-rows // -(-rows // fit))


def _elimination_bytes(cols: int, steps: int, block: int) -> int:
    """Bytes a sparsegpt elimination of `block` rows a block holds: U
    (block x steps x cols), H^-1_0 (cols x cols) and the BLOCK_ARRAYS
    [block, cols] arrays of a step."""
    return 8 * cols * (cols + block * (steps + BLOCK_ARRAYS))


def _check_out(w: np.ndarray, out: np.ndarray | None) -> None:
    """out, when given, must be a C-contiguous float64 array of w's shape."""
    if out is not None and not (out.shape == w.shape and out.dtype == np.float64
                                and out.flags.c_contiguous):
        raise DimensionError(f"out must be a C-contiguous float64 {w.shape} array")


def _eliminate_block(
    w: np.ndarray,
    active: np.ndarray,
    n_prune: np.ndarray,
    hinv_t: np.ndarray,
    u: np.ndarray,
    work: np.ndarray,
    name: str,
) -> None:
    """Greedy OBS elimination of a block of rows in lockstep, in place.

    Row r's downdated inverse is H^-1_0 - U_r U_r^T, where column t of U_r
    is the scaled pivot column of its t-th elimination; only its diagonal
    d_r is kept explicitly.  hinv_t is H^-1_0 transposed (C-contiguous),
    so a pivot column is a row gather; u and work (d, col and tmp) are
    the layer's buffers, of at least the block's rows.  n_prune is
    non-decreasing, so the rows still eliminating at step t are a suffix
    of the block.  An eliminated entry of w is set to +inf; finite
    updates leave it there, so its score is inf / 1.0 = inf and argmin
    (ties to the lowest index) never prefers it to an active entry.  The
    caller zeroes those entries; active, not w, is the mask, so a weight
    that overflows to inf stays in the result for the finite check to
    catch.
    """
    n = w.shape[0]
    u = u[:n]
    d, col, tmp = work[:, :n]
    d[...] = hinv_t.diagonal()
    r = np.arange(n)
    row_start = r * w.shape[1]  # [r, q] is flat (C-order) index row_start[r] + q
    for t in range(int(n_prune[-1])):
        if t == n_prune[0]:  # the rows with one prune fewer are done
            k = int(np.searchsorted(n_prune, t, side="right"))
            w, active, n_prune, u = w[k:], active[k:], n_prune[k:], u[k:]
            d, col, tmp = d[k:], col[k:], tmp[k:]
            r, row_start = r[: r.size - k], row_start[: r.size - k]
        diag = np.where(active, d, 1.0)
        # any active d <= 0; fmin skips NaN, which compares false anyway
        if np.fmin.reduce(diag, axis=None) <= 0:
            raise NumericalError(
                f"layer {name!r}: inverse Hessian lost positivity "
                "during elimination; increase damping"
            )
        q = np.divide(np.square(w, out=tmp), diag, out=diag).argmin(axis=1)  # the scores
        del diag
        at = row_start + q
        dq = d.take(at)
        # column q of each row's current inverse, by one batched matmul; q is
        # in range, and take's default mode="raise" would buffer col
        hinv_t.take(q, axis=0, out=col, mode="clip")
        if t:
            col -= np.matmul(u[r, :t, q][:, None, :], u[:, :t], out=tmp[:, None, :])[:, 0]
        w -= np.multiply((w.take(at) / dq)[:, None], col, out=tmp)
        # U's new column, formed in tmp: a ufunc on the strided u[:, t] buffers it
        np.divide(col, np.sqrt(dq)[:, None], out=tmp)
        u[:, t] = tmp
        d -= np.square(tmp, out=tmp)
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


def _elimination_budgets(
    model: ModelGraph, plan: SparsityPlan, h: np.ndarray, h_borrowed: bool
) -> dict[str, int]:
    """Each sparsegpt-pruned layer's block budget in sequential_prune.

    A layer's elimination (_elimination_bytes) is alive beside the pass's
    arrays that change from layer to layer: its input (h, the first
    layer's, is the batch's own array when h_borrowed), its dense output
    and the masks so far, its own included.  The budget lets each layer
    hold as much as the largest such total under the standalone block
    rule, so no layer's elimination peaks above the pass's largest one.
    """
    held, peak, masks = {}, 0, 0
    for i, layer in enumerate(model.layers()):
        if layer.frozen:
            continue
        rows, cols = layer.weight.shape
        keep = plan.per_layer[layer.name].keep_count
        masks += rows * cols
        if keep == rows * cols:
            continue
        steps = cols - keep // rows
        held[layer.name] = masks + 8 * h.shape[0] * (rows + (cols if i or not h_borrowed else 0))
        peak = max(peak, held[layer.name]
                   + _elimination_bytes(cols, steps, _block_rows(rows, cols, steps)))
    return {name: peak - own for name, own in held.items()}


def sequential_prune(
    model: ModelGraph,
    plan: SparsityPlan,
    batch: CalibrationSet,
    fine_method: str,
    norm_exponent: int = 1,
    lam: float | None = None,
    out: ModelGraph | None = None,
    _handoff: list | None = None,
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

    The pass ends holding the pruned model's output on the batch, so
    _handoff (for :func:`coarsefine.pipeline.cmd_prune`), a list,
    receives (that output, len(layers)), the input of no layer: a
    forward of out from there is the loss alone.
    """
    if fine_method not in FINE_METHODS:
        raise InputError(f"fine_method must be one of {FINE_METHODS}")
    violations = validate_plan(plan, model)
    if violations:
        raise InputError("invalid plan: " + "; ".join(violations))

    h, _ = batch_input_matrix(model, batch)
    budgets = (_elimination_budgets(model, plan, h, np.may_share_memory(h, batch.xs))
               if fine_method == "sparsegpt" else {})
    if out is None:
        out = model.copy()
    masks: dict[str, np.ndarray] = {}
    recon: dict[str, float] = {}
    for layer in model.layers():
        if layer.frozen:
            h = layer_forward(layer, h)
            continue
        alloc = plan.per_layer[layer.name]
        out_layer = out.layer(layer.name)  # layer itself when out is model
        new_w = out_layer.weight
        try:
            if fine_method == "sparsegpt":
                err = h @ layer.weight.T  # the dense weight's last read
                # out's layer holds the dense weight too: eliminate it where it is
                mask, _ = sparsegpt_prune_layer(out_layer, h, alloc.keep_count, lam, out=new_w,
                                                _budget=budgets.get(layer.name))
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
        del pre  # h alone holds it: a frozen layer's forward lets it go
    out.forward_count += batch.count
    if _handoff is not None:
        _handoff.append((h, len(model.layers())))
    return out, masks, recon
