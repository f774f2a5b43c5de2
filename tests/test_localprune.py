"""Local pruning criteria: hand-scored examples, brute-force oracles,
sequential conditioning."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coarsefine import localprune
from coarsefine.allocation import LayerAllocation, SparsityPlan, allocate_sparsity, uniform_plan
from coarsefine.errors import DimensionError, InputError, NumericalError
from coarsefine.localprune import (
    build_hessian,
    magnitude_prune_layer,
    sequential_prune,
    sparsegpt_prune_layer,
    top_k_mask,
    wanda_prune_layer,
)
from coarsefine.model import LayerSpec, batch_input_matrix, layer_forward
from coarsefine.scoring import ScoreMap, aggregate_to_layers, first_order_saliency

from conftest import array_bytes, random_batch, random_mlp, shared_arrays, tiny_linear_model


def layer_of(w):
    return LayerSpec("L", "linear", np.asarray(w, dtype=np.float64))


def ls_refit(w0, gram, keep_idx):
    """Exact least-squares refit of the kept support: minimize the
    activation-space reconstruction error (w - w0)^T G (w - w0)."""
    w = np.zeros_like(w0)
    sub = gram[np.ix_(keep_idx, keep_idx)]
    rhs = gram[keep_idx] @ w0
    w[keep_idx] = np.linalg.solve(sub, rhs)
    return w


def recon_error(w0, w, gram):
    d = w - w0
    return float(d @ gram @ d)


def sparsegpt_row_loop(layer, activations, keep_count, lam=None):
    """Reference sparsegpt: one greedy OBS loop per row, with a dense
    cols x cols copy of H^-1 downdated by a rank-1 outer product after
    every elimination."""
    w = layer.weight
    rows, cols = w.shape
    if keep_count == w.size:
        return np.ones_like(w, dtype=bool), w.copy()
    base, rem = divmod(keep_count, rows)
    hinv0 = build_hessian(activations, lam)
    mask = np.ones_like(w, dtype=bool)
    new_w = w.copy()
    for r in range(rows):
        n_prune = cols - (base + (1 if r < rem else 0))
        if n_prune == 0:
            continue
        wr = w[r].copy()
        hinv = hinv0.copy()
        active = np.ones(cols, dtype=bool)
        for _ in range(n_prune):
            diag = np.diag(hinv)
            if np.any(diag[active] <= 0):
                raise NumericalError("inverse Hessian lost positivity")
            scores = np.where(active, wr * wr / np.where(active, diag, 1.0), np.inf)
            q = int(np.argmin(scores))
            dq = hinv[q, q]
            wr[active] -= (wr[q] / dq) * hinv[active, q]
            wr[q] = 0.0
            col = hinv[:, q].copy()
            hinv -= np.outer(col, col) / dq
            active[q] = False
            mask[r, q] = False
        new_w[r] = wr
    return mask, new_w


def lockstep_reference(layer, activations, keep_count, lam=None):
    """Reference lockstep sparsegpt as first written: blocks of
    max(1, 2*cols // T) rows, eliminated entries masked out of the score
    by a second np.where, positivity checked by a compare and .any().
    sparsegpt_prune_layer must give the same bits and the same errors."""
    w = layer.weight
    rows, cols = w.shape
    if keep_count == w.size:
        return np.ones_like(w, dtype=bool), w.copy()
    base, rem = divmod(keep_count, rows)
    n_prune_all = cols - np.array([base + (1 if r < rem else 0) for r in range(rows)])
    hinv0 = localprune.build_hessian(activations, lam)
    steps = int(n_prune_all[-1])
    block = max(1, 2 * cols // steps)
    mask = np.ones_like(w, dtype=bool)
    new_w = w.copy()
    for b0 in range(0, rows, block):
        rows_b = slice(b0, b0 + block)
        w_b, active, n_prune = new_w[rows_b], mask[rows_b], n_prune_all[rows_b]
        u = np.empty((w_b.shape[0], steps, cols))
        d = np.repeat(np.diag(hinv0)[None, :], w_b.shape[0], axis=0)
        r = np.arange(w_b.shape[0])
        for t in range(int(n_prune[-1])):
            if t == n_prune[0]:
                k = int(np.searchsorted(n_prune, t, side="right"))
                w_b, active, n_prune, u, d, r = (
                    w_b[k:], active[k:], n_prune[k:], u[k:], d[k:], r[: r.size - k]
                )
            diag = np.where(active, d, 1.0)
            if (diag <= 0).any():
                raise NumericalError(
                    f"layer {layer.name!r}: inverse Hessian lost positivity "
                    "during elimination; increase damping"
                )
            q = np.where(active, w_b * w_b / diag, np.inf).argmin(axis=1)
            dq = d[r, q]
            col = hinv0.T[q] - np.matmul(u[r, :t, q][:, None, :], u[:, :t])[:, 0]
            w_b -= (w_b[r, q] / dq)[:, None] * col
            u[:, t] = col / np.sqrt(dq)[:, None]
            d -= u[:, t] ** 2
            active[r, q] = False
    new_w[~mask] = 0.0
    return mask, new_w


def argsort_top_k(scores, budgets):
    """Reference top-k: the first budget entries of a stable argsort of
    each row's negated scores."""
    mask = np.zeros(scores.shape, dtype=bool)
    for r, b in enumerate(budgets):
        mask[r, np.argsort(-scores[r], kind="stable")[:b]] = True
    return mask


def wanda_row_loop(layer, activations, keep_count):
    """Reference wanda, the loop top_k_mask replaced: the score matrix
    |W_ij| * ||X_j||, then one stable argsort per output row."""
    w = layer.weight
    scores = np.abs(w) * np.sqrt(np.sum(activations * activations, axis=0))[None, :]
    base, rem = divmod(keep_count, w.shape[0])
    budgets = [base + (1 if r < rem else 0) for r in range(w.shape[0])]
    return argsort_top_k(scores, budgets)


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWanda:
    def test_hand_scored_row(self):
        # scores |w| * norm: [3, 2, 3] -> the middle weight goes
        layer = layer_of([[1.0, -2.0, 3.0]])
        acts = np.diag([3.0, 1.0, 1.0])
        mask = wanda_prune_layer(layer, acts, keep_count=2, norm_exponent=1)
        np.testing.assert_array_equal(mask, [[True, False, True]])

    def test_exponent_changes_the_choice(self):
        layer = layer_of([[2.0, 1.0]])
        acts = np.diag([1.0, 1.5])
        m1 = wanda_prune_layer(layer, acts, keep_count=1, norm_exponent=1)
        m2 = wanda_prune_layer(layer, acts, keep_count=1, norm_exponent=2)
        np.testing.assert_array_equal(m1, [[True, False]])   # scores [2, 1.5]
        np.testing.assert_array_equal(m2, [[False, True]])   # scores [2, 2.25]

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_equal_norms_reduce_to_per_row_magnitude(self, exponent):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=(5, 8))
            layer = layer_of(w)
            acts = np.ones((3, 8))  # all column norms equal sqrt(3)
            keep = int(rng.integers(1, w.size))
            mask = wanda_prune_layer(layer, acts, keep, norm_exponent=exponent)
            # oracle: per-row magnitude sort with the same row budgets
            base, rem = divmod(keep, 5)
            for r in range(5):
                k_r = base + (1 if r < rem else 0)
                order = np.argsort(-np.abs(w[r]), kind="stable")
                expected = np.zeros(8, dtype=bool)
                expected[order[:k_r]] = True
                np.testing.assert_array_equal(mask[r], expected)

    def test_infeasible_keep_rejected(self):
        layer = layer_of([[1.0, 2.0]])
        with pytest.raises(InputError):
            wanda_prune_layer(layer, np.ones((1, 2)), keep_count=5)


@st.composite
def scores_and_budgets(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 12))
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])
    values = draw(st.sampled_from([
        st.integers(-2, 2).map(float),  # integer-valued: ties everywhere
        st.one_of(st.integers(-3, 3).map(float), special),
        st.floats(allow_nan=True, allow_infinity=True),
        None,
    ]))
    if values is None:  # row-distinct numbers: no tie, so the early return
        scores = draw(hnp.arrays(np.float64, (rows, cols), unique=True,
                                 elements=st.floats(allow_nan=False)))
    else:
        scores = draw(hnp.arrays(np.float64, (rows, cols), elements=values))
    budgets = draw(st.one_of(
        st.integers(0, cols),  # one budget for every row
        st.lists(st.integers(0, cols), min_size=rows, max_size=rows),
    ))
    return scores, budgets


class TestTopKMask:
    """top_k_mask against the stable-argsort oracle."""

    @settings(max_examples=300, deadline=None)
    @given(case=scores_and_budgets(), block=st.sampled_from([1, 7, 1 << 15]))
    def test_matches_stable_argsort(self, case, block):
        scores, k = case
        budgets = np.broadcast_to(np.asarray(k), scores.shape[:1])
        flat = scores.reshape(1, -1)  # the whole-layer case: one row
        b = int(budgets.sum()) % (flat.size + 1)
        given = scores.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localprune, "TOP_K_BLOCK", block)  # rows over many blocks
            np.testing.assert_array_equal(
                top_k_mask(scores, k), argsort_top_k(scores, budgets)
            )
            np.testing.assert_array_equal(top_k_mask(flat, b), argsort_top_k(flat, [b]))
            # owned blocks, partitioned in place and formed again, select the same
            owned = localprune._top_k_rows(scores.shape, k, lambda rows: scores[rows].copy(),
                                           owned=True)
            np.testing.assert_array_equal(owned, argsort_top_k(scores, budgets))
        assert scores.tobytes() == given.tobytes()  # caller-given scores are never written

    def test_ties_nan_and_signed_zero(self):
        s = np.array([[1.0, np.nan, 1.0, -0.0, 0.0, np.inf, np.nan]])
        got = [np.flatnonzero(top_k_mask(s, k)[0]).tolist() for k in range(8)]
        assert got == [[], [5], [0, 5], [0, 2, 5], [0, 2, 3, 5], [0, 2, 3, 4, 5],
                       [0, 1, 2, 3, 4, 5], list(range(7))]

    @pytest.mark.parametrize("scores, b", [
        # row 0's threshold is NaN (one number for b = 2) and it holds no
        # score >= NaN; row 1's four ties make up the rows * b total
        ([[1.0, np.nan, np.nan, np.nan], [5.0, 5.0, 5.0, 5.0]], 2),
        ([[np.nan, 2.0, np.nan], [7.0, 7.0, 7.0], [0.0, -0.0, 0.0]], 2),
        ([[3.0, 1.0, 3.0, 3.0], [2.0, 2.0, 0.0, 2.0]], 2),  # ties cross b
        ([[-0.0, 0.0, 1.0], [1.0, 0.0, -0.0]], 2),  # signed zeros tie
        ([[0.5, -1.0, 3.0, 2.0], [9.0, -np.inf, np.inf, 1.0]], 2),  # distinct
    ])
    def test_early_return_guard(self, scores, b):
        s = np.array(scores)
        np.testing.assert_array_equal(top_k_mask(s, b), argsort_top_k(s, [b] * len(s)))

    @pytest.mark.parametrize("k", [-1, 4, [0, 4]])
    def test_infeasible_budget_rejected(self, k):
        with pytest.raises(InputError):
            top_k_mask(np.zeros((2, 3)), k)

    def test_wanda_matches_row_loop_with_less_memory(self):
        rng = np.random.default_rng(17)
        layer = layer_of(rng.normal(size=(512, 512)))
        acts = rng.normal(size=(64, 512))
        keep = layer.size // 2 + 100  # two row budgets
        mask = wanda_prune_layer(layer, acts, keep)
        np.testing.assert_array_equal(mask, wanda_row_loop(layer, acts, keep))
        ours = peak_bytes(wanda_prune_layer, layer, acts, keep)
        ref = peak_bytes(wanda_row_loop, layer, acts, keep)
        assert ours <= ref

    def test_wanda_holds_one_score_block(self):
        # 512 x 512: past the bool mask, one block of scores, partitioned
        # in place and formed again, and under half a block of boolean and
        # numpy buffer temporaries (0.64 MB); partitioning a negated copy
        # of the block read 0.90 MB
        rng = np.random.default_rng(19)
        layer = layer_of(rng.normal(size=(512, 512)))
        acts = rng.normal(size=(64, 512))
        keep = layer.size // 2 + 100
        wanda_prune_layer(layer, acts, keep)  # first-call allocations are not wanda's
        assert layer.size > 4 * localprune.TOP_K_BLOCK
        assert peak_bytes(wanda_prune_layer, layer, acts, keep) < (
            layer.size + 1.5 * 8 * localprune.TOP_K_BLOCK)

    def test_wanda_past_one_block(self):
        # 301 x 203: TOP_K_BLOCK holds 161 rows, so the 200 rows that keep
        # 101 take a full block and a ragged one; MASK_BLOCK holds 40 rows,
        # and 301 rows end in a ragged block of 21
        rng = np.random.default_rng(18)
        layer = layer_of(rng.normal(size=(301, 203)))
        acts = rng.normal(size=(16, 203))
        assert layer.size > localprune.TOP_K_BLOCK and 301 % (localprune.MASK_BLOCK // 203)
        for keep in (301 * 100 + 200, 301 * 50):  # two row budgets, then one
            for e in (1, 2):
                mask = wanda_prune_layer(layer, acts, keep, norm_exponent=e)
                budgets = localprune._row_budgets(keep, 301, 203)
                whole = top_k_mask(localprune.wanda_scores(layer.weight, acts, e), budgets)
                assert mask.tobytes() == whole.tobytes()
                if e == 1:
                    assert mask.tobytes() == wanda_row_loop(layer, acts, keep).tobytes()
            masked = localprune.apply_mask(layer, mask)
            assert masked.tobytes() == np.where(mask, layer.weight, 0.0).tobytes()


class TestMagnitude:
    def test_keep_all(self):
        layer = layer_of([[1.0, 2.0], [3.0, 4.0]])
        assert magnitude_prune_layer(layer, 4).all()

    def test_hand_example(self):
        layer = layer_of([[1.0, -3.0, 2.0, 0.5]])
        mask = magnitude_prune_layer(layer, 2)
        np.testing.assert_array_equal(mask, [[False, True, True, False]])

    def test_sort_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.normal(size=(4, 6))
            keep = int(rng.integers(0, w.size + 1))
            mask = magnitude_prune_layer(layer_of(w), keep)
            flat = np.abs(w).reshape(-1)
            order = np.argsort(-flat, kind="stable")
            expected = np.zeros(w.size, dtype=bool)
            expected[order[:keep]] = True
            np.testing.assert_array_equal(mask.reshape(-1), expected)

    def test_ties_and_signed_zeros_go_by_index(self):
        rng = np.random.default_rng(2)
        w = rng.integers(-2, 3, size=(5, 7)).astype(np.float64)
        w[0, :3] = [-0.0, 0.0, -0.0]
        for keep in range(w.size + 1):
            mask = magnitude_prune_layer(layer_of(w), keep)
            expected = argsort_top_k(np.abs(w).reshape(1, -1), [keep])
            np.testing.assert_array_equal(mask.reshape(1, -1), expected)

    def test_holds_one_layer_sized_score(self):
        # 512 x 512: the |W| row is negated and partitioned in place, then
        # formed again, so one 2 MB float row lives with the bool masks
        # (2.62 MB); a negated copy beside it read 4.72 MB
        rng = np.random.default_rng(3)
        layer = layer_of(rng.normal(size=(512, 512)))
        keep = layer.size // 2 + 100
        magnitude_prune_layer(layer, keep)  # first-call allocations are not the selection's
        assert peak_bytes(magnitude_prune_layer, layer, keep) < 1.5 * layer.weight.nbytes


class TestSparseGPT:
    def test_identity_hessian_reduces_to_row_magnitude(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        layer = layer_of(w)
        acts = np.eye(4)  # X^T X = I
        mask, new_w = sparsegpt_prune_layer(layer, acts, keep_count=6, lam=0.0)
        base, rem = divmod(6, 3)
        for r in range(3):
            k_r = base + (1 if r < rem else 0)
            order = np.argsort(-np.abs(w[r]), kind="stable")
            expected = np.zeros(4, dtype=bool)
            expected[order[:k_r]] = True
            np.testing.assert_array_equal(mask[r], expected)
        # with H = I the update touches only the pruned coordinate
        np.testing.assert_array_equal(new_w[mask], w[mask])
        assert np.all(new_w[~mask] == 0.0)

    def test_worked_two_weight_row(self):
        # w = [1, 1], H = [[2, 1], [1, 2]]: survivors must match the exact
        # least-squares refit and beat-or-tie the alternative mask
        gram = np.array([[2.0, 1.0], [1.0, 2.0]])
        chol = np.linalg.cholesky(gram)
        acts = chol.T  # acts^T acts == gram
        w0 = np.array([[1.0, 1.0]])
        mask, new_w = sparsegpt_prune_layer(layer_of(w0), acts, keep_count=1, lam=0.0)
        kept = int(np.flatnonzero(mask[0])[0])
        refit = ls_refit(w0[0], gram, [kept])
        np.testing.assert_allclose(new_w[0], refit, atol=1e-8)
        chosen_err = recon_error(w0[0], new_w[0], gram)
        other = 1 - kept
        other_err = recon_error(w0[0], ls_refit(w0[0], gram, [other]), gram)
        assert chosen_err <= other_err + 1e-12

    def test_huge_damping_degenerates_to_magnitude(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 6))
        acts = rng.normal(size=(12, 6))
        scale = float(np.mean(np.diag(acts.T @ acts)))
        layer = layer_of(w)
        mask, new_w = sparsegpt_prune_layer(layer, acts, keep_count=6, lam=1e8 * scale)
        for r in range(2):
            order = np.argsort(-np.abs(w[r]), kind="stable")
            expected = np.zeros(6, dtype=bool)
            expected[order[:3]] = True
            np.testing.assert_array_equal(mask[r], expected)
        # compensation vanishes in the huge-damping limit
        np.testing.assert_allclose(new_w[mask], w[mask], atol=1e-6)

    def test_multi_prune_survivors_equal_ls_refit(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = 7
            acts = rng.normal(size=(15, d))
            gram = acts.T @ acts
            w = rng.normal(size=(1, d))
            keep = int(rng.integers(1, d))
            mask, new_w = sparsegpt_prune_layer(layer_of(w), acts, keep, lam=0.0)
            keep_idx = list(np.flatnonzero(mask[0]))
            refit = ls_refit(w[0], gram, keep_idx)
            np.testing.assert_allclose(new_w[0], refit, atol=1e-8)

    def test_singular_hessian_without_damping_raises(self):
        acts = np.zeros((3, 4))
        acts[:, 0] = 1.0  # rank-1 activations
        with pytest.raises(NumericalError):
            sparsegpt_prune_layer(layer_of(np.ones((1, 4))), acts, 2, lam=0.0)

    def test_hessian_inverse_invariant(self):
        rng = np.random.default_rng(5)
        acts = rng.normal(size=(30, 10))
        gram = acts.T @ acts
        h = gram + 0.01 * float(np.mean(np.diag(gram))) * np.eye(10)
        resid = np.abs(build_hessian(acts) @ h - np.eye(10)).max()
        assert resid < 1e-8

    def test_damping_in_place_is_bit_equal_to_adding_lam_eye(self):
        acts = np.random.default_rng(14).normal(size=(32, 128))
        gram = acts.T @ acts
        for lam in (None, 0.0, 0.37):
            expect_lam = 0.01 * float(np.mean(np.diag(gram))) if lam is None else lam
            h = gram + expect_lam * np.eye(128)
            assert np.array_equal(build_hessian(acts, lam), np.linalg.inv(h))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 200 * 200 // 2, 200 * 200 - 1])  # 40,000: two blocks
    def test_non_finite_inverse_raises(self, monkeypatch, value, at):
        real_inv = np.linalg.inv

        def inv(h):
            hinv = real_inv(h)
            hinv.flat[at] = value
            return hinv

        monkeypatch.setattr(np.linalg, "inv", inv)
        acts = np.random.default_rng(21).normal(size=(210, 200))
        with pytest.raises(NumericalError) as info:
            build_hessian(acts, lam=0.5)
        assert str(info.value) == (
            "inverse Hessian has non-finite entries (lambda=0.5); increase damping"
        )

    def test_finite_check_holds_no_matrix_of_flags(self):
        # H and its inverse are 2 MiB each; the d_in x d_in bool array of
        # an np.isfinite check put 262,144 bytes on top of them
        acts = np.random.default_rng(22).normal(size=(64, 512))
        assert peak_bytes(build_hessian, acts) < 2 * 512 * 512 * 8 + 512 * 512 // 4

    def test_beats_magnitude_reconstruction(self):
        # compensation should beat plain magnitude masking on the same
        # budget in nearly every random trial
        rng = np.random.default_rng(6)
        wins = 0
        trials = 100
        for _ in range(trials):
            d = 8
            acts = rng.normal(size=(16, d))
            gram = acts.T @ acts
            w = rng.normal(size=(1, d))
            keep = 4
            _, new_w = sparsegpt_prune_layer(layer_of(w), acts, keep, lam=0.0)
            err_gpt = recon_error(w[0], new_w[0], gram)
            mag_mask = magnitude_prune_layer(layer_of(w), keep)
            err_mag = recon_error(w[0], np.where(mag_mask[0], w[0], 0.0), gram)
            wins += err_gpt <= err_mag + 1e-12
        assert wins >= 0.95 * trials


@pytest.mark.parametrize("prune", [wanda_prune_layer, sparsegpt_prune_layer])
@pytest.mark.parametrize("shape", [(3, 3), (2,)], ids=["wrong width", "1-D"])
def test_activation_shape_rejected(prune, shape):
    with pytest.raises(InputError, match=r"does not match layer d_in 2"):
        prune(layer_of([[1.0, 2.0], [3.0, 4.0]]), np.ones(shape), 2)


class TestSparseGPTLockstep:
    """The lockstep elimination against the per-row reference loop."""

    def test_matches_row_loop_on_random_layers(self):
        rng = np.random.default_rng(15)
        ragged_blocks = uneven_budgets = 0
        for i in range(200):
            rows, cols = int(rng.integers(1, 25)), int(rng.integers(2, 41))
            w = rng.normal(size=(rows, cols))  # continuous: no score ties
            acts = rng.normal(size=(cols + int(rng.integers(1, 9)), cols))
            keep = int(rng.integers(0, rows * cols + 1))
            lam = None if i % 2 else 0.0
            layer = layer_of(w)
            ref_mask, ref_w = sparsegpt_row_loop(layer, acts, keep, lam)
            mask, new_w = sparsegpt_prune_layer(layer, acts, keep, lam)
            np.testing.assert_array_equal(mask, ref_mask)
            np.testing.assert_allclose(new_w[mask], ref_w[mask], rtol=0, atol=1e-10)
            assert np.all(new_w[~mask] == 0.0)
            if keep < rows * cols:
                steps = cols - keep // rows
                ragged_blocks += rows % max(1, 2 * cols // steps) != 0
                uneven_budgets += keep % rows != 0
        assert ragged_blocks > 20 and uneven_budgets > 20

    @pytest.mark.parametrize("rows,keep", [(7, 7 * 40 - 1), (13, 13 * 3 + 5), (9, 1)])
    def test_budgets_one_apart_and_partial_last_block(self, rows, keep):
        rng = np.random.default_rng(rows)
        w = rng.normal(size=(rows, 40))
        acts = rng.normal(size=(48, 40))
        ref_mask, ref_w = sparsegpt_row_loop(layer_of(w), acts, keep)
        mask, new_w = sparsegpt_prune_layer(layer_of(w), acts, keep)
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_allclose(new_w, ref_w, rtol=0, atol=1e-10)
        kept = mask.sum(axis=1)
        assert kept.max() - kept.min() <= 1 and int(kept.sum()) == keep

    def test_bit_equal_to_lockstep_reference(self):
        rng = np.random.default_rng(17)
        seen = dict.fromkeys(["tall", "zeros", "uneven", "ragged", "lam0", "error"], 0)
        for i in range(240):
            rows, cols = int(rng.integers(1, 70)), int(rng.integers(2, 41))
            w = rng.normal(size=(rows, cols))
            if i % 4 == 0:  # exact zeros: equal scores, ties to the lowest index
                w[rng.random(w.shape) < 0.3] = 0.0
            # fewer activation rows than columns: H is singular without damping
            acts = rng.normal(size=(int(rng.integers(cols // 2 + 1, cols + 9)), cols))
            keep = int(rng.integers(0, rows * cols + 1))
            lam = (None, 0.0, 1e-6)[i % 3]
            layer = layer_of(w)
            results = []
            for prune in (lockstep_reference, sparsegpt_prune_layer):
                try:
                    mask, new_w = prune(layer, acts, keep, lam)
                    results.append((mask.tobytes(), new_w.tobytes()))
                except NumericalError as e:
                    results.append((type(e), str(e)))
            assert results[0] == results[1]
            seen["error"] += results[0][0] is NumericalError
            seen["lam0"] += lam == 0.0 and results[0][0] is not NumericalError
            seen["tall"] += rows > cols
            seen["zeros"] += i % 4 == 0
            if keep < rows * cols:
                steps = cols - keep // rows
                seen["ragged"] += rows % min(rows, max(1, 2 * max(rows, cols) // steps)) != 0
                seen["uneven"] += keep % rows != 0
        assert min(seen.values()) > 20, seen

    def test_positivity_lost_mid_elimination_raises_as_reference(self, monkeypatch):
        # diag(H^-1) is positive but H^-1 is indefinite: the third step
        # finds a negative diagonal entry on an active column
        hinv = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        monkeypatch.setattr(localprune, "build_hessian", lambda x, lam=None: hinv.copy())
        layer = layer_of([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        acts = np.eye(3)
        messages = []
        for prune in (lockstep_reference, sparsegpt_prune_layer):
            with pytest.raises(NumericalError, match="lost positivity") as info:
                prune(layer, acts, 0)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        # one prune fewer never reaches the negative entry
        mask, _ = sparsegpt_prune_layer(layer, acts, 2)
        assert mask.sum(axis=1).tolist() == [1, 1]

    def test_tall_layer_u_buffer_within_twice_the_weight(self):
        # 512x64 at 0.5: B = 2*512 // 32 = 32 rows a block, so U is
        # 32 x 32 x 64 doubles, twice the weight; with the result (1x) and
        # the mask (1/8x) that leaves under 7/8x for the inverse and the
        # per-step temporaries
        rng = np.random.default_rng(18)
        layer = layer_of(rng.normal(size=(512, 64)))
        acts = rng.normal(size=(128, 64))
        assert peak_bytes(sparsegpt_prune_layer, layer, acts, layer.size // 2) <= (
            4 * layer.weight.nbytes
        )

    def test_peak_memory_not_above_row_loop(self):
        rng = np.random.default_rng(16)
        layer = layer_of(rng.normal(size=(128, 128)))
        acts = rng.normal(size=(256, 128))
        keep = layer.size // 2
        ours = peak_bytes(sparsegpt_prune_layer, layer, acts, keep)
        ref = peak_bytes(sparsegpt_row_loop, layer, acts, keep)
        assert ours <= ref


    def test_block_height_changes_no_bit(self, monkeypatch):
        # one row a block, the standalone rule, and all rows in one block
        # (private budgets 0, None and one too large to matter)
        heights = []
        real = localprune._eliminate_block

        def spy(w, *args):
            heights.append(w.shape[0])
            return real(w, *args)

        monkeypatch.setattr(localprune, "_eliminate_block", spy)
        rng = np.random.default_rng(23)
        seen = dict.fromkeys(["zeros", "lam0", "uneven", "error", "between"], 0)
        for i in range(150):
            rows, cols = int(rng.integers(1, 40)), int(rng.integers(2, 30))
            w = rng.normal(size=(rows, cols))
            if i % 3 == 0:  # exact zeros: equal scores, ties to the lowest index
                w[rng.random(w.shape) < 0.3] = 0.0
            acts = rng.normal(size=(int(rng.integers(cols // 2 + 1, cols + 9)), cols))
            keep = int(rng.integers(0, rows * cols))  # below the layer: an elimination runs
            lam = (None, 0.0)[i % 2]  # 0.0 with fewer rows than columns: H singular
            results, heights_of = [], []
            for budget in (0, None, 1 << 62):
                heights.clear()
                try:
                    mask, new_w = sparsegpt_prune_layer(layer_of(w), acts, keep, lam,
                                                        _budget=budget)
                    results.append((mask.tobytes(), new_w.tobytes()))
                except NumericalError as e:
                    results.append(str(e))
                heights_of.append(list(heights))
            assert results[0] == results[1] == results[2]
            assert set(heights_of[0]) <= {1} and heights_of[2] in ([], [rows])
            seen["error"] += isinstance(results[0], str)
            seen["lam0"] += lam == 0.0 and not isinstance(results[0], str)
            seen["zeros"] += i % 3 == 0
            seen["uneven"] += keep % rows != 0
            seen["between"] += 1 < max(heights_of[1], default=1) < rows
        assert min(seen.values()) > 10, seen

    def test_block_height_keeps_the_lost_positivity_error(self, monkeypatch):
        hinv = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        monkeypatch.setattr(localprune, "build_hessian", lambda x, lam=None: hinv.copy())
        layer = layer_of([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        for keep, raises in ((0, True), (2, False)):
            results = []
            for budget in (0, None, 1 << 62):
                try:
                    mask, new_w = sparsegpt_prune_layer(layer, np.eye(3), keep, _budget=budget)
                    results.append((mask.tobytes(), new_w.tobytes()))
                except NumericalError as e:
                    results.append(str(e))
            assert results[0] == results[1] == results[2]
            assert isinstance(results[0], str) == raises
            assert not raises or "lost positivity" in results[0]


# taken before any test patches them, so a patch never wraps another's spy
ELIMINATE_BLOCK, BLOCK_ROWS = localprune._eliminate_block, localprune._block_rows


def sparsegpt_footprint(monkeypatch, model, plan, batch, pass_wide):
    """(tracemalloc peak, blocks per layer, pruned weights) of a sparsegpt
    pass, with the pass-wide block budget or each layer's standalone rule.
    The first passes of a process fill caches (scipy's import for gelu
    among them), so the caller runs each kind once before comparing; out
    is copied untraced, so two peaks differ by the elimination alone."""
    blocks = {}

    def spy(*args):
        blocks[args[-1]] = blocks.get(args[-1], 0) + 1
        return ELIMINATE_BLOCK(*args)

    monkeypatch.setattr(localprune, "_eliminate_block", spy)
    monkeypatch.setattr(localprune, "_block_rows", BLOCK_ROWS if pass_wide else
                        lambda rows, cols, steps, budget=None: BLOCK_ROWS(rows, cols, steps))
    out = model.copy()
    gc.collect()
    gc.disable()  # a collection inside the pass would move its peak by a few objects
    tracemalloc.start()
    try:
        sequential_prune(model, plan, batch, "sparsegpt", out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    return peak, blocks, [l.weight.tobytes() for l in out.layers()]


def keep_plan(model, keeps, p_max=0.9):
    """A plan with these keep counts, whose total is an exact global sparsity."""
    sizes = {l.name: l.size for l in model.prunable_layers()}
    target = 1.0 - sum(keeps.values()) / sum(sizes.values())
    plan = SparsityPlan(target, p_max, "layer", {
        name: LayerAllocation(1.0 - keeps[name] / size, keeps[name], size)
        for name, size in sizes.items()}, sum(keeps.values()))
    assert not localprune.validate_plan(plan, model)
    return plan


def footprint_case(case):
    """(model, plan, batch) of a footprint case."""
    rng = np.random.default_rng(24)
    if case == "64-128-128-32 first-order":  # the sparsegpt benchmark workload's shape
        model, batch = random_mlp(rng, [64, 128, 128, 32]), random_batch(rng, 32, 64, 32)
        scores = aggregate_to_layers(first_order_saliency(model, batch), "sum", "first_order")
        return model, allocate_sparsity(scores, model, 0.5, 0.6), batch
    widths = [16, 32, 32, 1 if case == "one-row layer" else 16]
    model = random_mlp(rng, widths)
    if case == "frozen layer":
        model.layer("L1").frozen = True
    keeps = {l.name: l.size // 2 for l in model.prunable_layers()}
    if case == "full keep":
        keeps["L1"] = model.layer("L1").size
    return model, keep_plan(model, keeps), random_batch(rng, 8, widths[0], widths[-1])


class TestPassWideBlockBudget:
    """sequential_prune hands each sparsegpt layer a private block budget:
    larger blocks where the layer sits below the pass's largest
    elimination, and no higher peak than the standalone rule."""

    @pytest.mark.parametrize("case", ["64-128-128-32 first-order", "frozen layer",
                                      "full keep", "one-row layer"])
    def test_peak_not_above_the_standalone_rule(self, monkeypatch, case):
        model, plan, batch = footprint_case(case)
        for pass_wide in (True, False):  # the first passes fill caches: see sparsegpt_footprint
            sparsegpt_footprint(monkeypatch, model, plan, batch, pass_wide)
        peak, blocks, weights = sparsegpt_footprint(monkeypatch, model, plan, batch, True)
        ref_peak, ref_blocks, ref_weights = sparsegpt_footprint(
            monkeypatch, model, plan, batch, False)
        assert weights == ref_weights
        assert peak <= ref_peak
        assert blocks["L0"] < ref_blocks["L0"]  # the first layer sits below the peak
        skipped = {"frozen layer": {"L1"}, "full keep": {"L1"}}.get(case, set())
        assert blocks.keys() == ref_blocks.keys() == {"L0", "L1", "L2"} - skipped
        if case == "one-row layer":
            assert blocks["L2"] == ref_blocks["L2"] == 1


class TestSequentialPrune:
    def test_zero_sparsity_plan_is_identity(self):
        rng = np.random.default_rng(7)
        model = random_mlp(rng, [6, 8, 4])
        batch = random_batch(rng, 4, 6, 4)
        plan = uniform_plan(model, 0.0)
        pruned, masks, recon = sequential_prune(model, plan, batch, "wanda")
        for layer in model.layers():
            assert pruned.layer(layer.name).weight.tobytes() == layer.weight.tobytes()
            assert masks[layer.name].all()
        assert all(v == 0.0 for v in recon.values())

    def test_activations_condition_on_pruned_prefix(self):
        # the activations used to prune layer 2 must come from the pruned
        # layer 1, not the dense one
        rng = np.random.default_rng(8)
        model = random_mlp(rng, [5, 6, 3], activation="relu")
        batch = random_batch(rng, 4, 5, 3)
        plan = uniform_plan(model, 0.5)
        pruned, masks, _ = sequential_prune(model, plan, batch, "wanda")

        # oracle: manually prune layer 1, push the batch through it, and
        # check wanda on layer 2 with those activations gives the same mask
        from coarsefine.localprune import apply_mask
        from coarsefine.model import batch_input_matrix, layer_forward

        l0 = model.layer("L0")
        m0 = wanda_prune_layer(l0, batch_input_matrix(model, batch)[0],
                               plan.per_layer["L0"].keep_count)
        np.testing.assert_array_equal(m0, masks["L0"])
        l0_pruned = LayerSpec("L0", "linear", apply_mask(l0, m0),
                              activation=l0.activation)
        h1 = layer_forward(l0_pruned, batch_input_matrix(model, batch)[0])
        m1 = wanda_prune_layer(model.layer("L1"), h1, plan.per_layer["L1"].keep_count)
        np.testing.assert_array_equal(m1, masks["L1"])

    def test_exact_global_budget_on_1000_weights(self):
        # 20*25 + 25*20 = 1000 prunable weights
        model = tiny_linear_model([
            np.random.default_rng(9).normal(size=(20, 25)),
            np.random.default_rng(10).normal(size=(25, 20)),
        ])
        batch = random_batch(np.random.default_rng(11), 4, 25, 25)
        plan = uniform_plan(model, 0.5)
        pruned, masks, _ = sequential_prune(model, plan, batch, "magnitude")
        zeros = sum(int((~m).sum()) for m in masks.values())
        assert zeros == 500
        model_zeros = sum(
            int((pruned.layer(n).weight == 0).sum()) for n in ("L0", "L1")
        )
        assert model_zeros == 500

    def test_frozen_layers_are_skipped(self):
        rng = np.random.default_rng(12)
        w = [rng.normal(size=(6, 5)), rng.normal(size=(6, 6)), rng.normal(size=(3, 6))]
        model = tiny_linear_model(w, frozen=[False, True, False])
        batch = random_batch(rng, 4, 5, 3)
        plan = uniform_plan(model, 0.5)
        pruned, masks, _ = sequential_prune(model, plan, batch, "wanda")
        assert "L1" not in masks
        assert pruned.layer("L1").weight.tobytes() == w[1].tobytes()

    def test_masks_match_plan_counts(self):
        rng = np.random.default_rng(13)
        model = random_mlp(rng, [6, 8, 4])
        batch = random_batch(rng, 4, 6, 4)
        scores = ScoreMap(
            entries={"L0": 3.0, "L1": 1.0}, method="magnitude"
        )
        plan = allocate_sparsity(scores, model, 0.4, 0.8)
        for method in ("wanda", "sparsegpt", "magnitude"):
            _, masks, _ = sequential_prune(model, plan, batch, method)
            for name, mask in masks.items():
                assert int(mask.sum()) == plan.per_layer[name].keep_count


def owned_case():
    """A biased layer L0 the plan keeps whole, a frozen biased L1, and a
    biased L2 pruned to 4 of 12 weights (32 prunable, p = 0.25)."""
    rng = np.random.default_rng(31)
    model = tiny_linear_model(
        [rng.normal(size=(4, 5)), rng.normal(size=(4, 4)), rng.normal(size=(3, 4))],
        activations=["gelu", "relu", "identity"],
        biases=[rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)],
        frozen=[False, True, False],
    )
    plan = SparsityPlan(
        target_p=0.25, p_max=0.7, granularity="layer", n_select=24,
        per_layer={"L0": LayerAllocation(0.0, 20, 20),
                   "L2": LayerAllocation(8 / 12, 4, 12)},
    )
    return model, plan, random_batch(rng, 6, 5, 3)


class TestOwnership:
    """sequential_prune only reads its input and returns arrays of its own,
    unless it is told to prune in place with out=model."""

    @pytest.mark.parametrize("method", ["wanda", "sparsegpt", "magnitude"])
    def test_input_untouched_and_unshared(self, method):
        model, plan, batch = owned_case()
        before = array_bytes(model)
        pruned, masks, _ = sequential_prune(model, plan, batch, method)
        assert array_bytes(model) == before
        assert shared_arrays(pruned, model) == []
        after = array_bytes(pruned)
        assert after["L0"] == before["L0"] and after["L1"] == before["L1"]
        assert masks["L0"].all() and int(masks["L2"].sum()) == 4

    @pytest.mark.parametrize("method", ["wanda", "sparsegpt", "magnitude"])
    def test_matches_layer_by_layer_reference(self, method):
        # oracle: prune each layer on the input of the pruned prefix and
        # forward through layer_forward (bias and activation) on its own
        model, plan, batch = owned_case()
        pruned, masks, recon = sequential_prune(model, plan, batch, method)
        h = batch_input_matrix(model, batch)[0]
        for layer in model.layers():
            new = pruned.layer(layer.name)
            if not layer.frozen:
                keep = plan.per_layer[layer.name].keep_count
                if keep == layer.size:
                    mask, w = np.ones(layer.weight.shape, bool), layer.weight
                elif method == "sparsegpt":
                    mask, w = sparsegpt_prune_layer(layer, h, keep)
                else:
                    mask = (wanda_prune_layer(layer, h, keep) if method == "wanda"
                            else magnitude_prune_layer(layer, keep))
                    w = localprune.apply_mask(layer, mask)
                np.testing.assert_array_equal(masks[layer.name], mask)
                assert new.weight.tobytes() == w.tobytes()
                assert recon[layer.name] == float(
                    np.sum((h @ layer.weight.T - h @ w.T) ** 2)
                )
            h = layer_forward(new, h)

    @pytest.mark.parametrize("method", ["wanda", "sparsegpt", "magnitude"])
    def test_in_place_prunes_each_weight_array(self, method):
        expected, expected_masks, expected_recon = sequential_prune(*owned_case(), method)
        model, plan, batch = owned_case()
        weights = {l.name: l.weight for l in model.layers()}
        frozen = model.layer("L1").weight.tobytes()
        pruned, masks, recon = sequential_prune(model, plan, batch, method, out=model)
        assert pruned is model and model.forward_count == batch.count
        assert masks.keys() == expected_masks.keys()
        for name, mask in masks.items():
            np.testing.assert_array_equal(mask, expected_masks[name])
        assert recon == expected_recon
        assert array_bytes(model) == array_bytes(expected)
        assert [l.name for l in model.layers() if l.weight is not weights[l.name]] == []
        assert model.layer("L1").weight.tobytes() == frozen

    @pytest.mark.parametrize("in_place", [False, True])
    def test_sparsegpt_copies_no_weight_into_out(self, monkeypatch, in_place):
        # the default out is model.copy(), whose layers already hold the
        # dense weights, so each layer is eliminated in out's own array
        # with no second copy into it; out=model is the same path
        model, plan, batch = owned_case()
        in_place_of, copies = [], []
        real_prune, real_copyto = localprune.sparsegpt_prune_layer, np.copyto

        def spy_prune(layer, *args, out=None, **kwargs):
            in_place_of.append(out is layer.weight)
            return real_prune(layer, *args, out=out, **kwargs)

        def spy_copyto(dst, src, **kwargs):
            copies.append(dst.shape)
            return real_copyto(dst, src, **kwargs)

        monkeypatch.setattr(localprune, "sparsegpt_prune_layer", spy_prune)
        monkeypatch.setattr(np, "copyto", spy_copyto)
        sequential_prune(model, plan, batch, "sparsegpt", out=model if in_place else None)
        assert in_place_of == [True, True]  # L0 kept whole, L2 pruned; L1 frozen
        assert copies == []

    @pytest.mark.parametrize("keep", [12, 7, 0])  # keep all: the early return
    def test_sparsegpt_in_place_equals_the_default_call(self, keep):
        rng = np.random.default_rng(43)
        w = rng.normal(size=(3, 4))
        w[0, 0], w[2, 3] = -0.0, -0.0  # signed zeros: a survivor keeps its sign
        acts = rng.normal(size=(8, 4))
        mask, expected = sparsegpt_prune_layer(layer_of(w), acts, keep)
        layer = layer_of(w.copy())
        dense = layer.weight
        got_mask, got = sparsegpt_prune_layer(layer, acts, keep, out=dense)
        assert got is dense and layer.weight is dense
        np.testing.assert_array_equal(got_mask, mask)
        assert got.tobytes() == expected.tobytes()
        other = np.full(w.shape, np.nan)
        assert sparsegpt_prune_layer(layer_of(w), acts, keep, out=other)[1] is other
        assert other.tobytes() == expected.tobytes()
        if keep == w.size:
            assert np.signbit(got[0, 0]) and np.signbit(got[2, 3])

    @pytest.mark.parametrize("rows", [1, 5, 2 * 3 + 1])  # ragged last block of 3 rows
    def test_apply_mask_into_out_equals_the_default_call(self, rows):
        rng = np.random.default_rng(44)
        w = rng.normal(size=(rows, 4))
        w[:, 1] = -0.0
        mask = rng.random(w.shape) < 0.5
        mask[:, 1] = True  # -0.0 survivors
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localprune, "MASK_BLOCK", 12)  # three rows a block
            expected = localprune.apply_mask(layer_of(w), mask)
            layer = layer_of(w.copy())
            dense = layer.weight
            assert localprune.apply_mask(layer, mask, out=dense) is dense
            other = np.full(w.shape, np.nan)
            assert localprune.apply_mask(layer_of(w), mask, out=other) is other
        assert expected.tobytes() == np.where(mask, w, 0.0).tobytes()
        assert dense.tobytes() == expected.tobytes() and other.tobytes() == expected.tobytes()
        assert np.signbit(dense[:, 1]).all()

    @pytest.mark.parametrize("out", [np.empty((3, 2)), np.empty((2, 3), np.float32),
                                     np.empty((3, 2)).T], ids=["shape", "dtype", "order"])
    def test_out_of_another_layout_rejected(self, out):
        layer = layer_of(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            localprune.apply_mask(layer, np.ones((2, 3), bool), out=out)
        with pytest.raises(DimensionError):
            sparsegpt_prune_layer(layer, np.ones((4, 3)), 6, out=out)

    def test_apply_mask_keeps_survivor_bits(self):
        layer = layer_of([[-0.0, 1.5, -2.0], [-3.0, -0.0, 0.25]])
        mask = np.array([[True, False, True], [False, True, False]])
        out = localprune.apply_mask(layer, mask)
        assert not np.shares_memory(out, layer.weight)
        expected = layer.weight.copy()
        expected[~mask] = 0.0
        assert out.tobytes() == expected.tobytes()
        assert np.signbit(out[0, 0]) and np.signbit(out[1, 1])
        assert not np.signbit(out[0, 1]) and not np.signbit(out[1, 0])

    def test_apply_mask_matches_where_bit_for_bit(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        payloads = np.array([0x7FF8000000000001, 0xFFF0000000000ABC,
                             0x7FF4000000000000], dtype=np.uint64).view(np.float64)
        specials = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny,
             big, -big, 1.0], payloads,
        ])
        # each value once as a survivor and once pruned, in a 2-D layer
        w = np.concatenate([specials, specials]).reshape(2, -1)
        mask = np.zeros(w.shape, dtype=bool)
        mask[0] = True
        for m in (mask, ~mask, np.random.default_rng(2).random(w.shape) < 0.5):
            out = localprune.apply_mask(layer_of(w), m)
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert not np.shares_memory(out, w)
            assert out.tobytes() == np.where(m, w, 0.0).tobytes()

    def test_apply_mask_reads_a_mask_as_bool(self):
        layer = layer_of(np.arange(1.0, 7.0).reshape(2, 3))
        expected = np.array([[1.0, 0.0, 3.0], [0.0, 0.0, 6.0]])
        for mask in ([[1, 0, 1], [0, 0, 1]], np.array([[2.0, 0.0, -1.0], [0, 0, 0.5]])):
            assert localprune.apply_mask(layer, mask).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (3,), (2, 3, 1)])
    def test_apply_mask_rejects_another_shape(self, shape):
        # np.where would broadcast a (1, cols) mask across the rows
        with pytest.raises(DimensionError):
            localprune.apply_mask(layer_of(np.ones((2, 3))), np.ones(shape, bool))
