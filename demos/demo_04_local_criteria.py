"""The fine step up close: wanda, Hessian-OBS (sparsegpt) and magnitude
pruning of a single layer, compared by reconstruction error.

Run: python demos/demo_04_local_criteria.py
"""

import numpy as np

from coarsefine import magnitude_prune_layer, sparsegpt_prune_layer, wanda_prune_layer
from coarsefine.model import LayerSpec

rng = np.random.default_rng(0)
d_in, d_out, samples = 24, 12, 64
acts = rng.normal(size=(samples, d_in)) * rng.uniform(0.2, 3.0, size=d_in)
w = rng.normal(size=(d_out, d_in))
layer = LayerSpec("demo", "linear", w.copy())
keep = w.size // 2


def recon_error(new_w):
    return float(np.sum((acts @ w.T - acts @ new_w.T) ** 2))


# magnitude: |W| only
mag_mask = magnitude_prune_layer(layer, keep)
err_mag = recon_error(np.where(mag_mask, w, 0.0))

# wanda: |W| * column activation norm, compared per output row
wanda_mask = wanda_prune_layer(layer, acts, keep, norm_exponent=1)
err_wanda = recon_error(np.where(wanda_mask, w, 0.0))

# sparsegpt: OBS scores W^2/[H^-1]_jj plus compensation of the survivors
gpt_mask, gpt_w = sparsegpt_prune_layer(layer, acts, keep)
err_gpt = recon_error(gpt_w)

print(f"pruning {w.size - keep}/{w.size} weights of a [{d_out}x{d_in}] layer")
print(f"{'criterion':12s} {'kept':>6s} {'reconstruction error':>22s}")
for name, mask, err in (("magnitude", mag_mask, err_mag),
                        ("wanda", wanda_mask, err_wanda),
                        ("sparsegpt", gpt_mask, err_gpt)):
    print(f"{name:12s} {int(mask.sum()):6d} {err:22.4f}")

print("\nwanda beats magnitude by weighting input columns; sparsegpt also")
print("rewrites the surviving weights (least-squares refit of its mask),")
print("so its error is lowest on activation-correlated inputs.")

agree = (wanda_mask == mag_mask).mean()
print(f"\nwanda/magnitude mask agreement: {agree:.0%} "
      "(they coincide exactly when all activation column norms are equal)")
