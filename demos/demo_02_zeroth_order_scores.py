"""Forward-only gradient estimation: the seed-replay perturbation cycle
and how well the paired-noise estimate tracks true gradient norms.

Run: python demos/demo_02_zeroth_order_scores.py
"""

import numpy as np

from coarsefine import (
    ZOConfig,
    backprop_gradients,
    perturb_replay,
    zo_all_scores,
)
from coarsefine.tasks import get_split, make_task, train_reference

task = make_task("char_lm", seed=0)
model = train_reference(task)
calib = get_split(task, "calib")

# --- seed replay: +1 draws z once into a new array that becomes
# W0 + eps*z, -1 reflects that perturbation about W0 in the same array
# (about W0 - eps*z), and restore puts the original W0 back bit-exactly
layer = "body.fc1"
before = model.layer(layer).weight.copy()
perturb_replay(model, layer, seed=123, epsilon=1e-3, direction=1)
print("after +eps*z  max |delta| =", np.abs(model.layer(layer).weight - before).max())
perturb_replay(model, layer, seed=123, epsilon=1e-3, direction=-1)
print("after -eps*z  max |delta| =", np.abs(model.layer(layer).weight - before).max())
perturb_replay(model, layer, seed=123, epsilon=1e-3, direction="restore")
restored = model.layer(layer).weight
print("restored bit-exactly:", restored.tobytes() == before.tobytes())

# --- layer scores from 2 forward passes per (sample, noise), no backprop
scores = zo_all_scores(model, calib, ZOConfig(epsilon=1e-3, noises_per_sample=8, seed=0))
grads = backprop_gradients(model, calib)

print(f"\n{'layer':12s} {'zeroth-order':>14s} {'true grad norm':>15s}")
for name in scores.entries:
    true_norm = np.linalg.norm(grads[name])
    print(f"{name:12s} {scores.entries[name]:14.5f} {true_norm:15.5f}")
print("\n(the estimate is an expected |directional derivative|, so it tracks")
print(" the ordering of the true norms rather than their absolute values)")
print(f"forward passes spent: {model.forward_count}")
