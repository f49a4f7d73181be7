"""Walkthrough: train the tiny CNN, craft a universal perturbation under a
5% budget, and compare its fooling power against random noise of the same
magnitude -- then check that the pattern digitizes in at most 4 bits and
that the interleaved evaluation path agrees with explicit noise addition.
"""
import numpy as np

from advweave import (PerturbBudget, QuantSpec, TrainConfig,
                      bit_stats, craft_uap, fooling_report, init_model,
                      linf_norm, make_corpus, quantize, random_noise, train)

seed = 0
train_xs, train_ys = make_corpus(300, seed=seed)
held_xs, held_ys = make_corpus(200, seed=seed + 1)

model = train(init_model(seed), train_xs, train_ys, TrainConfig(seed=seed))
budget = PerturbBudget(epsilon=0.05)  # 5% of the pixel range

uap = craft_uap(model, train_xs[:150], budget, max_iters=12)
low_noise = random_noise(model.input_shape, budget, "low", seed + 777)
high_noise = random_noise(model.input_shape, budget, "high", seed + 778)

print(f"universal perturbation: linf = {linf_norm(uap):.3f} "
      f"(budget {budget.epsilon})")

for name, v in [("universal (5%)", uap), ("random low (5%)", low_noise),
                ("random high (100%)", high_noise)]:
    rep = fooling_report(model, held_xs, held_ys, v)
    print(f"{name:20s} fooling {rep.fooling_rate:.3f} "
          f"top-1 clean {rep.top1_clean:.3f} -> perturbed "
          f"{rep.top1_perturbed:.3f}")

# storage footprint on an 8-bit pixel scale
q8 = QuantSpec(magnitude_bits=8, signed=True, scale=1.0 / 255.0)
for name, v in [("universal (5%)", uap), ("random high (100%)", high_noise)]:
    s = bit_stats(quantize(v, q8))
    print(f"{name:20s} max magnitude bits {s.max_magnitude_bits}, "
          f"nonzero bits {s.total_nonzero_bits}")

# the interleaved first-layer path reports identical numbers
direct = fooling_report(model, held_xs, held_ys, uap, path="direct")
woven = fooling_report(model, held_xs, held_ys, uap, path="interleaved")
print(f"\npath equivalence: direct fooling {direct.fooling_rate:.3f} == "
      f"interleaved {woven.fooling_rate:.3f} -> {direct == woven}")
assert direct == woven
