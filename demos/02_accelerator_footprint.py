"""Walkthrough: what the attack costs on a systolic-array accelerator,
and why zero-skipping makes the extra work hard to spot.

Without zero-skip the attacked first layer issues exactly twice the MACs.
With zero-skip, the extra executed MACs equal a convolution over the
(mostly-zero) noise pattern alone, and clean per-image counts already vary
with each image's zero pattern.
"""
import numpy as np

from advweave import (ConvGeometry, FilterBank, SystolicConfig,
                      compare_attack_footprint, count_macs, layout_rows,
                      preset_config)

rng = np.random.default_rng(3)
image = rng.integers(0, 16, (1, 16, 16)) * (rng.random((1, 16, 16)) < 0.7)
noise = rng.integers(-3, 4, (1, 16, 16)) * (rng.random((1, 16, 16)) < 0.2)
filters = FilterBank(rng.integers(-3, 4, (4, 1, 3, 3)), np.zeros(4, dtype=np.int64))
geom = ConvGeometry()

print("memory layout under attack (first six rows):")
for d in layout_rows(image, noise).rows[:6]:
    print(f"  0x{d.address:04x}  {d.source} row {d.index}")

for zero_skip in (False, True):
    cfg = SystolicConfig(8, 8, zero_skip=zero_skip)
    cmp = compare_attack_footprint(image, noise, filters, geom, cfg)
    print(f"\nzero_skip={zero_skip}:")
    print("  clean   ", cmp.clean.to_dict())
    print("  attacked", cmp.attacked.to_dict())
    if zero_skip:
        extra = cmp.attacked.mac_executed - cmp.clean.mac_executed
        print(f"  extra executed MACs = {extra} "
              f"(= noise-only conv: {cmp.noise_only.mac_executed})")
    else:
        print(f"  issued ratio = "
              f"{cmp.attacked.mac_issued / cmp.clean.mac_issued:.1f}x")

# clean counts are not deterministic across images: the stealth premise
cfg = preset_config("small")
counts = []
for _ in range(30):
    img = rng.integers(0, 16, (1, 16, 16)) * (rng.random((1, 16, 16)) < 0.7)
    counts.append(count_macs(img, filters, geom, cfg).mac_executed)
print("\nclean executed-MAC counts over 30 random images:")
print(f"  min {min(counts)}, max {max(counts)}, "
      f"std {np.std(counts):.1f} -- per-image counts vary on their own")
