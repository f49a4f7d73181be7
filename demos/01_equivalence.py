"""Walkthrough: convolution of a noise-interleaved image equals convolution
of the noise-added image, without the addition ever happening.

The trick: weave noise rows between image rows, duplicate every filter row,
and double the vertical stride. Each output element then accumulates the
image partial sum and the noise partial sum back to back.
"""
import numpy as np

from advweave import (ConvGeometry, FilterBank, attacked_conv_nchw,
                      conv2d_nchw, duplicate_filter_rows, equivalence_report,
                      weave_rows)

rng = np.random.default_rng(7)
image = rng.integers(0, 256, (1, 6, 6))
noise = rng.integers(-13, 14, (1, 6, 6))  # small-magnitude pattern
filters = FilterBank(rng.integers(-4, 5, (2, 1, 3, 3)), rng.integers(-2, 3, 2))
geom = ConvGeometry(stride_v=1, stride_h=1)

print("image rows 0-1:\n", image[0, :2])
print("noise rows 0-1:\n", noise[0, :2])

woven = weave_rows(image, noise)
print("\nwoven rows 0-3 (image row, noise row, image row, noise row):")
print(woven[0, :4])

dup = duplicate_filter_rows(filters)
print("\nfilter kernel_h", filters.kernel_h, "-> duplicated kernel_h",
      dup.kernel_h, "(bias untouched)")

# the convolutions take (N, C, H, W) batches: here a batch of one image
direct = conv2d_nchw((image + noise)[None], filters, geom)[0]
attacked = attacked_conv_nchw(image[None], noise, filters, geom)[0]
print("\ndirect conv(image + noise), channel 0:\n", direct[0])
print("attacked conv (never added noise), channel 0:\n", attacked[0])

report = equivalence_report(image, noise, filters, geom)
print(f"\nequivalence: exact={report.exact}, max |diff|={report.max_abs_diff}")
assert report.exact
