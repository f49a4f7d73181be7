"""The noise-interleaving convolution transform.

Weaving noise rows between image rows, duplicating every filter row, and
doubling the vertical stride makes the convolution output equal that of
the noise-added image, without the addition ever being materialized:
duplicated filter row 2j lands on an image row where row 2j+1 lands on
the matching noise row, and the two partial sums add up to the direct sum.
The identity holds only for unpadded (valid) convolution; padded requests
are rejected rather than approximated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import ConvGeometry, FilterBank, conv2d, conv2d_nchw
from .errors import BadGeometry, ShapeMismatch
from .tensor import Tensor3


@dataclass(frozen=True)
class EquivalenceReport:
    max_abs_diff: float
    exact: bool


def weave_rows(images: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Array form of interleave_rows over the last three (C, H, W) axes.

    `images` may carry a leading batch axis, over which `noise` broadcasts:
    one pattern for every image, or one pattern per image.
    """
    if noise.shape[-3:] != images.shape[-3:]:
        raise ShapeMismatch(f"{images.shape[-3:]} vs {noise.shape[-3:]}")
    dtype = np.result_type(images, noise)
    if images.dtype.kind in "iu" and noise.dtype.kind in "iu" \
            and dtype.kind not in "iu":
        raise TypeError(f"{images.dtype} and {noise.dtype} promote to "
                        f"{dtype}, which is not exact")
    *lead, h, w = images.shape
    woven = np.empty((*lead, 2 * h, w), dtype=dtype)
    woven[..., 0::2, :] = images
    woven[..., 1::2, :] = noise
    return woven


def interleave_rows(image: Tensor3, noise: Tensor3) -> Tensor3:
    """Woven row 2r is image row r, woven row 2r+1 is noise row r, per channel."""
    return Tensor3(weave_rows(image.data, noise.data))


def deinterleave_rows(woven: Tensor3) -> tuple[Tensor3, Tensor3]:
    if woven.height % 2:
        raise ShapeMismatch("woven tensor must have even height")
    return Tensor3(woven.data[:, 0::2, :]), Tensor3(woven.data[:, 1::2, :])


def duplicate_filter_rows(f: FilterBank) -> FilterBank:
    """Duplicated rows 2j and 2j+1 both equal source row j; bias copied, not doubled."""
    return FilterBank(weights=np.repeat(f.weights, 2, axis=2), bias=f.bias)


def attacked_geometry(g: ConvGeometry) -> ConvGeometry:
    if g.pad_h != 0:
        raise BadGeometry("attacked convolution is defined only for pad_h == 0")
    return ConvGeometry(stride_v=2 * g.stride_v, stride_h=g.stride_h,
                        pad_h=g.pad_h, pad_w=g.pad_w)


def attacked_conv_nchw(images: np.ndarray, noise: np.ndarray,
                       filters: FilterBank,
                       geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Batched attacked_conv: (N, C, H, W) images, noise as in weave_rows."""
    return conv2d_nchw(weave_rows(images, noise),
                       duplicate_filter_rows(filters), attacked_geometry(geom))


def attacked_conv(image: Tensor3, noise: Tensor3, filters: FilterBank,
                  geom: ConvGeometry = ConvGeometry()) -> Tensor3:
    """Convolution over the woven input; equals conv2d(image + noise, ...)."""
    return Tensor3(attacked_conv_nchw(image.data[None], noise.data, filters,
                                      geom)[0])


def equivalence_report(image: Tensor3, noise: Tensor3, filters: FilterBank,
                       geom: ConvGeometry = ConvGeometry(),
                       attacked_output: Tensor3 | None = None) -> EquivalenceReport:
    """Compare the attacked path against convolving the noise-added image.

    `attacked_output` overrides the attacked-path result (used by negative
    controls that deliberately corrupt the woven tensor).
    """
    direct = conv2d(image + noise, filters, geom)
    attacked = attacked_output if attacked_output is not None \
        else attacked_conv(image, noise, filters, geom)
    if direct.shape != attacked.shape:
        return EquivalenceReport(max_abs_diff=float("inf"), exact=False)
    diff = np.abs(direct.data.astype(np.float64) - attacked.data.astype(np.float64))
    max_abs_diff = float(diff.max())
    if direct.is_integer() and attacked.is_integer():
        exact = bool(np.array_equal(direct.data, attacked.data))
    else:
        ref = float(np.max(np.abs(direct.data))) or 1.0
        exact = max_abs_diff <= 1e-9 * ref
    return EquivalenceReport(max_abs_diff=max_abs_diff, exact=exact)
