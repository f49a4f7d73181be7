"""The noise-interleaving convolution transform.

Weaving noise rows between image rows, duplicating every filter row, and
doubling the vertical stride and padding makes the convolution output
equal that of the noise-added image, without the addition ever being
materialized: duplicated filter row 2j lands on an image row where row
2j+1 lands on the matching noise row, and the two partial sums add up to
the direct sum. Doubled vertical padding adds a zero row pair for each
padded row, so every image row keeps its even woven index and the identity
holds for padded geometries too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import ConvGeometry, FilterBank, _check_batch, _conv, conv2d
from .errors import ShapeMismatch
from .tensor import Tensor3, exact_result_type


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
    *lead, h, w = images.shape
    woven = np.empty((*lead, 2 * h, w),
                     dtype=exact_result_type(images, noise))
    woven[..., 0::2, :] = images
    woven[..., 1::2, :] = noise
    return woven


def interleave_rows(image: Tensor3, noise: Tensor3) -> Tensor3:
    """Woven row 2r is image row r, woven row 2r+1 is noise row r, per channel."""
    return Tensor3._adopt(weave_rows(image.data, noise.data))


def duplicate_filter_rows(f: FilterBank) -> FilterBank:
    """Duplicated rows 2j and 2j+1 both equal source row j; bias copied, not doubled."""
    return FilterBank(weights=np.repeat(f.weights, 2, axis=2), bias=f.bias)


def attacked_geometry(g: ConvGeometry) -> ConvGeometry:
    """The woven layer's geometry: vertical stride and padding doubled."""
    return ConvGeometry(stride_v=2 * g.stride_v, stride_h=g.stride_h,
                        pad_h=2 * g.pad_h, pad_w=g.pad_w)


def attacked_conv_nchw(images: np.ndarray, noise: np.ndarray,
                       filters: FilterBank,
                       geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Batched attacked_conv: (N, C, H, W) images, noise as in weave_rows.

    The woven batch gets conv2d_nchw's checks, then runs _conv on the
    duplicated filter rows as a plain array: no FilterBank is built.
    """
    woven = weave_rows(images, noise)
    _check_batch(woven, filters)
    return _conv(woven, np.repeat(filters.weights, 2, axis=2), filters.bias,
                 attacked_geometry(geom))


def attacked_conv(image: Tensor3, noise: Tensor3, filters: FilterBank,
                  geom: ConvGeometry = ConvGeometry()) -> Tensor3:
    """Convolution over the woven input; equals conv2d(image + noise, ...)."""
    return Tensor3._adopt(attacked_conv_nchw(image.data[None], noise.data,
                                             filters, geom)[0])


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
    integer = direct.is_integer() and attacked.is_integer()
    if integer and np.array_equal(direct.data, attacked.data):
        return EquivalenceReport(max_abs_diff=0.0, exact=True)
    diff = np.abs(direct.data.astype(np.float64) - attacked.data.astype(np.float64))
    max_abs_diff = float(diff.max())
    if integer:
        exact = False
    else:
        ref = float(np.max(np.abs(direct.data))) or 1.0
        exact = max_abs_diff <= 1e-9 * ref
    return EquivalenceReport(max_abs_diff=max_abs_diff, exact=exact)
