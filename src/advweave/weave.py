"""The noise-interleaving convolution transform.

Weaving noise rows between image rows, duplicating every filter row, and
doubling the vertical stride and padding makes the convolution output
equal that of the noise-added image, without the addition ever being
materialized: duplicated filter row 2j lands on an image row where row
2j+1 lands on the matching noise row, and the two partial sums add up to
the direct sum. Doubled vertical padding adds a zero row pair for each
padded row, so every image row keeps its even woven index and the identity
holds for padded geometries too.

exact_result_type is the one rule for combining images with noise: their
(C, H, W) shapes must match and integer operands must stay integer, on
the direct (image + noise) and the woven path alike.

equivalence_report checks that identity in one form, without building
either full output: it walks conv._conv_blocks' direct and woven streams in
lockstep, both sized by the woven 2*C*kh*kw so that their blocks cover the
same output rows, whatever noise the woven side weaves in. It runs
weave_rows' dtype rule once: weave_rows is that check plus the private
_interleave, which the woven stream calls with the dtype already fixed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .conv import (ConvGeometry, FilterBank, _check_batch, _check_image,
                   _conv, _conv_blocks, _result_dtype)
from .errors import ShapeMismatch


@dataclass(frozen=True)
class EquivalenceReport:
    max_abs_diff: float
    exact: bool


def exact_result_type(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """The dtype that combining images `a` with noise `b` gives.

    Raises ShapeMismatch unless their last three (C, H, W) axes match, and
    TypeError where two integer arrays would promote to float (uint64 with
    a signed type gives float64), which cannot hold both exactly; every
    path that combines an image with noise uses this rule.
    """
    if b.shape[-3:] != a.shape[-3:]:
        raise ShapeMismatch(f"{a.shape[-3:]} vs {b.shape[-3:]}")
    dtype = np.result_type(a, b)
    if a.dtype.kind in "iu" and b.dtype.kind in "iu" and dtype.kind not in "iu":
        raise TypeError(f"{a.dtype} and {b.dtype} promote to {dtype}, "
                        f"which is not exact")
    return dtype


def weave_rows(images: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Woven row 2r is image row r, woven row 2r+1 is noise row r, per channel.

    `images` may carry a leading batch axis, over which `noise` broadcasts:
    one pattern for every image, or one pattern per image.
    """
    images, noise = np.asarray(images), np.asarray(noise)
    return _interleave(images, noise, exact_result_type(images, noise))


def _interleave(images: np.ndarray, noise: np.ndarray,
                dtype: np.dtype) -> np.ndarray:
    """weave_rows without its checks, into a `dtype` its caller has fixed."""
    *lead, h, w = images.shape
    woven = np.empty((*lead, 2 * h, w), dtype=dtype)
    woven[..., 0::2, :] = images
    woven[..., 1::2, :] = noise
    return woven


def duplicate_filter_rows(f: FilterBank) -> FilterBank:
    """Duplicated rows 2j and 2j+1 both equal source row j; bias copied, not doubled."""
    return FilterBank(weights=np.repeat(f.weights, 2, axis=2), bias=f.bias)


@cache
def attacked_geometry(g: ConvGeometry) -> ConvGeometry:
    """The woven layer's geometry: vertical stride and padding doubled.
    Memoised: ConvGeometry is frozen, so equal geometries share one."""
    return ConvGeometry(stride_v=2 * g.stride_v, stride_h=g.stride_h,
                        pad_h=2 * g.pad_h, pad_w=g.pad_w)


def attacked_conv_nchw(images: np.ndarray, noise: np.ndarray,
                       filters: FilterBank,
                       geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Convolution over the woven (N, C, H, W) images, noise as in
    weave_rows; equals conv2d_nchw(images + noise, filters, geom).

    The woven batch gets conv2d_nchw's checks in its order, with the
    direct layer's geometry error: the woven layer has the direct one's
    output shape, so it fails exactly when the direct one does. _conv then
    runs on the duplicated filter rows as a plain array: no FilterBank is
    built.
    """
    woven = weave_rows(images, noise)
    _check_batch(woven, filters)
    # duplicating rows changes neither the weights' dtype nor their values
    dtype = _result_dtype(woven, filters.weights, filters.bias)
    geom.out_shape(woven.shape[2] // 2, woven.shape[3], filters.kernel_h,
                   filters.kernel_w)
    return _conv(woven, np.repeat(filters.weights, 2, axis=2), filters.bias,
                 attacked_geometry(geom), dtype)


def equivalence_report(image: np.ndarray, noise: np.ndarray,
                       filters: FilterBank, geom: ConvGeometry = ConvGeometry(),
                       woven_noise: np.ndarray | None = None) -> EquivalenceReport:
    """Compare conv(image + noise), all (C, H, W), against the attacked path
    weaving in `woven_noise`: `noise`, or a control of its shape and dtype.

    The report is that of comparing the full direct and attacked outputs,
    but neither is built: one block of each stream is alive at a time (see
    the module docstring). Each side would cast integer products exactly to
    int64 and add the same bias, which is injective, so integer blocks are
    compared as raw products; only blocks that differ get the cast and
    bias, for max_abs_diff. Float blocks get _conv's cast and bias before
    their diff and magnitude, whose max does not depend on order; their
    direct blocks are shorter than conv2d_nchw's, so a float layer of
    several blocks may differ from a full-output comparison in the last
    bits of max_abs_diff.

    Checks run in conv2d_nchw's order: shapes, then one _result_dtype for
    both streams, then geometry as the direct stream starts.
    """
    image, noise = _check_image(image), _check_image(noise)
    # the woven path's checks, text and all, run once: a woven noise of
    # noise's dtype weaves into the same dtype
    woven_dtype = exact_result_type(image, noise)
    woven_noise = noise if woven_noise is None else np.asarray(woven_noise)
    if woven_noise.shape != noise.shape:
        raise ShapeMismatch(f"woven noise {woven_noise.shape} vs {noise.shape}")
    if woven_noise.dtype != noise.dtype:
        raise TypeError(f"woven noise {woven_noise.dtype} vs {noise.dtype}")
    x = (image + noise)[None]
    _check_batch(x, filters)
    # one dtype for both layers: the woven input holds image and woven
    # noise values that a wrapped uint64 sum need not show
    dtype = _result_dtype(x, image, woven_noise, filters.weights, filters.bias)
    bias = filters.bias.astype(dtype, copy=False)[:, None, None, None]
    # the woven column height
    k = 2 * filters.in_channels * filters.kernel_h * filters.kernel_w
    direct = _conv_blocks(x, filters.weights, dtype, geom, k)
    del x  # the stream's copy in its compute dtype replaces it
    woven = _woven_blocks(image, woven_noise, woven_dtype, filters.weights,
                          dtype, geom, k)
    integer = dtype is np.int64
    diffs, refs = [], []
    # direct first: on the footprint layer the woven-first order faulted
    # about 1,200 freed heap pages back in per image, this order none
    for _, _, d in direct:
        a = next(woven)[2]
        # the two sides' exact routes may differ: numpy then compares in
        # float64, which holds a float route's products (integers below
        # 2**53) exactly, and an int64 product that equals one there is
        # that integer
        if not (integer and (d == a).all()):
            d = d.astype(dtype, copy=False) + bias
            a = a.astype(dtype, copy=False) + bias
            # initial=0.0: a bank of no filters has empty blocks
            diffs.append(np.abs(d.astype(np.float64) - a).max(initial=0.0))
            if not integer:
                refs.append(np.max(np.abs(d), initial=0.0))
        del d, a  # released before either stream builds its next block
    # np.max, not max(): a NaN anywhere is the result, as over full outputs
    max_abs_diff = float(np.max(diffs)) if diffs else 0.0
    if integer:
        return EquivalenceReport(max_abs_diff=max_abs_diff, exact=not diffs)
    ref = float(np.max(refs)) or 1.0
    return EquivalenceReport(max_abs_diff=max_abs_diff,
                             exact=max_abs_diff <= 1e-9 * ref)


def _woven_blocks(image: np.ndarray, noise: np.ndarray,
                  woven_dtype: np.dtype, weights: np.ndarray, dtype: type,
                  geom: ConvGeometry, k: int):
    """The _conv_blocks stream, sized by k, of attacked_conv_nchw on one
    image woven into `woven_dtype`, which weave_rows' checks gave, for a
    layer of the checked result `dtype`. The woven input is built only once
    the stream starts, so it does not sit beside the direct stream's first
    block, and no local holds it, so it is freed once _conv_blocks replaces
    it by a padded or cast copy."""
    yield from _conv_blocks(_interleave(image, noise, woven_dtype)[None],
                            np.repeat(weights, 2, axis=2), dtype,
                            attacked_geometry(geom), k)
