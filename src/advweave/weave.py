"""The noise-interleaving convolution transform.

Weaving noise rows between image rows, duplicating every filter row, and
doubling the vertical stride and padding makes the convolution output
equal that of the noise-added image, without the addition ever being
materialized: duplicated filter row 2j lands on an image row where row
2j+1 lands on the matching noise row, and the two partial sums add up to
the direct sum. Doubled vertical padding adds a zero row pair for each
padded row, so every image row keeps its even woven index and the identity
holds for padded geometries too.

equivalence_report checks that identity without building either full
output: it walks conv._conv_blocks' direct and woven streams together by
output row. For integer operands it compares the raw products. Each side
casts them exactly to int64 and then adds the same int64 bias, and adding
a fixed value is injective, so the biased outputs are equal iff the raw
products are.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .conv import (ConvGeometry, FilterBank, _check_batch, _check_image,
                   _conv, _conv_blocks, _result_dtype)
from .tensor import exact_result_type


@dataclass(frozen=True)
class EquivalenceReport:
    max_abs_diff: float
    exact: bool


def weave_rows(images: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Woven row 2r is image row r, woven row 2r+1 is noise row r, per channel.

    `images` may carry a leading batch axis, over which `noise` broadcasts:
    one pattern for every image, or one pattern per image.
    """
    images, noise = np.asarray(images), np.asarray(noise)
    *lead, h, w = images.shape
    woven = np.empty((*lead, 2 * h, w),
                     dtype=exact_result_type(images, noise))
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

    The woven batch gets conv2d_nchw's checks, then runs _conv on the
    duplicated filter rows as a plain array: no FilterBank is built.
    """
    woven = weave_rows(images, noise)
    _check_batch(woven, filters)
    return _conv(woven, np.repeat(filters.weights, 2, axis=2), filters.bias,
                 attacked_geometry(geom))


def equivalence_report(image: np.ndarray, noise: np.ndarray,
                       filters: FilterBank, geom: ConvGeometry = ConvGeometry(),
                       attacked_output: np.ndarray | None = None) -> EquivalenceReport:
    """Compare the attacked path against convolving the noise-added image,
    both (C, H, W).

    `attacked_output` overrides the attacked-path result (used by negative
    controls that deliberately corrupt the woven tensor).

    The report is that of comparing the full direct and attacked outputs
    (or `attacked_output`), but neither is built:
    the direct and woven block streams of _conv_blocks are walked together
    by output row (_zip_rows), so at most one block of each is alive.
    Integer rows are compared as unbiased products, which are equal iff the
    outputs are (module docstring); only rows that differ get the cast and
    bias, for max_abs_diff. Float rows get _conv's cast and bias before
    their diff and magnitude are taken; a max does not depend on order.
    With `attacked_output`, the direct rows get the cast and bias and are
    compared with its row slices.
    """
    image, noise = _check_image(image), _check_image(noise)
    exact_result_type(image, noise)  # the woven path's checks, text and all
    x = (image + noise)[None]
    _check_batch(x, filters)
    oh, ow = geom.out_shape(*image.shape[1:], filters.kernel_h,
                            filters.kernel_w)
    dtype = _result_dtype(x, filters.weights)
    direct = _conv_blocks(x, filters.weights, geom)
    del x  # the stream's copy in its compute dtype replaces it
    raw = attacked_output is None  # both sides are unbiased products
    if raw:
        woven = _woven_blocks(image, noise, filters.weights, geom)
        integer = dtype is np.int64
    elif np.shape(attacked_output) != (filters.out_channels, oh, ow):
        return EquivalenceReport(max_abs_diff=float("inf"), exact=False)
    else:
        attacked_output = np.asarray(attacked_output)
        woven = iter([(0, oh, attacked_output[:, None])])
        integer = dtype is np.int64 and attacked_output.dtype.kind in "iu"
    bias = filters.bias.astype(dtype, copy=False)[:, None, None, None]
    diffs, refs = [], []

    def compare(d: np.ndarray, a: np.ndarray) -> None:
        # the two sides' exact routes may differ: numpy then compares in
        # float64, which holds a float route's products (integers below
        # 2**53) exactly, and an int64 product that equals one there is
        # that integer
        if raw and integer and np.array_equal(d, a):
            return
        d = d.astype(dtype, copy=False) + bias
        if raw:
            a = a.astype(dtype, copy=False) + bias
        if integer and np.array_equal(d, a):
            return
        diffs.append(np.abs(d.astype(np.float64) - a.astype(np.float64)).max())
        if not integer:
            refs.append(np.max(np.abs(d)))

    # direct first: on the footprint layer the woven-first order faulted
    # about 1,200 freed heap pages back in per image, this order none
    _zip_rows(direct, woven, compare)
    # np.max, not max(): a NaN anywhere is the result, as over full outputs
    max_abs_diff = float(np.max(diffs)) if diffs else 0.0
    if integer:
        return EquivalenceReport(max_abs_diff=max_abs_diff, exact=not diffs)
    ref = float(np.max(refs)) or 1.0
    return EquivalenceReport(max_abs_diff=max_abs_diff,
                             exact=max_abs_diff <= 1e-9 * ref)


def _woven_blocks(image: np.ndarray, noise: np.ndarray, weights: np.ndarray,
                  geom: ConvGeometry):
    """The _conv_blocks stream of attacked_conv_nchw on one image. The woven
    input is built only once the stream starts, so it does not sit beside
    the direct stream's first block."""
    yield from _conv_blocks(weave_rows(image, noise)[None],
                            np.repeat(weights, 2, axis=2),
                            attacked_geometry(geom))


def _zip_rows(first, second, visit) -> None:
    """Call visit(a, b) on the rows of a block of `first` and a block of
    `second` that cover the same output rows, over all rows in order.

    Both are streams of (y0, y1, block) over the same rows, as _conv_blocks
    yields them; their block heights need not nest. Each block is released
    before its stream builds the next, so at most one of each is alive.
    """
    b0 = b1 = 0
    for a0, a1, a in first:
        y0 = a0
        while y0 < a1:
            if y0 == b1:
                b = None  # released before the next is built
                b0, b1, b = next(second)
            y1 = min(a1, b1)
            visit(a[:, :, y0 - a0:y1 - a0], b[:, :, y0 - b0:y1 - b0])
            y0 = y1
        del a  # as b
