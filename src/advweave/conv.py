"""Reference convolution, activation, pooling, and dense layers.

conv2d is a cross-correlation (no kernel flip), the deep-learning
convention; every equivalence oracle in this repo uses the same
convention on both sides. One batched (N, C, H, W) kernel, conv2d_nchw,
computes every convolution; conv2d is its N=1 wrapper on a Tensor3.
Integer inputs are computed in int64 and are bit-exact; float results are
summed kernel row by kernel row, so they are deterministic for a given
input shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadGeometry, ShapeMismatch
from .tensor import Tensor3


@dataclass(frozen=True)
class FilterBank:
    """weights: (out_channels, in_channels, kernel_h, kernel_w); bias: (out_channels,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        b = np.asarray(self.bias)
        if w.ndim != 4:
            raise ShapeMismatch(f"weights need 4 dims, got {w.ndim}")
        if w.shape[2] < 1 or w.shape[3] < 1:
            raise ShapeMismatch("kernel dims must be >= 1")
        if b.shape != (w.shape[0],):
            raise ShapeMismatch(
                f"bias shape {b.shape} != (out_channels,) = ({w.shape[0]},)")
        object.__setattr__(self, "weights", np.ascontiguousarray(w))
        object.__setattr__(self, "bias", np.ascontiguousarray(b))

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_h(self) -> int:
        return self.weights.shape[2]

    @property
    def kernel_w(self) -> int:
        return self.weights.shape[3]


@dataclass(frozen=True)
class ConvGeometry:
    stride_v: int = 1
    stride_h: int = 1
    pad_h: int = 0
    pad_w: int = 0

    def __post_init__(self):
        if self.stride_v < 1 or self.stride_h < 1:
            raise BadGeometry("strides must be >= 1")
        if self.pad_h < 0 or self.pad_w < 0:
            raise BadGeometry("padding must be >= 0")

    def out_shape(self, in_h: int, in_w: int, kh: int, kw: int) -> tuple[int, int]:
        oh = (in_h + 2 * self.pad_h - kh) // self.stride_v + 1
        ow = (in_w + 2 * self.pad_w - kw) // self.stride_h + 1
        if oh < 1 or ow < 1:
            raise BadGeometry(
                f"kernel {kh}x{kw} stride ({self.stride_v},{self.stride_h}) "
                f"pad ({self.pad_h},{self.pad_w}) on {in_h}x{in_w} input "
                f"gives non-positive output {oh}x{ow}")
        return oh, ow


def conv2d_nchw(x: np.ndarray, filters: FilterBank,
                geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Batched conv2d: (N, C, H, W) input -> (N, out_channels, oh, ow), plus bias.

    im2col split by kernel row: for each kernel row j the strided input
    windows are copied into a (C*kernel_w, N*oh*ow) column matrix, which
    that row's (out_channels, C*kernel_w) weights multiply, so the column
    buffer is kernel_h times smaller than a full im2col. Integer operands
    are computed in int64 and are bit-exact; anything else in float64.
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"batched input needs 4 dims, got {x.ndim}")
    n, c, h, w = x.shape
    if c != filters.in_channels:
        raise ShapeMismatch(
            f"input has {c} channels, filters expect {filters.in_channels}")
    o, _, kh, kw = filters.weights.shape
    oh, ow = geom.out_shape(h, w, kh, kw)
    integer = x.dtype.kind in "iu" and filters.weights.dtype.kind in "iu"
    dtype = np.int64 if integer else np.float64
    if geom.pad_h or geom.pad_w:
        ph, pw = geom.pad_h, geom.pad_w
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    else:
        x = np.ascontiguousarray(x, dtype=dtype)
    sn, sc, sy, sx = x.strides
    # win[j, c, k, n, y, x] = x[n, c, y * stride_v + j, x * stride_h + k]; a
    # read-only view of the contiguous x (ndarray() is cheaper than as_strided)
    win = np.ndarray((kh, c, kw, n, oh, ow), dtype=dtype, buffer=x,
                     strides=(sy, sc, sx, sn, sy * geom.stride_v,
                              sx * geom.stride_h))
    win.flags.writeable = False
    weights = filters.weights.astype(dtype, copy=False)
    out = np.zeros((o, n * oh * ow), dtype=dtype)
    for j in range(kh):
        out += weights[:, :, j, :].reshape(o, c * kw) \
            @ win[j].reshape(c * kw, n * oh * ow)
    out += filters.bias.astype(dtype, copy=False)[:, None]
    return out.reshape(o, n, oh, ow).transpose(1, 0, 2, 3)


def conv2d(input: Tensor3, filters: FilterBank, geom: ConvGeometry = ConvGeometry()) -> Tensor3:
    """Sliding dot product of each filter over the input, plus bias."""
    return Tensor3(conv2d_nchw(input.data[None], filters, geom)[0])


def relu(t: Tensor3) -> Tensor3:
    return Tensor3(np.maximum(t.data, 0))


def maxpool2_argmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pooling with stride 2 over the last two axes of `a`.

    Returns the pooled array and a boolean mask of `a`'s shape that marks
    where each window's maximum sits (the first in row-major order on
    ties); backprop routes the pooled gradient through that mask.
    """
    *lead, h, w = a.shape
    if h % 2 or w % 2:
        raise BadGeometry(f"maxpool2 needs even dims, got {h}x{w}")
    win = a.reshape(*lead, h // 2, 2, w // 2, 2)
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major window order
    q = [win[..., dy, :, dx] for dy, dx in offsets]
    pooled = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    mask = np.empty(win.shape, dtype=bool)
    taken = np.zeros(pooled.shape, dtype=bool)
    for (dy, dx), quarter in zip(offsets, q):
        hit = (quarter == pooled) & ~taken
        mask[..., dy, :, dx] = hit
        taken |= hit
    return pooled, mask.reshape(a.shape)


def maxpool2(t: Tensor3) -> Tensor3:
    """2x2 max pooling with stride 2; requires even spatial dims."""
    return Tensor3(maxpool2_argmax(t.data)[0])


def dense(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map W @ x + b of a vector x, or of each row of an (N, F) batch."""
    x, W, b = np.asarray(x), np.asarray(W), np.asarray(b)
    if W.ndim != 2 or x.ndim not in (1, 2) or b.ndim != 1:
        raise ShapeMismatch("dense expects matrix W, vector or batch x, "
                            "vector b")
    if W.shape[1] != x.shape[-1]:
        raise ShapeMismatch(f"W has {W.shape[1]} columns, x has {x.shape[-1]}")
    if b.shape[0] != W.shape[0]:
        raise ShapeMismatch(f"b has {b.shape[0]} rows, W has {W.shape[0]}")
    return x @ W.T + b
