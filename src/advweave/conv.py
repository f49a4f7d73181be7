"""Reference convolution on plain arrays: conv2d_nchw. _check_batch checks
an (N, C, H, W) batch against a FilterBank, _check_image one (C, H, W)
image.

conv2d_nchw is a cross-correlation (no kernel flip), the deep-learning
convention; every equivalence oracle in this repo uses it on both sides.
_windows is the one im2col view, of a C-contiguous batch; its columns run
in the filters' own (C, kh, kw) order, so (O, C, kh, kw) weights reshaped
to (O, C*kh*kw) are the GEMM's matrix as they are. One private kernel,
_conv_blocks, computes every convolution, one block of output rows of that
view at a time: it yields each block's raw GEMM product in the compute
dtype, with no cast and no bias. _conv assigns each block into the result,
then adds the bias once; conv2d_nchw and the attacked convolution call it.
weave.equivalence_report consumes two streams of blocks itself, so no full
output exists. The model copies the same view, with each output axis split
by pooling window, into its own pool-major columns.

A layer's dtype is one _result_dtype of every array it reads (x, weights,
bias; the oracle's woven input too): int64 only when all are integer, else
float64. Every entry point checks shapes, then dtype and range, then
geometry, so all reject a bad layer with the same error.

An integer layer gives a bit-exact int64 result on one of three routes. A
layer of at least BLAS_MIN_MACS MACs runs on BLAS in float32 when
max|x| * max_o sum|W[o]| < 2**24 and in float64 when it is below 2**53:
every product and partial sum is then an integer below the float's 2**24
or 2**53, which it holds exactly, so BLAS may sum in any order; _conv
casts each block's product straight into the int64 result. Any other integer
layer runs in int64. The kernel multiplies the full C*kh*kw filter once
per block of output rows, whose height depends only on shapes (see
_conv_blocks), so float results are deterministic for given shapes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadGeometry, OutOfRange, ShapeMismatch


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


# Integer convolutions of at least this many MACs take the narrowest exact
# BLAS route: float32 while max|x| * max_o sum|W[o]| < 2**24, float64 while
# it is below 2**53 (the mantissa widths, so not tunable). Below this size
# the bound check costs about as much as BLAS saves: the int64 and BLAS
# routes of conv2d_nchw tie near 2.4e4 MACs (minimum of 5 runs at numpy
# 2.4.6 on 2 vCPUs: 15,876 MACs 29 us int64 / 32 us BLAS, 32,400 MACs
# 39 / 35 us, 121,104 MACs 106 / 68 us), so the gate sits just above.
BLAS_MIN_MACS = 1 << 15

# Bytes of one block's column matrix in conv2d_nchw, counting every value at
# 8 bytes, so a float32 block holds half that. It bounds peak memory and is
# not tuned for speed: on a 3x448x224 input by 64x3x14x7 filters at stride
# (4, 2), blocks of 4 rows to the whole output all ran in 11-18 ms on 2
# cores.
COLUMN_BYTES = 1 << 21


def _max_abs(a: np.ndarray) -> int:
    """max |a| as a Python int (np.abs of int64 min would wrap)."""
    return max(-int(a.min()), int(a.max()))


def _exact_float(bound: int) -> type[np.floating] | None:
    """The narrowest float that holds every integer of magnitude at most
    `bound` exactly: np.float32 below 2**24, np.float64 below 2**53, else
    None. A float with a p-bit significand holds every integer below 2**p,
    so a sum whose terms and partial sums all stay within `bound` is exact
    in that float whatever order BLAS adds them in."""
    if bound < 2 ** 24:
        return np.float32
    return np.float64 if bound < 2 ** 53 else None


def _exact_float_dtype(x: np.ndarray,
                       weights: np.ndarray) -> type[np.floating] | None:
    """The narrowest float type that convolves integer x by integer weights
    exactly: _exact_float of bound = max|x| * max_o sum|W[o]|.

    Every product and every partial sum of an output is an integer of
    magnitude at most bound. With both operands nonzero each element is at
    most bound too, so a float route converts them exactly; with one all
    zero, bound is 0 and every product is 0 on any route, however the other
    converts. The bias is added in the integer result.
    """
    # a float64 sum of |W| is exact while the true sum is below 2**53, and
    # at least 2**53 once the true sum is
    return _exact_float(_max_abs(x) * int(np.abs(weights.astype(np.float64))
                                          .sum(axis=(1, 2, 3)).max()))


def conv2d_nchw(x: np.ndarray, filters: FilterBank,
                geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Convolution of an (N, C, H, W) batch -> (N, out_channels, oh, ow),
    plus bias: _check_batch, _result_dtype, then _conv."""
    _check_batch(x, filters)
    return _conv(x, filters.weights, filters.bias, geom,
                 _result_dtype(x, filters.weights, filters.bias))


def _check_batch(x: np.ndarray, filters: FilterBank) -> None:
    """conv2d_nchw's input checks: x is an (N, C, H, W) batch with the
    filters' C. The attacked convolution makes the same checks."""
    if x.ndim != 4:
        raise ShapeMismatch(f"batched input needs 4 dims, got {x.ndim}")
    if x.shape[1] != filters.in_channels:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, filters "
                            f"expect {filters.in_channels}")


def _check_image(x) -> np.ndarray:
    """x, an array or Tensor3, as an array checked to be one (C, H, W) image
    of a float or integer dtype, each dim at least 1: Tensor3's checks."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeMismatch(f"image needs 3 dims (C, H, W), got {x.ndim}")
    if min(x.shape) < 1:
        raise ShapeMismatch(f"all dims must be >= 1, got {x.shape}")
    _check_dtype(x)
    return x


def _check_dtype(a: np.ndarray) -> None:
    """_check_image's dtype rule; _result_dtype applies it to a layer."""
    if a.dtype.kind not in "fiu":
        raise TypeError(f"unsupported dtype {a.dtype}")


def _result_dtype(*arrays: np.ndarray) -> type:
    """The result dtype of a layer reading `arrays` (x, weights, bias, ...):
    float64 if any is float, else int64. The layer's one dtype gate, run
    before its geometry: _check_dtype's TypeError, and OutOfRange for a
    uint64 value of 2**63 or more on an int64 result, which cannot hold it."""
    for a in arrays:
        _check_dtype(a)
    if any(a.dtype.kind == "f" for a in arrays):
        return np.float64
    for a in arrays:
        if a.dtype == np.uint64 and int(a.max(initial=0)) >= 2 ** 63:
            raise OutOfRange(f"uint64 value {int(a.max())} is beyond int64")
    return np.int64


def _conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
          geom: ConvGeometry, dtype: type) -> np.ndarray:
    """conv2d_nchw on plain arrays, shapes unchecked: an (N, C, H, W) x by
    (O, C, kh, kw) weights plus an (O,) bias, in their _result_dtype `dtype`,
    which the caller has fixed; only geometry is checked.

    The one ordinary consumer of _conv_blocks, whose blocks it sizes by its
    own C*kh*kw: each block's product is assigned straight into the result
    (a cast that is exact on the integer routes), so no full-size array of
    the compute dtype exists, and the bias is added once at the end.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = weights.shape
    out = np.empty((o, n, *geom.out_shape(h, w, kh, kw)), dtype=dtype)
    for y0, y1, product in _conv_blocks(x, weights, dtype, geom, c * kh * kw):
        out[:, :, y0:y1] = product
        del product  # so the next block's columns are not built beside it
    out += bias.astype(dtype, copy=False)[:, None, None, None]
    return out.transpose(1, 0, 2, 3)


def _windows(x: np.ndarray, kh: int, kw: int, sv: int = 1,
             sh: int = 1) -> np.ndarray:
    """The im2col view of a C-contiguous (N, C, H, W) batch x, unpadded, at
    stride (sv, sh): win[c, j, k, n, y, x] = x[n, c, y*sv + j, x*sh + k], of
    shape (C, kh, kw, N, oh, ow). win[..., y0:y1, :] reshaped to
    (C*kh*kw, N*(y1-y0)*ow) is the column matrix of output rows y0 to y1,
    whose rows run in the filters' (C, kh, kw) order."""
    n, c, h, w = x.shape
    sn, sc, sy, sx = x.strides
    # ndarray() on the contiguous buffer is cheaper than as_strided
    return np.ndarray((c, kh, kw, n, (h - kh) // sv + 1, (w - kw) // sh + 1),
                      x.dtype, x, strides=(sc, sy, sx, sn, sv * sy, sh * sx))


def _conv_blocks(x: np.ndarray, weights: np.ndarray, dtype: type,
                 geom: ConvGeometry, k: int):
    """The GEMM products of _conv, one block of output rows at a time, of a
    layer of its caller's _result_dtype `dtype`: only geometry is checked.

    Yields (y0, y1, product) for consecutive blocks that cover all output
    rows: product is the (O, N, y1 - y0, ow) product of the weights and the
    block's (C*kh*kw, N*rows*ow) im2col columns in the compute dtype,
    without cast or bias. A block holds as many rows as a k-high column
    matrix fits in COLUMN_BYTES at 8 bytes a value, whatever the compute
    dtype, so streams of equal k, N and output shape share block edges.
    An int64 `dtype` takes the narrowest exact route of the module docstring
    (see _exact_float_dtype); a float64 one is computed in float64.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = weights.shape
    oh, ow = geom.out_shape(h, w, kh, kw)
    # as many output rows per block as fit in COLUMN_BYTES, and at least one
    # (all of them when a row has no bytes, as in an empty batch)
    rows = max(1, COLUMN_BYTES // max(1, k * n * ow * 8))
    compute = dtype
    if dtype is np.int64 and o * c * kh * kw * n * oh * ow >= BLAS_MIN_MACS:
        compute = _exact_float_dtype(x, weights) or np.int64
    if geom.pad_h or geom.pad_w:
        ph, pw = geom.pad_h, geom.pad_w
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=compute)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    else:
        x = np.ascontiguousarray(x, dtype=compute)
    win = _windows(x, kh, kw, geom.stride_v, geom.stride_h)
    taps = c * kh * kw
    # the filters' own (C, kh, kw) order is the columns' order
    weights = weights.astype(compute, copy=False).reshape(o, taps)
    for y in range(0, oh, rows):
        r = min(rows, oh - y)
        # no local holds the columns or the product across the yield
        yield y, y + r, (weights @ win[..., y:y + r, :]
                         .reshape(taps, n * r * ow)).reshape(o, n, r, ow)
