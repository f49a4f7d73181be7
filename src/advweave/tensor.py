"""Quantization, norms, bit statistics and T3B files of (C, H, W) arrays.
Tensor3 is only a T3B file's record, what read_t3b returns; write_t3b
checks what it writes, an array or a Tensor3, with _check_image.

The layout is channel-major, row-major: element (c, y, x) lives at flat
index c*H*W + y*W + x, so a single row (c, y, :) is contiguous. Rows are
the unit the interleaving attack and the memory-layout model operate on.

A malformed T3B stream raises FormatError. _naming is the one place that
puts a file's path into an error: read_t3b here and load_model use it.
"""
from __future__ import annotations

import io
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .conv import _check_image
from .errors import FormatError, OutOfRange

T3B_MAGIC = b"T3B1"
_DTYPE_TAGS = {0: np.dtype("<f8"), 1: np.dtype("<i4")}


@dataclass(frozen=True, eq=False)
class Tensor3:
    """A T3B file's frozen (channels, height, width) array, float or
    integer. np.asarray(t) is `data` itself: no copy."""

    data: np.ndarray

    def __post_init__(self):
        # copy before freezing so the caller's array is never mutated
        arr = _check_image(np.array(self.data, order="C"))
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Tensor3":
        """The reader's Tensor3 of a valid array it has just made: frozen in
        place, not copied."""
        arr.setflags(write=False)
        t = object.__new__(cls)
        object.__setattr__(t, "data", arr)
        return t

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.data, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class QuantSpec:
    """Maps real values to small integers: value ~= integer * scale.

    `magnitude_bits` bound the integer magnitude: the representable range
    is [-(2^b - 1), 2^b - 1] when signed, [0, 2^b - 1] otherwise.
    """

    magnitude_bits: int
    signed: bool
    scale: float

    def __post_init__(self):
        if self.magnitude_bits < 1:
            raise ValueError("magnitude_bits must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def max_level(self) -> int:
        return (1 << self.magnitude_bits) - 1

    @property
    def min_level(self) -> int:
        return -self.max_level if self.signed else 0


@dataclass(frozen=True)
class BitStats:
    total_elements: int
    nonzero_elements: int
    max_magnitude_bits: int
    total_nonzero_bits: int


def quantize(x: np.ndarray, q: QuantSpec) -> np.ndarray:
    """Round value/scale to the nearest integer, ties away from zero."""
    r = np.asarray(x, dtype=np.float64) / q.scale
    levels = np.sign(r) * np.floor(np.abs(r) + 0.5)
    lo, hi = levels.min(initial=0), levels.max(initial=0)
    # written so that a NaN (which min and max propagate) fails it
    if not (q.min_level <= lo and hi <= q.max_level):
        span = [int(v) if np.isfinite(v) else float(v) for v in (lo, hi)]
        raise OutOfRange(
            f"quantized levels span {span}, representable "
            f"range is [{q.min_level}, {q.max_level}]")
    return levels.astype(np.int64)


def linf_norm(x: np.ndarray) -> float:
    # initial=0: an array with a zero-length axis has norm 0
    return float(np.max(np.abs(x), initial=0.0))


def bit_stats(x: np.ndarray) -> BitStats:
    x = np.ravel(x)
    if x.dtype.kind not in "iu":
        raise TypeError("bit_stats requires an integer array")
    # uint64 holds |int64 min|; negating a uint64 wraps to the magnitude
    mags = x.astype(np.uint64)
    np.negative(mags, out=mags, where=x < 0)
    nonzero = int(np.count_nonzero(mags))
    max_bits = int(mags.max()).bit_length() if nonzero else 0
    total_bits = int(np.bitwise_count(mags).sum())
    return BitStats(
        total_elements=mags.size,
        nonzero_elements=nonzero,
        max_magnitude_bits=max_bits,
        total_nonzero_bits=total_bits,
    )


def write_t3b_stream(t: np.ndarray | Tensor3, f) -> None:
    """T3B framing of a (C, H, W) array or Tensor3, checked by _check_image:
    magic "T3B1", u32le C/H/W, u8 dtype tag (0=f64, 1=i32), raw data."""
    x = _check_image(t)
    if x.dtype.kind in "iu":
        tag, arr = 1, x.astype("<i4")
        if not np.array_equal(arr, x):
            raise OutOfRange("integer tensor does not fit in i32")
    else:
        tag, arr = 0, x.astype("<f8")
    f.write(T3B_MAGIC)
    f.write(struct.pack("<IIIB", *x.shape, tag))
    f.write(arr.tobytes())


@contextmanager
def _naming(path):
    """Re-raise a ValueError raised inside as a FormatError naming `path`."""
    try:
        yield
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


def read_t3b_stream(f) -> Tensor3:
    """One T3B tensor from the binary stream f. A format error is a
    FormatError; it names no file (read_t3b and load_model add the path)."""
    magic = f.read(4)
    if magic != T3B_MAGIC:
        raise FormatError(f"bad T3B magic {magic!r}")
    header = f.read(13)
    if len(header) != 13:
        raise FormatError(f"truncated T3B header: {len(header)} of 13 bytes")
    c, h, w, tag = struct.unpack("<IIIB", header)
    if tag not in _DTYPE_TAGS or min(c, h, w) < 1:
        raise FormatError(f"bad T3B header: dims {c}x{h}x{w} (each must be "
                          f">= 1), dtype tag {tag} (0 or 1)")
    dtype = _DTYPE_TAGS[tag]
    size = c * h * w * dtype.itemsize
    # checked before reading: a forged header must not size the read
    here = f.tell()
    left = f.seek(0, io.SEEK_END) - here
    f.seek(here)
    if size > left:
        raise FormatError(f"truncated T3B payload: expected {size} bytes, "
                          f"got {left}")
    arr = np.frombuffer(f.read(size), dtype=dtype).reshape(c, h, w)
    return Tensor3._adopt(arr.astype(np.int64 if tag == 1 else np.float64))


def write_t3b(t: np.ndarray | Tensor3, path) -> None:
    with open(path, "wb") as f:
        write_t3b_stream(t, f)


def read_t3b(path) -> Tensor3:
    with _naming(path), open(path, "rb") as f:
        t = read_t3b_stream(f)
        if f.read(1):
            raise FormatError("trailing bytes after tensor payload")
    return t
