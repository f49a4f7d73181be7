"""Channel-major 3D tensors, quantization, norms, and bit-level statistics.

The layout is channel-major, row-major: element (c, y, x) lives at flat
index c*H*W + y*W + x, so a single row (c, y, :) is contiguous. Rows are
the unit the interleaving attack and the memory-layout model operate on.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ShapeMismatch

T3B_MAGIC = b"T3B1"
_DTYPE_TAGS = {0: np.dtype("<f8"), 1: np.dtype("<i4")}


@dataclass(frozen=True)
class Tensor3:
    """3D array of shape (channels, height, width), float64 or integer."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ShapeMismatch(f"Tensor3 needs 3 dims, got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeMismatch(f"all dims must be >= 1, got {arr.shape}")
        if not (np.issubdtype(arr.dtype, np.floating)
                or np.issubdtype(arr.dtype, np.integer)):
            raise TypeError(f"unsupported dtype {arr.dtype}")
        # copy before freezing so the caller's array is never mutated
        arr = np.ascontiguousarray(arr).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def is_integer(self) -> bool:
        return np.issubdtype(self.data.dtype, np.integer)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        return Tensor3(self.data + other.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))


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


def quantize(t: Tensor3, q: QuantSpec) -> Tensor3:
    """Round value/scale to the nearest integer, ties away from zero."""
    r = t.data.astype(np.float64) / q.scale
    levels = np.sign(r) * np.floor(np.abs(r) + 0.5)
    lo, hi = levels.min(initial=0), levels.max(initial=0)
    if hi > q.max_level or lo < q.min_level:
        raise OutOfRange(
            f"quantized levels span [{int(lo)}, {int(hi)}], representable "
            f"range is [{q.min_level}, {q.max_level}]")
    return Tensor3(levels.astype(np.int64))


def dequantize(t: Tensor3, q: QuantSpec) -> Tensor3:
    return Tensor3(t.data.astype(np.float64) * q.scale)


def linf_norm(t: Tensor3) -> float:
    return float(np.max(np.abs(t.data)))


def bit_stats(t: Tensor3) -> BitStats:
    if not t.is_integer():
        raise TypeError("bit_stats requires an integer tensor")
    x = t.data.ravel()
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


def write_t3b_stream(t: Tensor3, f) -> None:
    """T3B framing: magic "T3B1", u32le C/H/W, u8 dtype tag (0=f64, 1=i32), raw data."""
    if t.is_integer():
        tag, arr = 1, t.data.astype("<i4")
        if not np.array_equal(arr, t.data):
            raise OutOfRange("integer tensor does not fit in i32")
    else:
        tag, arr = 0, t.data.astype("<f8")
    f.write(T3B_MAGIC)
    f.write(struct.pack("<IIIB", t.channels, t.height, t.width, tag))
    f.write(arr.tobytes())


def read_t3b_stream(f) -> Tensor3:
    magic = f.read(4)
    if magic != T3B_MAGIC:
        raise ValueError(f"bad T3B magic {magic!r}")
    header = f.read(13)
    if len(header) != 13:
        raise ValueError(f"truncated T3B header: {len(header)} of 13 bytes")
    c, h, w, tag = struct.unpack("<IIIB", header)
    if tag not in _DTYPE_TAGS:
        raise ValueError(f"unknown T3B dtype tag {tag}")
    dtype = _DTYPE_TAGS[tag]
    n = c * h * w
    payload = f.read(n * dtype.itemsize)
    if len(payload) != n * dtype.itemsize:
        raise ValueError(f"truncated T3B payload: expected "
                         f"{n * dtype.itemsize} bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=dtype).reshape(c, h, w)
    arr = arr.astype(np.int64 if tag == 1 else np.float64)
    return Tensor3(arr)


def write_t3b(t: Tensor3, path) -> None:
    with open(path, "wb") as f:
        write_t3b_stream(t, f)


def read_t3b(path) -> Tensor3:
    with open(path, "rb") as f:
        try:
            t = read_t3b_stream(f)
        except ValueError as e:  # name the file; keep the error class
            raise type(e)(f"{path}: {e}") from e
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after tensor payload")
    return t
