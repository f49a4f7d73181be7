"""MAC/cycle-level model of a zero-skipping systolic-array accelerator,
plus the memory row-layout model for regular and noise-interleaved images.

The cycle figure is an occupancy lower bound (executed MACs over array
size); no dataflow schedule is modeled. Zero-skip drops a MAC whenever
either the input-window operand or the filter operand is exactly zero.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .conv import (ConvGeometry, FilterBank, _check_batch, _check_image,
                   _exact_float)
from .weave import (attacked_geometry, duplicate_filter_rows,
                    exact_result_type, weave_rows)


@dataclass(frozen=True)
class RowDescriptor:
    source: str  # "image" or "noise"
    index: int   # flat row index: channel * height + row
    address: int


@dataclass(frozen=True)
class MemoryImage:
    # row i is at address i * row_stride: W elements of weave_rows' dtype,
    # or of the image's without noise, so rows neither overlap nor leave gaps
    row_stride: int
    rows: tuple[RowDescriptor, ...]


@dataclass(frozen=True)
class SystolicConfig:
    rows: int
    cols: int
    zero_skip: bool = True

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array dims must be >= 1")


# "tpu" is the 65K-MAC 256x256 reference array; "small" keeps tests fast.
PRESETS = {"tpu": (256, 256), "small": (8, 8)}


def preset_config(name: str, zero_skip: bool = True) -> SystolicConfig:
    try:
        r, c = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
    return SystolicConfig(rows=r, cols=c, zero_skip=zero_skip)


@dataclass(frozen=True)
class SimReport:
    mac_issued: int
    mac_skipped: int
    mac_executed: int
    cycles: int
    array_utilization: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FootprintComparison:
    clean: SimReport
    attacked: SimReport
    noise_only: SimReport


def layout_rows(image: np.ndarray,
                noise: np.ndarray | None = None) -> MemoryImage:
    """Assign memory addresses to a (C, H, W) image's rows, one row apart: in
    order, or with noise, image row r / noise row r in weave_rows' order,
    dtype and checks."""
    image = _check_image(image)
    c, h, w = image.shape
    dtype = image.dtype if noise is None else \
        exact_result_type(image, _check_image(noise))
    row_stride = w * dtype.itemsize
    sources = ("image",) if noise is None else ("image", "noise")
    return MemoryImage(row_stride=row_stride, rows=tuple(
        RowDescriptor(source, i // len(sources), i * row_stride)
        for i, source in enumerate(sources * (c * h))))


def _taps(size: int, k: int, out: int, stride: int, dtype) -> np.ndarray:
    """The (size, k) 0/1 matrix T with T[i, j] = 1 iff i = t * stride + j
    for some t < out: a mask line times T sums each of the k strided
    windows of one kernel axis."""
    t = np.zeros((size, k), dtype=dtype)
    t[np.arange(out)[:, None] * stride + np.arange(k), np.arange(k)] = 1
    return t


def count_macs(input: np.ndarray, filters: FilterBank, geom: ConvGeometry,
               cfg: SystolicConfig) -> SimReport:
    """Count MACs of one conv layer on a (C, H, W) input; a zero operand skips.

    Executed MACs in closed form, per kernel offset (c, j, k): the filters
    whose weight there is nonzero times the nonzero inputs that offset's
    strided window covers (padding counts as zero). The window counts are
    two products with 0/1 tap matrices: the padded mask rows times T_w,
    which sums each row over the window's columns, then T_h's transpose
    times those row sums, which sums them over the window's rows. Every
    partial sum counts at most the h*w inputs of one channel plane, so the
    float that _exact_float picks for h*w sums them exactly in any order.
    """
    x = _check_image(input)
    _check_batch(x[None], filters)
    c, h, w = x.shape
    kh, kw = filters.kernel_h, filters.kernel_w
    oh, ow = geom.out_shape(h, w, kh, kw)
    issued = oh * ow * filters.out_channels * filters.in_channels * kh * kw
    if cfg.zero_skip:
        ph, pw = geom.pad_h, geom.pad_w
        sv, sh = geom.stride_v, geom.stride_h
        hp, wp = h + 2 * ph, w + 2 * pw
        # every partial sum counts nonzero inputs of one channel plane, and
        # a plane in memory has fewer than 2**53 elements: never None
        dtype = _exact_float(h * w)
        m = np.zeros((c, hp, wp), dtype=dtype)
        m[:, ph:ph + h, pw:pw + w] = x != 0
        # row_nnz[c, r, k] = sum over x < ow of m[c, r, x * sh + k]
        row_nnz = (m.reshape(c * hp, wp)
                   @ _taps(wp, kw, ow, sh, dtype)).reshape(c, hp, kw)
        # x_nnz[c, j, k] = sum over y < oh of row_nnz[c, y * sv + j, k]
        x_nnz = _taps(hp, kh, oh, sv, dtype).T @ row_nnz
        w_nnz = np.count_nonzero(filters.weights, axis=0)   # (c, j, k)
        executed = int((w_nnz * x_nnz.astype(np.int64)).sum())
    else:
        executed = issued
    skipped = issued - executed
    array = cfg.rows * cfg.cols
    cycles = math.ceil(executed / array)
    util = executed / (cycles * array) if cycles else 0.0
    return SimReport(mac_issued=issued, mac_skipped=skipped,
                     mac_executed=executed, cycles=cycles,
                     array_utilization=util)


def compare_attack_footprint(image: np.ndarray, noise: np.ndarray,
                             filters: FilterBank, geom: ConvGeometry,
                             cfg: SystolicConfig) -> FootprintComparison:
    """Clean vs attacked first-layer MAC accounting of a (C, H, W) image.

    With zero-skip off the attacked layer issues exactly twice the MACs;
    with zero-skip on the attacked executed count decomposes into the
    clean count plus the noise-only count.
    """
    return FootprintComparison(
        clean=count_macs(image, filters, geom, cfg),
        attacked=count_macs(weave_rows(image, noise),
                            duplicate_filter_rows(filters),
                            attacked_geometry(geom), cfg),
        noise_only=count_macs(noise, filters, geom, cfg))
