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

from .conv import ConvGeometry, FilterBank
from .errors import ShapeMismatch
from .tensor import Tensor3
from .weave import attacked_geometry, duplicate_filter_rows, interleave_rows


@dataclass(frozen=True)
class RowDescriptor:
    source: str  # "image" or "noise"
    index: int   # flat row index: channel * height + row
    address: int


@dataclass(frozen=True)
class MemoryImage:
    base_address: int
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


def layout_rows(image: Tensor3, noise: Tensor3 | None = None,
                base: int = 0, row_stride: int | None = None) -> MemoryImage:
    """Assign memory addresses to rows: image rows in order, or alternating
    image row r / noise row r when a noise pattern is present."""
    if noise is not None and noise.shape != image.shape:
        raise ShapeMismatch(f"image {image.shape} vs noise {noise.shape}")
    if row_stride is None:
        row_stride = image.width * image.data.itemsize
    descriptors = []
    addr = base
    for flat in range(image.channels * image.height):
        descriptors.append(RowDescriptor("image", flat, addr))
        addr += row_stride
        if noise is not None:
            descriptors.append(RowDescriptor("noise", flat, addr))
            addr += row_stride
    return MemoryImage(base_address=base, row_stride=row_stride,
                       rows=tuple(descriptors))


def stream_rows(mem: MemoryImage, image: Tensor3, noise: Tensor3 | None = None) -> Tensor3:
    """Replay the layout row-by-row into a tensor, as the accelerator's
    global buffer would see it. With noise present this reconstructs the
    woven tensor of the interleaving attack."""
    sources = {"image": image}
    per_channel = image.height
    if noise is not None:
        sources["noise"] = noise
        per_channel *= 2
    out_rows = [sources[d.source].data[d.index // image.height, d.index % image.height]
                for d in mem.rows]
    stacked = np.stack(out_rows)
    return Tensor3._adopt(stacked.reshape(image.channels, per_channel,
                                          image.width))


def count_macs(input: Tensor3, filters: FilterBank, geom: ConvGeometry,
               cfg: SystolicConfig) -> SimReport:
    """Count MACs for one conv layer; skips apply when either operand is zero.

    Executed MACs in closed form, per kernel offset (c, j, k): the filters
    whose weight there is nonzero times the nonzero inputs that offset's
    strided window covers (padding counts as zero). The window count is
    separable: sum each row over the window's columns, then those row
    sums over the window's rows.
    """
    if input.channels != filters.in_channels:
        raise ShapeMismatch(
            f"input has {input.channels} channels, filters expect "
            f"{filters.in_channels}")
    kh, kw = filters.kernel_h, filters.kernel_w
    oh, ow = geom.out_shape(input.height, input.width, kh, kw)
    issued = oh * ow * filters.out_channels * filters.in_channels * kh * kw
    if cfg.zero_skip:
        m = np.pad(input.data != 0, ((0, 0), (geom.pad_h, geom.pad_h),
                                     (geom.pad_w, geom.pad_w)))
        sv, sh = geom.stride_v, geom.stride_h
        # row_nnz[k, c, r] = sum over x < ow of m[c, r, x * sh + k]
        row_nnz = np.stack([m[:, :, k:k + (ow - 1) * sh + 1:sh].sum(axis=2)
                            for k in range(kw)])
        # x_nnz[j, k, c] = sum over y < oh of row_nnz[k, c, y * sv + j]
        x_nnz = np.stack([row_nnz[:, :, j:j + (oh - 1) * sv + 1:sv].sum(axis=2)
                          for j in range(kh)])
        w_nnz = np.count_nonzero(filters.weights, axis=0)   # (c, j, k)
        executed = int((w_nnz * x_nnz.transpose(2, 0, 1)).sum())
    else:
        executed = issued
    skipped = issued - executed
    array = cfg.rows * cfg.cols
    cycles = math.ceil(executed / array)
    util = executed / (cycles * array) if cycles else 0.0
    return SimReport(mac_issued=issued, mac_skipped=skipped,
                     mac_executed=executed, cycles=cycles,
                     array_utilization=util)


def compare_attack_footprint(image: Tensor3, noise: Tensor3, filters: FilterBank,
                             geom: ConvGeometry, cfg: SystolicConfig) -> FootprintComparison:
    """Clean vs attacked first-layer MAC accounting.

    With zero-skip off the attacked layer issues exactly twice the MACs;
    with zero-skip on the attacked executed count decomposes into the
    clean count plus the noise-only count.
    """
    return FootprintComparison(
        clean=count_macs(image, filters, geom, cfg),
        attacked=count_macs(interleave_rows(image, noise),
                            duplicate_filter_rows(filters),
                            attacked_geometry(geom), cfg),
        noise_only=count_macs(noise, filters, geom, cfg))
