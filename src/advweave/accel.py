"""MAC/cycle-level model of a zero-skipping systolic-array accelerator,
plus the memory row-layout model for regular and noise-interleaved images.

The cycle figure is an occupancy lower bound (executed MACs over array
size); no dataflow schedule is modeled. Zero-skip drops a MAC whenever
either the input-window operand or the filter operand is exactly zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conv import ConvGeometry, FilterBank, conv2d
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
        return {
            "mac_issued": self.mac_issued,
            "mac_skipped": self.mac_skipped,
            "mac_executed": self.mac_executed,
            "cycles": self.cycles,
            "array_utilization": self.array_utilization,
        }


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
    return Tensor3(stacked.reshape(image.channels, per_channel, image.width))


def count_macs(input: Tensor3, filters: FilterBank, geom: ConvGeometry,
               cfg: SystolicConfig) -> SimReport:
    """Count MACs for one conv layer; skips apply when either operand is zero.

    Executed MACs are the convolution of the two nonzero masks, summed.
    """
    if input.channels != filters.in_channels:
        raise ShapeMismatch(
            f"input has {input.channels} channels, filters expect "
            f"{filters.in_channels}")
    oh, ow = geom.out_shape(input.height, input.width,
                            filters.kernel_h, filters.kernel_w)
    issued = oh * ow * filters.out_channels * filters.in_channels \
        * filters.kernel_h * filters.kernel_w
    if cfg.zero_skip:
        w_nz = FilterBank((filters.weights != 0).astype(np.int64),
                          np.zeros(filters.out_channels, dtype=np.int64))
        x_nz = Tensor3((input.data != 0).astype(np.int64))
        executed = int(conv2d(x_nz, w_nz, geom).data.sum())
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
