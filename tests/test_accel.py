import json
import re

import numpy as np
import pytest

from advweave.accel import (SystolicConfig, compare_attack_footprint,
                            count_macs, layout_rows, preset_config)
from advweave.conv import ConvGeometry, FilterBank
from advweave.errors import BadGeometry, ShapeMismatch
from advweave.weave import weave_rows
from test_weave import rand_attack_instance


def replay(mem, image, noise=None):
    """The laid-out rows read back from their sources in address order, as
    the accelerator's global buffer sees them, as a (C, rows, W) array."""
    sources, h = {"image": image, "noise": noise}, image.shape[1]
    rows = [sources[d.source][d.index // h, d.index % h]
            for d in sorted(mem.rows, key=lambda d: d.address)]
    return np.stack(rows).reshape(image.shape[0], -1, image.shape[2])


def naive_skip_count(x, w, sv, sh, pad_h=0, pad_w=0):
    """Brute-force count of issued MACs with a zero operand; padding is zero."""
    x = np.pad(x, ((0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    oh = (h - kh) // sv + 1
    ow = (w_in - kw) // sh + 1
    skipped = 0
    for o in range(c_out):
        for m in range(oh):
            for n in range(ow):
                for c in range(c_in):
                    for j in range(kh):
                        for k in range(kw):
                            if w[o, c, j, k] == 0 or x[c, m * sv + j, n * sh + k] == 0:
                                skipped += 1
    return skipped


def separable_executed(x, w, sv, sh, pad_h=0, pad_w=0):
    """Executed MACs from strided window sums: each padded mask row summed
    over every kernel column's windows, then those sums over the rows."""
    m = np.pad(x != 0, ((0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    _, kh, kw = w.shape[1:]
    oh = (m.shape[1] - kh) // sv + 1
    ow = (m.shape[2] - kw) // sh + 1
    # row_nnz[k, c, r] = sum over x < ow of m[c, r, x * sh + k]
    row_nnz = np.stack([m[:, :, k:k + (ow - 1) * sh + 1:sh].sum(axis=2)
                        for k in range(kw)])
    # x_nnz[j, k, c] = sum over y < oh of row_nnz[k, c, y * sv + j]
    x_nnz = np.stack([row_nnz[:, :, j:j + (oh - 1) * sv + 1:sv].sum(axis=2)
                      for j in range(kh)])
    w_nnz = np.count_nonzero(w, axis=0)   # (c, j, k)
    return int((w_nnz * x_nnz.transpose(2, 0, 1)).sum())


def sparse_instance(rng, density=0.5):
    c, h, w = 1 + int(rng.integers(3)), int(rng.integers(3, 9)), int(rng.integers(3, 9))
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    kh, kw = min(kh, h), min(kw, w)
    o = int(rng.integers(1, 4))
    x = rng.integers(-5, 6, (c, h, w)) * (rng.random((c, h, w)) < density)
    wt = rng.integers(-3, 4, (o, c, kh, kw)) * (rng.random((o, c, kh, kw)) < density)
    return x, FilterBank(wt, np.zeros(o, dtype=np.int64))


class TestLayoutRows:
    def test_regular_layout(self):
        img = np.zeros((1, 2, 3))
        mem = layout_rows(img, base=0x1000, row_stride=64)
        assert [(d.source, d.index, d.address) for d in mem.rows] == [
            ("image", 0, 0x1000), ("image", 1, 0x1040)]

    def test_attacked_layout_alternates(self):
        img = np.zeros((1, 2, 3))
        mem = layout_rows(img, img, base=0, row_stride=32)
        assert [(d.source, d.index) for d in mem.rows] == [
            ("image", 0), ("noise", 0), ("image", 1), ("noise", 1)]
        addrs = [d.address for d in mem.rows]
        assert addrs == [0, 32, 64, 96]

    def test_addresses_strictly_increasing(self):
        img = np.zeros((2, 3, 4))
        mem = layout_rows(img, img)
        addrs = [d.address for d in mem.rows]
        assert all(b - a == mem.row_stride for a, b in zip(addrs, addrs[1:]))

    def test_shape_mismatch(self):
        img, noi = np.zeros((1, 2, 2)), np.zeros((1, 3, 2))
        with pytest.raises(ShapeMismatch) as woven:
            weave_rows(img, noi)
        with pytest.raises(ShapeMismatch, match=re.escape(str(woven.value))):
            layout_rows(img, noi)

    def test_dtype_error_is_weave_rows(self):
        # the layout models weave_rows' buffer, so it rejects the pairs
        # that weave_rows rejects, with the same text
        img = np.zeros((1, 2, 3), np.uint64)
        noi = np.zeros((1, 2, 3), np.int64)
        with pytest.raises(TypeError) as woven:
            weave_rows(img, noi)
        with pytest.raises(TypeError, match=re.escape(str(woven.value))):
            layout_rows(img, noi)

    def test_default_stride_is_a_woven_row(self):
        img = np.zeros((1, 2, 3), np.int32)
        noi = np.zeros((1, 2, 3), np.int64)
        assert layout_rows(img, noi).row_stride \
            == weave_rows(img, noi).strides[1] == 24
        assert layout_rows(img).row_stride == 12

    @pytest.mark.parametrize("stride, base", [(0, 0), (-8, -100), (23, 0),
                                              (24, -1)],
                             ids=["zero", "negative", "one byte short",
                                  "negative base"])
    def test_overlapping_rows_or_negative_base_rejected(self, stride, base):
        img = np.zeros((1, 2, 3))
        with pytest.raises(ValueError, match=re.escape(
                f"need row_stride >= 24 (one row) and base >= 0, "
                f"got {stride} and {base}")):
            layout_rows(img, img, base=base, row_stride=stride)

    def test_stride_of_exactly_one_row_accepted(self):
        img = np.zeros((1, 2, 3))
        mem = layout_rows(img, img, row_stride=24)
        assert [d.address for d in mem.rows] == [0, 24, 48, 72]
        assert layout_rows(img.astype(np.int32), row_stride=12).row_stride == 12
        with pytest.raises(ValueError):
            layout_rows(img.astype(np.int32), row_stride=11)

    @pytest.mark.parametrize("seed", range(10))
    def test_streaming_reconstructs_woven(self, seed):
        rng = np.random.default_rng(seed)
        img, noi, _, _ = rand_attack_instance(rng, max_dim=8)
        mem = layout_rows(img, noi)
        assert np.array_equal(replay(mem, img, noi), weave_rows(img, noi))

    def test_streaming_regular_reconstructs_image(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 9, (2, 3, 4))
        assert np.array_equal(replay(layout_rows(img), img), img)


class TestCountMacs:
    def test_dense_closed_form(self):
        x = np.ones((1, 4, 4), dtype=np.int64)
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        rep = count_macs(x, f, ConvGeometry(), SystolicConfig(8, 8, True))
        assert rep.mac_issued == 3 * 3 * 1 * 1 * 2 * 2 == 36
        assert rep.mac_skipped == 0
        assert rep.mac_executed == 36

    def test_all_zero_input_skips_everything(self):
        x = np.zeros((1, 4, 4), dtype=np.int64)
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        rep = count_macs(x, f, ConvGeometry(), SystolicConfig(8, 8, True))
        assert rep.mac_executed == 0
        assert rep.mac_skipped == rep.mac_issued
        assert rep.cycles == 0

    def test_zero_skip_off_executes_all(self):
        x = np.zeros((1, 4, 4), dtype=np.int64)
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        rep = count_macs(x, f, ConvGeometry(), SystolicConfig(8, 8, False))
        assert rep.mac_executed == rep.mac_issued == 36

    @pytest.mark.parametrize("seed", range(34))
    def test_skip_count_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x, f = sparse_instance(rng)
        sv, sh = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        ph = pw = 0
        if 15 <= seed < 25:  # pad, up to the kernel size on each side
            ph, pw = (int(rng.integers(0, f.kernel_h + 1)),
                      int(rng.integers(0, f.kernel_w + 1)))
        elif seed >= 25:
            # strides that leave the last input rows and columns in no window
            sv = next(s for s in range(2, 9) if (x.shape[1] - f.kernel_h) % s)
            sh = next(s for s in range(2, 9) if (x.shape[2] - f.kernel_w) % s)
        rep = count_macs(x, f, ConvGeometry(sv, sh, ph, pw),
                         SystolicConfig(4, 4, True))
        assert rep.mac_skipped == naive_skip_count(x, f.weights, sv, sh, ph, pw)
        assert rep.mac_executed == rep.mac_issued - rep.mac_skipped

    def test_footprint_layer_matches_separable_oracle(self):
        # the attacked footprint layer: a woven 3x448x224 8-bit image with
        # zero regions and sparse noise, 64 duplicated 14x7 filters with
        # pruned zeros, stride (4, 2)
        rng = np.random.default_rng(9)
        image = rng.integers(0, 256, (3, 224, 224))
        image[:, 40:130, 10:100] = 0
        noise = rng.integers(-12, 13, (3, 224, 224)) \
            * (rng.random((3, 224, 224)) < 0.1)
        x = weave_rows(image, noise)
        w = np.repeat(rng.integers(-127, 128, (64, 3, 7, 7))
                      * (rng.random((64, 3, 7, 7)) >= 0.3), 2, axis=2)
        rep = count_macs(x, FilterBank(w, np.zeros(64, dtype=np.int64)),
                         ConvGeometry(4, 2), preset_config("tpu"))
        assert 0 < rep.mac_executed < rep.mac_issued
        assert rep.mac_executed == separable_executed(x, w, 4, 2)

    def test_padded_ragged_layer_matches_separable_oracle(self):
        # padding on both axes and strides that leave the last rows and
        # columns of the padded plane in no window
        rng = np.random.default_rng(10)
        x = rng.integers(-3, 4, (4, 62, 53)) * (rng.random((4, 62, 53)) < 0.4)
        w = rng.integers(-2, 3, (5, 4, 5, 4))
        geom = ConvGeometry(3, 4, 2, 3)
        assert (62 + 4 - 5) % 3 and (53 + 6 - 4) % 4
        f = FilterBank(w, np.zeros(5, dtype=np.int64))
        rep = count_macs(x, f, geom, SystolicConfig(8, 8, True))
        assert rep.mac_executed == separable_executed(x, w, 3, 4, 2, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_cycle_occupancy_bound(self, seed):
        rng = np.random.default_rng(seed + 50)
        x, f = sparse_instance(rng)
        cfg = SystolicConfig(int(rng.integers(1, 9)), int(rng.integers(1, 9)), True)
        rep = count_macs(x, f, ConvGeometry(), cfg)
        assert rep.cycles * cfg.rows * cfg.cols >= rep.mac_executed
        assert 0.0 <= rep.array_utilization <= 1.0

    def test_bad_geometry(self):
        x = np.zeros((1, 2, 2), dtype=np.int64)
        f = FilterBank(np.zeros((1, 1, 3, 3), dtype=np.int64), np.zeros(1, dtype=np.int64))
        with pytest.raises(BadGeometry):
            count_macs(x, f, ConvGeometry(), SystolicConfig(2, 2))

    def test_report_json_field_names(self):
        x = np.ones((1, 2, 2), dtype=np.int64)
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))
        d = count_macs(x, f, ConvGeometry(), SystolicConfig(2, 2)).to_dict()
        assert set(d) == {"mac_issued", "mac_skipped", "mac_executed",
                          "cycles", "array_utilization"}
        json.dumps(d)  # must be serializable as-is


class TestPresets:
    def test_tpu_is_65k_macs(self):
        cfg = preset_config("tpu")
        assert cfg.rows * cfg.cols == 65536

    def test_small(self):
        cfg = preset_config("small", zero_skip=False)
        assert (cfg.rows, cfg.cols, cfg.zero_skip) == (8, 8, False)

    def test_unknown(self):
        with pytest.raises(ValueError):
            preset_config("gpu")


class TestFootprint:
    @pytest.mark.parametrize("seed", range(10))
    def test_mac_doubling_without_zero_skip(self, seed):
        rng = np.random.default_rng(seed + 100)
        img, noi, f, g = rand_attack_instance(rng, max_dim=10)
        cmp = compare_attack_footprint(img, noi, f, g, SystolicConfig(8, 8, False))
        assert cmp.attacked.mac_issued == 2 * cmp.clean.mac_issued

    def test_zero_noise_adds_nothing_with_zero_skip(self):
        rng = np.random.default_rng(7)
        img, _, f, g = rand_attack_instance(rng, max_dim=8)
        zero = np.zeros(img.shape, dtype=np.int64)
        cmp = compare_attack_footprint(img, zero, f, g, SystolicConfig(8, 8, True))
        assert cmp.attacked.mac_executed == cmp.clean.mac_executed

    @pytest.mark.parametrize("seed", range(15))
    def test_decomposition_identity(self, seed):
        # attacked executed == clean executed + noise-only executed, exactly
        rng = np.random.default_rng(seed + 200)
        img, noi, f, g = rand_attack_instance(rng, max_dim=10)
        sparse_noi = noi * (rng.random(noi.shape) < 0.4)
        cmp = compare_attack_footprint(img, sparse_noi, f, g,
                                       SystolicConfig(8, 8, True))
        assert cmp.attacked.mac_executed == \
            cmp.clean.mac_executed + cmp.noise_only.mac_executed

    @pytest.mark.parametrize("seed", range(3))
    def test_attacked_count_matches_naive_oracle(self, seed):
        # counted on the woven input and duplicated filters themselves,
        # not derived from the clean and noise-only counts
        rng = np.random.default_rng(seed + 300)
        img, noi, f, g = rand_attack_instance(rng, max_dim=8)
        sparse = [a * (rng.random(a.shape) < 0.5)
                  for a in (img, noi, f.weights)]
        pad_w = int(rng.integers(0, f.kernel_w + 1))
        geom = ConvGeometry(g.stride_v, g.stride_h, g.pad_h, pad_w)
        cmp = compare_attack_footprint(
            sparse[0], sparse[1],
            FilterBank(sparse[2], f.bias), geom, SystolicConfig(8, 8, True))
        c, h, w = img.shape
        woven = np.empty((c, 2 * h, w), dtype=np.int64)
        woven[:, 0::2], woven[:, 1::2] = sparse[0], sparse[1]
        doubled = np.repeat(sparse[2], 2, axis=2)
        assert cmp.attacked.mac_skipped == naive_skip_count(
            woven, doubled, 2 * g.stride_v, g.stride_h, 2 * g.pad_h, pad_w)
        assert cmp.attacked.mac_executed == \
            cmp.attacked.mac_issued - cmp.attacked.mac_skipped

    def test_nondeterminism_of_clean_counts(self):
        # the stealth premise: per-image executed-MAC counts vary with the
        # image's zero pattern (reported, not asserted as masking proof)
        rng = np.random.default_rng(42)
        f = FilterBank(rng.integers(-3, 4, (2, 1, 3, 3)), np.zeros(2, dtype=np.int64))
        counts = []
        for _ in range(20):
            x = rng.integers(0, 6, (1, 8, 8)) * (rng.random((1, 8, 8)) < 0.6)
            counts.append(count_macs(x, f, ConvGeometry(),
                                     SystolicConfig(8, 8, True)).mac_executed)
        assert len(set(counts)) > 1
