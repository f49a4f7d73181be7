import json

import numpy as np
import pytest

from advweave.accel import (SystolicConfig, compare_attack_footprint,
                            count_macs, layout_rows, preset_config,
                            stream_rows)
from advweave.conv import ConvGeometry, FilterBank
from advweave.errors import BadGeometry, ShapeMismatch
from advweave.tensor import Tensor3
from advweave.weave import interleave_rows
from test_weave import rand_attack_instance


def naive_skip_count(x, w, sv, sh):
    """Brute-force count of issued MACs with a zero operand."""
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


def sparse_instance(rng, density=0.5):
    c, h, w = 1 + int(rng.integers(3)), int(rng.integers(3, 9)), int(rng.integers(3, 9))
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    kh, kw = min(kh, h), min(kw, w)
    o = int(rng.integers(1, 4))
    x = rng.integers(-5, 6, (c, h, w)) * (rng.random((c, h, w)) < density)
    wt = rng.integers(-3, 4, (o, c, kh, kw)) * (rng.random((o, c, kh, kw)) < density)
    return Tensor3(x), FilterBank(wt, np.zeros(o, dtype=np.int64))


class TestLayoutRows:
    def test_regular_layout(self):
        img = Tensor3(np.zeros((1, 2, 3)))
        mem = layout_rows(img, base=0x1000, row_stride=64)
        assert [(d.source, d.index, d.address) for d in mem.rows] == [
            ("image", 0, 0x1000), ("image", 1, 0x1040)]

    def test_attacked_layout_alternates(self):
        img = Tensor3(np.zeros((1, 2, 3)))
        mem = layout_rows(img, img, base=0, row_stride=32)
        assert [(d.source, d.index) for d in mem.rows] == [
            ("image", 0), ("noise", 0), ("image", 1), ("noise", 1)]
        addrs = [d.address for d in mem.rows]
        assert addrs == [0, 32, 64, 96]

    def test_addresses_strictly_increasing(self):
        img = Tensor3(np.zeros((2, 3, 4)))
        mem = layout_rows(img, img)
        addrs = [d.address for d in mem.rows]
        assert all(b - a == mem.row_stride for a, b in zip(addrs, addrs[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            layout_rows(Tensor3(np.zeros((1, 2, 2))),
                        Tensor3(np.zeros((1, 3, 2))))

    @pytest.mark.parametrize("seed", range(10))
    def test_streaming_reconstructs_woven(self, seed):
        rng = np.random.default_rng(seed)
        img, noi, _, _ = rand_attack_instance(rng, max_dim=8)
        mem = layout_rows(img, noi)
        assert stream_rows(mem, img, noi) == interleave_rows(img, noi)

    def test_streaming_regular_reconstructs_image(self):
        rng = np.random.default_rng(1)
        img = Tensor3(rng.integers(0, 9, (2, 3, 4)))
        assert stream_rows(layout_rows(img), img) == img


class TestCountMacs:
    def test_dense_closed_form(self):
        x = Tensor3(np.ones((1, 4, 4), dtype=np.int64))
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        rep = count_macs(x, f, ConvGeometry(), SystolicConfig(8, 8, True))
        assert rep.mac_issued == 3 * 3 * 1 * 1 * 2 * 2 == 36
        assert rep.mac_skipped == 0
        assert rep.mac_executed == 36

    def test_all_zero_input_skips_everything(self):
        x = Tensor3(np.zeros((1, 4, 4), dtype=np.int64))
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        rep = count_macs(x, f, ConvGeometry(), SystolicConfig(8, 8, True))
        assert rep.mac_executed == 0
        assert rep.mac_skipped == rep.mac_issued
        assert rep.cycles == 0

    def test_zero_skip_off_executes_all(self):
        x = Tensor3(np.zeros((1, 4, 4), dtype=np.int64))
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        rep = count_macs(x, f, ConvGeometry(), SystolicConfig(8, 8, False))
        assert rep.mac_executed == rep.mac_issued == 36

    @pytest.mark.parametrize("seed", range(15))
    def test_skip_count_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x, f = sparse_instance(rng)
        sv, sh = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        rep = count_macs(x, f, ConvGeometry(sv, sh), SystolicConfig(4, 4, True))
        assert rep.mac_skipped == naive_skip_count(x.data, f.weights, sv, sh)
        assert rep.mac_executed == rep.mac_issued - rep.mac_skipped

    @pytest.mark.parametrize("seed", range(10))
    def test_cycle_occupancy_bound(self, seed):
        rng = np.random.default_rng(seed + 50)
        x, f = sparse_instance(rng)
        cfg = SystolicConfig(int(rng.integers(1, 9)), int(rng.integers(1, 9)), True)
        rep = count_macs(x, f, ConvGeometry(), cfg)
        assert rep.cycles * cfg.rows * cfg.cols >= rep.mac_executed
        assert 0.0 <= rep.array_utilization <= 1.0

    def test_bad_geometry(self):
        x = Tensor3(np.zeros((1, 2, 2), dtype=np.int64))
        f = FilterBank(np.zeros((1, 1, 3, 3), dtype=np.int64), np.zeros(1, dtype=np.int64))
        with pytest.raises(BadGeometry):
            count_macs(x, f, ConvGeometry(), SystolicConfig(2, 2))

    def test_report_json_field_names(self):
        x = Tensor3(np.ones((1, 2, 2), dtype=np.int64))
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
        zero = Tensor3(np.zeros(img.shape, dtype=np.int64))
        cmp = compare_attack_footprint(img, zero, f, g, SystolicConfig(8, 8, True))
        assert cmp.attacked.mac_executed == cmp.clean.mac_executed

    @pytest.mark.parametrize("seed", range(15))
    def test_decomposition_identity(self, seed):
        # attacked executed == clean executed + noise-only executed, exactly
        rng = np.random.default_rng(seed + 200)
        img, noi, f, g = rand_attack_instance(rng, max_dim=10)
        sparse_noi = Tensor3(noi.data * (rng.random(noi.shape) < 0.4))
        cmp = compare_attack_footprint(img, sparse_noi, f, g,
                                       SystolicConfig(8, 8, True))
        assert cmp.attacked.mac_executed == \
            cmp.clean.mac_executed + cmp.noise_only.mac_executed

    def test_padded_rejected(self):
        img = Tensor3(np.zeros((1, 4, 4), dtype=np.int64))
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        with pytest.raises(BadGeometry):
            compare_attack_footprint(img, img, f, ConvGeometry(1, 1, pad_h=1),
                                     SystolicConfig(2, 2))

    def test_nondeterminism_of_clean_counts(self):
        # the stealth premise: per-image executed-MAC counts vary with the
        # image's zero pattern (reported, not asserted as masking proof)
        rng = np.random.default_rng(42)
        f = FilterBank(rng.integers(-3, 4, (2, 1, 3, 3)), np.zeros(2, dtype=np.int64))
        counts = []
        for _ in range(20):
            x = Tensor3(rng.integers(0, 6, (1, 8, 8)) *
                        (rng.random((1, 8, 8)) < 0.6))
            counts.append(count_macs(x, f, ConvGeometry(),
                                     SystolicConfig(8, 8, True)).mac_executed)
        assert len(set(counts)) > 1
