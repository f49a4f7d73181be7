import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from advweave import conv, weave
from advweave.conv import ConvGeometry, FilterBank, conv2d_nchw
from advweave.errors import BadGeometry, OutOfRange, ShapeMismatch
from advweave.weave import (attacked_conv_nchw, attacked_geometry,
                            duplicate_filter_rows, EquivalenceReport,
                            equivalence_report, weave_rows)
from test_conv import conv2d, naive_conv2d


def attacked_conv(image, noise, f, geom=ConvGeometry()):
    """attacked_conv_nchw on one (C, H, W) image."""
    return attacked_conv_nchw(image[None], noise, f, geom)[0]


def rand_attack_instance(rng, max_dim=16, float_mode=False):
    c = int(rng.integers(1, 4))
    h = int(rng.integers(2, max_dim + 1))
    w = int(rng.integers(2, max_dim + 1))
    kh = int(rng.integers(1, min(4, h) + 1))
    kw = int(rng.integers(1, min(4, w) + 1))
    o = int(rng.integers(1, 4))
    sv, sh = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    ph, pw = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    if float_mode:
        img = rng.uniform(-1, 1, (c, h, w))
        noi = rng.uniform(-0.1, 0.1, (c, h, w))
        wt = rng.uniform(-1, 1, (o, c, kh, kw))
        b = rng.uniform(-1, 1, o)
    else:
        img = rng.integers(-128, 128, (c, h, w))
        noi = rng.integers(-16, 17, (c, h, w))
        wt = rng.integers(-8, 9, (o, c, kh, kw))
        b = rng.integers(-8, 9, o)
    return img, noi, FilterBank(wt, b), ConvGeometry(sv, sh, ph, pw)


def index_structure_differences(max_channels, max_dim):
    """The geometries on which attacked_conv_nchw(x, n) and conv2d_nchw(x + n)
    differ, of every geometry with C from 1 to max_channels, H and W from 2
    to max_dim, kernels 1-4 capped by the input, strides 1-2 and every pad
    below the kernel; returns (geometries checked, those that differ).

    Both paths are linear in the operands, so agreeing on a basis proves
    them equal on all operands in exact arithmetic: one one-hot filter per
    tap (O = C*kh*kw), an image holding i+1 at element i and a noise
    holding (i+1)*M, M = 2n+1. A direct output is then (i+1)*(M+1) for the
    one element its tap reads, or 0 in padding, and a woven output equals
    it only if its two duplicated taps read image element i and noise
    element i. Every value is an integer far inside float32's exact range,
    so every route of _conv_blocks is exact.
    """
    checked, differ = 0, []
    for c, h, w in itertools.product(range(1, max_channels + 1),
                                     range(2, max_dim + 1),
                                     range(2, max_dim + 1)):
        n = c * h * w
        image = np.arange(1, n + 1).reshape(1, c, h, w)
        noise = image[0] * (2 * n + 1)
        direct = image + noise
        for kh, kw in itertools.product(range(1, min(4, h) + 1),
                                        range(1, min(4, w) + 1)):
            k = c * kh * kw
            f = FilterBank(np.eye(k, dtype=np.int64).reshape(k, c, kh, kw),
                           np.zeros(k, dtype=np.int64))
            for geom in itertools.starmap(ConvGeometry, itertools.product(
                    (1, 2), (1, 2), range(kh), range(kw))):
                checked += 1
                if not np.array_equal(attacked_conv_nchw(image, noise, f, geom),
                                      conv2d_nchw(direct, f, geom)):
                    differ.append((c, h, w, kh, kw, geom))
    return checked, differ


class TestInterleave:
    def test_rows_alternate(self):
        img = np.array([[[1, 1], [2, 2]]])
        noi = np.array([[[7, 7], [8, 8]]])
        woven = weave_rows(img, noi)
        assert woven.shape == (1, 4, 2)
        assert [list(r) for r in woven[0]] == [[1, 1], [7, 7], [2, 2], [8, 8]]

    def test_zero_noise(self):
        img = np.arange(4).reshape(1, 2, 2)
        woven = weave_rows(img, np.zeros((1, 2, 2), dtype=np.int64))
        assert np.all(woven[0, 1::2] == 0)
        assert np.array_equal(woven[0, 0::2], img[0])

    def test_shape_mismatch(self):
        # the woven and the direct path check shapes alike, with one text
        img, noise = np.zeros((1, 2, 2)), np.zeros((1, 2, 3))
        f = FilterBank(np.ones((1, 1, 1, 1)), np.zeros(1))
        errors = []
        for op in (lambda: weave_rows(img, noise),
                   lambda: equivalence_report(img, noise, f)):
            with pytest.raises(ShapeMismatch) as e:
                op()
            errors.append(str(e.value))
        assert errors[0] == errors[1]

    def test_integer_promotion_to_float_rejected(self):
        # uint64 with int64 promotes to float64, which cannot hold both
        # exactly; the woven and the direct path reject it alike
        img = np.full((1, 2, 2), 2**63 + 1, dtype=np.uint64)
        noise = np.ones((1, 2, 2), dtype=np.int64)
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=np.int64),
                       np.zeros(1, dtype=np.int64))
        errors = []
        # the direct sum is equivalence_report's first step
        for op in (lambda: weave_rows(img, noise),
                   lambda: attacked_conv(img, noise, f),
                   lambda: equivalence_report(img, noise, f)):
            with pytest.raises(TypeError) as e:
                op()
            errors.append((e.type, str(e.value)))
        assert errors[1] == errors[2] == errors[0]

    def test_mixed_integer_widths_stay_integer(self):
        img = np.ones((1, 2, 2), dtype=np.int32)
        woven = weave_rows(img, np.ones((1, 2, 2), dtype=np.int64))
        assert woven.dtype == np.int64

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        img, noi, _, _ = rand_attack_instance(rng)
        woven = weave_rows(img, noi)
        assert np.array_equal(woven[:, 0::2], img)
        assert np.array_equal(woven[:, 1::2], noi)


class TestDuplicateFilterRows:
    def test_single_row(self):
        f = FilterBank(np.array([[[[1.0, 2.0]]]]), np.array([3.0]))
        dup = duplicate_filter_rows(f)
        assert dup.kernel_h == 2
        assert np.array_equal(dup.weights[0, 0], [[1.0, 2.0], [1.0, 2.0]])
        assert np.array_equal(dup.bias, f.bias)  # bias copied, never doubled

    def test_two_rows_interleaved_order(self):
        w = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
        dup = duplicate_filter_rows(FilterBank(w, np.zeros(1)))
        got = dup.weights[0, 0]
        assert np.array_equal(got, [w[0, 0, 0], w[0, 0, 0], w[0, 0, 1], w[0, 0, 1]])

    def test_weight_count_doubles(self):
        rng = np.random.default_rng(0)
        f = FilterBank(rng.uniform(-1, 1, (3, 2, 3, 4)), np.zeros(3))
        dup = duplicate_filter_rows(f)
        assert dup.weights.size == 2 * f.weights.size


class TestAttackedGeometry:
    def test_doubles_vertical_stride_only(self):
        g = attacked_geometry(ConvGeometry(1, 1))
        assert (g.stride_v, g.stride_h) == (2, 1)

    def test_general_doubling(self):
        g = attacked_geometry(ConvGeometry(2, 3, 1, 2))
        assert (g.stride_v, g.stride_h, g.pad_h, g.pad_w) == (4, 3, 2, 2)

    def test_not_idempotent(self):
        g = attacked_geometry(attacked_geometry(ConvGeometry(1, 1)))
        assert g.stride_v == 4  # applying twice keeps doubling

    def test_equal_geometry_builds_none(self, monkeypatch):
        first = attacked_geometry(ConvGeometry(3, 2, 1, 4))
        again = ConvGeometry(3, 2, 1, 4)  # equal, not the same object
        built = []
        monkeypatch.setattr(ConvGeometry, "__post_init__",
                            lambda self: built.append(self))
        assert attacked_geometry(again) is first
        assert built == []


class TestAttackedConv:
    def test_identity_filter_hand_check(self):
        img = np.array([[[1, 2], [3, 4]]])
        noi = np.array([[[1, 0], [0, 1]]])
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))
        out = attacked_conv(img, noi, f)
        assert np.array_equal(out[0], [[2, 2], [3, 5]])

    def test_zero_noise_equals_clean_conv(self):
        rng = np.random.default_rng(3)
        img, _, f, g = rand_attack_instance(rng)
        zero = np.zeros(img.shape, dtype=np.int64)
        assert np.array_equal(attacked_conv(img, zero, f, g), conv2d(img, f, g))

    @pytest.mark.parametrize("seed", range(40))
    def test_equivalence_theorem_int_vs_naive_oracle(self, seed):
        rng = np.random.default_rng(seed + 1000)
        img, noi, f, g = rand_attack_instance(rng, max_dim=10)
        got = attacked_conv(img, noi, f, g)
        want = naive_conv2d(img + noi, f.weights, f.bias,
                            g.stride_v, g.stride_h, g.pad_h, g.pad_w)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(10))
    def test_output_shape_matches_clean(self, seed):
        rng = np.random.default_rng(seed + 2000)
        img, noi, f, g = rand_attack_instance(rng)
        assert attacked_conv(img, noi, f, g).shape == conv2d(img, f, g).shape

    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 1, 1, 8, 8), (2, 2, 8, 8)],
                             ids=["no batch axis", "5-D batch", "2 channels"])
    def test_batch_checks_match_conv2d_nchw(self, shape):
        # the attacked route makes the direct route's checks, with its text
        f = FilterBank(np.ones((2, 1, 3, 3)), np.zeros(2))
        xs = np.zeros(shape)
        with pytest.raises(ShapeMismatch) as direct:
            conv2d_nchw(xs + xs, f)
        with pytest.raises(ShapeMismatch) as woven:
            attacked_conv_nchw(xs, xs, f)
        assert str(woven.value) == str(direct.value)

    def test_empty_batch(self):
        f = FilterBank(np.ones((2, 1, 3, 3), dtype=np.int64),
                       np.ones(2, dtype=np.int64))
        got = attacked_conv_nchw(np.empty((0, 1, 8, 8), dtype=np.int64),
                                 np.ones((1, 8, 8), dtype=np.int64), f)
        assert got.shape == (0, 2, 6, 6) and got.dtype == np.int64

    def test_only_first_layer_contract(self):
        # feeding the attacked first-layer output into a regular downstream
        # layer equals running everything on image + noise
        rng = np.random.default_rng(5)
        img = rng.integers(-8, 9, (1, 8, 8))
        noi = rng.integers(-2, 3, (1, 8, 8))
        f1 = FilterBank(rng.integers(-3, 4, (2, 1, 3, 3)), rng.integers(-2, 3, 2))
        f2 = FilterBank(rng.integers(-3, 4, (1, 2, 2, 2)), rng.integers(-2, 3, 1))
        attacked_path = conv2d(attacked_conv(img, noi, f1), f2)
        direct_path = conv2d(conv2d(img + noi, f1), f2)
        assert np.array_equal(attacked_path, direct_path)


class TestIndexStructure:
    def test_every_small_geometry(self):
        # the random trials check the arithmetic routes; this checks which
        # element every woven tap reads, for every geometry up to 8x8 (CI
        # runs the same proof up to C = 3 and 16x16)
        assert index_structure_differences(2, 8) == (27_848, [])


class TestEquivalenceReport:
    def test_integer_instances_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            img, noi, f, g = rand_attack_instance(rng)
            rep = equivalence_report(img, noi, f, g)
            assert rep.exact
            assert rep.max_abs_diff == 0.0

    def test_float_instances_within_tolerance(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            img, noi, f, g = rand_attack_instance(rng, float_mode=True)
            assert equivalence_report(img, noi, f, g).exact

    def test_zero_noise_exact(self):
        rng = np.random.default_rng(11)
        img, _, f, g = rand_attack_instance(rng)
        zero = np.zeros(img.shape, dtype=np.int64)
        rep = equivalence_report(img, zero, f, g)
        assert rep.exact and rep.max_abs_diff == 0.0

    def test_corrupted_woven_detected(self):
        rng = np.random.default_rng(12)
        img = rng.integers(1, 9, (1, 4, 4))
        noi = rng.integers(1, 5, (1, 4, 4))
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        g = ConvGeometry(1, 1)
        wrong = noi.copy()
        wrong[0, 0, :] += 100  # flip one noise row: woven row 1
        rep = equivalence_report(img, noi, f, g, woven_noise=wrong)
        # filter row 0 reads it in output row 0, over two kernel columns
        assert rep == EquivalenceReport(max_abs_diff=200.0, exact=False)

    def test_float_woven_side_off_by_1e_7_is_inexact(self):
        # output 1.0 against 1.0 + 1e-7: far past 1e-9 relative, and past
        # any rounding-error bound of one product (about 1e-16)
        img, noi = np.zeros((1, 1, 1)), np.ones((1, 1, 1))
        f = FilterBank(np.ones((1, 1, 1, 1)), np.zeros(1))
        rep = equivalence_report(img, noi, f, woven_noise=noi + 1e-7)
        assert not rep.exact
        assert rep.max_abs_diff == pytest.approx(1e-7, rel=1e-6)

    def test_float_zero_direct_output_against_1e_3_is_inexact(self):
        # an all-zero direct output takes 1.0 as its magnitude, so a woven
        # side of 1e-3 is off by 1e-3 relative
        zero = np.zeros((1, 2, 2))
        f = FilterBank(np.ones((1, 1, 1, 1)), np.zeros(1))
        rep = equivalence_report(zero, zero, f, woven_noise=zero + 1e-3)
        assert rep == EquivalenceReport(max_abs_diff=1e-3, exact=False)

    @staticmethod
    def _full_report(img, noi, f, g, woven_noise=None):
        """The report from both full outputs, compared whole. The direct
        output is built at the report's block height: half of COLUMN_BYTES
        at the direct C*kh*kw cuts the rows where the report's 2*C*kh*kw
        does, so a float layer of several blocks sums each row the same."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conv, "COLUMN_BYTES", conv.COLUMN_BYTES // 2)
            direct = conv2d(img + noi, f, g)
        attacked = attacked_conv(img, noi if woven_noise is None
                                 else woven_noise, f, g)
        integer = direct.dtype.kind in "iu" and attacked.dtype.kind in "iu"
        diff = np.abs(direct.astype(np.float64) - attacked.astype(np.float64))
        max_abs_diff = float(diff.max())
        if integer:
            exact = np.array_equal(direct, attacked)
        else:
            ref = float(np.max(np.abs(direct))) or 1.0
            exact = max_abs_diff <= 1e-9 * ref
        return EquivalenceReport(max_abs_diff=max_abs_diff, exact=exact)

    @staticmethod
    def _sabotaged(noi):
        """The woven noise of --sabotage: noise row 0 raised by 1."""
        wrong = noi.copy()
        wrong[:, 0, :] += 1
        return wrong

    def _check_instances(self, rng, trials, max_dim=16):
        caught = 0  # sabotaged integer outputs that differ
        for i in range(trials):
            float_mode = i % 2 == 1
            img, noi, f, g = rand_attack_instance(rng, max_dim, float_mode)
            f = FilterBank(f.weights, np.where(f.bias == 0, 1, f.bias))
            assert equivalence_report(img, noi, f, g) \
                == self._full_report(img, noi, f, g)
            wrong = self._sabotaged(noi)
            rep = equivalence_report(img, noi, f, g, woven_noise=wrong)
            assert rep == self._full_report(img, noi, f, g, wrong)
            caught += not float_mode and rep.max_abs_diff > 0
        assert caught > trials // 4

    def test_matches_full_output_comparison(self):
        self._check_instances(np.random.default_rng(13), 60)

    @pytest.mark.parametrize("column_bytes", [1, 700, 3000])
    def test_multi_block_layers(self, monkeypatch, column_bytes):
        monkeypatch.setattr(conv, "COLUMN_BYTES", column_bytes)
        self._check_instances(np.random.default_rng(column_bytes), 30,
                              max_dim=24)

    def test_both_streams_share_block_edges(self, monkeypatch):
        # the woven K = C*2kh*kw sizes both streams: 2 rows a block (of
        # 12*6*8 column bytes per output row), though the direct K alone
        # would give 5
        monkeypatch.setattr(conv, "COLUMN_BYTES", 1500)
        edges = []  # each stream's blocks, in the order the streams start

        def recording(x, weights, dtype, geom, k):
            blocks = []
            edges.append(blocks)
            for y0, y1, product in conv._conv_blocks(x, weights, dtype, geom,
                                                     k):
                blocks.append((y0, y1))
                yield y0, y1, product

        monkeypatch.setattr(weave, "_conv_blocks", recording)
        rng = np.random.default_rng(15)
        for float_mode in (False, True):
            img, noi, f, g = rand_attack_instance(rng, float_mode=float_mode)
            img = rng.integers(-128, 128, (1, 14, 7)).astype(img.dtype)
            noi = rng.integers(-16, 17, img.shape).astype(noi.dtype)
            f = FilterBank(f.weights[:1, :1, :1, :1].repeat(3, axis=2)
                           .repeat(2, axis=3), f.bias[:1])
            g = ConvGeometry(1, 1)
            for woven_noise in (noi, self._sabotaged(noi)):
                del edges[:]
                assert equivalence_report(img, noi, f, g, woven_noise) \
                    == self._full_report(img, noi, f, g, woven_noise)
                blocks = [(y, min(y + 2, 12)) for y in range(0, 12, 2)]
                assert edges == [blocks, blocks]  # direct, then woven

    def test_each_block_released_before_the_next(self, monkeypatch):
        # when either stream goes on to build its next block, none of its
        # own blocks is alive, and at most one of the other's
        monkeypatch.setattr(conv, "COLUMN_BYTES", 700)
        refs = []  # a weakref to every block of both streams

        def tracked(x, weights, dtype, geom, k):
            own = []
            blocks = conv._conv_blocks(x, weights, dtype, geom, k)
            while True:
                assert all(r() is None for r in own)
                assert sum(r() is not None for r in refs) <= 1
                try:
                    y0, y1, product = next(blocks)
                except StopIteration:
                    return
                own.append(weakref.ref(product))
                refs.append(own[-1])
                yield y0, y1, product
                del product

        monkeypatch.setattr(weave, "_conv_blocks", tracked)
        rng = np.random.default_rng(17)
        for float_mode in (False, True):
            img, noi, f, g = rand_attack_instance(rng, 24, float_mode)
            for woven_noise in (noi, self._sabotaged(noi)):
                del refs[:]
                assert equivalence_report(img, noi, f, g, woven_noise) \
                    == self._full_report(img, noi, f, g, woven_noise)
                assert len(refs) > 2  # several blocks a stream

    def test_error_order_through_the_oracle(self):
        # a kernel larger than the 3x3 image, unpadded and padded: shapes,
        # then dtype and range, then geometry, on the oracle and on both
        # convolutions, each error with one text; the attacked path's
        # geometry error names the direct layer, not the woven one
        img = np.ones((1, 3, 3), dtype=np.int64)
        noi = np.zeros_like(img)
        zero = np.zeros(1, dtype=np.int64)
        ones = np.ones((1, 1, 4, 4), dtype=np.int64)
        for weights, bias, geom, error in (
                (ones.astype(np.complex128), zero, ConvGeometry(), TypeError),
                (ones, np.array([1j]), ConvGeometry(), TypeError),
                (np.full((1, 1, 4, 4), 2 ** 63, dtype=np.uint64), zero,
                 ConvGeometry(), OutOfRange),
                (ones, zero, ConvGeometry(), BadGeometry),
                (np.ones((1, 1, 6, 6), dtype=np.int64), zero,
                 ConvGeometry(2, 1, 1, 1), BadGeometry)):
            f = FilterBank(weights, bias)
            texts = set()
            for run in (lambda: equivalence_report(img, noi, f, geom),
                        lambda: conv2d_nchw(img[None], f, geom),
                        lambda: attacked_conv_nchw(img[None], noi, f, geom)):
                with pytest.raises(error) as e:
                    run()
                texts.add(str(e.value))
            assert len(texts) == 1
            if error is BadGeometry:
                kh, kw = weights.shape[2:]
                assert texts.pop().startswith(
                    f"kernel {kh}x{kw} stride ({geom.stride_v},"
                    f"{geom.stride_h}) pad ({geom.pad_h},{geom.pad_w}) "
                    f"on 3x3 input")

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_bank_of_no_filters(self, dtype):
        # empty blocks on both routes: a float maximum without an initial
        # value raised numpy's "zero-size array to reduction operation"
        img = np.ones((1, 4, 4), dtype=dtype)
        f = FilterBank(np.zeros((0, 1, 2, 2), dtype=dtype), np.zeros(0, dtype))
        for woven_noise in (None, img + 1):
            assert equivalence_report(img, img, f, woven_noise=woven_noise) \
                == EquivalenceReport(max_abs_diff=0.0, exact=True)

    def test_nan_in_a_late_block(self, monkeypatch):
        # a NaN in any block makes the whole report NaN and inexact, as
        # np.max over full outputs does, whatever block comes first
        monkeypatch.setattr(conv, "COLUMN_BYTES", 600)
        rng = np.random.default_rng(16)
        data = rng.uniform(-1, 1, (1, 12, 5))
        data[0, -1, 2] = np.nan
        img, noi = data, rng.uniform(-1, 1, data.shape)
        f = FilterBank(rng.uniform(-1, 1, (2, 1, 2, 2)), rng.uniform(-1, 1, 2))
        g = ConvGeometry()
        for woven_noise in (None, noi.copy()):
            rep = equivalence_report(img, noi, f, g, woven_noise)
            assert np.isnan(rep.max_abs_diff) and not rep.exact
            assert np.isnan(self._full_report(img, noi, f, g, woven_noise)
                            .max_abs_diff)

    def test_products_on_different_exact_routes(self, monkeypatch):
        # max|image + noise| * max sum|W| is below 2**24 where the woven
        # max(|image|, |noise|) * 2 max sum|W| is not: float32 products
        # against float64 ones, compared exactly
        monkeypatch.setattr(conv, "BLAS_MIN_MACS", 0)
        monkeypatch.setattr(conv, "COLUMN_BYTES", 2000)
        routes = []
        choose = conv._exact_float_dtype
        monkeypatch.setattr(conv, "_exact_float_dtype", lambda x, weights:
                            routes.append(choose(x, weights)) or routes[-1])
        rng = np.random.default_rng(3)
        img = rng.integers(-2000, 2001, (2, 11, 9))
        noi = rng.integers(-16, 17, (2, 11, 9))
        w = np.zeros((3, 2, 3, 2), dtype=np.int64)
        w[:, :, 0, 0] = 2500  # sum|W[o]| = 5000 + up to 2 * 5 * 7
        w[:, :, 1:] = rng.integers(-7, 8, (3, 2, 2, 2))
        f = FilterBank(w, rng.integers(-9, 10, 3))
        g = ConvGeometry(1, 2)
        rep = equivalence_report(img, noi, f, g)
        assert routes == [np.float32, np.float64]  # direct, then woven
        assert rep == EquivalenceReport(max_abs_diff=0.0, exact=True)
        del routes[:]
        wrong = self._sabotaged(noi)
        rep = equivalence_report(img, noi, f, g, woven_noise=wrong)
        assert routes == [np.float32, np.float64]  # the woven stream ran
        assert rep == self._full_report(img, noi, f, g, wrong)

    def test_woven_noise_of_another_shape_or_dtype_raises(self):
        img, noi, f, g = rand_attack_instance(np.random.default_rng(14))
        for shape in (np.concatenate([noi, noi], axis=2), noi[None]):
            with pytest.raises(ShapeMismatch, match="woven noise"):
                equivalence_report(img, noi, f, g, shape)
        for dtype in (np.int32, np.float64):
            with pytest.raises(TypeError, match="woven noise"):
                equivalence_report(img, noi, f, g, noi.astype(dtype))

    def test_no_full_size_output(self):
        # the footprint layer: a full int64 output is 64*109*109*8 bytes;
        # the streamed report holds the operands and one block of each side
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (3, 224, 224))
        noi = rng.integers(-12, 13, (3, 224, 224))
        f = FilterBank(rng.integers(-127, 128, (64, 3, 7, 7)),
                       rng.integers(-9, 10, 64))
        g = ConvGeometry(2, 2)
        output_bytes = 64 * 109 * 109 * 8
        assert g.out_shape(224, 224, 7, 7) == (109, 109)
        tracemalloc.start()
        try:
            rep = equivalence_report(img, noi, f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.exact
        assert peak < output_bytes
