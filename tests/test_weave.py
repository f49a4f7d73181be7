import numpy as np
import pytest

from advweave.conv import ConvGeometry, FilterBank, conv2d, conv2d_nchw
from advweave.errors import ShapeMismatch
from advweave.tensor import Tensor3
from advweave.weave import (attacked_conv, attacked_conv_nchw,
                            attacked_geometry, duplicate_filter_rows,
                            equivalence_report, interleave_rows)
from test_conv import naive_conv2d


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
    return (Tensor3(img), Tensor3(noi), FilterBank(wt, b),
            ConvGeometry(sv, sh, ph, pw))


class TestInterleave:
    def test_rows_alternate(self):
        img = Tensor3(np.array([[[1, 1], [2, 2]]]))
        noi = Tensor3(np.array([[[7, 7], [8, 8]]]))
        woven = interleave_rows(img, noi)
        assert woven.shape == (1, 4, 2)
        assert [list(r) for r in woven.data[0]] == [[1, 1], [7, 7], [2, 2], [8, 8]]

    def test_zero_noise(self):
        img = Tensor3(np.arange(4).reshape(1, 2, 2))
        woven = interleave_rows(img, Tensor3(np.zeros((1, 2, 2), dtype=np.int64)))
        assert np.all(woven.data[0, 1::2] == 0)
        assert np.array_equal(woven.data[0, 0::2], img.data[0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            interleave_rows(Tensor3(np.zeros((1, 2, 2))),
                            Tensor3(np.zeros((1, 2, 3))))

    def test_integer_promotion_to_float_rejected(self):
        # uint64 with int64 promotes to float64, which cannot hold both
        # exactly; the woven and the direct path reject it alike
        img = Tensor3(np.full((1, 2, 2), 2**63 + 1, dtype=np.uint64))
        noise = Tensor3(np.ones((1, 2, 2), dtype=np.int64))
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=np.int64),
                       np.zeros(1, dtype=np.int64))
        errors = []
        for op in (lambda: interleave_rows(img, noise),
                   lambda: img + noise,
                   lambda: equivalence_report(img, noise, f)):
            with pytest.raises(TypeError) as e:
                op()
            errors.append((e.type, str(e.value)))
        assert errors[1] == errors[2] == errors[0]

    def test_mixed_integer_widths_stay_integer(self):
        img = Tensor3(np.ones((1, 2, 2), dtype=np.int32))
        woven = interleave_rows(img, Tensor3(np.ones((1, 2, 2), dtype=np.int64)))
        assert woven.data.dtype == np.int64

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        img, noi, _, _ = rand_attack_instance(rng)
        woven = interleave_rows(img, noi).data
        assert np.array_equal(woven[:, 0::2], img.data)
        assert np.array_equal(woven[:, 1::2], noi.data)


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


class TestAttackedConv:
    def test_identity_filter_hand_check(self):
        img = Tensor3(np.array([[[1, 2], [3, 4]]]))
        noi = Tensor3(np.array([[[1, 0], [0, 1]]]))
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))
        out = attacked_conv(img, noi, f)
        assert np.array_equal(out.data[0], [[2, 2], [3, 5]])

    def test_zero_noise_equals_clean_conv(self):
        rng = np.random.default_rng(3)
        img, _, f, g = rand_attack_instance(rng)
        zero = Tensor3(np.zeros(img.shape, dtype=np.int64))
        assert attacked_conv(img, zero, f, g) == conv2d(img, f, g)

    @pytest.mark.parametrize("seed", range(40))
    def test_equivalence_theorem_int_vs_naive_oracle(self, seed):
        rng = np.random.default_rng(seed + 1000)
        img, noi, f, g = rand_attack_instance(rng, max_dim=10)
        got = attacked_conv(img, noi, f, g)
        want = naive_conv2d(img.data + noi.data, f.weights, f.bias,
                            g.stride_v, g.stride_h, g.pad_h, g.pad_w)
        assert np.array_equal(got.data, want)

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

    def test_only_first_layer_contract(self):
        # feeding the attacked first-layer output into a regular downstream
        # layer equals running everything on image + noise
        rng = np.random.default_rng(5)
        img = Tensor3(rng.integers(-8, 9, (1, 8, 8)))
        noi = Tensor3(rng.integers(-2, 3, (1, 8, 8)))
        f1 = FilterBank(rng.integers(-3, 4, (2, 1, 3, 3)), rng.integers(-2, 3, 2))
        f2 = FilterBank(rng.integers(-3, 4, (1, 2, 2, 2)), rng.integers(-2, 3, 1))
        attacked_path = conv2d(attacked_conv(img, noi, f1), f2)
        direct_path = conv2d(conv2d(img + noi, f1), f2)
        assert attacked_path == direct_path


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
        zero = Tensor3(np.zeros(img.shape, dtype=np.int64))
        rep = equivalence_report(img, zero, f, g)
        assert rep.exact and rep.max_abs_diff == 0.0

    def test_corrupted_woven_detected(self):
        from advweave.weave import attacked_geometry as ag
        rng = np.random.default_rng(12)
        img = Tensor3(rng.integers(1, 9, (1, 4, 4)))
        noi = Tensor3(rng.integers(1, 5, (1, 4, 4)))
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))
        g = ConvGeometry(1, 1)
        woven = interleave_rows(img, noi).data.copy()
        woven[0, 1, :] += 100  # flip one noise row
        corrupted = conv2d(Tensor3(woven),
                           duplicate_filter_rows(f), ag(g))
        rep = equivalence_report(img, noi, f, g, attacked_output=corrupted)
        assert not rep.exact
