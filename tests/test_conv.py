import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advweave.conv import (ConvGeometry, FilterBank, conv2d, conv2d_nchw,
                           dense, maxpool2, maxpool2_argmax, relu)
from advweave.errors import BadGeometry, ShapeMismatch
from advweave.tensor import Tensor3


def naive_conv2d(x, w, b, sv=1, sh=1, pad_h=0, pad_w=0):
    """Independent quadruple-loop oracle, zero padding, cross-correlation."""
    c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    if pad_h or pad_w:
        x = np.pad(x, ((0, 0), (pad_h, pad_h), (pad_w, pad_w)))
        h, w_in = x.shape[1], x.shape[2]
    oh = (h - kh) // sv + 1
    ow = (w_in - kw) // sh + 1
    out = np.zeros((c_out, oh, ow), dtype=np.result_type(x, w))
    for o in range(c_out):
        for m in range(oh):
            for n in range(ow):
                acc = 0
                for c in range(c_in):
                    for j in range(kh):
                        for k in range(kw):
                            acc += w[o, c, j, k] * x[c, m * sv + j, n * sh + k]
                out[o, m, n] = acc + b[o]
    return out


def rand_instance(rng, float_mode=False, max_dim=9):
    c = int(rng.integers(1, 4))
    h = int(rng.integers(2, max_dim))
    w = int(rng.integers(2, max_dim))
    kh = int(rng.integers(1, min(4, h) + 1))
    kw = int(rng.integers(1, min(4, w) + 1))
    o = int(rng.integers(1, 4))
    if float_mode:
        x = rng.uniform(-2, 2, (c, h, w))
        wt = rng.uniform(-2, 2, (o, c, kh, kw))
        b = rng.uniform(-1, 1, o)
    else:
        x = rng.integers(-9, 10, (c, h, w))
        wt = rng.integers(-5, 6, (o, c, kh, kw))
        b = rng.integers(-5, 6, o)
    return x, wt, b


class TestConv2d:
    def test_identity_filter(self):
        x = Tensor3(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        f = FilterBank(np.ones((1, 1, 1, 1)), np.zeros(1))
        assert conv2d(x, f) == x

    def test_ones_3x3_with_2x2_kernel(self):
        x = Tensor3(np.ones((1, 3, 3)))
        f = FilterBank(np.ones((1, 1, 2, 2)), np.zeros(1))
        out = conv2d(x, f)
        assert out.shape == (1, 2, 2)
        assert np.all(out.data == 4)

    def test_zero_filter_gives_bias(self):
        rng = np.random.default_rng(0)
        x = Tensor3(rng.uniform(-1, 1, (2, 5, 5)))
        f = FilterBank(np.zeros((3, 2, 2, 2)), np.array([1.5, -2.0, 0.25]))
        out = conv2d(x, f)
        for o, b in enumerate(f.bias):
            assert np.all(out.data[o] == b)

    def test_channel_mismatch(self):
        x = Tensor3(np.zeros((2, 4, 4)))
        f = FilterBank(np.zeros((1, 3, 2, 2)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            conv2d(x, f)

    def test_bad_geometry(self):
        x = Tensor3(np.zeros((1, 2, 2)))
        f = FilterBank(np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(BadGeometry):
            conv2d(x, f)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_oracle_int(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = rand_instance(rng)
        sv, sh = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        got = conv2d(Tensor3(x), FilterBank(w, b), ConvGeometry(sv, sh))
        want = naive_conv2d(x, w, b, sv, sh)
        assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle_float_padded(self, seed):
        rng = np.random.default_rng(seed + 100)
        x, w, b = rand_instance(rng, float_mode=True)
        ph, pw = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        got = conv2d(Tensor3(x), FilterBank(w, b), ConvGeometry(1, 1, ph, pw))
        want = naive_conv2d(x, w, b, 1, 1, ph, pw)
        assert np.allclose(got.data, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_additive_property_exact_int(self, seed):
        # the identity the whole attack rests on
        rng = np.random.default_rng(seed + 200)
        a, w, b = rand_instance(rng)
        bb = rng.integers(-9, 10, a.shape)
        f = FilterBank(w, np.zeros_like(b))
        lhs = conv2d(Tensor3(a) + Tensor3(bb), f)
        rhs = Tensor3(conv2d(Tensor3(a), f).data + conv2d(Tensor3(bb), f).data)
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(10))
    def test_additive_property_float(self, seed):
        rng = np.random.default_rng(seed + 300)
        a, w, b = rand_instance(rng, float_mode=True)
        bb = rng.uniform(-2, 2, a.shape)
        f = FilterBank(w, b)
        f0 = FilterBank(w, np.zeros_like(b))
        lhs = conv2d(Tensor3(a + bb), f0).data
        rhs = conv2d(Tensor3(a), f0).data + conv2d(Tensor3(bb), f0).data
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(10))
    def test_linearity_in_filters(self, seed):
        rng = np.random.default_rng(seed + 400)
        x, w1, _ = rand_instance(rng)
        w2 = rng.integers(-5, 6, w1.shape)
        zero = np.zeros(w1.shape[0], dtype=np.int64)
        lhs = conv2d(Tensor3(x), FilterBank(w1 + w2, zero))
        rhs = Tensor3(conv2d(Tensor3(x), FilterBank(w1, zero)).data
                      + conv2d(Tensor3(x), FilterBank(w2, zero)).data)
        assert lhs == rhs

    @given(st.integers(2, 20), st.integers(2, 20), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=100)
    def test_output_shape_formula(self, h, w, kh, kw, sv, sh, ph, pw):
        geom = ConvGeometry(sv, sh, ph, pw)
        oh = (h + 2 * ph - kh) // sv + 1
        ow = (w + 2 * pw - kw) // sh + 1
        x = Tensor3(np.zeros((1, h, w)))
        f = FilterBank(np.zeros((2, 1, kh, kw)), np.zeros(2))
        if oh < 1 or ow < 1 or kh > h + 2 * ph or kw > w + 2 * pw:
            with pytest.raises(BadGeometry):
                conv2d(x, f, geom)
        else:
            assert conv2d(x, f, geom).shape == (2, oh, ow)


class TestConv2dBatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_batch_matches_naive_oracle_int(self, seed):
        rng = np.random.default_rng(seed + 500)
        x, w, b = rand_instance(rng)
        xs = np.stack([x] + [rng.integers(-9, 10, x.shape)
                             for _ in range(int(rng.integers(1, 5)))])
        sv, sh = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        got = conv2d_nchw(xs, FilterBank(w, b), ConvGeometry(sv, sh))
        want = np.stack([naive_conv2d(s, w, b, sv, sh) for s in xs])
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_matches_naive_oracle_float_padded(self, seed):
        rng = np.random.default_rng(seed + 600)
        x, w, b = rand_instance(rng, float_mode=True)
        xs = np.stack([x, rng.uniform(-2, 2, x.shape)])
        got = conv2d_nchw(xs, FilterBank(w, b), ConvGeometry(1, 1, 1, 1))
        want = np.stack([naive_conv2d(s, w, b, 1, 1, 1, 1) for s in xs])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            conv2d_nchw(np.zeros((2, 2, 4, 4)),
                        FilterBank(np.zeros((1, 3, 2, 2)), np.zeros(1)))


class TestRelu:
    def test_mixed(self):
        out = relu(Tensor3(np.array([[[-1.0, 0.0, 2.0]]])))
        assert list(out.data[0, 0]) == [0.0, 0.0, 2.0]

    def test_all_negative(self):
        assert np.all(relu(Tensor3(np.full((2, 2, 2), -3.0))).data == 0)

    def test_all_positive_unchanged(self):
        t = Tensor3(np.full((2, 2, 2), 3.0))
        assert relu(t) == t


class TestMaxpool2:
    def test_2x2_window(self):
        out = maxpool2(Tensor3(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0

    def test_constant(self):
        out = maxpool2(Tensor3(np.full((2, 4, 6), 7.0)))
        assert out.shape == (2, 2, 3)
        assert np.all(out.data == 7.0)

    def test_odd_dims_rejected(self):
        with pytest.raises(BadGeometry):
            maxpool2(Tensor3(np.zeros((1, 3, 4))))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (1, 4, 4))
        out = maxpool2(Tensor3(x))
        for i in range(2):
            for j in range(2):
                assert out.data[0, i, j] == x[0, 2 * i:2 * i + 2,
                                              2 * j:2 * j + 2].max()


    @pytest.mark.parametrize("seed", range(5))
    def test_argmax_mask_marks_first_maximum(self, seed):
        # small integer range forces ties inside windows
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, (2, 3, 4, 6)).astype(np.float64)
        pooled, mask = maxpool2_argmax(a)
        assert mask.shape == a.shape
        for idx in np.ndindex(pooled.shape):
            *lead, i, j = idx
            win = a[(*lead, slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2))]
            want = np.zeros(4, dtype=bool)
            want[win.argmax()] = True
            got = mask[(*lead, slice(2 * i, 2 * i + 2),
                        slice(2 * j, 2 * j + 2))]
            assert pooled[idx] == win.max()
            assert np.array_equal(got.ravel(), want)


class TestDense:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(dense(x, np.eye(3), np.zeros(3)), x)

    def test_zero_matrix_gives_bias(self):
        b = np.array([5.0, -1.0])
        assert np.array_equal(dense(np.ones(3), np.zeros((2, 3)), b), b)

    def test_matches_naive_matvec(self):
        rng = np.random.default_rng(0)
        W = rng.uniform(-1, 1, (4, 6))
        x = rng.uniform(-1, 1, 6)
        b = rng.uniform(-1, 1, 4)
        want = np.array([sum(W[i, j] * x[j] for j in range(6)) + b[i]
                         for i in range(4)])
        assert np.allclose(dense(x, W, b), want, rtol=1e-12)

    def test_batch_rows_match_vectors(self):
        rng = np.random.default_rng(1)
        W, b = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, 4)
        xs = rng.uniform(-1, 1, (5, 6))
        want = np.stack([dense(x, W, b) for x in xs])
        assert np.allclose(dense(xs, W, b), want, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            dense(np.zeros((5, 3)), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ShapeMismatch):
            dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ShapeMismatch):
            dense(np.zeros(4), np.zeros((2, 4)), np.zeros(3))
