import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advweave import conv
from advweave.adversary import _first_max, _pool, init_model
from advweave.conv import (BLAS_MIN_MACS, COLUMN_BYTES, ConvGeometry,
                           FilterBank, conv2d_nchw)
from advweave.errors import BadGeometry, OutOfRange, ShapeMismatch
from advweave.weave import attacked_conv_nchw, equivalence_report


def conv2d(x, f, geom=ConvGeometry()):
    """conv2d_nchw on one (C, H, W) image."""
    return conv2d_nchw(x[None], f, geom)[0]


def pool_windows(z):
    """adversary._pool and _first_max of a window-major (..., 4) array, laid
    out pool-major as (1, 4, M): the pooled array z.shape[:-1] and the
    first-maximum mask of z's shape."""
    q = np.moveaxis(z, -1, 0).reshape(1, 4, -1)  # value i in slab i
    pooled = _pool(q)
    mask = _first_max(q, pooled).reshape(4, *z.shape[:-1])
    return pooled.reshape(z.shape[:-1]), np.moveaxis(mask, 0, -1)


def pool2(a):
    """2x2 max pooling of the last two axes of `a` by pool_windows: the
    pooled array and the first-maximum mask, in `a`'s layout."""
    *lead, h, w = a.shape
    # (..., y, dy, x, dx) -> (..., y, x, dy, dx): each window's four values
    # side by side
    z = a.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2)
    pooled, mask = pool_windows(z.reshape(*lead, h // 2, w // 2, 4))
    return pooled, mask.reshape(z.shape).swapaxes(-3, -2).reshape(a.shape)


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


@st.composite
def integer_layers(draw):
    """Integer layers around BLAS_MIN_MACS whose max|x| * max_o
    sum|W[o]| lies near 2**24 or 2**53, far from int64 overflow."""
    n, c, o = (draw(st.integers(1, hi)) for hi in (2, 3, 4))
    kh, kw, sv, sh = (draw(st.integers(1, hi)) for hi in (4, 4, 2, 2))
    ph, pw = draw(st.integers(0, (kh - 1) // 2)), \
        draw(st.integers(0, (kw - 1) // 2))
    macs = draw(st.sampled_from([BLAS_MIN_MACS // 2, BLAS_MIN_MACS - 1,
                                 BLAS_MIN_MACS]))
    ow = draw(st.integers(1, 24))
    oh = max(1, -(-macs // (n * c * o * kh * kw * ow)))
    gate = draw(st.sampled_from([2 ** 24, 2 ** 53]))
    target = gate + draw(st.integers(-2, 1))
    xmax = draw(st.integers(1, 2 ** 20))
    wsum = max(1, target // xmax)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.integers(-xmax, xmax + 1,
                     (n, c, (oh - 1) * sv + kh - 2 * ph,
                      (ow - 1) * sh + kw - 2 * pw))
    x.flat[rng.integers(x.size)] = draw(st.sampled_from([xmax, -xmax]))
    k = c * kh * kw
    w = rng.integers(-(wsum // k), wsum // k + 1, (o, c, kh, kw))
    rest = np.abs(w[0]).sum() - abs(w[0].flat[0])
    w[0].flat[0] = (wsum - rest) * (1 if rng.random() < 0.5 else -1)
    return x, w, rng.integers(-9, 10, o), ConvGeometry(sv, sh, ph, pw)


class TestConv2d:
    def test_identity_filter(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        f = FilterBank(np.ones((1, 1, 1, 1)), np.zeros(1))
        assert np.array_equal(conv2d(x, f), x)

    def test_ones_3x3_with_2x2_kernel(self):
        x = np.ones((1, 3, 3))
        f = FilterBank(np.ones((1, 1, 2, 2)), np.zeros(1))
        out = conv2d(x, f)
        assert out.shape == (1, 2, 2)
        assert np.all(out == 4)

    def test_zero_filter_gives_bias(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (2, 5, 5))
        f = FilterBank(np.zeros((3, 2, 2, 2)), np.array([1.5, -2.0, 0.25]))
        out = conv2d(x, f)
        for o, b in enumerate(f.bias):
            assert np.all(out[o] == b)

    def test_channel_mismatch(self):
        x = np.zeros((2, 4, 4))
        f = FilterBank(np.zeros((1, 3, 2, 2)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            conv2d(x, f)

    def test_bad_geometry(self):
        x = np.zeros((1, 2, 2))
        f = FilterBank(np.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(BadGeometry):
            conv2d(x, f)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_oracle_int(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = rand_instance(rng)
        sv, sh = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        got = conv2d(x, FilterBank(w, b), ConvGeometry(sv, sh))
        want = naive_conv2d(x, w, b, sv, sh)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle_float_padded(self, seed):
        rng = np.random.default_rng(seed + 100)
        x, w, b = rand_instance(rng, float_mode=True)
        ph, pw = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        got = conv2d(x, FilterBank(w, b), ConvGeometry(1, 1, ph, pw))
        want = naive_conv2d(x, w, b, 1, 1, ph, pw)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_additive_property_exact_int(self, seed):
        # the identity the whole attack rests on
        rng = np.random.default_rng(seed + 200)
        a, w, b = rand_instance(rng)
        bb = rng.integers(-9, 10, a.shape)
        f = FilterBank(w, np.zeros_like(b))
        lhs = conv2d(a + bb, f)
        rhs = conv2d(a, f) + conv2d(bb, f)
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("seed", range(10))
    def test_additive_property_float(self, seed):
        rng = np.random.default_rng(seed + 300)
        a, w, b = rand_instance(rng, float_mode=True)
        bb = rng.uniform(-2, 2, a.shape)
        f = FilterBank(w, b)
        f0 = FilterBank(w, np.zeros_like(b))
        lhs = conv2d(a + bb, f0)
        rhs = conv2d(a, f0) + conv2d(bb, f0)
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(10))
    def test_linearity_in_filters(self, seed):
        rng = np.random.default_rng(seed + 400)
        x, w1, _ = rand_instance(rng)
        w2 = rng.integers(-5, 6, w1.shape)
        zero = np.zeros(w1.shape[0], dtype=np.int64)
        lhs = conv2d(x, FilterBank(w1 + w2, zero))
        rhs = conv2d(x, FilterBank(w1, zero)) + conv2d(x, FilterBank(w2, zero))
        assert np.array_equal(lhs, rhs)

    @given(st.integers(2, 20), st.integers(2, 20), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=100)
    def test_output_shape_formula(self, h, w, kh, kw, sv, sh, ph, pw):
        geom = ConvGeometry(sv, sh, ph, pw)
        oh = (h + 2 * ph - kh) // sv + 1
        ow = (w + 2 * pw - kw) // sh + 1
        x = np.zeros((1, h, w))
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

    @pytest.mark.parametrize("dtype, geom", [
        (np.float64, ConvGeometry()), (np.int64, ConvGeometry(2, 1, 1, 2))])
    def test_empty_batch(self, dtype, geom):
        # a batch of no samples has no column bytes: one block, no division
        f = FilterBank(np.ones((2, 1, 3, 3), dtype=dtype), np.ones(2, dtype))
        got = conv2d_nchw(np.empty((0, 1, 8, 8), dtype=dtype), f, geom)
        assert got.shape == (0, 2, *geom.out_shape(8, 8, 3, 3))
        assert got.dtype == (np.int64 if dtype == np.int64 else np.float64)

    def test_no_filters(self):
        f = FilterBank(np.ones((0, 1, 3, 3)), np.ones(0))
        assert conv2d_nchw(np.ones((2, 1, 8, 8)), f).shape == (2, 0, 6, 6)


class TestIntegerBlasRoute:
    """Integer convolutions of at least BLAS_MIN_MACS MACs run on float32
    BLAS when max|x| * max_o sum|W[o]| < 2**24, on float64 BLAS when it is
    below 2**53, else in int64; every route gives the exact int64 result."""

    @staticmethod
    def _operands(xmax, wsum):
        """Integer operands with max|x| == xmax and max_o sum|W[o]| == wsum."""
        x = np.zeros((1, 2, 3, 3), dtype=np.int64)
        x[0, 1, 2, 0] = -xmax
        x[0, 0, 0, 0] = xmax - 1
        w = np.zeros((2, 2, 2, 2), dtype=np.int64)
        w[0].flat[:2] = -(wsum // 2), wsum - wsum // 2
        w[1].flat[3] = wsum - 1
        return x, w

    @pytest.mark.parametrize("xmax, wsum, want", [
        (4095, 4097, np.float32),              # 2**24 - 1
        (2 ** 12, 2 ** 12, np.float64),        # 2**24
        (441650591, 20394401, np.float64),     # 2**53 - 1
        (2 ** 26, 2 ** 27, None),              # 2**53
    ], ids=["2**24-1", "2**24", "2**53-1", "2**53"])
    def test_narrowest_exact_dtype_at_the_gates(self, xmax, wsum, want):
        x, w = self._operands(xmax, wsum)
        assert conv._exact_float_dtype(x, w) is want

    @pytest.mark.parametrize("bound, want", [
        (2 ** 24 - 1, np.float32), (2 ** 24, np.float64),
        (2 ** 53 - 1, np.float64), (2 ** 53, None),
    ], ids=["2**24-1", "2**24", "2**53-1", "2**53"])
    def test_exact_float_gates(self, bound, want):
        assert conv._exact_float(bound) is want

    @staticmethod
    def _check(xs, w, b, geom):
        n, c, h, wd = xs.shape
        oh, ow = geom.out_shape(h, wd, w.shape[2], w.shape[3])
        assert n * oh * ow * w.size >= BLAS_MIN_MACS  # above the gate
        got = conv2d_nchw(xs, FilterBank(w, b), geom)
        want = np.stack([naive_conv2d(s.astype(np.int64), w.astype(np.int64),
                                      b, geom.stride_v, geom.stride_h,
                                      geom.pad_h, geom.pad_w) for s in xs])
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype, bound, hw, geom", [
        (np.int8, 2 ** 7, (44, 40), ConvGeometry(1, 1, 2, 1)),
        (np.uint8, 2 ** 8, (60, 40), ConvGeometry(2, 1, 0, 0)),
        # max|x| * max sum|W| < 2**37 * 32 * 127 < 2**49: exact in float64
        (np.int64, 2 ** 37, (48, 48), ConvGeometry(2, 2, 1, 3)),
    ])
    def test_above_gate_matches_naive_oracle(self, dtype, bound, hw, geom):
        rng = np.random.default_rng(bound)
        lo = 0 if dtype == np.uint8 else 1 - bound
        xs = rng.integers(lo, bound, (2, 2, *hw)).astype(dtype)
        w = rng.integers(-127, 128, (4, 2, 4, 4))
        w = w.astype(np.int8) if dtype != np.int64 else w
        self._check(xs, w, rng.integers(-9, 10, 4), geom)

    def test_above_gate_beyond_float64_stays_exact(self):
        # |x| ~ 2**40 and |W| ~ 2**14: products need 54 bits, which float64
        # would round, so only the int64 route gives the exact result
        rng = np.random.default_rng(1)
        xs = rng.integers(-2 ** 40, 2 ** 40, (1, 2, 50, 50))
        w = rng.integers(-2 ** 14, 2 ** 14, (4, 2, 4, 4))
        self._check(xs, w, rng.integers(-9, 10, 4), ConvGeometry(1, 1, 1, 0))

    def test_partial_sums_beyond_float32_stay_exact(self, monkeypatch):
        # 27 odd products per output sum to odd values above 2**24, whose
        # low bit float32 cannot hold: only the float64 route is exact
        rng = np.random.default_rng(24)
        xs = rng.integers(2 ** 12, 2 ** 13, (1, 3, 42, 42)) | 1
        w = rng.integers(2 ** 7, 2 ** 8, (4, 3, 3, 3)) | 1
        b = rng.integers(-9, 10, 4)
        want = naive_conv2d(xs[0], w, b)
        assert np.abs(want - b[:, None, None]).min() >= 2 ** 24
        assert conv._exact_float_dtype(xs, w) is np.float64
        self._check(xs, w, b, ConvGeometry())
        monkeypatch.setattr(conv, "_exact_float_dtype",
                            lambda x, weights: np.float32)
        assert not np.array_equal(conv2d_nchw(xs, FilterBank(w, b))[0], want)

    def test_footprint_layer_takes_float32(self, monkeypatch):
        # an ImageNet-shaped first layer: 8-bit pixels by int8-range filters
        # at stride 2, with one filter at the worst case 3*7*7*127, and its
        # attacked form with 4-bit noise, duplicated rows and stride 4
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 256, (1, 3, 224, 224))
        xs[0, 0, 0, 0] = 255
        w = rng.integers(-127, 128, (64, 3, 7, 7))
        w[0] = 127
        f = FilterBank(w, rng.integers(-9, 10, 64))
        noise = rng.integers(-12, 13, (3, 224, 224))
        routes = []  # every dtype conv2d_nchw's exactness check returns
        choose = conv._exact_float_dtype
        monkeypatch.setattr(conv, "_exact_float_dtype", lambda x, weights:
                            routes.append(choose(x, weights)) or routes[-1])
        got = conv2d_nchw(xs, f, ConvGeometry(2, 2))
        attacked_conv_nchw(xs, noise, f, ConvGeometry(2, 2))
        assert routes == [np.float32, np.float32]
        monkeypatch.setattr(conv, "BLAS_MIN_MACS", 1 << 62)  # int64 route
        assert np.array_equal(got, conv2d_nchw(xs, f, ConvGeometry(2, 2)))
        assert routes == [np.float32, np.float32]

    @given(integer_layers())
    @settings(max_examples=25, deadline=None)
    def test_every_route_matches_naive_oracle(self, layer):
        xs, w, b, geom = layer
        bound = int(np.abs(xs).max()) \
            * int(np.abs(w).sum(axis=(1, 2, 3)).max())
        assert bound < 2 ** 62  # int64 cannot overflow
        want_route = np.float32 if bound < 2 ** 24 else \
            np.float64 if bound < 2 ** 53 else None
        assert conv._exact_float_dtype(xs, w) is want_route
        got = conv2d_nchw(xs, FilterBank(w, b), geom)
        want = np.stack([naive_conv2d(s, w, b, geom.stride_v, geom.stride_h,
                                      geom.pad_h, geom.pad_w) for s in xs])
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestOperandGate:
    """_conv_blocks, where the route is chosen, rejects an operand of a dtype
    kind other than float or integer with _check_image's TypeError, and a
    uint64 operand that int64 cannot hold with OutOfRange, on the direct and
    the attacked path alike."""

    @staticmethod
    def _both_paths(x, f):
        """conv2d_nchw of an (N, C, H, W) x, and attacked_conv_nchw of x with
        zero noise of its dtype: one call each."""
        noise = np.zeros(x.shape[1:], dtype=x.dtype)
        return (lambda: conv2d_nchw(x, f),
                lambda: attacked_conv_nchw(x, noise, f))

    @pytest.mark.parametrize("value, x_dtype, w_dtype", [
        (2 + 3j, np.complex128, np.float64),
        (True, np.bool_, np.int64),
        (2, object, np.int64),
        (2, np.float64, np.complex128),
        (2, np.int64, np.bool_),
    ], ids=["complex image", "bool image", "object image", "complex weights",
            "bool weights"])
    def test_non_numeric_operand_rejected(self, value, x_dtype, w_dtype):
        # without the check these ran in float64: 2+3j by a filter of 1
        # gave 2.0, with only a ComplexWarning
        x = np.full((1, 1, 2, 2), value, dtype=x_dtype)
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=w_dtype), np.zeros(1))
        bad = x if x.dtype.kind not in "fiu" else f.weights
        with pytest.raises(TypeError) as image_check:
            conv._check_image(bad[0])
        for run in self._both_paths(x, f):
            with pytest.raises(TypeError) as kernel:
                run()
            assert str(kernel.value) == str(image_check.value) \
                == f"unsupported dtype {bad.dtype}"

    @pytest.mark.parametrize("operand", ["image", "weights"])
    def test_uint64_beyond_int64_out_of_range(self, operand):
        # without the check, uint64 2**63 + 5 by a 1x1 filter of 1 wrapped
        # to -9223372036854775803
        big = np.full((1, 1, 1, 1), 2 ** 63 + 5, dtype=np.uint64)
        one = np.ones((1, 1, 1, 1), dtype=np.uint64)
        x, w = (big, one) if operand == "image" else (one, big)
        for run in self._both_paths(x, FilterBank(w, np.zeros(1, np.uint64))):
            with pytest.raises(OutOfRange, match="^uint64 value "
                               "9223372036854775813 is beyond int64$"):
                run()

    @pytest.mark.parametrize("x_dtype", [np.uint64, np.int64])
    def test_uint64_bias_beyond_int64_out_of_range(self, x_dtype):
        # without the check, 1 by a 1x1 uint64 filter of 1 plus a uint64
        # bias of 2**63 + 5 wrapped to -9223372036854775802 on both paths,
        # and the oracle with a woven noise raised by 1 reported
        # exact=False, max_abs_diff=0.0
        x = np.ones((1, 1, 1, 1), dtype=x_dtype)
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=np.uint64),
                       np.full(1, 2 ** 63 + 5, dtype=np.uint64))
        noise = np.zeros(x.shape[1:], dtype=x_dtype)
        for run in (*self._both_paths(x, f), lambda: equivalence_report(
                x[0], noise, f, woven_noise=noise + 1)):
            with pytest.raises(OutOfRange, match="^uint64 value "
                               "9223372036854775813 is beyond int64$"):
                run()

    def test_uint64_bias_on_a_float_result_is_not_scanned(self):
        # a float64 result holds 2**63 + 5 as nearly as any float operand
        x = np.ones((1, 1, 1, 1))
        f = FilterBank(np.ones((1, 1, 1, 1)),
                       np.full(1, 2 ** 63 + 5, dtype=np.uint64))
        for run in self._both_paths(x, f):
            assert run()[0, 0, 0, 0] == 2.0 ** 63  # 1 + 2**63 + 5, rounded

    def test_uint64_within_int64_stays_exact(self):
        x = np.full((1, 1, 1, 1), 2 ** 63 - 1, dtype=np.uint64)
        f = FilterBank(np.ones((1, 1, 1, 1), dtype=np.uint64),
                       np.zeros(1, np.uint64))
        for run in self._both_paths(x, f):
            got = run()
            assert got.dtype == np.int64 and got[0, 0, 0, 0] == 2 ** 63 - 1
        # an empty uint64 batch has no value to scan
        assert conv2d_nchw(x[:0], f).shape == (0, 1, 1, 1)


class TestColumnBlocks:
    """conv2d_nchw multiplies blocks of output rows whose column matrix fits
    in COLUMN_BYTES; every block height gives the oracle's result."""

    # the dtype each route computes in
    ROUTES = {"int64": np.int64, "blas32": np.float32, "blas64": np.float64,
              "float": np.float64}

    @staticmethod
    def _instance(route):
        rng = np.random.default_rng(7)
        if route == "int64":  # an integer layer below the BLAS gate
            xs = rng.integers(-9, 10, (2, 2, 15, 9))
            w = rng.integers(-5, 6, (3, 2, 3, 2))
            return xs, w, rng.integers(-5, 6, 3), ConvGeometry(1, 1, 0, 0)
        if route == "blas32":  # integer layers above it
            xs = rng.integers(-128, 128, (2, 2, 44, 40)).astype(np.int8)
            w = rng.integers(-127, 128, (4, 2, 4, 4)).astype(np.int8)
            return xs, w, rng.integers(-9, 10, 4), ConvGeometry(1, 1, 2, 1)
        if route == "blas64":
            xs = rng.integers(-2 ** 20, 2 ** 20, (2, 2, 44, 40))
            w = rng.integers(-127, 128, (4, 2, 4, 4)).astype(np.int8)
            return xs, w, rng.integers(-9, 10, 4), ConvGeometry(1, 1, 2, 1)
        xs = rng.uniform(-2, 2, (2, 3, 13, 11))
        w = rng.uniform(-2, 2, (3, 3, 3, 2))
        return xs, w, rng.uniform(-1, 1, 3), ConvGeometry(2, 1, 1, 1)

    @pytest.mark.parametrize("budget", ["one row", "partial", "default"])
    @pytest.mark.parametrize("route", ["int64", "blas32", "blas64", "float"])
    def test_every_block_height_matches_naive_oracle(self, monkeypatch,
                                                     route, budget):
        xs, w, b, geom = self._instance(route)
        n, c, h, wd = xs.shape
        o, _, kh, kw = w.shape
        oh, ow = geom.out_shape(h, wd, kh, kw)
        blas = route.startswith("blas")
        assert (o * c * kh * kw * n * oh * ow >= BLAS_MIN_MACS) == blas
        if blas:
            assert conv._exact_float_dtype(xs, w) is self.ROUTES[route]
        row_bytes = c * kh * kw * n * ow * 8  # 8 bytes a value on every route
        if budget == "one row":
            monkeypatch.setattr(conv, "COLUMN_BYTES", 1)
        elif budget == "partial":
            # the fewest rows > 1 that do not divide oh, so the last block
            # is shorter; the budget rounds down to a whole row
            rows = next(r for r in range(2, oh) if oh % r)
            monkeypatch.setattr(conv, "COLUMN_BYTES", (rows + 1) * row_bytes - 1)
        else:
            assert row_bytes * oh <= COLUMN_BYTES  # one block
        got = conv2d_nchw(xs, FilterBank(w, b), geom)
        wide = np.float64 if route == "float" else np.int64  # for the oracle
        want = np.stack([naive_conv2d(s.astype(wide), w.astype(wide), b,
                                      geom.stride_v, geom.stride_h,
                                      geom.pad_h, geom.pad_w) for s in xs])
        if route == "float":
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        else:
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_no_second_full_size_array(self):
        # the footprint layer's attacked conv on the float32 route: beyond
        # the result, only the float32 input and weights and one block's
        # columns and product may be live at once
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 256, (1, 3, 448, 224))
        f = FilterBank(rng.integers(-127, 128, (64, 3, 14, 7)),
                       rng.integers(-9, 10, 64))
        geom = ConvGeometry(4, 2)
        assert conv._exact_float_dtype(xs, f.weights) is np.float32
        oh, ow = geom.out_shape(448, 224, 14, 7)
        k = 3 * 14 * 7
        rows = COLUMN_BYTES // (k * ow * 8)  # values counted at 8 bytes
        tracemalloc.start()
        try:
            got = conv2d_nchw(xs, f, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowed = (got.nbytes + xs.size * 4 + 64 * k * 4
                   + k * rows * ow * 4 + 64 * rows * ow * 4)
        assert got.nbytes == 64 * oh * ow * 8
        assert peak <= allowed + (1 << 16)  # plus Python objects


class TestMaxpool2:
    def test_2x2_window(self):
        out, _ = pool2(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0

    def test_constant(self):
        out, _ = pool2(np.full((2, 4, 6), 7.0))
        assert out.shape == (2, 2, 3)
        assert np.all(out == 7.0)

    def test_odd_dims_rejected(self):
        # the model's first layer, the one pooled layer, must give even dims
        for shape in ((1, 5, 6), (1, 6, 5)):
            with pytest.raises(ShapeMismatch, match="even"):
                init_model(0, input_shape=shape)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (1, 4, 4))
        out, _ = pool2(x)
        for i in range(2):
            for j in range(2):
                assert out[0, i, j] == x[0, 2 * i:2 * i + 2,
                                              2 * j:2 * j + 2].max()


    @pytest.mark.parametrize("seed", range(5))
    def test_argmax_mask_marks_first_maximum(self, seed):
        # small integer range forces ties inside windows
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, (2, 3, 4, 6)).astype(np.float64)
        pooled, mask = pool2(a)
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

    def test_ties_nans_and_signed_zeros_bit_for_bit(self):
        # 3,000 arrays, laid out pool-major as the model's first layer is,
        # pooled by _pool and _first_max against the rule max(max(q00, q01),
        # max(q10, q11)) taken window by window
        rng = np.random.default_rng(0)
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.nan])
        for i in range(3000):
            shape = (*rng.integers(1, 3, rng.integers(0, 3)),
                     *(2 * rng.integers(1, 3, 2)))
            a = rng.uniform(-1, 1, shape) if i % 4 == 0 \
                else rng.choice(values, shape)
            z = np.stack([a[..., 0::2, 0::2], a[..., 0::2, 1::2],
                          a[..., 1::2, 0::2], a[..., 1::2, 1::2]], axis=-1)
            want = np.empty(z.shape[:-1])
            first = np.zeros(z.shape, dtype=bool)
            for idx in np.ndindex(want.shape):
                q = z[idx]
                want[idx] = np.maximum(np.maximum(q[0], q[1]),
                                       np.maximum(q[2], q[3]))
                hits = np.flatnonzero(q == want[idx])
                if hits.size:
                    first[(*idx, hits[0])] = True
            pooled, mask = pool_windows(z)
            assert pooled.tobytes() == want.tobytes()
            assert np.array_equal(mask, first)

    def test_tied_and_nan_windows_in_one_array(self):
        # the tied window's extra hit and the NaN window's missing one
        # leave as many hits as windows; the mask still marks first maxima
        a = np.array([[[2.0, 5.0, np.nan, 1.0, 0.0, 3.0],
                       [5.0, 1.0, 4.0, 1.0, 0.0, 1.0]]])
        pooled, mask = pool2(a)
        assert pooled[0, 0, 0] == 5.0 and np.isnan(pooled[0, 0, 1])
        assert pooled[0, 0, 2] == 3.0
        assert np.array_equal(mask, [[[False, True, False, False, False, True],
                                      [False, False, False, False, False,
                                       False]]])

