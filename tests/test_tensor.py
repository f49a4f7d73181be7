import io
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advweave.accel import layout_rows, stream_rows
from advweave.adversary import (PerturbBudget, craft_uap, fgsm, init_model,
                                make_corpus, random_noise)
from advweave.conv import FilterBank, conv2d
from advweave.errors import FormatError, OutOfRange, ShapeMismatch
from advweave.tensor import (BitStats, QuantSpec, Tensor3, bit_stats,
                             linf_norm, quantize, read_t3b, read_t3b_stream,
                             write_t3b, write_t3b_stream)
from advweave.weave import attacked_conv, interleave_rows


def t3(arr):
    return Tensor3(np.asarray(arr))


class TestTensor3:
    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeMismatch):
            Tensor3(np.zeros((2, 2)))

    def test_rejects_empty_dim(self):
        with pytest.raises(ShapeMismatch):
            Tensor3(np.zeros((1, 0, 3)))

    def test_channel_major_row_contiguous(self):
        t = t3(np.arange(24).reshape(2, 3, 4))
        # a single row (c, y, :) must be a contiguous slice of the flat data
        flat = t.data.ravel()
        assert np.array_equal(flat[1 * 12 + 2 * 4:1 * 12 + 3 * 4], t.data[1, 2])

    def test_add_checks_shape(self):
        with pytest.raises(ShapeMismatch):
            t3(np.zeros((1, 2, 2))) + t3(np.zeros((1, 2, 3)))

    def test_does_not_freeze_caller_array(self):
        a = np.zeros((1, 2, 2))
        t = Tensor3(a)
        a[0, 0, 0] = 1.0  # must not raise
        assert t.data[0, 0, 0] == 0.0  # and the tensor does not see it

    def test_data_is_read_only(self):
        t = Tensor3(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_non_contiguous_input_becomes_c_contiguous_copy(self):
        a = np.arange(24.0).reshape(4, 3, 2).T  # (2, 3, 4), Fortran order
        t = Tensor3(a)
        assert t.data.flags.c_contiguous
        assert np.array_equal(t.data, a)
        assert not np.shares_memory(t.data, a)

    @pytest.mark.parametrize("op", ["add", "conv2d", "attacked_conv",
                                    "interleave_rows", "stream_rows",
                                    "quantize", "read_t3b_stream",
                                    "random_noise", "fgsm", "craft_uap",
                                    "make_corpus"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_package_results_are_frozen_and_unshared(self, op, dtype):
        # these results wrap a fresh array without copying it again
        rng = np.random.default_rng(3)
        image = rng.integers(-9, 10, (2, 6, 5)).astype(dtype)
        noise = rng.integers(-9, 10, (2, 6, 5)).astype(dtype)
        w = rng.integers(-5, 6, (3, 2, 2, 2)).astype(dtype)
        b = rng.integers(-5, 6, 3).astype(dtype)
        f = FilterBank(w, b)
        a, n = Tensor3(image), Tensor3(noise)
        # the model takes (2, 6, 4) inputs: 3x3 conv output dims must be even
        x = Tensor3(image[..., :4])
        model = init_model(0, input_shape=x.shape)
        budget = PerturbBudget(epsilon=0.05)
        t3b = io.BytesIO()
        write_t3b_stream(a, t3b)
        t3b.seek(0)
        out = {"add": lambda: a + n,
               "conv2d": lambda: conv2d(a, f),
               "attacked_conv": lambda: attacked_conv(a, n, f),
               "interleave_rows": lambda: interleave_rows(a, n),
               "stream_rows": lambda: stream_rows(layout_rows(a, n), a, n),
               "quantize": lambda: quantize(a, QuantSpec(4, True, 1.0)),
               "read_t3b_stream": lambda: read_t3b_stream(t3b),
               "random_noise": lambda: random_noise(a.shape, budget, "low", 0),
               "fgsm": lambda: fgsm(model, x, 0, budget),
               "craft_uap": lambda: craft_uap(model, x.data[None], budget),
               # the corpus images are one plain (N, C, H, W) array
               "make_corpus": lambda: SimpleNamespace(
                   data=make_corpus(1, 0, a.shape)[0])}[op]()
        assert out.data.flags.c_contiguous
        with pytest.raises(ValueError):
            out.data[0, 0, 0] = 1
        for caller in (image, noise, w, b, a.data, n.data, f.weights, f.bias,
                       x.data):
            assert not np.shares_memory(out.data, caller)

    def test_adopt_freezes_without_copying(self):
        a = np.zeros((1, 2, 2))
        t = Tensor3._adopt(a)
        assert t.data is a and not a.flags.writeable

    @pytest.mark.parametrize("dtype", [bool, complex, object])
    def test_rejects_non_numeric_dtypes(self, dtype):
        with pytest.raises(TypeError):
            Tensor3(np.zeros((1, 2, 2), dtype=dtype))

    @pytest.mark.parametrize("dtype, integer", [(np.uint8, True),
                                                (np.float32, False)])
    def test_accepts_narrow_dtypes(self, dtype, integer):
        t = Tensor3(np.ones((1, 2, 2), dtype=dtype))
        assert t.data.dtype == dtype
        assert t.is_integer() is integer


class TestQuantize:
    def test_zero_tensor(self):
        q = QuantSpec(magnitude_bits=4, signed=True, scale=0.5)
        out = quantize(t3(np.zeros((2, 3, 3))), q)
        assert out.is_integer()
        assert np.all(out.data == 0)

    def test_range_boundary_12_75(self):
        t = t3(np.full((1, 1, 1), 12.75))
        # 12.75 rounds to 13: needs 4 magnitude bits (<= 15), rejected at 3 (<= 7)
        with pytest.raises(OutOfRange):
            quantize(t, QuantSpec(magnitude_bits=3, signed=True, scale=1.0))
        out = quantize(t, QuantSpec(magnitude_bits=4, signed=True, scale=1.0))
        assert out.data[0, 0, 0] == 13

    def test_exhaustive_range_scan(self):
        # every integer level in [-15, 15] must round-trip through a signed
        # 4-bit spec; 16 must be rejected
        q = QuantSpec(magnitude_bits=4, signed=True, scale=1.0)
        for level in range(-15, 16):
            out = quantize(t3(np.full((1, 1, 1), float(level))), q)
            assert out.data[0, 0, 0] == level
        with pytest.raises(OutOfRange):
            quantize(t3(np.full((1, 1, 1), 16.0)), q)

    def test_nearest_rounding_negative(self):
        q = QuantSpec(magnitude_bits=4, signed=True, scale=1.0)
        assert quantize(t3([[[-3.4]]]), q).data[0, 0, 0] == -3

    def test_ties_away_from_zero(self):
        q = QuantSpec(magnitude_bits=4, signed=True, scale=1.0)
        out = quantize(t3([[[2.5, -2.5]]]), q)
        assert list(out.data[0, 0]) == [3, -3]

    def test_unsigned_rejects_negative(self):
        q = QuantSpec(magnitude_bits=4, signed=False, scale=1.0)
        with pytest.raises(OutOfRange):
            quantize(t3([[[-1.0]]]), q)

    @given(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=30),
           st.floats(0.01, 2.0))
    def test_roundtrip_error_bounded(self, values, scale):
        q = QuantSpec(magnitude_bits=10, signed=True, scale=scale)
        t = t3(np.asarray(values).reshape(1, 1, -1))
        back = quantize(t, q).data * scale
        assert np.all(np.abs(back - t.data) <= scale / 2 + 1e-12)


class TestLinfNorm:
    def test_zero(self):
        assert linf_norm(t3(np.zeros((1, 2, 2)))) == 0.0

    def test_mixed_signs(self):
        assert linf_norm(t3([[[-7.0, 3.0]]])) == 7.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_matches_brute_force_scan(self, values):
        t = t3(np.asarray(values).reshape(1, 1, -1))
        brute = max(abs(v) for v in values)
        assert linf_norm(t) == brute

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4),
           st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    def test_triangle_inequality(self, a, b):
        ta = t3(np.asarray(a).reshape(1, 2, 2))
        tb = t3(np.asarray(b).reshape(1, 2, 2))
        assert linf_norm(ta + tb) <= linf_norm(ta) + linf_norm(tb) + 1e-9


def popcount_oracle(values):
    return sum(bin(abs(int(v))).count("1") for v in values)


class TestBitStats:
    def test_all_zero(self):
        s = bit_stats(t3(np.zeros((2, 2, 2), dtype=np.int64)))
        assert s == BitStats(8, 0, 0, 0)

    def test_single_element_12(self):
        s = bit_stats(t3(np.array([[[12]]], dtype=np.int64)))
        # 12 = 0b1100: 4 magnitude bits, 2 set bits
        assert s == BitStats(1, 1, 4, 2)

    def test_one_two_three(self):
        s = bit_stats(t3(np.array([[[1, 2, 3]]], dtype=np.int64)))
        assert s == BitStats(3, 3, 2, 4)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            bit_stats(t3(np.zeros((1, 1, 1))))

    def test_int64_min_has_64_magnitude_bits(self):
        s = bit_stats(t3(np.array([[[np.iinfo(np.int64).min, 3]]])))
        assert s == BitStats(2, 2, 64, 3)

    @given(st.lists(st.integers(-255, 255), min_size=1, max_size=40))
    def test_matches_popcount_oracle(self, values):
        t = t3(np.asarray(values, dtype=np.int64).reshape(1, 1, -1))
        s = bit_stats(t)
        assert s.total_nonzero_bits == popcount_oracle(values)
        assert s.nonzero_elements == sum(1 for v in values if v != 0)
        assert s.max_magnitude_bits == max(abs(v) for v in values).bit_length()

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=20),
           st.lists(st.integers(0, 255), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_bits_monotone_under_bitwise_growth(self, values, extra):
        # raw magnitude growth can lose set bits (3 -> 4 drops from 2 to 1),
        # so monotonicity is checked for bit-superset growth: OR-ing in more
        # bits never decreases the total count
        base = np.asarray(values, dtype=np.int64)
        grown = base.copy()
        for i, e in enumerate(extra[:len(base)]):
            grown[i] = base[i] | (e << 8) | e
        s0 = bit_stats(t3(base.reshape(1, 1, -1)))
        s1 = bit_stats(t3(grown.reshape(1, 1, -1)))
        assert s1.total_nonzero_bits >= s0.total_nonzero_bits


class TestT3B:
    def test_roundtrip_float(self, tmp_path):
        t = t3(np.random.default_rng(0).uniform(-1, 1, (3, 4, 5)))
        p = tmp_path / "x.t3b"
        write_t3b(t, p)
        assert read_t3b(p) == t

    def test_roundtrip_int(self, tmp_path):
        t = t3(np.random.default_rng(1).integers(-1000, 1000, (2, 3, 3)))
        p = tmp_path / "x.t3b"
        write_t3b(t, p)
        back = read_t3b(p)
        assert back.is_integer()
        assert back == t

    def test_header_layout(self, tmp_path):
        p = tmp_path / "x.t3b"
        write_t3b(t3(np.zeros((1, 2, 3), dtype=np.int64)), p)
        blob = p.read_bytes()
        assert blob[:4] == b"T3B1"
        assert blob[4:16] == (1).to_bytes(4, "little") + \
            (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert blob[16] == 1  # i32 tag
        assert len(blob) == 17 + 6 * 4

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.t3b"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            read_t3b(p)

    @pytest.mark.parametrize("blob", [b"T3B1", b"T3B1\x01\x00",
                                      b"T3B1" + bytes(12)])
    def test_truncated_header_is_value_error(self, blob):
        with pytest.raises(FormatError, match="truncated T3B header"):
            read_t3b_stream(io.BytesIO(blob))

    @pytest.mark.parametrize("dims, tag", [((0, 2, 3), 0), ((2, 0, 3), 1),
                                           ((2, 2, 0), 0), ((1, 1, 1), 2)])
    def test_bad_header_is_format_error(self, dims, tag):
        # a zero dim frames no tensor; it must not pass as a shape error
        blob = b"T3B1" + struct.pack("<IIIB", *dims, tag) + bytes(8)
        with pytest.raises(FormatError, match="bad T3B header"):
            read_t3b_stream(io.BytesIO(blob))

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "x.t3b"
        write_t3b(t3(np.zeros((1, 2, 3))), p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_t3b(p)

    def test_stream_names_no_file_and_read_t3b_names_it_once(self, tmp_path):
        p = tmp_path / "x.t3b"
        write_t3b(t3(np.zeros((1, 2, 3))), p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError) as e:
            read_t3b(p)
        assert str(e.value) == f"{p}: trailing bytes after tensor payload"
        p.write_bytes(b"NOPE")
        with open(p, "rb") as f, pytest.raises(FormatError) as e:
            read_t3b_stream(f)
        assert str(e.value) == "bad T3B magic b'NOPE'"
        with pytest.raises(FormatError) as e:
            read_t3b(p)
        assert str(e.value) == f"{p}: bad T3B magic b'NOPE'"

    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(lambda dims, tag, payload:
                  struct.pack("<IIIB", *dims, tag) + payload,
                  st.tuples(*[st.integers(0, 3)] * 3), st.integers(0, 2),
                  st.binary(max_size=300))))
    @settings(max_examples=200, deadline=None)
    def test_any_stream_parses_or_raises_format_error(self, rest):
        try:
            t = read_t3b_stream(io.BytesIO(b"T3B1" + rest))
        except FormatError:
            return
        assert isinstance(t, Tensor3)

    @pytest.mark.parametrize("dims", [(2 ** 32 - 1,) * 3,
                                      (65535, 65535, 1000)])
    def test_oversized_claim_rejected_before_reading(self, tmp_path, dims):
        # a 25-byte file whose header claims more f64 payload than it holds
        p = tmp_path / "big.t3b"
        p.write_bytes(b"T3B1" + struct.pack("<IIIB", *dims, 0) + bytes(8))
        with pytest.raises(FormatError, match="truncated T3B payload"):
            read_t3b(p)
