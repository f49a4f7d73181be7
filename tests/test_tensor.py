import inspect
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advweave.accel import (compare_attack_footprint, count_macs, layout_rows,
                            preset_config)
from advweave.adversary import (PerturbBudget, craft_uap, fgsm, init_model,
                                make_corpus, random_noise)
from advweave.cli import random_instance
from advweave.conv import ConvGeometry, FilterBank, conv2d_nchw
from advweave.errors import FormatError, OutOfRange, ShapeMismatch
from advweave.tensor import (BitStats, QuantSpec, Tensor3, bit_stats,
                             linf_norm, quantize, read_t3b, read_t3b_stream,
                             write_t3b, write_t3b_stream)
from advweave.weave import attacked_conv_nchw, equivalence_report, weave_rows


def t3(arr):
    return np.asarray(arr)


class TestTensor3:
    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeMismatch):
            Tensor3(np.zeros((2, 2)))

    def test_rejects_empty_dim(self):
        with pytest.raises(ShapeMismatch):
            Tensor3(np.zeros((1, 0, 3)))

    def test_channel_major_row_contiguous(self):
        t = Tensor3(np.arange(24).reshape(2, 3, 4))
        # a single row (c, y, :) must be a contiguous slice of the flat data
        flat = t.data.ravel()
        assert np.array_equal(flat[1 * 12 + 2 * 4:1 * 12 + 3 * 4], t.data[1, 2])

    def test_add_checks_shape(self):
        # the direct sum image + noise that equivalence_report convolves
        f = FilterBank(np.ones((1, 1, 1, 1)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            equivalence_report(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)), f)

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

    # each op is named by the operation it runs: conv2d, attacked_conv and
    # interleave_rows run as conv2d_nchw, attacked_conv_nchw and weave_rows
    @pytest.mark.parametrize("op", ["conv2d", "attacked_conv",
                                    "interleave_rows", "quantize",
                                    "read_t3b_stream", "random_noise", "fgsm",
                                    "craft_uap", "make_corpus"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_package_results_are_frozen_and_unshared(self, op, dtype):
        # every result is a fresh array; the T3B reader's and the corpus's
        # are read-only as well
        rng = np.random.default_rng(3)
        image = rng.integers(-9, 10, (2, 6, 5)).astype(dtype)
        noise = rng.integers(-9, 10, (2, 6, 5)).astype(dtype)
        w = rng.integers(-5, 6, (3, 2, 2, 2)).astype(dtype)
        b = rng.integers(-5, 6, 3).astype(dtype)
        f = FilterBank(w, b)
        # the model takes (2, 6, 4) inputs: 3x3 conv output dims must be even
        x = np.ascontiguousarray(image[..., :4])
        model = init_model(0, input_shape=x.shape)
        budget = PerturbBudget(epsilon=0.05)
        t3b = io.BytesIO()
        write_t3b_stream(image, t3b)
        t3b.seek(0)
        out = {"conv2d": lambda: conv2d_nchw(image[None], f)[0],
               "attacked_conv": lambda: attacked_conv_nchw(image[None], noise,
                                                           f)[0],
               "interleave_rows": lambda: weave_rows(image, noise),
               "quantize": lambda: quantize(image, QuantSpec(4, True, 1.0)),
               "read_t3b_stream": lambda: read_t3b_stream(t3b).data,
               "random_noise": lambda: random_noise(image.shape, budget,
                                                    "low", 0),
               "fgsm": lambda: fgsm(model, x, 0, budget),
               "craft_uap": lambda: craft_uap(model, x[None], budget),
               # the corpus images are one plain (N, C, H, W) array
               "make_corpus": lambda: make_corpus(1, 0, image.shape)[0]}[op]()
        assert isinstance(out, np.ndarray)
        assert out.flags.c_contiguous
        if op in ("read_t3b_stream", "make_corpus"):
            with pytest.raises(ValueError):
                out[0, 0, 0] = 1
        for caller in (image, noise, w, b, f.weights, f.bias, x):
            assert not np.shares_memory(out, caller)

    def test_adopt_freezes_without_copying(self):
        # the reader's Tensor3 adopts its fresh array, and np.asarray gives
        # that array back: the same frozen object, for any no-copy request
        a = np.zeros((1, 2, 2))
        t = Tensor3._adopt(a)
        assert t.data is a and not a.flags.writeable
        for got in (np.asarray(t), np.asarray(t, dtype=np.float64),
                    np.asarray(t, copy=False), np.array(t, copy=False)):
            assert got is a
        with pytest.raises(ValueError):
            np.asarray(t, dtype=np.float32, copy=False)
        copy = np.array(t)
        assert np.array_equal(copy, a) and not np.shares_memory(copy, a)
        assert copy.flags.writeable
        assert np.asarray(t, dtype=np.int64).dtype == np.int64

    @pytest.mark.parametrize("dtype", [bool, complex, object])
    def test_rejects_non_numeric_dtypes(self, dtype):
        with pytest.raises(TypeError):
            Tensor3(np.zeros((1, 2, 2), dtype=dtype))

    @pytest.mark.parametrize("bad, error", [
        (np.ones((1, 4, 4), dtype=bool), TypeError),
        (np.ones((1, 4, 4), dtype=complex), TypeError),
        (np.ones((1, 4, 4), dtype=object), TypeError),
        (np.ones((1, 0, 4), dtype=np.int64), ShapeMismatch),
        (np.ones((4, 4), dtype=np.int64), ShapeMismatch)],
        ids=["bool", "complex", "object", "empty_dim", "two_dims"])
    def test_image_functions_make_tensor3_checks(self, bad, error):
        # each (C, H, W) argument is checked as Tensor3 checks an array: a
        # bool image plus bool noise would be a logical or, which the woven
        # path does not compute
        good = np.ones((1, 4, 4), dtype=np.int64)
        f = FilterBank(np.ones((1, 1, 2, 2), dtype=np.int64),
                       np.zeros(1, dtype=np.int64))
        geom, cfg = ConvGeometry(), preset_config("tpu")
        for call in (lambda: equivalence_report(bad, good, f, geom),
                     lambda: equivalence_report(good, bad, f, geom),
                     lambda: equivalence_report(good, good, f, geom, bad),
                     lambda: compare_attack_footprint(bad, good, f, geom, cfg),
                     lambda: compare_attack_footprint(good, bad, f, geom, cfg),
                     lambda: count_macs(bad, f, geom, cfg),
                     lambda: layout_rows(bad),
                     lambda: layout_rows(good, bad)):
            with pytest.raises(error):
                call()

    @pytest.mark.parametrize("dtype, integer", [(np.uint8, True),
                                                (np.float32, False)])
    def test_accepts_narrow_dtypes(self, dtype, integer):
        t = Tensor3(np.ones((1, 2, 2), dtype=dtype))
        assert t.data.dtype == dtype
        assert (t.data.dtype.kind in "iu") is integer


class TestQuantize:
    def test_zero_tensor(self):
        q = QuantSpec(magnitude_bits=4, signed=True, scale=0.5)
        out = quantize(t3(np.zeros((2, 3, 3))), q)
        assert out.dtype == np.int64
        assert np.all(out == 0)

    def test_range_boundary_12_75(self):
        t = t3(np.full((1, 1, 1), 12.75))
        # 12.75 rounds to 13: needs 4 magnitude bits (<= 15), rejected at 3 (<= 7)
        with pytest.raises(OutOfRange):
            quantize(t, QuantSpec(magnitude_bits=3, signed=True, scale=1.0))
        out = quantize(t, QuantSpec(magnitude_bits=4, signed=True, scale=1.0))
        assert out[0, 0, 0] == 13

    def test_exhaustive_range_scan(self):
        # every integer level in [-15, 15] must round-trip through a signed
        # 4-bit spec; 16 must be rejected
        q = QuantSpec(magnitude_bits=4, signed=True, scale=1.0)
        for level in range(-15, 16):
            out = quantize(t3(np.full((1, 1, 1), float(level))), q)
            assert out[0, 0, 0] == level
        with pytest.raises(OutOfRange):
            quantize(t3(np.full((1, 1, 1), 16.0)), q)

    def test_nearest_rounding_negative(self):
        q = QuantSpec(magnitude_bits=4, signed=True, scale=1.0)
        assert quantize(t3([[[-3.4]]]), q)[0, 0, 0] == -3

    def test_ties_away_from_zero(self):
        q = QuantSpec(magnitude_bits=4, signed=True, scale=1.0)
        out = quantize(t3([[[2.5, -2.5]]]), q)
        assert list(out[0, 0]) == [3, -3]

    def test_unsigned_rejects_negative(self):
        q = QuantSpec(magnitude_bits=4, signed=False, scale=1.0)
        with pytest.raises(OutOfRange):
            quantize(t3([[[-1.0]]]), q)

    @pytest.mark.parametrize("value, span", [(np.nan, "[nan, nan]"),
                                             (np.inf, "[0, inf]"),
                                             (-np.inf, "[-inf, 0]")])
    def test_non_finite_out_of_range(self, value, span):
        # a NaN fails every comparison, so it once passed the range check
        # and was cast, with numpy's invalid-cast warning, to int64 min
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange) as e:
                quantize(t3([[[value]]]), QuantSpec(4, True, 1.0))
        assert str(e.value) == (f"quantized levels span {span}, "
                                f"representable range is [-15, 15]")

    @given(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=30),
           st.floats(0.01, 2.0))
    def test_roundtrip_error_bounded(self, values, scale):
        q = QuantSpec(magnitude_bits=10, signed=True, scale=scale)
        t = t3(np.asarray(values).reshape(1, 1, -1))
        back = quantize(t, q) * scale
        assert np.all(np.abs(back - t) <= scale / 2 + 1e-12)


class TestLinfNorm:
    def test_zero(self):
        assert linf_norm(t3(np.zeros((1, 2, 2)))) == 0.0

    def test_mixed_signs(self):
        assert linf_norm(t3([[[-7.0, 3.0]]])) == 7.0

    def test_empty_array_is_zero_and_nan_propagates(self):
        # a plain array may have a zero-length axis, which a Tensor3 cannot
        assert linf_norm(np.zeros((1, 0, 3))) == 0.0
        assert np.isnan(linf_norm(t3([[[1.0, np.nan, -2.0]]])))

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
        assert np.array_equal(read_t3b(p).data, t)

    def test_roundtrip_int(self, tmp_path):
        t = t3(np.random.default_rng(1).integers(-1000, 1000, (2, 3, 3)))
        p = tmp_path / "x.t3b"
        write_t3b(t, p)
        back = read_t3b(p)
        assert back.data.dtype == np.int64
        assert np.array_equal(back.data, t)

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


class TestBenchContract:
    """The calls bench/workloads.py makes, in the argument forms it passes:
    a read_t3b result straight into the array functions."""

    def test_read_tensor_and_its_array_give_equal_results(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, (3, 14, 12))
        image[:, 2:9, 3:7] = 0
        noise = rng.integers(-12, 13, image.shape) * (rng.random(image.shape)
                                                      < 0.3)
        for name, arr in (("image", image), ("noise", noise)):
            write_t3b(Tensor3(arr), tmp_path / f"{name}.t3b")
        read = read_t3b(tmp_path / "image.t3b"), read_t3b(tmp_path / "noise.t3b")
        arrays = tuple(t.data for t in read)
        assert all(type(a) is np.ndarray for a in arrays)
        f = FilterBank(rng.integers(-127, 128, (4, 3, 3, 3)),
                       np.zeros(4, dtype=np.int64))
        geom, cfg = ConvGeometry(2, 2), preset_config("tpu")
        rep = equivalence_report(*read, f, geom)
        assert rep.exact and rep == equivalence_report(*arrays, f, geom)
        assert compare_attack_footprint(*read, f, geom, cfg) == \
            compare_attack_footprint(*arrays, f, geom, cfg)
        assert bit_stats(read[1]) == bit_stats(arrays[1])
        assert linf_norm(read[1]) == linf_norm(arrays[1]) == 12
        # weave_rows takes one too, and so attacked_conv_nchw's noise does
        assert np.array_equal(weave_rows(*read), weave_rows(*arrays))
        assert np.array_equal(attacked_conv_nchw(arrays[0][None], read[1], f),
                              attacked_conv_nchw(arrays[0][None], arrays[1], f))

    def test_asarray_of_a_read_tensor_is_its_frozen_data(self, tmp_path):
        p = tmp_path / "x.t3b"
        write_t3b(np.arange(24).reshape(2, 3, 4), p)
        t = read_t3b(p)
        a = np.asarray(t)
        assert np.shares_memory(a, t.data) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1

    @pytest.mark.parametrize("arr", [
        np.arange(-12, 12).reshape(2, 3, 4),
        np.linspace(-1, 1, 10).reshape(1, 2, 5),
        np.arange(6, dtype=np.uint8).reshape(3, 2, 1),
        np.arange(24.0, dtype=np.float32).reshape(4, 3, 2).T])
    def test_array_and_tensor3_write_the_same_bytes(self, tmp_path, arr):
        write_t3b(arr, tmp_path / "array.t3b")
        write_t3b(Tensor3(arr), tmp_path / "tensor.t3b")
        assert (tmp_path / "array.t3b").read_bytes() == \
            (tmp_path / "tensor.t3b").read_bytes()

    @pytest.mark.parametrize("arr, error", [
        (np.zeros((2, 2)), ShapeMismatch), (np.zeros((1, 0, 2)), ShapeMismatch),
        (np.zeros((1, 2, 2), dtype=complex), TypeError)])
    def test_writers_check_arrays_as_tensor3_does(self, tmp_path, arr, error):
        with pytest.raises(error):
            write_t3b(arr, tmp_path / "x.t3b")
        with pytest.raises(error):
            write_t3b_stream(arr, io.BytesIO())

    def test_traced_signatures_and_random_instance(self):
        # the tracer reads the path of read_t3b(path) and write_t3b(t, path)
        assert list(inspect.signature(read_t3b).parameters) == ["path"]
        assert list(inspect.signature(write_t3b).parameters) == ["t", "path"]
        image, noise, filters, _ = random_instance(np.random.default_rng(0),
                                                   16, False)
        assert type(image) is np.ndarray and type(noise) is np.ndarray
        assert filters.weights.shape[1] == image.shape[0]
