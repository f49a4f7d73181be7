import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advweave import adversary
from advweave.adversary import (BACKGROUND, CONTRAST, FoolingReport,
                                PerturbBudget, TinyCNN, TrainConfig,
                                _backprop_to_conv, _column_index,
                                _columns, backward,
                                craft_uap, cross_entropy, fgsm,
                                fooling_report, forward, init_model,
                                load_model, make_corpus, predict,
                                random_noise, save_model, softmax, train)
from advweave.conv import ConvGeometry, FilterBank, conv2d_nchw
from advweave.errors import Diverged, EmptyDataset, FormatError, ShapeMismatch
from advweave.tensor import linf_norm, read_t3b_stream, write_t3b_stream
from advweave.weave import attacked_conv_nchw


def loss_of(model, x, y):
    return cross_entropy(forward(model, x[None])[0], y)


def gradient_oracle_case(c, kh, kw, n):
    """A random model on (c, kh + 5, kw + 5) inputs (a 6x6 conv output, 3x3
    pooled), n samples with labels, and the loss gradient dz1 at the conv
    output from _backprop_to_conv, reordered to NCHW."""
    rng = np.random.default_rng(c * 100 + kh * 10 + kw + n)
    shape = (c, kh + 5, kw + 5)
    m = TinyCNN(FilterBank(rng.normal(0, 0.5, (6, c, kh, kw)),
                           rng.normal(0, 0.1, 6)),
                rng.normal(0, 0.3, (4, 54)), rng.normal(0, 0.1, 4), shape)
    xs = rng.uniform(0, 1, (n, *shape))
    ys = rng.integers(0, 4, n)
    logits, cache = adversary._forward(m, _columns(m, xs))
    # pool-major (O, dy, dx, N, py, px) -> (N, O, 2py+dy, 2px+dx)
    dz1 = _backprop_to_conv(m, logits, cache, np.eye(4)[ys])[1] \
        .reshape(6, 2, 2, n, 3, 3).transpose(3, 0, 4, 1, 5, 2) \
        .reshape(n, 6, 6, 6)
    return m, xs, ys, dz1


def naive_forward(model, x):
    """Independent loop-based re-implementation of the forward pass."""
    w, b = model.conv1.weights, model.conv1.bias
    c_out, c_in, kh, kw = w.shape
    _, h, ww = x.shape
    oh, ow = h - kh + 1, ww - kw + 1
    z = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for m in range(oh):
            for n in range(ow):
                acc = b[o]
                for c in range(c_in):
                    for j in range(kh):
                        for k in range(kw):
                            acc += w[o, c, j, k] * x[c, m + j, n + k]
                z[o, m, n] = acc
    a = np.maximum(z, 0)
    pooled = np.zeros((c_out, oh // 2, ow // 2))
    for o in range(c_out):
        for i in range(oh // 2):
            for j in range(ow // 2):
                pooled[o, i, j] = a[o, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
    flat = pooled.ravel()
    return model.fc_w @ flat + model.fc_b


class TestForward:
    def test_zero_input_zero_weights_gives_biases(self):
        m = init_model(0)
        bias = np.array([0.1, -0.2, 0.3, 0.0])
        m2 = type(m)(conv1=FilterBank(np.zeros_like(m.conv1.weights),
                                      np.zeros_like(m.conv1.bias)),
                     fc_w=np.zeros_like(m.fc_w), fc_b=bias,
                     input_shape=m.input_shape)
        logits = forward(m2, np.zeros((1, *m.input_shape)))
        assert np.array_equal(logits[0], bias)

    def test_softmax_sums_to_one(self):
        m = init_model(1)
        rng = np.random.default_rng(2)
        for _ in range(10):
            logits = forward(m, rng.uniform(0, 1, (1, *m.input_shape)))
            assert abs(softmax(logits[0]).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_reimplementation(self, seed):
        m = init_model(seed)
        x = np.random.default_rng(seed + 50).uniform(0, 1, m.input_shape)
        logits = forward(m, x[None])
        assert np.allclose(logits[0], naive_forward(m, x), rtol=1e-10,
                           atol=1e-12)

    def test_shape_mismatch(self):
        m = init_model(0)
        with pytest.raises(ShapeMismatch):
            forward(m, np.zeros((1, 2, 8, 8)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(1, 2),
           st.sampled_from([(8, 8), (9, 7), (6, 10)]), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_per_sample(self, seed, n, c, hw, classes):
        # (h, w) - kernel + 1 must be even for pooling: 3x3 on 8x8, 2x2 on
        # 9x7, 1x1 on 6x10
        kernel = {(8, 8): 3, (9, 7): 2, (6, 10): 1}[hw]
        m = init_model(seed % 1000, input_shape=(c, *hw),
                       num_classes=classes, kernel=kernel)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 1, (n, c, *hw))
        v = rng.uniform(-0.05, 0.05, (c, *hw))
        batched = forward(m, xs)
        single = np.stack([forward(m, x[None])[0] for x in xs])
        scale = max(np.abs(single).max(), 1e-300)
        assert np.abs(batched - single).max() <= 1e-12 * scale
        direct = forward(m, xs + v)
        woven = forward(m, xs, v)
        scale = max(np.abs(direct).max(), 1e-300)
        assert np.abs(direct - woven).max() <= 1e-12 * scale
        assert np.array_equal(predict(m, xs), single.argmax(axis=1))

    @pytest.mark.parametrize("c, kh, kw, n", [
        (1, 1, 4, 0), (2, 4, 1, 1), (3, 2, 3, 7), (1, 3, 2, 70),
        (2, 1, 2, 7), (3, 4, 3, 70)])
    @pytest.mark.parametrize("per_image", [False, True])
    def test_interleaved_route_matches_library_attacked_conv(self, c, kh, kw,
                                                             n, per_image):
        rng = np.random.default_rng(c * 1000 + kh * 100 + kw * 10 + n)
        h, w, o, classes = kh - 1 + 6, kw - 1 + 4, 3, 5
        m = TinyCNN(FilterBank(rng.normal(size=(o, c, kh, kw)),
                               rng.normal(size=o)),
                    rng.normal(size=(classes, o * 6)),
                    rng.normal(size=classes), (c, h, w))
        xs = rng.uniform(0, 1, (n, c, h, w))
        v = rng.uniform(-0.05, 0.05, (n, c, h, w) if per_image else (c, h, w))
        woven = forward(m, xs, v)
        # the library's attacked conv, then a plain 2x2 max-pool, ReLU, dense
        z = attacked_conv_nchw(xs, v, m.conv1)
        pooled = z.reshape(n, o, 3, 2, 2, 2).max(axis=(3, 5))
        want = np.maximum(pooled, 0).reshape(n, o * 6) @ m.fc_w.T + m.fc_b
        scale = max(np.abs(want).max(initial=0), 1e-300)
        for got in (woven, forward(m, xs + v)):
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0) <= 1e-12 * scale
        # noise of the wrong image shape, or too many patterns for the batch
        for bad, text in (
                (np.zeros((c, h, w + 1)), f"{(c, h, w)} vs {(c, h, w + 1)}"),
                (np.zeros((n + 2, c, h, w)),
                 f"noise batch {(n + 2, c, h, w)} vs images {(n, c, h, w)}")):
            for route in (lambda: forward(m, xs, bad),
                          lambda: attacked_conv_nchw(xs, bad, m.conv1)):
                with pytest.raises(ShapeMismatch, match=f"^{re.escape(text)}$"):
                    route()

    def test_cross_entropy_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.uniform(-5, 5, 4)
            assert cross_entropy(logits, int(rng.integers(4))) >= 0


class TestPredict:
    def test_blocks_bound_memory(self):
        # predict forwards EVAL_BLOCK samples at a time; one forward of the
        # whole batch would hold all its window-major columns, about 29 MB
        # here against 0.6 MB
        m = init_model(0)
        xs, _ = make_corpus(5000, seed=0)
        whole = forward(m, xs).argmax(axis=1)
        tracemalloc.start()
        try:
            labels = predict(m, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(labels, whole)
        assert peak < xs.nbytes / 2

    def test_empty_batch(self):
        m = init_model(0)
        labels = predict(m, np.empty((0, *m.input_shape)))
        assert labels.shape == (0,) and labels.dtype.kind == "i"
        with pytest.raises(ShapeMismatch):
            predict(m, np.empty((0, 2, 8, 8)))


class TestBackward:
    def test_empty_batch(self):
        m = init_model(0)
        g = backward(m, np.empty((0, *m.input_shape)),
                     np.zeros(0, dtype=np.int64))
        for got, like in [(g.conv_w, m.conv1.weights), (g.conv_b, m.conv1.bias),
                          (g.fc_w, m.fc_w), (g.fc_b, m.fc_b)]:
            assert got.shape == like.shape
            assert not got.any()
        assert g.input.shape == (0, *m.input_shape)

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_gradients_match_finite_differences(self, seed):
        m = init_model(seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.uniform(0, 1, m.input_shape)
        y = int(rng.integers(m.num_classes))
        g = backward(m, x[None], [y])
        h = 1e-5

        def fd_check(arr, grad):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = loss_of(m, x, y)
                arr[idx] = orig - h
                lm = loss_of(m, x, y)
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / denom < 1e-4

        fd_check(m.conv1.weights, g.conv_w)
        fd_check(m.conv1.bias, g.conv_b)
        fd_check(m.fc_w, g.fc_w)
        fd_check(m.fc_b, g.fc_b)
        xd = x.copy()
        for idx in np.ndindex(xd.shape):
            orig = xd[idx]
            xd[idx] = orig + h
            lp = loss_of(m, xd, y)
            xd[idx] = orig - h
            lm = loss_of(m, xd, y)
            xd[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g.input[0][idx]), 1e-8)
            assert abs(fd - g.input[0][idx]) / denom < 1e-4

    def test_loss_decreases_when_overfitting_one_sample(self):
        m = init_model(7)
        x = np.random.default_rng(8).uniform(0, 1, m.input_shape)
        losses = [loss_of(m, x, 1)]
        for _ in range(30):
            m = train(m, x[None], np.array([1]), TrainConfig(0.2, 1, 1, 0))
            losses.append(loss_of(m, x, 1))
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_bad_label(self):
        m = init_model(0)
        with pytest.raises(ValueError):
            backward(m, np.zeros((1, *m.input_shape)), [99])

    def test_one_label_per_sample(self):
        # a single label would otherwise take row 0 of dlogits only
        xs, ys = make_corpus(5, seed=0)
        with pytest.raises(ShapeMismatch, match="5 samples"):
            backward(init_model(0), xs, ys[:1])

    @pytest.mark.parametrize("labels", [[1.0], [True], ["1"]],
                             ids=["float", "bool", "str"])
    def test_non_integer_labels_rejected_by_dtype(self, labels):
        # numpy would raise IndexError on indexing with them, naming no dtype
        m = init_model(0)
        xs = np.zeros((1, *m.input_shape))
        dtype = np.asarray(labels).dtype
        for call in (lambda: backward(m, xs, labels),
                     lambda: train(m, xs, labels, TrainConfig(0.1, 1, 1, 0)),
                     lambda: fooling_report(m, xs, labels,
                                            np.zeros(m.input_shape))):
            with pytest.raises(ValueError, match=re.escape(
                    f"labels must be integers, got dtype {dtype}")):
                call()

    def test_empty_float_labels_rejected(self):
        # np.asarray([]) is float64; int64 empty labels pass (test_empty_batch)
        m = init_model(0)
        with pytest.raises(ValueError, match="got dtype float64"):
            backward(m, np.empty((0, *m.input_shape)), [])

    def test_tied_window_sends_its_gradient_to_the_first_hit(self):
        # all-zero filters and a positive bias tie all four values of every
        # pooling window; only each window's first value gets the gradient
        m0 = init_model(0)
        m = TinyCNN(FilterBank(np.zeros_like(m0.conv1.weights), np.full(6, 0.5)),
                    m0.fc_w, m0.fc_b, m0.input_shape)
        xs, ys = make_corpus(5, seed=1)
        g = backward(m, xs, ys)
        dlogits = softmax(forward(m, xs))
        dlogits[np.arange(5), ys] -= 1.0
        dz1 = np.zeros((5, 6, 6, 6))
        dz1[:, :, ::2, ::2] = (dlogits @ m.fc_w).reshape(5, 6, 3, 3)
        want_w = np.empty((6, 1, 3, 3))
        for j in range(3):
            for k in range(3):
                want_w[:, :, j, k] = np.einsum("noyx,ncyx->oc", dz1,
                                               xs[:, :, j:j + 6, k:k + 6])
        assert np.allclose(g.conv_b, dz1.sum(axis=(0, 2, 3)), rtol=1e-12,
                           atol=1e-14)
        assert np.allclose(g.conv_w, want_w, rtol=1e-12, atol=1e-14)
        assert np.abs(g.conv_b).min() > 1e-6  # the routing shows in each bias

    @pytest.mark.parametrize("n", [0, 1, 7, 810, 900])
    @pytest.mark.parametrize("c, kh, kw", [(1, 1, 4), (2, 4, 1), (3, 2, 3),
                                           (2, 3, 4)])
    def test_parameter_gradients_match_einsum_oracle(self, c, kh, kw, n):
        # dW[o, c, j, k] = sum over n, y, x of dz1[n, o, y, x] *
        # x[n, c, y+j, x+k] and db[o] = sum of dz1[:, o], on the NCHW dz1;
        # with C > 1 and kh > 1 a swap of the filters' C and kh axes shows.
        # At (3, 2, 3), 810 and 900 samples have more columns than one conv
        # block's COLUMN_BYTES (2 MiB), where a dW blocked like the conv
        # would split.
        m, xs, ys, dz1 = gradient_oracle_case(c, kh, kw, n)
        g = backward(m, xs, ys)
        want_w, scale_w = np.empty((2, 6, c, kh, kw))
        for j in range(kh):
            for k in range(kw):
                win = xs[:, :, j:j + 6, k:k + 6]
                want_w[:, :, j, k] = np.einsum("noyx,ncyx->oc", dz1, win)
                scale_w[:, :, j, k] = np.einsum("noyx,ncyx->oc", np.abs(dz1),
                                                win)
        # a float sum's error scales with the sum of its terms' magnitudes
        assert (np.abs(g.conv_w - want_w) <= 1e-12 * scale_w).all()
        assert (np.abs(g.conv_b - dz1.sum(axis=(0, 2, 3)))
                <= 1e-12 * np.abs(dz1).sum(axis=(0, 2, 3))).all()
        assert g.conv_w.shape == (6, c, kh, kw) and g.conv_b.shape == (6,)

    @pytest.mark.parametrize("n", [0, 1, 7, 900])
    @pytest.mark.parametrize("c, kh, kw", [(1, 1, 4), (2, 4, 1), (3, 2, 3),
                                           (2, 3, 4)])
    def test_input_gradient_matches_full_convolution_oracle(self, c, kh, kw,
                                                            n):
        # dx is the full (fully padded) convolution of the NCHW dz1 by the
        # flipped, transposed filters: the route through the library conv
        # that the adjoint of the columns replaced
        m, xs, ys, dz1 = gradient_oracle_case(c, kh, kw, n)
        flipped = m.conv1.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        full = ConvGeometry(pad_h=kh - 1, pad_w=kw - 1)
        want = conv2d_nchw(dz1, FilterBank(flipped, np.zeros(c)), full)
        scale = conv2d_nchw(np.abs(dz1), FilterBank(np.abs(flipped),
                                                    np.zeros(c)), full)
        dx = backward(m, xs, ys).input
        assert dx.shape == xs.shape
        # a float sum's error scales with the sum of its terms' magnitudes
        assert (np.abs(dx - want) <= 1e-12 * scale).all()
        assert n == 0 or np.abs(dx).max() > 1e-3

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_sums_per_sample_gradients(self, seed):
        m = init_model(seed, input_shape=(2, 8, 8))
        rng = np.random.default_rng(seed + 200)
        xs = rng.uniform(0, 1, (5, 2, 8, 8))
        ys = rng.integers(0, m.num_classes, 5)
        g = backward(m, xs, ys)
        singles = [backward(m, x[None], [y]) for x, y in zip(xs, ys)]
        for name in ("conv_w", "conv_b", "fc_w", "fc_b"):
            want = sum(getattr(s, name) for s in singles)
            assert np.allclose(getattr(g, name), want, rtol=1e-12,
                               atol=1e-14), name
        assert np.allclose(g.input, np.concatenate([s.input for s in singles]),
                           rtol=1e-12, atol=1e-14)


class TestColumns:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    def test_column_index_gives_the_adjoint_of_columns(self, n, c, kh, kw,
                                                       ph, pw, seed):
        # <_columns(x), g> = <x, col2im(g)> for every x and g, where col2im
        # sums each column entry into the input element _column_index
        # names: the rule dx relies on. Small integers make both sides exact.
        shape = (c, kh + 2 * ph - 1, kw + 2 * pw - 1)
        m = TinyCNN(FilterBank(np.zeros((2, c, kh, kw)), np.zeros(2)),
                    np.zeros((3, 2 * ph * pw)), np.zeros(3), shape)
        rng = np.random.default_rng(seed)
        x = rng.integers(-8, 9, (n, *shape)).astype(np.float64)
        cols = _columns(m, x)
        g = rng.integers(-8, 9, cols.shape).astype(np.float64)
        col2im = np.bincount(_column_index(x.shape, kh, kw), g.ravel(),
                             minlength=x.size).reshape(x.shape)
        assert np.sum(cols * g) == np.sum(x * col2im)


@pytest.fixture
def filter_banks(monkeypatch):
    """Every FilterBank built while the test runs."""
    built = []
    post_init = FilterBank.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FilterBank, "__post_init__", counting)
    return built


class TestInitModel:
    @pytest.mark.parametrize("kwargs, what", [
        ({"kernel": 0}, "kernel"),
        ({"kernel": -1, "input_shape": (1, 7, 7)}, "kernel"),
        ({"input_shape": (0, 8, 8)}, "channel")])
    def test_empty_kernel_or_input_is_shape_mismatch(self, kwargs, what):
        with pytest.raises(ShapeMismatch, match=what):
            init_model(0, **kwargs)


class TestTrain:
    def make_separable_2class(self, n=60, seed=0):
        # linearly separable toy set: bright left half vs bright right half
        rng = np.random.default_rng(seed)
        xs, ys = np.empty((n, 1, 8, 8)), np.empty(n, dtype=np.int64)
        for i in range(n):
            ys[i] = y = int(rng.integers(2))
            xs[i] = rng.uniform(0, 0.1, (1, 8, 8))
            if y == 0:
                xs[i, 0, :, :4] += 0.8
            else:
                xs[i, 0, :, 4:] += 0.8
        return xs, ys

    def test_non_finite_parameters_raise(self):
        # quietly: the overflow to infinity and NaN is reported once, by
        # the error
        xs, ys = self.make_separable_2class(n=16)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Diverged, match="learning rate 1e\\+308"):
                train(init_model(0), xs, ys, TrainConfig(1e308, 1, 8, 0))
        assert caught == []

    @pytest.mark.parametrize("seed", range(5))
    def test_separable_toy_set_reaches_95pct(self, seed):
        xs, ys = self.make_separable_2class(seed=seed)
        m = init_model(seed, num_classes=4)
        m = train(m, xs, ys, TrainConfig(0.1, 15, 8, seed))
        preds = predict(m, xs)
        acc = (preds == ys).sum() / len(ys)
        assert acc >= 0.95

    def test_zero_learning_rate_keeps_weights(self):
        xs, ys = self.make_separable_2class(n=10)
        m = init_model(0)
        m2 = train(m, xs, ys, TrainConfig(0.0, 2, 4, 0))
        assert np.array_equal(m.conv1.weights, m2.conv1.weights)
        assert np.array_equal(m.fc_w, m2.fc_w)

    def test_leaves_input_model_alone(self):
        xs, ys = self.make_separable_2class(n=20)
        m = init_model(0)
        arrays = (m.conv1.weights, m.conv1.bias, m.fc_w, m.fc_b)
        before = [a.copy() for a in arrays]
        got = train(m, xs, ys, TrainConfig(0.1, 3, 4, 0))
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)
        for a in (got.conv1.weights, got.conv1.bias, got.fc_w, got.fc_b):
            assert not any(np.shares_memory(a, b) for b in arrays)

    def test_same_seed_identical_weights(self):
        xs, ys = self.make_separable_2class(n=20)
        m = init_model(0)
        a = train(m, xs, ys, TrainConfig(0.1, 3, 4, 5))
        b = train(m, xs, ys, TrainConfig(0.1, 3, 4, 5))
        assert np.array_equal(a.conv1.weights, b.conv1.weights)
        assert np.array_equal(a.conv1.bias, b.conv1.bias)
        assert np.array_equal(a.fc_w, b.fc_w)
        assert np.array_equal(a.fc_b, b.fc_b)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train(init_model(0), np.empty((0, 1, 8, 8)), np.empty(0, int),
                  TrainConfig())

    def test_wrongly_shaped_sample(self):
        xs, ys = self.make_separable_2class(n=10)
        with pytest.raises(ShapeMismatch):
            train(init_model(0), xs[..., :7], ys, TrainConfig(0.1, 1, 4, 0))

    @pytest.mark.parametrize("label", [-1, 4])
    def test_out_of_range_label(self, label):
        xs, ys = self.make_separable_2class(n=10)
        ys[7] = label
        with pytest.raises(ValueError, match="out of range"):
            train(init_model(0), xs, ys, TrainConfig(0.1, 1, 4, 0))
        with pytest.raises(ValueError, match="out of range"):
            fooling_report(init_model(0), xs, ys, np.zeros((1, 8, 8)))

    @pytest.mark.parametrize("cut", [lambda ys: ys[:1], lambda ys: ys[:-1],
                                     lambda ys: ys[:, None]],
                             ids=["one", "short", "column"])
    def test_one_label_per_sample(self, cut):
        # a length-1 or (n, 1) label array would otherwise broadcast
        xs, ys = self.make_separable_2class(n=10)
        with pytest.raises(ShapeMismatch):
            train(init_model(0), xs, cut(ys), TrainConfig(0.1, 1, 4, 0))
        with pytest.raises(ShapeMismatch):
            fooling_report(init_model(0), xs, cut(ys), np.zeros((1, 8, 8)))

    @pytest.mark.parametrize("lr", [-0.1, np.nan, np.inf])
    def test_learning_rate_must_be_finite_and_nonnegative(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_full_batch_epoch_is_one_sgd_step(self):
        # train's gradients are backward's: one epoch over one batch
        # of every sample is w - lr / n * (summed gradient)
        xs, ys = self.make_separable_2class(n=12, seed=3)
        m = init_model(3, num_classes=4)
        lr, n = 0.3, len(xs)
        got = train(m, xs, ys, TrainConfig(lr, 1, n, 7))
        g = backward(m, xs, ys)
        pairs = [(got.conv1.weights, m.conv1.weights, g.conv_w),
                 (got.conv1.bias, m.conv1.bias, g.conv_b),
                 (got.fc_w, m.fc_w, g.fc_w), (got.fc_b, m.fc_b, g.fc_b)]
        for new, old, grad in pairs:
            assert np.allclose(new, old - lr / n * grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape, n, batch", [
        ((1, 8, 8), 20, 8), ((2, 10, 8), 13, 5), ((1, 8, 8), 40, 1),
        ((1, 8, 8), 40, 8), ((1, 8, 8), 40, 40)],
        ids=["one channel", "two channels", "40 by 1", "40 by 8", "40 by 40"])
    def test_epochs_are_sgd_steps_through_backward(self, shape, n, batch):
        # train gathers each batch from columns built once for the corpus
        # and updates one flat buffer; backward builds the columns per call,
        # and each parameter array here takes its own update: the weights
        # agree bit for bit, also after a final batch shorter than the rest
        xs, ys = make_corpus(n, seed=2, shape=shape)
        m = init_model(2, input_shape=shape)
        cfg = TrainConfig(0.1, 2, batch, 9)
        got = train(m, xs, ys, cfg)
        params = [a.astype(np.float64)
                  for a in (m.conv1.weights, m.conv1.bias, m.fc_w, m.fc_b)]
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                b = order[start:start + batch]
                step = TinyCNN(FilterBank(params[0], params[1]), params[2],
                               params[3], shape)
                g = backward(step, xs[b], ys[b])
                lr = cfg.learning_rate / len(b)
                for p, dp in zip(params, (g.conv_w, g.conv_b, g.fc_w, g.fc_b)):
                    p -= lr * dp
        for want, have in zip(params, (got.conv1.weights, got.conv1.bias,
                                       got.fc_w, got.fc_b)):
            assert want.tobytes() == have.tobytes()

    def test_builds_only_the_working_filter_bank(self, filter_banks):
        # the training steps run the convolution kernel on plain arrays
        model = init_model(0)
        xs, ys = make_corpus(400, 0)
        filter_banks.clear()
        train(model, xs, ys, TrainConfig())
        assert len(filter_banks) == 1


class TestFGSM:
    def test_zero_epsilon(self):
        m = init_model(0)
        x = np.random.default_rng(1).uniform(0, 1, m.input_shape)
        eta = fgsm(m, x, 0, PerturbBudget(epsilon=0.0))
        assert np.all(eta == 0)

    def test_sign_values_only(self):
        m = init_model(0)
        x = np.random.default_rng(2).uniform(0, 1, m.input_shape)
        eps = 0.05
        eta = fgsm(m, x, 1, PerturbBudget(epsilon=eps))
        assert set(np.unique(eta)) <= {-eps, 0.0, eps}

    def test_sign_definition(self):
        # components follow sign(grad) exactly: {0.3, -0.2, 0} -> {e, -e, 0}
        g = np.array([0.3, -0.2, 0.0])
        eta = 0.1 * np.sign(g)
        assert list(eta) == [0.1, -0.1, 0.0]

    def test_budget_cap_enforced(self):
        with pytest.raises(ValueError):
            PerturbBudget(epsilon=0.2)

    @pytest.mark.parametrize("epsilon", [-0.01, np.nan, np.inf])
    def test_budget_outside_range_rejected(self, epsilon):
        with pytest.raises(ValueError, match="outside"):
            PerturbBudget(epsilon=epsilon)


class TestRandomNoise:
    def test_low_mode_within_5pct(self):
        b = PerturbBudget(epsilon=0.05)
        n = random_noise((1, 8, 8), b, "low", 0)
        assert linf_norm(n) <= 0.05 * 1.0

    def test_high_mode_within_image_magnitude(self):
        b = PerturbBudget(epsilon=0.05)
        n = random_noise((1, 8, 8), b, "high", 0)
        assert linf_norm(n) <= 1.0
        assert linf_norm(n) > 0.05  # actually uses the full range

    def test_seed_determinism(self):
        b = PerturbBudget(epsilon=0.05)
        assert np.array_equal(random_noise((1, 4, 4), b, "low", 9),
                              random_noise((1, 4, 4), b, "low", 9))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            random_noise((1, 4, 4), PerturbBudget(epsilon=0.01), "medium", 0)


class TestMakeCorpus:
    @pytest.mark.parametrize("shape", [(1, 2, 8), (1, 8, 2), (2, 2, 2)])
    def test_bars_need_an_interior_row_and_column(self, shape):
        with pytest.raises(ShapeMismatch,
                           match=re.escape(f"corpus shape {shape}")):
            make_corpus(10, seed=0, shape=shape)

    def test_three_by_three_is_the_smallest(self):
        xs, ys = make_corpus(20, seed=0, shape=(1, 3, 3))
        assert xs.shape == (20, 1, 3, 3) and set(ys) == {0, 1, 2, 3}

    @staticmethod
    def per_sample_corpus(n, seed, shape=(1, 8, 8), num_classes=4):
        """make_corpus as one loop that draws and shapes each sample."""
        c, h, w = shape
        rng = np.random.default_rng(seed)
        xs, ys = np.empty((n, *shape)), np.empty(n, dtype=np.int64)
        for i in range(n):
            ys[i] = label = int(rng.integers(num_classes))
            img = rng.uniform(0.0, BACKGROUND, shape)
            if label == 0:
                img[:, int(rng.integers(1, h - 1)), :] += CONTRAST
            elif label == 1:
                img[:, :, int(rng.integers(1, w - 1))] += CONTRAST
            elif label == 2:
                img[:, np.arange(min(h, w)), np.arange(min(h, w))] += CONTRAST
            else:
                d = np.arange(min(h, w))
                img[:, d, w - 1 - d] += CONTRAST
            xs[i] = np.clip(img, 0.0, 1.0)
        return xs, ys

    @pytest.mark.parametrize("args", [
        (400, 0), (2000, 1001), (7, 3, (3, 5, 9), 7), (11, 4, (1, 3, 17), 1),
        (0, 1), (50, 2, (2, 4, 4), 3), (33, 9, (1, 3, 3), 2)])
    def test_matches_per_sample_loop(self, args):
        # the same draws in the same order, shaped in bulk after the loop
        xs, ys = make_corpus(*args)
        want_xs, want_ys = self.per_sample_corpus(*args)
        assert xs.shape == want_xs.shape
        assert xs.tobytes() == want_xs.tobytes()
        assert ys.tobytes() == want_ys.tobytes()
        assert not xs.flags.writeable and not ys.flags.writeable


@pytest.fixture(scope="module")
def trained():
    corpus = make_corpus(300, seed=0)
    held = make_corpus(200, seed=1)
    m = train(init_model(0), *corpus, TrainConfig(0.1, 40, 8, 0))
    return m, corpus, held


class TestCraftUAP:
    def test_zero_budget_gives_zero(self, trained):
        m, corpus, _ = trained
        v = craft_uap(m, corpus[0][:20], PerturbBudget(epsilon=0.0))
        assert np.all(v == 0)

    def test_budget_projection_invariant(self, trained):
        m, corpus, _ = trained
        b = PerturbBudget(epsilon=0.05)
        v = craft_uap(m, corpus[0][:100], b, max_iters=6)
        assert linf_norm(v) <= b.epsilon + 1e-12

    def test_empty_sample_set(self, trained):
        m, _, _ = trained
        with pytest.raises(EmptyDataset):
            craft_uap(m, np.empty((0, *m.input_shape)),
                      PerturbBudget(epsilon=0.05))

    def test_beats_random_noise_on_held_out(self, trained):
        m, corpus, held = trained
        b = PerturbBudget(epsilon=0.05)
        v = craft_uap(m, corpus[0][:150], b, max_iters=12)
        rn = random_noise(m.input_shape, b, "low", 777)
        assert fooling_report(m, *held, v).fooling_rate > \
            fooling_report(m, *held, rn).fooling_rate

    def test_builds_no_filter_bank(self, trained, filter_banks):
        # the CLI's defaults: 200 samples, epsilon 0.05, 10 passes
        m, _, _ = trained
        craft_uap(m, make_corpus(200, 0)[0], PerturbBudget(epsilon=0.05))
        assert filter_banks == []

    def test_passes_stop_once_every_sample_is_fooled(self, trained,
                                                     monkeypatch):
        # one forward for the clean predictions, then one per sample and
        # pass: the third pass is the first to find both samples fooled, and
        # the 47 passes left would each forward both again
        m, _, _ = trained
        calls, forward_cols = [], adversary._forward

        def counting(*args):
            calls.append(None)
            return forward_cols(*args)

        monkeypatch.setattr(adversary, "_forward", counting)
        craft_uap(m, make_corpus(2, 0)[0], PerturbBudget(0.05), max_iters=50)
        assert len(calls) == 1 + 3 * 2

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_public_forward_and_fgsm_steps(self, trained, seed):
        # craft_uap's loop on one reused input buffer and its window view,
        # against the same loop through the public calls
        m, _, _ = trained
        xs = make_corpus(30, seed)[0]
        eps, steps, skips = 0.05, 0, 0
        v = np.zeros(m.input_shape)
        clean = predict(m, xs)
        for _ in range(10):
            fooled = 0
            for x, pred in zip(xs, clean):
                if forward(m, (x + v)[None])[0].argmax() != pred:
                    fooled += 1
                    continue
                eta = fgsm(m, x + v, int(pred), PerturbBudget(eps / 4))
                v = np.clip(v + eta, -eps, eps)
                steps += 1
            skips += fooled
            if fooled == len(xs):
                break
        assert steps > 0 and skips > 0  # both branches run
        got = craft_uap(m, xs, PerturbBudget(eps))
        assert got.tobytes() == v.tobytes()


class TestFoolingReport:
    def test_evaluation_builds_no_pooling_mask(self, trained, monkeypatch):
        # predict and fooling_report read only logits: the first-maximum
        # mask is built in backprop alone
        m, _, (xs, ys) = trained
        v = random_noise(m.input_shape, PerturbBudget(0.05), "low", 0)
        want = [predict(m, xs)] + [fooling_report(m, xs, ys, v, path)
                                   for path in ("direct", "interleaved")]

        def no_mask(*args):
            raise AssertionError("evaluation built a pooling mask")

        monkeypatch.setattr(adversary, "_first_max", no_mask)
        assert np.array_equal(predict(m, xs), want[0])
        assert [fooling_report(m, xs, ys, v, path) for path in
                ("direct", "interleaved")] == want[1:]
        with pytest.raises(AssertionError, match="pooling mask"):
            backward(m, xs[:1], ys[:1])  # the patch is in force

    def test_zero_perturbation(self, trained):
        m, _, held = trained
        zero = np.zeros(m.input_shape)
        rep = fooling_report(m, *held, zero)
        assert rep.fooling_rate == 0.0
        assert rep.top1_perturbed == rep.top1_clean
        assert rep.n_samples == len(held[0])

    def test_top5_omitted_below_5_classes(self, trained):
        m, _, held = trained
        rep = fooling_report(m, *held, np.zeros(m.input_shape))
        assert rep.top5_clean is None and rep.top5_perturbed is None
        assert "top5_clean" not in rep.to_dict()

    def test_to_dict_keeps_top5_from_five_classes(self):
        rep = FoolingReport(0.5, 0.25, 0.125, 0.75, 0.625, 8)
        assert rep.to_dict() == {
            "fooling_rate": 0.5, "top1_clean": 0.25, "top1_perturbed": 0.125,
            "top5_clean": 0.75, "top5_perturbed": 0.625, "n_samples": 8}

    def test_empty_dataset(self, trained):
        m, _, _ = trained
        with pytest.raises(EmptyDataset):
            fooling_report(m, np.empty((0, *m.input_shape)), np.empty(0, int),
                           np.zeros(m.input_shape))

    @pytest.mark.parametrize("path", ["direct", "interleaved"])
    def test_universal_pattern_matches_per_sample_reference(self, trained,
                                                            path):
        m, _, held = trained
        xs, ys = held[0][:150], held[1][:150]  # more than two eval blocks
        v = random_noise(m.input_shape, PerturbBudget(0.05), "high", 5)
        flips = top1c = top1p = 0
        for x, y in zip(xs, ys):
            pc = int(np.argmax(forward(m, x[None])[0]))
            pp = int(np.argmax(forward(m, (x + v)[None])[0]))
            flips += pc != pp
            top1c += pc == y
            top1p += pp == y
        n = len(xs)
        want = FoolingReport(flips / n, top1c / n, top1p / n, None, None, n)
        assert fooling_report(m, xs, ys, v, path=path) == want
        assert want.fooling_rate > 0

    def test_top5_matches_per_sample_reference(self):
        m = init_model(4, num_classes=7)
        xs, ys = make_corpus(100, seed=4, num_classes=7)
        v = random_noise(m.input_shape, PerturbBudget(epsilon=0.05), "low", 4)
        top5c = top5p = 0
        for x, y in zip(xs, ys):
            top5c += y in np.argsort(forward(m, x[None])[0])[-5:]
            top5p += y in np.argsort(forward(m, (x + v)[None])[0])[-5:]
        rep = fooling_report(m, xs, ys, v)
        assert (rep.top5_clean, rep.top5_perturbed) == (top5c / 100,
                                                        top5p / 100)
        assert 0 < rep.top5_clean < 1

    def test_interleaved_builds_no_filter_bank(self, trained, filter_banks):
        # the attacked route runs the kernel on the duplicated rows as an array
        m, _, held = trained
        v = random_noise(m.input_shape, PerturbBudget(epsilon=0.05), "low", 1)
        fooling_report(m, *held, v, path="interleaved")
        assert filter_banks == []

    def test_noise_shape_mismatch_same_error_on_both_paths(self, trained):
        m, _, held = trained
        row = np.full((1, 1, 8), 0.01)  # would broadcast if added
        messages = []
        for path in ("direct", "interleaved"):
            with pytest.raises(ShapeMismatch) as e:
                fooling_report(m, held[0][:10], held[1][:10], row, path=path)
            messages.append(str(e.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_perturbation_same_error_on_both_paths(self, trained,
                                                               value):
        m, _, held = trained
        v = np.zeros(m.input_shape)
        v[0, 3, 4] = value
        for path in ("direct", "interleaved"):
            with pytest.raises(ValueError, match="^perturbation holds a NaN "
                                                 "or infinity$"):
                fooling_report(m, held[0][:10], held[1][:10], v, path=path)

    @pytest.mark.parametrize("seed", range(3))
    def test_attack_path_equivalence(self, trained, seed):
        m, _, held = trained
        b = PerturbBudget(epsilon=0.05)
        v = random_noise(m.input_shape, b, "low", seed)
        direct = fooling_report(m, *held, v, path="direct")
        woven = fooling_report(m, *held, v, path="interleaved")
        assert direct == woven

    def test_forward_with_noise_matches_direct(self, trained):
        m, _, held = trained
        v = random_noise(m.input_shape, PerturbBudget(epsilon=0.05), "low", 3)
        for x in held[0][:20]:
            direct = forward(m, (x + v)[None])
            attacked = forward(m, x[None], v)
            assert np.allclose(direct, attacked, rtol=1e-12, atol=1e-12)


class TestCheckpoint:
    def test_roundtrip(self, trained, tmp_path):
        m, _, held = trained
        p = tmp_path / "model.tcnn"
        save_model(m, p)
        back = load_model(p)
        assert np.array_equal(back.conv1.weights, m.conv1.weights)
        assert np.array_equal(back.conv1.bias, m.conv1.bias)
        assert np.array_equal(back.fc_w, m.fc_w)
        assert np.array_equal(back.fc_b, m.fc_b)
        assert back.input_shape == m.input_shape
        xs = held[0][:10]
        assert np.array_equal(predict(back, xs), predict(m, xs))

    def test_magic_and_version(self, trained, tmp_path):
        m, _, _ = trained
        p = tmp_path / "model.tcnn"
        save_model(m, p)
        blob = p.read_bytes()
        assert blob[:4] == b"TCNN"
        assert int.from_bytes(blob[4:8], "little") == 1

    @pytest.mark.parametrize("block, value", [(1, np.nan), (2, np.inf),
                                              (3, -np.inf), (4, np.nan)])
    def test_non_finite_block_rejected(self, tmp_path, block, value):
        m = init_model(0)
        params = [m.conv1.weights.copy(), m.conv1.bias.copy(), m.fc_w.copy(),
                  m.fc_b.copy()]
        params[block - 1].flat[-1] = value
        p = tmp_path / "model.tcnn"
        save_model(TinyCNN(FilterBank(*params[:2]), *params[2:],
                           m.input_shape), p)
        with pytest.raises(FormatError) as e:
            load_model(p)
        assert str(e.value) == f"{p}: block {block} holds a NaN or infinity"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.tcnn"
        p.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(FormatError):
            load_model(p)

    @pytest.mark.parametrize("blob", [b"TCNN", b"TCNN\x01\x00"])
    def test_truncated_version_is_value_error(self, tmp_path, blob):
        p = tmp_path / "short.tcnn"
        p.write_bytes(blob)
        with pytest.raises(FormatError):
            load_model(p)

    @staticmethod
    def _corrupt(path, case):
        """Rewrite the checkpoint at `path` with one defect."""
        with open(path, "rb") as f:
            head = f.read(8)
            meta, conv_w, conv_b, fc_w, fc_b = (read_t3b_stream(f).data
                                                for _ in range(5))
        tail = b""
        if case == "trailing bytes":
            tail = b"\x00"
        elif case == "conv rows not a multiple of in_c":
            conv_w = conv_w[:, 1:, :]
        elif case == "num_classes differs from fc_w rows":
            meta = meta.copy()
            meta[0, 0, 3] += 1
        elif case == "fc_w columns differ from flat features":
            fc_w = fc_w[:, :, 1:]
        elif case == "fc_w block has a second channel":
            fc_w = np.concatenate([fc_w, fc_w])
        elif case == "fc_b length differs from num_classes":
            fc_b = fc_b[:, 1:]
        elif case == "conv_b length differs from conv_w":
            conv_b = conv_b[1:]
        elif case == "kernel larger than the input":
            # a 1x1 input under a 3x3 kernel: without a fit check, the
            # pooled dims (-1 // 2) * (-1 // 2) times 6 filters give the
            # 6 columns of this fc_w
            meta = meta.copy()
            meta[0, 0, 1:3] = 1
            fc_w = fc_w[:, :, :6]
        with open(path, "wb") as f:
            f.write(head)
            for block in (meta, conv_w, conv_b, fc_w, fc_b):
                write_t3b_stream(block, f)
            f.write(tail)

    @pytest.mark.parametrize("case", [
        "trailing bytes", "conv rows not a multiple of in_c",
        "num_classes differs from fc_w rows",
        "fc_w columns differ from flat features",
        "fc_w block has a second channel",
        "fc_b length differs from num_classes",
        "conv_b length differs from conv_w", "kernel larger than the input"])
    def test_inconsistent_checkpoint_rejected(self, tmp_path, case):
        p = tmp_path / "model.tcnn"
        save_model(init_model(0, input_shape=(2, 8, 8)), p)
        assert load_model(p).input_shape == (2, 8, 8)
        self._corrupt(p, case)
        with pytest.raises(FormatError, match=re.escape(f"{p}: ")):
            load_model(p)

    def test_every_corrupt_byte_loads_or_names_the_file(self, tmp_path):
        p = tmp_path / "model.tcnn"
        save_model(init_model(0), p)
        blob = p.read_bytes()
        for i in range(len(blob)):
            bad = bytearray(blob)
            bad[i] ^= 0xFF
            p.write_bytes(bad)
            try:
                load_model(p)
            except FormatError as e:
                # named once: a stream error is not prefixed again; and one
                # line, as the CLI's `error:` message must be
                assert str(e).startswith(f"{p}: ") and \
                    str(e).count(str(p)) == 1 and "\n" not in str(e), \
                    (i, str(e))

    @pytest.fixture(scope="class")
    def checkpoint_body(self, tmp_path_factory):
        """The bytes after the 8-byte header of an init_model(0) checkpoint."""
        p = tmp_path_factory.mktemp("body") / "model.tcnn"
        save_model(init_model(0, input_shape=(2, 8, 8)), p)
        return p.read_bytes()[8:]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_tail_loads_or_raises_format_error(self, checkpoint_body,
                                                   tmp_path_factory, data):
        # random bytes rarely frame a block; a few bytes of a real
        # checkpoint changed, then cut or extended, reach every check
        if data.draw(st.booleans()):
            tail = data.draw(st.binary(max_size=64))
        else:
            tail = bytearray(checkpoint_body)
            for i, v in data.draw(st.lists(st.tuples(
                    st.integers(0, len(tail) - 1), st.integers(0, 255)),
                    max_size=5)):
                tail[i] = v
            tail = tail[:data.draw(st.integers(0, len(tail)))] + \
                data.draw(st.binary(max_size=4))
        p = tmp_path_factory.getbasetemp() / "fuzzed.tcnn"
        p.write_bytes(b"TCNN\x01\0\0\0" + tail)
        try:
            model = load_model(p)
        except FormatError as e:
            assert str(e).startswith(f"{p}: ") and \
                str(e).count(str(p)) == 1 and "\n" not in str(e), str(e)
            return
        # a checkpoint that loads is a model that runs
        assert forward(model, np.zeros((1, *model.input_shape))).shape == \
            (1, model.num_classes)
