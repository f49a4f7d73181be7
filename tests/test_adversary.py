import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advweave.adversary import (FoolingReport, PerturbBudget, TrainConfig,
                                backward, backward_batch, clip_adversarial,
                                craft_uap, cross_entropy, fgsm,
                                fooling_report, forward, forward_batch,
                                init_model, load_model, make_corpus, predict,
                                predict_batch, random_noise, save_model,
                                softmax, train)
from advweave.conv import FilterBank
from advweave.errors import EmptyDataset, ShapeMismatch
from advweave.tensor import (Tensor3, linf_norm, read_t3b_stream,
                             write_t3b_stream)


def loss_of(model, x, y):
    return cross_entropy(forward(model, x)[0], y)


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
                            acc += w[o, c, j, k] * x.data[c, m + j, n + k]
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
        logits, _ = forward(m2, Tensor3(np.zeros(m.input_shape)))
        assert np.array_equal(logits, bias)

    def test_softmax_sums_to_one(self):
        m = init_model(1)
        rng = np.random.default_rng(2)
        for _ in range(10):
            logits, _ = forward(m, Tensor3(rng.uniform(0, 1, m.input_shape)))
            assert abs(softmax(logits).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_reimplementation(self, seed):
        m = init_model(seed)
        x = Tensor3(np.random.default_rng(seed + 50).uniform(0, 1, m.input_shape))
        logits, _ = forward(m, x)
        assert np.allclose(logits, naive_forward(m, x), rtol=1e-10, atol=1e-12)

    def test_shape_mismatch(self):
        m = init_model(0)
        with pytest.raises(ShapeMismatch):
            forward(m, Tensor3(np.zeros((2, 8, 8))))

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
        batched, _ = forward_batch(m, xs)
        single = np.stack([forward(m, Tensor3(x))[0] for x in xs])
        scale = max(np.abs(single).max(), 1e-300)
        assert np.abs(batched - single).max() <= 1e-12 * scale
        direct, _ = forward_batch(m, xs + v)
        woven, _ = forward_batch(m, xs, v)
        scale = max(np.abs(direct).max(), 1e-300)
        assert np.abs(direct - woven).max() <= 1e-12 * scale
        assert np.array_equal(predict_batch(m, [Tensor3(x) for x in xs]),
                              single.argmax(axis=1))

    def test_cross_entropy_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.uniform(-5, 5, 4)
            assert cross_entropy(logits, int(rng.integers(4))) >= 0


class TestBackward:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_gradients_match_finite_differences(self, seed):
        m = init_model(seed)
        rng = np.random.default_rng(seed + 100)
        x = Tensor3(rng.uniform(0, 1, m.input_shape))
        y = int(rng.integers(m.num_classes))
        g = backward(m, x, y)
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
        xd = x.data.copy()
        for idx in np.ndindex(xd.shape):
            orig = xd[idx]
            xd[idx] = orig + h
            lp = loss_of(m, Tensor3(xd), y)
            xd[idx] = orig - h
            lm = loss_of(m, Tensor3(xd), y)
            xd[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g.input[idx]), 1e-8)
            assert abs(fd - g.input[idx]) / denom < 1e-4

    def test_loss_decreases_when_overfitting_one_sample(self):
        m = init_model(7)
        x = Tensor3(np.random.default_rng(8).uniform(0, 1, m.input_shape))
        losses = [loss_of(m, x, 1)]
        for _ in range(30):
            m = train(m, [(x, 1)], TrainConfig(0.2, 1, 1, 0))
            losses.append(loss_of(m, x, 1))
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_bad_label(self):
        m = init_model(0)
        with pytest.raises(ValueError):
            backward(m, Tensor3(np.zeros(m.input_shape)), 99)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_sums_per_sample_gradients(self, seed):
        m = init_model(seed, input_shape=(2, 8, 8))
        rng = np.random.default_rng(seed + 200)
        xs = rng.uniform(0, 1, (5, 2, 8, 8))
        ys = rng.integers(0, m.num_classes, 5)
        g = backward_batch(m, xs, ys)
        singles = [backward(m, Tensor3(x), int(y)) for x, y in zip(xs, ys)]
        for name in ("conv_w", "conv_b", "fc_w", "fc_b"):
            want = sum(getattr(s, name) for s in singles)
            assert np.allclose(getattr(g, name), want, rtol=1e-12,
                               atol=1e-14), name
        assert np.allclose(g.input, np.stack([s.input for s in singles]),
                           rtol=1e-12, atol=1e-14)


class TestTrain:
    def make_separable_2class(self, n=60, seed=0):
        # linearly separable toy set: bright left half vs bright right half
        rng = np.random.default_rng(seed)
        data = []
        for _ in range(n):
            y = int(rng.integers(2))
            img = rng.uniform(0, 0.1, (1, 8, 8))
            if y == 0:
                img[0, :, :4] += 0.8
            else:
                img[0, :, 4:] += 0.8
            data.append((Tensor3(img), y))
        return data

    @pytest.mark.parametrize("seed", range(5))
    def test_separable_toy_set_reaches_95pct(self, seed):
        data = self.make_separable_2class(seed=seed)
        m = init_model(seed, num_classes=4)
        m = train(m, data, TrainConfig(0.1, 15, 8, seed))
        acc = sum(predict(m, x) == y for x, y in data) / len(data)
        assert acc >= 0.95

    def test_zero_learning_rate_keeps_weights(self):
        data = self.make_separable_2class(n=10)
        m = init_model(0)
        m2 = train(m, data, TrainConfig(0.0, 2, 4, 0))
        assert np.array_equal(m.conv1.weights, m2.conv1.weights)
        assert np.array_equal(m.fc_w, m2.fc_w)

    def test_same_seed_identical_weights(self):
        data = self.make_separable_2class(n=20)
        m = init_model(0)
        a = train(m, data, TrainConfig(0.1, 3, 4, 5))
        b = train(m, data, TrainConfig(0.1, 3, 4, 5))
        assert np.array_equal(a.conv1.weights, b.conv1.weights)
        assert np.array_equal(a.conv1.bias, b.conv1.bias)
        assert np.array_equal(a.fc_w, b.fc_w)
        assert np.array_equal(a.fc_b, b.fc_b)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train(init_model(0), [], TrainConfig())

    def test_wrongly_shaped_sample(self):
        data = self.make_separable_2class(n=10)
        data[7] = (Tensor3(np.zeros((1, 8, 7))), 0)
        with pytest.raises(ShapeMismatch):
            train(init_model(0), data, TrainConfig(0.1, 1, 4, 0))

    @pytest.mark.parametrize("label", [-1, 4])
    def test_out_of_range_label(self, label):
        data = self.make_separable_2class(n=10)
        data[7] = (data[7][0], label)
        with pytest.raises(ValueError, match="out of range"):
            train(init_model(0), data, TrainConfig(0.1, 1, 4, 0))


class TestFGSM:
    def test_zero_epsilon(self):
        m = init_model(0)
        x = Tensor3(np.random.default_rng(1).uniform(0, 1, m.input_shape))
        eta = fgsm(m, x, 0, PerturbBudget(epsilon=0.0))
        assert np.all(eta.data == 0)

    def test_sign_values_only(self):
        m = init_model(0)
        x = Tensor3(np.random.default_rng(2).uniform(0, 1, m.input_shape))
        eps = 0.05
        eta = fgsm(m, x, 1, PerturbBudget(epsilon=eps))
        assert set(np.unique(eta.data)) <= {-eps, 0.0, eps}

    def test_sign_definition(self):
        # components follow sign(grad) exactly: {0.3, -0.2, 0} -> {e, -e, 0}
        g = np.array([0.3, -0.2, 0.0])
        eta = 0.1 * np.sign(g)
        assert list(eta) == [0.1, -0.1, 0.0]

    def test_budget_cap_enforced(self):
        with pytest.raises(ValueError):
            PerturbBudget(epsilon=0.2, relative_cap=0.05, max_magnitude=1.0)

    def test_clip_adversarial_stays_in_range(self):
        m = init_model(0)
        x = Tensor3(np.random.default_rng(3).uniform(0, 1, m.input_shape))
        eta = fgsm(m, x, 0, PerturbBudget(epsilon=0.05))
        adv = clip_adversarial(x, eta)
        assert adv.data.min() >= 0.0 and adv.data.max() <= 1.0


class TestRandomNoise:
    def test_low_mode_within_5pct(self):
        b = PerturbBudget(epsilon=0.05)
        n = random_noise((1, 8, 8), b, "low", 0)
        assert linf_norm(n) <= 0.05 * 1.0

    def test_high_mode_within_image_magnitude(self):
        b = PerturbBudget(epsilon=0.05, max_magnitude=1.0)
        n = random_noise((1, 8, 8), b, "high", 0)
        assert linf_norm(n) <= 1.0
        assert linf_norm(n) > 0.05  # actually uses the full range

    def test_seed_determinism(self):
        b = PerturbBudget(epsilon=0.05)
        assert random_noise((1, 4, 4), b, "low", 9) == \
            random_noise((1, 4, 4), b, "low", 9)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            random_noise((1, 4, 4), PerturbBudget(epsilon=0.01), "medium", 0)


@pytest.fixture(scope="module")
def trained():
    corpus = make_corpus(300, seed=0)
    held = make_corpus(200, seed=1)
    m = train(init_model(0), corpus, TrainConfig(0.1, 40, 8, 0))
    return m, corpus, held


class TestCraftUAP:
    def test_zero_budget_gives_zero(self, trained):
        m, corpus, _ = trained
        v = craft_uap(m, [x for x, _ in corpus[:20]], PerturbBudget(epsilon=0.0))
        assert np.all(v.data == 0)

    def test_budget_projection_invariant(self, trained):
        m, corpus, _ = trained
        b = PerturbBudget(epsilon=0.05)
        v = craft_uap(m, [x for x, _ in corpus[:100]], b, max_iters=6)
        assert linf_norm(v) <= b.epsilon + 1e-12

    def test_empty_sample_set(self, trained):
        m, _, _ = trained
        with pytest.raises(EmptyDataset):
            craft_uap(m, [], PerturbBudget(epsilon=0.05))

    def test_beats_random_noise_on_held_out(self, trained):
        m, corpus, held = trained
        b = PerturbBudget(epsilon=0.05)
        v = craft_uap(m, [x for x, _ in corpus[:150]], b, max_iters=12)
        rn = random_noise(m.input_shape, b, "low", 777)
        assert fooling_report(m, held, v).fooling_rate > \
            fooling_report(m, held, rn).fooling_rate


class TestFoolingReport:
    def test_zero_perturbation(self, trained):
        m, _, held = trained
        zero = Tensor3(np.zeros(m.input_shape))
        rep = fooling_report(m, held, zero)
        assert rep.fooling_rate == 0.0
        assert rep.top1_perturbed == rep.top1_clean
        assert rep.n_samples == len(held)

    def test_top5_omitted_below_5_classes(self, trained):
        m, _, held = trained
        rep = fooling_report(m, held, Tensor3(np.zeros(m.input_shape)))
        assert rep.top5_clean is None and rep.top5_perturbed is None
        assert "top5_clean" not in rep.to_dict()

    def test_forced_flip_gives_rate_one(self, trained):
        # per-sample generator that always pushes toward a different class:
        # a synthetic negative control, not a realistic perturbation
        m, _, held = trained

        def flip_generator(x):
            pred = predict(m, x)
            target = (pred + 1) % m.num_classes
            # huge budget noise crafted per sample until the label flips
            g = backward(m, x, target)
            v = -np.sign(g.input)  # descend target loss hard
            return Tensor3(5.0 * v)

        rep = fooling_report(m, held[:30], flip_generator)
        assert rep.fooling_rate == 1.0

    def test_empty_dataset(self, trained):
        m, _, _ = trained
        with pytest.raises(EmptyDataset):
            fooling_report(m, [], Tensor3(np.zeros(m.input_shape)))

    @pytest.mark.parametrize("path", ["direct", "interleaved"])
    def test_callable_matches_per_sample_reference(self, trained, path):
        m, _, held = trained
        held = held[:150]  # more than two evaluation blocks

        def per_sample(x):
            return fgsm(m, x, predict(m, x), PerturbBudget(epsilon=0.05))

        flips = top1c = top1p = 0
        for x, y in held:
            pc = int(np.argmax(forward(m, x)[0]))
            pp = int(np.argmax(forward(m, x + per_sample(x))[0]))
            flips += pc != pp
            top1c += pc == y
            top1p += pp == y
        n = len(held)
        want = FoolingReport(flips / n, top1c / n, top1p / n, None, None, n)
        assert fooling_report(m, held, per_sample, path=path) == want
        assert want.fooling_rate > 0

    def test_top5_matches_per_sample_reference(self):
        m = init_model(4, num_classes=7)
        data = make_corpus(100, seed=4, num_classes=7)
        v = random_noise(m.input_shape, PerturbBudget(epsilon=0.05), "low", 4)
        top5c = top5p = 0
        for x, y in data:
            top5c += y in np.argsort(forward(m, x)[0])[-5:]
            top5p += y in np.argsort(forward(m, x + v)[0])[-5:]
        rep = fooling_report(m, data, v)
        assert (rep.top5_clean, rep.top5_perturbed) == (top5c / 100,
                                                        top5p / 100)
        assert 0 < rep.top5_clean < 1

    def test_noise_shape_mismatch_same_error_on_both_paths(self, trained):
        m, _, held = trained
        row = Tensor3(np.full((1, 1, 8), 0.01))  # would broadcast if added
        messages = []
        for path in ("direct", "interleaved"):
            for perturbation in (row, lambda x: row):
                with pytest.raises(ShapeMismatch) as e:
                    fooling_report(m, held[:10], perturbation, path=path)
                messages.append(str(e.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_attack_path_equivalence(self, trained, seed):
        m, _, held = trained
        b = PerturbBudget(epsilon=0.05)
        v = random_noise(m.input_shape, b, "low", seed)
        direct = fooling_report(m, held, v, path="direct")
        woven = fooling_report(m, held, v, path="interleaved")
        assert direct == woven

    def test_forward_with_noise_matches_direct(self, trained):
        m, _, held = trained
        v = random_noise(m.input_shape, PerturbBudget(epsilon=0.05), "low", 3)
        for x, _ in held[:20]:
            direct, _ = forward(m, Tensor3(x.data + v.data))
            attacked, _ = forward(m, x, v)
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
        for x, _ in held[:10]:
            assert predict(back, x) == predict(m, x)

    def test_magic_and_version(self, trained, tmp_path):
        m, _, _ = trained
        p = tmp_path / "model.tcnn"
        save_model(m, p)
        blob = p.read_bytes()
        assert blob[:4] == b"TCNN"
        assert int.from_bytes(blob[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.tcnn"
        p.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(ValueError):
            load_model(p)

    @pytest.mark.parametrize("blob", [b"TCNN", b"TCNN\x01\x00"])
    def test_truncated_version_is_value_error(self, tmp_path, blob):
        p = tmp_path / "short.tcnn"
        p.write_bytes(blob)
        with pytest.raises(ValueError):
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
        with open(path, "wb") as f:
            f.write(head)
            for block in (meta, conv_w, conv_b, fc_w, fc_b):
                write_t3b_stream(Tensor3(block), f)
            f.write(tail)

    @pytest.mark.parametrize("case", [
        "trailing bytes", "conv rows not a multiple of in_c",
        "num_classes differs from fc_w rows",
        "fc_w columns differ from flat features",
        "fc_w block has a second channel"])
    def test_inconsistent_checkpoint_rejected(self, tmp_path, case):
        p = tmp_path / "model.tcnn"
        save_model(init_model(0, input_shape=(2, 8, 8)), p)
        assert load_model(p).input_shape == (2, 8, 8)
        self._corrupt(p, case)
        with pytest.raises(ValueError):
            load_model(p)
