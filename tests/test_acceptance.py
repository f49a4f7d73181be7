"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import json
import time

import numpy as np
import pytest

from advweave.accel import SystolicConfig, compare_attack_footprint, \
    layout_rows, stream_rows
from advweave.adversary import (PerturbBudget, TrainConfig, backward,
                                craft_uap, cross_entropy, fgsm,
                                fooling_report, forward, init_model,
                                make_corpus, random_noise, train)
from advweave.cli import main, random_instance
from advweave.tensor import QuantSpec, Tensor3, bit_stats, linf_norm, quantize
from advweave.weave import attacked_conv, interleave_rows
from advweave.conv import conv2d


def ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_criterion_1_equivalence_theorem():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    for _ in range(1000):
        image, noise, filters, geom = random_instance(rng, max_dim=16)
        got = attacked_conv(image, noise, filters, geom)
        want = conv2d(image + noise, filters, geom)
        assert got == want, "integer instance not bit-exact"
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"1000 integer trials took {elapsed:.1f}s"
    for _ in range(100):
        image, noise, filters, geom = random_instance(rng, max_dim=16,
                                                      float_mode=True)
        got = attacked_conv(image, noise, filters, geom).data
        want = conv2d(image + noise, filters, geom).data
        ref = max(float(np.abs(want).max()), 1e-300)
        assert np.abs(got - want).max() <= 1e-9 * ref
    ok(1, f"(1000 integer trials bit-exact in {elapsed:.2f}s; "
          "float variant <= 1e-9 relative)")


def test_criterion_2_mac_doubling_zero_skip_off():
    rng = np.random.default_rng(99)
    cfg = SystolicConfig(8, 8, zero_skip=False)
    for _ in range(100):
        image, noise, filters, geom = random_instance(rng, max_dim=12)
        cmp = compare_attack_footprint(image, noise, filters, geom, cfg)
        assert cmp.attacked.mac_issued == 2 * cmp.clean.mac_issued
    ok(2, "(attacked mac_issued == 2x clean on 100 instances)")


def test_criterion_3_mac_decomposition_zero_skip_on():
    rng = np.random.default_rng(100)
    cfg = SystolicConfig(8, 8, zero_skip=True)
    for _ in range(100):
        image, noise, filters, geom = random_instance(rng, max_dim=12)
        sparse = Tensor3(noise.data * (rng.random(noise.shape) < 0.4))
        cmp = compare_attack_footprint(image, sparse, filters, geom, cfg)
        assert cmp.attacked.mac_executed == \
            cmp.clean.mac_executed + cmp.noise_only.mac_executed
    ok(3, "(executed MACs decompose exactly on 100 sparse instances)")


def test_criterion_4_gradient_check():
    t0 = time.time()
    h = 1e-5
    for seed in (3, 11, 42):
        model = init_model(seed)
        rng = np.random.default_rng(seed + 100)
        x = Tensor3(rng.uniform(0, 1, model.input_shape))
        y = int(rng.integers(model.num_classes))
        g = backward(model, x.data[None], [y])

        def loss():
            return cross_entropy(forward(model, x.data[None])[0][0], y)

        def fd_check(arr, grad):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = loss()
                arr[idx] = orig - h
                lm = loss()
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / denom < 1e-4

        fd_check(model.conv1.weights, g.conv_w)
        fd_check(model.conv1.bias, g.conv_b)
        fd_check(model.fc_w, g.fc_w)
        fd_check(model.fc_b, g.fc_b)
        xd = x.data.copy()
        for idx in np.ndindex(xd.shape):
            orig = xd[idx]
            xd[idx] = orig + h
            lp = cross_entropy(forward(model, xd[None])[0][0], y)
            xd[idx] = orig - h
            lm = cross_entropy(forward(model, xd[None])[0][0], y)
            xd[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g.input[0][idx]), 1e-8)
            assert abs(fd - g.input[0][idx]) / denom < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 30.0
    ok(4, f"(all gradients within 1e-4 of finite differences, {elapsed:.1f}s)")


def test_criterion_5_fgsm_contract():
    model = init_model(0)
    rng = np.random.default_rng(1)
    eps = 0.05
    for _ in range(10):
        x = Tensor3(rng.uniform(0, 1, model.input_shape))
        eta = fgsm(model, x, int(rng.integers(4)), PerturbBudget(epsilon=eps))
        assert set(np.unique(eta.data)) <= {-eps, 0.0, eps}
    x = Tensor3(rng.uniform(0, 1, model.input_shape))
    assert np.all(fgsm(model, x, 0, PerturbBudget(epsilon=0.0)).data == 0)
    ok(5, "(components in {-eps, 0, +eps}; eps=0 gives zero perturbation)")


def test_criterion_6_fooling_separation():
    uap_fool, rnd_fool, uap_top1, rnd_top1 = [], [], [], []
    budget = PerturbBudget(epsilon=0.05)
    for seed in range(5):
        train_xs, train_ys = make_corpus(300, seed=seed * 10)
        held_xs, held_ys = make_corpus(200, seed=seed * 10 + 1)
        model = train(init_model(seed), train_xs, train_ys,
                      TrainConfig(0.1, 40, 8, seed))
        v = craft_uap(model, train_xs[:150], budget, max_iters=12)
        rn = random_noise(model.input_shape, budget, "low", seed + 777)
        ru = fooling_report(model, held_xs, held_ys, v)
        rr = fooling_report(model, held_xs, held_ys, rn)
        uap_fool.append(ru.fooling_rate)
        rnd_fool.append(rr.fooling_rate)
        uap_top1.append(ru.top1_perturbed)
        rnd_top1.append(rr.top1_perturbed)
    assert np.mean(uap_fool) > np.mean(rnd_fool), \
        f"UAP {np.mean(uap_fool):.3f} !> random {np.mean(rnd_fool):.3f}"
    assert np.mean(uap_top1) < np.mean(rnd_top1), \
        f"UAP top1 {np.mean(uap_top1):.3f} !< random {np.mean(rnd_top1):.3f}"
    ok(6, f"(mean fooling: UAP {np.mean(uap_fool):.3f} > "
          f"random {np.mean(rnd_fool):.3f}; mean top-1: UAP "
          f"{np.mean(uap_top1):.3f} < random {np.mean(rnd_top1):.3f})")


def test_criterion_7_4bit_digitization():
    # 8-bit image scale: one integer step = 1/255 of the pixel range
    q = QuantSpec(magnitude_bits=4, signed=True, scale=1.0 / 255.0)
    rng = np.random.default_rng(5)
    worst = Tensor3(np.full((3, 8, 8), 0.05))  # saturated budget, worst case
    cases = [worst, Tensor3(-worst.data)]
    for seed in range(20):
        cases.append(random_noise((1, 8, 8), PerturbBudget(epsilon=0.05),
                                  "low", seed))
    cases.append(Tensor3(rng.uniform(-0.05, 0.05, (3, 16, 16))))
    for v in cases:
        assert linf_norm(v) <= 0.05
        stats = bit_stats(quantize(v, q))
        assert stats.max_magnitude_bits <= 4
    ok(7, "(every eps=0.05 perturbation quantizes to <= 4 magnitude bits)")


def test_criterion_8_cmd_eval_path_equivalence(tmp_path, capsys):
    ckpt = str(tmp_path / "model.tcnn")
    assert main(["train", "--model", ckpt, "--seed", "0", "--epochs", "20",
                 "--samples", "200"]) == 0
    v_path = str(tmp_path / "v.t3b")
    assert main(["craft", "--model", ckpt, "--out", v_path, "--iters", "6",
                 "--samples", "100"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", ckpt, "--noise", v_path, "--path",
                 "direct", "--samples", "150", "--seed", "2"]) == 0
    direct = json.loads(capsys.readouterr().out)["payload"]
    assert main(["eval", "--model", ckpt, "--noise", v_path, "--path",
                 "interleaved", "--samples", "150", "--seed", "2"]) == 0
    woven = json.loads(capsys.readouterr().out)["payload"]
    assert direct == woven
    assert direct["fooling_rate"] == woven["fooling_rate"]
    assert direct["top1_perturbed"] == woven["top1_perturbed"]
    with capsys.disabled():
        ok(8, f"(direct and interleaved eval payloads identical: "
              f"fooling_rate {direct['fooling_rate']:.3f})")


def test_criterion_9_memory_layout_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        image = Tensor3(rng.integers(-128, 128, (c, h, w)))
        noise = Tensor3(rng.integers(-16, 17, (c, h, w)))
        mem = layout_rows(image, noise)
        assert stream_rows(mem, image, noise) == \
            interleave_rows(image, noise)
    ok(9, "(streamed attacked layout reconstructs woven tensor, 100 images)")


def test_criterion_10_manifest_determinism(capsys):
    args = ["verify-equivalence", "--trials", "40", "--seed", "11",
            "--max-dim", "12"]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    manifest = json.loads(out1.splitlines()[-1])["manifest"]
    # rebuild the command line from the embedded manifest alone
    argv = [manifest["command"], "--seed", str(manifest["seed"])]
    for key in ("trials", "max_dim"):
        argv += ["--" + key.replace("_", "-"),
                 str(manifest["parameters"][key])]
    if manifest["parameters"]["float"]:
        argv.append("--float")
    if manifest["parameters"]["sabotage"]:
        argv.append("--sabotage")
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    with capsys.disabled():
        ok(10, "(re-run from embedded manifest is byte-identical)")
