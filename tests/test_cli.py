import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from advweave.adversary import (PerturbBudget, TrainConfig, fooling_report,
                                init_model, load_model, make_corpus,
                                random_noise, save_model)
from advweave.cli import build_parser, main, random_instance
from advweave.conv import conv2d_nchw
from advweave.tensor import read_t3b_stream, write_t3b, write_t3b_stream
from advweave.weave import attacked_conv_nchw


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(line):
    """json.loads that rejects the NaN, Infinity and -Infinity extensions."""
    return json.loads(line, parse_constant=_reject_constant)


def run(capsys, *argv):
    """Run one command; every stdout line must be strict JSON."""
    code = main(list(argv))
    out = capsys.readouterr()
    for line in out.out.splitlines():
        strict_json(line)
    return code, out.out, out.err


def jsonl(text):
    return [strict_json(line) for line in text.splitlines() if line]


@pytest.fixture
def sim_files(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(1, 9, (1, 8, 8))   # dense: no zeros
    noise = rng.integers(1, 5, (1, 8, 8))
    filt = rng.integers(1, 4, (2, 3, 3))    # 2 filters, 1 in-channel
    paths = {}
    for name, t in [("image", image), ("noise", noise), ("filters", filt)]:
        p = tmp_path / f"{name}.t3b"
        write_t3b(t, p)
        paths[name] = str(p)
    return paths, tmp_path


class TestVerifyEquivalence:
    def test_exit_zero_and_jsonl(self, capsys):
        code, out, err = run(capsys, "verify-equivalence", "--trials", "50",
                             "--seed", "1")
        assert code == 0
        lines = jsonl(out)
        assert len(lines) == 51  # 50 trials + manifest/summary line
        assert all(l["exact"] for l in lines[:-1])
        assert lines[-1]["payload"] == {"trials": 50, "failures": 0}
        assert lines[-1]["manifest"]["command"] == "verify-equivalence"

    def test_sabotage_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify-equivalence", "--trials", "20",
                           "--seed", "1", "--sabotage")
        assert code == 1
        assert jsonl(out)[-1]["payload"]["failures"] > 0

    @pytest.mark.parametrize("float_mode", [False, True],
                             ids=["integer", "float"])
    def test_sabotage_trial_by_trial(self, capsys, float_mode):
        # every line is the comparison of the full outputs: conv(image +
        # noise) against the attacked conv of noise with row 0 raised by 1
        flags = ["--float"] if float_mode else []
        code, out, _ = run(capsys, "verify-equivalence", "--trials", "200",
                           "--seed", "0", "--sabotage", *flags)
        lines = jsonl(out)
        assert len(lines) == 201
        rng = np.random.default_rng(0)
        failures = 0
        for line in lines[:-1]:
            image, noise, filters, geom = random_instance(rng, 16, float_mode)
            wrong = noise.copy()
            wrong[:, 0, :] += 1
            direct = conv2d_nchw((image + noise)[None], filters, geom)
            attacked = attacked_conv_nchw(image[None], wrong, filters, geom)
            diff = float(np.abs(direct.astype(np.float64)
                                - attacked.astype(np.float64)).max())
            if float_mode:
                exact = diff <= 1e-9 * (float(np.abs(direct).max()) or 1.0)
            else:
                exact = np.array_equal(direct, attacked)
                # the bench control's rule: only filter row 0 of output row
                # 0 reads noise row 0, so each output there moves by the
                # sum of its filter's row 0
                assert exact == (not np.any(
                    filters.weights[:, :, 0, :].sum(axis=(1, 2))))
            assert (line["max_abs_diff"], line["exact"]) == (diff, exact)
            failures += not exact
        assert 0 < failures
        assert lines[-1]["payload"] == {"trials": 200, "failures": failures}
        assert code == 1

    def test_zero_trials_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-equivalence", "--trials", "0")
        assert code == 2

    def test_max_dim_below_two_names_the_flag(self, capsys):
        code, _, err = run(capsys, "verify-equivalence", "--max-dim", "1")
        assert code == 2
        assert err.startswith("error: --max-dim")
        assert len(err.splitlines()) == 1

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "verify-equivalence", "--trials", "20",
                           "--seed", "3", "--float")
        assert code == 0

    @pytest.mark.parametrize("float_mode", [False, True],
                             ids=["integer", "float"])
    def test_trial_draw_digests(self, float_mode):
        # sha256 of every operand of 200 seed-0 trials, per operand: the
        # draws alone, so they hold on any host, --float included (whose
        # stdout goes through BLAS); the bench's --sabotage control draws
        # its trials again through random_instance
        digests = {
            False: {"image": "276a73fa57e403ac6ab63d2b57c0d328"
                             "475564aa09ac4172f0ecee000761d7da",
                    "noise": "1e81c9f54978b0504b5b873cae377db0"
                             "97ac178035c5cf52ea9cb8d6336a4dab",
                    "weights": "fc0fda62684d484b87d617be92a116d7"
                               "4ab59cc96ecfe4bfd71aaefa5c53246b",
                    "bias": "8c2235b3a166fcaad856e7c51ce2e11f"
                            "c35bf23021cfce63e7558f08bf64cbfc",
                    "geometry": "5e6dd5ebbce9669bcc0a673d7f1ff17c"
                                "a7421e7c578541ff93150ad346c89b09"},
            True: {"image": "a40e0f9e690f20088e954c4f6d141fe3"
                            "ed0d4f71c7864ebad31aee166e111216",
                   "noise": "48b1b2a4a1ac52cdb312ad2e0ead062b"
                            "3af00b6c0876d86bd5b307e9e9cbb668",
                   "weights": "e40a4ca3c2664fd4296174e3a6695cac"
                              "ac9f7acabccaa4ebfd25d7943d676924",
                   "bias": "2ff35836fca1703c496b740b78f1568c"
                           "73eecda1db8507c846c7933be450b347",
                   "geometry": "e0dbb10aa7aae0d100f763473597cacb"
                               "19ed132e1a1f295b0baf221423b03caa"}}
        rng = np.random.default_rng(0)
        hashes = {name: hashlib.sha256() for name in digests[float_mode]}
        for _ in range(200):
            image, noise, filters, geom = random_instance(rng, 16, float_mode)
            for name, a in (("image", image), ("noise", noise),
                            ("weights", filters.weights),
                            ("bias", filters.bias)):
                hashes[name].update(f"{a.dtype.str}{a.shape}".encode())
                hashes[name].update(a.tobytes())
            hashes["geometry"].update(f"{geom.stride_v},{geom.stride_h},"
                                      f"{geom.pad_h},{geom.pad_w};".encode())
        assert {name: h.hexdigest() for name, h in hashes.items()} \
            == digests[float_mode]


class CountingGenerator:
    """A Generator that forwards every method call and counts them."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def draw_trials(float_mode, trials=2000, max_dim=16):
    rng = np.random.default_rng(0)
    return [random_instance(rng, max_dim, float_mode) for _ in range(trials)]


class TestRandomInstance:
    @pytest.mark.parametrize("float_mode", [False, True],
                             ids=["integer", "float"])
    def test_two_generator_calls_per_trial(self, float_mode):
        # one call for the shape, one for every value: a call costs far
        # more than the values it draws
        rng = CountingGenerator(np.random.default_rng(0))
        plain = np.random.default_rng(0)
        for trial in range(1, 101):
            image, noise, filters, geom = random_instance(rng, 16, float_mode)
            assert rng.calls == 2 * trial
            # the proxy only counts: the draws are the plain Generator's
            want = random_instance(plain, 16, float_mode)
            for a, b in ((image, want[0]), (noise, want[1]),
                         (filters.weights, want[2].weights),
                         (filters.bias, want[2].bias)):
                assert np.array_equal(a, b)
            assert geom == want[3]

    @pytest.mark.parametrize("float_mode", [False, True],
                             ids=["integer", "float"])
    def test_shape_fields_cover_their_ranges(self, float_mode):
        fields = {name: set() for name in
                  ("c", "h", "w", "out_ch", "sv", "sh")}
        kernels = {"kh": set(), "kw": set()}  # (input dim, kernel dim)
        for image, noise, filters, geom in draw_trials(float_mode):
            c, h, w = image.shape
            out_ch, in_ch, kh, kw = filters.weights.shape
            assert noise.shape == image.shape and in_ch == c
            assert filters.bias.shape == (out_ch,)
            # unpadded: the bench's --sabotage check counts a trial exact
            # exactly when every filter's row 0 sums to zero, which holds
            # only while noise row 0 is read by filter row 0 of output
            # row 0 alone
            assert (geom.pad_h, geom.pad_w) == (0, 0)
            for name, value in (("c", c), ("h", h), ("w", w),
                                ("out_ch", out_ch), ("sv", geom.stride_v),
                                ("sh", geom.stride_h)):
                fields[name].add(value)
            kernels["kh"].add((h, kh))
            kernels["kw"].add((w, kw))
        assert fields == {"c": {1, 2, 3}, "h": set(range(2, 17)),
                          "w": set(range(2, 17)), "out_ch": {1, 2, 3},
                          "sv": {1, 2}, "sh": {1, 2}}
        # every kernel dim from 1 to min(4, input dim) for every input dim,
        # and none larger
        every = {(d, k) for d in range(2, 17) for k in range(1, min(4, d) + 1)}
        assert kernels == {"kh": every, "kw": every}

    def test_integer_values_cover_their_ranges(self):
        trials = draw_trials(False)
        values = {name: np.concatenate([a.ravel() for a in arrays])
                  for name, arrays in (
                      ("image", [t[0] for t in trials]),
                      ("noise", [t[1] for t in trials]),
                      ("params", [a for t in trials
                                  for a in (t[2].weights, t[2].bias)]))}
        for name, (lo, hi) in (("image", (-128, 127)), ("noise", (-16, 16)),
                               ("params", (-8, 8))):
            assert values[name].dtype == np.int64
            assert np.array_equal(np.unique(values[name]),
                                  np.arange(lo, hi + 1)), name

    def test_float_values_in_unit_interval(self):
        for image, noise, filters, _ in draw_trials(True):
            for a in (image, noise, filters.weights, filters.bias):
                assert a.dtype == np.float64
                assert -1 <= a.min() and a.max() < 1

    @pytest.mark.parametrize("float_mode", [False, True],
                             ids=["integer", "float"])
    def test_max_dim_two(self, float_mode):
        for image, _, filters, _ in draw_trials(float_mode, 200, max_dim=2):
            assert image.shape[1:] == (2, 2)
            assert filters.kernel_h <= 2 and filters.kernel_w <= 2

    @pytest.mark.parametrize("max_dim", [1, 0, -3])
    def test_max_dim_below_two_rejected(self, max_dim):
        # a shape draw of u * (max_dim - 1) would give 2x2 or worse images
        with pytest.raises(ValueError, match="max_dim must be >= 2"):
            random_instance(np.random.default_rng(0), max_dim)


class TestSimulate:
    def test_doubling_zero_skip_off(self, capsys, sim_files):
        paths, _ = sim_files
        code, out, _ = run(capsys, "simulate", "--image", paths["image"],
                           "--noise", paths["noise"], "--filters",
                           paths["filters"], "--zero-skip", "off")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["attacked"]["mac_issued"] == \
            2 * payload["clean"]["mac_issued"]

    def test_zero_noise_zero_skip_on(self, capsys, sim_files, tmp_path):
        paths, _ = sim_files
        zp = tmp_path / "zero.t3b"
        write_t3b(np.zeros((1, 8, 8), dtype=np.int64), zp)
        code, out, _ = run(capsys, "simulate", "--image", paths["image"],
                           "--noise", str(zp), "--filters", paths["filters"],
                           "--zero-skip", "on")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["attacked"]["mac_executed"] == \
            payload["clean"]["mac_executed"]

    def test_corpus_mode(self, capsys, sim_files, tmp_path):
        paths, _ = sim_files
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(5)
        for i in range(4):
            img = rng.integers(0, 9, (1, 8, 8)) * (rng.random((1, 8, 8)) < 0.7)
            write_t3b(img, corpus / f"img{i}.t3b")
        code, out, _ = run(capsys, "simulate", "--corpus", str(corpus),
                           "--noise", paths["noise"], "--filters",
                           paths["filters"])
        assert code == 0
        lines = jsonl(out)
        assert len(lines) == 5  # 4 per-image lines + summary
        summary = lines[-1]["payload"]
        assert summary["n_images"] == 4
        for part in ("clean", "attacked"):
            executed = [line["payload"][part]["mac_executed"]
                        for line in lines[:-1]]
            stats = summary[f"{part}_executed"]
            assert stats == {"min": min(executed), "max": max(executed),
                             "mean": np.mean(executed),
                             "std": np.std(executed)}
            assert stats["std"] > 1  # so a variance would differ from it

    def test_malformed_file_usage_error(self, capsys, sim_files, tmp_path):
        paths, _ = sim_files
        bad = tmp_path / "bad.t3b"
        bad.write_bytes(b"garbage")
        code, _, err = run(capsys, "simulate", "--image", str(bad), "--noise",
                           paths["noise"], "--filters", paths["filters"])
        assert code == 2
        assert err.startswith("error:")

    def test_short_header_usage_error(self, capsys, sim_files, tmp_path):
        paths, _ = sim_files
        short = tmp_path / "short.t3b"
        short.write_bytes(b"T3B1\x01\x00")
        code, _, err = run(capsys, "simulate", "--image", str(short),
                           "--noise", paths["noise"], "--filters",
                           paths["filters"])
        assert code == 2
        assert err.startswith(f"error: {short}: truncated T3B header")

    @pytest.mark.parametrize("dims", [(2 ** 32 - 1,) * 3,
                                      (65535, 65535, 1000)])
    def test_oversized_header_usage_error(self, capsys, sim_files, tmp_path,
                                          dims):
        paths, _ = sim_files
        big = tmp_path / "big.t3b"
        big.write_bytes(b"T3B1" + struct.pack("<IIIB", *dims, 0) + bytes(8))
        code, _, err = run(capsys, "simulate", "--image", str(big),
                           "--noise", paths["noise"], "--filters",
                           paths["filters"])
        assert code == 2
        assert err.startswith(f"error: {big}: truncated T3B payload")
        assert len(err.splitlines()) == 1

    def test_missing_image_and_corpus(self, capsys, sim_files):
        paths, _ = sim_files
        code, _, _ = run(capsys, "simulate", "--noise", paths["noise"],
                         "--filters", paths["filters"])
        assert code == 2

    def test_image_and_corpus_usage_error(self, capsys, sim_files, tmp_path):
        # --image beside --corpus was ignored, even when its file is missing
        paths, _ = sim_files
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "img.t3b").write_bytes(Path(paths["image"]).read_bytes())
        code, out, err = run(capsys, "simulate", "--image",
                             str(tmp_path / "nonexistent.t3b"), "--corpus",
                             str(corpus), "--noise", paths["noise"],
                             "--filters", paths["filters"])
        assert (code, out) == (2, "")
        assert err == "error: give exactly one of --image or --corpus\n"

    def test_filter_channels_not_divisible_usage_error(self, capsys,
                                                       sim_files, tmp_path):
        # the noise's 3 channels do not divide the filter tensor's 2 rows
        paths, _ = sim_files
        image, noise = tmp_path / "image3.t3b", tmp_path / "noise3.t3b"
        write_t3b(np.ones((3, 8, 8), dtype=np.int64), image)
        write_t3b(np.ones((3, 8, 8), dtype=np.int64), noise)
        code, out, err = run(capsys, "simulate", "--image", str(image),
                             "--noise", str(noise), "--filters",
                             paths["filters"])
        assert (code, out) == (2, "")
        assert err == ("error: filter tensor channels 2 not divisible by "
                       "noise channels 3\n")

    @pytest.mark.parametrize("shape", [(1, 6, 6), (2, 8, 8)],
                             ids=["smaller image", "more channels"])
    def test_corpus_image_of_another_shape_usage_error(self, capsys,
                                                       sim_files, tmp_path,
                                                       shape):
        # the filters are built once, from the noise's channels, so the
        # image that does not match the noise fails in the loop
        paths, _ = sim_files
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.t3b").write_bytes(Path(paths["image"]).read_bytes())
        write_t3b(np.ones(shape, dtype=np.int64), corpus / "b.t3b")
        code, out, err = run(capsys, "simulate", "--corpus", str(corpus),
                             "--noise", paths["noise"], "--filters",
                             paths["filters"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {corpus / 'b.t3b'}: ")
        assert len(err.splitlines()) == 1

    def test_missing_corpus_directory_usage_error(self, capsys, sim_files,
                                                  tmp_path):
        # not "no .t3b files in" it: the directory is not there
        paths, _ = sim_files
        missing = tmp_path / "nonexistent"
        code, out, err = run(capsys, "simulate", "--corpus", str(missing),
                             "--noise", paths["noise"], "--filters",
                             paths["filters"])
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: " \
                      f"'{missing}'\n"

    def test_empty_corpus_directory_usage_error(self, capsys, sim_files,
                                                tmp_path):
        paths, _ = sim_files
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("not a tensor")
        code, out, err = run(capsys, "simulate", "--corpus", str(empty),
                             "--noise", paths["noise"], "--filters",
                             paths["filters"])
        assert (code, out) == (2, "")
        assert err == f"error: no .t3b files in {empty}\n"

    def test_tpu_preset(self, capsys, sim_files):
        paths, _ = sim_files
        code, out, _ = run(capsys, "simulate", "--image", paths["image"],
                           "--noise", paths["noise"], "--filters",
                           paths["filters"], "--config", "tpu")
        assert code == 0
        # one 8x8 conv layer fits the 65536-MAC array in one cycle
        assert json.loads(out)["payload"]["clean"]["cycles"] == 1


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt")
    path = str(d / "model.tcnn")
    code = main(["train", "--model", path, "--seed", "0", "--epochs", "25",
                 "--samples", "250"])
    assert code == 0
    return path


class TestTrainCraftEval:
    def test_train_reports_accuracy(self, capsys, tmp_path):
        path = str(tmp_path / "m.tcnn")
        code, out, _ = run(capsys, "train", "--model", path, "--seed", "1",
                           "--epochs", "10", "--samples", "120")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["train_accuracy"] > 0.5
        assert (tmp_path / "m.tcnn").exists()

    def test_craft_respects_4bit_digitization(self, capsys, trained_ckpt,
                                              tmp_path):
        out_v = str(tmp_path / "v.t3b")
        code, out, err = run(capsys, "craft", "--model", trained_ckpt,
                             "--out", out_v, "--epsilon", "0.05",
                             "--iters", "4", "--samples", "80")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["linf_norm"] <= 0.05
        assert payload["quantized_max_magnitude_bits"] <= 4
        # published large-scale fooling rates surface as context only
        assert "90.8" in err

    def test_eval_path_equivalence(self, capsys, trained_ckpt, tmp_path):
        v_path = str(tmp_path / "v.t3b")
        assert run(capsys, "craft", "--model", trained_ckpt, "--out", v_path,
                   "--iters", "4", "--samples", "80")[0] == 0
        _, direct, _ = run(capsys, "eval", "--model", trained_ckpt, "--noise",
                           v_path, "--path", "direct", "--samples", "100")
        _, woven, _ = run(capsys, "eval", "--model", trained_ckpt, "--noise",
                          v_path, "--path", "interleaved", "--samples", "100")
        dp = json.loads(direct)["payload"]
        wp = json.loads(woven)["payload"]
        assert dp == wp

    def test_eval_zero_noise_zero_fooling(self, capsys, trained_ckpt,
                                          tmp_path):
        zp = str(tmp_path / "zero.t3b")
        write_t3b(np.zeros((1, 8, 8)), zp)
        code, out, _ = run(capsys, "eval", "--model", trained_ckpt,
                           "--noise", zp, "--samples", "60")
        assert code == 0
        assert json.loads(out)["payload"]["fooling_rate"] == 0.0

    def test_eval_requires_noise_xor_random(self, capsys, trained_ckpt):
        code, _, _ = run(capsys, "eval", "--model", trained_ckpt)
        assert code == 2

    def test_eval_random_modes(self, capsys, trained_ckpt):
        for mode in ("low", "high"):
            code, out, _ = run(capsys, "eval", "--model", trained_ckpt,
                               "--random", mode, "--samples", "60")
            assert code == 0
            assert 0.0 <= json.loads(out)["payload"]["fooling_rate"] <= 1.0

    def test_missing_model_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--model", "/nonexistent.tcnn",
                         "--random", "low")
        assert code == 2

    def test_short_checkpoint_usage_error(self, capsys, tmp_path):
        short = tmp_path / "short.tcnn"
        short.write_bytes(b"TCNN\x01\x00")
        code, _, err = run(capsys, "eval", "--model", str(short),
                           "--random", "low")
        assert code == 2
        assert err.startswith("error:")

    def test_oversized_checkpoint_block_usage_error(self, capsys, tmp_path):
        big = tmp_path / "big.tcnn"
        big.write_bytes(b"TCNN" + struct.pack("<I", 1) + b"T3B1"
                        + struct.pack("<IIIB", 65535, 65535, 1000, 0)
                        + bytes(8))
        code, _, err = run(capsys, "eval", "--model", str(big),
                           "--random", "low")
        assert code == 2
        assert err.startswith(f"error: {big}: truncated T3B payload")
        assert len(err.splitlines()) == 1

    def test_noise_shape_rejected_on_both_paths(self, capsys, trained_ckpt,
                                                tmp_path):
        # a (1, 1, 8) pattern would broadcast over an 8x8 image if added
        row = str(tmp_path / "row.t3b")
        write_t3b(np.full((1, 1, 8), 0.01), row)
        errors = []
        for path in ("direct", "interleaved"):
            code, out, err = run(capsys, "eval", "--model", trained_ckpt,
                                 "--noise", row, "--path", path,
                                 "--samples", "10")
            assert code == 2 and out == ""
            errors.append(err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error:")

    def test_craft_and_eval_use_the_model_input_shape(self, capsys,
                                                       tmp_path):
        ckpt = str(tmp_path / "two_channel.tcnn")
        save_model(init_model(0, input_shape=(2, 8, 8)), ckpt)
        v_path = str(tmp_path / "v.t3b")
        code, _, err = run(capsys, "craft", "--model", ckpt, "--out", v_path,
                           "--iters", "2", "--samples", "20")
        assert code == 0, err
        for source in (["--random", "low"], ["--noise", v_path]):
            code, out, err = run(capsys, "eval", "--model", ckpt, *source,
                                 "--samples", "20")
            assert code == 0, err
            assert json.loads(out)["payload"]["n_samples"] == 20

    def test_craft_and_eval_draw_the_model_classes(self, capsys, tmp_path):
        # 4-class labels would put half the corpus out of a 2-class reach
        ckpt = str(tmp_path / "two_class.tcnn")
        save_model(init_model(0, num_classes=2), ckpt)
        code, _, err = run(capsys, "craft", "--model", ckpt, "--out",
                           str(tmp_path / "v.t3b"), "--iters", "2",
                           "--samples", "40")
        assert code == 0, err
        code, out, err = run(capsys, "eval", "--model", ckpt, "--random",
                             "low", "--samples", "400")
        assert code == 0, err
        # eval at --seed 0 draws its noise at seed 0 and its corpus at seed 1
        model = load_model(ckpt)
        xs, ys = make_corpus(400, 1, model.input_shape, num_classes=2)
        v = random_noise(model.input_shape, PerturbBudget(0.05), "low", 0)
        assert json.loads(out)["payload"] == \
            fooling_report(model, xs, ys, v).to_dict()

    @pytest.mark.parametrize("command", ["craft", "eval"])
    def test_input_too_small_for_the_corpus(self, capsys, tmp_path, command):
        ckpt = str(tmp_path / "tiny.tcnn")
        save_model(init_model(0, input_shape=(1, 2, 2), kernel=1), ckpt)
        source = {"craft": ["--out", str(tmp_path / "v.t3b")],
                  "eval": ["--random", "low"]}
        code, out, err = run(capsys, command, "--model", ckpt,
                             *source[command], "--samples", "10")
        assert code == 2 and out == ""
        assert err.startswith("error: corpus shape (1, 2, 2)")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("meta", [
        [1.0, 8.0, 8.0, np.inf], [1.0, 8.0, 8.0, np.nan], [1.5, 8.0, 8.0, 4.0],
        [1, 8, 8], [1, 8, 8, 4, 4], [1, 8, 8, 0], [1, -8, 8, 4]],
        ids=["inf", "nan", "fraction", "3-values", "5-values", "zero",
             "negative"])
    def test_bad_meta_block_usage_error(self, capsys, tmp_path, meta):
        ckpt = tmp_path / "model.tcnn"
        save_model(init_model(0), ckpt)
        with open(ckpt, "rb") as f:
            head = f.read(8)
            read_t3b_stream(f)
            rest = f.read()
        with open(ckpt, "wb") as f:
            f.write(head)
            write_t3b_stream(np.array(meta).reshape(1, 1, -1), f)
            f.write(rest)
        code, out, err = run(capsys, "eval", "--model", str(ckpt),
                             "--random", "low")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {ckpt}: meta block")
        assert len(err.splitlines()) == 1

    def test_train_defaults_come_from_train_config(self):
        args = build_parser().parse_args(["train", "--model", "m.tcnn"])
        cfg = TrainConfig()
        assert (args.lr, args.epochs, args.batch_size) == \
            (cfg.learning_rate, cfg.epochs, cfg.batch_size) == (0.1, 40, 8)

    def test_epsilon_over_budget_usage_error(self, capsys, trained_ckpt,
                                             tmp_path):
        out_v = str(tmp_path / "v.t3b")
        for argv in (["craft", "--model", trained_ckpt, "--out", out_v],
                     ["eval", "--model", trained_ckpt, "--random", "low"]):
            code, _, err = run(capsys, *argv, "--epsilon", "0.2")
            assert code == 2
            assert err.startswith("error:")

    def test_nan_epsilon_usage_error(self, capsys, trained_ckpt, tmp_path):
        out_v = str(tmp_path / "v.t3b")
        for argv in (["craft", "--model", trained_ckpt, "--out", out_v],
                     ["eval", "--model", trained_ckpt, "--random", "low"]):
            code, out, err = run(capsys, *argv, "--epsilon", "nan")
            assert code == 2 and out == ""
            assert err.startswith("error: epsilon nan")
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_usage_error(self, capsys, tmp_path, lr):
        code, out, err = run(capsys, "train", "--model",
                             str(tmp_path / "m.tcnn"), "--lr", lr)
        assert code == 2 and out == ""
        assert err.startswith("error: learning_rate")
        assert not (tmp_path / "m.tcnn").exists()

    @pytest.mark.parametrize("command, flag, value, code, message", [
        ("train", "--samples", "-5", 2, "n must be >= 0"),
        ("craft", "--samples", "-5", 2, "n must be >= 0"),
        ("eval", "--samples", "-5", 2, "n must be >= 0"),
        ("craft", "--iters", "-1", 2, "max_iters must be >= 0"),
        ("craft", "--samples", "0", 1, "sample set is empty"),
        ("eval", "--samples", "0", 1, "evaluation set is empty")],
        ids=["train-samples", "craft-samples", "eval-samples", "craft-iters",
             "craft-empty", "eval-empty"])
    def test_count_exit_codes(self, capsys, trained_ckpt, tmp_path,
                              command, flag, value, code, message):
        # a negative count is a bad parameter (2); an empty dataset is 1
        source = {"train": ["--model", str(tmp_path / "m.tcnn")],
                  "craft": ["--model", trained_ckpt,
                            "--out", str(tmp_path / "v.t3b")],
                  "eval": ["--model", trained_ckpt, "--random", "low"]}
        got, out, err = run(capsys, command, *source[command], flag, value)
        assert got == code and out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    def test_negative_zero_epsilon_is_zero(self, capsys, trained_ckpt):
        payloads = []
        for eps in ("-0.0", "0"):
            code, out, _ = run(capsys, "eval", "--model", trained_ckpt,
                               "--random", "low", "--epsilon", eps)
            assert code == 0
            payloads.append(json.loads(out)["payload"])
        assert payloads[0] == payloads[1]

    def test_unallocatable_corpus_usage_error(self, capsys, tmp_path):
        # 10**12 samples of 1x8x8 float64 ask for 466 TiB: the allocation
        # fails at once, beyond any address space
        code, out, err = run(capsys, "train", "--model",
                             str(tmp_path / "m.tcnn"), "--samples",
                             "1000000000000")
        assert code == 2 and out == ""
        assert err.startswith("error: Unable to allocate")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "m.tcnn").exists()

    def test_diverging_training_usage_error(self, capsys, tmp_path):
        # the overflow to infinity and NaN is reported once, as the error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "train", "--model",
                                 str(tmp_path / "m.tcnn"), "--epochs", "1",
                                 "--lr", "1e308")
        assert caught == []
        assert code == 2 and out == ""
        assert err.startswith("error: training diverged")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "m.tcnn").exists()

    def test_non_finite_checkpoint_usage_error(self, capsys, tmp_path):
        m = init_model(0)
        ckpt = str(tmp_path / "nan.tcnn")
        save_model(type(m)(m.conv1, m.fc_w, np.full_like(m.fc_b, np.nan),
                           m.input_shape), ckpt)
        code, out, err = run(capsys, "eval", "--model", ckpt, "--random",
                             "low")
        assert code == 2 and out == ""
        assert err == f"error: {ckpt}: block 4 holds a NaN or infinity\n"

    @pytest.mark.parametrize("path", ["direct", "interleaved"])
    def test_non_finite_perturbation_usage_error(self, capsys, trained_ckpt,
                                                 tmp_path, path):
        # a NaN logit's argmax is 0, which once read as a fooling rate
        v = np.full((1, 8, 8), np.nan)
        v[0, 0, 0] = 0.01
        noise = str(tmp_path / "nan.t3b")
        write_t3b(v, noise)
        code, out, err = run(capsys, "eval", "--model", trained_ckpt,
                             "--noise", noise, "--path", path)
        assert code == 2 and out == ""
        assert err == "error: perturbation holds a NaN or infinity\n"

    def test_zero_epochs_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--model",
                           str(tmp_path / "m.tcnn"), "--epochs", "0")
        assert code == 2
        assert err.startswith("error:")

    def test_empty_dataset_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--model",
                           str(tmp_path / "m.tcnn"), "--samples", "0")
        assert code == 1
        assert err.startswith("error:")


class TestManifestDeterminism:
    def rerun_from_manifest(self, manifest, capsys):
        """Rebuild argv from an embedded manifest and re-execute."""
        argv = [manifest["command"]]
        if manifest["seed"] is not None:
            argv += ["--seed", str(manifest["seed"])]
        for key, val in manifest["parameters"].items():
            if val is None or isinstance(val, bool) and not val:
                continue
            flag = "--" + key.replace("_", "-")
            if key == "float":
                flag = "--float"
            argv += [flag] if val is True else [flag, str(val)]
        code, out, _ = run(capsys, *argv)
        return code, out

    def test_verify_rerun_byte_identical(self, capsys):
        code, out1, _ = run(capsys, "verify-equivalence", "--trials", "30",
                            "--seed", "7", "--max-dim", "10")
        manifest = jsonl(out1)[-1]["manifest"]
        code2, out2 = self.rerun_from_manifest(manifest, capsys)
        assert code == code2 == 0
        assert out1 == out2

    def test_eval_rerun_byte_identical(self, capsys, trained_ckpt, tmp_path):
        v_path = str(tmp_path / "v.t3b")
        assert run(capsys, "craft", "--model", trained_ckpt, "--out", v_path,
                   "--iters", "3", "--samples", "60")[0] == 0
        args = ["eval", "--model", trained_ckpt, "--noise", v_path,
                "--seed", "5", "--samples", "80", "--path", "interleaved"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)["payload"] == json.loads(out2)["payload"]

    @pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "1"}],
                             ids=["default", "one BLAS thread"])
    def test_train_checkpoint_identical_across_processes(self, tmp_path, env):
        # two fresh interpreters (fresh allocations, so other operand
        # alignments) write the same bytes; batches of 900 make every
        # first-layer GEMM long
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, **env, "PYTHONPATH": src}
        blobs = []
        for i in range(2):
            path = tmp_path / f"m{i}.tcnn"
            subprocess.run([sys.executable, "-m", "advweave.cli", "train",
                            "--model", str(path), "--seed", "0",
                            "--batch-size", "900", "--samples", "1000"],
                           env=env, check=True, capture_output=True)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestGoldenOutputs:
    def test_seed_zero_outputs(self, capsys, tmp_path):
        # the outputs of the source revision these values were taken from;
        # a change to the oracle, the model or the attack loops moves them
        digests = {(): "5059016ac820e0575525886e52e2c864"
                       "fdcfd414059cde0b7baf4a7b9f283bd6",
                   ("--sabotage",): "0930b041051622e430aa8d7f5758d635"
                                    "5f4fceaad8b393ae3d20c4a6a544a3fb"}
        for flags, digest in digests.items():
            _, out, _ = run(capsys, "verify-equivalence", "--trials", "1000",
                            "--seed", "0", *flags)
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        model, uap = str(tmp_path / "m.tcnn"), str(tmp_path / "u.t3b")

        def payload(*argv):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            return jsonl(out)[-1]["payload"]

        assert payload("train", "--model", model, "--seed", "0") == {
            "train_accuracy": 0.93, "n_samples": 400}
        craft = payload("craft", "--model", model, "--out", uap, "--seed", "0")
        assert craft.pop("linf_norm") == pytest.approx(0.05, rel=0, abs=1e-12)
        assert craft == {"fooling_rate_craft_set": 0.16,
                         "quantized_nonzero_bits": 143,
                         "quantized_max_magnitude_bits": 4}
        assert payload("eval", "--model", model, "--noise", uap, "--path",
                       "interleaved", "--seed", "1", "--samples", "200") == {
            "fooling_rate": 0.17, "top1_clean": 0.875,
            "top1_perturbed": 0.75, "n_samples": 200}
        assert payload("eval", "--model", model, "--random", "low",
                       "--seed", "0")["fooling_rate"] == 0.03

    def test_simulate_tpu_payload_digests(self, capsys, tmp_path):
        # integer MAC counts, so the digests hold on any host: sha256 of the
        # sorted-key JSON of every stdout line's payload (the manifest holds
        # temporary paths); one image, and a corpus of 4 images
        rng = np.random.default_rng(23)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(4):
            image = rng.integers(0, 9, (3, 32, 32)) \
                * (rng.random((3, 32, 32)) < 0.6)  # zeros for zero-skip
            write_t3b(image, corpus / f"img{i}.t3b")
        noise, filters = tmp_path / "noise.t3b", tmp_path / "filters.t3b"
        write_t3b(rng.integers(-2, 3, (3, 32, 32)), noise)
        write_t3b(rng.integers(-3, 4, (48, 3, 3)), filters)
        digests = {("--image", "on"): "f08002ad59740da72627b70d6ee93218"
                                      "b8aa39f6a6056f0ac3f08a3689a92404",
                   ("--image", "off"): "c0b589bd7132bfa6b0054af90734db7d"
                                       "46cb9442754a19c03f75cd3a61296c16",
                   ("--corpus", "on"): "b994ef480897c2ae8638d872584554dd"
                                       "cf060823dc416dc663b077d4d30f3bfe",
                   ("--corpus", "off"): "d4cb13d18e07f659215b37f9f20bdbf5"
                                        "9999153641376e5761e8fc574e36d551"}
        for (source, zero_skip), digest in digests.items():
            path = corpus / "img0.t3b" if source == "--image" else corpus
            code, out, _ = run(capsys, "simulate", source, str(path),
                               "--noise", str(noise), "--filters", str(filters),
                               "--config", "tpu", "--zero-skip", zero_skip)
            assert code == 0
            payloads = json.dumps([line["payload"] for line in jsonl(out)],
                                  sort_keys=True)
            assert hashlib.sha256(payloads.encode()).hexdigest() == digest
