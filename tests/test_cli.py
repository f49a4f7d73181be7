import json
import os
import struct
import subprocess
import sys
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
        with pytest.warns(RuntimeWarning):  # overflow, then NaN
            code, out, err = run(capsys, "train", "--model",
                                 str(tmp_path / "m.tcnn"), "--epochs", "1",
                                 "--lr", "1e308")
        assert code == 2 and out == ""
        assert err.startswith("error: training diverged")
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
