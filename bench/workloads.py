"""The benchmark's workloads and the bookkeeping that checks their outputs.

Each workload is built from the benchmark seed alone and has three steps:

  setup()         generate and write the seeded inputs (untimed)
  run_pass(run)   one repeat of the timed work; returns its program time in s
  controls(run)   one-off control operations, run once after the timed loop

An operation is one CLI command or one footprint image. It fails when a
check fails, the exit code is unexpected, or the program raises.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from advweave import accel, cli, tensor, weave
from advweave.conv import ConvGeometry, FilterBank

SIM_FIELDS = ("mac_issued", "mac_skipped", "mac_executed", "cycles")


class Op:
    def __init__(self, run: "Run", name: str):
        self.run, self.name, self.problems = run, name, []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def same(self, key: str, value) -> bool:
        """Check `value` equals the first repeat's; True on the first repeat."""
        first = key not in self.run.first_values
        ref = self.run.first_values.setdefault(key, value)
        self.expect(value == ref, f"{key} differs from the first repeat")
        return first


class Run:
    """Operation counts, timing samples and the fingerprint of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)
        self.fingerprint: dict = {}
        self.first_values: dict = {}

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.active

    def sample(self, name: str, value: float) -> None:
        """Record an end-to-end timing sample; traced repeats are not sampled."""
        if not self.tracing:
            self.samples[name].append(value)

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        op = Op(self, name)
        span = self.tracer.span(f"op.{name}") if self.tracing \
            else contextlib.nullcontext()
        try:
            with span:
                yield op
        except Exception as e:  # a crash is a failed operation, not a stop
            op.problems.append(f"{type(e).__name__}: {e}")
        if op.problems:
            self.failed += 1
            print(f"FAILED {name}: {'; '.join(op.problems)}", file=sys.stderr)

    def cli(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one advweave command in-process; (exit code, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
            elapsed = time.perf_counter() - start
        text = out.getvalue()
        if self.tracing:
            self.tracer.counts["cli.stdout_bytes"] += len(text.encode())
        return rc, text, elapsed


def _report(text: str) -> dict:
    return json.loads(text.splitlines()[-1])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------

class Equivalence:
    """In-process `verify-equivalence` on integer trials, --max-dim 16."""

    TRIALS = 1000
    CONTROL_TRIALS = 200

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        pass  # the CLI draws every trial from the seed it is given

    def _argv(self, trials: int, *flags: str) -> list[str]:
        return ["verify-equivalence", "--trials", str(trials),
                "--seed", str(self.seed), *flags]

    def _trial_lines(self, op: Op, text: str, trials: int) -> list[dict]:
        lines = [json.loads(line) for line in text.splitlines()]
        op.expect(len(lines) == trials + 1,
                  f"{len(lines)} lines for {trials} trials")
        return lines[:-1]

    def run_pass(self, run: Run) -> float:
        elapsed = 0.0
        with run.op("verify-equivalence") as op:
            rc, text, elapsed = run.cli(self._argv(self.TRIALS))
            run.sample("verify_trials_per_s", self.TRIALS / elapsed)
            op.expect(rc == 0, f"exit code {rc}")
            if op.same("verify-equivalence stdout", text):
                payload = _report(text)["payload"]
                op.expect(payload == {"trials": self.TRIALS, "failures": 0},
                          f"payload {payload}")
                lines = self._trial_lines(op, text, self.TRIALS)
                op.expect(all(line["exact"] for line in lines),
                          "an integer trial is not exact")
                run.fingerprint["integer"] = {
                    "payload": payload, "stdout_sha256": _sha256(text.encode())}
        return elapsed

    def controls(self, run: Run) -> None:
        n = self.CONTROL_TRIALS
        with run.op("verify-equivalence --float") as op:
            rc, text, _ = run.cli(self._argv(n, "--float"))
            op.expect(rc == 0, f"exit code {rc}")
            payload = _report(text)["payload"]
            op.expect(payload == {"trials": n, "failures": 0},
                      f"payload {payload}")
            # `exact` on float trials means within 1e-9 relative error
            op.expect(all(line["exact"]
                          for line in self._trial_lines(op, text, n)),
                      "a float trial exceeds 1e-9 relative error")
            run.fingerprint["float"] = payload

        with run.op("verify-equivalence --sabotage") as op:
            rc, text, _ = run.cli(self._argv(n, "--sabotage"))
            op.expect(rc == 1, f"exit code {rc}, want 1")
            lines = self._trial_lines(op, text, n)
            # The control adds 1 to woven row 1 (noise row 0), which only
            # filter row 0 of output row 0 reads. Output (o, 0, x) moves by
            # the sum of filter o's row 0, so a trial stays exact exactly when
            # that sum is zero for every output channel.
            rng = np.random.default_rng(self.seed)
            detected = 0
            for line in lines:
                _, _, filters, _ = cli.random_instance(rng, 16, False)
                visible = bool(np.any(filters.weights[:, :, 0, :]
                                      .sum(axis=(1, 2)) != 0))
                detected += visible
                op.expect(line["exact"] != visible,
                          f"trial {line['trial']}: exact={line['exact']} but "
                          f"corruption visible={visible}")
            payload = _report(text)["payload"]
            op.expect(payload["failures"] == detected > 0,
                      f"payload {payload}, {detected} trials corrupted")
            run.fingerprint["sabotage"] = payload


class AttackPipeline:
    """train (CLI defaults) -> craft -> eval direct / interleaved per pass;
    eval --random once per run."""

    EVAL_SAMPLES = 2000
    EPSILON = 0.05
    MAX_BITS = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.eval_seed = seed + 1000  # held-out corpus: make_corpus(seed + 1)
        self.model = workdir / "model.tcnn"
        self.uap = workdir / "uap.t3b"

    def setup(self) -> None:
        pass  # train and craft draw their corpora from the seed

    def _eval(self, *source: str) -> list[str]:
        return ["eval", "--model", str(self.model), *source,
                "--seed", str(self.eval_seed),
                "--samples", str(self.EVAL_SAMPLES)]

    def _command(self, run: Run, op: Op, argv: list[str]) -> tuple[dict, float]:
        """Run one command; check exit 0 and that stdout repeats exactly."""
        rc, text, elapsed = run.cli(argv)
        op.expect(rc == 0, f"exit code {rc}")
        op.same(f"{op.name} stdout", text)
        return _report(text), elapsed

    def run_pass(self, run: Run) -> float:
        times = {}
        with run.op("train") as op:
            report, times[op.name] = self._command(run, op, [
                "train", "--model", str(self.model), "--seed", str(self.seed)])
            params = report["manifest"]["parameters"]
            run.sample("train_samples_per_s",
                       params["epochs"] * params["samples"] / times[op.name])
            op.same("checkpoint sha256", _sha256(self.model.read_bytes()))
            run.fingerprint["train"] = report["payload"]

        with run.op("craft") as op:
            report, times[op.name] = self._command(run, op, [
                "craft", "--model", str(self.model), "--out", str(self.uap),
                "--seed", str(self.seed), "--epsilon", str(self.EPSILON)])
            run.sample("craft_s", times[op.name])
            craft = run.fingerprint["craft"] = report["payload"]
            op.expect(craft["linf_norm"] <= self.EPSILON,
                      f"linf_norm {craft['linf_norm']}")
            op.expect(craft["quantized_max_magnitude_bits"] <= self.MAX_BITS,
                      f"{craft['quantized_max_magnitude_bits']} magnitude bits")

        for path in ("direct", "interleaved"):
            with run.op(f"eval {path}") as op:
                report, times[op.name] = self._command(
                    run, op, self._eval("--noise", str(self.uap),
                                        "--path", path))
                run.sample(f"eval_{path}_samples_per_s",
                           self.EVAL_SAMPLES / times[op.name])
                run.fingerprint[f"eval_{path}"] = report["payload"]
                if path == "interleaved":
                    op.expect(report["payload"]
                              == run.fingerprint.get("eval_direct"),
                              "direct and interleaved eval payloads differ")
        return sum(times.values())

    def controls(self, run: Run) -> None:
        # the model and the eval payloads repeat exactly across passes, so
        # one random-noise baseline per run covers them all
        with run.op("eval random") as op:
            report, _ = self._command(run, op, self._eval("--random", "low"))
            baseline = run.fingerprint["eval_random_low"] = report["payload"]
            uap = run.fingerprint.get("eval_direct", {}).get("fooling_rate")
            op.expect(uap is not None and uap > baseline["fooling_rate"],
                      f"UAP fooling rate {uap} <= random "
                      f"{baseline['fooling_rate']}")


class Footprint:
    """ImageNet-shaped first layer: read, equivalence oracle, TPU footprint."""

    IMAGES = 3
    SHAPE = (3, 224, 224)
    FILTERS = 64
    KERNEL = 7
    NOISE_LEVEL = 12      # 5% of the 8-bit range, rounded down: 4 bits
    NOISE_DENSITY = 0.1
    PRUNED = 0.3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.images = [workdir / f"image{i}.t3b" for i in range(self.IMAGES)]
        self.noise_path = workdir / "noise.t3b"
        self.filters_path = workdir / "filters.t3b"
        self.geom = ConvGeometry(stride_v=2, stride_h=2)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        c, h, w = self.SHAPE
        for path in self.images:
            image = rng.integers(0, 256, self.SHAPE)
            for _ in range(int(rng.integers(2, 5))):  # dark zero regions
                y, x = rng.integers(0, h - 16), rng.integers(0, w - 16)
                dy, dx = rng.integers(16, 96, size=2)
                image[:, y:y + dy, x:x + dx] = 0
            tensor.write_t3b(tensor.Tensor3(image), path)
        level = self.NOISE_LEVEL
        noise = rng.integers(-level, level + 1, self.SHAPE)
        noise[rng.random(self.SHAPE) >= self.NOISE_DENSITY] = 0
        tensor.write_t3b(tensor.Tensor3(noise), self.noise_path)
        weights = rng.integers(-127, 128, (self.FILTERS, c, self.KERNEL,
                                           self.KERNEL))
        weights[rng.random(weights.shape) < self.PRUNED] = 0
        tensor.write_t3b(tensor.Tensor3(weights.reshape(
            self.FILTERS * c, self.KERNEL, self.KERNEL)), self.filters_path)
        # read back the way `advweave simulate` builds its operands
        self.noise = tensor.read_t3b(self.noise_path)
        f = tensor.read_t3b(self.filters_path).data
        f = f.reshape(f.shape[0] // c, c, *f.shape[1:])
        self.filters = FilterBank(f, np.zeros(f.shape[0], dtype=f.dtype))
        self.tpu = accel.preset_config("tpu", zero_skip=True)

    @staticmethod
    def _counts(cmp) -> dict:
        return {part: {k: getattr(getattr(cmp, part), k) for k in SIM_FIELDS}
                for part in ("clean", "attacked", "noise_only")}

    def run_pass(self, run: Run) -> float:
        total = 0.0
        for i, path in enumerate(self.images):
            with run.op("image") as op:
                start = time.perf_counter()
                image = tensor.read_t3b(path)
                rep = weave.equivalence_report(image, self.noise, self.filters,
                                               self.geom)
                cmp = accel.compare_attack_footprint(
                    image, self.noise, self.filters, self.geom, self.tpu)
                elapsed = time.perf_counter() - start
                total += elapsed
                run.sample("footprint_images_per_s", 1.0 / elapsed)
                op.expect(rep.exact, f"image {i}: attacked conv not exact")
                counts = self._counts(cmp)
                op.expect(counts["attacked"]["mac_executed"]
                          == counts["clean"]["mac_executed"]
                          + counts["noise_only"]["mac_executed"],
                          f"image {i}: attacked executed != clean + noise_only")
                if op.same(f"image {i} counts", counts):
                    run.fingerprint.setdefault("images", []).append(counts)
        return total

    def controls(self, run: Run) -> None:
        with run.op("noise budget") as op:
            stats = tensor.bit_stats(self.noise)
            op.expect(stats.max_magnitude_bits <= 4,
                      f"{stats.max_magnitude_bits} magnitude bits")
            op.expect(tensor.linf_norm(self.noise) <= 0.05 * 255,
                      "noise exceeds the 5% budget")
        with run.op("image zero-skip off") as op:
            image = tensor.read_t3b(self.images[0])
            cmp = accel.compare_attack_footprint(
                image, self.noise, self.filters, self.geom,
                accel.preset_config("tpu", zero_skip=False))
            counts = self._counts(cmp)
            op.expect(counts["attacked"]["mac_issued"]
                      == 2 * counts["clean"]["mac_issued"],
                      "attacked issued MACs are not 2x clean")
            op.expect(all(c["mac_executed"] == c["mac_issued"]
                          for c in counts.values()),
                      "MACs skipped with zero-skip off")
            run.fingerprint["zero_skip_off"] = counts


WORKLOADS = {"equivalence": Equivalence, "attack_pipeline": AttackPipeline,
             "footprint": Footprint}
