"""Command-line front door.

Subcommands: verify-equivalence, simulate, train, craft, eval.
Machine-readable JSON/JSONL goes to stdout, human summaries to stderr.
Every report embeds a manifest (command, seed, inputs, output, parameters,
version); nothing time-based is emitted, so re-running a command from its
manifest reproduces the payload byte-for-byte.

Exit codes: 0 success; 1 failed verification or empty dataset; 2 bad file,
shape or parameter. `main` maps every error to its code in one place.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .accel import PRESETS, compare_attack_footprint, preset_config
from .adversary import (IMAGENET_FOOLING_RATES, PerturbBudget, TrainConfig,
                        craft_uap, fooling_report, init_model, load_model,
                        make_corpus, predict, random_noise, save_model, train)
from .conv import ConvGeometry, FilterBank
from .errors import EmptyDataset, ShapeMismatch
from .tensor import QuantSpec, bit_stats, linf_norm, quantize, read_t3b, \
    write_t3b
from .weave import equivalence_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _manifest(command: str, seed: int | None, inputs: list[str],
              output: str | None, parameters: dict) -> dict:
    return {
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "output": output,
        "parameters": parameters,
        "version": __version__,
    }


def _emit(obj: dict, stream=None) -> None:
    print(json.dumps(obj, sort_keys=True), file=stream or sys.stdout)


def _output(path: str | None):
    """The --out file opened for writing, or stdout (left open) without one."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def random_instance(rng: np.random.Generator, max_dim: int = 16,
                    float_mode: bool = False):
    """Random (image, noise, filters, geometry) tuple for equivalence trials.

    Channels 1-3, spatial dims 2..max_dim, kernels 1-4 (capped by the input),
    strides 1-2.
    """
    c = int(rng.integers(1, 4))
    h = int(rng.integers(2, max_dim + 1))
    w = int(rng.integers(2, max_dim + 1))
    kh = int(rng.integers(1, min(4, h) + 1))
    kw = int(rng.integers(1, min(4, w) + 1))
    out_ch = int(rng.integers(1, 4))
    sv = int(rng.integers(1, 3))
    sh = int(rng.integers(1, 3))
    if float_mode:
        image = rng.uniform(-1, 1, (c, h, w))
        noise = rng.uniform(-1, 1, (c, h, w))
        weights = rng.uniform(-1, 1, (out_ch, c, kh, kw))
        bias = rng.uniform(-1, 1, out_ch)
    else:
        image = rng.integers(-128, 128, (c, h, w))
        noise = rng.integers(-16, 17, (c, h, w))
        weights = rng.integers(-8, 9, (out_ch, c, kh, kw))
        bias = rng.integers(-8, 9, out_ch)
    return image, noise, FilterBank(weights, bias), ConvGeometry(sv, sh)


def cmd_verify_equivalence(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.max_dim < 2:
        raise ValueError("--max-dim must be >= 2")
    manifest = _manifest("verify-equivalence", args.seed, [], args.out, {
        "trials": args.trials, "max_dim": args.max_dim,
        "float": args.float_mode, "sabotage": args.sabotage,
    })
    rng = np.random.default_rng(args.seed)
    failures = 0
    with _output(args.out) as out:
        for i in range(args.trials):
            image, noise, filters, geom = random_instance(
                rng, args.max_dim, args.float_mode)
            woven_noise = None
            if args.sabotage:
                # raise noise row 0 (woven row 1) off its true value
                woven_noise = noise.copy()
                woven_noise[:, 0, :] += 1
            rep = equivalence_report(image, noise, filters, geom, woven_noise)
            failures += not rep.exact
            _emit({"trial": i, "shape": list(image.shape),
                   "kernel": [filters.kernel_h, filters.kernel_w],
                   "stride": [geom.stride_v, geom.stride_h],
                   "max_abs_diff": rep.max_abs_diff, "exact": rep.exact},
                  out)
        _emit({"manifest": manifest,
               "payload": {"trials": args.trials, "failures": failures}}, out)
    print(f"verify-equivalence: {args.trials - failures}/{args.trials} exact",
          file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_simulate(args) -> int:
    cfg = preset_config(args.config, zero_skip=args.zero_skip == "on")
    if args.corpus:
        paths = sorted(Path(args.corpus).glob("*.t3b"))
        if not paths:
            raise ValueError(f"no .t3b files in {args.corpus}")
        inputs = [args.noise, args.filters, args.corpus]
    elif args.image:
        paths = [Path(args.image)]
        inputs = [args.image, args.noise, args.filters]
    else:
        raise ValueError("simulate needs --image or --corpus")
    manifest = _manifest("simulate", None, inputs, args.out, {
        "config": args.config, "zero_skip": args.zero_skip,
        "noise": args.noise, "filters": args.filters})
    noise = read_t3b(args.noise)
    filters_t = np.asarray(read_t3b(args.filters))
    o_i, kh, kw = filters_t.shape
    lines = []
    for p in paths:
        image = np.asarray(read_t3b(p))
        c = image.shape[0]
        if o_i % c:
            raise ShapeMismatch(f"filter tensor channels {o_i} not divisible "
                                f"by image channels {c}")
        w = filters_t.reshape(o_i // c, c, kh, kw)
        filters = FilterBank(w, np.zeros(w.shape[0], dtype=w.dtype))
        cmp = compare_attack_footprint(image, noise, filters, ConvGeometry(), cfg)
        lines.append({"image": p.name, "payload": {
            part: getattr(cmp, part).to_dict()
            for part in ("clean", "attacked", "noise_only")}})
    if args.corpus:
        clean, attacked = ([line["payload"][part]["mac_executed"]
                            for line in lines] for part in ("clean", "attacked"))
        payload = {
            "n_images": len(paths),
            "clean_executed": _dist_stats(clean),
            "attacked_executed": _dist_stats(attacked),
            "attacked_within_clean_range": [
                int(v) for v in attacked if min(clean) <= v <= max(clean)],
        }
    else:
        payload = lines.pop()["payload"]
    with _output(args.out) as out:
        for line in lines + [{"manifest": manifest, "payload": payload}]:
            _emit(line, out)
    print("simulate: done", file=sys.stderr)
    return EXIT_OK


def _dist_stats(values: list[int]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"min": int(arr.min()), "max": int(arr.max()),
            "mean": float(arr.mean()), "std": float(arr.std())}


def cmd_train(args) -> int:
    manifest = _manifest("train", args.seed, [], args.model, {
        "epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
        "samples": args.samples,
    })
    xs, ys = make_corpus(args.samples, seed=args.seed)
    model = init_model(seed=args.seed)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                      batch_size=args.batch_size, seed=args.seed)
    model = train(model, xs, ys, cfg)
    save_model(model, args.model)
    preds = predict(model, xs)
    acc = int((preds == ys).sum()) / len(ys)
    _emit({"manifest": manifest,
           "payload": {"train_accuracy": acc, "n_samples": len(ys)}})
    print(f"train: accuracy {acc:.3f}, checkpoint -> {args.model}",
          file=sys.stderr)
    return EXIT_OK


def cmd_craft(args) -> int:
    manifest = _manifest("craft", args.seed, [args.model], args.out, {
        "epsilon": args.epsilon, "iters": args.iters, "samples": args.samples,
    })
    model = load_model(args.model)
    budget = PerturbBudget(epsilon=args.epsilon)
    xs, ys = make_corpus(args.samples, seed=args.seed, shape=model.input_shape,
                         num_classes=model.num_classes)
    v = craft_uap(model, xs, budget, max_iters=args.iters)
    write_t3b(v, args.out)
    rep = fooling_report(model, xs, ys, v)
    # digitize on the 8-bit image scale to report the storage footprint
    q = QuantSpec(magnitude_bits=8, signed=True, scale=1.0 / 255.0)
    stats = bit_stats(quantize(v, q))
    _emit({"manifest": manifest, "payload": {
        "linf_norm": linf_norm(v),
        "fooling_rate_craft_set": rep.fooling_rate,
        "quantized_max_magnitude_bits": stats.max_magnitude_bits,
        "quantized_nonzero_bits": stats.total_nonzero_bits,
    }})
    print("craft: done. Published ImageNet fooling rates (reference context, "
          f"not reproduced here): {IMAGENET_FOOLING_RATES}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    if (args.noise is None) == (args.random is None):
        raise ValueError("give exactly one of --noise or --random")
    model = load_model(args.model)
    inputs = [args.model] + ([args.noise] if args.noise else [])
    manifest = _manifest("eval", args.seed, inputs, args.out, {
        "path": args.path, "random": args.random, "epsilon": args.epsilon,
        "samples": args.samples,
    })
    if args.noise:
        v = read_t3b(args.noise)
    else:
        budget = PerturbBudget(epsilon=args.epsilon)
        v = random_noise(model.input_shape, budget, args.random, args.seed)
    xs, ys = make_corpus(args.samples, seed=args.seed + 1,
                         shape=model.input_shape, num_classes=model.num_classes)
    rep = fooling_report(model, xs, ys, v, path=args.path)
    with _output(args.out) as out:
        _emit({"manifest": manifest, "payload": rep.to_dict()}, out)
    print(f"eval: fooling_rate {rep.fooling_rate:.3f} "
          f"(path={args.path})", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="advweave",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify-equivalence",
                       help="randomized attacked-conv == conv(image+noise) trials")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-dim", type=int, default=16)
    v.add_argument("--float", dest="float_mode", action="store_true")
    v.add_argument("--sabotage", action="store_true",
                   help="raise one noise row in the woven input")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify_equivalence)

    s = sub.add_parser("simulate", help="clean vs attacked MAC accounting")
    s.add_argument("--image", default=None)
    s.add_argument("--corpus", default=None, help="directory of .t3b images")
    s.add_argument("--noise", required=True)
    s.add_argument("--filters", required=True,
                   help="T3B tensor (out*in channels, kernel_h, kernel_w)")
    s.add_argument("--config", choices=sorted(PRESETS), default="small")
    s.add_argument("--zero-skip", choices=["on", "off"], default="on")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("train", help="train the tiny CNN on the synthetic corpus")
    t.add_argument("--model", required=True, help="output checkpoint path")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    t.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    t.add_argument("--samples", type=int, default=400)
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("craft", help="craft a universal perturbation")
    c.add_argument("--model", required=True)
    c.add_argument("--out", required=True, help="output perturbation (T3B)")
    c.add_argument("--epsilon", type=float, default=0.05)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--iters", type=int, default=10)
    c.add_argument("--samples", type=int, default=200)
    c.set_defaults(func=cmd_craft)

    e = sub.add_parser("eval", help="fooling-rate evaluation")
    e.add_argument("--model", required=True)
    e.add_argument("--noise", default=None, help="perturbation T3B file")
    e.add_argument("--random", choices=["low", "high"], default=None)
    e.add_argument("--path", choices=["direct", "interleaved"],
                   default="direct")
    e.add_argument("--epsilon", type=float, default=0.05)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--samples", type=int, default=200)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: an allocation the arguments ask for fails at once
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL if isinstance(e, EmptyDataset) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
