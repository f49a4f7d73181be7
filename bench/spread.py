"""Run the benchmark over a set of seeds and report how much each metric spreads.

    python3 bench/spread.py --workloads footprint --seeds 0-4
    python3 bench/spread.py --seeds 0-9 --out set-a.json
    python3 bench/spread.py --seeds 0-9 --out set-b.json \\
        --against set-a.json

Runs are sequential, one process at a time. For every end-to-end metric the
spread is (q3 - q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4), checked against the metric's bound from
BENCHMARK.json (the target is a third of the bound). With --against, each
median is also compared with the earlier set's, and every fingerprint of a
seed present in both sets is compared: integers and strings exactly, floats
within 1e-9 relative error (the float tolerance of the equivalence check).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FLOAT_RTOL = 1e-9


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"record-{workload}-seed{seed}"
                         f"-trace0.json").read_text())
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "named": {k: v["value"] for k, v in record["metrics"].items()},
            "environment": record["environment"],
            "fingerprint": record["fingerprint"]}


def summarise(runs: list[dict], key: str) -> dict:
    out = {}
    for name in runs[0][key]:
        values = [r[key][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def fingerprint_diff(a, b, path: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        diffs = [f"{path}/{k}: only in one set" for k in a.keys() ^ b.keys()]
        for k in sorted(a.keys() & b.keys()):
            diffs += fingerprint_diff(a[k], b[k], f"{path}/{k}")
        return diffs
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: {len(a)} vs {len(b)} entries"]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in fingerprint_diff(x, y, f"{path}[{i}]")]
    if isinstance(a, float) or isinstance(b, float):
        ok = abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
    else:
        ok = a == b
    return [] if ok else [f"{path}: {a!r} vs {b!r}"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    p.add_argument("--against", type=Path,
                   help="an earlier --out file to compare medians and "
                        "fingerprints with")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else None

    report, ok = {"seconds": args.seconds, "workloads": {}}, True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} " +
                  " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
            ok &= r["correct"]
        summary = summarise(runs, "metrics")
        report["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "named": summarise(runs, "named")}
        for name, s in summary.items():
            line = (f"  {workload:16s} {name:24s} median {s['median']:.6g} "
                    f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                    f"spread {s['spread']:.4f}")
            if name in bounds:
                line += f" bound {bounds[name]} (target < {bounds[name] / 3:.4f})"
                if s["spread"] > bounds[name]:
                    ok, line = False, line + " SPREAD TOO WIDE"
            if earlier and workload in earlier["workloads"]:
                before = earlier["workloads"][workload]["summary"][name]["median"]
                change = (s["median"] - before) / before
                worse = change if better.get(name) == "lower" else -change
                line += f" vs earlier {before:.6g} ({change:+.2%})"
                if name in bounds and worse > bounds[name]:
                    ok, line = False, line + " WORSE THAN BOUND"
            print(line, flush=True)
        if earlier and workload in earlier["workloads"]:
            old = {r["seed"]: r["fingerprint"]
                   for r in earlier["workloads"][workload]["runs"]}
            for r in runs:
                if r["seed"] in old:
                    diffs = fingerprint_diff(old[r["seed"]], r["fingerprint"])
                    print(f"  {workload} seed {r['seed']} fingerprint: "
                          f"{'identical' if not diffs else diffs}")
                    ok &= not diffs
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True))
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
