"""advweave benchmark: one seeded workload per process, checked and timed.

    python3 bench/run.py --workload equivalence --seed 0 --seconds 40 --trace 0

Workloads: equivalence, attack_pipeline, footprint (see bench/README.md).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are the per-layer metrics, from a run that
alternates untraced and traced repeats. The lines before it print every metric
by name with its unit. Spans, fingerprints and a full record of the run are
written under .bench_out/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 12
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "pass_s": "s",
              "peak_rss_mb": "MB"}
# workload-specific names for the samples behind items_per_s and the stages
STAGE_UNITS = {"verify_trials_per_s": "1/s", "train_samples_per_s": "1/s",
               "craft_s": "s", "eval_direct_samples_per_s": "1/s",
               "eval_interleaved_samples_per_s": "1/s",
               "footprint_images_per_s": "1/s"}
ITEMS = {"equivalence": "verify_trials_per_s",
         "attack_pipeline": "train_samples_per_s",
         "footprint": "footprint_images_per_s"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ITEMS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up, print its end time and exit "
                        "(used to measure setup_s in fresh processes)")
    return p.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if not values:  # every sampled operation failed
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "nproc": nproc,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cpu": cpu, "machine": platform.machine()}


def make_workload(args, workdir: Path):
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    return wl


def setup_only(args) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        make_workload(args, workdir)
        done = time.time()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_done": done}))
    return 0


def probe_setup(args) -> float:
    """Set-up time of a fresh process: from spawn to the end of set-up."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_done"] - start


def measure(args, wl, run) -> tuple[list[float], list[float], list[float]]:
    """Repeat passes for --seconds; (untraced pass times, traced pass times,
    set-up times).

    A pass starts only if one more pass of the median length so far ends
    before the deadline. In a traced run the passes alternate untraced and
    traced, starting untraced, so both kinds see the same warm-up and load.
    An untraced run also probes set-up SETUP_PROBES times, spread evenly over
    the run between passes, so that set-up is sampled over the same span of
    the host's fast and slow phases as the passes.
    """
    untraced, traced, setup = [], [], []
    probes = 0 if args.trace else SETUP_PROBES
    min_passes = 2 if args.trace else 1
    start = time.perf_counter()
    deadline = start + args.seconds
    while (len(untraced) + len(traced) < min_passes or time.perf_counter()
           + statistics.median(untraced + traced) <= deadline):
        while (len(setup) < probes and time.perf_counter()
               >= start + len(setup) * args.seconds / probes):
            setup.append(probe_setup(args))
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        if trace_this:
            run.tracer.install()
        try:
            elapsed = wl.run_pass(run)
        finally:
            if run.tracer:
                run.tracer.uninstall()
        (traced if trace_this else untraced).append(elapsed)
    while len(setup) < probes:
        setup.append(probe_setup(args))
    return untraced, traced, setup


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "advweave" / "__init__.py").is_file():
        print(f"error: no advweave package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # before numpy loads: cap BLAS threads at nproc
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args)

    import tracing
    import workloads
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = make_workload(args, workdir)
        run = workloads.Run(tracing.Tracer() if args.trace else None)
        untraced, traced, setup = measure(args, wl, run)
        wl.controls(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = dict(run.samples)
    samples["pass_s"] = untraced
    if not args.trace:
        samples["setup_s"] = setup
    named = {}  # name -> (median, unit, samples, q1, q3)
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        unit = END_TO_END.get(name) or STAGE_UNITS[name]
        named[name] = (med, unit, len(values), q1, q3)
    if not args.trace:  # no samples at all only when every operation failed
        named["items_per_s"] = named.get(ITEMS[args.workload],
                                         (0.0, "1/s", 0, 0.0, 0.0))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named["peak_rss_mb"] = (rss_mb, "MB", 1, rss_mb, rss_mb)
    named["error_rate"] = (run.failed / max(run.attempted, 1), "ratio",
                           run.attempted, None, None)

    if args.trace:
        base = statistics.median(untraced)
        overhead = statistics.median(traced) - base
        metrics = run.tracer.metrics(len(traced), overhead,
                                     overhead / base if base else 0.0)
        units = {n: u for n, u, _ in tracing.per_layer_names()}
        run.tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    else:
        metrics = {name: named[name][0] for name in END_TO_END}
        units = END_TO_END

    env = environment(nproc)
    print(f"advweave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, n, q1, q3) in named.items():
        how = (f"over {n} operations" if q1 is None else
               f"median of {n} samples  q1 {q1:.6g}  q3 {q3:.6g}")
        print(f"  {name:32s} {value:14.6g} {unit:6s} {how}")
    if args.trace:
        print(f"  per-layer metrics per traced pass "
              f"({len(traced)} traced, {len(untraced)} untraced passes):")
        for name, value in metrics.items():
            print(f"    {name:44s} {value:14.6g} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "metrics": {n: {"value": v[0], "unit": v[1], "samples": v[2],
                              "q1": v[3], "q3": v[4]}
                          for n, v in named.items()},
              "samples": samples, "fingerprint": run.fingerprint}
    if args.trace:
        record["per_layer"] = metrics
    with open(OUT / f"record-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
