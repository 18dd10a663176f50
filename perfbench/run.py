"""End-to-end and per-layer benchmark for the `oagd` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (pinned in this directory, see
README.md): enet-oracle, quad-dynamic, synth-window.

Load is a closed loop with one client: samples run one after another, each
in a fresh single-threaded process (BLAS pinned to one thread, backend
pinned to numpy), until S seconds have passed. With --trace 0, set-up-only
processes run between samples, spread over the run, until set-up has been
measured SETUPS times, and the last stdout line carries the end-to-end
metrics (medians over the samples); with --trace 1 the run alternates
untraced and traced samples and carries the per-layer metrics. Lines
before it are a readable report: host facts, one line per sample, each
metric with its unit, fail_frac and the error category of every failed
sample. A failed sample is a nonzero exit, an exception, or outputs that
differ from `reference.json`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# a run must end within 180 s; samples are killed past this many seconds
# after the run started
RUN_DEADLINE_S = 170

# an untraced run measures set-up at least this many times
SETUPS = 10

# name -> (unit, value of one successful untraced sample); setup_s also
# takes the set-up-only samples
END_TO_END = {
    "setup_s": ("s", lambda r: r["setup_s"]),
    "run_s": ("s", lambda r: r["run_s"]),
    "loop_rounds_per_s": ("1/s", lambda r: r["loop_rounds"] / r["loop_s"]),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"]),
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("max_residual"):
        return "norm"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "B"
    return "count"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        OAGD_BACKEND="numpy", PYTHONPATH=str(root / "src"),
    )
    return env


def run_sample(args_list, env, root, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "sample.py"), *args_list]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error_category": "Timeout"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False}
    if proc.returncode != 0:
        record["ok"] = False
        record["error_category"] = record.get("error_category") or f"Exit{proc.returncode}"
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-3:]
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    root = Path.cwd()
    missing = [p for p in ("src/oagd/__init__.py", "data/regression_300.csv")
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    variant = workloads.variant_for(args.workload, args.seed)
    out_root = root / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    env = child_env(root)
    # untimed warm-up: compiles bytecode and fills the file cache, costs a
    # user pays once per install rather than once per run
    warm = run_sample(["--workload", args.workload, "--out", str(out_root / "warmup"),
                       "--import-only"], env, root, deadline - time.perf_counter())
    if not warm.get("ok"):
        print(f"perfbench: cannot import oagd: {warm}", file=sys.stderr)
        return 3
    host = {"nproc": os.cpu_count(), **warm["host"], "blas_threads": 1}
    print(f"perfbench workload={args.workload} seed={args.seed} variant={variant} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))

    samples = []

    def sample(kind):
        cli_args = ["--workload", args.workload, "--variant", str(variant),
                    "--out", str(out_root / f"sample{len(samples)}")]
        flags = {"plain": [], "traced": ["--trace"], "setup": ["--setup-only"]}[kind]
        record = run_sample(cli_args + flags, env, root, deadline - time.perf_counter())
        record["kind"] = kind
        samples.append(record)
        status = "ok" if record["ok"] else f"FAILED {record.get('error_category')}"
        print(f"sample {len(samples)} {kind} "
              f"setup_s={record.get('setup_s', float('nan')):.4f} "
              f"run_s={record.get('run_s', float('nan')):.4f} {status}")
        if record.get("mismatches"):
            print(f"  mismatched outputs: {', '.join(record['mismatches'])}")
        for line in record.get("stderr_tail", []):
            print(f"  stderr: {line}")

    start = time.perf_counter()
    work = 0
    while True:
        sample("traced" if args.trace and work % 2 == 1 else "plain")
        work += 1
        elapsed = time.perf_counter() - start
        # untraced, every sample measures set-up once
        while not args.trace and len(samples) < SETUPS * min(1.0, elapsed / args.seconds):
            sample("setup")
        if elapsed >= args.seconds and (not args.trace or work >= 2):
            break

    attempted = len(samples)
    failures = Counter(r.get("error_category") or "Unknown" for r in samples if not r["ok"])
    failed = sum(failures.values())
    good = [r for r in samples if r["ok"]]
    plain = [r for r in good if r["kind"] == "plain"]
    traced = [r for r in good if r["kind"] == "traced"]
    print(f"fail_frac {failed / attempted:.4f} ({failed}/{attempted} samples failed)"
          + (f" error_category: {dict(failures)}" if failures else ""))

    metrics = {}
    if not args.trace:
        for name, (unit, value) in END_TO_END.items():
            vals = [value(r) for r in (good if name == "setup_s" else plain)]
            metrics[name] = {"value": median(vals), "unit": unit}
            spread = f" min {min(vals):.6g} max {max(vals):.6g}" if vals else ""
            print(f"{name:<20} {median(vals):>14.6g} {unit:<5} median of n={len(vals)}{spread}")
        metrics["ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    else:
        names = list(traced[0]["layers"]) if traced else []
        for name in names:
            metrics[name] = {"value": median([r["layers"][name] for r in traced]),
                             "unit": layer_unit(name)}
        metrics["trace.overhead_s"] = {
            "value": median([r["run_s"] for r in traced]) - median([r["run_s"] for r in plain]),
            "unit": "s"}
        for r in traced[:1]:
            if r.get("missing_targets"):
                print(f"not traced (target missing): {', '.join(r['missing_targets'])}")
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")

    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "run.json").write_text(json.dumps(
        {"args": vars(args), "host": host, "samples": samples}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
