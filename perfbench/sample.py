"""One benchmark sample in a fresh process: set up, run one unit of work,
check it against the stored reference, print one JSON line.

    python3 perfbench/sample.py --workload NAME --variant N --out DIR [--trace]
    python3 perfbench/sample.py --workload NAME --variant N --out DIR --setup-only

`run.py` starts this with BLAS pinned to one thread and OAGD_BACKEND=numpy,
from the repository root with `src` on PYTHONPATH. A fresh process per
sample matters: streams fill their round caches lazily during the first
run, and later runs in the same process would skip that work.

An untraced sample times every `driver.oagd_run` call. When the unit's
loops take less than LOOP_MIN_S, it then runs the workload's loop-only unit
(fresh inputs each time) until they do: a loop of a few milliseconds
samples the host's speed at one instant, and that speed swings by a
quarter from second to second on a shared host. `--setup-only` stops
after set-up, so a run can measure set-up more often than it has samples.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# seconds of `driver.oagd_run` an untraced sample times at least
LOOP_MIN_S = 1.0


def _loop_timer():
    """Time `driver.oagd_run` wherever it is looked up; returns the list
    the per-call wall times are appended to."""
    import oagd.driver
    from tracer import rebind

    original = oagd.driver.oagd_run
    seconds = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)

    rebind(original, timed)
    return seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host() -> dict:
    import numpy
    import scipy

    try:
        from oagd.kernels import active_backend
        backend = active_backend()
    except ImportError:  # a package without the backend switch
        backend = os.environ.get("OAGD_BACKEND", "")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import oagd.cli  # noqa: F401  (what every `oagd` command pays first)

    import_s = time.perf_counter() - t_import
    if args.import_only:
        print(json.dumps({"ok": True, "host": _host()}))
        return 0

    import workloads
    from tracer import Tracer

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    record = {"ok": False, "error_category": None, "import_s": import_s}
    try:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            loop_seconds = None
        else:
            loop_seconds = _loop_timer()
        t0 = time.perf_counter()
        state = workload.setup(args.variant, out)
        t1 = time.perf_counter()
        if args.setup_only:
            record.update(ok=True, setup_s=import_s + (t1 - t0))
            print(json.dumps(record))
            return 0
        run_start_ns = time.perf_counter_ns()
        rounds, outputs, tol = workload.run(state)
        run_end_ns = time.perf_counter_ns()
        t2 = time.perf_counter()
        record.update(setup_s=import_s + (t1 - t0), run_s=t2 - t1, rounds=rounds,
                      outputs=outputs, tol=tol)
        # memory of the unit of work, before any loop-only repeats
        record["peak_rss_mb"] = _peak_rss_mb()
        repeat_digests = set()
        if loop_seconds is not None:
            loop_rounds = rounds
            while sum(loop_seconds) < LOOP_MIN_S:
                extra_rounds, digest = workload.loop(state)
                loop_rounds += extra_rounds
                repeat_digests.add(digest)
            record.update(loop_s=sum(loop_seconds), loop_rounds=loop_rounds,
                          loop_calls=len(loop_seconds))
        if tracer is not None:
            layers = tracer.summary(run_start_ns, run_end_ns)
            layers["cli.write.bytes"] = sum(
                p.stat().st_size for p in out.iterdir() if p.is_file())
            tracer.write_spans(out / "spans.json")
            record.update(layers=layers, missing_targets=tracer.missing)
        reference = json.loads((workloads.HERE / "reference.json").read_text())
        ref = reference.get(args.workload, {}).get(str(args.variant))
        if ref is None:
            record.update(error_category="NoReference")
        else:
            bad = workloads.mismatches(outputs, ref, tol)
            if repeat_digests - {ref["loop_sha256"]}:
                bad.append("loop_sha256.loop_only")
            record.update(ok=not bad, mismatches=bad,
                          error_category="OutputMismatch" if bad else None)
    except Exception as exc:  # the sample's boundary: report, do not hide
        traceback.print_exc()
        record["error_category"] = type(exc).__name__
    record.setdefault("peak_rss_mb", _peak_rss_mb())
    record["host"] = _host()
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
