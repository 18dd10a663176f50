"""Regenerate `reference.json`, the outputs every benchmark sample is
checked against, from the code as it stands:

    python3 perfbench/make_reference.py

Run from the repository root. Only regenerate when a change is meant to
alter loop outputs or oracle-derived values, and say so in the change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from run import child_env, run_sample
from workloads import HERE, SYNTH_VARIANTS, WORKLOADS


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    out = root / ".bench_build" / "perfbench" / "reference"
    reference = {}
    for name in WORKLOADS:
        variants = range(SYNTH_VARIANTS) if name == "synth-window" else [0]
        for v in variants:
            record = run_sample(["--workload", name, "--variant", str(v),
                                 "--out", str(out / f"{name}-{v}")], env, root,
                                timeout=600)
            if "outputs" not in record:
                print(f"{name} variant {v} failed: {record}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(v)] = record["outputs"]
            print(name, v, record["outputs"], flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
