"""The three pinned benchmark workloads.

Each workload has a set-up step (what `oagd run` pays before its loop
starts), a unit of work, and the outputs the correctness check compares
with `reference.json`:

* `loop_sha256`: SHA-256 over every trace array except `wall_nanos`, plus
  `final_x`, for each loop the unit runs. Loop outputs must stay
  bit-identical.
* `values`: oracle-derived report numbers, compared within the run's
  configured oracle tolerance.

Each also has a loop-only unit (`loop`): the workload's `driver.oagd_run`
calls on freshly built inputs, so a sample can time more loop work than
the unit of work runs. Its outputs must hash to the same `loop_sha256`.

All workload parameters live in this directory; nothing reads `configs/`.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Synthetic variants with stored references; the benchmark seed picks one.
SYNTH_VARIANTS = 8

TRACE_ARRAYS = ("x", "y", "y_after_inner", "hypergrad", "alpha", "beta", "K",
                "f_value", "inner_residual", "final_x")

# meta.txt keys checked against the reference within the oracle tolerance;
# a key a workload reports as NaN (a disabled report) is left out
ORACLE_VALUES = ("report.bd_final", "report.p1", "report.y1",
                 "report.comparator_grad_sum", "report.h_T", "test_error",
                 "baseline.bd_final")


def variant_for(workload: str, seed: int) -> int:
    """Input variant for a seed: the synthetic stream takes seed % 8 as its
    `synthesize` seed; the other two workloads have a single input."""
    return seed % SYNTH_VARIANTS if workload == "synth-window" else 0


def loop_digest(traces) -> str:
    h = hashlib.sha256()
    for trace in traces:
        for name in TRACE_ARRAYS:
            arr = np.ascontiguousarray(getattr(trace, name))
            h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _meta_values(meta) -> dict:
    out = {}
    for line in meta:
        key, _, value = line.partition(" = ")
        if key in ORACLE_VALUES and not math.isnan(float(value)):
            out[key] = float(value)
    return out


class CliWorkload:
    """A pinned config run through `cli.run_experiment`, outputs written."""

    def __init__(self, name: str):
        self.name = name
        self.config = HERE / "configs" / f"{name}.cfg"

    def setup(self, variant: int, outdir: Path):
        from oagd import cli
        from oagd.hypergrad import make_weights

        cfg = cli.parse_config(self.config)
        cfg.output = str(outdir / self.name)
        prep = cli.prepare(cfg)
        window = make_weights(cfg.window_kind, cfg.resolved_window(), gamma=cfg.window_gamma)
        cli.build_schedules(cfg, prep, window)
        return cfg

    def run(self, cfg):
        """Returns (rounds run by oagd_run, outputs, oracle tolerance)."""
        from oagd import cli

        trace, _report, meta = cli.run_experiment(cfg)
        outputs = {"loop_sha256": loop_digest([trace]), "values": _meta_values(meta)}
        return cfg.T, outputs, cfg.oracle_tol

    def loop(self, cfg):
        """The loop `cli.run_experiment` runs, on a freshly prepared stream
        (round caches empty); returns (rounds, loop_sha256)."""
        from oagd import cli, driver
        from oagd.hypergrad import make_weights

        prep = cli.prepare(cfg)
        window = make_weights(cfg.window_kind, cfg.resolved_window(), gamma=cfg.window_gamma)
        steps, inner, derived = cli.build_schedules(cfg, prep, window)
        trace = driver.oagd_run(prep.stream, cli._initial_pair(cfg, prep), prep.fset,
                                window, steps, inner, cfg.T, constants=derived)
        return cfg.T, loop_digest([trace])


class SynthWindow:
    """Acceptance criterion 9's three-stage stream, looped at w = 1, 100, T
    in one process."""

    name = "synth-window"
    T = 5000
    STAGE_TARGETS = ((1.2, -0.8, 0.5, 1.0, -0.4),
                     (1.2, -0.8, 1.0, 0.5, -0.4),
                     (1.2, -0.4, 0.5, 1.0, -0.8))
    NOISE_MAX = 4.0
    BOX = (0.0, 3.0)
    X0 = 1.5
    ALPHA = 1.6
    BETA = 0.025
    K = 50
    WINDOWS = (1, 100, T)

    def setup(self, variant: int, outdir: Path):
        from oagd import (DecisionPair, FeasibleSet, InnerSchedule, StepSizeSchedule,
                          SyntheticStreamConfig, equal_stages, make_weights, synthesize)

        targets = [(np.ones(1), np.array(v)) for v in self.STAGE_TARGETS]
        fset = FeasibleSet.box(np.full(1, self.BOX[0]), np.full(1, self.BOX[1]))
        data = synthesize(SyntheticStreamConfig(
            stages=equal_stages(self.T, len(targets), targets), d1=1, d2=5,
            noise_max=self.NOISE_MAX, seed=variant, fset=fset,
        ))
        return dict(
            variant=variant,
            stream=data.stream,
            init=DecisionPair(x=np.full(1, self.X0), y=np.zeros(5)),
            fset=fset,
            windows=[make_weights("uniform", w) for w in self.WINDOWS],
            steps=StepSizeSchedule.constant(self.ALPHA),
            inner=InnerSchedule.fixed(beta=self.BETA, K=self.K),
        )

    def _traces(self, s):
        from oagd import driver

        return [
            driver.oagd_run(s["stream"], s["init"], s["fset"], window,
                            s["steps"], s["inner"], self.T)
            for window in s["windows"]
        ]

    def run(self, s):
        traces = self._traces(s)
        sum_f = {f"sum_f.w{w}": float(np.sum(t.f_value)) for w, t in zip(self.WINDOWS, traces)}
        # sum_f is part of the bit-identical loop output; it is stored for
        # reading, and checked with zero tolerance.
        return self.T * len(traces), {"loop_sha256": loop_digest(traces), "values": sum_f}, 0.0

    def loop(self, s):
        """The unit's three loops on a freshly synthesized stream (round
        cache empty); returns (rounds, loop_sha256)."""
        traces = self._traces(self.setup(s["variant"], None))
        return self.T * len(traces), loop_digest(traces)


WORKLOADS = {
    "enet-oracle": CliWorkload("enet-oracle"),
    "quad-dynamic": CliWorkload("quad-dynamic"),
    "synth-window": SynthWindow(),
}


def mismatches(outputs: dict, reference: dict, tol: float) -> list:
    """Differences between a sample's outputs and the stored reference;
    values agree when |a - b| <= tol * max(1, |b|)."""
    found = []
    if outputs["loop_sha256"] != reference["loop_sha256"]:
        found.append("loop_sha256")
    ref_values = reference["values"]
    for key in sorted(set(ref_values) | set(outputs["values"])):
        a, b = outputs["values"].get(key), ref_values.get(key)
        if a is None or b is None or abs(a - b) > tol * max(1.0, abs(b)):
            found.append(key)
    return found
