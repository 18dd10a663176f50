"""Spans and counters around the public functions of each `oagd` module.

The tracer wraps functions where they are looked up: every loaded `oagd.*`
module attribute bound to the original function is rebound to the wrapper,
so `oagd.driver.inner_gd`, `oagd.regret.gd_to_tolerance` and
`oagd.problems.sm_window_accumulate` are all caught. Spans (name, start,
end, parent) stay in memory until `write_spans`; `summary` derives
inclusive and self time per span name.

Oracle work is counted by handing `gd_to_tolerance` a copy of the round
with counting `grad_y_g` / `g`, and `pgd_to_stationarity` counting value
and gradient handles. After each inner solve the residual it reached is
recomputed outside the span.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter

import numpy as np

# span name -> (module, attribute) of the function it wraps
SPANS = {
    "inner.inner_gd": ("oagd.inner", "inner_gd"),
    "inner.gd_to_tolerance": ("oagd.inner", "gd_to_tolerance"),
    "inner.pgd_to_stationarity": ("oagd.inner", "pgd_to_stationarity"),
    "regret.comparator_series": ("oagd.regret", "comparator_series"),
    "regret.attach_static": ("oagd.regret", "attach_static"),
    "regret.local_regret_series": ("oagd.regret", "local_regret_series"),
    "regret.compute_report": ("oagd.regret", "compute_report"),
    "regret.h_estimate": ("oagd.regret", "h_estimate"),
    "driver.oagd_run": ("oagd.driver", "oagd_run"),
    "driver.full_info_run": ("oagd.driver", "full_info_run"),
    "problems.estimate_constants": ("oagd.problems", "estimate_constants"),
    "kernels.sm_window_accumulate": ("oagd.kernels", "sm_window_accumulate"),
    "kernels.quad_window_reduce": ("oagd.kernels", "quad_window_reduce"),
    "hypergrad.hypergradient": ("oagd.hypergrad", "hypergradient"),
    "cli.prepare": ("oagd.cli", "prepare"),
    "cli.test_error": ("oagd.cli", "test_error"),
    # run_experiment's per-round CSV writer (its meta.txt write is inline)
    "cli.write": ("oagd.cli", "_write_csv"),
}
# methods: span name -> (module, class names, method)
METHOD_SPANS = {
    "problems.windowed_hypergrad": ("oagd.problems", ("HOStream", "QuadraticStream"),
                                    "windowed_hypergrad"),
}
# counted without a span
COUNTS = {
    "regret.inner_oracle": ("oagd.regret", "inner_oracle"),
    "regret.outer_oracle": ("oagd.regret", "outer_oracle"),
    "hypergrad.solve_M": ("oagd.hypergrad", "solve_M"),
    "core.project": ("oagd.core", "project"),
}

COUNT_METRICS = (
    "inner.inner_gd.calls", "inner.inner_gd.steps",
    "inner.gd_to_tolerance.calls", "inner.gd_to_tolerance.grad_evals",
    "inner.gd_to_tolerance.g_evals",
    "inner.pgd_to_stationarity.calls", "inner.pgd_to_stationarity.grad_evals",
    "inner.pgd_to_stationarity.value_evals",
    "regret.h_estimate.calls", "regret.inner_oracle.calls", "regret.outer_oracle.calls",
    "driver.oagd_run.rounds",
    "problems.windowed_hypergrad.calls", "problems.windowed_hypergrad.terms",
    "kernels.sm_window_accumulate.calls", "kernels.sm_window_accumulate.terms",
    "kernels.sm_window_accumulate.flops_computed",
    "kernels.sm_window_accumulate.bytes_computed",
    "kernels.quad_window_reduce.calls", "kernels.quad_window_reduce.terms",
    "hypergrad.hypergradient.calls", "hypergrad.solve_M.calls",
    "core.project.calls",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def rebind(original, replacement) -> int:
    """Point every `oagd.*` module attribute bound to `original` at
    `replacement`; returns how many bindings changed."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "oagd" or modname.startswith("oagd.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def _lookup(module, attr):
    mod = sys.modules.get(module)
    return getattr(mod, attr, None) if mod is not None else None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, nested]
        self._stack = []
        self._active = Counter()
        self.counts = Counter()
        self.max_residual = 0.0
        self.missing = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, on_call=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(spans)
            # nested: a same-name span is open, so inclusive time skips it
            spans.append([name, clock(), 0, stack[-1] if stack else -1, active[name] > 0])
            stack.append(idx)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _inner_oracle(self, fn):
        # called ~10^5-10^6 times by h_estimate, so counted inline
        c = self.counts

        def wrapper(round_fns, *args, **kwargs):
            c["regret.inner_oracle.calls"] += 1
            if round_fns.closed_form_y_star is not None:
                c["regret.inner_oracle.closed_form"] += 1
            return fn(round_fns, *args, **kwargs)

        return wrapper

    def _on_call(self, name):
        c = self.counts
        if name == "inner.inner_gd":
            def hook(a, k):
                c["inner.inner_gd.calls"] += 1
                c["inner.inner_gd.steps"] += int(_arg(a, k, 4, "K"))
        elif name == "driver.oagd_run":
            def hook(a, k):
                c["driver.oagd_run.rounds"] += int(_arg(a, k, 6, "T"))
        elif name == "problems.windowed_hypergrad":
            def hook(a, k):  # (self, t, window, x, y)
                c["problems.windowed_hypergrad.calls"] += 1
                c["problems.windowed_hypergrad.terms"] += min(
                    _arg(a, k, 2, "window").w, int(_arg(a, k, 1, "t")))
        elif name == "kernels.sm_window_accumulate":
            def hook(a, k):
                m, d2 = np.shape(_arg(a, k, 0, "A"))
                c["kernels.sm_window_accumulate.calls"] += 1
                c["kernels.sm_window_accumulate.terms"] += m
                # arithmetic of the numpy reduction; compulsory input bytes
                c["kernels.sm_window_accumulate.flops_computed"] += m * (13 * d2 + 2)
                c["kernels.sm_window_accumulate.bytes_computed"] += 8 * (2 * m * d2 + 2 * m + 2 * d2)
        elif name == "kernels.quad_window_reduce":
            def hook(a, k):
                c["kernels.quad_window_reduce.calls"] += 1
                c["kernels.quad_window_reduce.terms"] += len(_arg(a, k, 0, "s"))
        elif name + ".calls" in COUNT_METRICS:
            key = name + ".calls"

            def hook(a, k):
                c[key] += 1
        else:
            hook = None
        return hook

    def _counting(self, fn, key):
        c = self.counts

        def wrapper(*args, **kwargs):
            c[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gd_oracle(self, fn):
        timed = self._timed("inner.gd_to_tolerance", fn)
        c = self.counts

        def wrapper(round_fns, x, y_init, *args, **kwargs):
            c["inner.gd_to_tolerance.calls"] += 1
            counted = dataclasses.replace(
                round_fns,
                grad_y_g=self._counting(round_fns.grad_y_g, "inner.gd_to_tolerance.grad_evals"),
                g=self._counting(round_fns.g, "inner.gd_to_tolerance.g_evals"),
            )
            z = timed(counted, x, y_init, *args, **kwargs)
            residual = float(np.linalg.norm(round_fns.grad_y_g(x, z)))
            self.max_residual = max(self.max_residual, residual)
            return z

        return wrapper

    def _pgd_oracle(self, fn):
        timed = self._timed("inner.pgd_to_stationarity", fn)
        c = self.counts

        def wrapper(value_fn, grad_fn, *args, **kwargs):
            c["inner.pgd_to_stationarity.calls"] += 1
            return timed(
                self._counting(value_fn, "inner.pgd_to_stationarity.value_evals"),
                self._counting(grad_fn, "inner.pgd_to_stationarity.grad_evals"),
                *args, **kwargs,
            )

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target; a target the package no longer has is listed
        in `missing` and its metrics read 0."""
        for name, (module, attr) in SPANS.items():
            fn = _lookup(module, attr)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if name == "inner.gd_to_tolerance":
                wrapper = self._gd_oracle(fn)
            elif name == "inner.pgd_to_stationarity":
                wrapper = self._pgd_oracle(fn)
            else:
                wrapper = self._timed(name, fn, self._on_call(name))
            rebind(fn, wrapper)
        for name, (module, classes, attr) in METHOD_SPANS.items():
            for cls_name in classes:
                cls = _lookup(module, cls_name)
                fn = vars(cls).get(attr) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{module}.{cls_name}.{attr}")
                    continue
                setattr(cls, attr, self._timed(name, fn, self._on_call(name)))
        for name, (module, attr) in COUNTS.items():
            fn = _lookup(module, attr)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if name == "regret.inner_oracle":
                rebind(fn, self._inner_oracle(fn))
            else:
                rebind(fn, self._counting(fn, name + ".calls"))

    # -- results -----------------------------------------------------------

    def summary(self, run_start_ns: int, run_end_ns: int) -> dict:
        """Per-layer metrics: `<span>.s` (inclusive) and `<span>.self_s`
        (minus child spans) for every span name, the counters, and the
        share of the run interval covered by top-level spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_ns = Counter(), Counter()
        covered = 0
        for i, (name, start, end, parent, nested) in enumerate(self.spans):
            dur = end - start
            if not nested:
                total[name] += dur
            self_ns[name] += dur - child[i]
            if parent < 0 and start >= run_start_ns:
                covered += dur
        out = {}
        for name in list(SPANS) + list(METHOD_SPANS):
            out[f"{name}.s"] = total[name] / 1e9
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        calls = self.counts["regret.inner_oracle.calls"]
        out["regret.inner_oracle.closed_form_frac"] = (
            self.counts["regret.inner_oracle.closed_form"] / calls if calls else 0.0)
        out["inner.gd_to_tolerance.max_residual"] = self.max_residual
        out["trace.coverage_frac"] = covered / max(run_end_ns - run_start_ns, 1)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "nested"],
                       "spans": self.spans}, fh)
