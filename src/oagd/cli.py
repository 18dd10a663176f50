"""Experiment runner: flat key=value configs, CSV datasets with
deterministic three-way splits, per-round CSV output, and window sweeps,
run one after another in one process on one prepared stream and one
comparator series.

Commands:
    oagd run --config exp.cfg
    oagd sweep --config exp.cfg --windows 1,10,100,T
    oagd validate --config exp.cfg

Every failure path prints `error_category=<Name>` to stderr and exits
nonzero, so batch drivers can triage without parsing prose.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import DecisionPair, FeasibleSet, ProblemConstants, derive_constants, project
from .driver import (StepSizeSchedule, Trace, evaluate_schedules, full_info_run, oagd_run,
                     strongly_convex_c)
from .errors import (
    ConfigError,
    EmptyDataset,
    OagdError,
    ParseError,
)
from .hypergrad import WeightWindow, make_weights
from .inner import InnerSchedule, newton_to_tolerance
from .problems import (
    Stream,
    SyntheticStreamConfig,
    elastic_net_stream,
    equal_stages,
    estimate_constants,
    ho_stream,
    quadratic_stream,
    synthesize,
)
from .regret import RegretReport, comparator_series, compute_report

CSV_COLUMNS = [
    "t", "f_value", "bd_regret_cum", "bs_regret_cum", "bl_regret_cum",
    "p2_cum", "y2_cum", "alpha_t", "K_t", "inner_residual", "wall_nanos",
]


@dataclass
class SampleTable:
    """A numeric dataset with deterministic train/validation/test splits.

    Features are standardized (zero mean, unit variance) using statistics
    from the training split only; constant columns keep unit scale. Splits
    take ceil(m/3) rows each for train and validation, in file order unless
    a shuffle seed reorders rows first; the test split takes the remainder.
    """

    features: np.ndarray
    labels: np.ndarray
    columns: list
    path: str
    row_count: int
    boundaries: tuple

    def split(self, name: str):
        train_end, val_end = self.boundaries
        if name == "train":
            sl = slice(0, train_end)
        elif name == "val":
            sl = slice(train_end, val_end)
        elif name == "test":
            sl = slice(val_end, self.row_count)
        else:
            raise ValueError(f"unknown split {name!r}")
        return self.features[sl], self.labels[sl]


def load_csv(path, label_column: Optional[str] = None,
             shuffle_seed: Optional[int] = None) -> SampleTable:
    """Parse a numeric CSV with a header row into a SampleTable.

    label_column defaults to the last column. Non-numeric and non-finite
    (nan, inf) cells raise ParseError with their location; a file without
    data rows raises EmptyDataset.
    """
    path = str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path} has no header row")
        header = [h.strip() for h in header]
        rows = []
        for r, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: row has {len(row)} cells, expected {len(header)}", row=r)
            vals = []
            for c, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise ParseError(f"{path}: non-numeric or non-finite cell {cell!r}",
                                     row=r, column=header[c])
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise EmptyDataset(f"{path} has no data rows")
    data = np.asarray(rows, dtype=float)
    if label_column is None:
        label_column = header[-1]
    if label_column not in header:
        raise ParseError(f"{path}: no column named {label_column!r}", column=label_column)
    li = header.index(label_column)
    labels = data[:, li]
    features = np.delete(data, li, axis=1)
    columns = [h for h in header if h != label_column]
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(data.shape[0])
        features, labels = features[order], labels[order]
    m = data.shape[0]
    n_split = math.ceil(m / 3)
    train_end = min(n_split, m)
    val_end = min(2 * n_split, m)
    mean = features[:train_end].mean(axis=0)
    std = features[:train_end].std(axis=0)
    std[std == 0.0] = 1.0
    features = (features - mean) / std
    return SampleTable(
        features=features, labels=labels, columns=columns, path=path,
        row_count=m, boundaries=(train_end, val_end),
    )


#: each numeric domain's wording in errors, and its test
_NUMERIC_DOMAINS = {
    "positive": ("positive", lambda v: v > 0),
    "non-negative": ("non-negative", lambda v: v >= 0),
    "unit": ("in (0, 1)", lambda v: 0 < v < 1),
}


def _key(default, domain=None):
    """A config field whose value, unless None, lies in `domain`: a tuple
    of choices or a _NUMERIC_DOMAINS name. A float value is always finite."""
    return field(default=default, metadata={"domain": domain})


@dataclass
class ExperimentConfig:
    problem: str = _key("", ("quadratic", "ho", "elastic_net", "synthetic"))
    T: int = _key(0, "positive")
    regime: str = _key("", ("strongly_convex", "strongly_convex_static",
                            "convex_dynamic", "convex_static", "nonconvex"))
    output: str = ""
    window_w: str = "1"
    window_kind: str = _key("uniform", ("uniform", "exponential"))
    window_gamma: Optional[float] = _key(None, "unit")
    # quadratic_stream's "custom" rule takes coefficient tables a config cannot give
    quad_rule: str = _key("alt_sqrt", ("alt_sqrt", "constant"))
    quad_a1_mode: str = _key("match", ("match", "zero"))
    quad_a1_const: float = 0.0
    quad_a2_const: float = 0.0
    dataset: str = ""
    label_column: str = ""
    shuffle_seed: Optional[int] = _key(None, "non-negative")
    mu_smooth: Optional[float] = _key(None, "positive")
    d1: Optional[int] = _key(None, "positive")
    d2: Optional[int] = _key(None, "positive")
    synthetic_stages: int = _key(1, "positive")
    noise_max: float = _key(0.1, "non-negative")
    set_kind: str = _key("", ("", "box", "ball", "unbounded"))
    set_lower: str = ""
    set_upper: str = ""
    set_half_width: Optional[float] = _key(None, "non-negative")
    set_center: str = ""
    set_radius: Optional[float] = _key(None, "positive")
    alpha: Optional[float] = _key(None, "non-negative")
    beta: Optional[float] = _key(None, "positive")
    K: Optional[int] = _key(None, "positive")
    k_max: int = _key(10_000, "positive")
    mu_f: Optional[float] = _key(None, "positive")
    D: Optional[float] = _key(None, "positive")
    x_low: float = -3.0
    x_high: float = 3.0
    y_bound: float = _key(10.0, "non-negative")
    oracle_tol: float = _key(1e-10, "positive")
    h_samples: int = _key(128, "positive")
    report_static: bool = True
    report_local: bool = True
    report_h: bool = True
    seed: int = _key(0, "non-negative")
    init_x: str = ""
    init_y: str = ""
    baseline: str = _key("none", ("none", "full_info"))

    def resolved_window(self) -> int:
        if self.window_w.strip().upper() == "T":
            return self.T
        return int(self.window_w)


def _config_types() -> dict:
    """Each ExperimentConfig key's value type from its annotation;
    Optional[X] parses as X."""
    types = {}
    for name, hint in get_type_hints(ExperimentConfig).items():
        if get_origin(hint) is Union:
            (hint,) = [a for a in get_args(hint) if a is not type(None)]
        types[name] = hint
    return types


def parse_config(path) -> ExperimentConfig:
    """Read a flat `key = value` file (one pair per line, # comments);
    each value is parsed to its key's annotated type."""
    types = _config_types()
    cfg = ExperimentConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            kind = types[key]
            try:
                parsed = _parse_bool(value) if kind is bool else kind(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
            setattr(cfg, key, parsed)
    return cfg


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(value)


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        v = np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated numbers, got {text!r}") from None
    if not np.isfinite(v).all():
        raise ConfigError(f"{name} must be finite, got {text!r}")
    return v


def _check_window(w: str, name: str):
    """Raise ConfigError unless w is a positive integer or 'T'."""
    try:
        if w.upper() == "T" or int(w) >= 1:
            return
    except ValueError:
        pass
    raise ConfigError(f"{name} must be a positive integer or 'T', got {w!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Every key's value against its declared domain, set or not, then
    the rules that tie keys together."""
    for f in fields(ExperimentConfig):
        value, domain = getattr(cfg, f.name), f.metadata.get("domain")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if value is None or domain is None:
            continue
        if isinstance(domain, tuple):
            if value not in domain:
                raise ConfigError(f"{f.name} must be one of {domain}, got {value!r}")
        elif not _NUMERIC_DOMAINS[domain][1](value):
            raise ConfigError(f"{f.name} must be {_NUMERIC_DOMAINS[domain][0]}, got {value!r}")
    _check_window(cfg.window_w.strip(), "window_w")
    if cfg.window_kind == "exponential" and cfg.window_gamma is None:
        raise ConfigError("exponential windows need window_gamma in (0, 1)")
    if cfg.problem in ("ho", "elastic_net") and not cfg.dataset:
        raise ConfigError(f"problem {cfg.problem} needs a dataset path")
    if cfg.problem == "elastic_net" and cfg.mu_smooth is None:
        raise ConfigError("elastic_net needs mu_smooth")
    if cfg.problem == "synthetic" and cfg.d2 is None:
        raise ConfigError("synthetic problem needs d2")
    if cfg.baseline == "full_info" and cfg.problem != "quadratic":
        # the regression families' f reads only y, so argmin_x f_t(x, y) is
        # every feasible x and the baseline would replay its initial x
        raise ConfigError(
            f"baseline = full_info never moves x on problem {cfg.problem}: "
            "its outer loss does not depend on x"
        )
    return cfg


def _build_fset(cfg: ExperimentConfig, d1: int) -> FeasibleSet:
    kind = cfg.set_kind
    if not kind:
        return FeasibleSet.symmetric_box(1.0, 1) if cfg.problem == "quadratic" \
            else FeasibleSet.unbounded()
    if kind == "unbounded":
        return FeasibleSet.unbounded()
    if kind == "box":
        if cfg.set_half_width is not None:
            return FeasibleSet.symmetric_box(cfg.set_half_width, d1)
        lower = _parse_vector(cfg.set_lower, "set_lower")
        upper = _parse_vector(cfg.set_upper, "set_upper")
        if lower.shape != (d1,) or upper.shape != (d1,):
            raise ConfigError(f"set_lower/set_upper must have length d1={d1}")
        return FeasibleSet.box(lower, upper)
    if cfg.set_radius is None:
        raise ConfigError("ball sets need set_radius")
    center = _parse_vector(cfg.set_center, "set_center") if cfg.set_center else np.zeros(d1)
    if center.shape != (d1,):
        raise ConfigError(f"set_center must have length d1={d1}")
    return FeasibleSet.ball(center, cfg.set_radius)


def _x_range(cfg: ExperimentConfig, fset: FeasibleSet) -> tuple:
    """[x_low, x_high] cut to the coordinate range a box allows: the range
    over which the regression constants are estimated."""
    low, high = cfg.x_low, cfg.x_high
    if fset.kind == "box":
        low = max(low, float(fset.lower.min()))
        high = min(high, float(fset.upper.max()))
    if low > high:
        raise ConfigError(
            f"[x_low, x_high] = [{cfg.x_low:g}, {cfg.x_high:g}] leaves no feasible x"
        )
    return low, high


@dataclass
class _Prepared:
    stream: Stream
    fset: FeasibleSet
    constants: ProblemConstants
    d1: int
    d2: int
    dataset: Optional[SampleTable] = None
    notes: list = field(default_factory=list)


def prepare(cfg: ExperimentConfig) -> _Prepared:
    """Materialize the stream, feasible set, and smoothness constants."""
    validate_config(cfg)
    if cfg.problem == "quadratic":
        d1 = d2 = 1
        fset = _build_fset(cfg, d1)
        stream = quadratic_stream(
            cfg.quad_rule, cfg.T, a1_mode=cfg.quad_a1_mode,
            a1_const=cfg.quad_a1_const, a2_const=cfg.quad_a2_const, fset=fset,
        )
        return _Prepared(stream, fset, stream.constants, d1, d2)
    if cfg.problem == "synthetic":
        d2 = cfg.d2
        d1 = cfg.d1 if cfg.d1 is not None else 1
        fset = _build_fset(cfg, d1)
        target_rng = np.random.default_rng([cfg.seed, 1])
        targets = [
            (np.zeros(d1), target_rng.standard_normal(d2))
            for _ in range(cfg.synthetic_stages)
        ]
        stages = equal_stages(cfg.T, cfg.synthetic_stages, targets)
        data = synthesize(SyntheticStreamConfig(
            stages=stages, d1=d1, d2=d2, noise_max=cfg.noise_max,
            seed=cfg.seed, mu_smooth=cfg.mu_smooth, fset=fset,
        ))
        constants = estimate_constants(data.stream, *_x_range(cfg, fset), cfg.y_bound)
        return _Prepared(data.stream, fset, constants, d1, d2)
    table = load_csv(cfg.dataset, label_column=cfg.label_column or None,
                     shuffle_seed=cfg.shuffle_seed)
    d2 = table.features.shape[1]
    if cfg.problem == "ho":
        d1 = cfg.d1 if cfg.d1 is not None else 1
        fset = _build_fset(cfg, d1)
        stream = ho_stream(table, cfg.T, d1=d1, fset=fset)
    else:
        d1 = cfg.d1 if cfg.d1 is not None else d2 + 1
        fset = _build_fset(cfg, d1)
        stream = elastic_net_stream(table, cfg.mu_smooth, cfg.T, d1=d1, fset=fset)
    constants = estimate_constants(stream, *_x_range(cfg, fset), cfg.y_bound)
    return _Prepared(stream, fset, constants, d1, d2, dataset=table)


def build_schedules(cfg: ExperimentConfig, prep: _Prepared,
                    window: WeightWindow):
    """Regime defaults plus any explicit overrides (recorded as notes),
    evaluated over rounds 1..T as the loop will (evaluate_schedules). A
    schedule that cannot be built or evaluated there (ValueError or
    OverflowError), or a regime default alpha_t = 0, is a ConfigError naming
    the regime, the schedule, the derived constants and the keys to change."""
    constants = prep.constants
    if cfg.mu_f is not None:  # ProblemConstants checks it against ell_f1
        constants = replace(constants, mu_f=cfg.mu_f)
    derived = derive_constants(constants)
    mu_f = constants.mu_f
    beta = cfg.beta if cfg.beta is not None else InnerSchedule.theorem_beta(
        constants.ell_g1, constants.mu_g)
    if cfg.beta is not None:
        prep.notes.append(f"beta = {cfg.beta:g} (override)")
    if beta >= 2.0 / constants.ell_g1:
        # past 2/ell_g1 a gradient step on g_t no longer contracts toward y*
        if cfg.beta is None:
            raise ConfigError(
                f"mu_g = 2 exp(x_low) = {constants.mu_g:g} is below float64 resolution of "
                f"ell_g1 = {constants.ell_g1:g}, so the default beta = 2/(ell_g1 + mu_g) rounds "
                f"to 2/ell_g1 and breaks the inner contraction condition: raise x_low = "
                f"{cfg.x_low:g}, or set beta below 2/ell_g1 = {2.0 / constants.ell_g1:.6g}"
            )
        raise ConfigError(
            f"beta = {beta:g} breaks the inner contraction condition "
            f"beta < 2/ell_g1 = {2.0 / constants.ell_g1:.6g}"
        )

    if mu_f is None and cfg.regime.startswith("strongly_convex") and None in (cfg.alpha, cfg.K):
        raise ConfigError(f"regime {cfg.regime} needs mu_f; set mu_f explicitly or "
                          "provide alpha and K overrides")
    try:
        if cfg.alpha is not None:
            steps = StepSizeSchedule.constant(cfg.alpha, label=f"constant alpha={cfg.alpha:g} (override)")
            prep.notes.append(f"alpha = {cfg.alpha:g} (override)")
        elif cfg.regime == "strongly_convex":
            steps = StepSizeSchedule.strongly_convex_dynamic(mu_f, derived)
        elif cfg.regime == "strongly_convex_static":
            steps = StepSizeSchedule.strongly_convex_static(mu_f)
        elif cfg.regime == "convex_dynamic":
            steps = StepSizeSchedule.convex_dynamic(derived)
        elif cfg.regime == "convex_static":
            D = cfg.D if cfg.D is not None else prep.fset.diameter
            if not np.isfinite(D):  # validate checked a given D, so this is the set's
                if prep.fset.kind == "unbounded":
                    raise ConfigError("convex_static needs a bounded set or an explicit D")
                raise ConfigError(f"convex_static: the {prep.fset.kind} set is bounded, but its "
                                  "diameter overflows float64; set D explicitly")
            steps = StepSizeSchedule.convex_static(D, constants.ell_f0)
        else:
            steps = StepSizeSchedule.nonconvex(1.0 / (3.0 * derived.L_f), derived)

        if cfg.K is not None:
            inner = InnerSchedule.fixed(beta, cfg.K, k_max=cfg.k_max)
            prep.notes.append(f"K = {cfg.K} (override)")
        elif cfg.regime == "strongly_convex":
            c = strongly_convex_c(mu_f, derived)
            inner = InnerSchedule.strongly_convex(beta, c, k_max=cfg.k_max)
        elif cfg.regime == "strongly_convex_static":
            inner = InnerSchedule.strongly_convex_static(beta, mu_f, k_max=cfg.k_max)
        elif cfg.regime in ("convex_dynamic", "convex_static"):
            inner = InnerSchedule.convex_log_t(beta, k_max=cfg.k_max)
        else:
            inner = InnerSchedule.nonconvex(beta, steps.alpha_at(1), window.W, k_max=cfg.k_max)
        alphas = evaluate_schedules(steps, inner, derived, cfg.T)[0]
        if cfg.alpha is None and 0.0 in alphas:  # alpha_at has refused nan, inf and alpha < 0
            raise ValueError(f"round {alphas.index(0.0) + 1}: step size schedule {steps.label!r} "
                             "gave alpha = 0.0; a regime default needs alpha > 0")
    except (ValueError, OverflowError) as exc:
        # an OverflowError here is a Python float ** in a factory (a squared constant)
        reason = "a default schedule overflows float64" if isinstance(exc, OverflowError) else exc
        # a quadratic stream's constants are fixed; the others' are estimated over these keys
        keys = "" if cfg.problem == "quadratic" else (
            f"raise x_low = {cfg.x_low:g}, lower y_bound = {cfg.y_bound:g} or x_high = {cfg.x_high:g}, ")
        if cfg.regime.startswith("strongly_convex"):
            keys += f"change mu_f = {mu_f:g}, "
        raise ConfigError(
            f"regime {cfg.regime}: {reason} (derived constants kappa_g = {derived.kappa_g:g}, "
            f"L_y = {derived.L_y:g}, M_f = {derived.M_f:g}, L_f = {derived.L_f:g}): "
            f"{keys}or set alpha and K") from exc
    return steps, inner, derived


def _initial_pair(cfg: ExperimentConfig, prep: _Prepared) -> DecisionPair:
    if cfg.init_x:
        x = _parse_vector(cfg.init_x, "init_x")
        if x.shape != (prep.d1,):
            raise ConfigError(f"init_x must have length d1={prep.d1}")
        if not prep.fset.contains(x, atol=1e-12):
            raise ConfigError(f"init_x = {cfg.init_x} lies outside the feasible set")
    else:
        x = project(prep.fset, np.zeros(prep.d1))
    if cfg.init_y:
        y = _parse_vector(cfg.init_y, "init_y")
        if y.shape != (prep.d2,):
            raise ConfigError(f"init_y must have length d2={prep.d2}")
    else:
        y = np.zeros(prep.d2)
    return DecisionPair(x=x, y=y)


def _set_up(cfg: ExperimentConfig, windows: tuple = (None,)) -> list:
    """What `validate` checks and `run` and `sweep` build on: the stream,
    prepared once, then per window (None: the config's own) its config,
    prepared stream with its own notes, window, schedules and initial pair.
    A value the library rejects on the way (ValueError) is a config mistake."""
    try:
        shared = prepare(cfg)
        runs = []
        for w in windows:
            sub = cfg if w is None else replace(cfg, window_w=w, output=f"{cfg.output}_w{w}")
            prep = replace(shared, notes=list(shared.notes))
            w_size = sub.resolved_window()
            if sub.window_kind == "exponential" and sub.window_gamma ** (w_size - 1) == 0.0:
                raise ConfigError(f"window_gamma = {sub.window_gamma:g} and window_w = {w_size}: "
                                  f"the last weight window_gamma^{w_size - 1} underflows to 0")
            window = make_weights(sub.window_kind, w_size, gamma=sub.window_gamma)
            steps, inner, derived = build_schedules(sub, prep, window)
            runs.append((sub, prep, window, steps, inner, derived, _initial_pair(sub, prep)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return runs


def _write_csv(path: Path, trace: Trace, report: RegretReport):
    """One row per round in csv.writer's excel dialect, which these fields
    never need to quote: comma separated, \\r\\n line ends, floats as repr."""
    nan_column = [float("nan")] * trace.T
    columns = zip(
        range(1, trace.T + 1),
        trace.f_value.tolist(),
        report.bd_regret.tolist(),
        nan_column if report.bs_regret is None else report.bs_regret.tolist(),
        nan_column if report.bl_regret is None else report.bl_regret.tolist(),
        report.p2_series.tolist(),
        report.y2_series.tolist(),
        trace.alpha.tolist(),
        trace.K.tolist(),
        trace.inner_residual.tolist(),
        trace.wall_nanos.tolist(),
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        # one row at a time: the whole file as one string costs peak memory
        fh.writelines(
            f"{t},{f!r},{bd!r},{bs!r},{bl!r},{p2!r},{y2!r},{a!r},{k},{r!r},{ns}\r\n"
            for t, f, bd, bs, bl, p2, y2, a, k, r, ns in columns
        )


def _final(series: Optional[np.ndarray]) -> float:
    return float(series[-1]) if series is not None else float("nan")


def _vector(v: Optional[np.ndarray]) -> str:
    """One-line, comma-separated repr floats (None stays None)."""
    return "None" if v is None else ", ".join(repr(float(e)) for e in v)


def _meta_lines(cfg: ExperimentConfig, prep: _Prepared, window: WeightWindow,
                steps: StepSizeSchedule, inner: InnerSchedule, derived,
                trace: Trace, report: RegretReport) -> list:
    lines = [f"source_version = oagd {__version__}"]
    for f in fields(ExperimentConfig):
        lines.append(f"config.{f.name} = {getattr(cfg, f.name)}")
    for prefix, obj in (("constants", prep.constants), ("derived", derived)):
        for f in fields(obj):
            lines.append(f"{prefix}.{f.name} = {getattr(obj, f.name)!r}")
    lines += [
        f"schedule.alpha = {steps.label}",
        f"schedule.inner_kind = {inner.kind}",
        f"schedule.beta = {inner.beta!r}",
        f"schedule.k_max = {inner.k_max}",
        f"window.w = {window.w}",
        f"window.W = {window.W!r}",
        f"window.kind = {cfg.window_kind}",
        "backend = numpy",
        "bl_normalization = window_average",
        f"report.provenance = {report.provenance}",
        f"report.bd_final = {_final(report.bd_regret)!r}",
        f"report.bs_final = {_final(report.bs_regret)!r}",
        f"report.bl_final = {_final(report.bl_regret)!r}",
        f"report.p1 = {report.p1!r}",
        f"report.p2 = {report.p2!r}",
        f"report.y1 = {report.y1!r}",
        f"report.y2 = {report.y2!r}",
        f"report.ybar1 = {report.ybar1!r}",
        f"report.ybar2 = {report.ybar2!r}",
        f"report.h_T = {report.h_T!r}",
        f"report.comparator_grad_sum = {report.comparator_grad_sum!r}",
        f"report.f_star_sum = {report.f_star_sum!r}",
        f"report.x_static = {_vector(report.x_static)}",
        f"trace.final_x = {_vector(trace.final_x)}",
    ]
    for note in prep.notes:
        lines.append(f"note = {note}")
    for warning in trace.warnings:
        lines.append(f"warning = {warning}")
    return lines


#: gradient-norm tolerance of the full-training-split fit behind test_error
FULL_FIT_TOL = 1e-10


def _full_train_fit(prep: _Prepared, x_final: np.ndarray) -> np.ndarray:
    """Fit y on the whole training split at fixed hyperparameters x_final:
    mean squared data loss plus the stream's per-round penalty, solved by
    damped Newton to FULL_FIT_TOL."""
    A, b = prep.dataset.split("train")
    model = prep.stream.full_batch_model(A, b, x_final)
    return newton_to_tolerance(model, np.zeros(A.shape[1]), tol=FULL_FIT_TOL)


def test_error(prep: _Prepared, x_final: np.ndarray) -> float:
    """Mean squared error on the held-out test split of the model fitted on
    the full training split at the final hyperparameters."""
    y_hat = _full_train_fit(prep, x_final)
    A_te, b_te = prep.dataset.split("test")
    return float(np.mean((A_te @ y_hat - b_te) ** 2))


def _run(base: ExperimentConfig, windows: tuple, write: bool):
    """Yield (trace, report, meta lines) per window, one after another,
    all measured against one comparator series, solved after the first
    window's loop so that a loop that fails does so before the oracle.
    On a box or ball H_T's point cloud ignores the trace, so the first
    window's H_T serves every window; on an unbounded set it spans the
    trace's x range and is estimated per window."""
    if write and not base.output:
        raise ConfigError("the config has no output path")
    comparators = h_T = base_trace = None
    for cfg, prep, window, steps, inner, derived, init in _set_up(base, windows):
        trace = oagd_run(prep.stream, init, prep.fset, window, steps, inner,
                         cfg.T, constants=derived)
        if comparators is None:
            comparators = comparator_series(
                prep.stream, prep.fset, T=cfg.T, tol=cfg.oracle_tol,
                convex=cfg.regime != "nonconvex",
                include_static=cfg.report_static,
            )
        report = compute_report(trace, prep.stream, prep.fset, window, comparators,
                                h_samples=cfg.h_samples, include_local=cfg.report_local,
                                include_h=cfg.report_h and h_T is None)
        if h_T is not None:
            report.h_T = h_T
        elif prep.fset.kind != "unbounded":
            h_T = report.h_T
        meta = _meta_lines(cfg, prep, window, steps, inner, derived, trace, report)
        if prep.dataset is not None:
            meta.append(f"test_error = {test_error(prep, trace.final_x)!r}")
        if cfg.baseline == "full_info":
            # the baseline's trace does not read the window: one run serves the sweep
            if base_trace is None:
                base_trace = full_info_run(prep.stream, init, cfg.T)
            # the baseline's H_T is never reported, and it costs a full h_estimate
            base_report = compute_report(base_trace, prep.stream, prep.fset, window, comparators,
                                         include_local=cfg.report_local, include_h=False)
            meta.append(f"baseline.bd_final = {_final(base_report.bd_regret)!r}")
        if write:
            Path(cfg.output).parent.mkdir(parents=True, exist_ok=True)
            if cfg.baseline == "full_info":
                _write_csv(Path(cfg.output + ".baseline.csv"), base_trace, base_report)
            _write_csv(Path(cfg.output + ".csv"), trace, report)
            Path(cfg.output + ".meta.txt").write_text("\n".join(meta) + "\n", encoding="utf-8")
        yield trace, report, meta


def run_experiment(cfg: ExperimentConfig, write: bool = True):
    """Execute one configured run; returns (trace, report, meta lines)."""
    return next(_run(cfg, (None,), write))


def sweep(cfg: ExperimentConfig, windows: list) -> list:
    """Run one experiment per window size, one after another, on one
    prepared stream and one comparator series; returns the output paths."""
    for _ in _run(cfg, tuple(windows), write=True):
        pass
    return [f"{cfg.output}_w{w}" for w in windows]


def _parse_windows(text: str) -> list:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError("--windows must list at least one window size")
    for p in parts:
        _check_window(p, "window size")
    if len({p.upper() if p.upper() == "T" else int(p) for p in parts}) < len(parts):
        raise ConfigError(f"--windows lists a window size twice: {text!r}")
    return parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oagd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "sweep":
            p.add_argument("--windows", default="1,10,100,T")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "validate":
            _set_up(cfg)
            print(f"ok: {cfg.problem} T={cfg.T} regime={cfg.regime} w={cfg.resolved_window()}")
            return 0
        if args.command == "run":
            run_experiment(cfg)
            print(f"wrote {cfg.output}.csv")
            return 0
        for out in sweep(cfg, _parse_windows(args.windows)):
            print(f"wrote {out}.csv")
        return 0
    except (OagdError, OSError) as exc:
        print(f"error_category={type(exc).__name__}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
