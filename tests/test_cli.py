"""Tests for the experiment runner: CSV loading, config parsing and
validation, end-to-end runs, output files, sweeps, and error reporting."""
import contextlib
import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from oagd import (ConfigError, EmptyDataset, InnerSchedule, NonConvexFlag, ParseError,
                  k_for_round, regret)
from oagd.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    _NUMERIC_DOMAINS,
    _parse_windows,
    _set_up,
    _write_csv,
    build_schedules,
    load_csv,
    main,
    parse_config,
    prepare,
    run_experiment,
    validate_config,
)
from oagd.driver import Trace
from oagd.hypergrad import make_weights


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _csv_of(rows, header="a,b,label"):
    lines = [header] + [",".join(str(v) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def test_load_csv_splits_ten_rows(tmp_path):
    """ceil(10/3) = 4 rows each for train and validation, 2 for test."""
    rows = [(i, 10 - i, i * 0.5) for i in range(10)]
    table = load_csv(_write(tmp_path / "d.csv", _csv_of(rows)))
    assert table.row_count == 10
    assert table.boundaries == (4, 8)
    ft, lt = table.split("train")
    fv, lv = table.split("val")
    fe, le = table.split("test")
    assert ft.shape == (4, 2) and fv.shape == (4, 2) and fe.shape == (2, 2)
    np.testing.assert_allclose(lt, [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError):
        table.split("holdout")


def test_load_csv_splits_nine_rows(tmp_path):
    rows = [(i, i, i) for i in range(9)]
    table = load_csv(_write(tmp_path / "d.csv", _csv_of(rows)))
    assert table.boundaries == (3, 6)
    assert table.split("test")[0].shape == (3, 2)


def test_load_csv_standardizes_from_train_split(tmp_path):
    rows = [(1.0, 7.0, 0.0), (3.0, 7.0, 0.0), (5.0, 7.0, 0.0),
            (100.0, 7.0, 0.0), (200.0, 7.0, 0.0), (300.0, 7.0, 0.0)]
    table = load_csv(_write(tmp_path / "d.csv", _csv_of(rows)))
    train, _ = table.split("train")
    # first column: mean 3, std sqrt(8/3) computed on the train rows only
    np.testing.assert_allclose(train[:, 0].mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(train[:, 0].std(), 1.0, atol=1e-12)
    # constant column keeps unit scale instead of dividing by zero
    np.testing.assert_allclose(table.features[:, 1], 0.0, atol=1e-12)


def test_load_csv_label_column_and_errors(tmp_path):
    text = "x,y,z\n1,2,3\n4,5,6\n"
    table = load_csv(_write(tmp_path / "d.csv", text), label_column="y")
    np.testing.assert_allclose(table.labels, [2.0, 5.0])
    assert table.columns == ["x", "z"]
    with pytest.raises(ParseError):
        load_csv(str(tmp_path / "d.csv"), label_column="w")
    with pytest.raises(ParseError):
        load_csv(_write(tmp_path / "bad.csv", "x,y\n1,oops\n"))
    with pytest.raises(ParseError):
        load_csv(_write(tmp_path / "ragged.csv", "x,y\n1,2,3\n"))
    with pytest.raises(EmptyDataset):
        load_csv(_write(tmp_path / "empty.csv", ""))
    with pytest.raises(EmptyDataset):
        load_csv(_write(tmp_path / "header.csv", "x,y\n"))
    # a nan or inf cell would be spread over its column by standardization
    for cell in ("nan", "inf", "-Infinity"):
        with pytest.raises(ParseError, match="non-finite") as info:
            load_csv(_write(tmp_path / "nonfinite.csv", f"x,y\n1,2\n\n3,{cell}\n"))
        assert (info.value.row, info.value.column) == (4, "y")


def test_load_csv_shuffle_is_deterministic(tmp_path):
    rows = [(i, i, float(i)) for i in range(12)]
    path = _write(tmp_path / "d.csv", _csv_of(rows))
    one = load_csv(path, shuffle_seed=5)
    two = load_csv(path, shuffle_seed=5)
    np.testing.assert_array_equal(one.labels, two.labels)
    plain = load_csv(path)
    assert not np.array_equal(one.labels, plain.labels)


def test_parse_config_types_and_comments(tmp_path):
    text = """
# comment line
problem = quadratic
T = 32
regime = convex_static

window_w = T
alpha = 0.25
report_static = false
seed = 9
"""
    cfg = parse_config(_write(tmp_path / "c.cfg", text))
    assert cfg.problem == "quadratic"
    assert cfg.T == 32
    assert cfg.window_w == "T"
    assert cfg.resolved_window() == 32
    assert cfg.alpha == pytest.approx(0.25)
    assert cfg.report_static is False
    assert cfg.seed == 9

    # a value for every key parses to the key's annotated type
    samples = {bool: ("on", True), int: ("7", 7), float: ("0.5", 0.5), str: ("abc", "abc")}
    unwrap = {typing.Optional[int]: int, typing.Optional[float]: float}
    kinds = {name: unwrap.get(hint, hint)
             for name, hint in typing.get_type_hints(ExperimentConfig).items()}
    text = "".join(f"{name} = {samples[kind][0]}\n" for name, kind in kinds.items())
    cfg = parse_config(_write(tmp_path / "every.cfg", text))
    for name, kind in kinds.items():
        value = getattr(cfg, name)
        assert type(value) is kind and value == samples[kind][1], name


def test_parse_config_rejects_unknown_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path / "a.cfg", "proble = quadratic\n"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path / "b.cfg", "problem quadratic\n"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path / "c.cfg", "T = twelve\n"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path / "d.cfg", "report_h = maybe\n"))


def _base_cfg(**kw):
    cfg = ExperimentConfig(problem="quadratic", T=8, regime="convex_static",
                           alpha=0.2, beta=1.0, K=2)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_validate_config_errors():
    cases = [
        dict(problem="cubic"),
        dict(T=0),
        dict(regime="mirror"),
        dict(window_w="0"),
        dict(window_w="soon"),
        dict(window_kind="triangle"),
        dict(window_kind="exponential"),
        dict(problem="ho"),
        dict(problem="elastic_net", dataset="x.csv"),
        dict(problem="synthetic"),
        dict(set_kind="simplex"),
        dict(h_samples=0),
        dict(h_samples=-3),
        dict(oracle_tol=0.0),
        dict(oracle_tol=-1.0),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            validate_config(_base_cfg(**overrides))
    # bad synthetic settings name their key instead of failing inside
    # equal_stages or the noise draw
    for key, value in (("synthetic_stages", 0), ("synthetic_stages", -2), ("noise_max", -1.0)):
        with pytest.raises(ConfigError, match=key):
            validate_config(_base_cfg(problem="synthetic", d2=3, **{key: value}))
    # each names its key, not a ZeroDivisionError or a quantity derived
    # from it (alpha, ell_f0)
    for key, value in (("mu_f", 0.0), ("mu_f", -1.0), ("y_bound", -2.0)):
        with pytest.raises(ConfigError, match=key):
            validate_config(_base_cfg(**{key: value}))
    # an infeasible init_x is a config mistake, caught before the loop
    with pytest.raises(ConfigError, match="init_x"):
        _set_up(_base_cfg(init_x="5.0"))
    assert validate_config(_base_cfg()).problem == "quadratic"


def test_validate_config_rejects_silent_baselines(tmp_path, capsys):
    """A misspelt baseline would run with none, and full_info on a family
    whose f ignores x would replay the initial x every round; both are
    ConfigErrors at validate time."""
    with pytest.raises(ConfigError, match="baseline must be one of"):
        validate_config(_base_cfg(baseline="full-info"))
    regression = (
        dict(problem="ho", dataset="x.csv"),
        dict(problem="elastic_net", dataset="x.csv", mu_smooth=1.0),
        dict(problem="synthetic", d2=3),
    )
    for overrides in regression:
        assert validate_config(_base_cfg(**overrides)).baseline == "none"
        with pytest.raises(ConfigError, match="never moves x"):
            validate_config(_base_cfg(baseline="full_info", **overrides))
    assert validate_config(_base_cfg(baseline="full_info")).baseline == "full_info"
    path = _write(tmp_path / "b.cfg", "problem = synthetic\nT = 4\nregime = convex_static\n"
                  "d2 = 3\nbaseline = full_info\n")
    assert main(["validate", "--config", path]) == 1
    assert "error_category=ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("lines", [
    "quad_rule = custom",  # the coefficient tables cannot come from a config
    "quad_rule = alt_cos",
    "quad_a1_mode = half",
    "window_kind = exponential\nwindow_gamma = 1.5",
    "K = 0",
    "k_max = 0",
    "h_samples = 0",
    "oracle_tol = -1",
    "set_kind = box\nset_lower = 1.0\nset_upper = -1.0",
    "set_kind = ball\nset_radius = 0",
    "problem = synthetic\nd2 = 2\nx_low = 5\nx_high = 0",
    "init_x = 0.1, 0.2",  # d1 = 1
    "init_y = 0.1, 0.2",  # d2 = 1
    "init_x = one",
    "set_kind = box\nset_lower = 0, 0\nset_upper = 1, 1",  # d1 = 1
    "set_kind = ball",
    "set_kind = ball\nset_radius = 1\nset_center = 0, 0",
])
def test_validate_reports_every_config_mistake(tmp_path, capsys, lines):
    """Values the library rejects while the run is set up exit 1 with
    error_category=ConfigError, not a ValueError traceback."""
    base = "problem = quadratic\nT = 8\nregime = convex_static\nalpha = 0.2\nbeta = 1.0\nK = 2\n"
    path = _write(tmp_path / "bad.cfg", base + lines + "\n")
    assert main(["validate", "--config", path]) == 1
    assert "error_category=ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("lines, key", [
    ("regime = convex_static\ninit_y = nan", "init_y"),
    ("regime = convex_static\nset_kind = unbounded\nD = 1\ninit_x = -inf", "init_x"),
    ("regime = strongly_convex\nmu_f = 5", "mu_f"),  # the quadratic's ell_f1 is 1
])
def test_validate_names_nonfinite_init_and_mu_f_above_ell_f1(tmp_path, capsys, lines, key):
    """A non-finite init_x / init_y and a mu_f above the family's ell_f1
    fail `oagd validate` with a ConfigError that names the key, instead of
    a NonFiniteIterate at round 1 or a run on an impossible constant."""
    base = "problem = quadratic\nT = 8\nalpha = 0.2\nbeta = 1.0\nK = 2\n"
    path = _write(tmp_path / "bad.cfg", base + lines + "\n")
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error_category=ConfigError" in err and key in err


_HINTS = typing.get_type_hints(ExperimentConfig)
FLOAT_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)
              if _HINTS[f.name] in (float, typing.Optional[float])]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_validate_rejects_every_nonfinite_float_key(key, value):
    """Every float key, used by the config or not, fails validate on nan
    and on either infinity with an error naming it. Every comparison with
    nan is false, so a domain check alone would let nan through."""
    with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
        validate_config(_base_cfg(**{key: value}))


ENET_AT_T10 = ((Path(__file__).resolve().parents[1] / "configs" / "elastic_net.cfg")
               .read_text(encoding="utf-8") + "T = 10\n")


@pytest.mark.parametrize("lines, key", [
    # `run` would fail at round 1 with NonFiniteIterate
    ("alpha = nan", "alpha"),
    ("alpha = inf", "alpha"),
    ("beta = nan", "beta"),
    ("quad_rule = constant\nquad_a1_const = nan", "quad_a1_const"),
    # `run` would end in a raw traceback (nan constants, init outside the
    # set) or, here at validate, a raw ZeroDivisionError
    ("problem = synthetic\nd2 = 2\nx_low = nan", "x_low"),
    ("set_kind = box\nset_half_width = nan", "set_half_width"),
    ("set_kind = ball\nset_radius = nan", "set_radius"),
    # `run` would write comparators from a PGD stopped at its start
    (ENET_AT_T10 + "oracle_tol = inf", "oracle_tol"),
    # not "needs a bounded set or an explicit D"
    ("regime = convex_static\nD = nan", "D"),
], ids=lambda v: v.splitlines()[-1] if "\n" in v else v)
def test_validate_names_nonfinite_key(tmp_path, capsys, lines, key):
    """Non-finite values that would otherwise run to a late failure, a raw
    traceback or silently wrong numbers fail `oagd validate` with a
    ConfigError naming their key."""
    base = "problem = quadratic\nT = 20\nregime = convex_dynamic\n"
    path = _write(tmp_path / "bad.cfg", base + lines + "\n")
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error_category=ConfigError" in err and f"{key} must be finite" in err


def test_beta_past_contraction_bound_rejected(tmp_path, capsys):
    """configs/synthetic_stages.cfg with beta = 0.05 > 2/ell_g1 ~ 0.032 (its
    old override, which made the outer iterate non-finite on round 245)
    fails validate; as shipped it runs past that round."""
    shipped = Path(__file__).resolve().parents[1] / "configs" / "synthetic_stages.cfg"
    path = _write(tmp_path / "beta.cfg", shipped.read_text(encoding="utf-8") + "beta = 0.05\n")
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error_category=ConfigError" in err and "2/ell_g1" in err
    cfg = parse_config(shipped)
    cfg.T = 300
    cfg.output = str(tmp_path / "syn")
    trace, report, _ = run_experiment(cfg)
    assert np.all(np.isfinite(trace.x)) and np.all(np.isfinite(report.bd_regret))


def test_initial_pair_from_config():
    """init_x and init_y are comma-separated vectors; without them x is
    the projection of 0 and y is 0."""
    init = _set_up(_base_cfg(init_x="0.5,", init_y=" -0.25"))[0][-1]
    np.testing.assert_array_equal(init.x, [0.5])
    np.testing.assert_array_equal(init.y, [-0.25])
    init = _set_up(_base_cfg(set_kind="box", set_lower="0.2", set_upper="0.9"))[0][-1]
    np.testing.assert_array_equal(init.x, [0.2])
    np.testing.assert_array_equal(init.y, [0.0])


def test_build_schedules_regime_defaults():
    """Without alpha and K overrides each regime takes its theorem step
    size and K rule; on the quadratic family (mu_f = 1, L_f = 4,
    ell_f0 = 5, D = 2) those are 2/t, 1/32, 2/(5 sqrt(t)) and 1/12. The
    nonconvex K_t rule reads alpha_1 = 1/12 and the window's W = 30: it
    matches the rule built from them, and not one built with another W or
    alpha, at constants where W decides (M_f = 0) and where alpha decides
    (M_f = 100)."""
    cases = {
        "strongly_convex_static": (lambda t: 2.0 / t, "strongly_convex_static"),
        "convex_dynamic": (lambda t: 1.0 / 32.0, "convex_log_t"),
        "convex_static": (lambda t: 2.0 / (5.0 * math.sqrt(t)), "convex_log_t"),
        "nonconvex": (lambda t: 1.0 / 12.0, "nonconvex"),
    }
    for regime, (alpha, inner_kind) in cases.items():
        cfg = _base_cfg(regime=regime, alpha=None, beta=None, K=None)
        prep = prepare(cfg)
        window = make_weights("uniform", 30)
        steps, inner, derived = build_schedules(cfg, prep, window)
        assert prep.notes == [], regime
        for t in (1, 4, 9):
            assert steps.alpha_at(t) == pytest.approx(alpha(t), rel=1e-15), regime
        assert inner.kind == inner_kind and inner.beta == 1.0, regime
    ref = InnerSchedule.nonconvex(1.0, 1.0 / 12.0, 30.0)
    for M_f, other in ((0.0, InnerSchedule.nonconvex(1.0, 1.0 / 12.0, 3.0)),
                       (100.0, InnerSchedule.nonconvex(1.0, 0.0, 30.0))):
        probe = dataclasses.replace(derived, kappa_g=100.0, M_f=M_f)
        assert (k_for_round(inner, probe, 1) == k_for_round(ref, probe, 1)
                != k_for_round(other, probe, 1)), M_f


@pytest.mark.parametrize("overrides, message", [
    (dict(problem="synthetic", d2=2, regime="strongly_convex"), "needs mu_f"),
    (dict(problem="synthetic", d2=2, regime="strongly_convex", alpha=0.1), "needs mu_f"),
    (dict(problem="synthetic", d2=2, regime="strongly_convex_static"), "needs mu_f"),
    (dict(problem="synthetic", d2=2, regime="strongly_convex_static", alpha=0.1), "needs mu_f"),
    (dict(problem="synthetic", d2=2, regime="convex_static"), "bounded set or an explicit D"),
])
def test_build_schedules_regime_errors(overrides, message):
    """A regression stream has no mu_f and an unbounded default set, so
    the regimes that need either, for the step size or for K, fail without
    overrides."""
    cfg = _base_cfg(**{"alpha": None, "beta": None, "K": None, **overrides})
    with pytest.raises(ConfigError, match=message):
        build_schedules(cfg, prepare(cfg), make_weights("uniform", 1))


def test_validate_catches_finite_values_that_overflow(tmp_path, capsys):
    """quad_a1_const = 1e308 is finite, but the stream's shift 2 a1 - a2
    overflows: validate fails with a ConfigError instead of passing a run
    that dies of NonFiniteIterate. A box of half width 1e308 is bounded,
    but its diameter overflows float64: convex_static says so and asks for
    D, and every other regime accepts the box. Under pytest's
    warnings-as-errors no raw numpy overflow warning reaches either."""
    base = "problem = quadratic\nT = 20\n"
    path = _write(tmp_path / "a1.cfg", base + "regime = convex_dynamic\nquad_rule = constant\n"
                  "quad_a1_const = 1e308\n")
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error_category=ConfigError" in err and "2 a1 - a2 must be finite" in err
    box = base + "set_kind = box\nset_half_width = 1e308\n"
    for regime in ("strongly_convex", "strongly_convex_static", "convex_dynamic",
                   "convex_static", "nonconvex"):
        path = _write(tmp_path / f"{regime}.cfg", box + f"regime = {regime}\n")
        if regime != "convex_static":
            assert main(["validate", "--config", path]) == 0, regime
            continue
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error_category=ConfigError" in err and "bounded set" not in err
        assert "box set is bounded, but its diameter overflows float64; set D" in err
        path = _write(tmp_path / "with_D.cfg", box + f"regime = {regime}\nD = 2\n")
        assert main(["validate", "--config", path]) == 0


def test_validate_rejects_regime_defaults_that_read_overflowed_constants(tmp_path, capsys):
    """y_bound = 1e200 on a synthetic stream gives M_f = L_f = inf. Each
    regime whose default step size or K_t reads one fails validate with a
    ConfigError naming it and y_bound / x_high, instead of a raw ValueError
    (nonconvex), a zero step (convex_dynamic) or "c must be positive"
    (strongly_convex); with alpha and K set, none is read."""
    base = "problem = synthetic\nT = 20\nd2 = 2\ny_bound = 1e200\n"
    regimes = {"nonconvex": "", "strongly_convex": "mu_f = 0.1\n",
               "convex_dynamic": "set_kind = box\nset_lower = 0\nset_upper = 3\n"}
    for regime, extra in regimes.items():
        path = _write(tmp_path / f"{regime}.cfg", base + extra + f"regime = {regime}\n")
        assert main(["validate", "--config", path]) == 1, regime
        err = capsys.readouterr().err
        assert "error_category=ConfigError" in err, regime
        assert "derived constant L_f = inf is not finite" in err, regime
        assert "lower y_bound = 1e+200 or x_high = 3" in err, regime
        path = _write(tmp_path / f"{regime}_set.cfg",
                      base + extra + f"regime = {regime}\nalpha = 0.01\nK = 5\n")
        assert main(["validate", "--config", path]) == 0, regime


def test_run_refuses_h_estimate_on_a_box_wider_than_float64(tmp_path, capsys):
    """A box of half width 1e308 passes validate, but its width overflows:
    run stops with a ConfigError that advises report_h = false, with no raw
    numpy warning (warnings are errors here), and runs with it."""
    cfg = ("problem = quadratic\nT = 20\nregime = convex_dynamic\nset_kind = box\n"
           f"set_half_width = 1e308\noutput = {tmp_path / 'wide'}\n")
    path = _write(tmp_path / "wide.cfg", cfg)
    assert main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error_category=ConfigError" in err and "set report_h = false" in err
    path = _write(tmp_path / "wide_no_h.cfg", cfg + "report_h = false\n")
    assert main(["run", "--config", path]) == 0
    meta = (tmp_path / "wide.meta.txt").read_text(encoding="utf-8")
    assert "report.h_T = nan" in meta


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| group | keys |"):].split("\n\n")[0].splitlines()[2:]
    listed = {key for row in table for key in re.findall(r"`(\w+)`", row.split("|")[2])}
    assert listed == {f.name for f in dataclasses.fields(ExperimentConfig)}
    # each declared domain follows its key: the choices in order, or the
    # numeric domain in the words of validate's errors
    for f in dataclasses.fields(ExperimentConfig):
        domain = f.metadata.get("domain")
        if domain is None:
            continue
        words = ", ".join(c for c in domain if c) if isinstance(domain, tuple) \
            else _NUMERIC_DOMAINS[domain][0]
        assert re.search(rf"`{f.name}` \({re.escape(words)}[);]", "\n".join(table)), f.name


def test_resolved_window_literal():
    assert _base_cfg(window_w="17").resolved_window() == 17
    assert _base_cfg(window_w="T").resolved_window() == 8


def test_parse_windows():
    assert _parse_windows("1, 10,T") == ["1", "10", "T"]
    with pytest.raises(ConfigError):
        _parse_windows(" , ")
    with pytest.raises(ConfigError):
        _parse_windows("1,zero")
    with pytest.raises(ConfigError):
        _parse_windows("0")


QUAD_CFG = """
problem = quadratic
T = 16
regime = convex_static
window_w = 4
alpha = 0.2
beta = 1.0
K = 2
output = {out}
"""


def test_run_experiment_writes_csv_and_meta(tmp_path):
    cfg = parse_config(_write(tmp_path / "c.cfg", QUAD_CFG.format(out=tmp_path / "run")))
    trace, report, meta = run_experiment(cfg)
    with open(tmp_path / "run.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 17
    # repr round trip: the file reproduces the trace bit for bit
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i + 1
        assert float(row[1]) == trace.f_value[i]
        assert float(row[2]) == report.bd_regret[i]
        assert int(row[8]) == trace.K[i]
    meta_text = (tmp_path / "run.meta.txt").read_text(encoding="utf-8")
    assert "config.problem = quadratic" in meta_text
    assert "bd_final" in meta_text or "bd" in meta_text


def _csv_writer_reference(path, trace, report):
    """The trace CSV as csv.writer wrote it, row by row."""
    nan = float("nan")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in range(trace.T):
            writer.writerow([
                i + 1,
                repr(float(trace.f_value[i])),
                repr(float(report.bd_regret[i])),
                repr(float(report.bs_regret[i]) if report.bs_regret is not None else nan),
                repr(float(report.bl_regret[i]) if report.bl_regret is not None else nan),
                repr(float(report.p2_series[i])),
                repr(float(report.y2_series[i])),
                repr(float(trace.alpha[i])),
                int(trace.K[i]),
                repr(float(trace.inner_residual[i])),
                int(trace.wall_nanos[i]),
            ])


def test_write_csv_bytes_match_csv_writer(tmp_path):
    """_write_csv writes csv.writer's bytes, with and without the static
    and local regret columns, for signed zeros, infinities, nan,
    subnormals, large floats and 63-bit wall times."""
    odd = np.array([-0.0, np.inf, -np.inf, 5e-324, 1e16, -1.5e-300, 0.1, np.nan])
    T = odd.shape[0]
    trace = Trace.allocate(T, 1, 1)
    trace.f_value[:] = odd
    trace.alpha[:] = odd[::-1]
    trace.K[:] = [0, 1, 7, 10_000, 3, 2, 1, 0]
    trace.inner_residual[:] = np.roll(odd, 3)
    trace.wall_nanos[:] = 2**62 + np.arange(T) * 999_999_937
    report = regret.RegretReport(
        bd_regret=np.roll(odd, 1), bs_regret=None, bl_regret=None,
        p1=0.0, p2=0.0, y1=0.0, y2=0.0, ybar1=0.0, ybar2=0.0, h_T=0.0,
        comparator_grad_sum=0.0, f_star_sum=0.0,
        p2_series=np.roll(odd, 2), y2_series=-np.roll(odd, 4),
        x_static=None, provenance="closed_form",
    )
    full = dataclasses.replace(report, bs_regret=np.roll(odd, 5), bl_regret=np.roll(odd, 6))
    for rep in (report, full):
        _write_csv(tmp_path / "got.csv", trace, rep)
        if rep is report:
            rows = (tmp_path / "got.csv").read_text(encoding="utf-8").splitlines()[1:]
            assert all(row.split(",")[3:5] == ["nan", "nan"] for row in rows)
        _csv_writer_reference(tmp_path / "ref.csv", trace, rep)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == T + 1


def test_run_experiment_full_info_baseline(tmp_path, monkeypatch):
    # H_T is reported for the online run only; the baseline skips its own
    h_calls = []
    h_estimate = regret.h_estimate
    monkeypatch.setattr(regret, "h_estimate",
                        lambda *a, **k: h_calls.append(1) or h_estimate(*a, **k))
    cfg = parse_config(_write(tmp_path / "c.cfg", QUAD_CFG.format(out=tmp_path / "base")))
    cfg.baseline = "full_info"
    run_experiment(cfg)
    assert len(h_calls) == 1
    assert (tmp_path / "base.baseline.csv").exists()
    meta_text = (tmp_path / "base.meta.txt").read_text(encoding="utf-8")
    assert "baseline.bd_final" in meta_text


def test_run_experiment_creates_missing_output_directory(tmp_path):
    # the baseline file is written first, so it must not outrun mkdir
    out = tmp_path / "nested" / "dir" / "base"
    cfg = parse_config(_write(tmp_path / "c.cfg", QUAD_CFG.format(out=out)))
    cfg.baseline = "full_info"
    run_experiment(cfg)
    assert (out.parent / "base.baseline.csv").exists()
    assert (out.parent / "base.csv").exists()


def test_meta_warns_on_every_capped_round(tmp_path):
    """K = 2 above k_max = 1 caps K_t on every round, and meta.txt gives
    one warning line per capped round."""
    text = QUAD_CFG.format(out=tmp_path / "cap") + "k_max = 1\n"
    trace, _, _ = run_experiment(parse_config(_write(tmp_path / "c.cfg", text)))
    assert trace.K.tolist() == [1] * 16
    lines = (tmp_path / "cap.meta.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("warning = ")] == [
        f"warning = round {t}: K_t capped at 1" for t in range(1, 17)]


def test_main_run_and_validate(tmp_path, capsys):
    path = _write(tmp_path / "c.cfg", QUAD_CFG.format(out=tmp_path / "m"))
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ok: quadratic" in out
    assert main(["run", "--config", path]) == 0
    assert (tmp_path / "m.csv").exists()


def test_main_reports_error_category(tmp_path, capsys):
    path = _write(tmp_path / "bad.cfg", "problem = cubic\nT = 4\nregime = convex_static\n")
    code = main(["validate", "--config", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "error_category=ConfigError" in err


def test_main_run_reports_outer_overflow_with_its_round(tmp_path, capsys):
    """alpha = 1e200 on an unbounded set: x_1 = -2e200, and round 2's outer
    step overflows, which `oagd run` reports as NonFiniteIterate naming
    round 2."""
    text = (QUAD_CFG.format(out=tmp_path / "of").replace("alpha = 0.2", "alpha = 1e200")
            + "quad_a1_mode = zero\nset_kind = unbounded\nD = 1\n")
    path = _write(tmp_path / "of.cfg", text)
    assert main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error_category=NonFiniteIterate" in err
    assert "round 2: outer iterate became non-finite" in err


def test_main_missing_file_reports_oserror(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error_category=FileNotFoundError" in err


SYN_CFG = """
problem = synthetic
T = 12
regime = convex_static
window_w = 3
synthetic_stages = 2
d1 = 1
d2 = 2
noise_max = 0.1
alpha = 0.1
beta = 0.05
K = 3
seed = 2
set_kind = box
set_half_width = 2.0
output = {out}
"""


def _without_wall_times(path: Path) -> list:
    """A written CSV's rows without wall_nanos, or a meta file's lines
    without config.output."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            skip = CSV_COLUMNS.index("wall_nanos")
            return [row[:skip] + row[skip + 1:] for row in csv.reader(fh)]
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if not line.startswith("config.output = ")]


def test_sweep_writes_one_output_per_window(tmp_path):
    """Every file a sweep writes for a window equals what a standalone run
    at that window writes, except wall_nanos and config.output: each
    window keeps its own override notes, and sharing the prepared stream
    (its tables and kernel workspace) and the comparator series
    changes nothing."""
    for name, text in (("quad", QUAD_CFG + "baseline = full_info\n"), ("syn", SYN_CFG)):
        path = _write(tmp_path / f"{name}.cfg", text.format(out=tmp_path / name / "sw"))
        assert main(["sweep", "--config", path, "--windows", "1,2,T"]) == 0
        cfg = parse_config(path)
        for w in ("1", "2", "T"):
            solo = tmp_path / name / f"solo_{w}"
            run_experiment(dataclasses.replace(cfg, window_w=w, output=str(solo)))
            files = sorted(solo.parent.glob(f"solo_{w}.*"))
            assert len(files) == (3 if cfg.baseline == "full_info" else 2)
            for file in files:
                swept = file.with_name(file.name.replace(f"solo_{w}", f"sw_w{w}"))
                assert _without_wall_times(swept) == _without_wall_times(file), swept
        meta = (tmp_path / name / "sw_wT.meta.txt").read_text(encoding="utf-8")
        assert "config.window_w = T" in meta
        assert f"config.output = {tmp_path / name / 'sw_wT'}" in meta
        assert meta.count("note = alpha = ") == 1


def test_sweep_reports_errors_as_run_does(tmp_path, capsys):
    """A sweep on a stream too short for T prints the error run prints."""
    dataset = Path(__file__).resolve().parents[1] / "data" / "regression_300.csv"
    path = _write(tmp_path / "c.cfg", f"problem = ho\ndataset = {dataset}\nT = 101\n"
                  f"regime = convex_static\nalpha = 0.05\nK = 5\noutput = {tmp_path / 'ho'}\n")
    assert main(["run", "--config", path]) == 1
    run_err = capsys.readouterr().err
    assert main(["sweep", "--config", path, "--windows", "1,T"]) == 1
    assert capsys.readouterr().err == run_err == (
        "error_category=StreamExhausted\n"
        "stream exhausted at round 101 (only 100 rounds available)\n"
    )


def test_run_without_output_rejected():
    cfg = _base_cfg(output="")
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_synthetic_problem_end_to_end(tmp_path):
    cfg = parse_config(_write(tmp_path / "c.cfg", SYN_CFG.format(out=tmp_path / "syn")))
    trace, report, meta = run_experiment(cfg)
    assert trace.T == 12
    assert np.all(np.isfinite(trace.f_value))
    assert report.bd_regret.shape == (12,)


def test_ho_problem_end_to_end(tmp_path):
    """problem = ho builds a ridge stream (one ridge weight by default)
    from the CSV's train and validation splits and reports the test error
    of the final fit."""
    dataset = Path(__file__).resolve().parents[1] / "data" / "regression_300.csv"
    text = f"""
problem = ho
dataset = {dataset}
T = 12
regime = convex_static
window_w = 3
set_kind = box
set_half_width = 2.0
alpha = 0.05
K = 5
output = {tmp_path / "ho"}
"""
    cfg = parse_config(_write(tmp_path / "c.cfg", text))
    prep = prepare(cfg)
    assert type(prep.stream).__name__ == "HOStream" and (prep.d1, prep.d2) == (1, 8)
    trace, report, meta = run_experiment(cfg)
    assert np.all(np.isfinite(report.bd_regret)) and math.isfinite(report.h_T)
    assert math.isfinite(float(dict(m.partition(" = ")[::2] for m in meta)["test_error"]))


def test_shipped_elastic_net_config_full_report(tmp_path, monkeypatch):
    """Every configs/*.cfg passes `oagd validate` and runs cut to T = 12,
    writing a keyed meta line per value, a plain float (or None) for every
    constant, derived constant and scalar report value, and finite values
    for every report it turns on; configs/elastic_net.cfg turns on its
    static, local and H_T reports."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # shipped configs name their dataset relative to the repo root
    paths = sorted((root / "configs").glob("*.cfg"))
    enet = parse_config(root / "configs" / "elastic_net.cfg")
    assert enet.report_static and enet.report_local and enet.report_h
    for path in paths:
        assert main(["validate", "--config", str(path)]) == 0, path.name
        cfg = parse_config(path)
        cfg.T = 12
        cfg.output = str(tmp_path / path.stem)
        expect_flag = pytest.warns(NonConvexFlag) if cfg.regime == "nonconvex" \
            else contextlib.nullcontext()
        with expect_flag:
            run_experiment(cfg)
        lines = Path(cfg.output + ".meta.txt").read_text(encoding="utf-8").splitlines()
        assert all(" = " in line for line in lines), path.name
        meta = dict(line.partition(" = ")[::2] for line in lines)
        for key, value in meta.items():
            if key.startswith(("constants.", "derived.", "report.")) and value != "None" \
                    and key not in ("report.provenance", "report.x_static"):
                float(value)  # a numpy scalar repr such as np.float64(...) fails here
        reports = {"report.bd_final": True, "report.bs_final": cfg.report_static,
                   "report.bl_final": cfg.report_local, "report.h_T": cfg.report_h}
        for key, on in reports.items():
            if on:
                assert math.isfinite(float(meta[key])), (path.name, key)


def _same_value(got: str, ref: str) -> bool:
    """One CSV cell or meta value: integers and text exactly, floats (or
    comma-separated float lists) within 1e-12 relative, nan equal to nan."""
    try:
        return int(got) == int(ref)
    except ValueError:
        pass
    try:
        pairs = [(float(a), float(b)) for a, b in zip(got.split(","), ref.split(","), strict=True)]
    except ValueError:
        return got == ref
    return all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
               or (math.isnan(a) and math.isnan(b)) for a, b in pairs)


def _assert_reproduces(out: str, ref: Path, suffixes):
    """Files out + suffix equal the committed ref + suffix: every integer
    and text value exactly, every float within 1e-12 relative. Only
    wall_nanos and config.output may differ."""
    for suffix in suffixes:
        with open(out + suffix, newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        with open(f"{ref}{suffix}", newline="", encoding="utf-8") as fh:
            want = list(csv.reader(fh))
        assert got[0] == want[0] == CSV_COLUMNS
        assert len(got) == len(want)
        skip = CSV_COLUMNS.index("wall_nanos")
        for g_row, r_row in zip(got[1:], want[1:]):
            for j, (a, b) in enumerate(zip(g_row, r_row, strict=True)):
                assert j == skip or _same_value(a, b), (suffix, g_row[0], CSV_COLUMNS[j], a, b)
    got = Path(out + ".meta.txt").read_text(encoding="utf-8").splitlines()
    want = Path(f"{ref}.meta.txt").read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for g_line, r_line in zip(got, want):
        key, _, a = g_line.partition(" = ")
        ref_key, _, b = r_line.partition(" = ")
        assert key == ref_key
        assert key == "config.output" or _same_value(a, b), (key, a, b)


def test_quadratic_dynamic_reproduces_committed_results(tmp_path, monkeypatch):
    """Rerunning configs/quadratic_dynamic.cfg reproduces the committed
    results/quadratic_dynamic.{csv,baseline.csv,meta.txt}, and sweeping
    configs/quadratic_sweep.cfg over windows 2 and 8 reproduces
    results/quadratic_sweep_w{2,8}.{csv,meta.txt}."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    cfg = parse_config(root / "configs" / "quadratic_dynamic.cfg")
    cfg.output = str(tmp_path / "quadratic_dynamic")
    run_experiment(cfg)
    _assert_reproduces(cfg.output, root / "results" / "quadratic_dynamic", (".csv", ".baseline.csv"))
    sweep_cfg = (root / "configs" / "quadratic_sweep.cfg").read_text(encoding="utf-8")
    path = _write(tmp_path / "sweep.cfg", sweep_cfg + f"output = {tmp_path / 'quadratic_sweep'}\n")
    assert main(["sweep", "--config", path, "--windows", "2,8"]) == 0
    for w in (2, 8):
        _assert_reproduces(str(tmp_path / f"quadratic_sweep_w{w}"),
                           root / "results" / f"quadratic_sweep_w{w}", (".csv",))


def test_elastic_net_reproduces_committed_results(tmp_path, monkeypatch):
    """Rerunning configs/elastic_net.cfg reproduces the committed
    results/elastic_net.{csv,meta.txt}: the loop's columns (f_value,
    alpha_t, K_t, inner_residual) and trace.final_x exactly; the values
    that come from the comparator oracles (the regret and path-length
    columns, report.* and test_error) within the config's oracle_tol,
    relative to max(1, |value|); every other meta line as text. Only
    wall_nanos and config.output may differ otherwise."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    cfg = parse_config(root / "configs" / "elastic_net.cfg")
    cfg.output = str(tmp_path / "elastic_net")
    with pytest.warns(NonConvexFlag):
        run_experiment(cfg)
    ref = root / "results" / "elastic_net"

    def within_tol(got: str, want: str) -> bool:
        try:
            pairs = [(float(a), float(b))
                     for a, b in zip(got.split(","), want.split(","), strict=True)]
        except ValueError:
            return got == want
        return all(abs(a - b) <= cfg.oracle_tol * max(1.0, abs(b))
                   or (math.isnan(a) and math.isnan(b)) for a, b in pairs)

    with open(cfg.output + ".csv", newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    with open(f"{ref}.csv", newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0] == CSV_COLUMNS and len(got) == len(want)
    exact = {"t", "f_value", "alpha_t", "K_t", "inner_residual"}
    for g_row, w_row in zip(got[1:], want[1:]):
        for name, a, b in zip(CSV_COLUMNS, g_row, w_row, strict=True):
            if name in exact:
                assert a == b, (g_row[0], name, a, b)
            elif name != "wall_nanos":
                assert within_tol(a, b), (g_row[0], name, a, b)
    got = Path(cfg.output + ".meta.txt").read_text(encoding="utf-8").splitlines()
    want = Path(f"{ref}.meta.txt").read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for g_line, w_line in zip(got, want):
        key, _, a = g_line.partition(" = ")
        assert key == w_line.partition(" = ")[0]
        b = w_line.partition(" = ")[2]
        if key.startswith("report.") or key == "test_error":
            assert within_tol(a, b), (key, a, b)
        elif key != "config.output":
            assert a == b, (key, a, b)


def test_enet_oracle_comparator_chain_matches_benchmark_reference(monkeypatch):
    """The benchmark's enet-oracle config, run in process without writing,
    reproduces its stored report values within the config's oracle_tol
    (|a - b| <= tol max(1, |b|)). Its comparators come from warm-started
    numerical solves on a nonconvex stream, so a change that moves a
    stationary point (cold starts, batched or spectral steps) shows here."""
    import json

    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    cfg = parse_config(root / "perfbench" / "configs" / "enet-oracle.cfg")
    ref = json.loads((root / "perfbench" / "reference.json").read_text())["enet-oracle"]["0"]
    with pytest.warns(NonConvexFlag):
        _, _, meta = run_experiment(cfg, write=False)
    got = dict(line.split(" = ", 1) for line in meta)
    for key in ("report.bd_final", "report.p1", "report.y1", "report.comparator_grad_sum",
                "test_error"):
        want = ref["values"][key]
        assert abs(float(got[key]) - want) <= cfg.oracle_tol * max(1.0, abs(want)), key


_NUMPY_ONLY_RUN = """
import sys
from pathlib import Path


class RefuseThirdParty:
    # refuse every import outside the standard library, numpy and oagd
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in sys.stdlib_module_names or top in ("numpy", "oagd"):
            return None
        raise ImportError(f"{name} is not a runtime dependency of oagd")


sys.meta_path.insert(0, RefuseThirdParty())
from oagd.cli import main

out = Path(sys.argv[1])
for path in sorted(Path("configs").glob("*.cfg")):
    if main(["validate", "--config", str(path)]) != 0:
        sys.exit(f"validate failed: {path.name}")
    cut = out / path.name
    cut.write_text(path.read_text(encoding="utf-8")
                   + f"T = 12\\noutput = {out / path.stem}\\n", encoding="utf-8")
    if main(["run", "--config", str(cut)]) != 0:
        sys.exit(f"run failed: {path.name}")
for name in ("quadratic_sweep", "synthetic_stages"):
    cut = out / f"{name}.cfg"
    with open(cut, "a", encoding="utf-8") as fh:
        fh.write(f"output = {out / 'sweep' / name}\\n")
    if main(["sweep", "--config", str(cut), "--windows", "1,T"]) != 0:
        sys.exit(f"sweep failed: {name}")
"""


def test_shipped_configs_run_with_numpy_as_only_dependency(tmp_path):
    """`oagd validate` and a T = 12 `oagd run` of every configs/*.cfg, and
    a T = 12 `oagd sweep` of the two sweep configs, succeed in a fresh
    interpreter that refuses every import outside the standard library,
    numpy and oagd itself."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_RUN, str(tmp_path)],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.meta.txt"))) == len(list((root / "configs").glob("*.cfg")))
    assert sorted(p.name for p in (tmp_path / "sweep").glob("*.meta.txt")) == [
        f"{name}_w{w}.meta.txt" for name in ("quadratic_sweep", "synthetic_stages") for w in "1T"]
