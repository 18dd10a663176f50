"""Tests for the experiment runner: CSV loading, config parsing and
validation, end-to-end runs, output files, sweeps, and error reporting."""
import csv
import math
from pathlib import Path

import numpy as np
import pytest

from oagd import ConfigError, EmptyDataset, NonConvexFlag, ParseError, regret
from oagd.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    _parse_windows,
    load_csv,
    main,
    parse_config,
    run_experiment,
    validate_config,
)


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
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            validate_config(_base_cfg(**overrides))
    assert validate_config(_base_cfg()).problem == "quadratic"


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


def test_main_missing_file_reports_oserror(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error_category=FileNotFoundError" in err


def test_sweep_writes_one_output_per_window(tmp_path):
    path = _write(tmp_path / "c.cfg", QUAD_CFG.format(out=tmp_path / "sw"))
    assert main(["sweep", "--config", path, "--windows", "1,2,T"]) == 0
    for suffix in ("w1", "w2", "wT"):
        assert (tmp_path / f"sw_{suffix}.csv").exists()
        assert (tmp_path / f"sw_{suffix}.meta.txt").exists()
    # the window column of the meta reflects the override
    meta = (tmp_path / "sw_wT.meta.txt").read_text(encoding="utf-8")
    assert "config.window_w = T" in meta


def test_run_without_output_rejected():
    cfg = _base_cfg(output="")
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_synthetic_problem_end_to_end(tmp_path):
    text = """
problem = synthetic
T = 12
regime = convex_static
window_w = 3
synthetic_stages = 2
d1 = 1
d2 = 2
noise_max = 0.1
alpha = 0.1
beta = 0.2
K = 3
seed = 2
set_kind = box
set_half_width = 2.0
output = {out}
""".format(out=tmp_path / "syn")
    cfg = parse_config(_write(tmp_path / "c.cfg", text))
    trace, report, meta = run_experiment(cfg)
    assert trace.T == 12
    assert np.all(np.isfinite(trace.f_value))
    assert report.bd_regret.shape == (12,)


def test_shipped_elastic_net_config_full_report(tmp_path):
    """configs/elastic_net.cfg, cut to T = 10, runs with its static, local
    and H_T reports on and writes finite values for all three."""
    root = Path(__file__).resolve().parents[1]
    cfg = parse_config(root / "configs" / "elastic_net.cfg")
    assert cfg.report_static and cfg.report_local and cfg.report_h
    cfg.T = 10
    cfg.dataset = str(root / cfg.dataset)
    cfg.output = str(tmp_path / "enet")
    with pytest.warns(NonConvexFlag):
        run_experiment(cfg)
    lines = (tmp_path / "enet.meta.txt").read_text(encoding="utf-8").splitlines()
    assert all(" = " in line for line in lines)
    meta = dict(line.partition(" = ")[::2] for line in lines)
    for key in ("report.bs_final", "report.bl_final", "report.h_T"):
        assert math.isfinite(float(meta[key])), key
