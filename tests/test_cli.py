import concurrent.futures
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polyshoot
from polyshoot import cli, integrator, shooting
from polyshoot.cli import _CSV_BLOCK, _csv_blocks, _fmt, main, parse_range, UsageError


def run_cli(argv, capsys=None):
    code = main(argv)
    return code


def read_nontimestamp(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("# generated:")]


def test_parse_range():
    assert parse_range("0:1:0.5") == [0.0, 0.5, 1.0]
    assert parse_range("10,20,40") == [10.0, 20.0, 40.0]
    assert parse_range("") == []
    with pytest.raises(UsageError):
        parse_range("0:1")
    with pytest.raises(UsageError):
        parse_range("1:0:0.5")
    # non-finite parts, and a step count that is not finite, name the range
    for text in ("0:inf:1", "0:1:inf", "0:1:nan", "1,nan"):
        with pytest.raises(UsageError, match=f"range parts must be finite, got '{text}'"):
            parse_range(text)
    with pytest.raises(UsageError, match="range '0:1e300:1e-300' has too many points"):
        parse_range("0:1e300:1e-300")
    # a finite count above 1e6 points is refused before any point is listed
    for text in ("0:1e12:1", "0:1000000:1"):
        with pytest.raises(UsageError, match=f"range '{text}' has too many points"):
            parse_range(text)
    assert len(parse_range("0:999999:1")) == 10 ** 6


def test_verify_m2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--m", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["pass"] is True
    names = {c["check"] for c in report["checks"]}
    assert "lambda_star_closed_form_vs_quadrature" in names
    assert "critical_volume_reproduction" in names


def test_verify_m3(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--m", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True


def test_verify_controlled_failure(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--m", "2", "--tol", "1e-30", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["pass"] is False


def test_verify_tol_only_tightens(tmp_path):
    # --tol caps each check's tolerance: 1 leaves the defaults (it replaced
    # them, and every check passed at 1.0), 1e-30 lowers every one
    reports = {}
    for tol in (None, "1", "1e-30"):
        out = tmp_path / f"{tol}.json"
        flags = [] if tol is None else ["--tol", tol]
        want = 3 if tol == "1e-30" else 0
        assert main(["verify", "--m", "2", *flags, "--out", str(out)]) == want
        reports[tol] = json.loads(out.read_text())["checks"]
    assert reports["1"] == reports[None]
    assert [c["tolerance"] for c in reports[None]] == [1e-8, 1e-10, 1e-7, 1e-4]
    assert all(c["tolerance"] == 1e-30 for c in reports["1e-30"])


def test_verify_honours_config_file(tmp_path, monkeypatch):
    fields = {"rel_tol": 1e-9, "abs_tol": 1e-11, "dense_output_stride": 0.02}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, **fields}))
    seen = []
    integrate = cli.integrate

    def recording(spec, jet, cfg):
        seen.append(cfg)
        return integrate(spec, jet, cfg)

    monkeypatch.setattr(cli, "integrate", recording)
    main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "report.json")])
    # m=2: tracking run, volume run; m=3: tracking run
    assert [cfg.r_max for cfg in seen] == [50.0, 1e3, 10.0]
    # the volume reads no row, so its run keeps the default stride
    default_stride = polyshoot.IntegratorConfig().dense_output_stride
    volume_fields = {**fields, "dense_output_stride": default_stride}
    for cfg, want in zip(seen, (fields, volume_fields, fields)):
        assert {name: getattr(cfg, name) for name in fields} == want


def test_verify_checks_only_the_horizons_it_integrates(tmp_path, capsys):
    # 5e6 rows at the configured r_max 10, where m=3 tracks the profile;
    # m=2 tracks it at r_max 50, where the same stride asks for 2.5e7
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "r_max": 10, "dense_output_stride": 2e-6}))
    out = tmp_path / "report.json"
    assert main(["verify", "--m", "3", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True
    capsys.readouterr()
    assert main(["verify", "--m", "2", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "up to r_max 50" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["shoot", "--rho", "0.5"],
    ["sweep", "--rho", "0:1:1", "--jobs", "1"],
    ["prescribe-volume", "--m", "2", "--lambda", "9.4"],
    ["critical-eps", "--k", "10", "--bracket-tol", "1e-3"],
])
def test_commands_honour_config_file(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("POLYSHOOT_CACHE", raising=False)
    fields = {"rel_tol": 1e-9, "abs_tol": 1e-11, "dense_output_stride": 0.02}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, **fields}))
    seen = []

    def recording(integrate):
        def wrapped(spec, jet, cfg, **kwargs):
            seen.append(cfg)
            return integrate(spec, jet, cfg, **kwargs)
        return wrapped

    # the command's own integrations, the root solves', and volume_of_jet's
    for module in (cli, shooting, integrator):
        monkeypatch.setattr(module, "integrate", recording(module.integrate))
    assert main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert seen
    for cfg in seen:
        assert {name: getattr(cfg, name) for name in fields} == fields


def test_shoot_csv_m2(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["shoot", "--m", "2", "--rho", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("r,")][0]
    assert header == "r,u,u1,lap_u,lap_u1"
    assert lines[-1].startswith("# verdict,EntirePositive,growth_exponent,")
    gamma = float(lines[-1].split(",")[-1])
    assert abs(gamma - 2.0) < 0.1
    err = capsys.readouterr().err
    assert "EntirePositive" in err


def test_shoot_csv_extended(tmp_path, capsys):
    # the long-double path end to end: the config line and the footer
    out = tmp_path / "traj.csv"
    assert main(["shoot", "--m", "2", "--rho", "0", "--r-max", "50",
                 "--precision", "extended", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    config = json.loads([ln for ln in lines if ln.startswith("# config:")][0].split(":", 1)[1])
    assert config["precision"] == "extended"
    footer = lines[-1].split(",")
    assert footer[:3] == ["# verdict", "EntirePositive", "growth_exponent"]
    assert abs(float(footer[3]) - 1.0) <= 0.05
    assert "EntirePositive" in capsys.readouterr().err


def test_shoot_csv_collapse(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["shoot", "--m", "2", "--rho", "-0.2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("# verdict,Collapsed,r_star,")
    r_star = float(lines[-1].split(",")[-1])
    assert abs(r_star - 0.32281) < 1e-3
    assert "Collapsed" in capsys.readouterr().err


def test_shoot_csv_m3_columns(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["shoot", "--m", "3", "--k", "10", "--eps", "0.1",
                 "--r-max", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("r,")][0]
    assert header == "r,u,u1,lap_u,lap_u1,lap2_u,lap2_u1"
    data = [ln for ln in lines if ln and not ln.startswith("#") and not ln.startswith("r,")]
    assert len(data) == 2001
    assert len(data[0].split(",")) == 7


def test_csv_rows_format_like_fmt():
    table = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf],
                      [1e-300, -2.5e300, 0.1, np.float64(1) / 3, np.nan],
                      [np.nan, np.nan, 5e-324, -1.0, 123456789.125]])
    rows = "".join(_csv_blocks(table))
    assert rows == "".join(",".join(_fmt(v) for v in row) + "\n" for row in table)
    tall = np.tile(table, (_CSV_BLOCK, 1))  # spans several blocks
    assert len(list(_csv_blocks(tall))) == 3
    assert "".join(_csv_blocks(tall)) == rows * _CSV_BLOCK
    assert rows.splitlines()[0] == "0.0,-0.0,,inf,-inf"
    assert rows.splitlines()[2].startswith(",,5e-324,")


def test_csv_nan_field_is_empty_in_any_block():
    # a block is searched for "nan" only if it holds a NaN: one in the last
    # of three blocks is still an empty field, and the blocks without one
    # are written as they are
    table = np.tile([[1.0, 0.5]], (2 * _CSV_BLOCK + 3, 1))
    table[-2, 1] = np.nan
    blocks = list(_csv_blocks(table))
    assert blocks[0] == blocks[1] == "1.0,0.5\n" * _CSV_BLOCK
    assert blocks[2] == "1.0,0.5\n1.0,\n1.0,0.5\n"


def test_shoot_usage_error():
    assert main(["shoot", "--m", "2"]) == 2


def test_sweep_m2(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--m", "2", "--rho", "0:2:1", "--jobs", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(ln.startswith("# lambda_star:") for ln in lines)
    data = [ln for ln in lines if ln and not ln.startswith(("#", "rho,"))]
    assert len(data) == 3
    params = [float(ln.split(",")[0]) for ln in data]
    assert params == sorted(params)
    vols = [float(ln.split(",")[2]) for ln in data]
    assert vols[0] > vols[1] > vols[2]


def test_sweep_parallel_matches_serial(tmp_path):
    # --jobs is accepted and changes no byte
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--m", "2", "--rho", "0.5:1.5:0.5", "--jobs", "1",
                 "--out", str(a)]) == 0
    assert main(["sweep", "--m", "2", "--rho", "0.5:1.5:0.5", "--jobs", "2",
                 "--out", str(b)]) == 0
    assert read_nontimestamp(a) == read_nontimestamp(b)


def test_sweep_empty_range():
    assert main(["sweep", "--m", "2", "--rho", ""]) == 2
    assert main(["sweep", "--m", "3"]) == 2


def test_sweep_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--m", "2", "--rho", "0:1:0.5", "--jobs", "1",
                     "--out", str(path)]) == 0
    assert read_nontimestamp(a) == read_nontimestamp(b)


def test_critical_eps_json_and_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSHOOT_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "ce.json"
    assert main(["critical-eps", "--k", "10", "--bracket-tol", "1e-3",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["cache_hit"] is False
    assert rep["eps_star"] <= rep["eps_cap"]
    assert rep["width"] <= 1e-3
    assert rep["residual"]["partial_integral"] > 0.9
    assert (tmp_path / "cache" / "critical_eps.json").exists()
    # second run hits the cache
    assert main(["critical-eps", "--k", "10", "--bracket-tol", "1e-3",
                 "--out", str(out)]) == 0
    rep2 = json.loads(out.read_text())
    assert rep2["cache_hit"] is True
    assert rep2["eps_star"] == pytest.approx(rep["eps_star"])


def test_critical_eps_cache_hit_integrates_nothing(tmp_path, monkeypatch):
    calls = []
    integrate_ = shooting.integrate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integrate_(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting)
    # at 1e-3 the scan's two aimed probes already bracket eps*(10): 0 rounds
    argv = ["critical-eps", "--k", "10", "--bracket-tol", "1e-6",
            "--cache-dir", str(tmp_path / "cache")]
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    assert main(argv + ["--out", str(cold)]) == 0
    assert calls
    calls.clear()
    assert main(argv + ["--out", str(warm)]) == 0
    assert calls == []
    rep_cold, rep_warm = json.loads(cold.read_text()), json.loads(warm.read_text())
    assert (rep_cold.pop("cache_hit"), rep_warm.pop("cache_hit")) == (False, True)
    # iterations counts the refinement rounds of this run: none on a hit
    assert rep_cold.pop("iterations") > 0 and rep_warm.pop("iterations") == 0
    assert rep_warm == rep_cold


@pytest.mark.parametrize("text", [
    '[]', '{"schema": SCHEMA, "entries": []}', '{"schema": SCHEMA, "entries": "x"}',
    '{"schema": SCHEMA, "entries": {"KEY": {"eps_star": 3.0}}}',
    # every field, values no numbers: a hit, then a TypeError and exit 1, at schema 13
    '{"schema": SCHEMA, "entries": {"KEY": {"eps_star": "x", "eps_lo": "x", "eps_hi": null, '
    '"precision": null, "volume": "x", "volume_err": null, "delta2_at_horizon": "x", '
    '"partial_integral": null}}}'])
def test_critical_eps_cache_of_another_shape_is_a_miss(tmp_path, monkeypatch, text):
    # valid JSON of another shape in the cache file: the solve runs, exits
    # 0, and its put rewrites the file with the entry
    monkeypatch.delenv("POLYSHOOT_CACHE", raising=False)
    cache = shooting.EpsCache(tmp_path)
    key = shooting.EpsCache.key(10.0, shooting.default_config(3), 1e-3)
    cache.path.write_text(text.replace("SCHEMA", str(shooting.EpsCache.SCHEMA))
                          .replace('"KEY"', json.dumps(key)))
    argv = ["critical-eps", "--k", "10", "--bracket-tol", "1e-3", "--cache-dir", str(tmp_path)]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["cache_hit"] is False
    assert set(cache.get(key)) == set(shooting.EpsCache.FIELDS)


def test_critical_eps_honours_config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("POLYSHOOT_CACHE", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "r_max": 200, "abs_tol": 1e-11}))
    out = tmp_path / "ce.json"
    argv = ["critical-eps", "--k", "10", "--bracket-tol", "1e-3", "--out", str(out)]
    assert main(argv + ["--config", str(cfg_path)]) == 0
    assert json.loads(out.read_text())["horizon"] == 200.0
    # nothing sets r_max: the m=3 default horizon
    assert main(argv) == 0
    assert json.loads(out.read_text())["horizon"] == 100.0
    assert main(argv + ["--m", "2"]) == 2


def test_prescribe_volume_json(tmp_path):
    out = tmp_path / "pv.json"
    assert main(["prescribe-volume", "--m", "2", "--lambda", "9.4",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["rel_err"] <= 1e-3
    assert rep["rho"] > 0.0


def test_prescribe_volume_out_of_range(capsys):
    assert main(["prescribe-volume", "--m", "2", "--lambda", "25"]) == 4
    assert "out of range" in capsys.readouterr().err


def test_prescribe_volume_m3_below_the_floor(capsys, tmp_path):
    # below the source-free volume at the scan's limit: 4, with no critical solve
    assert main(["prescribe-volume", "--m", "3", "--lambda", "1e-12",
                 "--cache-dir", str(tmp_path)]) == 4
    assert "below 1.45053e-12, the source-free volume" in capsys.readouterr().err
    assert not (tmp_path / "critical_eps.json").exists()


def test_config_file_roundtrip(tmp_path):
    cfg = {"schema": 1, "m": 2, "rel_tol": 1e-7, "r_max": 500.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    header = [ln for ln in out.read_text().splitlines()
              if ln.startswith("# config:")][0]
    stored = json.loads(header.split("# config:", 1)[1])
    assert stored["r_max"] == 500.0
    assert stored["rel_tol"] == 1e-7


def test_config_file_bad_schema(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 2, "m": 2}))
    assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({"schema": 1, "bogus_key": 1}))
    assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path)]) == 2
    missing = tmp_path / "missing.json"  # a file that cannot be read
    assert main(["shoot", "--rho", "0.5", "--config", str(missing)]) == 2
    assert f"usage error: cannot read config {missing}:" in capsys.readouterr().err
    # JSON that is not an object, and a cache_dir that is not a string (a
    # TypeError and an AttributeError, exit 1, before they were checked)
    not_an_object = f"config {cfg_path} must hold a JSON object"
    for raw, message in (([], not_an_object), ("x", not_an_object),
                         ({"schema": 1, "cache_dir": 5},
                          "config cache_dir must be a string, got 5")):
        cfg_path.write_text(json.dumps(raw))
        assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path)]) == 2
        assert f"usage error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("config, flags", [
    ({"rel_tol": -1}, []),
    ({}, ["--tol", "-1"]),
    ({"launch_radius": 1e-3}, []),  # no longer a field: an unknown key
    ({"u_floor": 1e-6}, []),  # integrator constants now (_U_FLOOR, _MAX_STEPS)
    ({"max_steps": 150_000}, []),
    ({}, ["--tol", "inf"]),  # every step would pass: u(50) off by 3.5e-4
    ({}, ["--r-max", "inf"]),
    ({"abs_tol": float("nan")}, []),
    ({"dense_output_stride": float("inf")}, []),
    ({"m": 4}, []),
    ({"r_max": True}, []),  # would integrate to r = 1
    ({"m": 2.0}, []),  # a TypeError in the step loop, exit 1
])
def test_invalid_integrator_values_are_usage_errors(tmp_path, capsys, config, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, **config}))
    assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path), *flags]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "m" not in config or f"--m must be 2 or 3, got {config['m']}" in err


def test_horizon_below_one_stride_is_entire(tmp_path, capsys):
    # the stride places the output rows only: the rows are 0 and the
    # horizon, and the verdict is the one a finer stride gives
    out = tmp_path / "t.csv"
    assert main(["shoot", "--rho", "0.5", "--r-max", "1e-4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [float(ln.split(",")[0]) for ln in lines[-3:-1]] == [0.0, 1e-4]
    assert lines[-1].startswith("# verdict,EntirePositive,")
    assert "usage error:" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["critical-eps", "--k", "10"], ["shoot", "--rho", "0"]])
def test_stride_over_the_row_cap_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # 1e9 and 1e10 rows at the default horizons: refused before any
    # integration, where a critical probe once asked for 7.45 GiB
    def refuse(*args):
        raise AssertionError("integrated")

    monkeypatch.setattr(cli, "integrate", refuse)
    monkeypatch.setattr(shooting, "integrate", refuse)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "dense_output_stride": 1e-7}))
    assert main([*argv, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "dense_output_stride" in err


def test_sweep_runs_in_this_process(tmp_path, monkeypatch):
    # every point runs in the calling process: --jobs forks nothing, starts
    # no pool and changes no byte
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    outputs = []
    for jobs in ("1", "2", "5000"):
        out = tmp_path / f"s{jobs}.csv"
        assert main(["sweep", "--m", "2", "--rho", "0:1:0.5", "--jobs", jobs,
                     "--r-max", "50", "--out", str(out)]) == 0
        outputs.append(read_nontimestamp(out))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_parser_defaults_are_the_solvers():
    # the flags default to the library's defaults, not to a copy of them
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    parse = cli.build_parser().parse_args
    assert (parse(["critical-eps", "--k", "10"]).bracket_tol
            == parse(["sweep"]).bracket_tol
            == default(shooting.critical_eps, "bracket_tol")
            == shooting.BRACKET_TOL)  # prescribe_volume's critical solve's
    assert (parse(["prescribe-volume", "--lambda", "1"]).vol_tol
            == default(shooting.prescribe_volume, "rel_tol_target"))


def test_cache_dir_precedence(tmp_path, monkeypatch):
    # --cache-dir over env POLYSHOOT_CACHE over the config file's cache_dir
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "cache_dir": "from-config"}))
    parse = cli.build_parser().parse_args
    argv = ["critical-eps", "--k", "10", "--config", str(cfg_path)]
    monkeypatch.setenv("POLYSHOOT_CACHE", "from-env")
    assert cli.load_run_config(parse(argv + ["--cache-dir", "from-flag"])).cache_dir == "from-flag"
    assert cli.load_run_config(parse(argv)).cache_dir == "from-env"
    monkeypatch.setenv("POLYSHOOT_CACHE", "")  # set but empty: not a directory
    assert cli.load_run_config(parse(argv)).cache_dir == "from-config"
    monkeypatch.delenv("POLYSHOOT_CACHE")
    assert cli.load_run_config(parse(argv)).cache_dir == "from-config"


@pytest.mark.parametrize("m, horizon", [(2, 1e3), (3, 1e2)])
def test_config_null_means_default(tmp_path, m, horizon):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "m": m, "r_max": None,
                                    "rel_tol": None, "cache_dir": None}))
    out = tmp_path / "t.csv"
    jet = ["--rho", "0.5"] if m == 2 else ["--k", "10", "--eps", "0.1"]
    assert main(["shoot", *jet, "--config", str(cfg_path), "--out", str(out)]) == 0
    header = [ln for ln in out.read_text().splitlines() if ln.startswith("# config:")][0]
    stored = json.loads(header.split("# config:", 1)[1])
    assert (stored["m"], stored["r_max"], stored["rel_tol"]) == (m, horizon, 1e-8)


@pytest.mark.parametrize("argv", [
    ["shoot", "--jet", "1,2,3"],  # m=2 needs 2 values
    ["shoot", "--jet", "a,b"],
    ["sweep", "--rho", "a:b:c"],
    ["sweep", "--m", "3", "--k", "1,2", "--eps=0:1:1"],
    ["sweep", "--rho", "0:1:1", "--jobs", "0"],
    ["critical-eps", "--k", "10", "--bracket-tol", "-1"],
    ["verify", "--m", "2", "--tol", "0"],
    ["verify", "--m", "2", "--tol", "-1"],
    ["shoot", "--jet", "1,inf"],  # non-finite jet values
    ["shoot", "--m", "2", "--rho", "nan"],
    ["critical-eps", "--k", "nan"],
    ["critical-eps", "--k", "inf"],
    ["critical-eps", "--k", "10", "--bracket-tol", "inf"],  # solver tolerances
    ["sweep", "--m", "3", "--k", "10", "--at-critical", "--bracket-tol", "inf"],
    ["prescribe-volume", "--m", "2", "--lambda", "9.4", "--vol-tol", "0"],
    ["prescribe-volume", "--m", "2", "--lambda", "9.4", "--vol-tol", "nan"],
    ["prescribe-volume", "--m", "2", "--lambda", "nan"],  # non-finite targets
    ["prescribe-volume", "--m", "2", "--lambda", "inf"],
    ["prescribe-volume", "--m", "3", "--lambda", "nan"],
    ["prescribe-volume", "--m", "3", "--lambda", "inf"],
    ["sweep", "--m", "2", "--rho", "0:inf:1"],  # non-finite ranges and counts
    ["sweep", "--m", "2", "--rho", "0:1e300:1e-300"],
    ["sweep", "--m", "2", "--rho", "0:1:inf"],
    ["sweep", "--m", "3", "--k", "10", "--eps", "0:1:nan"],
    ["shoot", "--m", "3", "--k", "-5", "--eps", "1"],  # u(0) <= 0
    ["shoot", "--jet=-1,0"],
    ["sweep", "--rho=-3:-2:1", "--jobs", "1"],
    ["shoot", "--m", "3", "--k", "10"],  # missing or blank jet data and ranges
    ["sweep", "--m", "2", "--at-critical"],
    ["sweep", "--m", "3", "--at-critical", "--k", ""],
    ["sweep", "--m", "2", "--rho", ""],
])
def test_invalid_argument_values_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSHOOT_CACHE", str(tmp_path / "cache"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err and _USAGE_MESSAGES.get(" ".join(argv), "") in err
    assert not (tmp_path / "cache").exists()  # nothing written to the cache


@pytest.mark.parametrize("argv", [
    ["shoot", "--m", "2", "--rho", "-1e-3"],
    ["sweep", "--m", "2", "--rho", "-0.2,0"],
    ["sweep", "--m", "2", "--rho", "-0.2:0:0.1"],
])
def test_negative_values_parse_as_with_equals(argv, tmp_path):
    # a value that starts with - and a digit or . is a value, not an option
    # (argparse's own pattern takes -0.2, but not -1e-3 or a list or range):
    # the run writes what --flag=value writes
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main([*argv, "--r-max", "5", "--out", str(spaced)]) == 0
    flag, value = argv[-2:]
    assert main([*argv[:-2], f"{flag}={value}", "--r-max", "5", "--out", str(joined)]) == 0
    assert read_nontimestamp(spaced) == read_nontimestamp(joined)


# The message of each usage error above that names what is missing
_USAGE_MESSAGES = {
    "shoot --m 3 --k 10": "m=3 needs --k and --eps (or --jet)",
    "sweep --m 2 --at-critical": "--at-critical applies to --m 3",
    "sweep --m 3 --at-critical --k ": "--at-critical needs a nonempty --k list",
    "sweep --m 2 --rho ": "m=2 sweep needs --rho range",
}


def test_cache_directory_under_a_file_exits_2(tmp_path, capsys, monkeypatch):
    # refused before the solve, which would otherwise fail only at its put
    def refuse(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(shooting, "integrate", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = str(blocker / "sub")
    assert main(["critical-eps", "--k", "10", "--bracket-tol", "1e-3",
                 "--cache-dir", cache_dir]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and cache_dir in err[0]


@pytest.mark.parametrize("name", ["file/x.csv", "dir"])
def test_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, name):
    # an output under a file, or an existing directory: refused before the run
    def refuse(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(cli, "integrate", refuse)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / name)
    assert main(["shoot", "--m", "2", "--rho", "0", "--r-max", "5", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and out in err[0]
    assert (tmp_path / "file").read_text() == "" and not os.listdir(tmp_path / "dir")


@pytest.mark.parametrize("argv", [
    ["critical-eps", "--k", "1"],
    ["sweep", "--m", "3", "--at-critical", "--k", "1"],
])
def test_negative_critical_datum_below_k0_exits_0(argv, capsys, tmp_path, monkeypatch):
    # no k > 0 is refused: below k0 ~ 1.6198 the critical datum is negative,
    # eps*(1) = -1.2696164 by bisection, and the solve's entry is cached
    monkeypatch.setenv("POLYSHOOT_CACHE", str(tmp_path / "cache"))
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "critical-eps":
        eps_star = json.loads(out)["eps_star"]
    else:
        eps_star = float(next(ln for ln in out.splitlines() if ln.startswith("1.0,")).split(",")[1])
    assert abs(eps_star - -1.2696161) <= 1e-6
    assert (tmp_path / "cache" / "critical_eps.json").exists()


def test_shoot_jet_of_the_wrong_length_exits_2(capsys):
    # the origin series checks the jet's length before any array is shaped
    assert main(["shoot", "--m", "2", "--jet", "1,2,3"]) == 2
    assert "jet has 3 values, order m=2 needs 2" in capsys.readouterr().err


def test_sweep_at_critical(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSHOOT_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "crit.csv"
    assert main(["sweep", "--m", "3", "--k", "10,20", "--at-critical",
                 "--bracket-tol", "1e-3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("k,")][0]
    assert header == "k,eps_star,verdict,volume,err_estimate"
    data = [ln.split(",") for ln in lines
            if ln and not ln.startswith(("#", "k,"))]
    assert [float(d[0]) for d in data] == [10.0, 20.0]
    vols = [float(d[3]) for d in data]
    assert vols[0] < vols[1]  # volumes grow with k at the critical datum
    # --at-critical picks m=3, as critical-eps does: the same file without --m
    again = tmp_path / "crit_no_m.csv"
    assert main(["sweep", "--k", "10,20", "--at-critical", "--bracket-tol", "1e-3",
                 "--out", str(again)]) == 0
    assert ([ln for ln in again.read_text().splitlines() if not ln.startswith("# generated:")]
            == [ln for ln in lines if not ln.startswith("# generated:")])


def test_sweep_m3_eps_range(tmp_path):
    out = tmp_path / "eps.csv"
    # leading-dash range values need the --flag=value form
    assert main(["sweep", "--m", "3", "--k", "10", "--eps=-1:1:1",
                 "--jobs", "1", "--out", str(out)]) == 0
    data = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith(("#", "eps,"))]
    assert len(data) == 3
    # volume increases with eps toward the critical datum
    vols = [float(d[2]) for d in data]
    assert vols[0] < vols[1] < vols[2]


def test_sweep_m3_top_zero_has_no_volume(tmp_path):
    # eps = 3.1 is just past the critical datum at k = 10 (3.075): u stays
    # above the floor to the horizon, but the top Laplacian falls through zero
    out = tmp_path / "eps.csv"
    assert main(["sweep", "--m", "3", "--k", "10", "--eps", "2.9:3.3:0.2",
                 "--jobs", "1", "--out", str(out)]) == 0
    data = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith(("#", "eps,"))]
    assert [d[1] for d in data] == ["EntirePositive", "TopZero", "Collapsed"]
    assert data[1][2:] == ["", "", ""]


def test_shoot_top_zero_footer(tmp_path, capsys):
    # r_zero is where the run was certified not entire, E = w + r w' = -tau;
    # w itself falls through zero only at r = 37.92
    out = tmp_path / "t.csv"
    assert main(["shoot", "--m", "3", "--k", "10", "--eps", "3.1", "--out", str(out)]) == 0
    footer = out.read_text().splitlines()[-1].split(",")
    assert footer[:3] == ["# verdict", "TopZero", "r_zero"]
    assert float(footer[3]) == pytest.approx(6.2693873, abs=1e-6)
    assert "verdict: TopZero" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["-1", "0", "inf", "nan"])
def test_critical_eps_rejects_k(k, capsys, monkeypatch):
    # a usage error naming k, before any integration (unchecked, -1 failed
    # with "math domain error" and inf blamed the jet (inf, nan, 1.0))
    def refuse(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(shooting, "integrate", refuse)
    assert main(["critical-eps", "--k", k, "--bracket-tol", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert f"usage error: k must be positive and finite, got {float(k)}" in err


def test_sweep_past_the_critical_datum_has_no_volume(tmp_path):
    # above eps*(10) = 3.0751756 w stays positive to the horizon, but E = w
    # + r w' falls below -tau: not entire, so no volume (these five rows
    # once read EntirePositive with volumes 192.2 to 195.9)
    out = tmp_path / "eps.csv"
    assert main(["sweep", "--m", "3", "--k", "10", "--eps", "3.0752,3.0753,3.0755,3.076,3.08",
                 "--out", str(out)]) == 0
    data = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith(("#", "eps,"))]
    assert [d[1:] for d in data] == [["TopZero", "", "", ""]] * 5


def test_shoot_inconclusive_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 20)
    out = tmp_path / "t.csv"
    code = main(["shoot", "--m", "2", "--rho", "0.5", "--out", str(out)])
    assert code == 3
    assert "# verdict,Inconclusive" in out.read_text().splitlines()[-1]


def test_atomic_write_leaves_no_temp(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["shoot", "--m", "2", "--rho", "0.1", "--out", str(out)]) == 0
    assert out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_cli_import_leaves_scipy_out(tmp_path):
    # scipy is a test dependency only: neither the import nor a
    # critical-datum solve loads it, and every command exits 0 with it
    # unimportable; nor does the import load a process pool, which no
    # command runs
    src = os.path.dirname(os.path.dirname(polyshoot.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import polyshoot.cli, sys; assert 'scipy' not in sys.modules\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "from polyshoot import critical_eps, critical_eps_residual\n"
            "critical_eps_residual(critical_eps(10.0, bracket_tol=1e-3))\n"
            "assert 'scipy' not in sys.modules")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr

    blocked = ("import sys; sys.modules['scipy'] = None\n"
               "from polyshoot.cli import main; sys.exit(main(sys.argv[1:]))")
    cache = str(tmp_path / "cache")
    for argv in (["verify", "--out", str(tmp_path / "v.json")],
                 ["shoot", "--m", "2", "--rho", "0", "--r-max", "50",
                  "--out", str(tmp_path / "s.csv")],
                 ["sweep", "--m", "2", "--rho", "0:1:0.5", "--out", str(tmp_path / "w.csv")],
                 ["critical-eps", "--k", "10", "--bracket-tol", "1e-3", "--cache-dir", cache],
                 ["prescribe-volume", "--m", "3", "--lambda", "50", "--cache-dir", cache]):
        out = subprocess.run([sys.executable, "-c", blocked, *argv], capture_output=True,
                             text=True, env=env, cwd=tmp_path, timeout=120)
        assert out.returncode == 0, (argv, out.stderr)
