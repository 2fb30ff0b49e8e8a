import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polyshoot
from polyshoot import cli, integrator, shooting
from polyshoot.cli import _CSV_BLOCK, _csv_rows, _fmt, main, parse_range, UsageError


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


def test_verify_honours_config_file(tmp_path, monkeypatch):
    fields = {"rel_tol": 1e-9, "u_floor": 1e-7, "dense_output_stride": 0.02,
              "max_steps": 150_000}
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
    for cfg in seen:
        assert {name: getattr(cfg, name) for name in fields} == fields


@pytest.mark.parametrize("argv", [
    ["shoot", "--rho", "0.5"],
    ["sweep", "--rho", "0:1:1", "--jobs", "1"],
    ["prescribe-volume", "--m", "2", "--lambda", "9.4"],
    ["critical-eps", "--k", "10", "--bracket-tol", "1e-3"],
])
def test_commands_honour_config_file(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("POLYSHOOT_CACHE", raising=False)
    fields = {"rel_tol": 1e-9, "u_floor": 1e-7, "dense_output_stride": 0.02,
              "max_steps": 150_000}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, **fields}))
    seen = []

    def recording(integrate):
        def wrapped(spec, jet, cfg):
            seen.append(cfg)
            return integrate(spec, jet, cfg)
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
    rows = _csv_rows(table)
    assert rows == [",".join(_fmt(v) for v in row) for row in table]
    tall = np.tile(table, (_CSV_BLOCK, 1))  # spans several blocks
    assert _csv_rows(tall) == rows * _CSV_BLOCK
    assert rows[0] == "0.0,-0.0,,inf,-inf"
    assert rows[2].startswith(",,5e-324,")


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
    argv = ["critical-eps", "--k", "10", "--bracket-tol", "1e-3",
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


def test_critical_eps_honours_config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("POLYSHOOT_CACHE", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "r_max": 200, "u_floor": 1e-6}))
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


def test_config_file_bad_schema(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 2, "m": 2}))
    assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({"schema": 1, "bogus_key": 1}))
    assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("config, flags", [
    ({"rel_tol": -1}, []),
    ({}, ["--tol", "-1"]),
    ({"launch_radius": 1e-3}, []),  # no longer a field: an unknown key
    ({}, ["--tol", "inf"]),  # every step would pass: u(50) off by 3.5e-4
    ({}, ["--r-max", "inf"]),
    ({"u_floor": float("nan")}, []),
    ({"dense_output_stride": float("inf")}, []),
    ({"max_steps": float("nan")}, []),  # would remove the step budget
])
def test_invalid_integrator_values_are_usage_errors(tmp_path, capsys, config, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, **config}))
    assert main(["shoot", "--rho", "0.5", "--config", str(cfg_path), *flags]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_horizon_below_one_stride_is_inconclusive(tmp_path, capsys):
    # a valid config: the horizon is too short for the growth fit
    out = tmp_path / "t.csv"
    assert main(["shoot", "--rho", "0.5", "--r-max", "1e-4", "--out", str(out)]) == 3
    assert "too short" in out.read_text().splitlines()[-1]
    assert "usage error:" not in capsys.readouterr().err


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
    ["critical-eps", "--k", "1"],  # below k_min
    ["critical-eps", "--k", "10", "--bracket-tol", "-1"],
    ["sweep", "--m", "3", "--at-critical", "--k", "1"],
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
])
def test_invalid_argument_values_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("POLYSHOOT_CACHE", str(tmp_path / "cache"))
    assert main(argv) == 2
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()  # nothing written to the cache


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


def test_shoot_inconclusive_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "m": 2, "max_steps": 20}))
    out = tmp_path / "t.csv"
    code = main(["shoot", "--rho", "0.5", "--config", str(cfg_path),
                 "--out", str(out)])
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


def test_cli_import_leaves_scipy_out():
    # scipy.integrate was most of the CLI's start-up time; only verify's
    # quadrature check and formula1_check still import it, when they run,
    # so neither the import nor a critical-datum solve loads it
    src = os.path.dirname(os.path.dirname(polyshoot.__file__))
    code = ("import polyshoot.cli, sys; assert 'scipy' not in sys.modules\n"
            "from polyshoot import critical_eps, critical_eps_residual\n"
            "critical_eps_residual(critical_eps(10.0, bracket_tol=1e-3))\n"
            "assert 'scipy' not in sys.modules")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert out.returncode == 0, out.stderr
