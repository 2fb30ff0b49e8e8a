"""Command-line front end: verify, shoot, sweep, critical-eps, prescribe-volume.

Outputs are plain CSV (with a `#` comment header carrying the full run
configuration) or JSON; files are written atomically (temp + rename).
Every command is deterministic for a fixed configuration; re-running
produces byte-identical output apart from one timestamp comment line.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure,
4 volume target out of range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import oracle
from .core import Collapsed, EntirePositive, EquationSpec, Inconclusive, Jet
from .errors import PolyshootError, TargetOutOfRange
from .integrator import IntegratorConfig, integrate
from .shooting import (EpsCache, critical_eps, critical_eps_residual,
                       default_config, jet_m2, jet_m3, prescribe_volume)
from .volume import volume

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_RANGE = 4


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything a command needs; mirrors the JSON config schema 1:1.

    The integrator fields and their defaults are IntegratorConfig's; an
    unset r_max takes the per-order horizon of shooting.default_config.
    """

    m: int = 2
    rel_tol: float = IntegratorConfig.rel_tol
    abs_tol: float = IntegratorConfig.abs_tol
    r_max: float = None
    max_steps: int = IntegratorConfig.max_steps
    u_floor: float = IntegratorConfig.u_floor
    launch_radius: float = IntegratorConfig.launch_radius
    dense_output_stride: float = IntegratorConfig.dense_output_stride
    precision: str = IntegratorConfig.precision
    cache_dir: str = None

    def __post_init__(self):
        if self.m not in (2, 3):
            raise UsageError(f"--m must be 2 or 3, got {self.m}")
        if self.r_max is None:
            self.r_max = default_config(self.m).r_max

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(**{f.name: getattr(self, f.name)
                                   for f in fields(IntegratorConfig)})

    def cache(self):
        return EpsCache(self.cache_dir) if self.cache_dir else None


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_run_config(args) -> RunConfig:
    """Merge defaults < config file < CLI flags; env wins for the cache dir."""
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if raw.pop("schema", None) != SCHEMA:
            raise UsageError(f"config {args.config} must declare \"schema\": {SCHEMA}")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    if getattr(args, "m", None) is not None:
        values["m"] = args.m
    if getattr(args, "tol", None) is not None:
        values["rel_tol"] = args.tol
        values["abs_tol"] = args.tol * 1e-2
    if getattr(args, "r_max", None) is not None:
        values["r_max"] = args.r_max
    if getattr(args, "precision", None) is not None:
        values["precision"] = args.precision
    env_cache = os.environ.get("POLYSHOOT_CACHE")
    if getattr(args, "cache_dir", None) is not None:
        values["cache_dir"] = args.cache_dir
    elif env_cache:
        values["cache_dir"] = env_cache
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "" if math.isnan(x) else repr(x)
    return str(x)


# Rows of a CSV table turned into Python floats at a time: all 100k rows of
# a shoot at once would hold 500k float objects next to the lines (+26 MB).
_CSV_BLOCK = 4096


def _csv_rows(table) -> list:
    """One CSV line per row of a float table, each field as _fmt writes it.

    _fmt writes repr of the Python float, and "nan" can only be a whole
    field, so deleting it leaves NaN as an empty field.
    """
    table = np.asarray(table, dtype=np.float64)
    return [",".join(map(repr, row)).replace("nan", "")
            for start in range(0, len(table), _CSV_BLOCK)
            for row in table[start:start + _CSV_BLOCK].tolist()]


def write_text(path, text: str):
    """Atomic write when a path is given, stdout otherwise."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _csv_header(command: str, rc: RunConfig, extra=()):
    lines = [f"# polyshoot {command}",
             f"# generated: {datetime.now(timezone.utc).isoformat()}",
             f"# config: {json.dumps({'schema': SCHEMA, **asdict(rc)}, sort_keys=True)}"]
    lines.extend(extra)
    return lines


def parse_range(text: str):
    """Parse '0:5:0.25' (inclusive endpoints) or a comma list '1,2,5'."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise UsageError(f"bad range {text!r}")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    return [float(p) for p in text.split(",") if p.strip()]


def _verdict_label(verdict):
    if isinstance(verdict, Collapsed):
        return "Collapsed"
    if isinstance(verdict, EntirePositive):
        return "EntirePositive"
    return "Inconclusive"


def _jet_from_args(rc: RunConfig, args) -> Jet:
    if getattr(args, "jet", None):
        vals = [float(v) for v in args.jet.split(",")]
        return Jet(vals)
    if rc.m == 2:
        if args.rho is None:
            raise UsageError("m=2 needs --rho (or --jet)")
        return jet_m2(args.rho)
    if args.k is None or args.eps is None:
        raise UsageError("m=3 needs --k and --eps (or --jet)")
    return jet_m3(args.k, args.eps)


# ----------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    # --tol tightens the CHECK tolerances only; integration still runs at
    # the configured (or default) integrator tolerances.
    tol_override = args.tol
    args.tol = None
    rc = load_run_config(args)
    orders = [rc.m] if args.m is not None else [2, 3]
    checks = []

    def add(name, value, tol):
        checks.append({"check": name, "value": value, "tolerance": tol,
                       "pass": bool(abs(value) <= tol)})

    for m in orders:
        rc_m = RunConfig(**{**asdict(rc), "m": m, "r_max": None})
        profile = oracle.linear_profile() if m == 2 else oracle.cubic_profile()
        spec = EquationSpec.for_order(m)
        res_tol = tol_override or (1e-8 if m == 2 else 1e-6)
        res = max(abs(profile.residual(r)) for r in (0.0, 0.1, 1.0, 10.0, 100.0))
        add(f"m{m}_profile_residual_max", res, res_tol)

        if m == 2:
            from scipy.integrate import quad
            a = profile.shift
            quad_val = 4.0 * math.pi * quad(
                lambda r: r * r * (a + r * r) ** -3.0, 0.0, np.inf,
                epsabs=0.0, epsrel=1e-12)[0]
            rel = abs(oracle.lambda_star() - quad_val) / quad_val
            add("lambda_star_closed_form_vs_quadrature", rel, tol_override or 1e-10)

        cfg = rc_m.integrator_config()
        track_cfg = replace(cfg, r_max=50.0 if m == 2 else 10.0)
        traj = integrate(spec, profile.jet(), track_cfg)
        mask = traj.r >= track_cfg.launch_radius
        ref = profile.eval(traj.r[mask], 0)
        track = float(np.max(np.abs(traj.u[mask] - ref) / ref))
        add(f"m{m}_profile_tracking_sup", track, tol_override or 10 * cfg.rel_tol)

        if m == 2:
            vol_traj = integrate(spec, profile.jet(), cfg)
            v = volume(spec, vol_traj)
            rel = abs(v.total - oracle.lambda_star()) / oracle.lambda_star()
            add("critical_volume_reproduction", rel, tol_override or 1e-4)

    ok = all(c["pass"] for c in checks)
    report = {"schema": SCHEMA, "orders": orders, "checks": checks, "pass": ok}
    write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ------------------------------------------------------------------ shoot

def cmd_shoot(args) -> int:
    rc = load_run_config(args)
    spec = EquationSpec.for_order(rc.m)
    jet = _jet_from_args(rc, args)
    traj = integrate(spec, jet, rc.integrator_config())
    cols = ["r", "u", "u1", "lap_u", "lap_u1"]
    if rc.m == 3:
        cols += ["lap2_u", "lap2_u1"]
    lines = _csv_header("shoot", rc, (f"# jet: {list(jet.lap_values)}",))
    lines.append(",".join(cols))
    lines += _csv_rows(np.column_stack((traj.r, traj.y)))
    verdict = traj.verdict
    if isinstance(verdict, Collapsed):
        footer = f"# verdict,Collapsed,r_star,{_fmt(verdict.r_star)}"
        human = f"verdict: Collapsed at r* = {verdict.r_star:.9g}"
    elif isinstance(verdict, EntirePositive):
        footer = (f"# verdict,EntirePositive,growth_exponent,"
                  f"{_fmt(verdict.growth_exponent)}")
        human = (f"verdict: EntirePositive, growth exponent "
                 f"{verdict.growth_exponent:.4f}")
    else:
        footer = f"# verdict,Inconclusive,reason,{verdict.reason}"
        human = f"verdict: Inconclusive ({verdict.reason})"
    lines.append(footer)
    write_text(args.out, "\n".join(lines) + "\n")
    print(human, file=sys.stderr)
    return EXIT_OK if not isinstance(verdict, Inconclusive) else EXIT_NUMERICAL


# ------------------------------------------------------------------ sweep

def _sweep_point(payload):
    """Worker: one (param, jet) volume evaluation; must stay picklable."""
    rc_dict, param, jet_values = payload
    rc = RunConfig(**rc_dict)
    spec = EquationSpec.for_order(rc.m)
    traj = integrate(spec, Jet(jet_values), rc.integrator_config())
    label = _verdict_label(traj.verdict)
    vol_total = vol_err = gamma = float("nan")
    if isinstance(traj.verdict, EntirePositive):
        gamma = traj.verdict.growth_exponent
        v = volume(spec, traj)
        vol_total, vol_err = v.total, v.err_estimate
    return (param, label, vol_total, vol_err, gamma)


def cmd_sweep(args) -> int:
    rc = load_run_config(args)
    jobs = args.jobs or min(8, os.cpu_count() or 1)

    if args.at_critical:
        if rc.m != 3:
            raise UsageError("--at-critical applies to --m 3")
        ks = parse_range(args.k or "")
        if not ks:
            raise UsageError("--at-critical needs a nonempty --k list")
        cache = rc.cache()
        cfg = rc.integrator_config()
        rows = []
        for k in sorted(ks):
            ce = critical_eps(k, cfg, args.bracket_tol, cache=cache)
            rows.append((k, ce.eps_star, "EntirePositive", ce.volume,
                         ce.volume_err))
        lines = _csv_header("sweep", rc)
        lines.append("k,eps_star,verdict,volume,err_estimate")
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        write_text(args.out, "\n".join(lines) + "\n")
        return EXIT_OK

    if rc.m == 2:
        if not args.rho:
            raise UsageError("m=2 sweep needs --rho range")
        params = parse_range(args.rho)
        jets = [(p, jet_m2(p).lap_values) for p in params]
        param_name = "rho"
        extra = (f"# lambda_star: {_fmt(oracle.lambda_star())}",)
    else:
        if args.k is None or not args.eps:
            raise UsageError("m=3 sweep needs --k (single value) and --eps range")
        k = float(args.k)
        params = parse_range(args.eps)
        jets = [(p, jet_m3(k, p).lap_values) for p in params]
        param_name = "eps"
        extra = (f"# k: {_fmt(k)}",)
    if not params:
        raise UsageError("empty parameter range")

    payloads = [(asdict(rc), p, j) for p, j in sorted(jets)]
    if jobs == 1:
        results = [_sweep_point(pl) for pl in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, payloads))
    results.sort(key=lambda row: row[0])
    lines = _csv_header("sweep", rc, extra)
    lines.append(f"{param_name},verdict,volume,err_estimate,growth_exponent")
    for row in results:
        lines.append(",".join(_fmt(v) for v in row))
    write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ----------------------------------------------------------- critical-eps

def cmd_critical_eps(args) -> int:
    if args.m not in (None, 3):
        raise UsageError("critical-eps applies to --m 3")
    args.m = 3  # also picks the m=3 default horizon when nothing sets r_max
    rc = load_run_config(args)
    cfg = rc.integrator_config()
    ce = critical_eps(args.k, cfg, args.bracket_tol, cache=rc.cache())
    resid = critical_eps_residual(ce, cfg)
    report = {
        "schema": SCHEMA,
        "k": args.k,
        "eps_star": ce.eps_star,
        "eps_lo": ce.eps_lo,
        "eps_hi": ce.eps_hi,
        "width": ce.width,
        "bracket_tol": ce.bracket_tol,
        "eps_cap": ce.eps_cap,
        "horizon": ce.horizon_used,
        "iterations": ce.iterations,
        "precision": ce.precision,
        "cache_hit": ce.cache_hit,
        "residual": {
            "delta2_at_horizon": resid.delta2_at_horizon,
            "partial_integral": resid.partial_integral,
        },
    }
    write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# ------------------------------------------------------- prescribe-volume

def cmd_prescribe_volume(args) -> int:
    rc = load_run_config(args)
    spec = EquationSpec.for_order(rc.m)
    solve = prescribe_volume(spec, args.lam, rc.integrator_config(),
                             rel_tol_target=args.vol_tol, cache=rc.cache())
    report = {
        "schema": SCHEMA,
        "m": rc.m,
        "lambda_target": solve.target,
        "achieved": solve.achieved,
        "rel_err": solve.rel_err,
        "iterations": solve.iterations,
        "monotone_observed": solve.monotone_observed,
        "multi_root_flag": solve.multi_root_flag,
    }
    if rc.m == 2:
        report["rho"] = solve.param
    else:
        report["k"] = solve.param[0]
        report["eps"] = solve.param[1]
    write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyshoot",
        description="Shooting-method toolkit for radial polyharmonic "
                    "equations with negative exponents (orders m=2,3)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--m", type=int, choices=(2, 3), default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance (verify: check tolerance)")
        p.add_argument("--r-max", dest="r_max", type=float, default=None)
        p.add_argument("--precision", choices=("double", "extended"),
                       default=None)
        p.add_argument("--config", default=None, help="JSON config (schema 1)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--cache-dir", dest="cache_dir", default=None,
                       help="cache directory (env POLYSHOOT_CACHE overrides "
                            "the configured default)")

    p = sub.add_parser("verify", help="run the closed-form oracle suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("shoot", help="integrate one jet and emit the trajectory CSV")
    common(p)
    p.add_argument("--rho", type=float, default=None,
                   help="m=2 offset of u(0) from the linear-growth profile")
    p.add_argument("--k", type=float, default=None, help="m=3 value of u(0)")
    p.add_argument("--eps", type=float, default=None,
                   help="m=3 value of -lap u(0)")
    p.add_argument("--jet", default=None,
                   help="explicit comma-separated jet values")
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("sweep", help="volume over a parameter grid (CSV)")
    common(p)
    p.add_argument("--rho", default=None, help="m=2 range start:stop:step or list")
    p.add_argument("--k", default=None,
                   help="m=3 k (single value, or list with --at-critical)")
    p.add_argument("--eps", default=None, help="m=3 eps range")
    p.add_argument("--at-critical", action="store_true",
                   help="sweep k values at their critical datum")
    p.add_argument("--bracket-tol", type=float, default=1e-6)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical-eps",
                       help="locate the critical datum (m=3) by safeguarded "
                            "bracket refinement")
    common(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--bracket-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_critical_eps)

    p = sub.add_parser("prescribe-volume", help="solve for a prescribed volume")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--vol-tol", type=float, default=1e-3,
                   help="relative tolerance on the achieved volume")
    p.set_defaults(func=cmd_prescribe_volume)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TargetOutOfRange as exc:
        print(f"target out of range: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except PolyshootError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
