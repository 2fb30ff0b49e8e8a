"""Command-line front end: verify, shoot, sweep, critical-eps, prescribe-volume.

Outputs are plain CSV (with a `#` comment header carrying the full run
configuration) or JSON; files are written atomically (temp + rename).
Every command is deterministic for a fixed configuration; re-running
produces byte-identical output apart from one timestamp comment line.

Exit codes: 0 success, 2 usage or config error (an invalid argument or
config value, and an output path or cache directory that cannot be
written, included), 3 numerical failure, 4 volume target out of range.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import oracle
from .core import Collapsed, EntirePositive, EquationSpec, Inconclusive, Jet, TopZero
from .errors import PolyshootError, TargetOutOfRange
from .integrator import IntegratorConfig, integrate
from .shooting import (BRACKET_TOL, VOLUME_REL_TOL, EpsCache, atomic_write, critical_eps,
                       default_config, jet_m2, jet_m3, prescribe_volume)
from .volume import gauss_legendre, volume

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_RANGE = 4


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """What a command runs with: the order, the IntegratorConfig of its
    integrations and the critical-datum cache directory.

    Its flattened form {m, cache_dir, **asdict(cfg)} is config schema 1.
    """

    m: int
    cfg: IntegratorConfig
    cache_dir: str | None = None

    def cache(self):
        """The EpsCache of cache_dir, checked before any solve puts to it."""
        if not self.cache_dir:
            return None
        _check_writable(self.cache_dir, f"cache directory {self.cache_dir}")
        return EpsCache(self.cache_dir)


def _check_writable(directory, label: str):
    """UsageError naming label unless directory is, or mkdir can make, a
    writable directory: its nearest existing ancestor must be one.  Creates
    nothing."""
    path = Path(directory).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise UsageError(f"cannot write {label}: {existing} is not a writable directory")


_CONFIG_KEYS = {"m", "cache_dir"} | {f.name for f in fields(IntegratorConfig)}


def load_run_config(args) -> RunConfig:
    """Merge defaults < config file < CLI flags.  The cache directory is
    --cache-dir if given, else env POLYSHOOT_CACHE if set and not empty,
    else the config file's cache_dir.

    A null value in the config file means the default; an unset r_max
    takes the per-order horizon of shooting.default_config.
    """
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        if raw.pop("schema", None) != SCHEMA:
            raise UsageError(f"config {args.config} must declare \"schema\": {SCHEMA}")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if not isinstance(raw.get("cache_dir"), (str, type(None))):
            raise UsageError(f"config cache_dir must be a string, got {raw['cache_dir']!r}")
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
    values = {name: v for name, v in values.items() if v is not None}
    m, cache_dir = values.pop("m", 2), values.pop("cache_dir", None)
    if m not in (2, 3) or not isinstance(m, int):
        raise UsageError(f"--m must be 2 or 3, got {m}")
    try:
        return RunConfig(m, default_config(m, **values), cache_dir)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "" if math.isnan(x) else repr(x)
    return str(x)


# Rows of a CSV table turned into Python floats, and into one text, at a
# time: all 100k rows of a shoot at once would hold 500k float objects and
# every line next to the file's text (+24 MB).  Blocks of 4096 or 5120
# rows, m=2, left glibc's heap so fragmented that a process reading the
# whole file back after a shoot peaked 8 MB higher; 6144 to 32768 did not.
_CSV_BLOCK = 16384


def _csv_blocks(table):
    """The CSV lines of a 2-D float table, each field as _fmt writes it, as
    one text per _CSV_BLOCK rows.

    %r writes repr of the Python float, and "nan" can only be a whole
    field, so deleting it leaves NaN as an empty field.
    """
    table = np.asarray(table, dtype=np.float64)
    line = ",".join(["%r"] * table.shape[1]) + "\n"
    for start in range(0, len(table), _CSV_BLOCK):
        rows = table[start:start + _CSV_BLOCK]
        yield ((line * len(rows)) % tuple(rows.ravel().tolist())).replace("nan", "")


def write_text(path, text):
    """Write text, a str or an iterable of str: atomically when a path is
    given, to stdout otherwise."""
    if path is None or path == "-":
        sys.stdout.writelines((text,) if isinstance(text, str) else text)
    else:
        atomic_write(Path(path), text)


def _csv_header(command: str, rc: RunConfig, extra=()):
    config = {"schema": SCHEMA, "m": rc.m, "cache_dir": rc.cache_dir, **asdict(rc.cfg)}
    lines = [f"# polyshoot {command}",
             f"# generated: {datetime.now(timezone.utc).isoformat()}",
             f"# config: {json.dumps(config, sort_keys=True)}"]
    lines.extend(extra)
    return lines


# Points a start:stop:step range may hold; 2e6 of them take 0.2 s to list.
_RANGE_MAX = 10 ** 6


def parse_range(text: str):
    """Parse '0:5:0.25' (inclusive endpoints) or a comma list '1,2,5'.  Every
    part must be finite, and a range may hold at most _RANGE_MAX points."""
    text = text.strip()
    if not text:
        return []
    parts = text.split(":") if ":" in text else [p for p in text.split(",") if p.strip()]
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise UsageError(f"range parts must be finite, got {text!r}")
    if ":" not in text:
        return values
    if len(values) != 3:
        raise UsageError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = values
    if step <= 0 or stop < start:
        raise UsageError(f"bad range {text!r}")
    steps = (stop - start) / step
    n = int(math.floor(steps + 1e-9)) + 1 if math.isfinite(steps) else math.inf
    if n > _RANGE_MAX:
        raise UsageError(f"range {text!r} has too many points (at most {_RANGE_MAX})")
    return [start + i * step for i in range(n)]


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
    # --tol tightens the CHECK tolerances only, each to min(its own, --tol);
    # integration still runs at the configured (or default) tolerances.
    tol_override = args.tol
    if tol_override is not None and not (math.isfinite(tol_override) and tol_override > 0):
        raise UsageError(f"--tol must be positive and finite, got {tol_override}")
    args.tol = None
    rc = load_run_config(args)
    orders = [rc.m] if args.m is not None else [2, 3]
    checks = []

    def add(name, value, tol):
        tol = tol if tol_override is None else min(tol, tol_override)
        checks.append({"check": name, "value": value, "tolerance": tol,
                       "pass": bool(abs(value) <= tol)})

    for m in orders:
        profile = oracle.linear_profile() if m == 2 else oracle.cubic_profile()
        spec = EquationSpec.for_order(m)
        res = max(abs(profile.residual(r)) for r in (0.0, 0.1, 1.0, 10.0, 100.0))
        add(f"m{m}_profile_residual_max", res, 1e-8 if m == 2 else 1e-6)

        if m == 2:
            # 4 pi int_0^inf r^2 (a + r^2)^-3 dr, r = sqrt(a) tan t
            quad_val = 4.0 * math.pi * profile.shift ** -1.5 * gauss_legendre(
                np.zeros(1), np.full(1, 0.5 * math.pi),
                lambda dt, t: dt * (np.sin(t) * np.cos(t)) ** 2)[0, 1]
            rel = abs(oracle.lambda_star() - quad_val) / quad_val
            add("lambda_star_closed_form_vs_quadrature", rel, 1e-10)

        # only the configs integrated are built, each at its own horizon
        traj = integrate(spec, profile.jet(), replace(rc.cfg, r_max=50.0 if m == 2 else 10.0))
        ref = profile.eval(traj.r, 0)
        track = float(np.max(np.abs(traj.u - ref) / ref))
        add(f"m{m}_profile_tracking_sup", track, 10 * rc.cfg.rel_tol)

        if m == 2:  # the volume reads no row, so it runs at the default stride
            vol_cfg = replace(rc.cfg, r_max=default_config(m).r_max,
                              dense_output_stride=IntegratorConfig.dense_output_stride)
            v = volume(spec, integrate(spec, profile.jet(), vol_cfg))
            rel = abs(v.total - oracle.lambda_star()) / oracle.lambda_star()
            add("critical_volume_reproduction", rel, 1e-4)

    ok = all(c["pass"] for c in checks)
    report = {"schema": SCHEMA, "orders": orders, "checks": checks, "pass": ok}
    write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ------------------------------------------------------------------ shoot

# The one datum of each verdict that shoot's footer and stderr line report
_VERDICT_FIELD = {Collapsed: "r_star", EntirePositive: "growth_exponent",
                  TopZero: "r_zero", Inconclusive: "reason"}


def cmd_shoot(args) -> int:
    rc = load_run_config(args)
    spec = EquationSpec.for_order(rc.m)
    jet = _jet_from_args(rc, args)
    traj = integrate(spec, jet, rc.cfg)
    cols = ["r", "u", "u1", "lap_u", "lap_u1"]
    if rc.m == 3:
        cols += ["lap2_u", "lap2_u1"]
    header = _csv_header("shoot", rc, (f"# jet: {list(jet.lap_values)}",))
    header.append(",".join(cols))
    verdict = traj.verdict
    name, field = type(verdict).__name__, _VERDICT_FIELD[type(verdict)]
    value = _fmt(getattr(verdict, field))
    write_text(args.out, itertools.chain(
        ["\n".join(header) + "\n"], _csv_blocks(np.column_stack((traj.r, traj.y))),
        [f"# verdict,{name},{field},{value}\n"]))
    print(f"verdict: {name}, {field} {value}", file=sys.stderr)
    return EXIT_OK if not isinstance(verdict, Inconclusive) else EXIT_NUMERICAL


# ------------------------------------------------------------------ sweep

def _sweep_point(spec: EquationSpec, cfg: IntegratorConfig, jet: Jet):
    """(verdict, volume, err_estimate, growth_exponent) of one jet; NaN, an
    empty field, for what a verdict that is not entire has none of: a
    collapse, and a run certified not entire (TopZero) whose u stays
    positive to the horizon."""
    traj = integrate(spec, jet, cfg)
    if not isinstance(traj.verdict, EntirePositive):
        return (type(traj.verdict).__name__, math.nan, math.nan, math.nan)
    v = volume(spec, traj)
    return ("EntirePositive", v.total, v.err_estimate, traj.verdict.growth_exponent)


def cmd_sweep(args) -> int:
    if args.at_critical:
        if args.m not in (None, 3):
            raise UsageError("--at-critical applies to --m 3")
        args.m = 3  # as critical-eps: the m=3 default horizon too
    rc = load_run_config(args)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")

    extra = ()
    if args.at_critical:
        ks = parse_range(args.k or "")
        if not ks:
            raise UsageError("--at-critical needs a nonempty --k list")
        cache = rc.cache()
        columns = "k,eps_star,verdict,volume,err_estimate"
        rows = []
        for k in sorted(ks):
            ce = critical_eps(k, rc.cfg, args.bracket_tol, cache=cache)
            rows.append((k, ce.eps_star, "EntirePositive", ce.volume, ce.volume_err))
    else:
        if rc.m == 2:
            if not args.rho:
                raise UsageError("m=2 sweep needs --rho range")
            params, jet_of, param_name = parse_range(args.rho), jet_m2, "rho"
            extra = (f"# lambda_star: {_fmt(oracle.lambda_star())}",)
        else:
            if args.k is None or not args.eps:
                raise UsageError("m=3 sweep needs --k (single value) and --eps range")
            k = float(args.k)
            params, jet_of, param_name = parse_range(args.eps), lambda e: jet_m3(k, e), "eps"
            extra = (f"# k: {_fmt(k)}",)
        if not params:
            raise UsageError("empty parameter range")
        params = sorted(params)
        jets = [jet_of(p) for p in params]  # a bad point exits 2 before any integration
        spec = EquationSpec.for_order(rc.m)
        columns = f"{param_name},verdict,volume,err_estimate,growth_exponent"
        rows = [(p, *_sweep_point(spec, rc.cfg, jet)) for p, jet in zip(params, jets)]
    lines = _csv_header("sweep", rc, extra)
    lines.append(columns)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ----------------------------------------------------------- critical-eps

def cmd_critical_eps(args) -> int:
    if args.m not in (None, 3):
        raise UsageError("critical-eps applies to --m 3")
    args.m = 3  # also picks the m=3 default horizon when nothing sets r_max
    rc = load_run_config(args)
    ce = critical_eps(args.k, rc.cfg, args.bracket_tol, cache=rc.cache())
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
            "delta2_at_horizon": ce.delta2_at_horizon,
            "partial_integral": ce.partial_integral,
        },
    }
    write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# ------------------------------------------------------- prescribe-volume

def cmd_prescribe_volume(args) -> int:
    rc = load_run_config(args)
    spec = EquationSpec.for_order(rc.m)
    solve = prescribe_volume(spec, args.lam, rc.cfg,
                             rel_tol_target=args.vol_tol, cache=rc.cache())
    report = {
        "schema": SCHEMA,
        "m": rc.m,
        "lambda_target": solve.target,
        "achieved": solve.achieved,
        "rel_err": solve.rel_err,
        "iterations": solve.iterations,
    }
    if rc.m == 2:
        report["rho"] = solve.param
    else:
        report["k"] = solve.param[0]
        report["eps"] = solve.param[1]
    write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


# ------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):  # add_subparsers gives its subparsers this class
    def __init__(self, *args, **kwargs):  # a value may start with - then a digit or .
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.].*")  # -1e-3, -0.2:0:0.1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyshoot",
        description="Shooting-method toolkit for radial polyharmonic "
                    "equations with negative exponents (orders m=2,3)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--m", type=int, choices=(2, 3), default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance (verify: an upper bound on each "
                            "check's tolerance)")
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
                   help="sweep k values at their critical datum; implies --m 3")
    p.add_argument("--bracket-tol", type=float, default=BRACKET_TOL)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; changes nothing, as every "
                        "point runs in this process")
    p.set_defaults(func=cmd_sweep)

    about = ("locate the critical datum (m=3) by safeguarded bracket refinement "
             "from a bracket about the large-k law; the report's iterations counts "
             "the refinement rounds, not the probes that opened the bracket")
    p = sub.add_parser("critical-eps", help=about, description=about)
    common(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--bracket-tol", type=float, default=BRACKET_TOL)
    p.set_defaults(func=cmd_critical_eps)

    p = sub.add_parser("prescribe-volume",
                       help="solve for a prescribed volume; the report's iterations "
                            "counts the volume probes, not the integrations of the "
                            "m=3 critical solve (m=3: one probe, aimed by the "
                            "closed-form source-free volume, within 8.6e-4 at k = 10 "
                            "and less at larger k)")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--vol-tol", type=float, default=VOLUME_REL_TOL,
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
        if args.out not in (None, "-"):  # checked before the command runs
            if Path(args.out).is_dir():
                raise UsageError(f"cannot write --out {args.out}: it is a directory")
            _check_writable(Path(args.out).parent, f"--out {args.out}")
        return args.func(args)
    except (UsageError, ValueError) as exc:  # ValueError: an invalid argument
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
