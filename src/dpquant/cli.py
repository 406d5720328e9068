"""Command-line entry point.

Subcommands: `bounds` (analytic/solved curves), `eval` (one scheme
evaluation), `sweep` (rate-distortion sweep).  Each option is one
`add_argument`, with its default and its check.  A flat key=value config
file sets the subcommand's defaults, which pass the same checks; explicit
flags override the file.  Each command writes its own output file, a CSV
(`bounds`, `sweep`) or a JSON report (`eval`), with the resolved config
echoed into it for reproducibility.

Exit codes: 0 success, 2 usage error, 3 bound-check failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import schemes as sch
from .bounds import (check_pmf, discrete_dp_rdf_curve, dp_rdf_gaussian,
                     rdf_gaussian)
from .harness import MIN_N, compare_to_bound, evaluate, rd_sweep
from .lattice import hexagonal, scaled_integer
from .prob import Family, SourceModel, gaussian, laplace, uniform

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_NUMERIC = 4

_LN2 = math.log(2.0)
_CURVE_HEADER = "D,rate_nats,rate_bits,source"


class UsageError(Exception):
    pass


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


# name -> (constructor, {key: converter}) for each spec kind; a key left out
# takes the constructor's own default.  Keys None: the spec lists positional
# floats, a pmf that `bounds.check_pmf` validates and that only the `bounds`
# command takes.
_SOURCES = {"gaussian": (gaussian, {"mean": _finite, "var": _finite}),
            "uniform": (uniform, {"a": _finite, "b": _finite}),
            "laplace": (laplace, {"loc": _finite, "scale": _finite}),
            "pmf": (check_pmf, None)}
_LATTICES = {"cube": (scaled_integer, {"step": _finite, "dim": int}),
             "hex": (hexagonal, {"scale": _finite})}
# name -> (its parameter's default, {key: converter}): a scheme spec takes at
# most one key, the parameter, and schemes.build makes the scheme once its
# source and lattice are known.  The transform's parameter is `--lattice`.
_SCHEMES = {"simple": (0.0, {}),
            "resample": (0.05, {"step": _finite}),
            "transform": (None, {}),
            "awgn": (1.0, {"eta2": _finite})}


def _parse_spec(kind: str, spec: str, table: dict):
    """(name, values) of a `name[:key=value,...]` spec of one kind: the given
    values, converted, or a list for a positional spec.  An unknown name or
    key, a key given twice and a value that is not a finite number are usage
    errors naming it."""
    name, _, rest = spec.partition(":")
    if name not in table:
        raise UsageError(f"unknown {kind} {name!r} in {spec!r}; "
                         f"known: {', '.join(table)}")
    keys = table[name][1]
    items = rest.split(",") if rest else []
    try:
        if keys is None:
            return name, [_finite(t) for t in items]
        values = {}
        for item in items:
            key, eq, val = item.partition("=")
            if not eq or key not in keys:
                raise UsageError(f"{kind} {name} takes "
                                 f"{', '.join(keys) or 'no key'}, not {item!r}")
            if key in values:
                raise UsageError(f"{kind} spec {spec!r} gives {key} twice")
            values[key] = keys[key](val)
    except ValueError as exc:
        raise UsageError(f"bad {kind} spec {spec!r}: {exc}") from None
    return name, values


def _build(kind: str, spec: str, table: dict):
    """The source or lattice a spec names.  A value it refuses, or a required
    key left out (the constructor's TypeError names it), is a usage error."""
    name, values = _parse_spec(kind, spec, table)
    make = table[name][0]
    try:
        return make(values) if isinstance(values, list) else make(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {kind} spec {spec!r}: {exc}") from None


def _continuous_source(spec: str, command: str):
    src = _build("source", spec, _SOURCES)
    if not isinstance(src, SourceModel):
        raise UsageError(f"{command} needs a continuous source, not a pmf")
    return src


def _parse_grid(spec: str):
    """lo:hi:count (inclusive linear grid) or comma-separated values."""
    try:
        if ":" in spec:
            lo, hi, count = spec.split(":")
            grid = np.linspace(_finite(lo), _finite(hi), int(count))
        else:
            grid = np.array([_finite(t) for t in spec.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from exc
    if not grid.size:
        raise UsageError(f"bad grid spec {spec!r}: empty grid")
    return grid


def _integer(key: str, least: int | None = None):
    """A `type=` for an integer option that is at least `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{key} must be an integer, got {text!r}") from None
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(
                f"{key} must be >= {least}, got {value}")
        return value
    return parse


def _one_of(key: str, *names: str):
    """A `type=` for an option that takes one of `names`."""
    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"{key} must be one of {', '.join(map(repr, names))}, "
                f"not {text!r}")
        return text
    return parse


class _Switch(argparse.Action):
    """A flag that stores "1"; a config-file value passes its `type=`."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "1")


def _options(args) -> dict:
    """The subcommand's options, as parsed: what a config file may set."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "config")}


def _load_config(args) -> dict:
    """The `key=value` lines of ``args.config``.  A key that is not one of the
    subcommand's options, or that is given twice, is a usage error that
    names it."""
    cfg = {}
    with open(args.config) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in cfg:
                raise UsageError(f"config key {key} given twice")
            cfg[key] = val.strip()
    unread = sorted(set(cfg) - set(_options(args)))
    if unread:
        raise UsageError(f"{args.command} does not read config key(s) "
                         f"{', '.join(unread)}")
    return cfg


def _write_csv(path, config: dict, header: str, rows):
    """`# key=value` lines of the config, sorted by key, the header, the rows."""
    lines = [f"# {k}={v}" for k, v in sorted(config.items())]
    with open(path, "w") as f:
        f.write("\n".join([*lines, header, *rows]) + "\n")


def _curve_row(d: float, rate: float, name: str) -> str:
    return f"{d:.10g},{rate:.10g},{rate / _LN2:.10g},{name}"


def cmd_bounds(args) -> int:
    """Bound curves, one `D,rate_nats,rate_bits,source` row per (D, curve):
    the solver's dp_rdf_discrete points for a pmf under Hamming cost, by
    distortion; for a Gaussian, the closed forms dp_rdf and rdf at each
    --dgrid value (its Shannon lower bound is its rdf)."""
    cfg = _options(args)
    src = _build("source", cfg["source"], _SOURCES)
    if not isinstance(src, SourceModel):  # a pmf: solver-traced curve
        if cfg.pop("dgrid") is not None:
            raise UsageError("a pmf takes no --dgrid: the solver picks its grid")
        pts = discrete_dp_rdf_curve(src, 1.0 - np.eye(src.size))
        rows = [_curve_row(p.distortion, p.rate, "dp_rdf_discrete")
                for p in sorted(pts, key=lambda q: q.distortion)]
        _write_csv(cfg["out"], cfg, _CURVE_HEADER, rows)
        return EXIT_OK
    if src.family is not Family.GAUSSIAN:
        raise UsageError("closed-form bound curves need a Gaussian or pmf source")
    cfg["dgrid"] = cfg["dgrid"] or "0.01:2:200"
    var = src.variance()
    rows = []
    for d in _parse_grid(cfg["dgrid"]):
        rows += [_curve_row(d, dp_rdf_gaussian(var, d), "dp_rdf"),
                 _curve_row(d, rdf_gaussian(var, d), "rdf")]
    _write_csv(cfg["out"], cfg, _CURVE_HEADER, rows)
    return EXIT_OK


def _build_scheme(cfg, seed):
    """The scheme the `--scheme`, `--source` and `--lattice` specs name."""
    name, values = _parse_spec("scheme", cfg["scheme"], _SCHEMES)
    src = _continuous_source(cfg["source"], "eval")
    if name == "transform":  # its parameter is a lattice
        lat = _build("lattice", cfg["lattice"], _LATTICES)
        return sch.build(name, replace(src, dim=lat.dim), seed, lat)
    param = next(iter(values.values()), _SCHEMES[name][0])  # given, or default
    return sch.build(name, src, seed, param)


def cmd_eval(args) -> int:
    cfg = _options(args)
    scheme = _build_scheme(cfg, cfg["seed"])
    check_bound = cfg["check_bound"] in ("1", "true")
    if check_bound and scheme.source.family is not Family.GAUSSIAN:
        raise UsageError("--check-bound needs a Gaussian source")
    report = evaluate(scheme, cfg["n"], cfg["seed"], workers=cfg["workers"])
    payload = asdict(report)
    payload["config"] = {k: str(v) for k, v in cfg.items()}
    payload["rate_bits_per_dim"] = report.rate_nats_per_dim / _LN2
    for key in ("rate_nats_per_dim", "rate_bits_per_dim"):
        if payload[key] == math.inf:  # unbounded: JSON has no infinity
            payload[key] = None
    # any other non-finite value is a numerical failure, before the file opens
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(cfg["out"], "w") as f:
        f.write(text + "\n")
    if check_bound:
        verdict = compare_to_bound(report)
        if not verdict["above_bound"]:
            print(f"bound check FAILED: margin {verdict['margin_nats']:.6f} nats",
                  file=sys.stderr)
            return EXIT_BOUND
    return EXIT_OK


def cmd_sweep(args) -> int:
    """One row per grid point, by MSE; the dp_rdf_nats,rdf_nats columns are
    the Gaussian closed forms at the measured MSE, left empty for any other
    source, which has none."""
    cfg = _options(args)
    src = _continuous_source(cfg["source"], "sweep")
    grid = _parse_grid(cfg["grid"])
    rows = []
    for param, rep in rd_sweep(cfg["family"], grid, src, cfg["n"], cfg["seed"],
                               workers=cfg["workers"]):
        ks_max = max(d for d, _ in rep.ks_per_axis)
        ks_pass = all(p for _, p in rep.ks_per_axis)
        row = (f"{rep.scheme['kind']},{param:.10g},{rep.n},{rep.seed},"
               f"{rep.rate_nats_per_dim:.10g},{rep.rate_se:.10g},"
               f"{rep.mse_per_dim:.10g},{rep.mse_se:.10g},"
               f"{ks_max:.10g},{int(ks_pass)},")
        if src.family is Family.GAUSSIAN:
            var, d = src.variance(), rep.mse_per_dim
            row += f"{dp_rdf_gaussian(var, d):.10g},{rdf_gaussian(var, d):.10g}"
        else:
            row += ","
        rows.append(row)
    _write_csv(cfg["out"], cfg,
               "scheme,param,n,seed,rate_nats,rate_se,mse,mse_se,ks_max,"
               "ks_pass,dp_rdf_nats,rdf_nats", rows)
    return EXIT_OK


def build_parser():
    """(the `dpq` parser, {command: its subparser}).  Shared options are added
    in a loop, not by `parents=`, which would share their actions (and so a
    config file's defaults) between the subparsers."""
    p = argparse.ArgumentParser(prog="dpq",
                                description="Distribution preserving quantization tools")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, out, about in (
            ("bounds", cmd_bounds, "bounds.csv", "emit bound curves"),
            ("eval", cmd_eval, "report.json", "evaluate one scheme"),
            ("sweep", cmd_sweep, "sweep.csv", "rate-distortion sweep")):
        c = commands[name] = sub.add_parser(name, help=about)
        c.set_defaults(func=func)
        c.add_argument("--config", help="flat key=value config file")
        c.add_argument("--source", default="gaussian:var=1")
        c.add_argument("--out", default=out)
        if name != "bounds":
            c.add_argument("--seed", type=_integer("seed"), default="0")
            c.add_argument("--workers", type=_integer("workers", 1), default="1")
            c.add_argument("-n", type=_integer("n", MIN_N), default="100000")
    b, e, s = commands.values()
    b.add_argument("--dgrid", help="lo:hi:count or comma list")
    e.add_argument("--scheme", default="simple",
                   help="simple | resample:step=D | transform | awgn:eta2=V")
    e.add_argument("--lattice", default="cube:step=0.1",
                   help="cube:step=D[,dim=K] | hex:scale=S")
    e.add_argument("--check-bound", dest="check_bound", action=_Switch,
                   type=_one_of("check_bound", "", "0", "1", "false", "true"),
                   default="0")
    s.add_argument("--family", default="transform",
                   help="transform | resample | awgn | simple")
    s.add_argument("--grid", default="0.05,0.1,0.2,0.5,1,2,4",
                   help="parameter grid, lo:hi:count or comma list")
    return p, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # its values become the subcommand's defaults
            commands[args.command].set_defaults(**_load_config(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (UsageError, sch.SchemeError, OSError) as exc:  # OSError: a path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
