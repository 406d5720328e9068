"""Command-line entry point.

Subcommands: `bounds` (analytic/solved curves), `eval` (one scheme
evaluation), `sweep` (rate-distortion sweep).  Options may come from a flat
key=value config file; explicit flags override the file.  The resolved
config is echoed as comment lines into every output for reproducibility.

Exit codes: 0 success, 2 usage error, 3 bound-check failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import schemes as sch
from .bounds import check_pmf, discrete_dp_rdf_curve
from .harness import (LN2, MIN_N, compare_to_bound, evaluate, rd_sweep,
                      write_curve_csv, write_points_csv, write_reports_csv)
from .lattice import hexagonal, scaled_integer
from .prob import Family, SourceModel, gaussian, laplace, uniform

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


# name -> (constructor, {key: default}) for each spec kind.  A default of
# None marks a required key; a value is an int where the default is one and a
# float otherwise.  Keys None: the spec lists positional floats, a pmf that
# `bounds.check_pmf` validates and that only the `bounds` command takes.
_SOURCES = {"gaussian": (gaussian, {"mean": 0.0, "var": 1.0}),
            "uniform": (uniform, {"a": 0.0, "b": 1.0}),
            "laplace": (laplace, {"loc": 0.0, "scale": 1.0}),
            "pmf": (check_pmf, None)}
_LATTICES = {"cube": (scaled_integer, {"step": None, "dim": 1}),
             "hex": (hexagonal, {"scale": 1.0})}
# schemes.build makes a scheme once its source and lattice are known
_SCHEMES = {name: (sch.build, {key: default} if key else {})
            for name, (_, key, default) in sch.FAMILIES.items()}


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _parse_spec(kind: str, spec: str, table: dict):
    """(name, values) of a `name[:key=value,...]` spec of one kind.

    The values are the spec's, else the table's defaults; a positional spec
    gives a list.  An unknown name, an unknown key, a missing required key
    and a value that is not a finite number are usage errors that name it.
    """
    name, _, rest = spec.partition(":")
    if name not in table:
        raise UsageError(f"unknown {kind} {name!r} in {spec!r}; "
                         f"known: {', '.join(table)}")
    keys = table[name][1]
    items = rest.split(",") if rest else []
    try:
        if keys is None:
            return name, [_finite(t) for t in items]
        values = dict(keys)
        for item in items:
            key, eq, val = item.partition("=")
            if not eq or key not in keys:
                raise UsageError(f"{kind} {name} takes "
                                 f"{', '.join(keys) or 'no key'}, not {item!r}")
            values[key] = int(val) if isinstance(keys[key], int) else _finite(val)
    except ValueError as exc:
        raise UsageError(f"bad {kind} spec {spec!r}: {exc}") from None
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise UsageError(f"{kind} {name} needs {', '.join(missing)} in {spec!r}")
    return name, values


def _build(kind: str, spec: str, table: dict):
    """The source or lattice a spec names; a value it refuses is a usage error."""
    name, values = _parse_spec(kind, spec, table)
    make = table[name][0]
    try:
        return make(values) if isinstance(values, list) else make(**values)
    except ValueError as exc:
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


def _load_config(path: str) -> dict:
    cfg = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            cfg[key.strip()] = val.strip()
    return cfg


# options whose value is an integer, from a flag, the config file or DPQ_SEED
_INT_KEYS = ("n", "seed", "workers")


def _resolve(args, config_keys):
    """Flags override config-file values; returns the resolved dict.

    A config-file key outside `config_keys` is a usage error.  The values of
    `_INT_KEYS` are converted to int here, once; a value that is not an
    integer, an `n` below `harness.MIN_N` or a worker count below 1 is a
    usage error.
    """
    cfg = _load_config(args.config) if args.config else {}
    unread = sorted(set(cfg) - set(config_keys))
    if unread:
        raise UsageError(f"{args.command} does not read config key(s) "
                         f"{', '.join(unread)}")
    resolved = {}
    for key, default in config_keys.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in cfg:
            resolved[key] = cfg[key]
        else:
            resolved[key] = default
        if key in _INT_KEYS:
            try:
                resolved[key] = int(resolved[key])
            except ValueError:
                raise UsageError(f"{key} must be an integer, "
                                 f"got {resolved[key]!r}") from None
        if key == "workers" and resolved[key] < 1:
            raise UsageError(f"workers must be >= 1, got {resolved[key]}")
        if key == "n" and resolved[key] < MIN_N:
            raise UsageError(f"n must be >= {MIN_N}, got {resolved[key]}")
    return resolved


def _units_scale(units: str) -> float:
    if units == "nats":
        return 1.0
    if units == "bits":
        return 1.0 / LN2
    raise UsageError(f"unknown units {units!r}")


def cmd_bounds(args) -> int:
    cfg = _resolve(args, {"source": "gaussian:var=1", "dgrid": None,
                          "cost": None, "out": "bounds.csv"})
    src = _build("source", cfg["source"], _SOURCES)
    if not isinstance(src, SourceModel):  # a pmf: solver-traced curve
        if cfg.pop("dgrid") is not None:
            raise UsageError("a pmf takes no --dgrid: the solver picks its grid")
        cfg["cost"] = cfg["cost"] or "hamming"
        if cfg["cost"] != "hamming":
            raise UsageError("only the hamming cost table is built in")
        pts = discrete_dp_rdf_curve(src, 1.0 - np.eye(src.size))
        write_points_csv(cfg["out"], pts, config=cfg)
        return EXIT_OK
    if cfg.pop("cost") is not None:
        raise UsageError("--cost applies only to a pmf source")
    if src.family is not Family.GAUSSIAN:
        raise UsageError("closed-form bound curves need a Gaussian or pmf source")
    cfg["dgrid"] = cfg["dgrid"] or "0.01:2:200"
    write_curve_csv(cfg["out"], src.variance(), _parse_grid(cfg["dgrid"]),
                    config=cfg)
    return EXIT_OK


def _build_scheme(cfg, seed):
    """(scheme, parameter) from the `--scheme`, `--source`, `--lattice` specs."""
    name, values = _parse_spec("scheme", cfg["scheme"], _SCHEMES)
    src = _continuous_source(cfg["source"], "eval")
    if name == "transform":  # its parameter is a lattice, reported by its step
        lat = _build("lattice", cfg["lattice"], _LATTICES)
        return sch.build(name, replace(src, dim=lat.dim), seed, lat), lat.step
    _, key, default = sch.FAMILIES[name]
    param = values.get(key, default)
    return sch.build(name, src, seed, param), param


def cmd_eval(args) -> int:
    cfg = _resolve(args, {"source": "gaussian:var=1", "scheme": "simple",
                          "lattice": "cube:step=0.1", "n": "100000",
                          "seed": os.environ.get("DPQ_SEED", "0"),
                          "units": "nats", "out": "report.json",
                          "workers": "1", "check_bound": "0"})
    scheme, param = _build_scheme(cfg, cfg["seed"])
    check_bound = cfg["check_bound"] not in ("0", "", "false")
    if check_bound and scheme.source.family is not Family.GAUSSIAN:
        raise UsageError("--check-bound needs a Gaussian source")
    scale = _units_scale(cfg["units"])
    report = evaluate(scheme, cfg["n"], cfg["seed"], workers=cfg["workers"])
    payload = json.loads(report.to_json())
    payload["config"] = {k: str(v) for k, v in cfg.items()}
    payload["param"] = param
    payload["rate_reported"] = report.rate_nats_per_dim * scale
    with open(cfg["out"], "w") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")
    if check_bound:
        verdict = compare_to_bound(report)
        if not verdict["above_bound"]:
            print(f"bound check FAILED: margin {verdict['margin_nats']:.6f} nats",
                  file=sys.stderr)
            return EXIT_BOUND
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve(args, {"source": "gaussian:var=1", "family": "transform",
                          "grid": "0.05,0.1,0.2,0.5,1,2,4",
                          "n": "100000",
                          "seed": os.environ.get("DPQ_SEED", "0"),
                          "out": "sweep.csv", "workers": "1"})
    src = _continuous_source(cfg["source"], "sweep")
    grid = _parse_grid(cfg["grid"])
    rows = rd_sweep(cfg["family"], grid, src, cfg["n"], cfg["seed"],
                    workers=cfg["workers"])
    write_reports_csv(cfg["out"], rows, config=cfg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dpq",
                                description="Distribution preserving quantization tools")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--source")
    common.add_argument("--out")

    run = argparse.ArgumentParser(add_help=False, parents=[common])
    run.add_argument("--seed")
    run.add_argument("--workers")
    run.add_argument("-n", dest="n")

    b = sub.add_parser("bounds", parents=[common], help="emit bound curves")
    b.add_argument("--dgrid", help="lo:hi:count or comma list")
    b.add_argument("--cost", choices=["hamming"],
                   help="cost table, for a pmf source only")
    b.set_defaults(func=cmd_bounds)

    e = sub.add_parser("eval", parents=[run], help="evaluate one scheme")
    e.add_argument("--scheme", help="simple | resample:step=D | transform | awgn:eta2=V")
    e.add_argument("--lattice", help="cube:step=D[,dim=K] | hex:scale=S")
    e.add_argument("--units", choices=["nats", "bits"])
    e.add_argument("--check-bound", dest="check_bound", action="store_const",
                   const="1")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", parents=[run], help="rate-distortion sweep")
    s.add_argument("--family", help="transform | resample | awgn | simple")
    s.add_argument("--grid", help="parameter grid, lo:hi:count or comma list")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, sch.SchemeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
