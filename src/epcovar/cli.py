"""Command-line entry point.

Usage sketch (see README for the config and views file schemas):

    epcovar --data losses.csv --x SVB --y NBI --alpha 0.95 \
            --mode analytic --views views.json --format csv --out report.csv
    epcovar run.json --scenarios 50000 --seed 7
    epcovar --data losses.csv --x SVB --y NBI --scan variance:0.001:0.04:40

Exit codes: 0 success, 2 configuration error, 3 data error, 4 infeasible
(``InfeasibleError``, at compilation or in the solve), 5 numeric-domain error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .engine import (
    _FORMATS,
    _MODES,
    RunConfig,
    _write,
    emit_report,
    load_config,
    load_views_file,
    run_pipeline,
    sensitivity_scan,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateError,
    InfeasibleError,
    NumericDomainError,
)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DATA = 3
_EXIT_INFEASIBLE = 4
_EXIT_NUMERIC = 5


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epcovar",
        description="View-conditional value-at-risk reports via entropy pooling",
    )
    p.add_argument("config", nargs="?", help="JSON run configuration (flags override it)")
    p.add_argument("--data", help="CSV of loss columns")
    p.add_argument("--x", help="column of the conditioning asset X")
    p.add_argument("--y", help="column of the measured asset Y")
    p.add_argument("--alpha", type=float, help="confidence level in (0, 1), default 0.95")
    p.add_argument("--mode", choices=_MODES, help="prior mode")
    p.add_argument("--scenarios", type=int, help="panel size J for scenario mode")
    p.add_argument("--seed", type=int, help="scenario sampling seed")
    p.add_argument("--unit", help="loss unit label echoed into reports")
    p.add_argument("--views", dest="views_file", metavar="FILE", help="JSON views file")
    p.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=_FORMATS, help="report format")
    p.add_argument(
        "--scan",
        metavar="KIND:FROM:TO:STEPS",
        help="emit a (parameter, CoVaR) sensitivity table instead of a report",
    )
    return p


def _merge_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        config = load_config(args.config)
    else:
        missing = [k for k in ("data", "x", "y") if getattr(args, k) is None]
        if missing:
            raise ConfigError(
                f"missing required option(s) --{', --'.join(missing)} (or pass a config file)"
            )
        config = RunConfig(data=args.data, x=args.x, y=args.y)
    # a flag sets the config field that its dest names; --views names a file
    updates = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    if args.views_file:
        updates["views"] = load_views_file(args.views_file)
    return replace(config, **updates) if updates else config


def _parse_scan(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--scan expects KIND:FROM:TO:STEPS, got {spec!r}")
    kind, lo, hi, steps = parts
    try:
        return kind, float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ConfigError(f"bad --scan arguments {spec!r}: {exc}") from exc


def _run(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    if args.scan:
        kind, lo, hi, steps = _parse_scan(args.scan)
        rows = sensitivity_scan(config, kind, lo, hi, steps)
        _write("".join(f"{v:.10g}\t{c:.10g}\n" for v, c in rows), config.out)
        return _EXIT_OK
    report = run_pipeline(config)
    emit_report(report, config.fmt, config.out)
    return _EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except (NumericDomainError, DegenerateError) as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
