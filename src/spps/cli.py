"""Command-line interface.

Subcommands::

    spps verify    --config problem.ini        check seed quality, report JSON
    spps factorize --config problem.ini        build factors, optionally dump
    spps powers    --config problem.ini --out d  dump the power functions
    spps solve     --config problem.ini        solve the [initial] problem
    spps eig       --config problem.ini        search the [eig] region

Exit codes: 0 success; 1 configuration or expression errors, or output that
cannot be written; 2 numerical validation failures (and argparse usage
errors); 3 the requested spectral region is out of reach for the configured
series truncation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import (
    ConfigError,
    ExpressionError,
    RegionTruncationError,
    SppsError,
)
from .mesh import SampledFunction, format_csv, format_json
from .problem import ProblemConfig, load_config
from .spectral import (EigenOptions, find_eigenvalues, solve_initial_value,
                       with_truncation)


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, metavar="FILE",
                     help="problem definition file (INI)")
    sub.add_argument("--mesh", type=int, metavar="N",
                     help="override the number of mesh nodes")
    sub.add_argument("--order", type=int, metavar="M",
                     help="override the series truncation order")
    sub.add_argument("--seed", type=int, metavar="S",
                     help="override the recombination seed")
    sub.add_argument("--tol", type=float, metavar="T",
                     help="override the residual tolerance")
    sub.add_argument("--out", metavar="DIR",
                     help="directory for output files")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="file format for sampled functions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spps",
        description="Series solutions of n-th order linear ODEs in the "
                    "spectral parameter: initial-value problems and "
                    "eigenvalue search.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in (
            ("verify", _cmd_verify,
             "build the seed system and report its quality"),
            ("factorize", _cmd_factorize,
             "compute the operator factorization"),
            ("powers", _cmd_powers,
             "compute the power functions of the spectral series"),
            ("solve", _cmd_solve,
             "solve the initial-value problem from [initial]"),
            ("eig", _cmd_eig,
             "find eigenvalues in the region from [eig]")):
        sub = subs.add_parser(name, help=text)
        _common_flags(sub)
        sub.set_defaults(func=fn)
    return parser


def _load(args) -> ProblemConfig:
    cfg = load_config(args.config)
    for flag, field in (("mesh", "nodes"), ("order", "truncation"),
                        ("seed", "rng_seed"), ("tol", "residual_tol")):
        if getattr(args, flag) is not None:  # one at a time, each checked
            cfg = replace(cfg, **{field: getattr(args, flag)})
    return cfg


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _write_function(args, name: str, f: SampledFunction) -> str:
    path = os.path.join(args.out, f"{name}.{args.format}")
    text = format_csv(f) if args.format == "csv" else format_json(f)
    try:  # exits 1, as an unreadable config does
        os.makedirs(args.out, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _quality(ws) -> dict:
    return {
        "residual_max": ws.seed.residual_max,
        "wronskian_min": ws.seed.wronskian_min,
        "retries": ws.seed.retries,
        "truncations": list(ws.seed.truncations),
    }


def _cmd_verify(args) -> int:
    # workspace construction enforces the residual and nonvanishing floors,
    # so reaching the report already means the checks passed; failures exit
    # through the error mapping in main() with code 2
    cfg = _load(args)
    ws = cfg.make_workspace()
    _emit(_quality(ws))
    return 0


def _cmd_factorize(args) -> int:
    cfg = _load(args)
    ws = cfg.make_workspace()
    report = _quality(ws)
    if args.out:
        report["files"] = [
            _write_function(args, f"factor{j}", bj)
            for j, bj in enumerate(ws.b)]
    _emit(report)
    return 0


def _cmd_powers(args) -> int:
    cfg = _load(args)
    ws = cfg.make_workspace()
    ws = with_truncation(ws, ws.truncation)  # every power up to the cap
    report = _quality(ws)
    report["truncation"] = ws.truncation
    report["count"] = ws.n * (ws.truncation + 1)
    if args.out:
        files = []
        for k in range(1, ws.n + 1):
            for m in range(ws.truncation + 1):
                files.append(_write_function(
                    args, f"power_k{k}_m{m}", ws.table.main(k, m)))
        report["files"] = files
    _emit(report)
    return 0


def _cmd_solve(args) -> int:
    cfg = _load(args)
    if cfg.initial_values is None:
        raise ConfigError("solve requires an [initial] section")
    ws = cfg.make_workspace()
    y = solve_initial_value(ws, cfg.initial_values, cfg.initial_lambda)
    if args.out:
        path = _write_function(args, "solution", y)
        _emit(dict(_quality(ws), file=path))
    else:
        text = format_csv(y) if args.format == "csv" else format_json(y)
        sys.stdout.write(text)
    return 0


def _cmd_eig(args) -> int:
    cfg = _load(args)
    if cfg.boundary_rows is None:
        raise ConfigError("eig requires a [boundary] section")
    if cfg.region is None:
        raise ConfigError("eig requires an [eig] section with a region")
    ws = cfg.make_workspace()
    bc = cfg.make_boundary()
    options = EigenOptions(samples=cfg.samples, max_count=cfg.max_count,
                           residual_tol=100.0 * cfg.residual_tol)
    result = find_eigenvalues(ws, bc, cfg.region, options)
    report = _quality(ws)
    report["eigenvalues"] = [
        {"lambda_re": e.lam.real, "lambda_im": e.lam.imag,
         "residual": e.residual}
        for e in result.eigenvalues]
    report["rejected"] = [
        {"lambda_re": lam.real, "lambda_im": lam.imag, "reason": reason}
        for lam, reason in result.rejected]
    _emit(report)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RegionTruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SppsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
