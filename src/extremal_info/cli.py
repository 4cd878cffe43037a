"""Command-line surface.

Subcommands (each rejects every option it does not read)
--------------------------------------------------------
measure   H and J of the maximum for one distribution and n
bounds    finite-n envelope reports for both measures
tables    closed form vs quadrature across the canonical catalog
figure1   (n, H, ceiling) profile for Exp(1), n = 1..50
converge  normalized measures along an n-grid vs their limiting targets
verify    run the built-in invariant suite; plain-text report

``--tol`` is read by measure, bounds, tables and verify; ``--samples`` by
measure; ``--seed`` (default ``$EXTREMAL_INFO_SEED``, else 0) by measure and
verify; ``--format`` by all but verify.  Reports are CSV (default) or JSON on
stdout.  Numbers are printed with 15 significant digits; extended reals use
the literals ``inf``, ``-inf`` and ``indeterminate``.  Identical invocations
(including ``--seed``) produce byte-identical output.  Exit codes: 0 success,
1 usage error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import bounds as bounds_mod
from . import canonical
from . import distributions as dist_mod
from . import evt
from . import measures
from .measures import is_indeterminate
from .numerics import DEFAULT_QUAD_TOL, DEFAULT_SAMPLES, MIN_SAMPLES, QuadratureError
from .special import _check_index, _check_n_grid

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

SEED_ENV_VAR = "EXTREMAL_INFO_SEED"

_FIGURE1_MAX_N = 50


class UsageError(Exception):
    """Malformed invocation; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # instead so usage problems consistently map to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _json_value(x):
    """A report cell as JSON: extended reals become the literals ``inf``,
    ``-inf``, ``indeterminate`` and ``nan``; other numbers become floats."""
    if x is None or isinstance(x, (str, bool, int)):
        return x
    if is_indeterminate(x):
        return "indeterminate"
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _csv_value(x) -> str:
    x = _json_value(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.15g" % x
    return str(x)


def _emit(header: list[str], rows: list[list], output_format: str, out) -> None:
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_value(v) for v in row])
        out.write(buf.getvalue())
    else:
        payload = [
            {key: _json_value(value) for key, value in zip(header, row)} for row in rows
        ]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")


def _params_label(dist) -> str:
    d = dist_mod.to_dict(dist)
    return ",".join(f"{k}={d[k]:g}" for k in ("theta", "nu", "xi") if k in d)


# ---------------------------------------------------------------------------
# Option values
# ---------------------------------------------------------------------------


def _option_type(convert):
    """An argparse ``type=`` from ``convert`` whose usage error keeps the
    ValueError message, which names the rule, not argparse's "invalid value"."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


@_option_type
def _n(text: str) -> int:
    return _check_index(int(text), "--n")


@_option_type
def _n_grid(text: str) -> list[int]:
    try:
        if ":" in text:
            a, b, step = (int(p) for p in text.split(":"))
            grid = range(a, b + 1, step)
        else:
            grid = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected a:b:step or a comma list of integers: {exc}") from None
    return _check_n_grid(grid, "--n-grid")


@_option_type
def _tol(text: str) -> float:
    tol = float(text)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"must be a positive finite real, got {text}")
    return tol


@_option_type
def _samples(text: str) -> int:
    samples = int(text)
    if samples < MIN_SAMPLES:
        raise ValueError(f"must be at least {MIN_SAMPLES}, got {samples}")
    return samples


@_option_type
def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"must be a non-negative integer, got {seed}")
    return seed


def _seed_or_env(seed: int | None) -> int:
    """``--seed`` if given, else the environment variable, else 0."""
    if seed is not None:
        return seed
    try:
        return _seed(os.environ.get(SEED_ENV_VAR, "0"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"environment variable {SEED_ENV_VAR} (--seed): {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_measure(args, out) -> int:
    route = dict(quad_tol=args.tol, samples=args.samples, seed=_seed_or_env(args.seed))
    dist = dist_mod.from_dict(args.dist)
    h = measures.shannon_max(dist, args.n, args.method, **route)
    j = measures.extropy_max(dist, args.n, args.method, **route)
    header = ["family", "params", "n", "H", "J", "method", "error_estimate", "h_error", "j_error"]
    rows = [
        [
            dist.family,
            _params_label(dist),
            args.n,
            h.value,
            j.value,
            h.method,
            max(h.error_estimate, j.error_estimate),
            h.error_estimate,
            j.error_estimate,
        ]
    ]
    _emit(header, rows, args.format, out)
    return EXIT_OK


def cmd_bounds(args, out) -> int:
    dist = dist_mod.from_dict(args.dist)
    header = [
        "family",
        "params",
        "n",
        "measure",
        "lower",
        "value",
        "upper",
        "lower_holds",
        "upper_holds",
        "applicable",
        "gate_note",
    ]
    rows = []
    for name, report in (
        ("shannon", bounds_mod.shannon_bounds(dist, args.n, args.method, quad_tol=args.tol)),
        ("extropy", bounds_mod.extropy_bounds(dist, args.n, args.method, quad_tol=args.tol)),
    ):
        rows.append(
            [
                dist.family,
                _params_label(dist),
                args.n,
                name,
                report.lower,
                report.value,
                report.upper,
                report.lower_holds,
                report.upper_holds,
                report.applicable,
                report.gate_note,
            ]
        )
    _emit(header, rows, args.format, out)
    return EXIT_OK


def cmd_tables(args, out) -> int:
    header = [
        "family",
        "params",
        "n",
        "h_closed",
        "h_quad",
        "h_gap",
        "h_ub",
        "j_closed",
        "j_quad",
        "j_gap",
        "j_ub",
    ]
    rows = []
    for dist in canonical.catalog_members():
        h_ub = bounds_mod.shannon_limit_upper(dist)
        j_ub = bounds_mod.extropy_limit_upper(dist)
        for n in canonical.TABLE_N:
            chk = measures.crosscheck(dist, n, quad_tol=args.tol)
            rows.append(
                [
                    dist.family,
                    _params_label(dist),
                    n,
                    chk["h_closed"],
                    chk["h_quad"],
                    chk["h_gap"],
                    h_ub,
                    chk["j_closed"],
                    chk["j_quad"],
                    chk["j_gap"],
                    j_ub,
                ]
            )
        rows.append(
            [
                dist.family,
                _params_label(dist),
                "limit",
                measures.shannon_limit(dist),
                None,
                None,
                h_ub,
                measures.extropy_limit(dist),
                None,
                None,
                j_ub,
            ]
        )
    _emit(header, rows, args.format, out)
    return EXIT_OK


def cmd_figure1(args, out) -> int:
    dist = dist_mod.exponential(1.0)
    ub = bounds_mod.shannon_limit_upper(dist)
    header = ["n", "H", "UB"]
    rows = [
        [n, measures.shannon_max(dist, n).value, ub] for n in range(1, _FIGURE1_MAX_N + 1)
    ]
    _emit(header, rows, args.format, out)
    return EXIT_OK


def cmd_converge(args, out) -> int:
    study = evt.convergence_study(dist_mod.from_dict(args.dist), args.n_grid)
    header = [
        "n",
        "h_normalized",
        "j_normalized",
        "h_target",
        "j_target",
        "h_gap",
        "j_gap",
    ]
    rows = [
        [r.n, r.h_normalized, r.j_normalized, r.h_target, r.j_target, r.h_gap, r.j_gap]
        for r in study.records
    ]
    _emit(header, rows, args.format, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from . import verify as verify_mod

    results = verify_mod.run_all(quad_tol=args.tol, seed=_seed_or_env(args.seed))
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        line = f"{status:4s} {r.name}"
        if not r.passed:
            line += f": {r.detail}"
        out.write(line + "\n")
    out.write(f"{len(results) - len(failed)} passed, {len(failed)} failed\n")
    return EXIT_OK if not failed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    options = {
        "--dist": dict(
            type=_option_type(json.loads), required=True, help="distribution spec as JSON"
        ),
        "--n": dict(type=_n, required=True, help="number of draws"),
        "--n-grid": dict(type=_n_grid, required=True, help="a:b:step or comma list"),
        "--tol": dict(type=_tol, default=DEFAULT_QUAD_TOL, help="quadrature absolute tolerance"),
        "--samples": dict(type=_samples, default=DEFAULT_SAMPLES, help="Monte Carlo sample count"),
        "--seed": dict(type=_seed, help=f"Monte Carlo seed (default: ${SEED_ENV_VAR} or 0)"),
        "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
    }
    parser = _Parser(
        prog="extremal-info",
        description="Entropy and extropy of sample maxima: measures, bounds, and limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, flags, methods, help in (
        ("measure", cmd_measure, ("--dist", "--n", "--tol", "--samples", "--seed", "--format"),
         ("closed", "quad", "mc"), "H and J of the maximum of n draws"),
        ("bounds", cmd_bounds, ("--dist", "--n", "--tol", "--format"),
         ("closed", "quad"), "finite-n envelope reports"),
        ("tables", cmd_tables, ("--tol", "--format"),
         None, "closed form vs quadrature across the catalog"),
        ("figure1", cmd_figure1, ("--format",),
         None, "(n, H, ceiling) profile for Exp(1), n = 1..50"),
        ("converge", cmd_converge, ("--dist", "--n-grid", "--format"),
         None, "normalized measures along an n-grid"),
        ("verify", cmd_verify, ("--tol", "--seed"), None, "run the built-in invariant suite"),
    ):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        if methods:
            p.add_argument("--method", choices=methods, default="closed")
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args, out)
    except UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, QuadratureError) as exc:
        err.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
