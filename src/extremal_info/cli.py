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
measure; ``--seed`` by measure and verify; ``--format`` by all but verify.
This module only parses and renders: option values are checked by the
library's validators, their defaults are the library's, and the ``bounds``
and ``converge`` columns are the fields of their report records.  Reports
are CSV (default) or JSON on stdout.  Numbers are printed with 15
significant digits; extended reals use the literals ``inf``, ``-inf`` and
``indeterminate``.  Identical invocations (including ``--seed``) produce
byte-identical output, and no environment variable is read.  Exit codes:
0 success, 1 usage error, 2 domain error (a rejected value, an arithmetic
overflow or a failed quadrature), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import operator
import sys
from collections.abc import Iterable, Sequence
from itertools import repeat

import numpy as np

from . import bounds as bounds_mod
from . import canonical
from . import distributions as dist_mod
from . import evt
from . import measures
from .measures import is_indeterminate
from .numerics import DEFAULT_QUAD_TOL, DEFAULT_SAMPLES, DEFAULT_SEED, QuadratureError
from .numerics import _check_samples, _check_seed
from .special import _check_index, _check_n_grid, _check_real

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

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
    # "%.15g" already prints inf, -inf and nan as _json_value names them.
    if isinstance(x, float):
        return "%.15g" % x
    x = _json_value(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.15g" % x
    return str(x)


def _emit(header: Sequence[str], rows: Iterable[Sequence], output_format: str, out) -> None:
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
    return ",".join(f"{k}={getattr(dist, k):g}" for k in dist_mod.REGISTRY[dist.family].fields)


# ---------------------------------------------------------------------------
# Option values
# ---------------------------------------------------------------------------


def _option_type(flag: str, convert, check=lambda value, flag: value):
    """An argparse ``type=`` for ``flag``: ``convert`` the text, then apply
    the library's ``check`` under the flag's name.  Either failure is a usage
    error whose message names the flag once and states the rule."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from None
        try:
            return check(value, flag)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    return parse


def _grid(text: str):
    try:
        if ":" in text:
            a, b, step = (int(p) for p in text.split(":"))
            # b is included for either sign of step; step 0 stays an error
            return range(a, b + (1 if step > 0 else -1), step)
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected a:b:step or a comma list of integers: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# A report that a record stands behind takes its columns from the record's
# fields and reads each row with one attrgetter.
_BOUNDS_FIELDS = tuple(f.name for f in dataclasses.fields(bounds_mod.BoundsReport))
_CONVERGE_FIELDS = tuple(f.name for f in dataclasses.fields(evt.ConvergenceRecord))
# converge formats its CSV rows this many at a time, with one % format
_CONVERGE_BLOCK = 256
# The closed/quad/gap columns are the keys of measures.crosscheck.
_TABLES_HEADER = (
    "family", "params", "n", "h_closed", "h_quad", "h_gap", "h_ub",
    "j_closed", "j_quad", "j_gap", "j_ub",
)


def cmd_measure(args, out) -> int:
    route = dict(quad_tol=args.tol, samples=args.samples, seed=args.seed)
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
    cells = operator.attrgetter(*_BOUNDS_FIELDS)
    rows = [
        [dist.family, _params_label(dist), args.n, name,
         *cells(report(dist, args.n, args.method, quad_tol=args.tol))]
        for name, report in (
            ("shannon", bounds_mod.shannon_bounds),
            ("extropy", bounds_mod.extropy_bounds),
        )
    ]
    _emit(("family", "params", "n", "measure", *_BOUNDS_FIELDS), rows, args.format, out)
    return EXIT_OK


def cmd_tables(args, out) -> int:
    rows = []
    for dist in canonical.catalog_members():
        cells = dict(family=dist.family, params=_params_label(dist),
                     h_ub=bounds_mod.shannon_limit_upper(dist),
                     j_ub=bounds_mod.extropy_limit_upper(dist))
        for n in canonical.TABLE_N:
            row = dict(cells, n=n, **measures.crosscheck(dist, n, quad_tol=args.tol))
            rows.append(list(map(row.get, _TABLES_HEADER)))
        # the limit row has no quadrature columns; they render empty
        limit = dict(cells, n="limit", h_closed=measures.shannon_limit(dist),
                     j_closed=measures.extropy_limit(dist))
        rows.append(list(map(limit.get, _TABLES_HEADER)))
    _emit(_TABLES_HEADER, rows, args.format, out)
    return EXIT_OK


def cmd_figure1(args, out) -> int:
    dist = dist_mod.exponential(1.0)
    ub = bounds_mod.shannon_limit_upper(dist)
    n = np.arange(1, _FIGURE1_MAX_N + 1)
    h = dist_mod.REGISTRY[dist.family].shannon(dist, n)
    _emit(["n", "H", "UB"], zip(n.tolist(), h.tolist(), repeat(ub)), args.format, out)
    return EXIT_OK


def cmd_converge(args, out) -> int:
    study = evt.convergence_study(dist_mod.from_dict(args.dist), args.n_grid)
    # the study holds a column per record field, and the targets as constants
    cells = [getattr(study, name) for name in _CONVERGE_FIELDS]
    if args.format != "csv":
        columns = (c.tolist() if np.ndim(c) else repeat(c) for c in cells)
        _emit(_CONVERGE_FIELDS, zip(*columns), args.format, out)
        return EXIT_OK
    # _emit's CSV bytes, as no cell needs quoting: a constant cell is
    # formatted once, into the row format, and a block of rows at a time
    row = ",".join(
        ("%d" if name == "n" else "%.15g") if np.ndim(c) else _csv_value(c).replace("%", "%%")
        for name, c in zip(_CONVERGE_FIELDS, cells)
    ) + "\n"
    columns = [c for c in cells if np.ndim(c)]
    width = len(columns)
    out.write(",".join(_CONVERGE_FIELDS) + "\n")
    size = len(study.n)
    for start in range(0, size, _CONVERGE_BLOCK):
        stop = min(start + _CONVERGE_BLOCK, size)
        block = [None] * (width * (stop - start))
        for k, column in enumerate(columns):
            block[k::width] = column[start:stop].tolist()
        out.write(row * (stop - start) % tuple(block))
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from . import verify as verify_mod

    results = verify_mod.run_all(quad_tol=args.tol, seed=args.seed)
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
        "--dist": dict(type=_option_type("--dist", json.loads), required=True,
                       help="distribution spec as JSON"),
        "--n": dict(type=_option_type("--n", int, _check_index), required=True,
                    help="number of draws"),
        "--n-grid": dict(type=_option_type("--n-grid", _grid, _check_n_grid), required=True,
                         help="a:b:step or comma list"),
        "--tol": dict(type=_option_type("--tol", float, _check_real), default=DEFAULT_QUAD_TOL,
                      help="quadrature absolute tolerance"),
        "--samples": dict(type=_option_type("--samples", int, _check_samples),
                          default=DEFAULT_SAMPLES, help="Monte Carlo sample count"),
        "--seed": dict(type=_option_type("--seed", int, _check_seed), default=DEFAULT_SEED,
                       help="Monte Carlo seed"),
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
    except (ValueError, ArithmeticError, QuadratureError) as exc:
        err.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
