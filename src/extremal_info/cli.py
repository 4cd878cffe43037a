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
``indeterminate``.  ``converge`` renders its CSV a block of rows at a time,
formatting each column in numpy, and every float cell is byte-identical to
``"%.15g" % x``: the cells that go to Python's own ``%.15g`` are nan, +-inf,
magnitudes below 1e-8 or from 1e15 up, and a 15-digit rounding that carries
to the next power of ten.  Identical invocations (including ``--seed``)
produce byte-identical output, and no environment variable is read.  Exit
codes: 0 success, 1 usage error, 2 domain error (a rejected value, an
arithmetic overflow or a failed quadrature), 3 verification failure.
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
        out.write(_json_rows(header, rows))
        out.write("\n")


def _json_cell(x) -> str:
    """A report cell as ``json.dumps`` writes its :func:`_json_value`."""
    x = _json_value(x)
    if isinstance(x, float):
        return float.__repr__(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int.__repr__(x)
    return json.dumps(x)  # a string, true, false or null


@functools.lru_cache(maxsize=64)
def _json_keys(header: tuple[str, ...]) -> tuple[str, ...]:
    """Each key of ``header`` as it opens an item of a :func:`_json_rows`
    object, encoded once per header."""
    return tuple(f"    {json.dumps(key)}: " for key in header)


def _json_rows(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``json.dumps`` of the rows as objects keyed by ``header`` (distinct
    keys), with ``indent=2``, byte for byte, written a row at a time."""
    keys = _json_keys(tuple(header))
    objects = []
    text = float.__repr__
    for row in rows:
        # x - x is 0.0 for a finite x, nan for inf and nan
        cells = [text(x) if type(x) is float and x - x == 0.0 else _json_cell(x) for x in row]
        items = ",\n".join(map(operator.add, keys, cells))
        objects.append(f"  {{\n{items}\n  }}" if items else "  {}")
    return "[\n" + ",\n".join(objects) + "\n]" if objects else "[]"


def _params_label(dist) -> str:
    return ",".join(f"{k}={getattr(dist, k):g}" for k in dist_mod.REGISTRY[dist.family].fields)


# ---------------------------------------------------------------------------
# CSV columns
# ---------------------------------------------------------------------------

# Rows rendered at a time, which keeps a block's arrays under 1 MB
_BLOCK_ROWS = 512
# A float cell's slot: its sign, the "0.000" of a fixed form below 1, the 15
# significant digits, the point, the 15 digits again and "e-0" and the
# exponent digit.  A layout keeps the integer digits from the first copy and
# the fraction digits from the second, so a cell's kept bytes are a few runs.
_FLOAT_SLOT = b"-0.000" + b"0" * 15 + b"." + b"0" * 15 + b"e-00"
_SIGN, _INTEGER, _POINT, _FRACTION, _EXPONENT = 0, 6, 21, 22, 37
# The ASCII code of a pad byte, which no rendered cell contains
_PAD = ord(" ")


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """10**k for k = 0..22, each an exact double, and the kept bytes of a
    float slot by layout: row (X + 8) * 15 + D - 1 is %.15g of a value whose
    15-digit rounding has decimal exponent X in [-8, 14] and D digits once
    its trailing zeros go.  The sign is kept per cell."""
    pow10 = np.array([float(10**k) for k in range(23)])
    keep = np.zeros((23, 15, len(_FLOAT_SLOT)), dtype=bool)
    for x in range(-8, 15):
        for d in range(1, 16):
            row = keep[x + 8, d - 1]
            if x < -4:  # d.ddde-0X
                row[_INTEGER] = True
                row[_POINT] = d > 1
                row[_FRACTION + 1:_FRACTION + d] = True
                row[_EXPONENT:] = True
            elif x < 0:  # 0.000ddd
                row[1:2 - x] = True
                row[_INTEGER:_INTEGER + d] = True
            else:  # ddd.ddd, or ddd000 with no point
                row[_INTEGER:_INTEGER + x + 1] = True
                row[_POINT] = d > x + 1
                row[_FRACTION + x + 1:_FRACTION + d] = True
    return pow10, keep.reshape(23 * 15, -1)


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of each number below 10**4, as one uint32."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _digits(v: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` (a multiple of 4) decimal digits of each nonnegative
    int64 in ``v``, leading zeros included, as ASCII bytes."""
    quads = _quads()
    out = np.empty(v.shape + (count // 4,), dtype=np.uint32)
    for i in reversed(range(count // 4)):
        q = v // 10_000
        out[..., i] = quads[v - q * 10_000]
        v = q
    return out.view(np.uint8)


def _padded(template: str, values: list) -> np.ndarray:
    """``template % value`` of each value, left-justified in a fixed width
    by the template and padded with spaces, as rows of ASCII bytes."""
    text = (template * len(values) % tuple(values)).encode("ascii")
    return np.frombuffer(text, dtype=np.uint8).reshape(len(values), -1)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two halves of at most 26 bits
    whose sum is exact."""
    t = 134217729.0 * v
    high = t - (t - v)
    return high, v - high


def _g15(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.15g" % v`` of each double v in the 1-d ``x``, as rows of slot
    bytes and the mask of the bytes kept.

    A finite v whose magnitude |v| rounds to a 15-digit decimal exponent in
    [-8, 14] takes the fast path: y = |v|·10**k, with k = 14 - that
    exponent, is one correctly rounded product, as 10**k is exact, and the
    significand that %.15g rounds |v| to is rint(y).  Where y lies halfway
    between two integers, the exact remainder of the product (Dekker's two
    products) says which way |v|·10**k rounds, and an exact tie goes to
    even, as %.15g does.  A zero takes the fast path too.  Every other cell
    (nan, ±inf, a magnitude below 1e-8 or from 1e15 up, and a significand
    that carries to 10**15) is Python's own %.15g.
    """
    pow10, layouts = _layouts()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        e = np.floor(np.log10(a))
        fits = (e >= -8) & (e <= 14)
        k = np.where(fits, 14 - e, 0).astype(np.intp)
        y = a * pow10[k]
        # log10 may round across a power of ten: re-derive k once
        k += (y < 1e14) & (k < 22)
        k -= (y >= 1e15) & (k > 0)
        y = a * pow10[k]
        r = np.rint(y)
        tie = np.flatnonzero(np.abs(y - r) == 0.5)
        if tie.size:
            (a_high, a_low), (p_high, p_low) = _split(a[tie]), _split(pow10[k[tie]])
            rest = (a_high * p_high - y[tie] + a_high * p_low + a_low * p_high) + a_low * p_low
            r[tie] = np.rint(y[tie] + 0.25 * np.sign(rest))
        zero = a == 0.0
        fast = fits & (y >= 1e14) & (r < 1e15) | zero
        k[zero] = 14
        digits = _digits(np.where(fast, r, 0.0).astype(np.int64), 16)[:, 1:]
    kept = 15 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    kept[zero] = 1
    # decimal exponent 14 - k, so layout (22 - k) * 15 + kept - 1
    keep = np.take(layouts, (22 - k) * 15 + kept - 1, axis=0)
    keep[:, _SIGN] = np.signbit(x)
    chars = np.empty(keep.shape, dtype=np.uint8)
    chars[...] = np.frombuffer(_FLOAT_SLOT, dtype=np.uint8)
    chars[:, _INTEGER:_POINT] = digits
    chars[:, _FRACTION:_EXPONENT] = digits
    # the exponent digit -X = k - 14 of d.ddde-0X, masked off elsewhere
    chars[:, -1] = k + (ord("0") - 14)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = _padded(f"%-{len(_FLOAT_SLOT)}.15g", x[slow].tolist())
        chars[slow] = text
        keep[slow] = text != _PAD
    return chars, keep


def _int_slots(column: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``"%d" % n`` of each nonnegative integer n in ``column``, in slots of
    ``width`` bytes (a multiple of 4 for int64), and the mask of the bytes
    kept: int64 digits, or Python's own %d for an object array."""
    if column.dtype.kind == "O":
        text = _padded(f"%-{width}d", column.tolist())
        return text, text != _PAD
    digits = _digits(column.astype(np.int64), width)
    # from the first significant digit on, or the last digit of a 0
    first = np.where(column == 0, width - 1, np.argmax(digits != ord("0"), axis=1))
    return digits, np.arange(width) >= first[:, None]


def _write_csv_rows(cells: Sequence, out) -> None:
    """Write the CSV rows whose columns are ``cells``: each an array along
    the rows or a constant cell.  The bytes are those of :func:`_emit`'s
    CSV, provided no cell needs quoting: a float cell is ``"%.15g"``, an
    integer ``"%d"`` and a constant is formatted once.  A row is a slot per
    column, each followed by its separator, and the kept bytes of
    ``_BLOCK_ROWS`` rows are written at a time."""
    floats = [j for j, c in enumerate(cells) if np.ndim(c) and c.dtype.kind == "f"]
    ints = [j for j, c in enumerate(cells) if np.ndim(c) and j not in floats]
    texts = {j: _csv_value(c).encode("ascii") for j, c in enumerate(cells) if not np.ndim(c)}
    widths = [len(_FLOAT_SLOT)] * len(cells)
    for j in ints:
        if cells[j].dtype.kind == "O":
            widths[j] = max(len("%d" % n) for n in cells[j].tolist())
        else:
            widths[j] = -(-len(str(cells[j].max())) // 4) * 4
    for j, text in texts.items():
        widths[j] = len(text)
    stops = np.cumsum(widths) + np.arange(1, len(cells) + 1)
    slots = [slice(stop - 1 - width, stop - 1) for stop, width in zip(stops.tolist(), widths)]
    row_chars = np.full(stops[-1], _PAD, dtype=np.uint8)
    row_chars[stops - 1] = ord(",")
    row_chars[-1] = ord("\n")
    row_keep = np.zeros(stops[-1], dtype=bool)
    row_keep[stops - 1] = True
    for j, text in texts.items():
        row_chars[slots[j]] = np.frombuffer(text, dtype=np.uint8)
        row_keep[slots[j]] = True
    size = next(len(c) for c in cells if np.ndim(c))
    for start in range(0, size, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, size))
        chars = np.empty((rows.stop - start, stops[-1]), dtype=np.uint8)
        chars[...] = row_chars
        keep = np.empty(chars.shape, dtype=bool)
        keep[...] = row_keep
        if floats:
            block = np.stack([cells[j][rows] for j in floats], axis=1, dtype=float)
            float_chars, float_keep = _g15(block.ravel())
            for i, j in enumerate(floats):
                chars[:, slots[j]] = float_chars[i::len(floats)]
                keep[:, slots[j]] = float_keep[i::len(floats)]
        for j in ints:
            chars[:, slots[j]], keep[:, slots[j]] = _int_slots(cells[j][rows], widths[j])
        out.write(chars[keep].tobytes().decode("ascii"))


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
# The closed/quad/gap columns are the keys of measures.crosscheck.
_TABLES_HEADER = (
    "family", "params", "n", "h_closed", "h_quad", "h_gap", "h_ub",
    "j_closed", "j_quad", "j_gap", "j_ub",
)


def cmd_measure(args, out) -> int:
    dist = dist_mod.from_dict(args.dist)
    # both measures at once: the quadrature takes them from one cell
    cells = measures._both(dist, args.n, *measures._route(args.method, args.tol), args.samples, args.seed)
    h, j = (measures._value(*cell) for cell in cells)
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
    # _emit's CSV bytes, as no cell needs quoting
    out.write(",".join(_CONVERGE_FIELDS) + "\n")
    _write_csv_rows(cells, out)
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
def _parsers() -> tuple[_Parser, dict]:
    """The full parser, and each subcommand's own parser by name."""
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
    return parser, sub.choices


def _parse(argv: list) -> argparse.Namespace:
    """``argv`` parsed by the parser of the subcommand ``argv[0]`` names,
    which reads the rest as the full parser would hand it on, in one parse;
    ``-h``, a missing command or an unknown one go to the full parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    return parser.parse_args(argv) if command is None else command.parse_args(argv[1:])


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.run(args, out)
    except UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, ArithmeticError, QuadratureError) as exc:
        err.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
