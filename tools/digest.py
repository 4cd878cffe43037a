"""The "same bits" corpus: one SHA-256 per group of outcomes, so that a
change that claims to move no value can show it with one command.

    python tools/digest.py                 # one digest per group, this tree
    python tools/digest.py --against REV   # and at git revision REV, with
                                           # each group's first differences

Groups:

- ``quad``: every ``measures._quadrature`` outcome of the catalog and
  ``EDGE_SPECS`` at ``QUAD_N`` x ``QUAD_TOLS`` x "H"/"J"/"HJ", one sweep
  right after ``numerics._index.cache_clear()`` and one more, warm;
- ``unit``: ``numerics.integrate_unit`` on ``UNIT_INTEGRANDS`` at
  ``UNIT_TOLS``, and the points each call evaluates, in order;
- ``closed``: every public closed-route entry point (both measures, both
  bounds reports, ``normalized_bounds``, both normalized measures,
  ``norming_constants``, both upper envelopes) on the catalog and
  ``EDGE_SPECS`` at ``CLOSED_N``, and per member both limit ceilings and
  ``exponential_gap`` over ``CLOSED_N``;
- ``mc``: both measures by ``"mc"`` on the Monte Carlo representatives at
  ``MC_N`` x ``MC_SEEDS``, ``MC_SAMPLES`` samples each;
- ``cli``: the stdout, stderr and exit code of ``tables``, ``figure1``,
  ``verify`` at ``VERIFY_SEEDS``, and, on the catalog at ``TABLE_N``,
  ``measure --method closed|quad|mc`` and ``bounds --method closed|quad``,
  each run in process.

A record names its input and gives a float as ``float.hex``, a result as
its fields' bits (a returned dataclass field by field), and an error as its
type, message and the bits of its ``best`` estimate, if it has one.  Every
group but ``quad`` calls the public API alone, so that a revision whose
private cores differ digests the same way; every n is below 2^53.
``--against REV`` extracts REV from the local repository (``git archive``,
no network) into a temporary directory, runs this same script on that
tree's ``src`` in a child process, removes the directory, and prints each
group's digest on both trees and the first records that differ.  It exits
1 when a group differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

QUAD_N = (1, 2, 5, 10, 50, 1000)
QUAD_TOLS = (1e-6, 1e-8, 1e-10)
UNIT_TOLS = (1e-6, 1e-10)
VERIFY_SEEDS = (0, 1, 7, 451)
# TABLE_N, perfbench's closed_large_n grid, and 10^12
CLOSED_N = tuple(sorted({1, 2, 5, 10, 50, 100, *range(1000, 10_001, 250), 100_000, 1_000_000, 10**12}))
MC_N = (1, 50, 1_000_000)
MC_SEEDS = (0, 5)
MC_SAMPLES = 2000
SHOWN = 5  # differing records printed per group

# Members past the catalog: the gev tolerance frontier, a pareto tail near
# the end of its integrability, a divergent power_function J, and members
# whose I(t) sits near the ends of the doubles.
EDGE_SPECS = (
    ("gev", {"xi": -1.5}),
    ("gev", {"xi": -1.9}),
    ("gev", {"xi": 3.0}),
    ("pareto", {"theta": 1.0, "nu": 0.6}),
    ("power_function", {"theta": 1.0, "nu": 0.3}),
    ("exponential", {"theta": 1e300}),
    ("uniform", {"theta": 1e-300}),
)


def _edges():
    """The points just outside the window, where the tail cells begin."""
    from extremal_info import numerics

    (left,), _ = numerics._logistic_nodes((numerics._U_LEFT,))
    (right,), _ = numerics._logistic_nodes((numerics._U_RIGHT,))
    return left, right


def _unit_integrands():
    """(name, f) of the point integrands: smooth, singular at an end, and
    one for each branch of the tails, failures included."""
    t_left, t_right = _edges()
    return (
        ("t", lambda t: t),
        ("t^2", lambda t: t * t),
        ("ln t", math.log),
        ("ln(1 - t)", lambda t: math.log1p(-t)),
        ("ln(-ln t)", lambda t: math.log(-math.log(t))),
        ("t^-0.5", lambda t: t**-0.5),
        ("(1 - t)^-0.9", lambda t: (1.0 - t) ** -0.9),
        ("zero tails", lambda t: 0.0 if t < t_left or t > t_right else 1.0),
        ("guarded tail", lambda t: math.cos(1.0 / (1.0 - t)) if t > t_right else 1.0),
        ("1/t", lambda t: 1.0 / t),
        ("nan right cell", lambda t: math.nan if t > t_right else 1.0),
        ("nan seed", lambda t: math.nan if t > 0.5 else 1.0),
        ("nan left cell", lambda t: math.nan if t < t_left else 1.0),
        ("nan right cell, 1/t", lambda t: math.nan if t > t_right else 1.0 / t),
    )


def _bits(value) -> str:
    """A result's fields, or a float, as bits."""
    if isinstance(value, float):
        return value.hex()
    return f"{value.value.hex()} {value.error_estimate.hex()} {value.evaluations}"


def _fields(value) -> str:
    """A returned value as bits: a float as ``float.hex``, a dataclass field
    by field, a tuple element by element, anything else by its repr."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return "{" + " ".join(f"{f.name}={_fields(getattr(value, f.name))}" for f in dataclasses.fields(value)) + "}"
    if isinstance(value, tuple):
        return "(" + " ".join(map(_fields, value)) + ")"
    return repr(value)


def _outcome(call, bits=_bits) -> str:
    """The ``bits`` of what ``call()`` returns, or of the error it raises."""
    try:
        result = call()
    except Exception as exc:  # every error is a record
        best = getattr(exc, "best", None)
        return f"{type(exc).__name__}: {exc}" + ("" if best is None else f" | best {_bits(best)}")
    if isinstance(result, list):
        return " ; ".join(map(bits, result))
    return bits(result)


def _members():
    """The catalog, then ``EDGE_SPECS``."""
    from extremal_info import canonical, distributions

    return [
        *canonical.catalog_members(),
        *(distributions.from_dict({"family": family, **params}) for family, params in EDGE_SPECS),
    ]


def quad_records() -> list[str]:
    from extremal_info import measures, numerics

    cells = [
        (member, n, tol, which)
        for member in _members()
        for n in QUAD_N
        for tol in QUAD_TOLS
        for which in ("H", "J", "HJ")
    ]
    numerics._index.cache_clear()
    records = []
    for sweep in ("cleared", "warm"):
        for member, n, tol, which in cells:
            outcome = _outcome(lambda: measures._quadrature(member, n, which, tol))
            records.append(f"{sweep} {member.label()} n={n} tol={tol!r} {which}: {outcome}")
    return records


def closed_records() -> list[str]:
    from extremal_info import bounds, evt, measures

    per_n = (
        measures.shannon_max,
        measures.extropy_max,
        bounds.shannon_bounds,
        bounds.extropy_bounds,
        bounds.normalized_bounds,
        measures.shannon_normalized,
        measures.extropy_normalized,
        evt.norming_constants,
        bounds.shannon_upper_envelope,
        bounds.extropy_upper_envelope,
    )
    records = []
    for member in _members():
        label = member.label()
        for entry in (bounds.shannon_limit_upper, bounds.extropy_limit_upper):
            records.append(f"{label} {entry.__name__}: {_outcome(lambda: entry(member), _fields)}")
        gap = _outcome(lambda: bounds.exponential_gap(member, CLOSED_N), _fields)
        records.append(f"{label} exponential_gap: {gap}")
        for n in CLOSED_N:
            for entry in per_n:
                records.append(f"{label} n={n} {entry.__name__}: {_outcome(lambda: entry(member, n), _fields)}")
    return records


def mc_records() -> list[str]:
    from extremal_info import canonical, measures

    records = []
    for member in canonical.mc_representatives():
        for n in MC_N:
            for seed in MC_SEEDS:
                for entry in (measures.shannon_max, measures.extropy_max):
                    outcome = _outcome(lambda: entry(member, n, "mc", samples=MC_SAMPLES, seed=seed), _fields)
                    records.append(f"{member.label()} n={n} seed={seed} {entry.__name__}: {outcome}")
    return records


def unit_records() -> list[str]:
    from extremal_info import numerics

    records = []
    for name, f in _unit_integrands():
        for tol in UNIT_TOLS:
            points = []

            def traced(t, f=f):
                points.append(t.hex())
                return f(t)

            outcome = _outcome(lambda: numerics.integrate_unit(traced, tol))
            calls = hashlib.sha256(",".join(points).encode()).hexdigest()
            records.append(f"{name} tol={tol!r}: {outcome} | {len(points)} calls {calls}")
    return records


def _cli(argv: list[str]) -> str:
    from extremal_info import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return f"{' '.join(argv)}: exit {code}\n{out.getvalue()}{err.getvalue()}"


def cli_records() -> list[str]:
    from extremal_info import canonical, distributions

    argvs = [["tables"], ["figure1"]]
    argvs += [["verify", "--seed", str(seed)] for seed in VERIFY_SEEDS]
    for member in canonical.catalog_members():
        spec = json.dumps(distributions.to_dict(member), sort_keys=True)
        for n in canonical.TABLE_N:
            cell = ["--dist", spec, "--n", str(n), "--format", "json"]
            argvs += [["measure", *cell, "--method", method] for method in ("closed", "quad")]
            argvs.append(["measure", *cell, "--method", "mc", "--samples", str(MC_SAMPLES)])
            argvs += [["bounds", *cell, "--method", method] for method in ("closed", "quad")]
    return [_cli(argv) for argv in argvs]


GROUPS = {
    "quad": quad_records,
    "unit": unit_records,
    "closed": closed_records,
    "mc": mc_records,
    "cli": cli_records,
}


def digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def _records_at(rev: str, names: list[str]) -> dict[str, list[str]]:
    """The records of the groups ``names`` on the tree of ``rev``, from a
    child process."""
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
            check=True,
            capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        child = subprocess.run(
            [sys.executable, __file__, "--json", "--src", str(Path(tmp) / "src"), *(f"--group={g}" for g in names)],
            check=True,
            capture_output=True,
            text=True,
        )
    return json.loads(child.stdout)


def _differences(mine: list[str], theirs: list[str]) -> list[str]:
    """The first ``SHOWN`` records that differ, as pairs of lines."""
    shown = []
    for k in range(max(len(mine), len(theirs))):
        a = mine[k] if k < len(mine) else "<none>"
        b = theirs[k] if k < len(theirs) else "<none>"
        if a != b:
            shown.append(f"  [{k}] this tree: {a}\n  [{k}] against:   {b}")
            if len(shown) == SHOWN:
                break
    return shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also digest git revision REV and compare")
    parser.add_argument("--group", choices=sorted(GROUPS), action="append", help="only these groups")
    parser.add_argument("--json", action="store_true", help="print every record as JSON")
    parser.add_argument("--src", default=str(REPO / "src"), help="the package tree to digest")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    names = args.group or list(GROUPS)
    records = {name: GROUPS[name]() for name in names}
    if args.json:
        json.dump(records, sys.stdout)
        return 0
    theirs = _records_at(args.against, names) if args.against else {}
    differ = False
    for name in names:
        line = f"{name:6s} {len(records[name]):6d} records  {digest(records[name])}"
        if not args.against:
            print(line)
            continue
        other = theirs[name]
        same = other == records[name]
        differ |= not same
        print(f"{line}  {args.against}: {digest(other)}  {'equal' if same else 'DIFFER'}")
        for text in [] if same else _differences(records[name], other):
            print(text)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
