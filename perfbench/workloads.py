"""The benchmark's workloads: lists of timed calls into extremal_info, each
with an untimed check against the closed forms or a golden output.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  One *pass* runs every op of the workload once;
the runner repeats whole passes, so per-pass counts never depend on timing.
The workload seed drives the Monte Carlo seeds and the ``verify`` seed and
nothing else; the same seed gives the same ops.

Failure rules (one op, one verdict):

- an op fails when it raises while the closed form is finite;
- a quadrature result fails when it misses the closed form by more than
  ``QUAD_GAP`` (the ``verify`` tolerance) or by more than its own
  ``error_estimate``;
- a Monte Carlo result fails when it misses the closed form by more than
  ``MC_SIGMAS`` standard errors;
- a CLI op fails when its exit code or stdout differs from the golden.

A quadrature op that returns with ``error_estimate`` above the requested
tolerance, without raising, is counted as *tol-unmet*, failed or not.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from extremal_info import bounds, canonical, cli, distributions, evt, measures

GOLDEN = Path(__file__).resolve().parent / "golden"

QUAD_TOL = 1e-10  # the CLI's and the library's default --tol
QUAD_GAP = 1e-8  # verify's closed-vs-quadrature tolerance
MC_SIGMAS = 4.0
MC_SAMPLES = 1_000_000
# n = 1 is outside the logistic norming constants' domain (cli exits 2).
CONVERGE_GRID = "2:5000:1"
VERIFY_OK = "10 passed, 0 failed"

# closed_large_n: dense where the exact harmonic sum is most expensive
# (10^3 - 10^4), then out to 10^6 where the digamma branch takes over.
CLOSED_N_GRID = (2, 10, 100, *range(1000, 10_001, 250), 100_000, 1_000_000)
MC_N = (1, 50, 10_000, 1_000_000)
FRONTIER_N = (1_000, 10_000, 100_000)
FRONTIER_GEV_XIS = (-1.2, -1.5, -1.9)

@dataclass
class Outcome:
    """Verdict on one op."""

    failed: bool = False
    detail: str = ""
    quad: bool = False  # a quadrature result subject to the tolerance checks
    tol_unmet: bool = False
    gap: float | None = None  # |quadrature - closed| when the op succeeded


@dataclass
class Op:
    kind: str
    call: Callable[[], object]  # timed
    check: Callable[[object, BaseException | None], Outcome]  # untimed
    mc_samples: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    reference: str  # the gauge's reference task (gauge.REFERENCES)
    warmup: list[Op] = field(default_factory=list)

    @property
    def mc_samples_per_pass(self) -> int:
        return sum(op.mc_samples for op in self.ops)


# ---------------------------------------------------------------------------
# Members and seeds
# ---------------------------------------------------------------------------


def gumbel_members():
    return tuple(m for m in canonical.catalog_members() if evt.mda_classify(m)[0] == "gumbel")


def heavy_members():
    return tuple(m for m in canonical.catalog_members() if evt.mda_classify(m)[0] == "frechet")


def converge_argv(member) -> list[str]:
    return ["converge", "--dist", _dist_json(member), "--n-grid", CONVERGE_GRID]


def _dist_json(member) -> str:
    return json.dumps(distributions.to_dict(member), sort_keys=True)


def op_seeds(seed: int, count: int) -> list[int]:
    """Per-op integer seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.main(argv, out=out, err=io.StringIO())
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _raised(exc: BaseException, closed: float, quad: bool, label: str) -> Outcome:
    return Outcome(math.isfinite(closed), f"{label} raised {type(exc).__name__}: {exc}", quad)


def _quad_outcome(value: float, error: float, closed: float, label: str) -> Outcome:
    gap = abs(value - closed)
    tol_unmet = not (error <= QUAD_TOL)
    if not math.isfinite(gap) or gap > QUAD_GAP or gap > error:
        return Outcome(True, f"{label}: gap {gap:.3g} vs error_estimate {error:.3g}", True, tol_unmet)
    return Outcome(False, "", True, tol_unmet, gap)


def _merge(a: Outcome, b: Outcome) -> Outcome:
    """One verdict for the H and J results of one quadrature op."""
    gap = None if a.gap is None or b.gap is None else max(a.gap, b.gap)
    detail = "; ".join(o.detail for o in (a, b) if o.failed)
    return Outcome(a.failed or b.failed, detail, True, a.tol_unmet or b.tol_unmet, gap)


def _golden_check(want: str, label: str, digest: bool = False):
    """Exit code 0 and stdout equal to ``want`` (or its SHA-256, with ``digest``)."""

    def check(result, exc):
        if exc is not None:
            return Outcome(True, f"{label} raised {type(exc).__name__}: {exc}")
        code, text = result
        if code != 0:
            return Outcome(True, f"{label} exited {code}")
        if (hashlib.sha256(text.encode()).hexdigest() if digest else text) != want:
            return Outcome(True, f"{label} stdout differs from golden")
        return Outcome()

    return check


# ---------------------------------------------------------------------------
# paper_tables
# ---------------------------------------------------------------------------


def paper_tables(seed: int, tiny: bool = False) -> Workload:
    members = canonical.catalog_members()
    cells = [(m, n) for m in members for n in canonical.TABLE_N]
    if tiny:
        cells = cells[::50]
    verify_seed = op_seeds(seed, 1)[0]
    tables_golden = (GOLDEN / "tables.csv").read_text()

    def verify_check(result, exc):
        if exc is not None:
            return Outcome(True, f"verify raised {type(exc).__name__}: {exc}")
        code, text = result
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        if code != 0 or last != VERIFY_OK:
            return Outcome(True, f"verify exited {code}: {last!r}")
        return Outcome()

    ops = [
        Op("tables", lambda: run_cli(["tables"]), _golden_check(tables_golden, "tables")),
        Op("verify", lambda: run_cli(["verify", "--seed", str(verify_seed)]), verify_check),
    ]
    ops += [_measure_quad_op(m, n) for m, n in cells]
    return Workload("paper_tables", ops, "scalar_numpy", warmup=[_measure_quad_op(members[0], 2)])


def _measure_quad_op(member, n: int) -> Op:
    argv = ["measure", "--dist", _dist_json(member), "--n", str(n), "--method", "quad", "--format", "json"]
    h_closed = measures.shannon_max(member, n).value
    j_closed = measures.extropy_max(member, n).value
    label = f"measure quad {member.label()} n={n}"

    def check(result, exc):
        if exc is not None:
            return _raised(exc, h_closed, True, label)
        code, text = result
        if code != 0:
            return Outcome(True, f"{label} exited {code}", quad=True)
        row = json.loads(text)[0]
        err = float(row["error_estimate"])
        h = _quad_outcome(float(row["H"]), err, h_closed, label + " H")
        j = _quad_outcome(float(row["J"]), err, j_closed, label + " J")
        return _merge(h, j)

    return Op("measure_quad", lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# closed_large_n
# ---------------------------------------------------------------------------


def closed_large_n(seed: int, tiny: bool = False) -> Workload:
    members = canonical.catalog_members()
    grid = CLOSED_N_GRID
    if tiny:
        members, grid = members[::10], (2, 1000, 1_000_000)
    ops = [_closed_op(m, n) for m in members for n in grid]
    figure1 = (GOLDEN / "figure1.csv").read_text()
    ops.append(Op("figure1", lambda: run_cli(["figure1"]), _golden_check(figure1, "figure1")))
    if not tiny:
        digests = json.loads((GOLDEN / "converge.json").read_text())["sha256"]
        for m in gumbel_members():
            argv = converge_argv(m)
            ops.append(
                Op(
                    "converge",
                    lambda argv=argv: run_cli(argv),
                    _golden_check(digests[m.label()], f"converge {m.label()}", digest=True),
                )
            )
    warmup = [_closed_op(m, 10) for m in members]
    return Workload("closed_large_n", ops, "python_floats", warmup=warmup)


def _closed_op(member, n: int) -> Op:
    label = f"closed {member.label()} n={n}"

    def call():
        return (
            measures.shannon_max(member, n),
            measures.extropy_max(member, n),
            bounds.shannon_bounds(member, n),
            bounds.extropy_bounds(member, n),
            measures.shannon_normalized(member, n),
            measures.extropy_normalized(member, n),
            evt.norming_constants(member, n),
        )

    def check(result, exc):
        if exc is not None:
            return Outcome(True, f"{label} raised {type(exc).__name__}: {exc}")
        h, j, sb, eb, hn, jn, nc = result
        problems = []
        if not (math.isfinite(h.value) and math.isfinite(j.value)):
            problems.append("non-finite closed form")
        if sb.value != h.value or eb.value != j.value:
            problems.append("bounds report a different value")
        for tag, report in (("shannon", sb), ("extropy", eb)):
            if report.applicable and not (report.lower_holds and report.upper_holds):
                problems.append(f"{tag} bounds violated")
        if not _close(hn.value, h.value - math.log(nc.a_n)):
            problems.append("H normalized != H - ln a_n")
        if not _close(jn.value, nc.a_n * j.value):
            problems.append("J normalized != a_n J")
        return Outcome(bool(problems), f"{label}: {'; '.join(problems)}" if problems else "")

    return Op("closed", call, check)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# mc_bulk
# ---------------------------------------------------------------------------


def mc_bulk(seed: int, tiny: bool = False) -> Workload:
    members = canonical.mc_representatives()
    ns, samples = MC_N, MC_SAMPLES
    if tiny:
        members, ns, samples = members[::3], (1, 50), 10_000
    cells = [(m, n, measure) for m in members for n in ns for measure in ("H", "J")]
    seeds = op_seeds(seed, len(cells))
    ops = [_mc_op(m, n, measure, samples, s) for (m, n, measure), s in zip(cells, seeds)]
    return Workload("mc_bulk", ops, "python_floats", warmup=[_mc_op(members[0], 50, "H", samples, 0)])


def _mc_op(member, n: int, measure: str, samples: int, seed: int) -> Op:
    fn = measures.shannon_max if measure == "H" else measures.extropy_max
    closed = fn(member, n).value
    label = f"mc {measure} {member.label()} n={n} seed={seed}"

    def check(result, exc):
        if exc is not None:
            return _raised(exc, closed, False, label)
        miss = abs(result.value - closed)
        if not (miss <= MC_SIGMAS * result.error_estimate):
            return Outcome(True, f"{label}: off by {miss:.3g} (se {result.error_estimate:.3g})")
        return Outcome()

    return Op("mc", lambda: fn(member, n, "mc", samples=samples, seed=seed), check, samples)


# ---------------------------------------------------------------------------
# quad_frontier
# ---------------------------------------------------------------------------


def quad_frontier(seed: int, tiny: bool = False) -> Workload:
    members = gumbel_members() + heavy_members()
    ns = FRONTIER_N
    cells = [(m, n, meas) for m in members for n in ns for meas in ("H", "J")]
    cells += [(m, 1_000_000, "J") for m in members]
    cells += [(distributions.gev(xi), 1, "J") for xi in FRONTIER_GEV_XIS]
    cells += [(distributions.exponential(1.0), 1_000_000, "H")]
    if tiny:
        cells = cells[:2]
    ops = [_quad_op(m, n, meas) for m, n, meas in cells]
    return Workload("quad_frontier", ops, "scalar_numpy", warmup=[_quad_op(members[0], 10, "H")])


def _quad_op(member, n: int, measure: str) -> Op:
    fn = measures.shannon_max if measure == "H" else measures.extropy_max
    closed = fn(member, n).value
    label = f"quad {measure} {member.label()} n={n}"

    def check(result, exc):
        if exc is not None:
            return _raised(exc, closed, True, label)
        return _quad_outcome(result.value, result.error_estimate, closed, label)

    return Op("quad", lambda: fn(member, n, "quadrature", quad_tol=QUAD_TOL), check)


BUILDERS = {
    "paper_tables": paper_tables,
    "closed_large_n": closed_large_n,
    "mc_bulk": mc_bulk,
    "quad_frontier": quad_frontier,
}
WORKLOADS = tuple(BUILDERS)
