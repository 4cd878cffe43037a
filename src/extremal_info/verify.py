"""Release contracts, and the built-in invariant suite behind ``extremal-info verify``.

Each contract the paper's claims rest on is defined once here, as a check
function that takes the members and the n it should run on and returns its
failure messages (``[]`` when the contract holds), at the release
tolerances: closed forms match quadrature, log-concavity verdicts match
grid checks, the finite-n bounds order the measures, heavy tails pierce the
entropy ceiling, the exponential law alone attains the limiting ceilings,
normalized maxima reach the GEV(xi) targets of their own xi, Monte Carlo
estimates agree with the closed forms, and one series identity.

``run_all`` runs the contracts on a smoke grid, next to groups that check
the installation only (quadrature oracle, distribution consistency, CLI
determinism).  It is deterministic.  On a 2-CPU Intel Xeon, ``run_all``
takes about 0.4 s of CPU on its first call in a process, most of it
importing ``scipy.special``, and 0.025-0.04 s after that (its Monte Carlo
group about 2.5 ms), and ``extremal-info verify`` about 0.45 s with
interpreter start-up.
``tests/test_acceptance.py`` runs the same contracts on the release grid.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import partial, wraps

import numpy as np

from . import bounds as bounds_mod
from . import canonical
from . import cli
from . import distributions as dist_mod
from . import evt
from . import measures
from . import numerics
from . import special

__all__ = [
    "GroupResult",
    "bound_orderings",
    "closed_vs_quadrature",
    "exponential_attainment",
    "log_concavity",
    "mc_agreement",
    "normalized_limits",
    "pareto_ceiling",
    "run_all",
    "series_tail",
]


@dataclass(frozen=True)
class GroupResult:
    """Outcome of one invariant group."""

    name: str
    passed: bool
    detail: str = ""


def _contract(check):
    """Turn a generator of failure messages into a function returning them as a list."""

    @wraps(check)
    def run(*args, **kwargs) -> list[str]:
        return list(check(*args, **kwargs))

    return run


# ---------------------------------------------------------------------------
# Release contracts
# ---------------------------------------------------------------------------


# Each route's measure, in the order a quadrature cell takes them.
_CELL_MEASURES = {"shannon_max": "H", "extropy_max": "J"}


@_contract
def closed_vs_quadrature(
    members, ns, quad_tol=numerics.DEFAULT_QUAD_TOL, routes=("shannon_max", "extropy_max")
):
    """The closed form and quadrature agree within 1e-8 for each route, named
    by its function in :mod:`measures`; the quadratures of a (member, n) cell
    come from one pass, H first."""
    quad_tol = special._check_real(quad_tol, "quad_tol")
    routes = sorted(routes, key=list(_CELL_MEASURES).index)
    cell = "".join(map(_CELL_MEASURES.get, routes))
    for member in members:
        for n in ns:
            n = special._check_index(n, routes[0])
            closed_forms = measures._measures(member, n, cell, "closed_form", quad_tol)
            quads = measures._measures(member, n, cell, "quadrature", quad_tol)
            for name, (closed, _, _), (quad, _, _) in zip(routes, closed_forms, quads):
                if not (quad == closed or abs(quad - closed) <= 1e-8):
                    yield f"{member.label()} n={n}: {name} closed form {closed!r} vs quadrature {quad!r}"


# Quantile levels of the ln f grid and the t grid of the profile check.
_LOG_PDF_LEVELS = np.linspace(0.005, 0.995, 301)
_PROFILE_GRID = np.linspace(0.001, 0.999, 301)


@_contract
def log_concavity(members):
    """``is_log_concave`` agrees with a second-difference check of ln f on a
    quantile grid (slack 1e-9), and log-concave members have a concave
    density-quantile profile."""
    for member in members:
        verdict = dist_mod.is_log_concave(member)
        xs = dist_mod.quantile(member, _LOG_PDF_LEVELS)
        report = numerics.grid_concavity_check(partial(dist_mod.log_pdf, member), xs)
        if report.concave != verdict:
            yield f"{member.label()}: grid says concave={report.concave}, verdict={verdict}"
        if verdict:
            profile = numerics.grid_concavity_check(partial(dist_mod.density_quantile, member), _PROFILE_GRID)
            if not profile.concave:
                yield f"{member.label()}: density-quantile profile not concave on grid"


@_contract
def bound_orderings(members, ns):
    """For log-concave members both bounds reports apply and hold, with the
    envelopes bracketing the measure up to 1e-12; the entropy lower envelope
    is held to this only when sup f <= 1, that is when the entropy report
    gates nothing out."""
    for member in members:
        for n in ns:
            h = bounds_mod.shannon_bounds(member, n)
            h_ok = h.applicable and h.upper_holds and h.value <= h.upper + 1e-12
            if not h.gate_note:
                h_ok = h_ok and h.lower_holds and h.lower <= h.value + 1e-12
            j = bounds_mod.extropy_bounds(member, n)
            j_ok = j.applicable and j.lower_holds and j.upper_holds
            j_ok = j_ok and j.lower - 1e-12 <= j.value <= j.upper + 1e-12
            for name, ok, r in (("entropy", h_ok, h), ("extropy", j_ok, j)):
                if not ok:
                    yield (
                        f"{member.label()} n={n}: {name} ordering violated: "
                        f"{r.lower!r} <= {r.value!r} <= {r.upper!r}, applicable={r.applicable}"
                    )


@_contract
def pareto_ceiling(members, ns):
    """The entropy of the maximum lies above the limiting entropy ceiling."""
    for member in members:
        ceiling = bounds_mod.shannon_limit_upper(member)
        for n in ns:
            value = measures.shannon_max(member, n).value
            if not value > ceiling:
                yield f"{member.label()} n={n}: entropy {value!r} not above the ceiling {ceiling!r}"


@_contract
def exponential_attainment(members, ns):
    """At the largest n of ``ns`` the worst ceiling gap is below 1e-4 for
    exponential members, and above 0.05 or infinite for every other one."""
    for member in members:
        study = bounds_mod.exponential_gap(member, ns)
        last = study.records[-1]
        worst = max(abs(last.shannon_gap), abs(last.extropy_gap))
        if member.family == "exponential":
            ok = study.attaining
        else:
            ok = not study.attaining and (worst > 0.05 or math.isinf(worst))
        if not ok:
            yield f"{member.label()}: attaining={study.attaining}, gap {worst:g} at n={last.n}"


@_contract
def normalized_limits(members, ns, tol):
    """Normalized entropy and extropy lie within ``tol`` (strictly) of the
    GEV(xi) targets of the member's own xi at every n of ``ns``: 1 + gamma
    and -1/8 for the Gumbel domain."""
    for member in members:
        h_target, j_target = evt.limiting_targets(evt.mda_classify(member)[1])
        for n in ns:
            h_gap = abs(measures.shannon_normalized(member, n).value - h_target)
            j_gap = abs(measures.extropy_normalized(member, n).value - j_target)
            if not (h_gap < tol and j_gap < tol):
                yield f"{member.label()} n={n}: normalized gaps {h_gap:g}, {j_gap:g}"


@_contract
def mc_agreement(members, ns, seeds, *, samples, sigmas, need):
    """For each member, n and measure, at least ``need`` of the ``seeds`` give
    a Monte Carlo estimate from ``samples`` draws within ``sigmas`` standard
    errors of the closed form.  Each seed's draw serves every member and n,
    and gives both measures' estimates, with the bits of ``mc_entropy_max``
    and ``mc_extropy_max``."""
    members, ns, seeds = tuple(members), tuple(ns), tuple(seeds)
    sweep = numerics._mc_sweep(members, ns, seeds, samples, "mc_agreement")
    for member, by_n in zip(members, sweep):
        for n, pairs in zip(ns, by_n):
            for name, estimates, closed in (
                ("entropy", [h for h, _ in pairs], measures.shannon_max),
                ("extropy", [j for _, j in pairs], measures.extropy_max),
            ):
                value = closed(member, n).value
                misses = []
                for seed, est in zip(seeds, estimates):
                    off = abs(est.estimate - value)
                    if not off <= sigmas * est.std_error:
                        misses.append(f"off by {off:g} (se {est.std_error:g}) at seed {seed}")
                if len(seeds) - len(misses) < need:
                    yield (
                        f"{member.label()} n={n}: MC {name} {misses[0]}, "
                        f"{len(misses)} of {len(seeds)} seeds past {sigmas:g} se"
                    )


@_contract
def series_tail(ns):
    """The half-geometric series misses ln 2 by at most 2^-n."""
    for n in ns:
        gap = abs(math.log(2.0) - special.half_geometric_sum(n))
        if not gap <= 2.0**-n:
            yield f"half_geometric_sum({n}) gap {gap:g} > 2^-{n}"


# ---------------------------------------------------------------------------
# Groups that only verify has; each yields its failure messages
# ---------------------------------------------------------------------------


def _special_identities():
    if special.harmonic(1) != 1.0:
        yield "harmonic(1) != 1"
    if not abs(special.harmonic(4) - 25.0 / 12.0) < 1e-15:
        yield "harmonic(4) != 25/12"
    # numpy's pairwise sum of 1/k: independent of the digamma branch, and
    # within about 2e-14 of the exact sum
    direct = float(np.sum(1.0 / np.arange(1, 20001)))
    if not abs(special.harmonic(20000) - direct) < 1e-12:
        yield "harmonic(20000) disagrees with direct summation"
    yield from series_tail((1, 2, 5, 10, 20, 40, 60))
    if not abs(special.beta_function(2, 3) - 1.0 / 12.0) < 1e-15:
        yield "beta_function(2,3) != 1/12"
    checks = [
        (special.log_power_integral("power_log", n=7), -1.0 / 49.0),
        (special.log_power_integral("lower_half_log", n=3), -(math.log(2.0) + 1.0 / 3.0) / 8.0),
        (special.log_power_integral("power_loglog", n=1), -special.EULER_GAMMA),
        (special.log_power_integral("power_logpow", nu=2.0, mu=3.0), 0.25),
    ]
    for got, want in checks:
        if not abs(got - want) < 1e-14:
            yield f"log_power_integral: {got!r} != {want!r}"


def _quadrature_oracle(quad_tol: float):
    cases = [
        (lambda t: 1.0, 1.0, "constant"),
        (math.log, -1.0, "ln t"),
        (lambda t: t**-0.5, 2.0, "t^-1/2"),
        (lambda t: math.log1p(-t), -1.0, "ln(1-t)"),
        (lambda t: math.log(-math.log(t)), -special.EULER_GAMMA, "ln(-ln t)"),
    ]
    for f, truth, label in cases:
        res = numerics.integrate_unit(f, abs_tol=quad_tol)
        err = abs(res.value - truth)
        if not err <= max(1e-10, res.error_estimate):
            yield f"integral of {label}: error {err:g} above estimate {res.error_estimate:g}"


def _distribution_consistency(catalog):
    ts = np.linspace(0.02, 0.98, 21)
    for member in catalog:
        label = member.label()
        x = dist_mod.quantile(member, ts)
        round_trip = np.max(np.abs(dist_mod.cdf(member, x) - ts))
        if not round_trip < 1e-10:
            yield f"{label}: cdf(quantile) gap {round_trip:g}"
        comp = np.max(
            np.abs(
                dist_mod.density_quantile(member, dist_mod.cdf(member, x))
                - dist_mod.pdf(member, x)
            )
        )
        if not comp < 1e-10:
            yield f"{label}: composition gap {comp:g}"
        if dist_mod.from_dict(dist_mod.to_dict(member)) != member:
            yield f"{label}: JSON round trip failed"
    unit_power = dist_mod.power_function(1.0, 1.0)
    unit_uniform = dist_mod.uniform(1.0)
    xs = np.linspace(0.01, 0.99, 25)
    agree = max(
        float(np.max(np.abs(dist_mod.pdf(unit_power, xs) - dist_mod.pdf(unit_uniform, xs)))),
        float(np.max(np.abs(dist_mod.cdf(unit_power, xs) - dist_mod.cdf(unit_uniform, xs)))),
        float(
            np.max(
                np.abs(
                    dist_mod.density_quantile(unit_power, ts)
                    - dist_mod.density_quantile(unit_uniform, ts)
                )
            )
        ),
    )
    if not agree < 1e-12:
        yield f"power(1,1) vs uniform(0,1) disagree by {agree:g}"


def _bound_orderings(catalog):
    log_concave = [m for m in catalog if dist_mod.is_log_concave(m)]
    yield from bound_orderings(log_concave, (1, 2, 10, 50, 200))
    yield from pareto_ceiling([dist_mod.pareto(1.0, 2.0)], (100, 200))


def _normalized_limits():
    n = (1_000_000,)
    yield from normalized_limits([dist_mod.exponential(th) for th in canonical.CANONICAL_THETAS], n, 1e-5)
    # a reversed-Weibull and a Frechet member
    yield from normalized_limits((dist_mod.uniform(1.0), dist_mod.pareto(1.0, 2.0)), n, 1e-4)
    g0 = dist_mod.gev(0.0)
    for k in (1, 2, 10, 1000):
        if measures.shannon_normalized(g0, k).value != 1.0 + special.EULER_GAMMA:
            yield f"gev(0) self-test: H at n={k}"
        if measures.extropy_normalized(g0, k).value != -0.125:
            yield f"gev(0) self-test: J at n={k}"
    # max-stable: the normalized maximum is the member itself at every n
    yield from normalized_limits((dist_mod.gev(-0.5), dist_mod.gev(0.5)), (2, 50), 1e-12)


def _mc_agreement(seed: int):
    # One seed at 4 standard errors: of seeds 0-2999 only 451 fails (both
    # logistic(1) extropy checks, at 4.6 and 4.0 SE), with the draws taken
    # in log space.  The acceptance suite runs the release grid: 20 seeds
    # at 3 standard errors, 19 to agree.
    yield from mc_agreement(
        canonical.mc_representatives(), (1, 5), (seed,), samples=20_000, sigmas=4.0, need=1
    )


def _cli_determinism():
    def run(*argv) -> tuple[int, str]:
        out = io.StringIO()
        code = cli.main(list(argv), out=out, err=io.StringIO())
        return code, out.getvalue()

    mc_args = ("measure", "--dist", '{"family":"exponential","theta":1}', "--n", "5",
               "--method", "mc", "--samples", "1000", "--seed", "42")
    for name, argv in (("figure1", ("figure1",)), ("seeded measure", mc_args)):
        (code1, text1), (code2, text2) = run(*argv), run(*argv)
        if code1 != 0 or code2 != 0:
            yield f"{name} exited nonzero"
        if text1 != text2:
            yield f"{name} output not byte-identical across runs"

    code, text = run("measure", "--dist", '{"family":"gev","xi":0}', "--n", "1", "--format", "json")
    if code != 0:
        yield "json measure exited nonzero"
    try:
        payload = json.loads(text)
        ok = (
            isinstance(payload, list)
            and abs(payload[0]["H"] - (1.0 + special.EULER_GAMMA)) < 1e-12
            and abs(payload[0]["J"] + 0.125) < 1e-12
        )
    except Exception:
        ok = False
    if not ok:
        yield "json measure payload malformed"


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def _group(name, fn) -> GroupResult:
    try:
        failures = list(fn())
    except Exception as exc:  # a crash is a failure, not an abort
        return GroupResult(name, False, f"raised {type(exc).__name__}: {exc}")
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... ({len(failures)} failures)"
        return GroupResult(name, False, shown)
    return GroupResult(name, True)


def run_all(quad_tol: float = numerics.DEFAULT_QUAD_TOL, seed: int = numerics.DEFAULT_SEED) -> list[GroupResult]:
    """Run every group on the smoke grid, with quadrature tolerance
    ``quad_tol`` and Monte Carlo seed ``seed``, and return their results in order."""
    catalog = canonical.catalog_members()
    extras = (dist_mod.gev(-0.9), dist_mod.gev(0.3), dist_mod.power_function(1.0, 0.5))
    groups = (
        ("special identities", _special_identities),
        ("quadrature oracle", partial(_quadrature_oracle, quad_tol)),
        ("distribution consistency", partial(_distribution_consistency, catalog)),
        ("log-concavity verdicts", partial(log_concavity, catalog + extras)),
        ("closed form vs quadrature", partial(closed_vs_quadrature, catalog, (1, 5, 50), quad_tol)),
        ("bound orderings", partial(_bound_orderings, catalog)),
        ("ceiling characterization", partial(exponential_attainment, catalog, (10, 1000, 1_000_000))),
        ("normalized limits", _normalized_limits),
        ("monte carlo agreement", partial(_mc_agreement, seed)),
        ("cli determinism", _cli_determinism),
    )
    return [_group(name, fn) for name, fn in groups]
