"""Release contracts, and the built-in invariant suite behind ``extremal-info verify``.

Each contract the paper's claims rest on is defined once here, as a check
function that takes the members and the n it should run on and returns its
failure messages (``[]`` when the contract holds), at the release
tolerances: closed forms match quadrature, log-concavity verdicts match
grid checks, the finite-n bounds order the measures, heavy tails pierce the
entropy ceiling, the exponential law alone attains the limiting ceilings,
normalized exponential maxima reach the Gumbel targets, and two series
identities.

``run_all`` runs the contracts on a smoke grid, next to groups that check
the installation only (quadrature oracle, distribution consistency, a
one-seed Monte Carlo check, CLI determinism).  It is deterministic.  On a
2-CPU Intel Xeon, ``run_all`` takes about 0.3 s of CPU on its first call
in a process, most of it importing ``scipy.special``, and 0.04 s after
that, and ``extremal-info verify`` about 0.6 s with interpreter start-up.
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
    "beta_log_moment",
    "bound_orderings",
    "closed_vs_quadrature",
    "exponential_attainment",
    "log_concavity",
    "normalized_exponential",
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


@_contract
def closed_vs_quadrature(
    members, ns, quad_tol=numerics.DEFAULT_QUAD_TOL, routes=("shannon_max", "extropy_max")
):
    """The closed form and quadrature agree within 1e-8 for each route, named
    by its function in :mod:`measures`."""
    for member in members:
        for n in ns:
            for name in routes:
                route = getattr(measures, name)
                closed = route(member, n).value
                quad = route(member, n, "quadrature", quad_tol=quad_tol).value
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
    is held to this only when sup f <= 1."""
    for member in members:
        gate_open = dist_mod.sup_density(member) <= 1.0
        for n in ns:
            h = bounds_mod.shannon_bounds(member, n)
            h_ok = h.applicable and h.upper_holds and h.value <= h.upper + 1e-12
            if gate_open:
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
            ok = study.attaining and worst < 1e-4
        else:
            ok = not study.attaining and (worst > 0.05 or math.isinf(worst))
        if not ok:
            yield f"{member.label()}: attaining={study.attaining}, gap {worst:g} at n={last.n}"


@_contract
def normalized_exponential(members, n):
    """Normalized exponential entropy and extropy lie within 1e-5 of the
    Gumbel targets 1 + gamma and -1/8 at ``n``."""
    h_target, j_target = evt.limiting_targets(0.0)
    for member in members:
        h = measures.shannon_normalized(member, n).value
        j = measures.extropy_normalized(member, n).value
        if not (abs(h - h_target) <= 1e-5 and abs(j - j_target) <= 1e-5):
            yield f"{member.label()} n={n}: normalized gaps {abs(h - h_target):g}, {abs(j - j_target):g}"


@_contract
def series_tail(ns):
    """The half-geometric series misses ln 2 by at most 2^-n."""
    for n in ns:
        gap = abs(math.log(2.0) - special.half_geometric_sum(n))
        if not gap <= 2.0**-n:
            yield f"half_geometric_sum({n}) gap {gap:g} > 2^-{n}"


@_contract
def beta_log_moment(ns):
    """The beta(n, 1) log moment is exactly -H_n."""
    for n in ns:
        if special.beta_n1_log_moment(n) != -special.harmonic(n):
            yield f"beta_n1_log_moment({n}) != -harmonic({n})"


# ---------------------------------------------------------------------------
# Groups that only verify has; each yields its failure messages
# ---------------------------------------------------------------------------


def _special_identities():
    if special.harmonic(1) != 1.0:
        yield "harmonic(1) != 1"
    if not abs(special.harmonic(4) - 25.0 / 12.0) < 1e-15:
        yield "harmonic(4) != 25/12"
    direct = math.fsum(1.0 / k for k in range(1, 20001))
    if not abs(special.harmonic(20000) - direct) < 1e-12:
        yield "harmonic(20000) disagrees with direct summation"
    yield from series_tail((1, 2, 5, 10, 20, 40, 60))
    if not abs(special.beta_function(2, 3) - 1.0 / 12.0) < 1e-15:
        yield "beta_function(2,3) != 1/12"
    yield from beta_log_moment((7,))
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
    n = 1_000_000
    yield from normalized_exponential(
        [dist_mod.exponential(th) for th in canonical.CANONICAL_THETAS], n
    )
    # a reversed-Weibull and a Frechet member reach their GEV(xi) targets
    for member in (dist_mod.uniform(1.0), dist_mod.pareto(1.0, 2.0)):
        h_t, j_t = evt.limiting_targets(evt.mda_classify(member)[1])
        h = measures.shannon_normalized(member, n).value
        j = measures.extropy_normalized(member, n).value
        if not (abs(h - h_t) < 1e-4 and abs(j - j_t) < 1e-4):
            yield f"{member.label()}: normalized gaps {abs(h - h_t):g}, {abs(j - j_t):g}"

    g0 = dist_mod.gev(0.0)
    for k in (1, 2, 10, 1000):
        if measures.shannon_normalized(g0, k).value != 1.0 + special.EULER_GAMMA:
            yield f"gev(0) self-test: H at n={k}"
        if measures.extropy_normalized(g0, k).value != -0.125:
            yield f"gev(0) self-test: J at n={k}"
    for xi in (-0.5, 0.5):
        member = dist_mod.gev(xi)
        h_t, j_t = evt.limiting_targets(xi)
        for k in (2, 50):
            h = measures.shannon_normalized(member, k).value
            j = measures.extropy_normalized(member, k).value
            if not (abs(h - h_t) < 1e-12 and abs(j - j_t) < 1e-12):
                yield f"gev({xi:g}) self-test at n={k}"


def _mc_agreement(seed: int):
    # One seed at 4 standard errors: of seeds 0-2999 only 451 fails (both
    # logistic(1) extropy checks, at 4.6 and 4.0 SE).  The release check
    # (19 of 20 seeds at 3 standard errors) is in the acceptance suite.
    for member in canonical.mc_representatives():
        for n in (1, 5):
            for name, estimator, closed in (
                ("entropy", numerics.mc_entropy_max, measures.shannon_max),
                ("extropy", numerics.mc_extropy_max, measures.extropy_max),
            ):
                est = estimator(member, n, samples=20_000, seed=seed)
                off = abs(est.estimate - closed(member, n).value)
                if not off <= 4.0 * est.std_error + 1e-12:
                    yield f"{member.label()} n={n}: MC {name} off by {off:g} (se {est.std_error:g})"


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
