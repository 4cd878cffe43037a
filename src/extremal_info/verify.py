"""Built-in invariant suite behind ``extremal-info verify``.

Each group re-derives a slice of the library's contracts from scratch --
identities against quadrature, closed forms against the independent
oracles, orderings, limits, determinism -- and reports pass/fail.  The
suite is deterministic and runs in seconds; it is a smoke screen for
installations, not a replacement for the full test suite.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bounds as bounds_mod
from . import canonical
from . import cli
from . import distributions as dist_mod
from . import evt
from . import measures
from . import numerics
from . import special

__all__ = ["GroupResult", "run_all"]


@dataclass(frozen=True)
class GroupResult:
    """Outcome of one invariant group."""

    name: str
    passed: bool
    detail: str = ""


def _group(name, fn) -> GroupResult:
    try:
        failures = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return GroupResult(name, False, f"raised {type(exc).__name__}: {exc}")
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... ({len(failures)} failures)"
        return GroupResult(name, False, shown)
    return GroupResult(name, True)


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


def _special_identities() -> list:
    failures: list = []
    _check(failures, special.harmonic(1) == 1.0, "harmonic(1) != 1")
    _check(failures, abs(special.harmonic(4) - 25.0 / 12.0) < 1e-15, "harmonic(4) != 25/12")
    direct = math.fsum(1.0 / k for k in range(1, 20001))
    _check(
        failures,
        abs(special.harmonic(20000) - direct) < 1e-12,
        "harmonic(20000) disagrees with direct summation",
    )
    for n in (1, 2, 5, 10, 20, 40, 60):
        gap = abs(math.log(2.0) - special.half_geometric_sum(n))
        _check(failures, gap <= 2.0 ** -n, f"half_geometric_sum({n}) gap {gap:g} > 2^-{n}")
    _check(
        failures,
        abs(special.beta_function(2, 3) - 1.0 / 12.0) < 1e-15,
        "beta_function(2,3) != 1/12",
    )
    _check(
        failures,
        special.beta_n1_log_moment(7) == -special.harmonic(7),
        "beta_n1_log_moment(7) != -harmonic(7)",
    )
    checks = [
        (special.log_power_integral("power_log", n=7), -1.0 / 49.0),
        (special.log_power_integral("lower_half_log", n=3), -(math.log(2.0) + 1.0 / 3.0) / 8.0),
        (special.log_power_integral("power_loglog", n=1), -special.euler_gamma()),
        (special.log_power_integral("power_logpow", nu=2.0, mu=3.0), 0.25),
    ]
    for got, want in checks:
        _check(failures, abs(got - want) < 1e-14, f"log_power_integral: {got!r} != {want!r}")
    return failures


def _quadrature_oracle(quad_tol: float) -> list:
    failures: list = []
    cases = [
        (lambda t: 1.0, 1.0, "constant"),
        (math.log, -1.0, "ln t"),
        (lambda t: t**-0.5, 2.0, "t^-1/2"),
        (lambda t: math.log1p(-t), -1.0, "ln(1-t)"),
        (lambda t: math.log(-math.log(t)), -special.euler_gamma(), "ln(-ln t)"),
    ]
    for f, truth, label in cases:
        res = numerics.integrate_unit(f, abs_tol=quad_tol)
        err = abs(res.value - truth)
        _check(
            failures,
            err <= max(1e-10, res.error_estimate),
            f"integral of {label}: error {err:g} above estimate {res.error_estimate:g}",
        )
    return failures


def _distribution_consistency() -> list:
    failures: list = []
    ts = np.linspace(0.02, 0.98, 21)
    for member in canonical.catalog_members():
        label = member.label()
        x = dist_mod.quantile(member, ts)
        round_trip = np.max(np.abs(dist_mod.cdf(member, x) - ts))
        _check(failures, round_trip < 1e-10, f"{label}: cdf(quantile) gap {round_trip:g}")
        comp = np.max(
            np.abs(
                dist_mod.density_quantile(member, dist_mod.cdf(member, x))
                - dist_mod.pdf(member, x)
            )
        )
        _check(failures, comp < 1e-10, f"{label}: composition gap {comp:g}")
        _check(
            failures,
            dist_mod.from_dict(dist_mod.to_dict(member)) == member,
            f"{label}: JSON round trip failed",
        )
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
    _check(failures, agree < 1e-12, f"power(1,1) vs uniform(0,1) disagree by {agree:g}")
    return failures


def _log_concavity() -> list:
    failures: list = []
    extras = (dist_mod.gev(-0.9), dist_mod.gev(0.3), dist_mod.power_function(1.0, 0.5))
    ts = np.linspace(0.005, 0.995, 301)
    for member in canonical.catalog_members() + extras:
        verdict = dist_mod.is_log_concave(member)
        xs = dist_mod.quantile(member, ts)
        report = numerics.grid_concavity_check(
            lambda x: dist_mod.log_pdf(member, x), xs, tol=1e-9
        )
        _check(
            failures,
            report.concave == verdict,
            f"{member.label()}: grid says concave={report.concave}, verdict={verdict}",
        )
        if verdict:
            profile = numerics.grid_concavity_check(
                lambda t: dist_mod.density_quantile(member, t),
                np.linspace(0.001, 0.999, 301),
                tol=1e-9,
            )
            _check(
                failures,
                profile.concave,
                f"{member.label()}: density-quantile profile not concave on grid",
            )
    return failures


def _closed_vs_quadrature(quad_tol: float) -> list:
    failures: list = []
    for member in canonical.catalog_members():
        for n in (1, 5, 50):
            chk = measures.crosscheck(member, n, quad_tol=quad_tol)
            worst = max(chk["h_gap"], chk["j_gap"])
            _check(
                failures,
                worst <= 1e-8,
                f"{member.label()} n={n}: closed vs quadrature gap {worst:g}",
            )
    return failures


def _bounds_orderings() -> list:
    failures: list = []
    for member in canonical.catalog_members():
        if not dist_mod.is_log_concave(member):
            continue
        for n in (1, 2, 10, 50, 200):
            sh = bounds_mod.shannon_bounds(member, n)
            ex = bounds_mod.extropy_bounds(member, n)
            _check(
                failures,
                sh.lower_holds and sh.upper_holds,
                f"{member.label()} n={n}: entropy ordering violated",
            )
            _check(
                failures,
                ex.lower_holds and ex.upper_holds,
                f"{member.label()} n={n}: extropy ordering violated",
            )
    heavy = dist_mod.pareto(1.0, 2.0)
    ceiling = bounds_mod.shannon_limit_upper(heavy)
    for n in (100, 200):
        value = measures.shannon_max(heavy, n).value
        _check(
            failures,
            value > ceiling,
            f"pareto ceiling not exceeded at n={n}: {value:g} <= {ceiling:g}",
        )
    return failures


def _characterization() -> list:
    failures: list = []
    grid = (10, 1000, 1_000_000)
    for member in canonical.catalog_members():
        study = bounds_mod.exponential_gap(member, grid)
        expected = member.family == "exponential"
        _check(
            failures,
            study.attaining == expected,
            f"{member.label()}: attaining={study.attaining}, expected {expected}",
        )
    return failures


def _normalized_limits() -> list:
    failures: list = []
    n = 1_000_000
    for th in canonical.CANONICAL_THETAS:
        member = dist_mod.exponential(th)
        h = measures.shannon_normalized(member, n).value
        j = measures.extropy_normalized(member, n).value
        h_t, j_t = evt.gumbel_targets()
        _check(failures, abs(h - h_t) < 1e-5, f"exp({th:g}): normalized entropy gap {abs(h - h_t):g}")
        _check(failures, abs(j - j_t) < 1e-5, f"exp({th:g}): normalized extropy gap {abs(j - j_t):g}")
    member = dist_mod.uniform(1.0)
    h_t, j_t = evt.limiting_targets(-1.0)
    h = measures.shannon_normalized(member, n).value
    j = measures.extropy_normalized(member, n).value
    _check(failures, abs(h - h_t) < 1e-4, f"uniform: normalized entropy gap {abs(h - h_t):g}")
    _check(failures, abs(j - j_t) < 1e-4, f"uniform: normalized extropy gap {abs(j - j_t):g}")

    member = dist_mod.exponential(2.0)
    base = evt.norming_constants(member, 7)
    moved = evt.NormingConstants(base.a_n, base.b_n + 123.0, base.domain, base.xi)
    same_h = (
        measures.shannon_normalized(member, 7, norming=base).value
        == measures.shannon_normalized(member, 7, norming=moved).value
    )
    same_j = (
        measures.extropy_normalized(member, 7, norming=base).value
        == measures.extropy_normalized(member, 7, norming=moved).value
    )
    _check(failures, same_h and same_j, "normalized measures depend on the centering b_n")

    g0 = dist_mod.gev(0.0)
    for k in (1, 2, 10, 1000):
        h = measures.shannon_normalized(g0, k).value
        j = measures.extropy_normalized(g0, k).value
        _check(failures, h == 1.0 + special.euler_gamma(), f"gev(0) self-test: H at n={k}")
        _check(failures, j == -0.125, f"gev(0) self-test: J at n={k}")
    for xi in (-0.5, 0.5):
        member = dist_mod.gev(xi)
        h_t, j_t = evt.limiting_targets(xi)
        for k in (2, 50):
            h = measures.shannon_normalized(member, k).value
            j = measures.extropy_normalized(member, k).value
            _check(
                failures,
                abs(h - h_t) < 1e-12 and abs(j - j_t) < 1e-12,
                f"gev({xi:g}) self-test at n={k}",
            )
    return failures


def _mc_agreement(seed: int) -> list:
    failures: list = []
    for member in canonical.mc_representatives():
        for n in (1, 5):
            h = numerics.mc_entropy_max(member, n, samples=20_000, seed=seed)
            j = numerics.mc_extropy_max(member, n, samples=20_000, seed=seed)
            h_closed = measures.shannon_max(member, n).value
            j_closed = measures.extropy_max(member, n).value
            _check(
                failures,
                abs(h.estimate - h_closed) <= 4.0 * h.std_error + 1e-12,
                f"{member.label()} n={n}: MC entropy off by "
                f"{abs(h.estimate - h_closed):g} (se {h.std_error:g})",
            )
            _check(
                failures,
                abs(j.estimate - j_closed) <= 4.0 * j.std_error + 1e-12,
                f"{member.label()} n={n}: MC extropy off by "
                f"{abs(j.estimate - j_closed):g} (se {j.std_error:g})",
            )
    return failures


def _cli_determinism() -> list:
    failures: list = []

    def run(argv) -> tuple[int, str]:
        out = io.StringIO()
        code = cli.main(argv, out=out, err=io.StringIO())
        return code, out.getvalue()

    code1, text1 = run(["figure1"])
    code2, text2 = run(["figure1"])
    _check(failures, code1 == 0 and code2 == 0, "figure1 exited nonzero")
    _check(failures, text1 == text2, "figure1 output not byte-identical across runs")

    mc_args = [
        "measure",
        "--dist",
        '{"family":"exponential","theta":1}',
        "--n",
        "5",
        "--method",
        "mc",
        "--samples",
        "1000",
        "--seed",
        "42",
    ]
    code1, text1 = run(mc_args)
    code2, text2 = run(mc_args)
    _check(failures, code1 == 0 and code2 == 0, "seeded measure exited nonzero")
    _check(failures, text1 == text2, "seeded measure output not byte-identical")

    code, text = run(["measure", "--dist", '{"family":"gev","xi":0}', "--n", "1", "--format", "json"])
    _check(failures, code == 0, "json measure exited nonzero")
    try:
        import json as _json

        payload = _json.loads(text)
        ok = (
            isinstance(payload, list)
            and abs(payload[0]["H"] - (1.0 + special.euler_gamma())) < 1e-12
            and abs(payload[0]["J"] + 0.125) < 1e-12
        )
    except Exception:
        ok = False
    _check(failures, ok, "json measure payload malformed")
    return failures


def run_all(quad_tol: float = numerics.DEFAULT_QUAD_TOL, seed: int = 0) -> list[GroupResult]:
    """Run every invariant group, with quadrature tolerance ``quad_tol`` and
    Monte Carlo seed ``seed``, and return their results in order."""
    groups = (
        ("special identities", _special_identities),
        ("quadrature oracle", partial(_quadrature_oracle, quad_tol)),
        ("distribution consistency", _distribution_consistency),
        ("log-concavity verdicts", _log_concavity),
        ("closed form vs quadrature", partial(_closed_vs_quadrature, quad_tol)),
        ("bound orderings", _bounds_orderings),
        ("ceiling characterization", _characterization),
        ("normalized limits", _normalized_limits),
        ("monte carlo agreement", partial(_mc_agreement, seed)),
        ("cli determinism", _cli_determinism),
    )
    return [_group(name, fn) for name, fn in groups]
