"""Release acceptance suite: ten numbered end-to-end checks.

Every check pins an independently derived target at a fixed tolerance and
gets its own PASS/FAIL line in the terminal summary (see ``conftest``).
Checks 1, 2, 3, 5, 6, 8 and 9 run the contracts defined once in
``extremal_info.verify`` on the release grid and assert that they report no
failure; ``extremal-info verify`` runs the same contracts on a smoke grid.
Tolerances are contractual — they must never be loosened to make a
check pass.  Where a check cannot hold in its original form, the original
form is kept as a strict expected failure next to a corrected, passing
variant, and the analysis lives in the test that quantifies the gap.
"""
from __future__ import annotations

import io
import math

import pytest

from extremal_info import bounds, canonical, measures, numerics, special, verify
from extremal_info import distributions as dist_mod
from extremal_info.cli import main as cli_main

CATALOG = canonical.catalog_members()
REPRESENTATIVES = canonical.mc_representatives()
LOG_CONCAVE = tuple(m for m in CATALOG if dist_mod.is_log_concave(m))
PARETO_MEMBERS = tuple(m for m in CATALOG if m.label().startswith("pareto"))

MC_SEED_BASE = 20260815
MC_SAMPLES = 100_000


def _label(member) -> str:
    return member.label()


# ---------------------------------------------------------------------------
# checks 1 and 2: closed-form entropy/extropy vs adaptive quadrature on the
# full catalog grid
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(1, "catalog entropy closed forms match quadrature to 1e-8 for n in {1,2,5,10,50}")
@pytest.mark.parametrize("member", CATALOG, ids=_label)
def test_entropy_closed_forms_match_quadrature(member):
    assert verify.closed_vs_quadrature([member], canonical.TABLE_N, routes=("shannon_max",)) == []


@pytest.mark.acceptance(2, "catalog extropy closed forms match quadrature to 1e-8 for n in {1,2,5,10,50}")
@pytest.mark.parametrize("member", CATALOG, ids=_label)
def test_extropy_closed_forms_match_quadrature(member):
    assert verify.closed_vs_quadrature([member], canonical.TABLE_N, routes=("extropy_max",)) == []


# ---------------------------------------------------------------------------
# check 3: finite-n bound orderings, and heavy tails piercing the entropy
# ceiling
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(3, "bound orderings hold for log-concave members up to n=200; pareto pierces the entropy ceiling by n=100")
@pytest.mark.parametrize("member", LOG_CONCAVE, ids=_label)
def test_bound_orderings_hold_through_n_200(member):
    assert verify.bound_orderings([member], range(1, 201)) == []


@pytest.mark.acceptance(3, "bound orderings hold for log-concave members up to n=200; pareto pierces the entropy ceiling by n=100")
@pytest.mark.parametrize("member", PARETO_MEMBERS, ids=_label)
def test_pareto_entropy_exceeds_the_limiting_ceiling(member):
    assert verify.pareto_ceiling([member], (100, 150, 200)) == []


# ---------------------------------------------------------------------------
# check 4: the upper envelopes approach their n-free ceilings.
#
# The original form of this check asks for ``shannon_upper_envelope + ln n``
# to reach the ceiling within 1e-6 at n = 1e5.  That combination diverges:
# the envelope already contains H_n ~ ln n + gamma, which cancels its own
# -ln n term, so the envelope alone converges and adding ln n re-introduces
# a log divergence.  Even the drift-free residuals, -1/(2n) for entropy and
# -I(1/2)/(4(2n-1)) for extropy, exceed 1e-6 at n = 1e5; both clear it at
# n = 1e6.  The original claim stays below as a strict expected failure,
# the exact residuals are pinned, and the corrected limit is enforced on
# the whole catalog.
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(4, "upper envelopes approach the limiting ceilings (corrected form at n=1e6; +ln n form is a recorded expected failure)")
@pytest.mark.xfail(
    strict=True,
    reason="envelope + ln n diverges like ln n (H_n already supplies the ln n); "
    "even drift-free residuals 1/(2n) and I(1/2)/(4(2n-1)) exceed 1e-6 at n=1e5",
)
def test_envelope_limits_in_original_form_at_1e5():
    n = 10**5
    for member in REPRESENTATIVES:
        stated = bounds.shannon_upper_envelope(member, n) + math.log(n)
        assert stated == pytest.approx(bounds.shannon_limit_upper(member), abs=1e-6)
        assert bounds.extropy_upper_envelope(member, n) == pytest.approx(
            bounds.extropy_limit_upper(member), abs=1e-6
        )


@pytest.mark.acceptance(4, "upper envelopes approach the limiting ceilings (corrected form at n=1e6; +ln n form is a recorded expected failure)")
@pytest.mark.parametrize("member", REPRESENTATIVES, ids=_label)
def test_envelope_residuals_are_exactly_the_predicted_drifts(member):
    n = 10**5
    ub_h = bounds.shannon_limit_upper(member)
    env_h = bounds.shannon_upper_envelope(member, n)
    # Adding ln n leaves a pure ln n divergence on top of the -1/(2n) drift.
    assert env_h + math.log(n) - ub_h == pytest.approx(math.log(n) - 0.5 / n, abs=1e-9)
    assert env_h - ub_h == pytest.approx(-0.5 / n, abs=1e-9)
    j_residual = bounds.extropy_upper_envelope(member, n) - bounds.extropy_limit_upper(member)
    half = dist_mod.density_quantile(member, 0.5)
    assert j_residual == pytest.approx(-half / (4.0 * (2 * n - 1)), rel=1e-6)


@pytest.mark.acceptance(4, "upper envelopes approach the limiting ceilings (corrected form at n=1e6; +ln n form is a recorded expected failure)")
@pytest.mark.parametrize("member", CATALOG, ids=_label)
def test_envelopes_reach_their_ceilings_at_1e6(member):
    n = 10**6
    assert bounds.shannon_upper_envelope(member, n) == pytest.approx(
        bounds.shannon_limit_upper(member), abs=1e-6
    )
    assert bounds.extropy_upper_envelope(member, n) == pytest.approx(
        bounds.extropy_limit_upper(member), abs=1e-6
    )


# ---------------------------------------------------------------------------
# check 5: the exponential family, and only it, attains the gumbel-limit
# targets
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(5, "exponential members alone attain the gumbel-limit targets at n=1e6 (gap < 1e-4 vs > 0.05)")
@pytest.mark.parametrize("member", CATALOG, ids=_label)
def test_only_exponential_attains_the_gumbel_targets(member):
    assert verify.exponential_attainment([member], (10, 1000, 1_000_000)) == []


# ---------------------------------------------------------------------------
# check 6: normalized exponential measures reach the gumbel targets
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(6, "normalized exponential entropy/extropy reach 1+gamma and -1/8 within 1e-5 at n=1e6")
@pytest.mark.parametrize("theta", canonical.CANONICAL_THETAS)
def test_normalized_exponential_measures_reach_gumbel_targets(theta):
    assert verify.normalized_exponential([dist_mod.exponential(theta)], 10**6) == []


# ---------------------------------------------------------------------------
# check 7: monte carlo estimators agree with the closed forms
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(7, "monte carlo estimates within 3 standard errors of closed forms in >=19/20 seeded runs per cell")
@pytest.mark.parametrize("n", (1, 5, 20))
@pytest.mark.parametrize("member", REPRESENTATIVES, ids=_label)
def test_mc_three_sigma_agreement(member, n):
    h_closed = measures.shannon_max(member, n).value
    j_closed = measures.extropy_max(member, n).value
    h_hits = j_hits = 0
    for k in range(20):
        seed = MC_SEED_BASE + k
        h = numerics.mc_entropy_max(member, n, samples=MC_SAMPLES, seed=seed)
        j = numerics.mc_extropy_max(member, n, samples=MC_SAMPLES, seed=seed)
        h_hits += abs(h.estimate - h_closed) <= 3.0 * h.std_error
        j_hits += abs(j.estimate - j_closed) <= 3.0 * j.std_error
    assert h_hits >= 19
    assert j_hits >= 19


# ---------------------------------------------------------------------------
# check 8: the logarithmic moment integrals, the half-geometric series and
# the beta log moment
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(8, "log-moment integrals match quadrature to 1e-10; series tail <= 2^-n; beta log moment equals -H_n")
def test_log_power_integrals_match_quadrature():
    for n in range(1, 21):
        closed = special.log_power_integral("lower_half_log", n=n)
        quad = numerics.integrate_unit(
            lambda u, n=n: 0.5 * n * (0.5 * u) ** (n - 1) * math.log(0.5 * u)
        )
        assert quad.value == pytest.approx(closed, abs=1e-10), f"lower_half_log n={n}"

        closed = special.log_power_integral("power_log", n=n)
        quad = numerics.integrate_unit(lambda y, n=n: y ** (n - 1) * math.log(y))
        assert quad.value == pytest.approx(closed, abs=1e-10), f"power_log n={n}"

        closed = special.log_power_integral("power_loglog", n=n)
        quad = numerics.integrate_unit(
            lambda y, n=n: y ** (n - 1) * math.log(-math.log(y))
        )
        assert quad.value == pytest.approx(closed, abs=1e-10), f"power_loglog n={n}"


@pytest.mark.acceptance(8, "log-moment integrals match quadrature to 1e-10; series tail <= 2^-n; beta log moment equals -H_n")
@pytest.mark.parametrize("nu", (0.5, 1.0, 2.0, 3.5))
@pytest.mark.parametrize("mu", (0.5, 1.0, 2.0, 3.5))
def test_power_logpow_integral_matches_quadrature(nu, mu):
    closed = special.log_power_integral("power_logpow", nu=nu, mu=mu)
    quad = numerics.integrate_unit(
        lambda y: y ** (nu - 1) * (-math.log(y)) ** (mu - 1.0)
    )
    assert quad.value == pytest.approx(closed, abs=1e-10)


@pytest.mark.acceptance(8, "log-moment integrals match quadrature to 1e-10; series tail <= 2^-n; beta log moment equals -H_n")
def test_half_geometric_tail_is_bounded_by_two_to_minus_n():
    assert verify.series_tail(range(1, 61)) == []


@pytest.mark.acceptance(8, "log-moment integrals match quadrature to 1e-10; series tail <= 2^-n; beta log moment equals -H_n")
def test_beta_log_moment_equals_minus_harmonic():
    assert verify.beta_log_moment(range(1, 21)) == []
    for n in range(1, 21):
        closed = special.beta_n1_log_moment(n)
        quad = numerics.integrate_unit(
            lambda y, n=n: n * y ** (n - 1) * math.log1p(-y)
        )
        assert quad.value == pytest.approx(closed, abs=1e-10)


# ---------------------------------------------------------------------------
# check 9: gev closed forms and log-concavity verdicts
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(9, "gev closed forms match quadrature to 1e-8; log-concavity verdicts agree with grid checks")
@pytest.mark.parametrize("xi", (-0.5, 0.0, 0.5))
def test_gev_closed_forms_match_quadrature(xi):
    assert verify.closed_vs_quadrature([dist_mod.gev(xi)], (1, 5, 10)) == []


@pytest.mark.acceptance(9, "gev closed forms match quadrature to 1e-8; log-concavity verdicts agree with grid checks")
@pytest.mark.parametrize("xi", (-0.9, -0.5, -1e-6, 0.0, 0.3))
def test_gev_log_concavity_verdicts_match_grid_checks(xi):
    assert verify.log_concavity([dist_mod.gev(xi)]) == []


# ---------------------------------------------------------------------------
# check 10: the normalized entropy curve for the exponential distribution
# ---------------------------------------------------------------------------


@pytest.mark.acceptance(10, "normalized entropy curve strictly increases toward its ceiling with gap < 0.011 at n=50")
def test_normalized_entropy_curve_climbs_to_its_ceiling():
    out = io.StringIO()
    assert cli_main(["figure1"], out=out, err=io.StringIO()) == 0
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "n,H,UB"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 51))
    curve = [float(r[1]) for r in rows]
    ceilings = {float(r[2]) for r in rows}
    assert len(ceilings) == 1
    ceiling = ceilings.pop()
    assert all(a < b for a, b in zip(curve, curve[1:]))
    assert all(h < ceiling for h in curve)
    assert ceiling - curve[-1] < 0.011
