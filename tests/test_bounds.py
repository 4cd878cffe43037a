"""Tests for the entropy/extropy envelopes of sample maxima.

Each bound is pinned at hand-computed values, checked for ordering
against the measures across n-sweeps, and exercised at its known
equality and violation cases.
"""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from extremal_info import bounds, canonical, distributions as d, measures

GAMMA = np.euler_gamma

LOG_CONCAVE_MEMBERS = [m for m in canonical.catalog_members() if d.is_log_concave(m)]
HEAVY_MEMBERS = [m for m in canonical.catalog_members() if not d.is_log_concave(m)]


# ---------------------------------------------------------------------------
# Entropy bounds
# ---------------------------------------------------------------------------


class TestShannonBounds:
    def test_exponential_unit_pins(self):
        report = bounds.shannon_bounds(d.exponential(1.0), 1)
        assert report.lower == pytest.approx(0.0, abs=1e-15)
        assert report.value == pytest.approx(1.0, abs=1e-15)
        assert report.upper == pytest.approx(1.0 + math.log(2.0), abs=1e-13)
        assert report.lower_holds and report.upper_holds
        assert report.applicable
        assert report.gate_note == ""

    def test_lower_bound_is_distribution_free(self):
        for member in (d.uniform(1.0), d.logistic(1.0), d.gev(0.0)):
            report = bounds.shannon_bounds(member, 7)
            assert report.lower == pytest.approx(1.0 - math.log(7.0) - 1.0 / 7.0)

    def test_uniform_attains_the_lower_bound(self):
        # U(0,1) has sup f = 1 and meets the floor exactly at every n
        for n in (1, 2, 5, 20):
            report = bounds.shannon_bounds(d.uniform(1.0), n)
            assert report.value == pytest.approx(report.lower, abs=1e-13)
            assert report.lower_holds

    def test_wide_density_gates_the_lower_bound(self):
        # sup f = 3 > 1: the floor argument needs sup f <= 1, so the
        # report must flag the gate instead of failing the check
        report = bounds.shannon_bounds(d.exponential(3.0), 1)
        assert report.value < report.lower  # raw ordering genuinely fails
        assert report.lower_holds  # not enforced, hence vacuously true
        assert "sup density" in report.gate_note

    def test_a_sup_density_beyond_the_double_range_gates_the_lower_bound(self):
        # sup f of gev(200) is e^865: sup_density overflows, and the gate
        # reads that as sup f > 1
        report = bounds.shannon_bounds(d.gev(200.0), 1)
        assert report.lower_holds
        assert "lower bound not enforced: sup density beyond the double range > 1" in report.gate_note

    @pytest.mark.parametrize("member", LOG_CONCAVE_MEMBERS, ids=lambda m: m.label())
    def test_envelope_ordering_sweep(self, member):
        for n in range(1, 201, 7):
            report = bounds.shannon_bounds(member, n)
            assert report.applicable
            assert report.upper_holds, f"upper fails at n={n}"
            if d.sup_density(member) <= 1.0:
                assert report.lower <= report.value + 1e-12

    @pytest.mark.parametrize("member", HEAVY_MEMBERS, ids=lambda m: m.label())
    def test_not_applicable_without_log_concavity(self, member):
        report = bounds.shannon_bounds(member, 5)
        assert not report.applicable

    def test_pareto_eventually_violates_the_limit_ceiling(self):
        # heavy tails push the entropy through the log-concave limit bound
        member = d.pareto(1.0, 2.0)
        ceiling = bounds.shannon_limit_upper(member)
        assert measures.shannon_max(member, 100).value > ceiling


class TestExtropyBounds:
    def test_exponential_unit_pins(self):
        report = bounds.extropy_bounds(d.exponential(1.0), 1)
        assert report.lower == pytest.approx(-0.25, abs=1e-15)
        assert report.value == pytest.approx(-0.25, abs=1e-15)  # equality case
        assert report.upper == pytest.approx(-0.125, abs=1e-15)
        assert report.lower_holds and report.upper_holds

    def test_no_gate_on_the_lower_bound(self):
        report = bounds.extropy_bounds(d.exponential(3.0), 4)
        assert report.gate_note == ""
        assert report.lower_holds

    def test_divergent_extropy_orders_as_minus_inf(self):
        # 2 n nu <= 1: the integral of f^2 diverges at the lower endpoint
        report = bounds.extropy_bounds(d.power_function(1.0, 0.3), 1)
        assert report.value == -math.inf
        assert report.lower_holds is False
        assert report.upper_holds is True
        assert report.applicable is False

    def test_heavy_tail_carries_the_log_concavity_note(self):
        report = bounds.extropy_bounds(d.pareto(1.0, 2.0), 3)
        assert report.gate_note == (
            "envelopes require a log-concave density; pareto(theta=1, nu=2) is not"
        )

    def test_lower_bound_formula(self):
        member = d.logistic(2.0)
        for n in (1, 3, 10):
            report = bounds.extropy_bounds(member, n)
            want = -0.5 * n * d.density_quantile(member, 0.5)
            assert report.lower == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("member", LOG_CONCAVE_MEMBERS, ids=lambda m: m.label())
    def test_envelope_ordering_sweep(self, member):
        for n in range(1, 201, 7):
            report = bounds.extropy_bounds(member, n)
            assert report.lower <= report.value + 1e-12, f"lower fails at n={n}"
            assert report.upper_holds, f"upper fails at n={n}"

    def test_upper_envelope_reduces_to_quarter_profile_at_n1(self):
        for member in (d.exponential(1.0), d.logistic(2.0), d.uniform(0.5)):
            at_half = d.density_quantile(member, 0.5)
            got = bounds.extropy_upper_envelope(member, 1)
            assert got == pytest.approx(-at_half / 4.0, rel=1e-13)

    def test_upper_envelope_stable_at_huge_n(self):
        # naive 2^(2n) factors overflow; the envelope must stay finite
        got = bounds.extropy_upper_envelope(d.exponential(1.0), 10**6)
        assert math.isfinite(got)
        assert got == pytest.approx(-0.125, rel=1e-5)


# ---------------------------------------------------------------------------
# Extropy envelopes on random log-concave laws, against an exact J
# ---------------------------------------------------------------------------
#
# A density is log-concave exactly when its profile I(t) = f(F^-1(t)) is
# concave on (0, 1) (Bobkov 1996), so every concave piecewise-linear I > 0
# on (0, 1) is the profile of a log-concave law.  With dyadic knots its
# extropy J = -(n^2/2) int_0^1 t^(2n-2) I(t) dt is a rational number.


def _random_concave_profile(rng):
    """(knots, values) of a concave piecewise-linear I > 0 on (0, 1): knots
    at k/64 and slopes decreasing in steps of 1/16, as Fractions."""
    inner = sorted(rng.sample(range(1, 64), rng.randint(1, 5)))
    knots = [Fraction(0)] + [Fraction(k, 64) for k in inner] + [Fraction(1)]
    slopes = [Fraction(rng.randint(-32, 32), 16)]
    for _ in knots[2:]:
        slopes.append(slopes[-1] - Fraction(rng.randint(1, 8), 16))
    rise = sum(s * (b - a) for s, a, b in zip(slopes, knots, knots[1:]))
    # I(0), I(1) >= 0, and I is not linear, so I > 0 inside
    values = [max(Fraction(0), -rise) + Fraction(rng.randint(0, 8), 16)]
    for s, a, b in zip(slopes, knots, knots[1:]):
        values.append(values[-1] + s * (b - a))
    return knots, values


def _profile_at(knots, values, t):
    k = next(i for i in range(len(knots) - 1) if knots[i] <= t <= knots[i + 1])
    a, b = knots[k], knots[k + 1]
    return values[k] + (values[k + 1] - values[k]) * (t - a) / (b - a)


def _exact_extropy(knots, values, n):
    """J = -(n^2/2) sum over segments of int t^(2n-2) (alpha + beta t) dt."""
    p = 2 * n - 2
    total = Fraction(0)
    for a, b, ia, ib in zip(knots, knots[1:], values, values[1:]):
        beta = (ib - ia) / (b - a)
        alpha = ia - beta * a
        total += alpha * (b ** (p + 1) - a ** (p + 1)) / (p + 1)
        total += beta * (b ** (p + 2) - a ** (p + 2)) / (p + 2)
    return -Fraction(n * n, 2) * total


RANDOM_PROFILES = [_random_concave_profile(random.Random(seed)) for seed in range(20)]


@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_random_log_concave_extropy_lies_between_its_envelopes(n):
    for knots, values in RANDOM_PROFILES:
        i_half = _profile_at(knots, values, Fraction(1, 2))
        j = float(_exact_extropy(knots, values, n))
        lower = float(-Fraction(n, 2) * i_half)
        upper = bounds._extropy_envelope(float(i_half), n)
        assert lower <= j + 1e-12 * abs(j), (knots, values)
        assert j <= upper + 1e-12 * abs(upper), (knots, values)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3, 4)], ids=["c=1/2", "c=3/4"])
@pytest.mark.parametrize("n", [1, 2, 5, 50, 1000])
def test_the_tent_profile_attains_the_extropy_envelope(c, n):
    # I(t) = 2c min(t, 1 - t), the Laplace profile with I(1/2) = c
    j = float(_exact_extropy([Fraction(0), Fraction(1, 2), Fraction(1)], [Fraction(0), c, Fraction(0)], n))
    assert bounds._extropy_envelope(float(c), n) == pytest.approx(j, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# Floors from sup f, and an entropy-extropy inequality
# ---------------------------------------------------------------------------

FINITE_SUP_MEMBERS = [m for m in canonical.catalog_members() if math.isfinite(d.sup_density(m))]
FLOOR_N = (1, 2, 3, 5, 10, 49, 51, 1001, 10**4 + 1, 10**6 + 1)


def _at_least(lhs, rhs):
    """lhs >= rhs to 1e-12 relative."""
    return rhs - lhs <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("member", FINITE_SUP_MEMBERS, ids=lambda m: m.label())
def test_closed_forms_keep_the_sup_density_floors_and_the_entropy_extropy_inequality(member):
    # With H = 1 - ln n - 1/n - E ln I(T), T ~ Beta(n, 1), and
    # J = -n^2/(2(2n - 1)) E I(T'), T' ~ Beta(2n - 1, 1), I <= sup f gives
    # H >= 1 - ln n - 1/n - ln sup f and J >= -n^2 sup f / (2(2n - 1)), with
    # no log-concavity.  By Jensen, -E ln I >= -ln E I, and for odd
    # n = 2m - 1, E_Beta(n,1) I = -2n J(X_(m))/m^2, which ties H to J.
    sup = d.sup_density(member)
    for n in FLOOR_N:
        h = measures.shannon_max(member, n).value
        shift = 1.0 - math.log(n) - 1.0 / n
        assert _at_least(h, shift - math.log(sup)), n
        assert _at_least(measures.extropy_max(member, n).value, -n * n * sup / (2 * (2 * n - 1))), n
        if n % 2:
            m = (n + 1) // 2
            mean_profile = -2 * n * measures.extropy_max(member, m).value / (m * m)
            assert _at_least(h, shift - math.log(mean_profile)), n


# ---------------------------------------------------------------------------
# Limit ceilings
# ---------------------------------------------------------------------------


class TestLimitCeilings:
    def test_shannon_limit_upper_formula(self):
        for member in (d.exponential(1.0), d.logistic(4.0), d.uniform(2.0)):
            at_half = d.density_quantile(member, 0.5)
            want = 1.0 - math.log(2.0 * at_half) + GAMMA
            assert bounds.shannon_limit_upper(member) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("member", canonical.catalog_members(), ids=lambda m: m.label())
    def test_shannon_limit_upper_is_the_formula_bit_for_bit(self, member):
        at_half = d.density_quantile(member, 0.5)
        assert bounds.shannon_limit_upper(member) == 1.0 - math.log(2.0 * at_half) + GAMMA

    @pytest.mark.parametrize(
        "member", [d.gev(1e308), d.pareto(1e-300, 1e-300)], ids=lambda m: m.label()
    )
    def test_an_underflowing_profile_at_half_is_named(self, member):
        # I(1/2) underflows to 0, so ln[2 I(1/2)] has no value
        assert d.density_quantile(member, 0.5) == 0.0
        want = rf"I\(1/2\) of {re.escape(member.label())} underflows to 0"
        for ceiling in (
            bounds.shannon_limit_upper,
            lambda m: bounds.shannon_upper_envelope(m, 1),
            lambda m: bounds.exponential_gap(m, (1, 2)),
        ):
            with pytest.raises(ValueError, match=want):
                ceiling(member)

    def test_extropy_limit_upper_formula(self):
        assert bounds.extropy_limit_upper(d.exponential(1.0)) == pytest.approx(-0.125)
        assert bounds.extropy_limit_upper(d.uniform(1.0)) == pytest.approx(-0.25)

    def test_exponential_attains_both_ceilings_in_the_limit(self):
        member = d.exponential(1.0)
        assert bounds.shannon_limit_upper(member) == pytest.approx(1.0 + GAMMA)
        h = measures.shannon_normalized(member, 10**6).value
        assert h == pytest.approx(bounds.shannon_limit_upper(member), abs=1e-5)

    def test_finite_n_envelopes_approach_the_ceilings(self):
        member = d.logistic(1.0)
        n = 10**6
        drift = bounds.shannon_upper_envelope(member, n) + math.log(n)
        assert not math.isclose(
            drift, bounds.shannon_limit_upper(member), abs_tol=1e-2
        )  # the raw difference keeps a harmonic-series excess; see below
        corrected = (
            bounds.shannon_upper_envelope(member, n)
            - measures.shannon_max(member, n).value
            + measures.shannon_normalized(member, n).value
        )
        assert corrected == pytest.approx(bounds.shannon_limit_upper(member), abs=1e-5)


# ---------------------------------------------------------------------------
# Normalized bounds
# ---------------------------------------------------------------------------


class TestNormalizedBounds:
    def test_unit_scale_is_identity(self):
        member = d.exponential(1.0)  # a_n = 1 for every n
        raw_h = bounds.shannon_bounds(member, 9)
        raw_j = bounds.extropy_bounds(member, 9)
        norm_h, norm_j = bounds.normalized_bounds(member, 9)
        assert norm_h == raw_h
        assert norm_j == raw_j

    def test_entropy_shift_and_extropy_scale(self):
        member = d.exponential(2.0)  # a_n = 1/2
        n = 9
        raw_h = bounds.shannon_bounds(member, n)
        raw_j = bounds.extropy_bounds(member, n)
        norm_h, norm_j = bounds.normalized_bounds(member, n)
        shift = math.log(2.0)  # -ln a_n
        assert norm_h.lower == pytest.approx(raw_h.lower + shift)
        assert norm_h.value == pytest.approx(raw_h.value + shift)
        assert norm_h.upper == pytest.approx(raw_h.upper + shift)
        assert norm_j.lower == pytest.approx(raw_j.lower * 0.5)
        assert norm_j.value == pytest.approx(raw_j.value * 0.5)
        assert norm_j.upper == pytest.approx(raw_j.upper * 0.5)
        assert norm_h.lower_holds == raw_h.lower_holds
        assert norm_j.upper_holds == raw_j.upper_holds


# ---------------------------------------------------------------------------
# Every report field, bit for bit, from the public pieces
# ---------------------------------------------------------------------------

PINNED_MEMBERS = list(canonical.catalog_members()) + [
    d.exponential(3.0),
    d.power_function(1.0, 0.3),
]
PINNED_N = sorted(set(canonical.TABLE_N) | {10**4, 10**6})


def _ordered(a, b):
    """a <= b over the extended reals, with 1e-12 relative slack when finite."""
    if math.isinf(a) or math.isinf(b):
        return a <= b
    return a <= b + 1e-12 * max(1.0, abs(a), abs(b))


def _sup_note(member, lead, noun):
    sup = d.sup_density(member)
    return f"{lead}: sup density {sup:g} > 1 (the {noun} presumes a density bounded by 1)" if sup > 1.0 else ""


class TestReportsPinned:
    @pytest.mark.parametrize("member", PINNED_MEMBERS, ids=lambda m: m.label())
    def test_every_field(self, member):
        log_concave = d.is_log_concave(member)
        concave_note = [] if log_concave else [f"envelopes require a log-concave density; {member.label()} is not"]
        floor_note = _sup_note(member, "lower bound not enforced", "bound")
        i_half = d.density_quantile(member, 0.5)
        for n in PINNED_N:
            h = bounds.shannon_bounds(member, n)
            lower = 1.0 - math.log(n) - 1.0 / n
            value = measures.shannon_max(member, n).value
            upper = bounds.shannon_upper_envelope(member, n)
            assert h == bounds.BoundsReport(
                lower=lower,
                value=value,
                upper=upper,
                lower_holds=bool(floor_note) or _ordered(lower, value),
                upper_holds=_ordered(value, upper),
                applicable=log_concave,
                gate_note="; ".join(concave_note + ([floor_note] if floor_note else [])),
            ), n

            j = bounds.extropy_bounds(member, n)
            lower = -0.5 * n * i_half
            value = measures.extropy_max(member, n).value
            upper = bounds.extropy_upper_envelope(member, n)
            assert j == bounds.BoundsReport(
                lower=lower,
                value=value,
                upper=upper,
                lower_holds=_ordered(lower, value),
                upper_holds=_ordered(value, upper),
                applicable=log_concave,
                gate_note="; ".join(concave_note),
            ), n

    @pytest.mark.parametrize("member", PINNED_MEMBERS, ids=lambda m: m.label())
    def test_unit_envelope_note(self, member):
        report = bounds.envelope_check(member)
        note = _sup_note(member, "I(t) <= 1 not applicable", "envelope")
        assert report.gate_note == note
        assert report.unit_upper_applicable is (note == "")

    def test_note_strings(self):
        h = bounds.shannon_bounds(d.pareto(1.0, 2.0), 3)
        assert h.gate_note == (
            "envelopes require a log-concave density; pareto(theta=1, nu=2) is not; "
            "lower bound not enforced: sup density 2 > 1 (the bound presumes a density bounded by 1)"
        )
        assert bounds.envelope_check(d.exponential(3.0)).gate_note == (
            "I(t) <= 1 not applicable: sup density 3 > 1 (the envelope presumes a density bounded by 1)"
        )


# ---------------------------------------------------------------------------
# Midpoint envelopes for I(t)
# ---------------------------------------------------------------------------


class TestEnvelopeCheck:
    def test_exponential_unit_all_pass(self):
        report = bounds.envelope_check(d.exponential(1.0))
        assert report.bobkov_holds
        assert report.unit_upper_applicable
        assert report.unit_upper_holds
        assert report.gate_note == ""

    def test_logistic_all_pass(self):
        report = bounds.envelope_check(d.logistic(1.0))
        assert report.bobkov_holds
        assert report.unit_upper_holds

    def test_wide_density_gates_unit_upper(self):
        report = bounds.envelope_check(d.exponential(3.0))
        assert report.bobkov_holds
        assert not report.unit_upper_applicable
        assert not report.unit_upper_holds  # raw outcome still reported
        assert report.unit_upper_worst_violation > 0.0
        assert "sup density" in report.gate_note

    def test_a_sup_density_beyond_the_double_range_gates_unit_upper(self):
        report = bounds.envelope_check(d.gev(200.0))
        assert not report.unit_upper_applicable
        assert report.gate_note.startswith("I(t) <= 1 not applicable: sup density beyond the double range > 1")

    @pytest.mark.parametrize("member", LOG_CONCAVE_MEMBERS, ids=lambda m: m.label())
    def test_bobkov_holds_for_log_concave_members(self, member):
        report = bounds.envelope_check(member)
        assert report.bobkov_holds
        assert report.bobkov_worst_violation <= 1e-12


# ---------------------------------------------------------------------------
# Who attains the envelopes?
# ---------------------------------------------------------------------------


class TestExponentialGap:
    GRID = (10, 100, 10_000, 1_000_000)

    def test_only_exponential_attains(self):
        for member in canonical.catalog_members():
            study = bounds.exponential_gap(member, self.GRID)
            assert study.attaining is (member.family == "exponential"), member.label()

    def test_gap_records_are_signed_and_shrinking_for_exponential(self):
        study = bounds.exponential_gap(d.exponential(2.0), self.GRID)
        h_gaps = [r.shannon_gap for r in study.records]
        j_gaps = [r.extropy_gap for r in study.records]
        assert all(g > 0.0 for g in h_gaps)  # upper bound minus measure
        assert all(g > 0.0 for g in j_gaps)
        assert h_gaps == sorted(h_gaps, reverse=True)
        assert j_gaps == sorted(j_gaps, reverse=True)
        assert max(abs(h_gaps[-1]), abs(j_gaps[-1])) < 1e-4
        assert study.attaining and study.tol == 1e-4

    def test_gumbel_member_blocked_by_entropy_gap(self):
        # its extropy gap vanishes but the entropy gap plateaus at ln(2 I(1/2))
        study = bounds.exponential_gap(d.gev(0.0), self.GRID)
        last = study.records[-1]
        assert abs(last.extropy_gap) < 0.05
        assert abs(last.shannon_gap) == pytest.approx(-math.log(2.0 * 0.5 * math.log(2.0)), abs=1e-6)
        assert not study.attaining

    def test_divergent_extropy_recorded_as_infinite_gap(self):
        study = bounds.exponential_gap(d.gev(-2.5), (2, 4))
        assert all(math.isinf(r.extropy_gap) for r in study.records)
        assert not study.attaining

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            bounds.exponential_gap(d.exponential(1.0), ())
        with pytest.raises(ValueError):
            bounds.exponential_gap(d.exponential(1.0), (5, 2))
        with pytest.raises(ValueError):
            bounds.exponential_gap(d.exponential(1.0), [2.7, 3.2])
