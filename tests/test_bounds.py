"""Tests for the entropy/extropy envelopes of sample maxima.

Each bound is pinned at hand-computed values, checked for ordering
against the measures across n-sweeps, and exercised at its known
equality and violation cases.
"""

import math
import re

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
    d.pareto(1.0, 2.0),
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

    def test_custom_grid(self):
        grid = np.linspace(0.05, 0.95, 51)
        report = bounds.envelope_check(d.uniform(1.0), grid=grid)
        assert report.bobkov_holds
        assert 0.05 <= report.bobkov_worst_t <= 0.95

    def test_rejects_grid_outside_open_interval(self):
        with pytest.raises(ValueError):
            bounds.envelope_check(d.uniform(1.0), grid=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            bounds.envelope_check(d.uniform(1.0), grid=np.array([]))


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

    def test_tolerance_is_configurable(self):
        study = bounds.exponential_gap(d.exponential(1.0), (2, 10), tol=1e-12)
        assert not study.attaining  # finite n cannot meet an impossible tol
        assert study.tol == 1e-12

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-4, True])
    def test_rejects_a_tolerance_that_is_not_a_positive_finite_real(self, tol):
        # an infinite tol would report pareto(1, 2) as attaining its ceilings
        with pytest.raises(ValueError, match="^tol must be a (positive finite )?real"):
            bounds.exponential_gap(d.pareto(1.0, 2.0), (2, 10), tol=tol)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            bounds.exponential_gap(d.exponential(1.0), ())
        with pytest.raises(ValueError):
            bounds.exponential_gap(d.exponential(1.0), (5, 2))
        with pytest.raises(ValueError):
            bounds.exponential_gap(d.exponential(1.0), [2.7, 3.2])
