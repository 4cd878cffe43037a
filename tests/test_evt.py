"""Tests for domain classification, norming constants, and convergence.

The norming sequences are pinned against hand-derived constants and
validated distributionally: the CDF of the normalized maximum must
approach the classified limit law on a quantile grid.
"""

import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from extremal_info import canonical, distributions as d, evt, measures, special

GAMMA = np.euler_gamma


# ---------------------------------------------------------------------------
# Domain classification
# ---------------------------------------------------------------------------


class TestClassification:
    @pytest.mark.parametrize(
        "member, domain, xi",
        [
            (d.exponential(0.5), "gumbel", 0.0),
            (d.logistic(2.0), "gumbel", 0.0),
            (d.uniform(1.0), "reversed_weibull", -1.0),
            (d.power_function(2.0, 3.0), "reversed_weibull", -1.0),
            (d.pareto(1.0, 2.0), "frechet", 0.5),
            (d.pareto(2.0, 1.0), "frechet", 1.0),
            (d.gev(0.0), "gumbel", 0.0),
            (d.gev(0.25), "frechet", 0.25),
            (d.gev(-0.5), "reversed_weibull", -0.5),
            # only a subnormal shape is in the Gumbel window
            (d.gev(1e-310), "gumbel", 0.0),
            (d.gev(1e-12), "frechet", 1e-12),
            (d.gev(-1e-9), "reversed_weibull", -1e-9),
        ],
    )
    def test_domains_and_shapes(self, member, domain, xi):
        got_domain, got_xi = evt.mda_classify(member)
        assert got_domain == domain
        assert got_xi == pytest.approx(xi, abs=1e-15)

    def test_power_function_boundary_density_fixes_the_shape(self):
        # the density is positive and finite at the finite right endpoint
        # for every nu, so the shape is -1 regardless of nu
        for nu in (0.5, 1.0, 2.0, 5.0):
            member = d.power_function(1.0, nu)
            _, hi = member.support
            assert 0.0 < d.pdf(member, hi) < math.inf
            assert evt.mda_classify(member) == ("reversed_weibull", -1.0)

    def test_an_index_that_overflows_is_declined(self):
        # 1/nu overflows to inf for a subnormal pareto tail index
        member = d.pareto(1.0, 1e-309)
        with pytest.raises(ValueError, match="xi must be a finite real"):
            evt.mda_classify(member)
        with pytest.raises(ValueError, match="xi must be a finite real"):
            evt.norming_constants(member, 1)


# ---------------------------------------------------------------------------
# Norming constants
# ---------------------------------------------------------------------------


class TestNormingConstants:
    def test_exponential_pins(self):
        nc = evt.norming_constants(d.exponential(2.0), 100)
        assert nc.a_n == pytest.approx(0.5, abs=1e-15)
        assert nc.b_n == pytest.approx(math.log(100.0) / 2.0, abs=1e-13)
        assert nc.domain == "gumbel"

    def test_uniform_pins(self):
        nc = evt.norming_constants(d.uniform(1.0), 10)
        assert nc.a_n == pytest.approx(0.1, abs=1e-15)
        # b_n = U(n) = theta - theta/n, so (X_(n) - b_n)/a_n tends to GEV(-1)
        assert nc.b_n == 0.9
        assert nc.domain == "reversed_weibull"
        assert nc.xi == -1.0

    def test_pareto_pins(self):
        # b_n = U(n) = theta n^(1/nu) and a_n = xi U(n): the GEV(1/nu) norming
        nc = evt.norming_constants(d.pareto(1.0, 2.0), 16)
        assert (nc.a_n, nc.b_n) == (2.0, 4.0)
        assert nc.domain == "frechet"

    def test_power_function_shrinking_scale(self):
        member = d.power_function(1.0, 2.0)
        nc = evt.norming_constants(member, 4)
        # a_n = (1 - (1 - 1/n)^(1/nu)) / theta = x* - U(n), b_n = U(n)
        assert nc.a_n == pytest.approx(1.0 - math.sqrt(0.75), rel=1e-13)
        assert nc.b_n == pytest.approx(math.sqrt(0.75), rel=1e-15)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("nu", [0.3, 1.0, 2.0])
    def test_power_function_at_n1(self, theta, nu):
        # a_1 = (1 - 0^(1/nu))/theta and b_1 = U(1) = 0, the left endpoint:
        # the maximum of one draw needs no norming beyond the scale of the support
        nc = evt.norming_constants(d.power_function(theta, nu), 1)
        assert (nc.a_n, nc.b_n, nc.xi) == (1.0 / theta, 0.0, -1.0)
        if nu == 1.0:
            assert nc == evt.norming_constants(d.uniform(1.0 / theta), 1)

    def test_power_function_beyond_n1_keeps_its_recipe_bit_for_bit(self):
        for theta, nu in ((0.5, 0.3), (1.0, 1.0), (2.0, 3.0)):
            member = d.power_function(theta, nu)
            for n in (2, 3, 10, 5000, 10**9):
                a = -math.expm1(math.log1p(-1.0 / n) / nu) / theta
                assert evt.norming_constants(member, n).a_n == a

    def test_logistic_matches_analytic_ratio(self):
        # the 1 - 1/n quantile recipe reduces to a_n = n / ((n-1) theta)
        theta = 2.0
        member = d.logistic(theta)
        for n in (2, 5, 100, 10_000):
            nc = evt.norming_constants(member, n)
            assert nc.a_n == pytest.approx(n / ((n - 1.0) * theta), rel=1e-9)
            assert nc.b_n == pytest.approx(math.log(n - 1.0) / theta, rel=1e-9)

    def test_logistic_degenerate_at_n1(self):
        with pytest.raises(ValueError, match=r"logistic family are undefined at n=1 "):
            evt.norming_constants(d.logistic(1.0), 1)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_logistic_matches_the_public_functions_bit_for_bit(self, theta):
        # the recipe composed from the public quantile, cdf and log_pdf
        member = d.logistic(theta)
        for n in (2, 3, 10, 5000, 10**6, 10**9, 2**53, 2**54 - 2):
            u = d.quantile(member, 1.0 - 1.0 / n)
            a = math.exp(math.log1p(-d.cdf(member, u)) - d.log_pdf(member, u))
            nc = evt.norming_constants(member, n)
            assert (nc.a_n, nc.b_n) == (a, u)

    @pytest.mark.parametrize("n", [2**54, 10**17, 10**20])
    def test_logistic_declines_where_the_quantile_level_rounds_to_one(self, n):
        # 1 - 1/n == 1.0 here; the decline names the norming and n, and is
        # not a divide-by-zero warning from log1p
        assert 1.0 - 1.0 / n == 1.0
        message = (
            f"norming constants for the logistic family are undefined at n={n} "
            "(1 - 1/n must round to a level strictly inside (0, 1))"
        )
        record = d.REGISTRY["logistic"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as scalar:
                evt.norming_constants(d.logistic(1.0), n)
            with pytest.raises(ValueError) as array:
                record.norming(d.logistic(1.0), np.array([2, n, 10 * n], dtype=object))
        assert str(scalar.value) == str(array.value) == message

    @pytest.mark.xfail(
        strict=True,
        reason="1 - F(u) is taken by cancellation, so a_n loses digits as n grows "
        "(1.1e-4 relative at n = 1e12); a stable form changes the logistic converge "
        "goldens and waits for the reference-pinned golden policy (ROADMAP item 1)",
    )
    def test_logistic_scale_is_accurate_at_large_n(self):
        n, theta = 10**12, 1.0
        exact = n / ((n - 1) * theta)
        assert evt.norming_constants(d.logistic(theta), n).a_n == pytest.approx(exact, rel=1e-12)

    def test_gumbel_member_is_exactly_max_stable(self):
        nc = evt.norming_constants(d.gev(0.0), 50)
        assert nc.a_n == 1.0
        assert nc.b_n == math.log(50.0)

    def test_gev_members_pin(self):
        nc = evt.norming_constants(d.gev(0.5), 4)
        assert nc.a_n == pytest.approx(2.0, abs=1e-15)
        assert nc.b_n == pytest.approx(2.0, abs=1e-14)
        nc = evt.norming_constants(d.gev(-1.0), 8)
        assert nc.a_n == pytest.approx(0.125, abs=1e-16)
        assert nc.b_n == pytest.approx(0.875, abs=1e-15)

    def test_n1_is_identity_where_defined(self):
        for member in (d.exponential(1.0), d.uniform(1.0), d.gev(0.3)):
            nc = evt.norming_constants(member, 1)
            x = np.array([0.3, 1.7])
            same = evt.normalized_maximum_cdf(member, 1, x)
            assert np.allclose(same, d.cdf(member, nc.a_n * x + nc.b_n), atol=1e-15)

    @pytest.mark.parametrize(
        "entry", [evt.norming_constants, measures.shannon_normalized, measures.extropy_normalized]
    )
    def test_an_overflowing_record_is_named(self, entry):
        # a_n = n^100 is past the double range at n = 10^6
        with pytest.raises(OverflowError) as excinfo:
            entry(d.gev(100.0), 10**6)
        assert str(excinfo.value) == "norming constants for gev(xi=100) overflow the double range at n=1000000"

    @pytest.mark.parametrize(
        "member, grid, n, error, way, study",
        [
            # a_n = 100 n^100 is finite at n = 1154 and inf from n = 1155
            (d.pareto(1.0, 0.01), (1154, 1155, 1156), 1155, OverflowError, "overflow", None),
            # a_n = 1/theta is inf at every n
            (d.exponential(1e-320), (3, 4), 3, OverflowError, "overflow", None),
            # a_n = theta/n is subnormal at n = 1000 and 0 at n = 10^6; J at
            # n = 1000, about -2.5e322, lies beyond the doubles, so the study
            # names that first
            (
                d.uniform(1e-320),
                (1000, 10**6),
                10**6,
                ValueError,
                "underflow",
                "extropy of the maximum of n=1000 draws from uniform(theta=9.99989e-321) is -e^742.349, "
                "beyond the double range",
            ),
        ],
        ids=["pareto", "exponential", "uniform"],
    )
    def test_an_a_n_that_float_arithmetic_takes_to_inf_or_0_is_named(self, member, grid, n, error, way, study):
        message = f"norming constants for {member.label()} {way} the double range at n={n}"
        for entry in (evt.norming_constants, measures.shannon_normalized, measures.extropy_normalized):
            with pytest.raises(error) as excinfo:
                entry(member, n)
            assert str(excinfo.value) == message
        # the study replays the scalar path, which names the grid's first failing n
        with pytest.raises(OverflowError if study else error) as excinfo:
            evt.convergence_study(member, grid)
        assert str(excinfo.value) == (study or message)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            evt.norming_constants(d.exponential(1.0), 0)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNormingValidation:
    def test_scale_must_be_positive_finite(self):
        with pytest.raises(ValueError):
            evt.NormingConstants(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            evt.NormingConstants(math.inf, 0.0, 0.0)

    @pytest.mark.parametrize(
        "xi, domain",
        [(0.0, "gumbel"), (-0.0, "gumbel"), (0.3, "frechet"), (5e-324, "frechet"),
         (-0.5, "reversed_weibull"), (-2.5, "reversed_weibull")],
    )
    def test_domain_follows_the_sign_of_xi(self, xi, domain):
        assert evt.NormingConstants(1.0, 0.0, xi).domain == domain

    @pytest.mark.parametrize("xi", NON_FINITE)
    def test_non_finite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match="xi must be a finite real"):
            evt.NormingConstants(1.0, 0.0, xi)


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------


class TestLimitCdf:
    def test_gumbel_form(self):
        xs = np.array([-1.0, 0.0, 2.5])
        got = evt.limit_cdf(0.0, xs)
        assert np.allclose(got, np.exp(-np.exp(-xs)), atol=1e-15)

    @pytest.mark.parametrize("xi", [-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0])
    def test_is_the_gev_cdf_bit_for_bit(self, xi):
        # the one limit law: GEV(xi), on both sides of each endpoint -1/xi
        member = d.gev(xi)
        xs = np.array([-40.0, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 40.0])
        got = evt.limit_cdf(xi, xs)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, d.cdf(member, xs))
        for x in xs:
            value = evt.limit_cdf(xi, float(x))
            assert type(value) is float
            assert value == d.cdf(member, float(x))

    @pytest.mark.parametrize("xi", [5e-324, 1e-310, -1e-310])
    def test_a_shape_in_the_gumbel_window_is_gumbel(self, xi):
        # the window is the subnormals, where xi x loses its bits
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        assert np.array_equal(evt.limit_cdf(xi, xs), evt.limit_cdf(0.0, xs))

    @pytest.mark.parametrize("xi", [1e-9, -1e-9, 1e-12, -1e-12])
    def test_a_shape_near_zero_is_its_own_law_against_mpmath(self, xi):
        # outside the window the exact GEV(xi) law holds: exp(-w) with w =
        # (1 + xi x)^(-1/xi) = exp(-log1p(xi x)/xi), whose relative rounding
        # the cdf carries w times over (w is about 148 at x = -5); inside
        # the old window |xi| < 1e-8 it was 1.9e-6 off at x = -5
        xs = [-5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 20.0]
        got = evt.limit_cdf(xi, np.array(xs))
        with mpmath.workdps(40):
            for x, value in zip(xs, got.tolist()):
                w = mpmath.exp(-mpmath.log1p(mpmath.mpf(xi) * x) / xi)
                want = float(mpmath.exp(-w))
                assert value == pytest.approx(want, rel=2e-15 * max(1.0, float(w)), abs=0.0), x

    @pytest.mark.parametrize("xi", NON_FINITE)
    def test_non_finite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match="xi must be a finite real"):
            evt.limit_cdf(xi, 1.0)


@pytest.mark.parametrize("n", [1, 2, 50, 10**6, 10**12])
@pytest.mark.parametrize("xi", [1e-9, -1e-9, 1e-15, -1e-15, 1e-300, -1e-300])
def test_near_gumbel_measures_and_norming_against_mpmath(xi, n):
    # H = 1 + gamma (1 + xi) + xi ln n, J = -Gamma(xi + 2)/(2^(xi+3) n^xi),
    # a_n = n^xi and b_n = (n^xi - 1)/xi, each within 1e-15 of mpmath at 50
    # digits; inside the old window |xi| < 1e-8 they were the xi = 0 values
    member = d.gev(xi)
    with mpmath.workdps(50):
        x, ln_n = mpmath.mpf(xi), mpmath.log(n)
        wants = (
            1 + mpmath.euler * (1 + x) + x * ln_n,
            -mpmath.gamma(x + 2) / (2 ** (x + 3) * mpmath.exp(x * ln_n)),
            mpmath.exp(x * ln_n),
            mpmath.expm1(x * ln_n) / x,
        )
    norming = evt.norming_constants(member, n)
    gots = (measures.shannon_max(member, n).value, measures.extropy_max(member, n).value, norming.a_n, norming.b_n)
    for got, want in zip(gots, map(float, wants)):
        assert got == want or abs(got - want) <= 1e-15 * abs(want), (got, want)


class TestTargets:
    def test_targets_at_zero_are_the_gumbel_targets(self):
        assert evt.limiting_targets(0.0) == (1.0 + GAMMA, -0.125)

    @pytest.mark.parametrize("xi", [-1.0, -0.5, 0.0, 0.5])
    def test_limiting_targets_match_single_draw_measures(self, xi):
        h, j = evt.limiting_targets(xi)
        assert h == pytest.approx(measures.shannon_max(d.gev(xi), 1).value, abs=1e-14)
        assert j == pytest.approx(measures.extropy_max(d.gev(xi), 1).value, abs=1e-14)

    def test_heavy_left_tail_extropy_target_is_minus_inf(self):
        h, j = evt.limiting_targets(-2.5)
        assert j == -math.inf
        assert math.isfinite(h)


# ---------------------------------------------------------------------------
# Distributional convergence of the normalized maximum
# ---------------------------------------------------------------------------


class TestDistributionalConvergence:
    N = 10_000

    @pytest.mark.parametrize(
        "member",
        [m for m in canonical.catalog_members() if m.family != "gev"],
        ids=lambda m: m.label(),
    )
    def test_normalized_cdf_near_limit_law(self, member):
        _, xi = evt.mda_classify(member)
        grid = d.quantile(d.gev(xi), np.arange(1, 22) / 22.0)
        got = evt.normalized_maximum_cdf(member, self.N, grid)
        want = evt.limit_cdf(xi, grid)
        assert np.max(np.abs(got - want)) < 0.01

    @pytest.mark.parametrize("xi", [-0.5, 0.0, 0.5])
    def test_gev_members_are_max_stable(self, xi):
        # for GEV parents the normalized maximum has exactly the parent law
        member = d.gev(xi)
        lo, hi = member.support
        grid = np.linspace(max(lo, -3.0) + 0.05, min(hi, 6.0) - 0.05, 21)
        for n in (2, 10, 1000):
            got = evt.normalized_maximum_cdf(member, n, grid)
            assert np.max(np.abs(got - d.cdf(member, grid))) < 1e-12


# ---------------------------------------------------------------------------
# Convergence studies of the information measures
# ---------------------------------------------------------------------------


PARITY_MEMBERS = canonical.catalog_members() + (d.gev(-2.5), d.gev(1e-9), d.gev(-1.9))
PARITY_GRID = [*range(1, 3001), 10**4, 10**4 + 1, 10**5, 10**6, 10**7, 10**9]
# held as Python ints: n * n leaves int64, and 2**53 + 1 has no float64
HUGE_GRID = [2, 10**9, 2**53 + 1, 10**20]
# held as Python ints past the doubles, where float(n) raises
PAST_GRID = [2, 10**19, 2**1024, 10**400]


def _bits(values, size):
    return [float(v).hex() for v in np.broadcast_to(np.asarray(values, dtype=float), size)]


def _assert_array_call_is_the_scalar_calls(fn, grid):
    # an array gives the bits of the scalar calls, and raises what the first
    # failing scalar call raises; without the failing n it gives their bits
    want, first_error = {}, None
    for n in grid:
        try:
            want[n] = fn(n)
        except (ArithmeticError, ValueError) as exc:
            first_error = first_error or exc
    if first_error is not None:
        with pytest.raises(type(first_error)) as raised:
            fn(special._check_n_grid(grid, "test"))
        assert str(raised.value) == str(first_error)
    if want:
        got = fn(special._check_n_grid(list(want), "test"))
        pairs = isinstance(got, tuple)
        for k in range(2 if pairs else 1):
            column = [v[k] for v in want.values()] if pairs else list(want.values())
            assert _bits(got[k] if pairs else got, len(want)) == _bits(column, len(want))


class TestRecordsOnAnArray:
    @pytest.mark.parametrize("grid", [PARITY_GRID, HUGE_GRID], ids=["parity", "huge"])
    @pytest.mark.parametrize("fact", ["shannon", "extropy", "norming"])
    @pytest.mark.parametrize("member", PARITY_MEMBERS, ids=lambda m: m.label())
    def test_gives_the_bits_of_the_scalar_calls(self, member, fact, grid):
        record_fn = getattr(d.REGISTRY[member.family], fact)
        _assert_array_call_is_the_scalar_calls(lambda n: record_fn(member, n), grid)

    @pytest.mark.parametrize("grid", [PARITY_GRID, HUGE_GRID, PAST_GRID], ids=["parity", "huge", "past"])
    def test_harmonic_gives_the_bits_of_the_scalar_calls(self, grid):
        _assert_array_call_is_the_scalar_calls(special.harmonic, grid)

    @pytest.mark.parametrize(
        "bad, first",
        [(np.array([3, 0, -1]), 0), (np.array([2.0, 3.0]), np.float64(2.0)), (np.array([True]), np.True_)],
    )
    def test_harmonic_names_the_first_offending_element(self, bad, first):
        with pytest.raises(ValueError) as want:
            special.harmonic(first)
        with pytest.raises(ValueError) as got:
            special.harmonic(bad)
        assert str(got.value) == str(want.value)


class TestConvergenceStudy:
    GRID = (10, 100, 1000, 10_000, 100_000, 1_000_000)

    @pytest.mark.parametrize("member", canonical.catalog_members(), ids=lambda m: m.label())
    def test_a_grid_past_the_doubles_is_the_scalar_path(self, member):
        # n past the doubles, which float arithmetic cannot take: the study
        # gives the normalized measures' scalar values at each n, or raises
        # the named error of that path at its first failing n
        grid = [2, 10**19, 10**400]
        try:
            want = [
                (measures.shannon_normalized(member, n).value, measures.extropy_normalized(member, n).value)
                for n in grid
            ]
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                evt.convergence_study(member, grid)
            return
        study = evt.convergence_study(member, grid)
        assert [(r.h_normalized, r.j_normalized) for r in study.records] == want

    @pytest.mark.parametrize(
        "member", [d.exponential(1.0), d.logistic(2.0), d.gev(0.0)], ids=lambda m: m.label()
    )
    def test_a_study_within_the_table_reads_ln_n_from_it(self, member, monkeypatch):
        # ln n on range(2, 5001) is read from the table of math.log(k), not
        # taken by libm element by element: with a table of nan, every H is nan
        table = np.full_like(special._log_table(), math.nan)
        monkeypatch.setattr(special, "_log_table", lambda: table)
        study = evt.convergence_study(member, range(2, 5001))
        assert np.isnan(study.h_normalized).all()

    def test_exponential_reaches_gumbel_targets(self):
        study = evt.convergence_study(d.exponential(1.0), self.GRID)
        assert study.domain == "gumbel"
        assert not study.extension_targets
        last = study.records[-1]
        assert last.h_target == pytest.approx(1.0 + GAMMA)
        assert last.j_target == -0.125
        assert last.h_gap < 1e-5
        assert last.j_gap < 1e-5
        assert study.burn_in_index == 0

    def test_logistic_reaches_gumbel_targets(self):
        study = evt.convergence_study(d.logistic(1.0), self.GRID)
        last = study.records[-1]
        assert last.h_gap < 1e-4
        assert last.j_gap < 1e-4

    def test_uniform_reaches_reversed_weibull_targets(self):
        study = evt.convergence_study(d.uniform(1.0), self.GRID)
        assert study.domain == "reversed_weibull"
        assert study.extension_targets  # targets extend the Gumbel statement
        last = study.records[-1]
        assert last.h_target == pytest.approx(1.0)  # H of the xi = -1 member
        assert last.j_target == pytest.approx(-0.25)
        assert last.h_gap < 1e-4
        assert last.j_gap < 1e-4

    def test_gaps_monotone_beyond_burn_in(self):
        study = evt.convergence_study(d.logistic(2.0), self.GRID)
        i = study.burn_in_index
        hs = [r.h_gap for r in study.records[i:]]
        js = [r.j_gap for r in study.records[i:]]
        assert all(a >= b for a, b in zip(hs, hs[1:]))
        assert all(a >= b for a, b in zip(js, js[1:]))

    def test_gev_member_is_exact_at_every_n(self):
        study = evt.convergence_study(d.gev(0.0), (1, 2, 10, 1000))
        for record in study.records:
            assert record.h_gap == 0.0
            assert record.j_gap == 0.0

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0])
    def test_pareto_gap_closes_at_rate_one_over_n(self, nu):
        # normed to GEV(1/nu), the entropy gap closes like (xi - 1)/(2n)
        xi = 1.0 / nu
        study = evt.convergence_study(d.pareto(1.0, nu), (10**4, 10**5))
        for record in study.records:
            rate = record.n * (record.h_normalized - record.h_target)
            assert rate == pytest.approx((xi - 1.0) / 2.0, abs=1e-3)
        assert study.records[0].j_gap < 1e-4

    def test_records_are_slotted_and_frozen(self):
        record = evt.convergence_study(d.exponential(1.0), (10,)).records[0]
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.h_gap = 0.0

    def test_record_fields_consistent(self):
        study = evt.convergence_study(d.exponential(2.0), (10, 100))
        for record in study.records:
            want_h = abs(
                measures.shannon_normalized(d.exponential(2.0), record.n).value
                - record.h_target
            )
            assert record.h_gap == pytest.approx(want_h, abs=1e-15)

    @pytest.mark.parametrize("member", PARITY_MEMBERS, ids=lambda m: m.label())
    def test_records_equal_the_public_normalized_measures(self, member):
        # the study applies the transformation law to the record itself;
        # it must give the bits of shannon_normalized / extropy_normalized,
        # and raise as they do where they raise
        want, first_error = {}, None
        for n in PARITY_GRID:
            try:
                want[n] = (
                    measures.shannon_normalized(member, n).value,
                    measures.extropy_normalized(member, n).value,
                )
            except ValueError as exc:
                first_error = first_error or exc
        if first_error is not None:
            with pytest.raises(type(first_error)) as raised:
                evt.convergence_study(member, PARITY_GRID)
            assert str(raised.value) == str(first_error)
        if want:
            study = evt.convergence_study(member, list(want))
            got = {r.n: (r.h_normalized, r.j_normalized) for r in study.records}
            assert got == want

    @pytest.mark.parametrize(
        "member, grid",
        [
            # a_n overflows from n = 1155, n^100 from n = 1210
            (d.pareto(1.0, 0.01), range(2, 5001)),
            # n^170 overflows from n = 66
            (d.gev(170.0), range(2, 200)),
            # a_n underflows to 0 at n = 2, but J at n = 1 is -inf already
            (d.gev(-1e300), [1, 2]),
        ],
        ids=["pareto(1, 0.01)", "gev(170)", "gev(-1e300)"],
    )
    def test_raises_what_the_first_failing_n_raises(self, member, grid):
        # on the array each stage raises at its own first failing element;
        # the study raises what the public measures raise at the first n
        with pytest.raises((ArithmeticError, ValueError)) as want:
            for n in grid:
                measures.shannon_normalized(member, n)
                measures.extropy_normalized(member, n)
        with pytest.raises(type(want.value)) as got:
            evt.convergence_study(member, grid)
        assert str(got.value) == str(want.value)

    def test_reads_the_record_not_the_measures(self, monkeypatch):
        # one closed-form read per n: the public measures serve only the
        # limiting targets
        calls = {"shannon_max": 0, "extropy_max": 0}

        def counting(name):
            original = getattr(measures, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(measures, name, counting(name))
        study = evt.convergence_study(d.exponential(1.0), range(1, 5001))
        assert len(study.records) == 5000
        assert calls["shannon_max"] <= 1
        assert calls["extropy_max"] <= 1

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_a_bad_scale_raises_as_norming_constants_does(self, monkeypatch, bad):
        # the study checks each a_n by the rule norming_constants applies,
        # which names an a_n of 0 or inf
        record = d.REGISTRY["exponential"]

        def norming(dist, n):
            # an array for an array n, a Python float for a scalar n, as
            # the Family contract asks
            a_n = np.where(n == 3, bad, record.norming(dist, n)[0])
            return (a_n if isinstance(n, np.ndarray) else float(a_n)), 0.0

        monkeypatch.setitem(d.REGISTRY, "exponential", dataclasses.replace(record, norming=norming))
        with pytest.raises((OverflowError, ValueError)) as want:
            evt.norming_constants(d.exponential(1.0), 3)
        with pytest.raises(want.type) as got:
            evt.convergence_study(d.exponential(1.0), (2, 3, 4))
        assert str(got.value) == str(want.value)

    def test_builds_no_norming_constants(self, monkeypatch):
        built = []
        check = evt.NormingConstants.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(evt.NormingConstants, "__post_init__", counting)
        study = evt.convergence_study(d.exponential(1.0), range(1, 5001))
        assert len(study.records) == 5000
        assert built == []

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            evt.convergence_study(d.exponential(1.0), ())
        with pytest.raises(ValueError):
            evt.convergence_study(d.exponential(1.0), (10, 10))
        with pytest.raises(ValueError):
            evt.convergence_study(d.exponential(1.0), (100, 10))
        with pytest.raises(ValueError):
            evt.convergence_study(d.exponential(1.0), (0, 10))
        # non-integer entries are rejected, not truncated to n = 2, 3
        with pytest.raises(ValueError):
            evt.convergence_study(d.exponential(1.0), [2.7, 3.2])
