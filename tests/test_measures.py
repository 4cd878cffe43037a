"""Tests for the entropy and extropy of sample maxima.

Closed forms are pinned against hand-derived values and against the
independent quadrature and Monte Carlo routes; the large-n limits,
scale laws, and degenerate cases are exercised for every family.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import special as sps

from extremal_info import bounds, canonical, distributions as d, evt, measures, numerics, special

GAMMA = np.euler_gamma


def H(n: int) -> float:
    return float(sps.digamma(n + 1) + GAMMA)


# ---------------------------------------------------------------------------
# MeasureValue plumbing
# ---------------------------------------------------------------------------


class TestMeasureValue:
    def test_fields(self):
        mv = measures.MeasureValue(1.5, "quadrature", 1e-12)
        assert mv.value == 1.5
        assert mv.method == "quadrature"
        assert mv.error_estimate == 1e-12

    def test_closed_form_has_no_error(self):
        with pytest.raises(ValueError):
            measures.MeasureValue(1.0, "closed_form", 0.1)

    def test_rejects_bad_method_and_error(self):
        with pytest.raises(ValueError):
            measures.MeasureValue(1.0, "guesswork")
        with pytest.raises(ValueError):
            measures.MeasureValue(1.0, "quadrature", -1e-3)

    @pytest.mark.parametrize(
        "alias, canonical_name",
        [
            ("closed", "closed_form"),
            ("closed_form", "closed_form"),
            ("quad", "quadrature"),
            ("quadrature", "quadrature"),
            ("mc", "monte_carlo"),
            ("monte_carlo", "monte_carlo"),
        ],
    )
    def test_method_aliases(self, alias, canonical_name):
        mv = measures.shannon_max(d.exponential(1.0), 2, method=alias, samples=500)
        assert mv.method == canonical_name

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            measures.shannon_max(d.exponential(1.0), 2, method="simpson")


class TestArgumentChecking:
    @pytest.mark.parametrize("bad_n", [0, -1, 2.5, True, "3"])
    def test_rejects_bad_n(self, bad_n):
        with pytest.raises((ValueError, TypeError)):
            measures.shannon_max(d.uniform(1.0), bad_n)

    def test_accepts_numpy_integers(self):
        mv = measures.shannon_max(d.uniform(1.0), np.int64(3))
        assert mv.value == pytest.approx(1.0 - math.log(3.0) - 1.0 / 3.0)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda n: measures.shannon_max(d.exponential(1.0), n),
            lambda n: measures.extropy_max(d.exponential(1.0), n),
            lambda n: bounds.shannon_bounds(d.exponential(1.0), n),
            lambda n: bounds.extropy_upper_envelope(d.exponential(1.0), n),
            lambda n: evt.norming_constants(d.exponential(1.0), n),
            lambda n: numerics.maximum_from_uniform(d.exponential(1.0), n, 0.5),
            lambda n: numerics.mc_entropy_max(d.exponential(1.0), n, samples=100),
            lambda n: special.harmonic(n),
        ],
        ids=[
            "shannon_max",
            "extropy_max",
            "shannon_bounds",
            "extropy_upper_envelope",
            "norming_constants",
            "maximum_from_uniform",
            "mc_entropy_max",
            "harmonic",
        ],
    )
    def test_one_integer_rule_everywhere(self, entry):
        entry(np.int64(3))
        for bad in (True, 2.5, np.array(3), 0):
            with pytest.raises(ValueError):
                entry(bad)


# ---------------------------------------------------------------------------
# Entropy closed forms
# ---------------------------------------------------------------------------


class TestShannonClosedForms:
    def test_single_draw_pins(self):
        # n = 1 reduces to the parent entropies
        assert measures.shannon_max(d.uniform(1.0), 1).value == pytest.approx(0.0, abs=1e-15)
        assert measures.shannon_max(d.exponential(1.0), 1).value == pytest.approx(1.0, abs=1e-15)
        assert measures.shannon_max(d.uniform(2.0), 1).value == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_exponential_n10(self):
        got = measures.shannon_max(d.exponential(1.0), 10).value
        assert got == pytest.approx(1.5263831609742078, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_uniform_formula(self, n, theta):
        want = 1.0 - math.log(n) - 1.0 / n + math.log(theta)
        got = measures.shannon_max(d.uniform(theta), n).value
        assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_logistic_formula(self, n):
        want = 1.0 - math.log(n) - math.log(2.0) + H(n)
        got = measures.shannon_max(d.logistic(2.0), n).value
        assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_pareto_formula(self, n):
        theta, nu = 2.0, 3.0
        want = (
            1.0
            + math.log(n) / nu
            - 1.0 / n
            - math.log(nu / theta)
            + (nu + 1.0) / nu * (H(n) - math.log(n))
        )
        got = measures.shannon_max(d.pareto(theta, nu), n).value
        assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_power_formula(self, n):
        theta, nu = 0.5, 2.0
        want = 1.0 - math.log(n) - math.log(nu * theta) - 1.0 / (nu * n)
        got = measures.shannon_max(d.power_function(theta, nu), n).value
        assert got == pytest.approx(want, abs=1e-13)

    def test_gev_formula(self):
        xi, n = 0.5, 4
        want = 1.0 + GAMMA + xi * GAMMA + xi * math.log(n)
        got = measures.shannon_max(d.gev(xi), n).value
        assert got == pytest.approx(want, abs=1e-13)

    def test_gumbel_entropy_is_n_free_shifted(self):
        # for xi = 0 the entropy of the maximum is 1 + gamma at every n
        for n in (1, 2, 50, 1000):
            got = measures.shannon_max(d.gev(0.0), n).value
            assert got == pytest.approx(1.0 + GAMMA, abs=1e-13)

    def test_exponential_entropy_increasing_and_bounded(self):
        theta = 2.0
        values = [measures.shannon_max(d.exponential(theta), n).value for n in range(1, 60)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1.0 - math.log(theta) + GAMMA for v in values)


# ---------------------------------------------------------------------------
# Extropy closed forms
# ---------------------------------------------------------------------------


class TestExtropyClosedForms:
    def test_single_draw_pins(self):
        assert measures.extropy_max(d.uniform(1.0), 1).value == pytest.approx(-0.5, abs=1e-15)
        assert measures.extropy_max(d.exponential(1.0), 1).value == pytest.approx(-0.25, abs=1e-15)
        assert measures.extropy_max(d.logistic(1.0), 1).value == pytest.approx(
            -1.0 / 12.0, abs=1e-15
        )

    def test_uniform_n2(self):
        assert measures.extropy_max(d.uniform(1.0), 2).value == pytest.approx(-2.0 / 3.0)

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_exponential_formula(self, n, theta):
        want = -n * theta / (4.0 * (2.0 * n - 1.0))
        got = measures.extropy_max(d.exponential(theta), n).value
        assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_logistic_formula(self, n):
        theta = 2.0
        want = -n * theta / (4.0 * (2.0 * n + 1.0))
        got = measures.extropy_max(d.logistic(theta), n).value
        assert got == pytest.approx(want, abs=1e-14)

    def test_pareto_beta_form(self):
        # J = -(nu n^2 / (2 theta)) B(2n-1, (2 nu + 1)/nu)
        theta, nu, n = 1.0, 2.0, 3
        want = -(nu * n * n / (2.0 * theta)) * sps.beta(2 * n - 1, (2 * nu + 1) / nu)
        got = measures.extropy_max(d.pareto(theta, nu), n).value
        assert got == pytest.approx(want, rel=1e-13)

    def test_gumbel_extropy_is_exactly_minus_eighth(self):
        for n in (1, 7, 300):
            assert measures.extropy_max(d.gev(0.0), n).value == pytest.approx(
                -0.125, abs=1e-15
            )

    @pytest.mark.parametrize("xi", [-1.5, -0.5, 0.5, 1.0])
    def test_gev_gamma_form(self, xi):
        n = 4
        want = -sps.gamma(xi + 2.0) / (2.0 ** (xi + 3.0) * n**xi)
        got = measures.extropy_max(d.gev(xi), n).value
        assert got == pytest.approx(want, rel=1e-13)

    def test_gev_extropy_domain_error_at_heavy_left_tail(self):
        with pytest.raises(ValueError):
            measures.extropy_max(d.gev(-2.0), 3)
        with pytest.raises(ValueError):
            measures.extropy_max(d.gev(-2.5), 1)

    def test_power_function_divergence_boundary(self):
        # 2 n nu <= 1 makes the squared density non-integrable
        assert measures.extropy_max(d.power_function(1.0, 0.5), 1).value == -math.inf
        got = measures.extropy_max(d.power_function(1.0, 0.5), 2).value
        assert got == pytest.approx(-0.5)

    def test_power_function_formula(self):
        theta, nu, n = 2.0, 3.0, 5
        want = -(n * n * nu * nu * theta) / (2.0 * (2.0 * n * nu - 1.0))
        got = measures.extropy_max(d.power_function(theta, nu), n).value
        assert got == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# Scale laws
# ---------------------------------------------------------------------------


SCALE_FAMILIES = [
    # (maker, entropy shift per theta, extropy factor per theta)
    (d.uniform, lambda th: math.log(th), lambda th: 1.0 / th),
    (d.exponential, lambda th: -math.log(th), lambda th: th),
    (d.logistic, lambda th: -math.log(th), lambda th: th),
    (lambda th: d.pareto(th, 2.0), lambda th: math.log(th), lambda th: 1.0 / th),
    (lambda th: d.power_function(th, 2.0), lambda th: -math.log(th), lambda th: th),
]


class TestScaleLaws:
    @pytest.mark.parametrize("maker, shift, factor", SCALE_FAMILIES)
    @pytest.mark.parametrize("theta", [0.25, 3.0])
    def test_entropy_shift_and_extropy_scale(self, maker, shift, factor, theta):
        for n in range(1, 21):
            base_h = measures.shannon_max(maker(1.0), n).value
            base_j = measures.extropy_max(maker(1.0), n).value
            got_h = measures.shannon_max(maker(theta), n).value
            got_j = measures.extropy_max(maker(theta), n).value
            assert got_h == pytest.approx(base_h + shift(theta), abs=1e-12)
            assert got_j == pytest.approx(base_j * factor(theta), rel=1e-12)


# ---------------------------------------------------------------------------
# Quadrature and Monte Carlo routes through the same API
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_grid():
    """The 300 quadrature integrals of crosscheck over catalog x TABLE_N, in
    table order: their results, each member's distinct panels and the
    distinct (n, measure, panel) weights."""
    integrate = numerics.integrate_panels
    results, weights, per_member, panels = [], set(), [], set()
    tag = {}
    routes = (("H", measures.shannon_max), ("J", measures.extropy_max))

    def recording(g, abs_tol):
        def seen(ts):
            panels.add(ts)
            weights.add((tag["n"], tag["measure"], ts))
            return g(ts)

        results.append(integrate(seen, abs_tol=abs_tol))
        return results[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "integrate_panels", recording)
        for member in canonical.catalog_members():
            panels.clear()
            for n in canonical.TABLE_N:
                tag["n"] = n
                for tag["measure"], route in routes:
                    route(member, n, "quadrature")
            per_member.append(len(panels))
    return {"results": results, "panels_per_member": per_member, "weights": len(weights)}


class TestAlternateRoutes:
    @pytest.mark.parametrize(
        "member",
        [d.uniform(2.0), d.exponential(0.5), d.pareto(1.0, 2.0), d.gev(-0.5)],
        ids=lambda m: m.label(),
    )
    @pytest.mark.parametrize("n", [1, 7])
    def test_quadrature_matches_closed(self, member, n):
        closed_h = measures.shannon_max(member, n)
        quad_h = measures.shannon_max(member, n, method="quad")
        assert quad_h.method == "quadrature"
        assert quad_h.error_estimate > 0.0
        assert abs(quad_h.value - closed_h.value) < 1e-9
        closed_j = measures.extropy_max(member, n)
        quad_j = measures.extropy_max(member, n, method="quad")
        assert abs(quad_j.value - closed_j.value) < 1e-9

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("member", canonical.catalog_members(), ids=lambda m: m.label())
    def test_quadrature_matches_public_api_integrand_bit_for_bit(
        self, member, cache, monkeypatch, quadrature_caches
    ):
        # The quadrature integrands take each panel's values from the
        # profile, log-profile and weight tables, filled from the family
        # record on nodes integrate_panels has checked; integrate_unit on the
        # point integrand of the public density_quantile must give the same
        # bits, with the node, profile and weight caches all cold or all warm.
        integrate = numerics.integrate_panels
        seen = []

        def recording(g, abs_tol):
            seen.append(integrate(g, abs_tol=abs_tol))
            return seen[-1]

        def key(q):
            return (q.value.hex(), q.error_estimate.hex(), q.evaluations)

        routes = (measures.shannon_max, measures.extropy_max)
        for n in canonical.TABLE_N:
            half_n2 = 0.5 * n * n
            public = (
                lambda y: n * y ** (n - 1) * math.log(d.density_quantile(member, y)),
                lambda t: -half_n2 * t ** (2 * n - 2) * d.density_quantile(member, t),
            )
            want = [key(numerics.integrate_unit(f)) for f in public]
            if cache == "warm":
                for route in routes:
                    route(member, n, "quadrature")
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(numerics, "integrate_panels", recording)
                for route in routes:
                    if cache == "cold":
                        for cached in quadrature_caches:
                            cached.cache_clear()
                    route(member, n, "quadrature")
            assert [key(q) for q in seen] == want, n

    def test_evaluations_on_the_table_grid(self, table_grid):
        # Pins the work of the 300 catalog x TABLE_N integrals, so that no
        # cache can change the adaptivity unnoticed.
        evals = [q.evaluations for q in table_grid["results"]]
        assert len(evals) == 300
        assert (sum(evals), min(evals), max(evals)) == (169_680, 345, 705)

    def test_cache_sizes_cover_the_table_grid_working_sets(self, table_grid):
        # Member-major, as tables and verify run: a profile table must hold
        # one member's panels, the weight table every (n, measure, panel) of
        # the grid, and neither profile table the whole catalog's panels.
        per_member = table_grid["panels_per_member"]
        weights = table_grid["weights"]
        assert (max(per_member), sum(per_member), weights) == (59, 1544, 418)
        for cached in (measures._profile, measures._log_profile):
            assert max(per_member) <= cached.cache_info().maxsize < sum(per_member)
        assert weights <= measures._weight.cache_info().maxsize

    @pytest.mark.parametrize("route", ["shannon_max", "extropy_max"])
    def test_a_raising_profile_leaves_no_cache_entry(self, route, monkeypatch):
        record = d.REGISTRY["exponential"]
        calls = []

        def profile(dist, t):
            calls.append(t)
            if t > 0.99:
                raise FloatingPointError(f"profile refused t={t!r}")
            return record.density_quantile(dist, t)

        monkeypatch.setitem(
            d.REGISTRY, "exponential", dataclasses.replace(record, density_quantile=profile)
        )
        member = d.exponential(3.25)  # no other test caches a panel of this member
        messages = []
        for _ in range(2):
            start = len(calls)
            with pytest.raises(FloatingPointError) as excinfo:
                getattr(measures, route)(member, 2, "quadrature")
            messages.append(str(excinfo.value))
            # the failing panel is evaluated again: it left no entry
            assert calls[start:] and calls[-1] > 0.99
        assert messages[0] == messages[1]

    def test_quadrature_detects_extropy_divergence(self):
        member = d.power_function(1.0, 0.5)
        with pytest.raises(numerics.QuadratureError):
            measures.extropy_max(member, 1, method="quad")

    def test_quadrature_fails_at_once_on_overflowing_profile(self, quadrature_caches):
        # nu = 0.3: I(t) = 0.3 t^(-7/3) overflows to inf near t = 0 and J = -inf.
        # The second call takes those inf values from the profile table and
        # must fail the same way after the same work.
        member = d.power_function(1.0, 0.3)
        assert measures.extropy_max(member, 1).value == -math.inf
        for cached in quadrature_caches:
            cached.cache_clear()
        outcomes = []
        for _ in range(2):
            with pytest.raises(numerics.QuadratureError) as excinfo:
                measures.extropy_max(member, 1, method="quad")
            outcomes.append((str(excinfo.value), excinfo.value.best.evaluations))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].startswith("integrand non-finite for t in [5.70904e-171, ")
        assert outcomes[0][1] < 1000
        first_panel = numerics._panel_nodes(-392.0, -192.0)[0]
        hits = measures._profile.cache_info().hits
        assert math.inf in measures._profile(member, first_panel)
        assert measures._profile.cache_info().hits == hits + 1

    def test_monte_carlo_route(self):
        member = d.logistic(1.0)
        mv = measures.shannon_max(member, 3, method="mc", samples=40_000, seed=11)
        assert mv.method == "monte_carlo"
        closed = measures.shannon_max(member, 3).value
        assert abs(mv.value - closed) <= 4.0 * mv.error_estimate

    def test_crosscheck_keys_and_gaps(self):
        chk = measures.crosscheck(d.exponential(1.0), 5)
        assert set(chk) == {"h_closed", "h_quad", "h_gap", "j_closed", "j_quad", "j_gap"}
        assert chk["h_gap"] < 1e-9
        assert chk["j_gap"] < 1e-9


# ---------------------------------------------------------------------------
# Large-n limits
# ---------------------------------------------------------------------------


class TestLimits:
    def test_shannon_limits(self):
        assert measures.shannon_limit(d.uniform(1.0)) == -math.inf
        assert measures.shannon_limit(d.power_function(1.0, 2.0)) == -math.inf
        assert measures.shannon_limit(d.pareto(1.0, 2.0)) == math.inf
        for theta in (0.5, 1.0, 2.0):
            want = 1.0 - math.log(theta) + GAMMA
            assert measures.shannon_limit(d.exponential(theta)) == pytest.approx(want)
            assert measures.shannon_limit(d.logistic(theta)) == pytest.approx(want)

    def test_gev_shannon_limits_follow_shape_sign(self):
        assert measures.shannon_limit(d.gev(0.5)) == math.inf
        assert measures.shannon_limit(d.gev(-0.5)) == -math.inf
        assert measures.shannon_limit(d.gev(0.0)) == pytest.approx(1.0 + GAMMA)

    def test_extropy_limits(self):
        assert measures.extropy_limit(d.uniform(1.0)) == -math.inf
        assert measures.extropy_limit(d.power_function(1.0, 2.0)) == -math.inf
        for theta in (0.5, 2.0):
            assert measures.extropy_limit(d.exponential(theta)) == pytest.approx(-theta / 8.0)
            assert measures.extropy_limit(d.logistic(theta)) == pytest.approx(-theta / 8.0)
        assert measures.extropy_limit(d.gev(0.0)) == pytest.approx(-0.125)
        assert measures.extropy_limit(d.gev(-0.5)) == -math.inf

    def test_gev_heavy_tail_extropy_vanishes_from_below(self):
        limit = measures.extropy_limit(d.gev(0.5))
        assert limit == 0.0
        assert math.copysign(1.0, limit) == -1.0  # negative zero: J < 0 always

    def test_pareto_extropy_limit_indeterminate(self):
        limit = measures.extropy_limit(d.pareto(1.0, 2.0))
        assert measures.is_indeterminate(limit)
        assert repr(limit) == "indeterminate"
        assert limit is measures.INDETERMINATE

    def test_pareto_extropy_sequence_vanishes_from_below(self):
        # the n -> inf limit is 0 x (-inf) in the written form; the measure
        # itself tends to zero through negative values
        member = d.pareto(1.0, 2.0)
        previous = -math.inf
        for n in (10**3, 10**4, 10**5, 10**7):
            value = measures.extropy_max(member, n).value
            assert previous < value < 0.0
            previous = value
        # decay rate is n^(-1/nu)
        assert abs(value) == pytest.approx(sps.gamma(2.5) / (2.0**2.5 * 10**3.5), rel=1e-3)

    def test_indeterminate_is_not_spuriously_equal(self):
        assert not measures.is_indeterminate(0.0)
        assert not measures.is_indeterminate(math.nan)


# ---------------------------------------------------------------------------
# Normalized measures (norming covered in depth by the evt tests)
# ---------------------------------------------------------------------------


class TestNormalized:
    def test_exponential_extropy_at_n1(self):
        got = measures.extropy_normalized(d.exponential(2.0), 1)
        assert got.value == pytest.approx(-0.25, abs=1e-14)

    def test_exponential_entropy_shift(self):
        # normalization by a_n = 1/theta shifts entropy by +ln a_n... i.e.
        # H((X - b)/a) = H(X) - ln a
        member = d.exponential(4.0)
        n = 6
        raw = measures.shannon_max(member, n).value
        got = measures.shannon_normalized(member, n).value
        assert got == pytest.approx(raw - math.log(0.25), abs=1e-13)

    def test_converges_toward_gumbel_targets(self):
        member = d.exponential(1.0)
        h = measures.shannon_normalized(member, 10**6).value
        j = measures.extropy_normalized(member, 10**6).value
        assert h == pytest.approx(1.0 + GAMMA, abs=1e-5)
        assert j == pytest.approx(-0.125, abs=1e-5)
