"""Tests for the quadrature, sampling, and Monte Carlo oracles.

The adaptive integrator is validated against scipy.integrate.quad and
against closed forms; the samplers against exact quantile identities,
a Kolmogorov-Smirnov comparison, and a 100-replication calibration of
the reported standard errors.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from extremal_info import canonical, distributions, measures, numerics, special


class TestIntegrateUnit:
    def test_constant_one(self):
        res = numerics.integrate_unit(lambda t: 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.error_estimate >= 0.0
        assert res.evaluations > 0

    @pytest.mark.parametrize(
        "f, truth",
        [
            (lambda t: t, 0.5),
            (lambda t: t * t, 1.0 / 3.0),
            (math.log, -1.0),
            (lambda t: math.log1p(-t), -1.0),
            (lambda t: t**-0.5, 2.0),
            (lambda t: (1.0 - t) ** -0.5, 2.0),
            (lambda t: math.log(-math.log(t)), -np.euler_gamma),
            (lambda t: 3.0 * t * t * math.log(t), -1.0 / 3.0),
        ],
    )
    def test_known_integrals(self, f, truth):
        res = numerics.integrate_unit(f, abs_tol=1e-10)
        assert abs(res.value - truth) <= max(1e-10, res.error_estimate)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
    def test_power_singularity(self, alpha):
        res = numerics.integrate_unit(lambda t: t**-alpha, abs_tol=1e-10)
        assert res.value == pytest.approx(1.0 / (1.0 - alpha), abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_matches_closed_form_helpers(self, n):
        for kind, f in (
            ("power_log", lambda t: t ** (n - 1) * math.log(t)),
            ("power_loglog", lambda t: t ** (n - 1) * math.log(-math.log(t))),
        ):
            res = numerics.integrate_unit(f, abs_tol=1e-12)
            want = special.log_power_integral(kind, n=n)
            assert abs(res.value - want) <= 1e-10

    def test_extropy_integrand_closed_form(self):
        # t^(2n-2) * t * (-ln t)^(xi+1) with n = 2, xi = 0 reduces to a
        # Gamma-type integral; the assembled extropy matches the closed form
        n, xi = 2, 0.0
        res = numerics.integrate_unit(
            lambda t: t ** (2 * n - 2) * t * (-math.log(t)) ** (xi + 1.0),
            abs_tol=1e-12,
        )
        j = -(n * n / 2.0) * res.value
        want = measures.extropy_max(distributions.gev(xi), n).value
        assert j == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize(
        "f, truth",
        [
            (lambda t: math.log(t) ** 2, 2.0),
            (lambda t: 1.0 / math.sqrt(t * (1.0 - t)), math.pi),
            (lambda t: math.sin(20.0 * t), (1.0 - math.cos(20.0)) / 20.0),
        ],
    )
    def test_against_scipy_quad(self, f, truth):
        # independent oracle: scipy's QUADPACK on the same integrands
        scipy_value, scipy_err = integrate.quad(f, 0.0, 1.0, epsabs=1e-12)
        assert scipy_value == pytest.approx(truth, abs=1e-8)
        res = numerics.integrate_unit(f, abs_tol=1e-10)
        assert res.value == pytest.approx(truth, abs=max(1e-9, res.error_estimate))

    def test_entropy_integral_route(self):
        # full entropy assembly for Exp(1), n = 3, against Table value
        dist = distributions.exponential(1.0)
        n = 3
        res = numerics.integrate_unit(
            lambda y: n * y ** (n - 1) * math.log(distributions.density_quantile(dist, y)),
            abs_tol=1e-12,
        )
        h = 1.0 - math.log(n) - 1.0 / n - res.value
        assert h == pytest.approx(measures.shannon_max(dist, n).value, abs=1e-10)

    def test_nonintegrable_raises_with_best_estimate(self):
        with pytest.raises(numerics.QuadratureError) as excinfo:
            numerics.integrate_unit(lambda t: 1.0 / t, abs_tol=1e-10)
        assert excinfo.value.best is not None
        assert excinfo.value.best.value > 10.0  # diverges, partial sums grow

    def test_non_finite_panel_fails_at_once(self):
        # integrable, but 1e300 t^(-1/2) overflows a double for t < 3e-17,
        # so the first panel of the window is already non-finite
        with pytest.raises(numerics.QuadratureError) as excinfo:
            numerics.integrate_unit(lambda t: 1e300 * t**-0.5)
        assert str(excinfo.value).startswith("integrand non-finite for t in [5.70904e-171, ")
        assert excinfo.value.best.evaluations < 1000
        assert excinfo.value.best.error_estimate == math.inf

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            numerics.integrate_unit(lambda t: 1.0, abs_tol=0.0)

    def test_result_fields_are_python_floats(self):
        # np.float64 subclasses float, so only an exact type check tells them apart
        res = numerics.integrate_unit(lambda t: 1.0)
        assert type(res.value) is float
        assert type(res.error_estimate) is float


class TestPanelNodes:
    def test_nodes_are_logistic_nodes_of_the_gk15_abscissae(self):
        a, b = -17.0, -7.0  # a seed panel of integrate_unit
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        us = [c]
        for x in numerics._XGK[:7]:
            us += [c - h * x, c + h * x]
        assert numerics._panel_nodes(a, b) == numerics._logistic_nodes(us)

    def test_logistic_nodes_are_the_logistic_map_and_its_derivative(self):
        us = [-399.5, -100.0, -7.25, -1e-3, 0.0, 1e-3, 3.5, 21.0, 28.5]
        ts, ws = numerics._logistic_nodes(us)
        for u, t, w in zip(us, ts, ws):
            assert t == pytest.approx(1.0 / (1.0 + math.exp(-u)), rel=1e-15)
            # dt/du = t (1 - t) = e^-|u| / (1 + e^-|u|)^2, free of the cancellation in 1 - t
            z = math.exp(-abs(u))
            assert w == pytest.approx(z / (1.0 + z) ** 2, rel=1e-15)

    def test_rejects_panel_with_a_node_rounding_to_one(self):
        # sigma(u) rounds to 1.0 for u above ~37
        with pytest.raises(ValueError, match="outside"):
            numerics._panel_nodes(30.0, 40.0)

    def test_cache_is_bounded(self):
        assert numerics._panel_nodes.cache_info().maxsize == 256


class TestIntegratePanels:
    def test_point_adapter_gives_the_same_bits(self):
        f = lambda t: math.log(t) * (1.0 - t) ** -0.5
        by_panel = numerics.integrate_panels(lambda ts: [f(t) for t in ts])
        by_point = numerics.integrate_unit(f)
        assert by_panel == by_point
        assert by_panel.value.hex() == by_point.value.hex()

    def test_integrand_gets_each_panel_as_a_node_tuple(self):
        panels = []

        def g(ts):
            panels.append(ts)
            return map(math.sqrt, ts)

        res = numerics.integrate_panels(g, abs_tol=1e-10)
        assert abs(res.value - 2.0 / 3.0) < 1e-10
        assert res.evaluations == 15 * len(panels)
        assert all(type(ts) is tuple and len(ts) == 15 for ts in panels)
        assert all(0.0 < t < 1.0 for ts in panels for t in ts)

    def test_rejects_a_panel_of_the_wrong_length(self):
        for wrong in (lambda ts: ts[:-1], lambda ts: ts + ts[:1]):
            with pytest.raises(ValueError, match="zip"):
                numerics.integrate_panels(wrong)


class TestMaximumFromUniform:
    def test_quantile_identity_n1(self):
        dist = distributions.uniform(1.0)
        assert numerics.maximum_from_uniform(dist, 1, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_square_root_at_n2(self):
        dist = distributions.uniform(1.0)
        assert numerics.maximum_from_uniform(dist, 2, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_extreme_draws_stay_in_support(self):
        # v so close to 1 that v^(1/n) rounds to 1.0 must still map inside
        dist = distributions.exponential(1.0)
        x = numerics.maximum_from_uniform(dist, 10**6, np.nextafter(1.0, 0.0))
        assert math.isfinite(x)
        x0 = numerics.maximum_from_uniform(dist, 1, 0.0)
        assert math.isfinite(x0) and x0 >= 0.0

    def test_kolmogorov_distance_of_maxima(self):
        # empirical CDF of maxima of 4 exponentials vs (1 - e^-x)^4
        dist = distributions.exponential(1.0)
        n, draws = 4, 100_000
        rng = np.random.default_rng(7)
        xs = np.sort(
            [numerics.maximum_from_uniform(dist, n, v) for v in rng.random(draws)]
        )
        target = (-np.expm1(-xs)) ** n
        empirical_hi = np.arange(1, draws + 1) / draws
        empirical_lo = np.arange(0, draws) / draws
        ks = max(
            float(np.max(np.abs(empirical_hi - target))),
            float(np.max(np.abs(empirical_lo - target))),
        )
        assert ks < 0.01


class TestMcEstimators:
    def test_rejects_small_samples(self):
        dist = distributions.exponential(1.0)
        with pytest.raises(ValueError):
            numerics.mc_entropy_max(dist, 1, samples=99, seed=0)
        with pytest.raises(ValueError):
            numerics.mc_extropy_max(dist, 1, samples=10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.7, True, "3", None])
    @pytest.mark.parametrize("estimator", [numerics.mc_entropy_max, numerics.mc_extropy_max])
    def test_rejects_invalid_seed(self, estimator, seed):
        with pytest.raises(ValueError, match="seed"):
            estimator(distributions.exponential(1.0), 1, samples=200, seed=seed)

    def test_accepts_numpy_integer_seed(self):
        dist = distributions.exponential(1.0)
        a = numerics.mc_entropy_max(dist, 2, samples=200, seed=np.uint32(7))
        assert a == numerics.mc_entropy_max(dist, 2, samples=200, seed=7)

    def test_determinism(self):
        dist = distributions.logistic(2.0)
        a = numerics.mc_entropy_max(dist, 5, samples=500, seed=123)
        b = numerics.mc_entropy_max(dist, 5, samples=500, seed=123)
        assert a == b
        c = numerics.mc_entropy_max(dist, 5, samples=500, seed=124)
        assert c.estimate != a.estimate

    def test_estimate_metadata(self):
        dist = distributions.exponential(1.0)
        est = numerics.mc_entropy_max(dist, 2, samples=400, seed=9)
        assert est.samples == 400
        assert est.seed == 9
        assert est.std_error > 0.0

    @pytest.mark.parametrize(
        "dist, n, closed",
        [
            (distributions.uniform(1.0), 1, 0.0),
            (distributions.exponential(1.0), 1, 1.0),
            (distributions.exponential(1.0), 10, None),
        ],
    )
    def test_entropy_pins(self, dist, n, closed):
        if closed is None:
            closed = measures.shannon_max(dist, n).value
        est = numerics.mc_entropy_max(dist, n, samples=50_000, seed=20260815)
        assert abs(est.estimate - closed) <= 3.0 * est.std_error + 1e-12

    @pytest.mark.parametrize(
        "dist, n, closed",
        [
            (distributions.uniform(1.0), 1, -0.5),
            (distributions.exponential(1.0), 1, -0.25),
            (distributions.gev(0.0), 3, -0.125),
        ],
    )
    def test_extropy_pins(self, dist, n, closed):
        est = numerics.mc_extropy_max(dist, n, samples=50_000, seed=20260815)
        assert abs(est.estimate - closed) <= 3.0 * est.std_error + 1e-12

    def test_uniform_n1_is_exact(self):
        # the log-density of U(0,1) is identically zero, so the estimator
        # is exact with zero standard error
        est = numerics.mc_entropy_max(distributions.uniform(1.0), 1, samples=200, seed=0)
        assert est.estimate == 0.0
        assert est.std_error == 0.0


@pytest.mark.slow
class TestMcCalibration:
    """100-replication coverage check of the reported standard errors.

    For every representative member and n in {1, 5, 20}, at least 99 of
    100 seeded replications must land within 3 standard errors of the
    closed form.  Seeds are base + k for k in 0..99 with a fixed base;
    the base is frozen so the suite is deterministic.
    """

    BASE = 20260815
    SAMPLES = 4000

    @pytest.mark.parametrize(
        "member", canonical.mc_representatives(), ids=lambda m: m.label()
    )
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_coverage(self, member, n):
        h_closed = measures.shannon_max(member, n).value
        j_closed = measures.extropy_max(member, n).value
        h_hits = j_hits = 0
        for k in range(100):
            h = numerics.mc_entropy_max(member, n, samples=self.SAMPLES, seed=self.BASE + k)
            j = numerics.mc_extropy_max(member, n, samples=self.SAMPLES, seed=self.BASE + k)
            if abs(h.estimate - h_closed) <= 3.0 * h.std_error:
                h_hits += 1
            if abs(j.estimate - j_closed) <= 3.0 * j.std_error:
                j_hits += 1
        assert h_hits >= 99, f"entropy coverage {h_hits}/100"
        assert j_hits >= 99, f"extropy coverage {j_hits}/100"


class TestGridConcavityCheck:
    def test_concave_parabola(self):
        grid = np.linspace(0.0, 1.0, 101)
        report = numerics.grid_concavity_check(lambda t: t * (1.0 - t), grid)
        assert report.concave
        assert report.violations == ()

    def test_convex_detected(self):
        grid = np.linspace(-1.0, 1.0, 51)
        report = numerics.grid_concavity_check(lambda t: t * t, grid)
        assert not report.concave
        assert report.worst_violation > 0.0
        assert len(report.violations) > 0

    def test_pareto_log_density_not_concave(self):
        dist = distributions.pareto(1.0, 2.0)
        xs = distributions.quantile(dist, np.linspace(0.01, 0.99, 201))
        report = numerics.grid_concavity_check(lambda x: distributions.log_pdf(dist, x), xs)
        assert not report.concave

    def test_gev_log_density_concave_for_negative_xi(self):
        dist = distributions.gev(-0.5)
        xs = distributions.quantile(dist, np.linspace(0.01, 0.99, 201))
        report = numerics.grid_concavity_check(lambda x: distributions.log_pdf(dist, x), xs)
        assert report.concave

    def test_uneven_grid_supported(self):
        grid = np.array([0.0, 0.1, 0.15, 0.4, 0.41, 0.9])
        report = numerics.grid_concavity_check(lambda t: -((t - 0.3) ** 2), grid)
        assert report.concave

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            numerics.grid_concavity_check(lambda t: t, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            numerics.grid_concavity_check(lambda t: t, np.array([0.0, 0.5, 0.5, 1.0]))

    def test_rejects_nonfinite_values(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            numerics.grid_concavity_check(
                lambda t: math.inf if t == 0.5 else t, grid
            )
