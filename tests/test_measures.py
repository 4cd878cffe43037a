"""Tests for the entropy and extropy of sample maxima.

Closed forms are pinned against hand-derived values and against the
independent quadrature and Monte Carlo routes; the large-n limits,
scale laws, and degenerate cases are exercised for every family.
"""

import dataclasses
import inspect
import io
import json
import math
import operator
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import special as sps

from extremal_info import bounds, canonical, cli, distributions as d, evt, measures, numerics, special

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

    @pytest.mark.parametrize(
        "value", [1.5, -0.0, math.inf, np.float64(0.1), np.float32(0.1), 3, 10**400 // 10**390, d.INDETERMINATE]
    )
    def test_a_closed_value_is_built_as_public_construction_builds_it(self, value):
        # the closed route skips __post_init__ and takes the value to a
        # float as it does: same fields, same types, equal
        built = measures._value(value, "closed_form", 0.0)
        public = measures.MeasureValue(value, "closed_form")
        assert built == public
        assert [type(getattr(built, f)) for f in ("value", "method", "error_estimate")] == [
            type(getattr(public, f)) for f in ("value", "method", "error_estimate")
        ]
        assert repr(built) == repr(public)


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
            lambda n: measures.shannon_normalized(d.exponential(1.0), n),
            lambda n: measures.extropy_normalized(d.exponential(1.0), n),
            lambda n: measures.crosscheck(d.exponential(1.0), n),
            lambda n: bounds.shannon_bounds(d.exponential(1.0), n),
            lambda n: bounds.extropy_bounds(d.exponential(1.0), n),
            lambda n: bounds.normalized_bounds(d.exponential(1.0), n),
            lambda n: bounds.shannon_upper_envelope(d.exponential(1.0), n),
            lambda n: bounds.extropy_upper_envelope(d.exponential(1.0), n),
            lambda n: evt.norming_constants(d.exponential(1.0), n),
            lambda n: numerics.mc_entropy_max(d.exponential(1.0), n, samples=100),
            lambda n: special.harmonic(n),
        ],
        ids=[
            "shannon_max",
            "extropy_max",
            "shannon_normalized",
            "extropy_normalized",
            "crosscheck",
            "shannon_bounds",
            "extropy_bounds",
            "normalized_bounds",
            "shannon_upper_envelope",
            "extropy_upper_envelope",
            "norming_constants",
            "mc_entropy_max",
            "harmonic",
        ],
    )
    def test_one_integer_rule_everywhere(self, entry, request):
        # the message names the entry point the caller called
        name = request.node.callspec.id
        entry(np.int64(3))
        for bad in (True, 2.5, np.array(3), 0):
            with pytest.raises(ValueError) as excinfo:
                entry(bad)
            assert str(excinfo.value).startswith(f"{name} requires "), str(excinfo.value)


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


class TestShannonAtExtremeParameterRatios:
    # where nu/theta (pareto) or nu*theta (power_function) leaves the double
    # range, its logarithm is taken as ln nu -/+ ln theta

    @staticmethod
    def reference(member, n) -> float:
        with mpmath.workdps(50):
            theta, nu, n = mpmath.mpf(member.theta), mpmath.mpf(member.nu), mpmath.mpf(n)
            if member.family == "pareto":
                ln_n = mpmath.log(n)
                want = 1 + ln_n / nu - 1 / n - mpmath.log(nu / theta)
                want += (nu + 1) / nu * (mpmath.harmonic(n) - ln_n)
            else:
                want = 1 - mpmath.log(n) - mpmath.log(nu * theta) - 1 / (nu * n)
            return float(want)

    @pytest.mark.parametrize(
        "member",
        [
            d.pareto(1e-300, 1e300),
            d.pareto(1e300, 1e-300),
            d.power_function(1e-300, 1e-300),
            d.power_function(1e300, 1e300),
        ],
        ids=lambda m: m.label(),
    )
    def test_matches_mpmath_within_1e_13(self, member):
        for n in (1, 3, 50):
            got = measures.shannon_max(member, n).value
            assert got == pytest.approx(self.reference(member, n), rel=1e-13), n


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

    @pytest.mark.parametrize("n", [499, 500, 501])
    def test_power_function_where_2_n_nu_is_near_1_against_mpmath(self, n):
        # at nu = 0.001 the double 2 n nu rounds off the bits 2 n nu - 1
        # keeps; J = -n^2 nu^2 theta / (2 (2 n nu - 1)) from the double nu
        # at 50 digits, -inf where 2 n nu <= 1 (n = 499), within 1e-15, on
        # the scalar and the integer-array route alike
        member = d.power_function(1.0, 0.001)
        with mpmath.workdps(50):
            nu, m = mpmath.mpf(0.001), mpmath.mpf(n)
            gap = 2 * m * nu - 1
            want = float(-(m * m * nu * nu) / (2 * gap)) if gap > 0 else -math.inf
        got = measures.extropy_max(member, n).value
        on_array = d.REGISTRY["power_function"].extropy(member, np.array([1, n, 1000]))[1]
        assert got == on_array
        assert got == want if want == -math.inf else abs(got - want) <= 1e-15 * abs(want)


class TestGevExtropyBeyondTheDirectForm:
    # Gamma(xi + 2) overflows past xi = 169.6, and n^xi or 2^(xi+3) n^xi
    # past the double range; there, and only there, J is taken as -exp of
    # its logarithm, ln Gamma(xi + 2) - (xi + 3) ln 2 - xi ln n, in decimal.

    @staticmethod
    def reference(xi, n) -> float:
        with mpmath.workdps(50):
            xi = mpmath.mpf(xi)
            return float(-mpmath.gamma(xi + 2) / (2 ** (xi + 3) * mpmath.mpf(n) ** xi))

    def test_pinned_at_xi_200_and_n_50(self):
        got = measures.extropy_max(d.gev(200.0), 50).value
        assert got == -1.9815028917540361e-24 == self.reference(200, 50)

    @pytest.mark.parametrize("xi", [50.0, 100.0, 169.7, 170.0, 180.0, 200.0, 250.0, 338.5, 400.0, 860.0, 1000.0])
    def test_matches_mpmath_within_1e_13(self, xi):
        # A J past the double range is a named overflow, one below it -0.0
        for n in (1, 3, 100, 1000, 10**6, 10**12, 10**400):
            try:
                got = measures.extropy_max(d.gev(xi), n).value
            except OverflowError as exc:
                assert "beyond the double range" in str(exc)
                assert abs(self.reference(xi, n)) == math.inf
                continue
            want = self.reference(xi, n)
            if abs(want) < sys.float_info.min:
                assert got == 0.0 or abs(got) < sys.float_info.min
                continue
            assert got == pytest.approx(want, rel=1e-13), n

    def test_underflows_to_minus_zero(self):
        got = measures.extropy_max(d.gev(100.0), 10**6).value
        assert got == 0.0 and math.copysign(1.0, got) == -1.0

    @pytest.mark.parametrize(
        "xi, log_j", [(200.0, r"727\.8"), (1e308, r"7\.07503e\+310")], ids=["xi=200", "xi=1e308"]
    )
    def test_a_j_beyond_the_double_range_is_a_named_overflow(self, xi, log_j):
        # J at n = 1, the target of the normalized maxima, is -e^727.8 for
        # gev(200) and -e^(7e310) for gev(1e308): not a double
        message = rf"n=1 draws from gev\(xi={re.escape(f'{xi:g}')}\) is -e\^{log_j}"
        for call in (lambda: measures.extropy_max(d.gev(xi), 1), lambda: evt.limiting_targets(xi)):
            with pytest.raises(OverflowError, match=message) as excinfo:
                call()
            assert "math range error" not in str(excinfo.value)

    def test_targets_and_studies_past_gammas_range(self):
        h, j = evt.limiting_targets(180.0)
        assert j == measures.extropy_max(d.gev(180.0), 1).value
        assert j == pytest.approx(self.reference(180, 1), rel=1e-13)
        # gev is max-stable: the normalized extropy is the target at every n
        study = evt.convergence_study(d.gev(180.0), [1, 2, 3])
        assert study.j_normalized.tolist() == pytest.approx([j] * 3, rel=1e-13)

    @pytest.mark.parametrize("xi, grid", [(100.0, [1, 10, 1000, 10**6]), (180.0, [1, 2, 3])])
    def test_an_array_takes_each_n_by_the_scalar_rule(self, xi, grid):
        record, member = d.REGISTRY["gev"], d.gev(xi)
        got = record.extropy(member, np.array(grid))
        assert [x.hex() for x in got.tolist()] == [record.extropy(member, n).hex() for n in grid]

    def test_catalog_cells_keep_the_direct_form(self):
        grid = (*canonical.TABLE_N, 10**4, 10**6)
        for member in canonical.catalog_members():
            if member.family == "gev":
                want = [
                    (-math.gamma(member.xi + 2.0) / (2.0 ** (member.xi + 3.0) * float(n) ** member.xi)).hex()
                    for n in grid
                ]
                assert [measures.extropy_max(member, n).value.hex() for n in grid] == want
                assert [x.hex() for x in d.REGISTRY["gev"].extropy(member, np.array(grid)).tolist()] == want


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
    @pytest.mark.parametrize(
        "maker, shift, factor", SCALE_FAMILIES, ids=[maker(1.0).family for maker, _, _ in SCALE_FAMILIES]
    )
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


# ROADMAP item 17's 24 large-n integrals: each returns, and lists its panels.
LARGE_N_MEMBERS = (d.exponential(1.0), d.logistic(1.0), d.pareto(1.0, 2.0), d.gev(0.5))
LARGE_N = (10**3, 10**4, 10**5)


def _counted(calls: dict, name: str, fn):
    """``fn``, counting its calls in ``calls[name]``."""

    def counting(*args):
        calls[name] += 1
        return fn(*args)

    return counting


def _assert_index_consistent():
    """Every id the index holds names one panel, in order, with its width,
    nodes and arrays, and each child pair is the two halves of its parent:
    a lost update between threads would break one of these."""
    index = numerics._index
    assert len(index.panels) <= numerics._PANEL_CAP
    assert index.panels[: len(numerics._FIXED)] == list(numerics._FIXED)
    assert index.ids == {panel[:2]: i for i, panel in enumerate(index.panels)}
    assert len(index.ids) == len(index.panels)  # no panel held twice
    assert index.width == [b - a for a, b, _, _ in index.panels]
    assert all(panel == numerics._panel(*panel[:2]) for panel in index.panels)
    assert index.dtdu.tolist() == [list(panel[3]) for panel in index.panels]
    assert index.half.tolist() == [0.5 * (b - a) for a, b, _, _ in index.panels]
    assert len(index.kids) == len(index.panels)
    for i, pair in enumerate(index.kids):
        if pair is not None:
            a, b = index.panels[i][:2]
            mid = 0.5 * (a + b)
            assert [index.panels[j][:2] for j in pair] == [(a, mid), (mid, b)]


@pytest.fixture(scope="module")
def table_grid():
    """The 300 quadrature integrals of crosscheck over catalog x TABLE_N, in
    table order: their results, each member's distinct panels, the distinct
    panels of the grid, the distinct (n, panel) weight rows and the keys of
    the factor tables read."""
    integrate = numerics._integrate
    read = numerics._index._table
    results, weights, per_member, panels, grid_panels, tables = [], set(), [], set(), set(), set()
    tag = {}

    class Reads:
        """A value list, as the walk fills it, that reports each id the
        loop reads off it."""

        def __init__(self, values, seen):
            self.values, self.seen = values, seen

        def __getitem__(self, i):
            # a group of fixed panels is read as one slice
            for j in range(len(self.values))[i] if isinstance(i, slice) else [i]:
                self.seen(j)
            return self.values[i]

    def recording(abs_tol, walk, vks, errs):
        # the kernel reads every panel it visits off the value list, by id
        def seen(i):
            key = walk.panels[i][:2]
            panels.add(key)
            weights.add((tag["n"], key))

        results.append(integrate(abs_tol, walk, Reads(vks, seen), errs))
        return results[-1]

    def reading(key, rows):
        tables.add(key)
        return read(key, rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "_integrate", recording)
        m.setattr(numerics._index, "_table", reading)
        for member in canonical.catalog_members():
            panels.clear()
            for tag["n"] in canonical.TABLE_N:
                measures.crosscheck(member, tag["n"])
            per_member.append(len(panels))
            grid_panels |= panels
    return {
        "results": results,
        "panels_per_member": per_member,
        "panels": len(grid_panels),
        "weights": len(weights),
        "tables": tables,
    }


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

    @pytest.mark.parametrize("cache", ["cold", "warm", "cleared"])
    @pytest.mark.parametrize("member", canonical.catalog_members(), ids=lambda m: m.label())
    def test_quadrature_matches_public_api_integrand_bit_for_bit(
        self, member, cache, monkeypatch, quadrature_caches
    ):
        # The quadrature integrands take each panel's values from the
        # profile and weight tables, filled from the family record on nodes
        # checked to lie in (0, 1); integrate_unit on the point integrand
        # of the public density_quantile must give the same bits, by each
        # route: one measure, both from crosscheck's cell and both from
        # measure --method quad.  The panel index and the tables start cold
        # and fill up over the test, are warmed by every route first, or are
        # cleared before each route.
        integrate = numerics._integrate
        seen = []

        def recording(*args):
            seen.append(integrate(*args))
            return seen[-1]

        def key(q):
            return (q.value.hex(), q.error_estimate.hex(), q.evaluations)

        def measure_json(n):
            out = io.StringIO()
            spec = json.dumps(d.to_dict(member))
            argv = ["measure", "--dist", spec, "--n", str(n), "--method", "quad", "--format", "json"]
            assert cli.main(argv, out=out) == 0
            (row,) = json.loads(out.getvalue())
            return row["H"], row["h_error"], row["J"], row["j_error"]

        def single(n):
            h = measures.shannon_max(member, n, "quadrature")
            j = measures.extropy_max(member, n, "quadrature")
            return h.value, h.error_estimate, j.value, j.error_estimate

        def cell(n):
            c = measures.crosscheck(member, n)
            return c["h_quad"], c["j_quad"]

        routes = (single, cell, measure_json)
        quadrature_caches()
        for n in canonical.TABLE_N:
            half_n2 = 0.5 * n * n
            public = (
                lambda y: n * y ** (n - 1) * math.log(d.density_quantile(member, y)),
                lambda t: -half_n2 * t ** (2 * n - 2) * d.density_quantile(member, t),
            )
            want = [key(numerics.integrate_unit(f)) for f in public]
            if cache == "warm":
                for route in routes:
                    route(n)
            got = []
            with monkeypatch.context() as m:
                m.setattr(numerics, "_integrate", recording)
                for route in routes:
                    if cache == "cleared":
                        quadrature_caches()
                    seen.clear()
                    got.append(route(n))
                    assert [key(q) for q in seen] == want, (n, route.__name__)
            bits = [tuple(map(float.hex, values)) for values in got]
            assert bits == [bits[0], bits[0][::2], bits[0]], n

    def test_evaluations_on_the_table_grid(self, table_grid):
        # Pins the work of the 300 catalog x TABLE_N integrals, so that no
        # cache can change the adaptivity unnoticed.
        evals = [q.evaluations for q in table_grid["results"]]
        assert len(evals) == 300
        assert (sum(evals), min(evals), max(evals)) == (169_680, 345, 705)

    def test_cache_sizes_cover_the_table_grid_working_sets(self, table_grid):
        # Member-major, as tables and verify run: the panel index and the
        # tables must hold every panel, member and n of the grid, so that a
        # second sweep runs warm, and stay bounded past it.  A weight table
        # per n holds both measures' rows.
        per_member = table_grid["panels_per_member"]
        weights = table_grid["weights"]
        assert (max(per_member), sum(per_member), weights) == (59, 1544, 219)
        assert (numerics._PANEL_CAP, numerics._TABLE_CAP) == (256, 64)
        assert table_grid["panels"] == 59 <= numerics._PANEL_CAP
        assert len(per_member) == 30
        tables = table_grid["tables"]
        assert tables == set(canonical.catalog_members()) | set(canonical.TABLE_N)
        assert len(tables) == 35 <= numerics._TABLE_CAP

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 17: the panel index keeps the first panels any returned integral visited",
    )
    def test_the_grid_rules_only_its_own_panels_after_large_n_integrals(self, quadrature_caches):
        # 24 large-n integrals that all return grow the index from the grid's
        # 59 panels to 113, and every later integral rules all of them.
        quadrature_caches()
        routes = (measures.shannon_max, measures.extropy_max)
        for member in canonical.catalog_members():
            for n in canonical.TABLE_N:
                for route in routes:
                    route(member, n, "quadrature")
        assert len(numerics._index.panels) == 59
        for member in LARGE_N_MEMBERS:
            for n in LARGE_N:
                for route in routes:
                    route(member, n, "quadrature")
        assert len(numerics._index.panels) <= 59  # what a cell's numpy pass rules

    def test_a_warm_second_sweep_of_the_table_grid_makes_no_scalar_rule_call(
        self, monkeypatch, quadrature_caches
    ):
        # nor makes a panel: each cell rules its panels in one numpy pass
        def sweep():
            for member in canonical.catalog_members():
                for n in canonical.TABLE_N:
                    measures.crosscheck(member, n)

        quadrature_caches()
        sweep()
        calls = {"_gk15": 0, "_gk15_rows": 0, "_panel": 0}
        for name in calls:
            monkeypatch.setattr(numerics, name, _counted(calls, name, getattr(numerics, name)))
        sweep()
        assert calls == {"_gk15": 0, "_gk15_rows": 30 * len(canonical.TABLE_N), "_panel": 0}

    @pytest.mark.parametrize("cell", ["H", "J", "HJ"])
    def test_a_cold_cell_takes_each_new_panel_s_profile_once(self, cell, monkeypatch, quadrature_caches):
        # exponential(1) at n = 5 from a cleared index: the profile at the
        # 23 fixed panels' nodes (345 calls) for the member's table, then at
        # the 16 panels the integrals split anew (240), each pair ruled for
        # both measures at once, so that J, run after H on the same walk,
        # finds them all; each new panel's nodes are made as it is split and
        # again as the index lists it.
        record = d.REGISTRY["exponential"]
        calls = {"density_quantile": 0, "_panel": 0}
        profile = _counted(calls, "density_quantile", record.density_quantile)
        monkeypatch.setitem(d.REGISTRY, "exponential", dataclasses.replace(record, density_quantile=profile))
        monkeypatch.setattr(numerics, "_panel", _counted(calls, "_panel", numerics._panel))
        quadrature_caches()
        measures._quadrature(d.exponential(1.0), 5, cell, numerics.DEFAULT_QUAD_TOL)
        assert calls == {"density_quantile": 585, "_panel": 32}
        assert len(numerics._index.panels) == 23 + 16

    def test_integrals_on_threads_share_the_tables(self, quadrature_caches):
        # Two threads, and then more threads than cores, switching often,
        # fill the panel index and the tables of two members and eight
        # (n, measure) pairs from cold while reading them: every result must
        # be the one-thread result, and the index must end as the serial
        # sweep leaves it, up to the order of its ids.
        ns = (1, 2, 3, 5, 7, 10, 20, 50)
        cells = [(m, n) for m in canonical.catalog_members()[:2] for n in ns]
        quadrature_caches()
        want = [measures.crosscheck(*cell) for cell in cells]
        serial = set(numerics._index.ids)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 2, 8, 8, 8, 8, 8, 8):
                quadrature_caches()
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    got = pool.map(lambda cell: measures.crosscheck(*cell), cells * 2, timeout=120)
                    assert list(got) == want * 2
                assert set(numerics._index.ids) == serial
                _assert_index_consistent()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "route, member, n",
        [("extropy_max", d.power_function(1.0, 0.3), 1), ("shannon_max", d.pareto(1.0, 0.01), 1)],
        ids=["power_function J", "pareto H"],
    )
    def test_a_failing_profile_gives_the_scalar_bits_cold_and_warm(
        self, route, member, n, quadrature_caches
    ):
        # The profile overflows (power_function) or underflows (pareto), so
        # the member's table holds inf, and nan or -inf, factors.  A failed
        # integral lists no panel, so the cold call rules only the 23 fixed
        # panels in its first numpy pass and the halves of each panel it
        # splits in a pass of their own; once one catalog integral has
        # listed its panels, the warm calls read each of them off the first
        # pass, which must have the scalar rule's bits, fail as the cold
        # call did and warn about nothing.
        def outcome():
            with pytest.raises(numerics.QuadratureError) as excinfo:
                getattr(measures, route)(member, n, "quadrature")
            best = excinfo.value.best
            return str(excinfo.value), best.value.hex(), best.evaluations

        row = "HJ".index("H" if route == "shannon_max" else "J")
        rows = numerics._gk15_rows
        passes = []

        def recording(*args):
            passes.append(rows(*args))
            return passes[-1]

        quadrature_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = outcome()
            assert numerics._index.panels == list(numerics._FIXED)
            measures.crosscheck(canonical.catalog_members()[0], 2)
            assert [outcome(), outcome()] == [cold, cold]
            listed = list(numerics._index.panels)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(numerics, "_gk15_rows", recording)
                outcome()
        (vk,), (err,) = passes[0]
        rules = list(zip(vk.tolist(), err.tolist()))

        def integrand(ts):
            return map(operator.mul, measures._weight_rows(n, ts)[row], measures._profile_row(member, ts)[row])

        assert len(rules) == len(listed) > len(numerics._FIXED)
        got = [tuple(map(float.hex, rule)) for rule in rules]
        want = [tuple(map(float.hex, numerics._gk15(integrand, panel))) for panel in listed]
        assert got == want
        assert not all(map(math.isfinite, (x for rule in rules for x in rule)))

    def test_a_cell_whose_h_declines_fails_as_h_does(self, quadrature_caches):
        # power_function(1, 0.3) at n = 1: I(t) overflows near t = 0, so H's
        # integral fails on its first seed panel.  Both measures of the cell
        # must fail as the single H call does, with its best estimate in H's
        # units, before J's integral runs, and list no panel.
        member, n = d.power_function(1.0, 0.3), 1

        def failure(call):
            with pytest.raises(numerics.QuadratureError) as excinfo:
                call()
            best = excinfo.value.best
            return str(excinfo.value), _bits(best)

        quadrature_caches()
        measures.crosscheck(canonical.catalog_members()[0], 2)
        held = list(numerics._index.panels)
        want = failure(lambda: measures.shannon_max(member, n, "quadrature"))
        assert want[0] == "integrand non-finite for t in [5.70904e-171, 4.12534e-84]"
        assert failure(lambda: measures.crosscheck(member, n)) == want
        out, err = io.StringIO(), io.StringIO()
        argv = ["measure", "--dist", json.dumps(d.to_dict(member)), "--n", str(n), "--method", "quad"]
        assert cli.main(argv, out=out, err=err) == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"domain error: {want[0]}\n")
        assert numerics._index.panels == held

    def test_one_numpy_pass_per_call_on_a_warm_index(self, monkeypatch, quadrature_caches):
        # A cell rules both measures in one pass: crosscheck and measure
        # --method quad call numerics._gk15_rows once, as one measure does.
        member, n = canonical.catalog_members()[3], 5
        argv = ["measure", "--dist", json.dumps(d.to_dict(member)), "--n", str(n), "--method", "quad"]
        calls = {
            "crosscheck": lambda: measures.crosscheck(member, n),
            "measure": lambda: cli.main(argv, out=io.StringIO()),
            "shannon_max": lambda: measures.shannon_max(member, n, "quadrature"),
            "extropy_max": lambda: measures.extropy_max(member, n, "quadrature"),
        }
        quadrature_caches()
        for call in calls.values():
            call()
        rows = numerics._gk15_rows
        passes = []
        monkeypatch.setattr(numerics, "_gk15_rows", lambda *args: passes.append(args) or rows(*args))
        for name, call in calls.items():
            passes.clear()
            call()
            assert len(passes) == 1, name

    def test_capped_tables_give_the_same_bits(self, monkeypatch, quadrature_caches):
        # One member visits more panels than the panel list may hold, and
        # alternates with another member and between (n, measure) pairs past
        # the factor table cap; each result, and the failure's message and
        # evaluations, must be those of the uncapped tables, cold and warm.
        exp2, pf = d.exponential(2.0), d.power_function(1.0, 0.3)
        cases = [
            (measures.shannon_max, exp2, 5),
            (measures.extropy_max, exp2, 5),
            (measures.shannon_max, exp2, 50),
            (measures.extropy_max, pf, 1),
            (measures.shannon_max, pf, 2),
            (measures.shannon_max, exp2, 5),
        ]

        def outcome(route, member, n):
            try:
                q = route(member, n, "quadrature")
            except numerics.QuadratureError as exc:
                return str(exc), exc.best.value.hex(), exc.best.evaluations
            return q.value.hex(), q.error_estimate.hex()

        quadrature_caches()
        want = [outcome(*case) for case in cases]
        assert any(len(w) == 3 for w in want)
        monkeypatch.setattr(numerics, "_PANEL_CAP", 24)
        monkeypatch.setattr(numerics, "_TABLE_CAP", 1)
        quadrature_caches()
        index = numerics._index
        for _ in ("cold", "warm"):
            assert [outcome(*case) for case in cases] == want
            assert len(index.panels) == 24 and index.dtdu.shape == (24, 15)
            assert len(index.tables) == 1

    def test_no_result_depends_on_call_history(self, quadrature_caches):
        # A member's factor table has a row for every listed panel, also for
        # panels only other members' integrals visited: each integral, and
        # each failure's message, must be the same from cold tables whatever
        # ran before it, one measure or both of a cell, and no row may warn.
        grid = [
            (member, n, cell)
            for member in canonical.catalog_members()
            for n in canonical.TABLE_N
            for cell in ("H", "J", "HJ")
        ]
        edges = [
            (d.power_function(1.0, 0.3), 1, "J"),
            (d.power_function(1.0, 0.3), 1, "HJ"),
            (d.pareto(1.0, 0.01), 1, "H"),
            (d.gev(40.0), 1, "HJ"),
            (d.gev(-30.0), 3, "H"),
            (d.gev(-0.9), 5, "J"),
            (d.gev(-0.9), 5, "HJ"),
        ]

        def outcome(member, n, cell):
            try:
                results = measures._quadrature(member, n, cell, numerics.DEFAULT_QUAD_TOL)
            except numerics.QuadratureError as exc:
                return str(exc), exc.best.value.hex(), exc.best.evaluations
            return tuple((q.value.hex(), q.error_estimate.hex(), q.evaluations) for q in results)

        def cold(cases):
            quadrature_caches()
            return [outcome(*case) for case in cases]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward = cold(grid)
            assert cold(grid[::-1]) == forward[::-1]
            for case in edges:
                assert cold(grid + [case]) == forward + cold([case])
        # a cell gives its H and J, or the first failure of the two
        def failed(outcome):
            return isinstance(outcome[0], str)

        for h, j, both in zip(forward[0::3], forward[1::3], forward[2::3]):
            assert both == (h if failed(h) else j if failed(j) else h + j)

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
        # Once a catalog integral has listed its panels, the second call
        # takes those inf values from the member's factor table and must
        # fail the same way after the same work.
        member = d.power_function(1.0, 0.3)
        assert measures.extropy_max(member, 1).value == -math.inf
        quadrature_caches()
        outcomes = []
        for _ in range(2):
            with pytest.raises(numerics.QuadratureError) as excinfo:
                measures.extropy_max(member, 1, method="quad")
            outcomes.append((str(excinfo.value), excinfo.value.best.evaluations))
            measures.crosscheck(canonical.catalog_members()[0], 2)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].startswith("integrand non-finite for t in [5.70904e-171, ")
        assert outcomes[0][1] < 1000
        _logs, values = numerics._index.tables[member]
        assert math.inf in values[numerics._index.ids[-392.0, -192.0]]

    @pytest.mark.parametrize(
        "member, closed, place",
        [
            # I(t) underflows to 0 near t = 1, where ln I would be taken of 0
            (d.pareto(1.0, 0.01), 105.6, "1 - t in [8.31528e-07, 0.000911051]"),
            (d.gev(40.0), 24.67, "1 - t in [2.78947e-10, 8.31528e-07]"),
        ],
    )
    def test_quadrature_h_declines_on_underflowing_profile(self, member, closed, place):
        assert measures.shannon_max(member, 1).value == pytest.approx(closed, abs=0.01)
        with pytest.raises(numerics.QuadratureError) as excinfo:
            measures.shannon_max(member, 1, method="quad")
        assert str(excinfo.value) == f"integrand non-finite for {place}"
        assert excinfo.value.best.error_estimate == math.inf

    def test_quadrature_names_a_right_tail_overflow_by_one_minus_t(self):
        # gev xi = -30: I(t) overflows to inf as t -> 1, where t prints as 1
        with pytest.raises(numerics.QuadratureError) as excinfo:
            measures.shannon_max(d.gev(-30.0), 3, method="quad")
        assert str(excinfo.value) == "integrand non-finite for 1 - t in [1.38879e-11, 3.77513e-11]"

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

    def test_profile_row_takes_ln_0_as_minus_inf(self, monkeypatch):
        ts = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        profile = dict(zip(ts, (2.0, 1e-300, math.inf, math.nan, 0.0, -0.0)))
        record = d.REGISTRY["exponential"]
        monkeypatch.setitem(
            d.REGISTRY, "exponential", dataclasses.replace(record, density_quantile=lambda dist, t: profile[t])
        )
        logs, values = measures._profile_row(d.exponential(1.0), ts)
        assert list(map(float.hex, values)) == list(map(float.hex, profile.values()))
        want = (math.log(2.0), math.log(1e-300), math.inf, math.nan, -math.inf, -math.inf)
        assert list(map(float.hex, logs)) == list(map(float.hex, want))
        profile[0.6] = -1.0
        with pytest.raises(ValueError, match="math domain error"):
            measures._profile_row(d.exponential(1.0), ts)


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

    @pytest.mark.parametrize(
        "member",
        canonical.catalog_members() + tuple(d.gev(xi) for xi in (1e-9, -1e-9, -1.9, 3.0)),
        ids=lambda m: m.label(),
    )
    def test_equal_the_stated_limits_bit_for_bit(self, member):
        # each record states one (H, J) pair; the reference states each
        # measure's limit per family, sign of zero included
        theta = member.theta
        if member.family in ("exponential", "logistic"):
            want = (1.0 - math.log(theta) + GAMMA, -theta / 8.0)
        elif member.family in ("uniform", "power_function"):
            want = (-math.inf, -math.inf)
        elif member.family == "pareto":
            want = (math.inf, None)
        else:
            xi = 0.0 if abs(member.xi) < d.GUMBEL_XI_EPS else member.xi
            if xi == 0.0:
                want = (1.0 + GAMMA, -0.125)
            else:
                want = (math.inf, -0.0) if xi > 0.0 else (-math.inf, -math.inf)
        h, j = measures.shannon_limit(member), measures.extropy_limit(member)
        assert h.hex() == want[0].hex()
        if member.family == "pareto":
            assert j is measures.INDETERMINATE
        else:
            assert j.hex() == want[1].hex()

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


@pytest.mark.parametrize(
    "route, member, n",
    [
        ("shannon_max", d.exponential(1.0), 10**6),
        ("extropy_max", d.uniform(1.0), 10**4),
    ],
)
def test_a_failed_integral_gives_its_best_in_the_units_of_the_value(route, member, n, monkeypatch):
    # Each integral stops short: exponential(1) H at n = 10^6 declines on
    # its tails after the 9 seeds and 14 tail cells (345 evaluations), and
    # uniform J at n = 10^4 runs to a budget of 3000 evaluations.  Its best
    # estimate is of what the call returns, within its error estimate -- for
    # H, not the raw integral of n t^(n-1) ln I(t), which is -14.39 for
    # exponential(1) at n = 10^6.
    message, evaluations = {
        "shannon_max": (r"^tail error \S+ alone exceeds tolerance 1\.000e-10$", 345),
        "extropy_max": (r"^evaluation budget exhausted \(3015 evaluations\)", 3015),
    }[route]
    monkeypatch.setattr(numerics, "_MAX_EVALS", 3000)
    with pytest.raises(numerics.QuadratureError, match=message) as excinfo:
        getattr(measures, route)(member, n, "quadrature")
    best = excinfo.value.best
    closed = getattr(measures, route)(member, n).value
    assert best.evaluations == evaluations
    assert abs(best.value - closed) <= best.error_estimate


def test_a_failed_integral_leaves_the_tables_as_they_were(monkeypatch, quadrature_caches):
    # A failed integral lists none of the panels it visited: with a budget
    # of 3000 evaluations, uniform J at n = 10^4 visits about 200 panels and
    # fails, gev(-1.9) J at n = 1 declines on its tails, and the panel index,
    # its arrays and every factor table read before them stay as they were,
    # so the integrals after them do not slow down, and the next catalog
    # integral keeps its bits.  integrate_unit reads no shared state, so it
    # neither adds to the index nor evicts what the cells rule in their
    # numpy pass.
    members = canonical.catalog_members()
    quadrature_caches()
    want = measures.extropy_max(members[1], 50, "quadrature")
    quadrature_caches()
    measures.crosscheck(members[0], 2)

    def state():
        index = numerics._index
        held = list(index.panels), list(index.kids), dict(index.ids), index.dtdu.tobytes(), index.half.tobytes()
        return held, {key: table.tobytes() for key, table in index.tables.items()}

    before = state()
    with monkeypatch.context() as m:
        m.setattr(numerics, "_MAX_EVALS", 3000)
        with pytest.raises(numerics.QuadratureError, match=r"^evaluation budget exhausted"):
            measures.extropy_max(d.uniform(1.0), 10**4, "quadrature")
        with pytest.raises(numerics.QuadratureError, match=r"^tail error \S+ alone exceeds tolerance"):
            measures.extropy_max(d.gev(-1.9), 1, "quadrature")
    after = state()
    assert after[0] == before[0]
    assert {key: after[1][key] for key in before[1]} == before[1]
    for f in (math.log, lambda t: t**-0.5, lambda t: math.log1p(-t), lambda t: math.log(-math.log(t))):
        numerics.integrate_unit(f, 1e-12)
    assert state() == after
    assert measures.extropy_max(members[1], 50, "quadrature") == want
    _assert_index_consistent()

    # the 24 large-n integrals all return and list their panels, within the cap
    for member in LARGE_N_MEMBERS:
        for n in LARGE_N:
            measures.crosscheck(member, n)
    assert len(before[0][0]) < len(numerics._index.panels) <= numerics._PANEL_CAP
    _assert_index_consistent()
    monkeypatch.setattr(numerics, "_PANEL_CAP", 64)
    quadrature_caches()
    for member in LARGE_N_MEMBERS:
        for n in LARGE_N:
            measures.crosscheck(member, n)
    assert len(numerics._index.panels) == 64
    _assert_index_consistent()


@pytest.mark.parametrize("cap, cut", [(numerics._PANEL_CAP, False), (27, True)], ids=["cap", "small cap"])
def test_a_walk_begun_before_cache_clear_adds_by_bounds(cap, cut, monkeypatch, quadrature_caches):
    # A large-n cell walks the index a table sweep has grown, and the index
    # is cleared before the walk is added.  The walk passes its splits by
    # bounds alone, so it lists each half the cleared index does not hold,
    # in split order, up to the cap, points each parent still held at its
    # halves, and leaves the index consistent: ids names each held panel,
    # every kids pair is the halves of its parent, and width, dtdu and
    # half have one entry per panel.  The cell's result is the cold one.
    monkeypatch.setattr(numerics, "_PANEL_CAP", cap)
    member, n = LARGE_N_MEMBERS[0], LARGE_N[0]
    quadrature_caches()
    want = measures.crosscheck(member, n)
    index, add, walks = numerics._index, numerics._index.add, []

    def cleared_first(walk):
        walks.append(walk)
        quadrature_caches()
        add(walk)

    quadrature_caches()
    for m in canonical.TABLE_N:
        measures.crosscheck(canonical.catalog_members()[0], m)
    grown = {panel[:2] for panel in index.panels}
    monkeypatch.setattr(index, "add", cleared_first)
    assert measures.crosscheck(member, n) == want
    (walk,) = walks
    halves = [half for _, *pair in walk.splits for half in pair]
    fixed = len(numerics._FIXED)
    assert [panel[:2] for panel in index.panels[fixed:]] == halves[: cap - fixed]
    assert (fixed + len(halves) > cap) == cut  # whether the cap stops the listing short
    ids = index.ids
    for parent, *pair in walk.splits:
        if parent in ids and all(half in ids for half in pair):
            assert index.kids[ids[parent]] == tuple(ids[half] for half in pair)
    # some split is of a panel the cleared index no longer holds
    assert any(parent in grown and parent not in ids for parent, *_ in walk.splits)
    _assert_index_consistent()


def test_integrate_unit_reads_no_shared_state(quadrature_caches):
    # verify's oracle integrands and check 8's give the same results,
    # evaluation counts and calls of the integrand, in order, from a cleared
    # index, after the table grid, after the 24 large-n integrals that grow
    # the index past the grid's panels and after the index is cleared again.
    integrands = [math.log, lambda t: t**-0.5, lambda t: math.log(-math.log(t))]
    integrands += [lambda y, n=n: y ** (n - 1) * math.log(-math.log(y)) for n in (2, 7)]

    def runs():
        out = []
        for f in integrands:
            calls = []
            q = numerics.integrate_unit(lambda t: calls.append(t) or f(t), 1e-12)
            out.append((_bits(q), calls))
        return out

    quadrature_caches()
    want = runs()
    for member in canonical.catalog_members():
        for n in canonical.TABLE_N:
            measures.crosscheck(member, n)
    assert runs() == want
    for member in LARGE_N_MEMBERS:
        for n in LARGE_N:
            measures.crosscheck(member, n)
    assert len(numerics._index.panels) > 59
    assert runs() == want
    quadrature_caches()
    assert runs() == want


# ---------------------------------------------------------------------------
# The normalized route, bit for bit, from the family record
# ---------------------------------------------------------------------------

NORMALIZED_MEMBERS = list(canonical.catalog_members()) + [
    d.exponential(3.0),
    d.power_function(1.0, 0.3),
    d.gev(-0.9),
    d.gev(0.3),
]
NORMALIZED_N = (1, 2, 10, 100, 10**4, 10**5, 10**6)
LOGISTIC_AT_ONE = (
    "norming constants for the logistic family are undefined at n=1 "
    "(1 - 1/n must round to a level strictly inside (0, 1))"
)


def _bits(x):
    """Every field of a result, floats as float.hex, so -0.0 and 0.0 differ."""
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, dict)):
        return {k: _bits(v) for k, v in x.items()} if isinstance(x, dict) else tuple(map(_bits, x))
    return float(x).hex() if isinstance(x, float) else x


class TestNormalizedPinned:
    @pytest.mark.parametrize(
        "entry", [measures.shannon_normalized, measures.extropy_normalized, bounds.normalized_bounds]
    )
    def test_closed_form_only(self, entry):
        # another route is the maximum's: shannon_max(d, n, "quadrature")
        # less ln a_n, or a_n times extropy_max's
        assert list(inspect.signature(entry).parameters) == ["dist", "n"]

    @pytest.mark.parametrize("member", NORMALIZED_MEMBERS, ids=lambda m: m.label())
    def test_every_field(self, member):
        record = d.REGISTRY[member.family]
        for n in NORMALIZED_N:
            h, j = record.shannon(member, n), record.extropy(member, n)
            if member.family == "logistic" and n == 1:
                continue  # declined, below
            a_n = record.norming(member, n)[0]
            got = measures.shannon_normalized(member, n)
            assert _bits(got) == (float(h - math.log(a_n)).hex(), "closed_form", (0.0).hex()), n
            got = measures.extropy_normalized(member, n)
            assert _bits(got) == (float(a_n * j).hex(), "closed_form", (0.0).hex()), n

            # the unnormalized reports shifted by -ln a_n and scaled by a_n
            raw_h, raw_j = bounds.shannon_bounds(member, n), bounds.extropy_bounds(member, n)
            log_a = math.log(a_n)
            want_h = dataclasses.replace(
                raw_h, lower=raw_h.lower - log_a, value=raw_h.value - log_a, upper=raw_h.upper - log_a
            )
            want_j = dataclasses.replace(
                raw_j, lower=a_n * raw_j.lower, value=a_n * raw_j.value, upper=a_n * raw_j.upper
            )
            got_h, got_j = bounds.normalized_bounds(member, n)
            assert (_bits(got_h), _bits(got_j)) == (_bits(want_h), _bits(want_j)), n

    @pytest.mark.parametrize(
        "entry", [measures.shannon_normalized, measures.extropy_normalized, bounds.normalized_bounds]
    )
    def test_logistic_declines_at_n1(self, entry):
        with pytest.raises(ValueError) as excinfo:
            entry(d.logistic(1.0), 1)
        assert str(excinfo.value) == LOGISTIC_AT_ONE


class TestOneCheckPerCall:
    """The closed-route entry points call private cores, not one another."""

    ENTRIES = {
        "shannon_bounds": lambda m: bounds.shannon_bounds(m, 7),
        "extropy_bounds": lambda m: bounds.extropy_bounds(m, 7),
        "shannon_normalized": lambda m: measures.shannon_normalized(m, 7),
        "extropy_normalized": lambda m: measures.extropy_normalized(m, 7),
        "normalized_bounds": lambda m: bounds.normalized_bounds(m, 7),
        "crosscheck": lambda m: measures.crosscheck(m, 7),
        "exponential_gap": lambda m: bounds.exponential_gap(m, (10, 1000)),
    }

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_no_public_entry_point_is_reentered(self, name, monkeypatch):
        member = d.logistic(2.0)
        entry = self.ENTRIES[name]
        want = entry(member)

        def refuse(*args, **kwargs):
            raise AssertionError("a public entry point was re-entered")

        for module, attr in (
            (measures, "shannon_max"),
            (measures, "extropy_max"),
            (evt, "norming_constants"),
            (d, "density_quantile"),
            (bounds, "shannon_upper_envelope"),
            (bounds, "extropy_upper_envelope"),
        ):
            monkeypatch.setattr(module, attr, refuse)
        assert _bits(entry(member)) == _bits(want)
