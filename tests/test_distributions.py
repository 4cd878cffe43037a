"""Tests for the six-family distribution catalog.

The closed-form pdf/cdf/quantile triples are validated against each
other (round trips and compositions), against scipy.integrate.quad for
normalization, and against scipy.stats where a matching parametrization
exists.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import extremal_info
from extremal_info import canonical, distributions as d

ALL_MEMBERS = canonical.catalog_members()
MEMBER_IDS = [m.label() for m in ALL_MEMBERS]


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


class TestSpecConstruction:
    def test_factories_round_trip_fields(self):
        assert d.uniform(2.0).theta == 2.0
        assert d.exponential(0.5).family == "exponential"
        assert d.pareto(1.5, 3.0).nu == 3.0
        assert d.power_function(2.0, 0.5).nu == 0.5
        assert d.gev(-0.25).xi == -0.25
        assert d.gev(0.0).theta == 1.0

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_theta(self, theta):
        with pytest.raises(ValueError):
            d.uniform(theta)

    @pytest.mark.parametrize("nu", [0.0, -2.0, math.nan])
    def test_rejects_bad_nu(self, nu):
        with pytest.raises(ValueError):
            d.pareto(1.0, nu)

    def test_shape_required_only_where_meaningful(self):
        with pytest.raises(ValueError):
            d.DistributionSpec("pareto", theta=1.0)  # missing nu
        with pytest.raises(ValueError):
            d.DistributionSpec("uniform", theta=1.0, nu=2.0)  # stray nu
        with pytest.raises(ValueError):
            d.DistributionSpec("exponential", theta=1.0, xi=0.1)  # stray xi

    def test_gev_is_standardized(self):
        with pytest.raises(ValueError):
            d.DistributionSpec("gev", theta=2.0, xi=0.0)
        with pytest.raises(ValueError):
            d.DistributionSpec("gev", xi=math.inf)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            d.DistributionSpec("triangular", theta=1.0)

    def test_specs_are_frozen_and_hashable(self):
        spec = d.exponential(1.0)
        with pytest.raises(AttributeError):
            spec.theta = 2.0
        assert len({d.uniform(1.0), d.uniform(1.0), d.uniform(2.0)}) == 2

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_label_mentions_family(self, member):
        assert member.family in member.label()


class TestSupport:
    def test_finite_supports(self):
        assert d.uniform(2.0).support == (0.0, 2.0)
        assert d.power_function(2.0, 3.0).support == (0.0, 0.5)

    def test_half_infinite_supports(self):
        assert d.exponential(1.0).support == (0.0, math.inf)
        assert d.pareto(1.5, 2.0).support == (1.5, math.inf)

    def test_real_line_support(self):
        assert d.logistic(3.0).support == (-math.inf, math.inf)
        assert d.gev(0.0).support == (-math.inf, math.inf)

    def test_gev_support_follows_shape_sign(self):
        lo, hi = d.gev(0.5).support
        assert lo == -2.0 and hi == math.inf
        lo, hi = d.gev(-0.5).support
        assert lo == -math.inf and hi == 2.0

    def test_equals_the_stated_interval_bit_for_bit(self):
        # the support is read off each record's quantile at t = 0 and 1; the
        # reference states it per family, sign of zero included
        def stated(m):
            if m.family == "gev":
                xi = 0.0 if abs(m.xi) < d.GUMBEL_XI_EPS else m.xi
                if xi == 0.0:
                    return (-math.inf, math.inf)
                return (-1.0 / xi, math.inf) if xi > 0.0 else (-math.inf, -1.0 / xi)
            return {
                "uniform": (0.0, m.theta),
                "exponential": (0.0, math.inf),
                "logistic": (-math.inf, math.inf),
                "pareto": (m.theta, math.inf),
                "power_function": (0.0, 1.0 / m.theta),
            }[m.family]

        thetas = (5e-324, 1e-300, 1e-100, 1e-8, 0.3, 1.0, 7.0, 1e8, 1e100, 1e300, 1.7e308)
        nus = (1e-3, 0.3, 1.0, 2.5, 1e3)
        xis = (5e-324, 1e-9, 1e-8, 0.1, 1.9, 2.0, 2.5, 40.0, 1e9, 1e300)
        sweep = (
            list(ALL_MEMBERS)
            + [d.DistributionSpec(f, theta=th) for f in ("uniform", "exponential", "logistic")
               for th in thetas]
            + [d.DistributionSpec(f, theta=th, nu=nu) for f in ("pareto", "power_function")
               for th in thetas for nu in nus]
            + [d.gev(s * xi) for xi in xis for s in (1.0, -1.0)]
            + [d.gev(0.0), d.gev(-0.0)]
        )
        assert len(sweep) == 195
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in sweep:
                got = m.support
                assert all(type(x) is float for x in got), m
                assert [x.hex() for x in got] == [x.hex() for x in stated(m)], m


def test_records_state_no_support_and_one_pair_of_limits():
    names = {f.name for f in dataclasses.fields(d.Family)}
    assert "limits" in names
    assert not names & {"support", "shannon_limit", "extropy_limit"}


class TestCanonicalFromRegistry:
    # the catalog and the representatives as they were listed by hand
    def test_catalog_members(self):
        thetas, nus, xis = (0.5, 1.0, 2.0), (1.0, 2.0, 3.0), (-0.5, 0.0, 0.5)
        listed = (
            [d.uniform(th) for th in thetas]
            + [d.exponential(th) for th in thetas]
            + [d.logistic(th) for th in thetas]
            + [d.pareto(th, nu) for th in thetas for nu in nus]
            + [d.power_function(th, nu) for th in thetas for nu in nus]
            + [d.gev(xi) for xi in xis]
        )
        assert canonical.catalog_members() == tuple(listed)
        assert len(listed) == 30

    def test_mc_representatives(self):
        assert canonical.mc_representatives() == (
            d.uniform(1.0),
            d.exponential(1.0),
            d.logistic(1.0),
            d.pareto(1.0, 2.0),
            d.power_function(1.0, 2.0),
            d.gev(0.5),
        )

    def test_names_no_family(self):
        source = Path(canonical.__file__).read_text(encoding="utf-8")
        assert not [f for f in d.FAMILIES if f in source]


class TestSerialization:
    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_dict_round_trip(self, member):
        assert d.from_dict(d.to_dict(member)) == member

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_json_round_trip(self, member):
        assert d.from_json(json.dumps(d.to_dict(member))) == member

    def test_scale_default_applied(self):
        assert d.from_dict({"family": "exponential"}) == d.exponential(1.0)

    def test_shape_parameters_must_be_explicit(self):
        with pytest.raises(ValueError):
            d.from_dict({"family": "gev"})
        with pytest.raises(ValueError):
            d.from_dict({"family": "pareto", "theta": 1.0})

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"theta": 1.0},
            {"family": "gaussian"},
            {"family": "uniform", "nu": 2.0},
            {"family": "pareto", "theta": 1.0, "xi": 0.5},
            {"family": "gev", "theta": 2.0},
            {"family": "exponential", "rate": 1.0},
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            d.from_dict(payload)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"family": "exponential", "theta": True}, "theta"),
            ({"family": "exponential", "theta": "2"}, "theta"),
            ({"family": "uniform", "theta": None}, "theta"),
            ({"family": "pareto", "theta": 1.0, "nu": " 3 "}, "nu"),
            ({"family": "power_function", "theta": 1.0, "nu": False}, "nu"),
            ({"family": "gev", "xi": "0.5"}, "xi"),
            ({"family": "gev", "xi": True}, "xi"),
        ],
    )
    def test_bool_and_str_fields_rejected(self, payload, field):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            d.from_dict(payload)
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            d.DistributionSpec(**payload)

    def test_numpy_reals_accepted(self):
        spec = d.from_dict({"family": "pareto", "theta": np.float64(2.0), "nu": np.int64(3)})
        assert spec == d.pareto(2.0, 3.0)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            d.from_json("{family: exponential}")
        with pytest.raises(ValueError):
            d.from_json("[1, 2]")


# ---------------------------------------------------------------------------
# pdf / cdf / quantile consistency
# ---------------------------------------------------------------------------


INTERIOR_T = np.linspace(0.01, 0.99, 33)


class TestRoundTrips:
    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_cdf_of_quantile(self, member):
        ts = d.cdf(member, d.quantile(member, INTERIOR_T))
        assert np.max(np.abs(ts - INTERIOR_T)) < 1e-10

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_quantile_of_cdf(self, member):
        xs = d.quantile(member, INTERIOR_T)
        back = d.quantile(member, d.cdf(member, xs))
        scale = np.maximum(1.0, np.abs(xs))
        assert np.max(np.abs(back - xs) / scale) < 1e-9

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_density_quantile_composition(self, member):
        # I(t) = f(F^-1(t)) must match the pdf route exactly
        direct = d.density_quantile(member, INTERIOR_T)
        composed = d.pdf(member, d.quantile(member, INTERIOR_T))
        assert np.max(np.abs(direct - composed)) < 1e-10

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_pdf_is_cdf_derivative(self, member):
        xs = d.quantile(member, np.linspace(0.05, 0.95, 19))
        h = 1e-6 * np.maximum(1.0, np.abs(xs))
        numeric = (d.cdf(member, xs + h) - d.cdf(member, xs - h)) / (2.0 * h)
        assert np.allclose(numeric, d.pdf(member, xs), rtol=1e-5, atol=1e-7)


class TestNormalization:
    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_pdf_integrates_to_one(self, member):
        lo, hi = member.support
        value, err = integrate.quad(lambda x: d.pdf(member, x), lo, hi, limit=200)
        assert value == pytest.approx(1.0, abs=max(1e-8, 10 * err))


class TestAgainstScipy:
    """Cross-checks against scipy.stats where parametrizations align."""

    CASES = [
        (d.uniform(2.0), stats.uniform(loc=0.0, scale=2.0)),
        (d.exponential(0.5), stats.expon(scale=2.0)),
        (d.logistic(2.0), stats.logistic(scale=0.5)),
        (d.pareto(1.5, 2.5), stats.pareto(b=2.5, scale=1.5)),
        (d.power_function(2.0, 3.0), stats.powerlaw(a=3.0, scale=0.5)),
        (d.gev(0.0), stats.gumbel_r()),
        (d.gev(0.5), stats.genextreme(c=-0.5)),
        (d.gev(-0.5), stats.genextreme(c=0.5)),
    ]

    @pytest.mark.parametrize("member, ref", CASES, ids=lambda c: str(c)[:40])
    def test_cdf_and_pdf_match(self, member, ref):
        xs = d.quantile(member, INTERIOR_T)
        assert np.allclose(d.cdf(member, xs), ref.cdf(xs), atol=1e-12)
        assert np.allclose(d.pdf(member, xs), ref.pdf(xs), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("member, ref", CASES, ids=lambda c: str(c)[:40])
    def test_quantile_matches(self, member, ref):
        ours = d.quantile(member, INTERIOR_T)
        theirs = ref.ppf(INTERIOR_T)
        assert np.allclose(ours, theirs, rtol=1e-9, atol=1e-11)


class TestPointValues:
    def test_exponential_density_at_origin(self):
        assert d.pdf(d.exponential(1.0), 0.0) == 1.0
        assert d.pdf(d.exponential(2.0), 0.0) == 2.0

    def test_uniform_density_is_flat(self):
        assert d.pdf(d.uniform(2.0), 1.0) == 0.5
        assert d.pdf(d.uniform(2.0), 3.0) == 0.0

    def test_gumbel_density_at_mode(self):
        assert d.pdf(d.gev(0.0), 0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_logistic_symmetry(self):
        member = d.logistic(1.5)
        xs = np.array([0.3, 1.0, 2.5])
        assert np.allclose(d.pdf(member, xs), d.pdf(member, -xs), atol=1e-15)
        assert np.allclose(d.cdf(member, xs) + d.cdf(member, -xs), 1.0, atol=1e-15)

    def test_outside_support_is_zero(self):
        assert d.pdf(d.pareto(1.0, 2.0), 0.5) == 0.0
        assert d.cdf(d.pareto(1.0, 2.0), 0.5) == 0.0
        assert d.cdf(d.power_function(1.0, 2.0), 2.0) == 1.0
        assert d.log_pdf(d.uniform(1.0), -0.5) == -math.inf

    def test_power_function_with_unit_shape_is_uniform(self):
        power = d.power_function(1.0, 1.0)
        flat = d.uniform(1.0)
        xs = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(d.pdf(power, xs) - d.pdf(flat, xs))) < 1e-12
        assert np.max(np.abs(d.cdf(power, xs) - d.cdf(flat, xs))) < 1e-12
        ts = np.linspace(0.01, 0.99, 21)
        assert np.max(np.abs(d.quantile(power, ts) - d.quantile(flat, ts))) < 1e-12


class TestQuantileDomain:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
    def test_rejects_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            d.quantile(d.exponential(1.0), bad)

    def test_rejects_arrays_with_bad_entries(self):
        with pytest.raises(ValueError):
            d.quantile(d.uniform(1.0), np.array([0.5, 1.0]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, math.nan])
    def test_density_quantile_same_domain(self, bad):
        with pytest.raises(ValueError):
            d.density_quantile(d.logistic(1.0), bad)

    @pytest.mark.parametrize("fn", [d.quantile, d.density_quantile], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "bad", [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), -math.inf, math.inf, math.nan]
    )
    def test_scalar_and_array_reject_alike(self, fn, bad):
        with pytest.raises(ValueError) as scalar:
            fn(d.exponential(1.0), bad)
        with pytest.raises(ValueError) as array:
            fn(d.exponential(1.0), np.array([bad]))
        assert str(scalar.value) == str(array.value)

    @pytest.mark.parametrize("fn", [d.quantile, d.density_quantile], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "good",
        [np.float32(0.5), np.float64(0.5), np.finfo(float).tiny, np.nextafter(1.0, 0.0)],
        ids=["float32", "float64", "tiny", "below_one"],
    )
    def test_scalar_and_array_accept_alike(self, fn, good):
        value = fn(d.exponential(1.0), good)
        values = fn(d.exponential(1.0), np.array([good]))
        assert type(value) is float
        assert values.shape == (1,) and value == values[0]

    def test_near_boundary_values_are_finite_where_expected(self):
        tiny = np.finfo(float).tiny
        top = np.nextafter(1.0, 0.0)
        assert d.quantile(d.uniform(1.0), tiny) >= 0.0
        assert math.isfinite(d.quantile(d.exponential(1.0), top))
        assert math.isfinite(d.quantile(d.gev(0.5), top))


# ---------------------------------------------------------------------------
# Scalar calls: a Python float reaches the family record
# ---------------------------------------------------------------------------

# Besides the catalog, members that reach the edges of the double range:
# power_function with a negative profile exponent, gev inside the Gumbel
# window, with an unbounded density (xi = -1.9) and with a heavy tail
# (xi = 3), and pareto with a profile exponent of 3.
BIT_IDENTITY_MEMBERS = ALL_MEMBERS + (
    d.power_function(1.0, 0.3),
    d.power_function(1.0, 0.7),
    d.gev(1e-9),
    d.gev(-1.9),
    d.gev(3.0),
    d.pareto(1.0, 0.5),
)
BIT_IDENTITY_T = [1e-300, 1e-100, 1e-10, 1e-3, 0.5, 1.0 - 1e-10, 1.0 - 2.0**-53] + list(
    np.linspace(0.005, 0.995, 199)
)


@pytest.mark.parametrize(
    "member", BIT_IDENTITY_MEMBERS, ids=[m.label() for m in BIT_IDENTITY_MEMBERS]
)
def test_scalar_call_matches_array_record_bit_for_bit(member):
    # A scalar call hands the record a Python float; it must return exactly
    # the record's value on a 0-d array, down to the last bit.
    record = d.REGISTRY[member.family]
    mismatches = []

    def compare(name, v):
        with np.errstate(all="ignore"):
            want = float(getattr(record, name)(member, np.asarray(v)))
        got = getattr(d, name)(member, float(v))
        if float.hex(got) != float.hex(want):
            mismatches.append((name, float(v), got, want))

    for t in BIT_IDENTITY_T:
        compare("quantile", t)
        compare("density_quantile", t)
        x = d.quantile(member, t)
        compare("cdf", x)
        compare("log_pdf", x)
    assert mismatches == []


# ---------------------------------------------------------------------------
# Density-quantile profile I(t)
# ---------------------------------------------------------------------------


class TestDensityQuantileProfile:
    @pytest.mark.parametrize(
        "member, at_half",
        [
            (d.uniform(2.0), 0.5),
            (d.exponential(2.0), 1.0),
            (d.logistic(4.0), 1.0),
            (d.pareto(1.0, 1.0), 0.25),
            (d.gev(0.0), 0.5 * math.log(2.0)),
        ],
    )
    def test_midpoint_values(self, member, at_half):
        assert d.density_quantile(member, 0.5) == pytest.approx(at_half, rel=1e-12)

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_profile_positive_inside(self, member):
        values = d.density_quantile(member, INTERIOR_T)
        assert np.all(values > 0.0)

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_bobkov_envelope_from_below(self, member):
        # I(t) >= 2 I(1/2) min(t, 1-t) for log-concave members
        if not d.is_log_concave(member):
            pytest.skip("envelope stated for log-concave members")
        ts = np.linspace(0.001, 0.999, 499)
        envelope = 2.0 * d.density_quantile(member, 0.5) * np.minimum(ts, 1.0 - ts)
        assert np.all(d.density_quantile(member, ts) >= envelope - 1e-12)

    def test_power_small_shape_overflows_to_inf_silently(self):
        # nu < 1: t^((nu-1)/nu) exceeds the double range as t -> 0
        member = d.power_function(1.0, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.density_quantile(member, 1e-300) == math.inf
            assert d.density_quantile(member, np.array([1e-300, 0.5]))[0] == math.inf

    def test_gev_below_minus_one_overflows_to_inf_silently(self):
        # xi + 1 < 0: (-ln t)^(xi+1) exceeds the double range as t -> 1
        member = d.gev(-30.0)
        t = 1.0 - 2.0**-52
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.density_quantile(member, t) == math.inf
            assert d.density_quantile(member, np.array([t, 0.5]))[0] == math.inf

    @pytest.mark.parametrize("xi", [106.0, 106.3, 106.4, 107.0, 400.0, 1e308])
    def test_gev_large_shape_overflows_to_inf_silently(self, xi):
        # a large xi + 1: (-ln t)^(xi+1) exceeds the double range as t -> 0,
        # first at the smallest subnormal t, where -ln t ~ 744.4
        ts = np.array([5e-324, 1e-300, 1e-3, 0.5, 0.999])
        k = xi + 1.0
        with np.errstate(over="ignore"):
            want = ts * (-np.log(ts)) ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = d.density_quantile(d.gev(xi), ts)
            scalars = [d.density_quantile(d.gev(xi), float(t)) for t in ts]
        assert got.tobytes() == want.tobytes()
        assert scalars == want.tolist()
        assert np.isfinite(want[0]) == (xi < 106.33)  # where the overflow sets in

    @pytest.mark.parametrize("member", [m for m in ALL_MEMBERS if m.family == "gev"], ids=lambda m: m.label())
    def test_gev_catalog_profile_skips_errstate(self, member, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("errstate on the catalog's hot path")

        monkeypatch.setattr(d.np, "errstate", refuse)
        assert d.density_quantile(member, 0.25) > 0.0
        assert np.all(d.density_quantile(member, INTERIOR_T) > 0.0)


# ---------------------------------------------------------------------------
# sup f and log-concavity
# ---------------------------------------------------------------------------


class TestSupDensity:
    @pytest.mark.parametrize(
        "member, expected",
        [
            (d.uniform(2.0), 0.5),
            (d.exponential(3.0), 3.0),
            (d.logistic(2.0), 0.5),
            (d.pareto(2.0, 3.0), 1.5),
            (d.power_function(2.0, 2.0), 4.0),
            (d.power_function(1.0, 1.0), 1.0),
            (d.gev(0.0), math.exp(-1.0)),
        ],
    )
    def test_closed_values(self, member, expected):
        assert d.sup_density(member) == pytest.approx(expected, rel=1e-9)

    def test_power_with_small_shape_unbounded(self):
        assert d.sup_density(d.power_function(1.0, 0.5)) == math.inf

    GEV_XIS = [-0.999, -0.9, -0.75, -0.5, -0.25, -1e-6, 0.0, 1e-6, 0.3, 0.5, 1.0, 2.5, 10.0]

    @pytest.mark.parametrize("xi", GEV_XIS)
    def test_gev_matches_mode_formula(self, xi):
        # density written in w = (1 + xi x)^(-1/xi) is w^(xi+1) e^-w,
        # maximized at w = xi + 1
        expected = (1.0 + xi) ** (1.0 + xi) * math.exp(-(1.0 + xi))
        assert d.sup_density(d.gev(xi)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("xi", GEV_XIS)
    def test_gev_dominates_dense_grid(self, xi):
        member = d.gev(xi)
        # I(t) = t (-ln t)^(xi+1), dense in s = -ln t around its peak at s = xi + 1
        s = np.linspace(1e-3, 4.0 * (xi + 1.0) + 1.0, 200_001)
        assert d.sup_density(member) >= np.max(d.density_quantile(member, np.exp(-s)))

    def test_gev_boundary_shapes(self):
        assert d.sup_density(d.gev(-1.0)) == 1.0
        assert d.sup_density(d.gev(-1.5)) == math.inf

    @pytest.mark.parametrize("member", ALL_MEMBERS, ids=MEMBER_IDS)
    def test_dominates_density_profile(self, member):
        sup = d.sup_density(member)
        if not math.isfinite(sup):
            return
        values = d.density_quantile(member, np.linspace(0.001, 0.999, 499))
        assert np.all(values <= sup * (1.0 + 1e-9))


def test_import_does_not_load_scipy_optimize():
    # sup_density is closed-form; loading an optimizer would cost setup time and memory
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(extremal_info.__file__)))
    code = "import sys, extremal_info; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"


class TestLogConcavity:
    @pytest.mark.parametrize(
        "member, expected",
        [
            (d.uniform(1.0), True),
            (d.exponential(2.0), True),
            (d.logistic(0.5), True),
            (d.pareto(1.0, 2.0), False),
            (d.power_function(1.0, 2.0), True),
            (d.power_function(1.0, 1.0), True),
            (d.power_function(1.0, 0.5), False),
            (d.gev(0.0), True),
            (d.gev(-0.5), True),
            (d.gev(-1.0 + 1e-9), True),
            (d.gev(0.2), False),
            (d.gev(-1.5), False),
        ],
    )
    def test_verdicts(self, member, expected):
        assert d.is_log_concave(member) is expected


# ---------------------------------------------------------------------------
# The Gumbel crossover inside the GEV family
# ---------------------------------------------------------------------------


class TestGumbelCrossover:
    """xi values inside the rounding window collapse to the xi = 0 branch."""

    def test_tiny_xi_uses_gumbel_branch(self):
        near = d.gev(1e-9)
        zero = d.gev(0.0)
        xs = np.linspace(-2.0, 5.0, 31)
        assert np.allclose(d.pdf(near, xs), d.pdf(zero, xs), atol=1e-15)
        assert np.allclose(d.cdf(near, xs), d.cdf(zero, xs), atol=1e-15)

    @pytest.mark.parametrize("xi", [2e-8, 1e-7, 1e-6, -1e-6, 1e-4])
    @pytest.mark.parametrize("x", [-2.0, 0.5, 3.0])
    def test_near_gumbel_pointwise_against_mpmath(self, xi, x):
        # just outside the Gumbel window, 1 + xi x must not be formed in
        # double precision before taking its log
        with mpmath.workdps(40):
            z = 1 + mpmath.mpf(xi) * mpmath.mpf(x)
            w = z ** (-1 / mpmath.mpf(xi))
            want_cdf = float(mpmath.exp(-w))
            want_log_pdf = float(-(1 + 1 / mpmath.mpf(xi)) * mpmath.log(z) - w)
        member = d.gev(xi)
        assert d.cdf(member, x) == pytest.approx(want_cdf, rel=1e-13, abs=0.0)
        assert d.log_pdf(member, x) == pytest.approx(want_log_pdf, rel=0.0, abs=1e-13)

    def test_branches_agree_across_threshold(self):
        # the exact branch at xi just above the window stays close to the
        # Gumbel limit, so the crossover introduces no visible jump
        inside = d.gev(0.5e-8)
        outside = d.gev(2e-8)
        ts = np.linspace(0.05, 0.95, 19)
        assert np.allclose(
            d.quantile(inside, ts), d.quantile(outside, ts), rtol=0, atol=1e-6
        )
        assert np.allclose(
            d.density_quantile(inside, ts),
            d.density_quantile(outside, ts),
            rtol=1e-6,
        )


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------


@st.composite
def any_member(draw):
    family = draw(st.sampled_from(d.FAMILIES))
    theta = draw(st.floats(min_value=0.1, max_value=10.0))
    if family == "gev":
        return d.gev(draw(st.floats(min_value=-1.9, max_value=1.9)))
    if family in ("pareto", "power_function"):
        nu = draw(st.floats(min_value=0.2, max_value=5.0))
        maker = d.pareto if family == "pareto" else d.power_function
        return maker(theta, nu)
    maker = {"uniform": d.uniform, "exponential": d.exponential, "logistic": d.logistic}
    return maker[family](theta)


@given(any_member(), st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_quantile_lands_in_support(member, t):
    lo, hi = member.support
    x = d.quantile(member, t)
    assert lo <= x <= hi
    assert math.isfinite(x)


@given(
    any_member(),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=200, deadline=None)
def test_quantile_monotone(member, t1, t2):
    if t1 > t2:
        t1, t2 = t2, t1
    assert d.quantile(member, t1) <= d.quantile(member, t2)


@given(any_member(), st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_cdf_in_unit_interval(member, x):
    p = d.cdf(member, x)
    assert 0.0 <= p <= 1.0


@given(any_member(), st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=200, deadline=None)
def test_round_trip_property(member, t):
    assert d.cdf(member, d.quantile(member, t)) == pytest.approx(t, abs=1e-9)


@given(any_member(), st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=200, deadline=None)
def test_density_never_exceeds_sup(member, t):
    sup = d.sup_density(member)
    if math.isfinite(sup):
        assert d.density_quantile(member, t) <= sup * (1.0 + 1e-9)
