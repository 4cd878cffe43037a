"""Tests for the closed-form helper constants and integrals.

Every value with a closed form is checked against an independent route:
direct summation, scipy's gamma-family functions, or brute-force
numerical integration with scipy.integrate.quad.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy import special as sps

from extremal_info import special


def test_euler_gamma_value():
    # independent source: numpy ships the constant to full precision
    assert special.EULER_GAMMA == np.euler_gamma


class TestHarmonic:
    def test_small_values_exact(self):
        assert special.harmonic(1) == 1.0
        assert special.harmonic(2) == 1.5
        assert special.harmonic(4) == pytest.approx(25.0 / 12.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 17, 100, 9999, 10_000])
    def test_matches_direct_summation(self, n):
        direct = math.fsum(1.0 / k for k in range(1, n + 1))
        assert special.harmonic(n) == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize("n", [10_001, 50_000, 10**7])
    def test_large_values_use_digamma_identity(self, n):
        expected = sps.digamma(n + 1) + np.euler_gamma
        assert special.harmonic(n) == pytest.approx(expected, rel=1e-14)

    def test_large_value_against_summation(self):
        n = 200_000
        direct = math.fsum(1.0 / k for k in range(1, n + 1))
        assert special.harmonic(n) == pytest.approx(direct, abs=1e-11)

    @given(st.integers(min_value=1, max_value=5000))
    def test_recurrence(self, n):
        assert special.harmonic(n + 1) == pytest.approx(
            special.harmonic(n) + 1.0 / (n + 1), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            special.harmonic(bad)

    def test_rejects_bool_and_float(self):
        with pytest.raises((TypeError, ValueError)):
            special.harmonic(True)
        with pytest.raises((TypeError, ValueError)):
            special.harmonic(2.0)


class TestPrefixTables:
    """The prefix-sum tables reproduce math.fsum bit for bit."""

    def test_harmonic_exact(self):
        terms = [1.0 / k for k in range(1, 10_001)]
        n = np.arange(1, 10_001)
        fsums = [math.fsum(terms[:m]) for m in n.tolist()]
        mismatched = [m for m, v in zip(n.tolist(), fsums) if special.harmonic(m) != v]
        assert mismatched == []
        assert special.harmonic(n).tolist() == fsums

    def test_half_geometric_sum_exact(self):
        terms = [math.ldexp(1.0 / k, -k) for k in range(1, 1101)]
        for n in range(0, 1201):
            assert special.half_geometric_sum(n) == math.fsum(terms[:n]), n

    def test_tables_are_complete_at_import_and_immutable(self):
        assert type(special._HARMONIC_TABLE) is tuple
        assert type(special._HALF_GEOMETRIC_TABLE) is tuple
        assert len(special._HARMONIC_TABLE) == special._HARMONIC_EXACT_MAX + 1
        assert len(special._HALF_GEOMETRIC_TABLE) == special._HALF_GEOMETRIC_CAP + 1
        array = special._HARMONIC_ARRAY
        assert isinstance(array, np.ndarray) and not array.flags.writeable
        assert array.tolist() == list(special._HARMONIC_TABLE)

    def test_array_and_scalar_agree_across_the_switch_to_digamma(self):
        n = [9_999, 10_000, 10_001, 10**6]
        values = special.harmonic(np.array(n)).tolist()
        assert [v.hex() for v in values] == [special.harmonic(m).hex() for m in n]


class TestHalfGeometricSum:
    def test_zero_terms(self):
        assert special.half_geometric_sum(0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 53, 60, 200, 1100])
    def test_matches_direct_summation(self, n):
        # 0.5**k underflows to zero instead of overflowing like 2.0**k
        direct = math.fsum(0.5**k / k for k in range(1, n + 1))
        assert special.half_geometric_sum(n) == pytest.approx(direct, abs=2e-16)

    @pytest.mark.parametrize("n", [1, 5, 10, 30, 60])
    def test_tail_bound_to_ln2(self, n):
        # the series converges to ln 2 with remainder below 2^-n
        assert abs(math.log(2.0) - special.half_geometric_sum(n)) <= 2.0**-n

    def test_saturates_at_ln2_in_double_precision(self):
        full = special.half_geometric_sum(1100)
        assert full == pytest.approx(math.log(2.0), abs=2e-16)
        assert special.half_geometric_sum(10_000) == full

    def test_monotone_in_n(self):
        values = [special.half_geometric_sum(n) for n in range(0, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            special.half_geometric_sum(-1)


class TestBetaFunction:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (1.0, 1.0, 1.0),
            (2.0, 3.0, 1.0 / 12.0),
            (0.5, 0.5, math.pi),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert special.beta_function(a, b) == pytest.approx(expected, rel=1e-14)

    def test_large_arguments_do_not_overflow(self):
        # direct gamma ratios overflow long before this
        value = special.beta_function(2 * 10**6 - 1, 2.5)
        assert 0.0 < value < 1e-10
        log_direct = sps.gammaln(2e6 - 1) + sps.gammaln(2.5) - sps.gammaln(2e6 + 1.5)
        assert math.log(value) == pytest.approx(log_direct, rel=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_symmetry(self, a, b):
        assert special.beta_function(a, b) == pytest.approx(
            special.beta_function(b, a), rel=1e-13
        )

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (1.0, math.nan)])
    def test_rejects_nonpositive(self, a, b):
        with pytest.raises(ValueError):
            special.beta_function(a, b)


class TestBetaLogMoment:
    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_matches_quadrature(self, n):
        # E[ln(1 - Y)] for Y ~ Beta(n, 1), density n y^(n-1) on (0, 1)
        value, err = integrate.quad(
            lambda y: n * y ** (n - 1) * math.log1p(-y), 0.0, 1.0, epsabs=1e-13
        )
        assert special.beta_n1_log_moment(n) == pytest.approx(value, abs=max(1e-10, 10 * err))

    def test_equals_minus_harmonic(self):
        for n in (1, 4, 100):
            assert special.beta_n1_log_moment(n) == -special.harmonic(n)


class TestLogPowerIntegral:
    """Each kind is pinned against scipy.integrate.quad on the raw integral."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_lower_half_log(self, n):
        value, err = integrate.quad(
            lambda t: n * t ** (n - 1) * math.log(t), 0.0, 0.5, epsabs=1e-14
        )
        got = special.log_power_integral("lower_half_log", n=n)
        assert got == pytest.approx(value, abs=max(1e-12, 10 * err))

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_power_log(self, n):
        value, err = integrate.quad(
            lambda t: t ** (n - 1) * math.log(t), 0.0, 1.0, epsabs=1e-14
        )
        got = special.log_power_integral("power_log", n=n)
        assert got == pytest.approx(value, abs=max(1e-12, 10 * err))

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_power_loglog(self, n):
        value, err = integrate.quad(
            lambda t: t ** (n - 1) * math.log(-math.log(t)), 0.0, 1.0, epsabs=1e-14
        )
        got = special.log_power_integral("power_loglog", n=n)
        assert got == pytest.approx(value, abs=max(1e-11, 10 * err))

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.5])
    def test_power_logpow(self, nu, mu):
        value, err = integrate.quad(
            lambda t: t ** (nu - 1.0) * (-math.log(t)) ** (mu - 1.0),
            0.0,
            1.0,
            epsabs=1e-14,
        )
        got = special.log_power_integral("power_logpow", nu=nu, mu=mu)
        assert got == pytest.approx(value, rel=1e-10)

    def test_power_logpow_gamma_identity(self):
        # reduces to Gamma(mu) / nu^mu
        got = special.log_power_integral("power_logpow", nu=2.0, mu=3.0)
        assert got == pytest.approx(2.0 / 8.0, rel=1e-14)

    def test_power_loglog_at_one_is_minus_gamma(self):
        got = special.log_power_integral("power_loglog", n=1)
        assert got == pytest.approx(-np.euler_gamma, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            special.log_power_integral("no_such_kind", n=1)

    def test_missing_or_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            special.log_power_integral("power_log")
        with pytest.raises(ValueError, match="power_logpow requires nu and mu"):
            special.log_power_integral("power_logpow")
        with pytest.raises(ValueError):
            special.log_power_integral("power_logpow", nu=-1.0, mu=2.0)
        with pytest.raises(ValueError):
            special.log_power_integral("power_logpow", nu=1.0, mu=0.0)


def _check_n_grid_one_by_one(n_grid, name):
    """The grid rule stated per element: the reference for _check_n_grid."""
    grid = [special._check_index(n, name) for n in n_grid]
    if not grid:
        raise ValueError(f"{name} requires an n_grid with at least one value of n")
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError(f"{name} requires a strictly increasing n_grid")
    return grid


class TestNGrid:
    @pytest.mark.parametrize(
        "grid",
        [
            [], [0], [3, 0, -1], [2, 2.5], [2.5, 0], [True, 2], [2, True], [1, 1], [5, 3],
            [2, 10**20], [10**20, 2], [2, 0, 10**20], (np.int64(2), np.int64(5)),
            np.array([3, 2]), np.array([1, 0]), np.array([2.0, 3.0]), np.array([[1, 2]]),
            np.array([2, 5], dtype=np.uint8), np.array([], dtype=np.int64),
            range(0, 5), range(5, 0, -1), range(2, 10, 3), range(3, 3), range(10**20, 10**20 + 3),
        ],
        ids=repr,
    )
    def test_is_the_rule_stated_per_element(self, grid):
        # the same grid, or the same message naming the same first offending n
        try:
            want = _check_n_grid_one_by_one(grid, "study")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                special._check_n_grid(grid, "study")
            assert str(got.value) == str(exc)
        else:
            assert special._check_n_grid(grid, "study").tolist() == want

    def test_is_int64_while_n_squared_fits(self):
        # beyond, Python ints keep n * n and 2 n - 1 exact in the closed forms
        edge = special._INT64_N_MAX
        assert edge * edge <= np.iinfo(np.int64).max < (edge + 1) ** 2
        assert special._check_n_grid([2, edge], "study").dtype == np.int64
        beyond = special._check_n_grid([2, edge + 1], "study")
        assert beyond.dtype == object and type(beyond[-1]) is int

    def test_returns_a_new_array(self):
        grid = np.array([2, 3])
        checked = special._check_n_grid(grid, "study")
        grid[0] = 0
        assert checked.tolist() == [2, 3]
