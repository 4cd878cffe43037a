"""Extreme members: every call returns or declines by name.

Each closed-route entry point, the per-member calls (both limit ceilings
and ``envelope_check``), the convergence study and both Monte Carlo
estimators are run on members whose parameters sit at the edges of the
double range, at n up to 10^12.  A call either returns or raises
``ValueError``, ``OverflowError`` or ``QuadratureError`` with a message of
the package's own; Python's math errors ("Numerical result out of range",
"math range error", "math domain error") never reach the caller, and no
numpy floating-point warning is raised.

The member facts the closed route reads (I(1/2), the log-concavity
verdict, sup f, xi and the label) are kept on the spec once taken: on
these members and the catalog, each is taken at most once per spec, and
no result or error depends on what the spec, or an equal one, answered
before.

Each record's log profile ln I, which the Monte Carlo route reads, is
pinned on these members and the catalog against mpmath, with ln t and
ln(1 - t) down to 1e-300 at each end, and against ln I wherever I is a
normal double.  Each record's closed J is pinned against mpmath on these
members, a few more and the catalog, at n up to 10^300: a double within
1e-15 of it (pareto within scipy's betaln), -inf where the integral
diverges, or a named ``OverflowError`` where J lies beyond the doubles.

At n past the largest double (2^1024 and 10^400) no call takes float(n):
on the Monte Carlo representatives, H_n, both measures, both bounds
reports, both upper envelopes and the normalized calls each return a
double within reach of mpmath at 50 digits, or raise an ``OverflowError``
that names the member and n.
"""

import collections
import dataclasses
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest

from extremal_info import bounds, canonical, evt, measures, numerics, special
from extremal_info import distributions as d

# members whose closed H lies beyond the double range at n = 1 and 3
# (about -1e310 and +1e310)
BEYOND_RANGE_H = (d.power_function(1.0, 1e-310), d.pareto(1.0, 1e-310))
MEMBERS = (
    *(d.gev(xi) for xi in (-1.99, -1.5, -0.9, 0.3, 5.0, 50.0, 100.0, 170.0, 171.0, 200.0, 1000.0)),
    *(d.pareto(theta, nu) for theta in (1e-3, 1.0, 1e3) for nu in (1e-3, 0.01, 1.0, 1e3)),
    *(d.power_function(theta, nu) for theta in (1e-3, 1e3) for nu in (1e-3, 0.3, 1e3)),
    # nu/theta and nu*theta beyond the double range
    d.pareto(1e-300, 1e300),
    d.pareto(1e300, 1e-300),
    d.power_function(1e-300, 1e-300),
    d.power_function(1e300, 1e300),
    *(family(theta) for family in (d.exponential, d.logistic, d.uniform) for theta in (1e-300, 1e300)),
    *BEYOND_RANGE_H,
)
CLOSED_ROUTE = (
    measures.shannon_max,
    measures.extropy_max,
    bounds.shannon_bounds,
    bounds.extropy_bounds,
    bounds.normalized_bounds,
    measures.shannon_normalized,
    measures.extropy_normalized,
    evt.norming_constants,
)
# the calls that take the member alone
LIMIT_UPPERS = (bounds.shannon_limit_upper, bounds.extropy_limit_upper)
PER_MEMBER = (*LIMIT_UPPERS, bounds.envelope_check)
DECLINES = (ValueError, OverflowError, numerics.QuadratureError)
PYTHON_MATH_ERRORS = ("Numerical result out of range", "math range error", "math domain error")


def _failures(calls) -> list[str]:
    """The calls that raise anything but a named decline, or warn."""
    failures = []
    for label, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
            except DECLINES as exc:
                if any(text in str(exc) for text in PYTHON_MATH_ERRORS):
                    failures.append(f"{label}: {exc!r}")
            except Exception as exc:  # a warning turned error, or any other raise
                failures.append(f"{label}: {exc!r}")
    return failures


@pytest.mark.parametrize("entry", CLOSED_ROUTE, ids=lambda f: f.__name__)
def test_closed_route(entry):
    calls = [
        (f"{entry.__name__}({m.label()}, {n})", lambda m=m, n=n: entry(m, n))
        for m in MEMBERS
        for n in (1, 2, 50, 10**6, 10**12)
    ]
    assert _failures(calls) == []


def test_convergence_study():
    calls = [(f"study {m.label()}", lambda m=m: evt.convergence_study(m, range(2, 200))) for m in MEMBERS]
    assert _failures(calls) == []


@pytest.mark.parametrize("entry", [measures.shannon_max, measures.extropy_max], ids=lambda f: f.__name__)
def test_monte_carlo(entry):
    calls = [
        (f"{entry.__name__}({m.label()}, {n}, mc)", lambda m=m, n=n: entry(m, n, "mc", samples=2000))
        for m in MEMBERS
        for n in (1, 5, 10**6)
    ]
    assert _failures(calls) == []


@pytest.mark.parametrize("entry", PER_MEMBER, ids=lambda f: f.__name__)
def test_per_member_calls(entry):
    assert _failures([(f"{entry.__name__}({m.label()})", lambda m=m: entry(m)) for m in MEMBERS]) == []


@pytest.mark.parametrize(
    "member, n",
    [
        *((m, n) for m in BEYOND_RANGE_H for n in (1, 3)),
        # xi (gamma + ln n) is about +-2.9e308
        (d.gev(1e308), 10),
        (d.gev(-1e308), 10),
    ],
    ids=lambda v: v.label() if isinstance(v, d.DistributionSpec) else str(v),
)
def test_an_entropy_beyond_the_double_range_is_named(member, n):
    # the scalar and the array call name the member and the n
    named = re.escape(f"entropy of the maximum of n={n} draws from {member.label()} is ")
    with pytest.raises(OverflowError, match=named + ".*, beyond the double range$"):
        measures.shannon_max(member, n)
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match=named):
        d.REGISTRY[member.family].shannon(member, np.array([n, n + 1]))


def test_a_study_names_its_first_n_whose_entropy_is_beyond_the_double_range():
    # pareto(1, 1e-310) has xi = 1e310, which the study declines first
    member = BEYOND_RANGE_H[0]
    with pytest.raises(OverflowError, match=re.escape(f"n=3 draws from {member.label()}")):
        evt.convergence_study(member, [3, 4, 10**6])


# every call that reads a member fact, each with the n it takes
FACT_READERS = (*CLOSED_ROUTE, bounds.shannon_upper_envelope, bounds.extropy_upper_envelope)
HISTORY_N = (1, 2, 50, 10**6, 10**12)
RECORD_FACTS = ("density_quantile", "sup_density", "is_log_concave", "evi")


def _spec(member):
    """A new spec equal to ``member``, which no call has answered."""
    return d.DistributionSpec(member.family, member.theta, member.nu, member.xi)


def _outcome(entry, spec, *n):
    """The call's result or named decline, with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(entry(spec, *n))
        except DECLINES as exc:
            result = type(exc).__name__, str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


def _n_args(entry) -> list[tuple]:
    """The n of ``HISTORY_N`` for an entry that takes one, else no argument."""
    return [()] if entry in PER_MEMBER else [(n,) for n in HISTORY_N]


def _sweep(entries, spec) -> list:
    """Each entry's outcome on ``spec`` at each of its ``_n_args``, in turn."""
    return [_outcome(entry, spec, *n) for entry in entries for n in _n_args(entry)]


@pytest.mark.parametrize(
    "member",
    [d.exponential(3.0), d.logistic(2.0), d.pareto(1.0, 2.0), d.power_function(2.0, 0.5), d.gev(0.3), d.gev(200.0)],
    ids=lambda m: m.label(),
)
def test_each_member_fact_is_taken_once_per_spec(member, monkeypatch):
    # a sweep of the closed route over 10 n takes I(1/2), sup f, the
    # log-concavity verdict, xi and the label from the record at most once
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    record = d.REGISTRY[member.family]
    facts = {name: counted(name, getattr(record, name)) for name in RECORD_FACTS}
    monkeypatch.setitem(d.REGISTRY, member.family, dataclasses.replace(record, **facts))
    monkeypatch.setattr(d.DistributionSpec, "label", counted("label", d.DistributionSpec.label))
    spec = _spec(member)
    for n in (1, 2, 3, 10, 50, 100, 10**3, 10**4, 10**6, 10**12):
        for entry in CLOSED_ROUTE:
            _outcome(entry, spec, n)
    for entry in LIMIT_UPPERS:
        _outcome(entry, spec)
    assert {name: counts[name] for name in RECORD_FACTS} == dict.fromkeys(RECORD_FACTS, 1)
    assert counts["label"] <= 1


@pytest.mark.parametrize("member", dict.fromkeys((*canonical.catalog_members(), *MEMBERS)), ids=lambda m: m.label())
def test_no_closed_result_depends_on_call_history(member):
    # each call gives the same result, or the same error, on a new spec, on
    # a spec that has answered every other call, and on an equal spec built
    # separately after that
    entries = FACT_READERS + PER_MEMBER
    fresh = [[_outcome(entry, _spec(member), *n) for n in _n_args(entry)] for entry in entries]
    for k, entry in enumerate(entries):
        spec = _spec(member)
        _sweep(entries[:k] + entries[k + 1 :], spec)
        assert _sweep([entry], spec) == fresh[k], entry.__name__
    twin = d.from_dict(d.to_dict(member))
    assert twin == spec and twin is not spec
    assert [_sweep([entry], twin) for entry in entries] == fresh


# ---------------------------------------------------------------------------
# The log profile: ln I(t) from (ln t, ln(1 - t))
# ---------------------------------------------------------------------------

PROFILED = tuple(dict.fromkeys((*canonical.catalog_members(), *MEMBERS)))
# levels t = 10^-k near 0 and 1 - t = 10^-k near 1, down to 1e-300, and a
# few in between, as the doubles nearest (ln t, ln(1 - t))
with mpmath.workdps(40):
    _SMALL = [mpmath.mpf(10) ** -k for k in (300, 200, 100, 20, 10, 3, 1)]
    _LEVELS = [
        *((mpmath.log(u), mpmath.log1p(-u)) for u in _SMALL),
        *((mpmath.log(t), mpmath.log1p(-t)) for t in (mpmath.mpf("0.25"), mpmath.mpf("0.5"), mpmath.mpf("0.75"))),
        *((mpmath.log1p(-u), mpmath.log(u)) for u in reversed(_SMALL)),
    ]
LEVELS = tuple((float(log_t), float(log1m_t)) for log_t, log1m_t in _LEVELS)


def _mp_log_profile(member, log_t, log1m_t):
    """ln f(F^-1(t)) at the current mpmath precision, from the density and
    the quantile of the module table, with ln t, ln(1 - t) and the
    parameters taken as exact."""
    th, log_t, log1m_t = mpmath.mpf(member.theta), mpmath.mpf(log_t), mpmath.mpf(log1m_t)
    if member.family == "uniform":
        return -mpmath.log(th)
    if member.family == "exponential":
        return mpmath.log(th) + log1m_t  # x = -ln(1 - t)/theta
    if member.family == "logistic":
        x = (log_t - log1m_t) / th
        return mpmath.log(th) - th * x - 2 * mpmath.log1p(mpmath.exp(-th * x))
    if member.family == "gev":
        xi = mpmath.mpf(member.xi)
        if xi == 0:
            x = -mpmath.log(-log_t)
            return -x - mpmath.exp(-x)
        log_z = -xi * mpmath.log(-log_t)  # z = 1 + xi x
        return -(1 + 1 / xi) * log_z - mpmath.exp(-log_z / xi)
    nu = mpmath.mpf(member.nu)
    if member.family == "pareto":
        log_x = mpmath.log(th) - log1m_t / nu
        return mpmath.log(nu) + nu * mpmath.log(th) - (nu + 1) * log_x
    log_x = log_t / nu - mpmath.log(th)  # power_function
    return mpmath.log(nu) + nu * mpmath.log(th) + (nu - 1) * log_x


def _log_profile(member, log_t, log1m_t):
    record = d.REGISTRY[member.family]
    with np.errstate(all="ignore"):
        return record.log_density_quantile(member, np.asarray(log_t), np.asarray(log1m_t))


@pytest.mark.parametrize("member", PROFILED, ids=lambda m: m.label())
def test_log_profile_against_mpmath(member):
    # The reference is taken at 400 digits, which leave more than 40 past
    # the cancellation of nu ln theta at nu = 1e300.  ln I is within 1e-14
    # of it relative to 1 + |ln I| + |ln theta| + |ln nu|: ln theta and ln nu
    # are rounded to doubles first, and may cancel against the other terms.
    # Where ln I lies beyond the double range it is +-inf.
    log_t, log1m_t = map(np.array, zip(*LEVELS))
    got = _log_profile(member, log_t, log1m_t)
    assert got.shape == log_t.shape
    scale = 1 + abs(math.log(member.theta)) + abs(math.log(member.nu or 1.0))
    with mpmath.workdps(400):
        for a, b, value in zip(log_t.tolist(), log1m_t.tolist(), got.tolist()):
            want = _mp_log_profile(member, a, b)
            if abs(want) > np.finfo(float).max:
                assert value == (math.inf if want > 0 else -math.inf), (a, b)
            else:
                assert abs(value - want) <= 1e-14 * (scale + abs(want)), (a, b, value, float(want))


# t with 1 - t exact: j/1024, and 2^-k and 1 - 2^-k for k up to 52
_POWERS = 2.0 ** -np.arange(11, 53)
EXACT_T = np.unique(np.concatenate((np.arange(1, 1024) / 1024, _POWERS, 1 - _POWERS)))


@pytest.mark.parametrize("member", PROFILED, ids=lambda m: m.label())
def test_log_profile_is_ln_of_the_profile(member):
    # wherever I(t) is a normal double; its own rounding, which the pow of a
    # large exponent carries into ln I, is within 1e-13 relative
    with np.errstate(all="ignore"):
        profile = d.density_quantile(member, EXACT_T)
        normal = (profile >= np.finfo(float).tiny) & (profile < math.inf)
        want = np.log(profile[normal])
    got = _log_profile(member, np.log(EXACT_T), np.log1p(-EXACT_T))[normal]
    bad = np.abs(got - want) > 1e-13 * np.maximum(1.0, np.abs(want))
    assert not bad.any(), list(zip(EXACT_T[normal][bad], got[bad], want[bad]))


# ---------------------------------------------------------------------------
# Closed J against mpmath
# ---------------------------------------------------------------------------

# every family on the catalog and the extreme members, and where nu^2,
# nu/theta, the product of the pareto prefactor and its beta function, n^2 or
# a power of n leaves the doubles although J is one, and where J lies beyond
EXTROPY_MEMBERS = dict.fromkeys(
    [
        *canonical.catalog_members(),
        *MEMBERS,
        *(family(theta) for family in (d.exponential, d.logistic, d.uniform) for theta in (1e-300, 1e300, 1e-310)),
        *(d.gev(xi) for xi in (-1.05, -1.5, -1.99)),
    ]
)
EXTROPY_N = (1, 2, 50, 10**6, 10**12, 2 * 10**154, 10**200, 10**300)
EXTROPY_CELLS = dict.fromkeys(
    [
        (d.power_function(1.0, 1e300), 1),
        (d.power_function(1.0, 1e300), 50),
        (d.pareto(1e-290, 1e10), 10**6),
        *((m, n) for m in EXTROPY_MEMBERS for n in EXTROPY_N),
    ]
)


def _mp_extropy(member, n):
    """J of the maximum at 40 digits past the size of ln Gamma(2n + 1/nu):
    -n^2/(2 (2n - 1) theta) for uniform, -n theta/(4 (2n -+ 1)) for
    exponential and logistic, -n^2 nu^2 theta / (2 (2 n nu - 1)), -inf where
    2 n nu <= 1, for power_function, -(nu n^2 / (2 theta)) B(2n - 1,
    2 + 1/nu) for pareto, and -Gamma(xi + 2)/(2^(xi+3) n^xi) for gev."""
    with mpmath.workdps(40 + int(max(math.log10(2 * n + 2), -math.log10(member.nu or 1.0)))):
        theta, n = mpmath.mpf(member.theta), mpmath.mpf(n)
        if member.family == "uniform":
            return -(n * n) / (2 * (2 * n - 1) * theta)
        if member.family in ("exponential", "logistic"):
            return -n * theta / (4 * (2 * n + (1 if member.family == "logistic" else -1)))
        if member.family == "gev":
            xi = mpmath.mpf(0 if abs(member.xi) < d.GUMBEL_XI_EPS else member.xi)
            return -mpmath.exp(mpmath.loggamma(xi + 2) - (xi + 3) * mpmath.log(2) - xi * mpmath.log(n))
        nu = mpmath.mpf(member.nu)
        if member.family == "power_function":
            if 2 * n * nu <= 1:
                return -mpmath.inf
            return -(n * n * nu * nu * theta) / (2 * (2 * n * nu - 1))
        a, b = 2 * n - 1, 2 + 1 / nu
        log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        return -mpmath.exp(mpmath.log(nu * n * n / (2 * theta)) + log_beta)


# the relative error allowed past 1e-15: pareto's direct form is within the
# accuracy of scipy's betaln, whose difference of log-gammas loses up to
# 2e-9 at n = 10^6 (ROADMAP item 4)
EXTROPY_TOL = {"pareto": 5e-9}


@pytest.mark.parametrize(
    "member, n", EXTROPY_CELLS, ids=lambda v: v.label() if isinstance(v, d.DistributionSpec) else f"{v:.3g}"
)
def test_closed_extropy_against_mpmath(member, n):
    # J is -inf where the integral diverges, an OverflowError naming the
    # member and n where J lies beyond the doubles, and else a double within
    # 1e-15 of the truth, or within its family's allowance: where the direct
    # form leaves the normal doubles, J is taken from its logarithm in
    # decimal, within 1e-15.  An array of n, as the package builds one,
    # gives the scalar bits or raises the scalar error.
    want = _mp_extropy(member, n)
    record = d.REGISTRY[member.family]
    column = special._check_n_grid([n], "test")
    if -want > sys.float_info.max and want != -mpmath.inf:
        named = re.escape(f"extropy of the maximum of n={n} draws from {member.label()} is -e^")
        for arg in (n, column):
            with pytest.raises(OverflowError, match=named + r".*, beyond the double range$"):
                record.extropy(member, arg)
        return
    got, want = record.extropy(member, n), float(want)
    tol = EXTROPY_TOL.get(member.family, 1e-15)
    assert got == want or abs(got - want) <= tol * abs(want), (got, want)
    column = np.asarray(record.extropy(member, column), dtype=float)
    assert column.tolist() == [got] and column[0].item().hex() == got.hex()


# ---------------------------------------------------------------------------
# n past the largest double
# ---------------------------------------------------------------------------

# n past the largest double, where float(n) raises
HUGE_N = (2**1024, 10**400)


def _mp_i_half(member):
    """I(1/2) = f(F^-1(1/2)) of each family."""
    theta = mpmath.mpf(member.theta)
    if member.family == "uniform":
        return 1 / theta
    if member.family in ("exponential", "logistic"):
        return theta / (2 if member.family == "exponential" else 4)
    if member.family == "gev":
        return mpmath.log(2) ** (member.xi + 1) / 2
    nu = mpmath.mpf(member.nu)
    if member.family == "pareto":
        return nu / theta * mpmath.mpf(2) ** -(1 + 1 / nu)
    return nu * theta * mpmath.mpf(2) ** -((nu - 1) / nu)


def _mp_shannon(member, n):
    """H of the maximum: 1 - ln n - 1/n + ln theta for uniform, 1 - ln n -
    1/n - ln theta + H_n for exponential, 1 - ln n - ln theta + H_n for
    logistic, 1 + ln n/nu - 1/n - ln(nu/theta) + (1 + 1/nu)(H_n - ln n) for
    pareto, 1 - ln n - ln(nu theta) - 1/(nu n) for power_function, and
    1 + gamma + xi gamma + xi ln n for gev."""
    theta, n = mpmath.mpf(member.theta), mpmath.mpf(n)
    ln_n, h_n = mpmath.log(n), mpmath.harmonic(n)
    if member.family == "uniform":
        return 1 - ln_n - 1 / n + mpmath.log(theta)
    if member.family == "exponential":
        return 1 - ln_n - 1 / n - mpmath.log(theta) + h_n
    if member.family == "logistic":
        return 1 - ln_n - mpmath.log(theta) + h_n
    if member.family == "gev":
        xi = mpmath.mpf(member.xi)
        return 1 + mpmath.euler + xi * mpmath.euler + xi * ln_n
    nu = mpmath.mpf(member.nu)
    if member.family == "pareto":
        return 1 + ln_n / nu - 1 / n - mpmath.log(nu / theta) + (1 + 1 / nu) * (h_n - ln_n)
    return 1 - ln_n - mpmath.log(nu * theta) - 1 / (nu * n)


def _assert_close(got, want, rel):
    assert abs(got - float(want)) <= rel * abs(float(want)), (got, want)


def _assert_named_overflow(call, member, n):
    with pytest.raises(OverflowError) as raised:
        call()
    assert member.label() in str(raised.value) and f"n={n}" in str(raised.value)


@pytest.mark.parametrize("n", HUGE_N, ids=("2^1024", "1e400"))
def test_harmonic_past_the_doubles_against_mpmath(n):
    with mpmath.workdps(50):
        want = mpmath.harmonic(mpmath.mpf(n))
    assert abs(special.harmonic(n) - float(want)) <= 1e-12


@pytest.mark.parametrize("n", HUGE_N, ids=("2^1024", "1e400"))
@pytest.mark.parametrize("member", canonical.mc_representatives(), ids=lambda m: m.label())
def test_closed_route_past_the_doubles_against_mpmath(member, n):
    # No call takes float(n): each returns a double within 1e-12 absolute
    # of mpmath at 50 digits for H (ln n, about 900, cancels in it) and 1e-15
    # relative for J, or raises an OverflowError that names the member and n.
    with mpmath.workdps(50):
        h, i_half = _mp_shannon(member, n), _mp_i_half(member)
        ln_n, inv_n, h_n = mpmath.log(n), 1 / mpmath.mpf(n), mpmath.harmonic(mpmath.mpf(n))
        h_lower = 1 - ln_n - inv_n
        # the partial sums of 1/(k 2^k) are ln 2 to far below 2^-1000
        h_upper = 1 - mpmath.log(2 * i_half) - ln_n - inv_n + h_n
        j_lower = -n * i_half / 2
        # n^2 I(1/2) [1/(2n - 1) - 1/(2n)], less terms below 2^-2n
        j_upper = -n * i_half / (2 * (2 * n - 1))
    j = _mp_extropy(member, n)

    got = measures.shannon_max(member, n).value
    assert abs(got - float(h)) <= 1e-12, (got, h)
    report = bounds.shannon_bounds(member, n)
    assert report.value == got
    assert abs(report.lower - float(h_lower)) <= 1e-12, (report.lower, h_lower)
    assert abs(report.upper - float(h_upper)) <= 1e-12, (report.upper, h_upper)
    assert bounds.shannon_upper_envelope(member, n) == report.upper

    upper = bounds.extropy_upper_envelope(member, n)
    _assert_close(upper, j_upper, 1e-15)
    j_tol = EXTROPY_TOL.get(member.family, 1e-15)
    if -j > sys.float_info.max:
        _assert_named_overflow(lambda: measures.extropy_max(member, n), member, n)
    else:
        _assert_close(measures.extropy_max(member, n).value, j, j_tol)
    if -j > sys.float_info.max or -j_lower > sys.float_info.max:
        _assert_named_overflow(lambda: bounds.extropy_bounds(member, n), member, n)
    else:
        report = bounds.extropy_bounds(member, n)
        assert report.upper == upper
        _assert_close(report.value, j, j_tol)
        _assert_close(report.lower, j_lower, 1e-15)

    # the quadrature and Monte Carlo take n as a double, and decline by name
    for method in ("quad", "mc"):
        _assert_named_overflow(lambda: measures.shannon_max(member, n, method), member, n)
        _assert_named_overflow(lambda: measures.extropy_max(member, n, method), member, n)

    # the normalized calls return where a_n is a double, within 1e-12 of
    # H - ln a_n, and else raise the norming's named error
    # (test_norming_past_the_doubles_against_mpmath)
    try:
        evt.norming_constants(member, n)
    except ValueError as exc:
        for call in (measures.shannon_normalized, bounds.normalized_bounds):
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                call(member, n)
        return
    with mpmath.workdps(50):
        want = h - mpmath.log(_mp_norming(member, n)[0])
    normalized = measures.shannon_normalized(member, n).value
    assert abs(normalized - float(want)) <= 1e-12, (normalized, want)
    if -j_lower > sys.float_info.max:
        _assert_named_overflow(lambda: bounds.normalized_bounds(member, n), member, n)
    else:
        assert bounds.normalized_bounds(member, n)[0].value == normalized


def _mp_norming(member, n):
    """(a_n, b_n): theta/n and theta - a_n for uniform, 1/theta and
    ln n/theta for exponential, b_n = theta n^(1/nu) and a_n = b_n/nu for
    pareto, a_n = (1 - (1 - 1/n)^(1/nu))/theta and b_n = 1/theta - a_n for
    power_function, and n^xi and (n^xi - 1)/xi for gev with xi != 0."""
    theta, n = mpmath.mpf(member.theta), mpmath.mpf(n)
    if member.family == "uniform":
        return theta / n, theta - theta / n
    if member.family == "exponential":
        return 1 / theta, mpmath.log(n) / theta
    if member.family == "gev":
        xi = mpmath.mpf(member.xi)
        return n**xi, mpmath.expm1(xi * mpmath.log(n)) / xi
    nu = mpmath.mpf(member.nu)
    if member.family == "pareto":
        return theta * n ** (1 / nu) / nu, theta * n ** (1 / nu)
    a = -mpmath.expm1(mpmath.log1p(-1 / n) / nu) / theta
    return a, 1 / theta - a


@pytest.mark.parametrize("n", HUGE_N, ids=("2^1024", "1e400"))
@pytest.mark.parametrize(
    "member", [*canonical.mc_representatives(), d.gev(-0.5), d.pareto(0.5, 1.0)], ids=lambda m: m.label()
)
def test_norming_past_the_doubles_against_mpmath(member, n):
    # n is taken exactly: a_n and b_n are within 1e-15 relative of mpmath at
    # 50 digits, or the call names why they are not doubles: an a_n below
    # the subnormals (uniform and power_function at 10^400) underflows, one
    # above them (pareto(0.5, 1) at 10^400, not at 2^1024, where theta n =
    # 2^1023 though n is past the doubles) overflows, and the logistic
    # constants are undefined, as 1 - 1/n rounds to 1
    if member.family == "logistic":
        with pytest.raises(ValueError, match=f"^norming constants for the logistic family are undefined at n={n} "):
            evt.norming_constants(member, n)
        return
    with mpmath.workdps(50):
        a, b = _mp_norming(member, n)
    if a < mpmath.ldexp(1, -1075):  # half the least subnormal: a_n rounds to 0
        underflow = f"norming constants for {member.label()} underflow the double range at n={n}"
        with pytest.raises(ValueError, match=f"^{re.escape(underflow)}$"):
            evt.norming_constants(member, n)
        return
    if a > sys.float_info.max:
        overflow = f"norming constants for {member.label()} overflow the double range at n={n}"
        with pytest.raises(OverflowError, match=f"^{re.escape(overflow)}$"):
            evt.norming_constants(member, n)
        return
    got = evt.norming_constants(member, n)
    _assert_close(got.a_n, a, 1e-15)
    _assert_close(got.b_n, b, 1e-15)


def test_a_normalized_gev_past_the_doubles_is_its_limit():
    # h = H - ln a_n = 1 + (1 + xi) gamma at every n, as ln n cancels
    got = measures.shannon_normalized(d.gev(0.5), 10**400).value
    assert abs(got - (1.0 + 1.5 * special.EULER_GAMMA)) <= 1e-12
