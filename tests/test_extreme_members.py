"""Extreme members: every call returns or declines by name.

Each closed-route entry point, the convergence study and both Monte Carlo
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
"""

import collections
import dataclasses
import re
import warnings

import numpy as np
import pytest

from extremal_info import bounds, canonical, evt, measures, numerics
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


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("member", BEYOND_RANGE_H, ids=lambda m: m.label())
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
LIMIT_UPPERS = (bounds.shannon_limit_upper, bounds.extropy_limit_upper)
PER_MEMBER = (*LIMIT_UPPERS, bounds.envelope_check)
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
