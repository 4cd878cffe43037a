"""Extreme members: every call returns or declines by name.

Each closed-route entry point, the convergence study and both Monte Carlo
estimators are run on members whose parameters sit at the edges of the
double range, at n up to 10^12.  A call either returns or raises
``ValueError``, ``OverflowError`` or ``QuadratureError`` with a message of
the package's own; Python's math errors ("Numerical result out of range",
"math range error", "math domain error") never reach the caller, and no
numpy floating-point warning is raised.
"""

import re
import warnings

import numpy as np
import pytest

from extremal_info import bounds, evt, measures, numerics
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
