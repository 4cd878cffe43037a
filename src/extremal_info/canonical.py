"""Canonical parameter grid for table reproduction and verification.

This file is the single versioned source of the parameter sets every
table, figure and cross-check sweeps over; tests import these constants
rather than re-declaring their own grids.
"""

from __future__ import annotations

from .distributions import (
    DistributionSpec,
    exponential,
    gev,
    logistic,
    pareto,
    power_function,
    uniform,
)

__all__ = [
    "CANONICAL_THETAS",
    "CANONICAL_NUS",
    "CANONICAL_XIS",
    "TABLE_N",
    "catalog_members",
    "mc_representatives",
]

CANONICAL_THETAS = (0.5, 1.0, 2.0)
CANONICAL_NUS = (1.0, 2.0, 3.0)
CANONICAL_XIS = (-0.5, 0.0, 0.5)

TABLE_N = (1, 2, 5, 10, 50)


def catalog_members() -> tuple[DistributionSpec, ...]:
    """Every canonical catalog member, in deterministic family-major order."""
    members: list[DistributionSpec] = []
    for th in CANONICAL_THETAS:
        members.append(uniform(th))
    for th in CANONICAL_THETAS:
        members.append(exponential(th))
    for th in CANONICAL_THETAS:
        members.append(logistic(th))
    for th in CANONICAL_THETAS:
        for nu in CANONICAL_NUS:
            members.append(pareto(th, nu))
    for th in CANONICAL_THETAS:
        for nu in CANONICAL_NUS:
            members.append(power_function(th, nu))
    for xi in CANONICAL_XIS:
        members.append(gev(xi))
    return tuple(members)


def mc_representatives() -> tuple[DistributionSpec, ...]:
    """One member per family for the Monte Carlo agreement checks."""
    return (
        uniform(1.0),
        exponential(1.0),
        logistic(1.0),
        pareto(1.0, 2.0),
        power_function(1.0, 2.0),
        gev(0.5),
    )
