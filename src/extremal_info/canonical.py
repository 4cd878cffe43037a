"""Canonical parameter grid for table reproduction and verification.

This file is the single versioned source of the parameter sets every
table, figure and cross-check sweeps over; tests import these constants
rather than re-declaring their own grids.  It names no family: members
are built for every record of the family registry from the grid of each
field the record takes.
"""

from __future__ import annotations

from itertools import product

from .distributions import REGISTRY, DistributionSpec

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

_GRIDS = {"theta": CANONICAL_THETAS, "nu": CANONICAL_NUS, "xi": CANONICAL_XIS}
_REPRESENTATIVE = {"theta": 1.0, "nu": 2.0, "xi": 0.5}


def catalog_members() -> tuple[DistributionSpec, ...]:
    """Every canonical catalog member, in deterministic family-major order.

    Families come in registry order, each over the product of its fields'
    grids with the last field varying fastest.
    """
    return tuple(
        DistributionSpec(family, **dict(zip(record.fields, values)))
        for family, record in REGISTRY.items()
        for values in product(*(_GRIDS[name] for name in record.fields))
    )


def mc_representatives() -> tuple[DistributionSpec, ...]:
    """One member per family for the Monte Carlo agreement checks."""
    return tuple(
        DistributionSpec(family, **{name: _REPRESENTATIVE[name] for name in record.fields})
        for family, record in REGISTRY.items()
    )
