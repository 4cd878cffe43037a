"""Information measures of sample maxima.

Closed forms, quadrature, and Monte Carlo routes for the Shannon entropy
and extropy of the maximum of n i.i.d. draws from six parametric
families, plus the bounds, envelopes, and extreme-value limits that tie
them together.

The package re-exports every library module's ``__all__``, so a public
name is declared once, where it is defined; :mod:`~extremal_info.cli` and
:mod:`~extremal_info.verify` stay out of its namespace.
"""

from . import bounds, canonical, distributions, evt, measures, numerics, special
from .bounds import *  # noqa: F403
from .canonical import *  # noqa: F403
from .distributions import *  # noqa: F403
from .evt import *  # noqa: F403
from .measures import *  # noqa: F403
from .numerics import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bounds, canonical, distributions, evt, measures, numerics, special)
    for name in module.__all__
]
