"""Exact quantum Laurent expansions for arcs on triangulated surfaces.

Two independent computations of the same Laurent expansion — one from
perfect matchings of a labelled snake graph, one from canonical index
sets of a string module — plus seed mutation and two-term skein
products, all in exact integer arithmetic over the quantum torus.
"""

from . import (
    checks,
    errors,
    expansion,
    kronecker,
    seeds,
    skein_mult,
    snake,
    strings,
    surface,
    torus,
    valuation,
)
from .checks import *  # noqa: F403
from .errors import *  # noqa: F403
from .expansion import *  # noqa: F403
from .kronecker import *  # noqa: F403
from .seeds import *  # noqa: F403
from .skein_mult import *  # noqa: F403
from .snake import *  # noqa: F403
from .strings import *  # noqa: F403
from .surface import *  # noqa: F403
from .torus import *  # noqa: F403
from .valuation import *  # noqa: F403

# The package exports exactly what its modules list.
__all__ = [
    *checks.__all__,
    *errors.__all__,
    *expansion.__all__,
    *kronecker.__all__,
    *seeds.__all__,
    *skein_mult.__all__,
    *snake.__all__,
    *strings.__all__,
    *surface.__all__,
    *torus.__all__,
    *valuation.__all__,
]

__version__ = "0.1.0"
