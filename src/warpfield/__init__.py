"""warpfield: residual checks for metric identities on multiply warped
products carrying a torsion-shifted metric connection.

The package assembles block-diagonal product metrics, differentiates
them with order-2 forward-mode jets, and re-derives connection,
Lie-derivative, Killing-type and curvature quantities along two
independent routes, so every identity in the check registry can be
tested numerically at sampled chart points.
"""

__version__ = "0.1.0"

from .jets import Jet2  # noqa: F401
from .metric import BlockMetric, ProductStructure  # noqa: F401
