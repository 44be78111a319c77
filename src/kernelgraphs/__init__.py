"""Kernel graphs of transformation semigroups, hulls, and generating sets.

Every name in a module's ``__all__`` is exported here; the modules declare them.
"""

from . import census, designs, errors, graphs, groups, kernelgraph, mingen, semigroup, transform
from .census import *
from .designs import *
from .errors import *
from .graphs import *
from .groups import *
from .kernelgraph import *
from .mingen import *
from .semigroup import *
from .transform import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (census, designs, errors, graphs, groups, kernelgraph, mingen, semigroup, transform)
    for name in module.__all__
]
