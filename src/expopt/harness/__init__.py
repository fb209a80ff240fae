"""Synthetic benchmark harness: data streams, experiment runner, CSV output.

The package exports exactly the names in the ``__all__`` lists of its ``experiments`` and
``streams`` modules.
"""

from .experiments import *
from .streams import *
