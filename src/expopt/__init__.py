"""expopt: adaptive optimistic online optimization with exponentiated updates.

A numpy library for online and stochastic convex optimization built around
an entropy-like regularizer whose mirror maps update magnitudes
multiplicatively and signs like a p-norm method.  It bundles the entropic
geometry, Lambert-function proximal steps, exact l1-ball Bregman
projections, spectral (matrix) learners, online-to-batch acceleration,
diagonal-preconditioner baselines, two-point gradient estimation, and a
benchmark harness with a CLI.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from .accelerate import *
from .baselines import *
from .entropy import *
from .lambertw import *
from .learners import *
from .prox import *
from .spectral import *
from .zeroth_order import *

__version__ = "0.1.0"
