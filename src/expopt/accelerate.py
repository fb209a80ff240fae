"""Online-to-batch acceleration of optimistic learners.

:class:`Accelerator` is a :class:`~expopt.learners.Learner` around any learner exposing ``.x``
and ``.step(g, h_next, reg_weight)``, averaging its points with weights ``a_t = t``.  Its
decision ``x`` is the query point ``z_t``, the running average; its ``step(g)`` takes the
(possibly stochastic) gradient at ``z_t`` and feeds the inner learner the scaled gradient
``a_t * g_t``, the hint ``a_{t+1} * g_t``, and the per-round regularizer weight ``a_{t+1}``.
On smooth objectives with vanishing noise the error of ``z_T`` decays at the accelerated
1/T^2 rate; in general it decays at 1/sqrt(T).
"""

from dataclasses import dataclass

import numpy as np

from .entropy import _range_guard
from .learners import Learner

__all__ = ["AccelState", "Accelerator"]


@dataclass(frozen=True)
class AccelState:
    """Averaging bookkeeping of a round: ``z`` is its query point and ``weight_sum`` the
    weights ``a_{1:round}`` averaged into it."""

    z: np.ndarray
    weight_sum: float
    round: int


class Accelerator(Learner):
    """Stochastic acceleration wrapper with weights ``a_t = t``.

    Parameters
    ----------
    learner : object
        Inner optimistic learner (``ExpMd`` or ``ExpFtrl`` on a vector or
        spectral schedule, a diagonal baseline, or any object with the same
        ``x``/``step`` surface), already configured with the feasibility mode
        matching the target problem.
    """

    def __init__(self, learner):
        self.learner = learner
        # the first average has tau = 1: the inner point itself, a -0.0 taken as 0.0
        z = learner.x + 0.0
        super().__init__(AccelState(z=z, weight_sum=1.0, round=1), z, None)

    def step(self, g):
        """Advance one round on the subgradient ``g`` of the smooth part of the objective at
        the query point ``x``; returns the next query point.

        A gradient whose scaling overflows, and an inner step that raises (a library
        learner's does on a gradient that is not finite), raise before any state changes.
        """
        t = self.state.round
        a_t, a_next = float(t), float(t + 1)
        weight_sum = self.state.weight_sum + a_next
        tau = a_next / weight_sum
        g = np.asarray(g, dtype=float)
        with _range_guard():
            scaled, hint = a_t * g, a_next * g
        self.learner.step(scaled, h_next=hint, reg_weight=a_next)
        with _range_guard():
            z = tau * self.learner.x + (1.0 - tau) * self.state.z
        self.state = AccelState(z=z, weight_sum=weight_sum, round=t + 1)
        self._x = z
        return z
