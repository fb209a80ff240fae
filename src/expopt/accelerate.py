"""Online-to-batch acceleration of optimistic learners.

Wraps any learner exposing ``.x`` and ``.step(g, h_next, reg_weight)`` in a
weighted-averaging loop with weights ``a_t = t``: the stochastic gradient is
queried at the running average ``z_t``, and the inner learner is fed the
scaled gradient ``a_t * g_t``, the hint ``a_{t+1} * g_t``, and the per-round
regularizer weight ``a_{t+1}``.  On smooth objectives with vanishing noise
the error of ``z_T`` decays at the accelerated 1/T^2 rate; in general it
decays at 1/sqrt(T).
"""

from dataclasses import dataclass

import numpy as np

from .entropy import _range_guard

__all__ = ["AccelState", "Accelerator"]


@dataclass(frozen=True)
class AccelState:
    """Averaging bookkeeping: ``z`` is the current solution estimate."""

    z: np.ndarray
    weight_sum: float
    round: int


class Accelerator:
    """Stochastic acceleration wrapper with weights ``a_t = t``.

    Parameters
    ----------
    learner : object
        Inner optimistic learner (``ExpMd`` or ``ExpFtrl`` on a vector or
        spectral schedule, or any object with the same ``x``/``step``
        surface), already configured with the feasibility mode matching
        the target problem.
    """

    def __init__(self, learner):
        self.learner = learner
        self.state = AccelState(z=np.zeros_like(learner.x), weight_sum=0.0, round=1)

    def step(self, grad_fn):
        """Advance one round; returns the query point ``z_t``.

        ``grad_fn(z)`` must return a (possibly stochastic) subgradient of
        the smooth part of the objective at ``z``; it runs outside the guard
        around this step's own arithmetic.
        """
        t = self.state.round
        a_t = float(t)
        a_next = float(t + 1)
        weight_sum = self.state.weight_sum + a_t
        tau = a_t / weight_sum
        with _range_guard():
            # t = 1 has tau = 1, so the initial z is irrelevant
            z = tau * self.learner.x + (1.0 - tau) * self.state.z
        g = np.asarray(grad_fn(z), dtype=float)
        with _range_guard():
            scaled, hint = a_t * g, a_next * g
        self.learner.step(scaled, h_next=hint, reg_weight=a_next)
        self.state = AccelState(z=z, weight_sum=weight_sum, round=t + 1)
        return z
