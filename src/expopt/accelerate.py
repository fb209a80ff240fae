"""Online-to-batch acceleration of optimistic learners.

:class:`Accelerator` is a :class:`~expopt.learners.Learner` around any learner exposing ``.x``
and ``.step(g, h_next, reg_weight)``, averaging its points with weights ``a_t = t``.  Its
decision ``x`` is the query point ``z_t``, the running average; its ``step(g)`` takes the
(possibly stochastic) gradient at ``z_t`` and feeds the inner learner the scaled gradient
``a_t * g_t``, the hint ``a_{t+1} * g_t``, and the per-round regularizer weight ``a_{t+1}``.
On smooth objectives with vanishing noise the error of ``z_T`` decays at the accelerated
1/T^2 rate; in general it decays at 1/sqrt(T).

Accelerators whose inner learners stack (:func:`~expopt.learners.stack_key`) stack too: the
stack averages every row at once and steps the inner learners as their own stack, each row
bit for bit as alone.  The state of an accelerator holds its inner learner's, so
:func:`~expopt.learners.row_of` splits both, and setting a row back sets both.
"""

from dataclasses import dataclass

import numpy as np

from .entropy import _range_guard
from .learners import Learner, _Stacking, stack_key

__all__ = ["AccelState", "Accelerator"]


@dataclass(frozen=True)
class AccelState:
    """Averaging bookkeeping of a round: ``z`` is its query point, ``weight_sum`` the weights
    ``a_{1:round}`` averaged into it and ``inner`` the inner learner's state (``None`` for a
    learner that exposes none)."""

    z: np.ndarray
    weight_sum: float
    round: int
    inner: object = None


def _average(state, g, inner_step):
    """The state and query point after ``state``, one run's or a stack's, takes the gradient
    ``g``; ``inner_step(scaled, hint, weight)`` steps the inner learner and gives its state
    and point.  Raises, before any state changes, where the scaling overflows or the inner
    step raises."""
    t = state.round
    a_t, a_next = float(t), float(t + 1)
    weight_sum = state.weight_sum + a_next
    tau = a_next / weight_sum
    g = np.asarray(g, dtype=float)
    with _range_guard():
        scaled, hint = a_t * g, a_next * g
    inner, x = inner_step(scaled, hint, a_next)
    with _range_guard():
        z = tau * x + (1.0 - tau) * state.z
    return AccelState(z=z, weight_sum=weight_sum, round=t + 1, inner=inner), z


def _accelerated_rows(accelerators, mode):  # the inner learners step as their own stack
    inner = [acc.learner for acc in accelerators]
    advance = inner[0]._stacking.advance(inner, mode)
    return lambda s, g, h, w: _average(s, g, lambda *args: advance(s.inner, *args))


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

    # accelerators stack as their inner learners do, on the inner learners' mode
    _stacking = _Stacking(lambda acc: stack_key(acc.learner), _accelerated_rows)

    def __init__(self, learner):
        self.learner = learner
        # the first average has tau = 1: the inner point itself, a -0.0 taken as 0.0
        z = learner.x + 0.0
        state = AccelState(z=z, weight_sum=1.0, round=1, inner=getattr(learner, "state", None))
        super().__init__(state, z, None)

    @property
    def mode(self):
        """The inner learner's feasibility mode."""
        return getattr(self.learner, "mode", None)

    @property
    def state(self):
        return self._state

    @state.setter
    def state(self, state):  # the inner learner takes the inner state set with it
        if state.inner is not None:
            self.learner.state = state.inner
        self._state = state

    def step(self, g):
        """Advance one round on the subgradient ``g`` of the smooth part of the objective at
        the query point ``x``; returns the next query point.

        A gradient whose scaling overflows, and an inner step that raises (a library
        learner's does on a gradient that is not finite), raise before any state changes.
        """

        def inner_step(scaled, hint, weight):
            self.learner.step(scaled, h_next=hint, reg_weight=weight)
            return getattr(self.learner, "state", None), self.learner.x

        self.state, self._x = _average(self.state, g, inner_step)
        return self._x
