"""Algorithm registry: names accepted in experiment configs.

Online (regret) experiments use learners exposing ``.x`` and ``.step(g)``;
the black-box experiment wraps accelerated learners around two-point
gradient estimators, pairing each family with its estimator recipe.  The
accelerated learners run in elastic-net mode with schedules for radius 1.
"""

import dataclasses
import functools

import numpy as np

from .. import baselines
from ..baselines import AdaFtrl, AdaGrad, EgPm, diag_init, euclidean_nuclear_ball_project
from ..learners import ExpFtrl, ExpMd, Learner, ScheduleParams, _checked, _Stacking
from ..prox import BallConstraint, CompositeRegularizer
from ..spectral import SpectralExpFtrl, SpectralExpMd, SpectralSchedule
from ..zeroth_order import rademacher_config, sphere_config

__all__ = [
    "VECTOR_ALGORITHMS",
    "MATRIX_ALGORITHMS",
    "ACCELERATED_ALGORITHMS",
    "build_vector_learner",
    "build_matrix_learner",
    "accelerated_family",
]

VECTOR_ALGORITHMS = ("exp_md", "exp_ftrl", "adagrad", "adaftrl", "eg_pm")
MATRIX_ALGORITHMS = ("spectral_exp_md", "spectral_exp_ftrl", "adagrad", "adaftrl")
ACCELERATED_ALGORITHMS = ("acc_exp_md", "acc_exp_ftrl", "acc_adagrad", "acc_adaftrl")


def build_vector_learner(name: str, dim: int, radius: float):
    """Instantiate a vector learner on the l1 ball of the given radius."""
    ball = BallConstraint(radius)
    if name == "exp_md":
        return ExpMd(ScheduleParams(dim, radius), mode=ball)
    if name == "exp_ftrl":
        return ExpFtrl(ScheduleParams(dim, radius), mode=ball)
    if name == "adagrad":
        return AdaGrad(dim, mode=ball)
    if name == "adaftrl":
        return AdaFtrl(dim, mode=ball)
    if name == "eg_pm":
        return EgPm(dim, radius)
    raise KeyError(f"unknown vector algorithm {name!r}")


def _nuclear_rows(m: int, n: int, radius, leader):
    """``advance`` of a diagonal baseline on flattened ``m``-by-``n`` matrices.

    :func:`~expopt.baselines._diag_step` runs coordinatewise on the vectorization, with no
    mode (``leader`` picks AdaFtrl's target over AdaGrad's); the nuclear-ball constraint is
    enforced by a Frobenius-metric projection (the exact weighted projection has no spectral
    form).  One run takes a float ``radius`` and a bool ``leader``; the rows of a stacked
    state ``(rows, m*n)`` take one of each per row, ``(rows, 1)``, and one stacked
    projection, each row bit for bit as alone.
    """

    def advance(state, g, h_next, reg_weight):
        shape = (*state.x.shape[:-1], m, n)
        g = _checked(g, shape, "g").reshape(state.x.shape)
        if h_next is not None:
            h_next = _checked(h_next, shape, "h_next").reshape(state.x.shape)
        st, target = baselines._diag_step(state, g, None, h_next, reg_weight, leader)
        # looked up on every step, so a wrapper of the projection sees the stacked rows too
        x = euclidean_nuclear_ball_project(target.reshape(shape), radius)
        return dataclasses.replace(st, x=x.reshape(state.x.shape)), x

    return advance


class _DiagNuclear(Learner):
    """The matrix ``adagrad`` or ``adaftrl``: :func:`_nuclear_rows` of one run, or of a stack."""

    _stacking = _Stacking(lambda learner: (), lambda rows, balls: _nuclear_rows(
        *rows[0].x.shape, balls.radius, np.array([[lrn.leader] for lrn in rows])))

    def __init__(self, name: str, m: int, n: int, ball: BallConstraint):
        self.mode, self.leader = ball, name == "adaftrl"
        advance = _nuclear_rows(m, n, ball.radius, self.leader)
        super().__init__(diag_init(m * n), np.zeros((m, n)), advance)


def build_matrix_learner(name: str, m: int, n: int, radius: float):
    """Instantiate a matrix learner on the nuclear ball of the given radius."""
    ball = BallConstraint(radius)
    if name == "spectral_exp_md":
        return SpectralExpMd(SpectralSchedule(m, n, radius), mode=ball)
    if name == "spectral_exp_ftrl":
        return SpectralExpFtrl(SpectralSchedule(m, n, radius), mode=ball)
    if name in ("adagrad", "adaftrl"):
        return _DiagNuclear(name, m, n, ball)
    raise KeyError(f"unknown matrix algorithm {name!r}")


def accelerated_family(name: str, dim: int, reg: CompositeRegularizer):
    """Inner learner and estimator recipe for an accelerated algorithm.

    The recipe maps ``(mu, batch)`` to the family's
    :class:`~expopt.zeroth_order.EstimatorConfig`: Rademacher directions
    (delta = 1) for exponentiated learners, unit-sphere directions
    (delta = dim) for diagonal ones.
    """
    if name == "acc_exp_md":
        return ExpMd(ScheduleParams(dim, 1.0), mode=reg), rademacher_config
    if name == "acc_exp_ftrl":
        return ExpFtrl(ScheduleParams(dim, 1.0), mode=reg), rademacher_config
    if name == "acc_adagrad":
        return AdaGrad(dim, mode=reg), functools.partial(sphere_config, dim)
    if name == "acc_adaftrl":
        return AdaFtrl(dim, mode=reg), functools.partial(sphere_config, dim)
    raise KeyError(f"unknown accelerated algorithm {name!r}")
