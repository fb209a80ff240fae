"""Algorithm registry: names accepted in experiment configs.

A name table over the library's learner classes; it defines no class.
Online (regret) experiments use learners exposing ``.x`` and ``.step(g)``
(the matrix ``adagrad``/``adaftrl`` are ``AdaGrad``/``AdaFtrl`` on an ``(m, n)``
shape); the black-box experiment plays an :class:`~expopt.accelerate.Accelerator`
around each accelerated family's inner learner, fed two-point gradient estimates
made by the family's estimator recipe.  The inner learners run in elastic-net
mode with schedules for radius 1.
"""

import functools

from ..baselines import AdaFtrl, AdaGrad, EgPm
from ..learners import ExpFtrl, ExpMd, ScheduleParams
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


def build_matrix_learner(name: str, m: int, n: int, radius: float):
    """Instantiate a matrix learner on the nuclear ball of the given radius."""
    ball = BallConstraint(radius)
    if name == "spectral_exp_md":
        return SpectralExpMd(SpectralSchedule(m, n, radius), mode=ball)
    if name == "spectral_exp_ftrl":
        return SpectralExpFtrl(SpectralSchedule(m, n, radius), mode=ball)
    if name == "adagrad":
        return AdaGrad((m, n), mode=ball)
    if name == "adaftrl":
        return AdaFtrl((m, n), mode=ball)
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
