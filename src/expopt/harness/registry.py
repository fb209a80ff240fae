"""Algorithm registry: names accepted in experiment configs.

Online (regret) experiments use learners exposing ``.x`` and ``.step(g)``;
the black-box experiment wraps accelerated learners around two-point
gradient estimators, pairing each family with its estimator recipe.  The
accelerated learners run in elastic-net mode with schedules for radius 1.
"""

import functools

import numpy as np

from .. import baselines
from ..baselines import AdaFtrl, AdaGrad, EgPm, diag_init, euclidean_nuclear_ball_project
from ..learners import ExpFtrl, ExpMd, Learner, ScheduleParams, _checked
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


def _diag_nuclear(name: str, m: int, n: int, radius: float) -> Learner:
    """Diagonal baseline on a flattened matrix, projected onto the nuclear ball.

    :func:`~expopt.baselines.adagrad_step` or ``adaftrl_step`` runs
    coordinatewise on the vectorization; the nuclear-ball constraint is
    enforced by a Frobenius-metric projection (the exact weighted
    projection has no spectral form).
    """

    def advance(state, g, h_next, reg_weight):
        # looked up on every step, as AdaGrad and AdaFtrl look up theirs
        step = baselines.adagrad_step if name == "adagrad" else baselines.adaftrl_step
        g = _checked(g, (m, n), "g").ravel()
        h_next = None if h_next is None else _checked(h_next, (m, n), "h_next").ravel()
        st, target = step(state, g, None, h_next, reg_weight)
        x = euclidean_nuclear_ball_project(target.reshape(m, n), radius)
        st = baselines.DiagProxState(
            st.h_diag, st.g_accum, x.ravel(), st.h_prev, st.round, st.reg_rounds
        )
        return st, x

    return Learner(diag_init(m * n), np.zeros((m, n)), advance)


def build_matrix_learner(name: str, m: int, n: int, radius: float):
    """Instantiate a matrix learner on the nuclear ball of the given radius."""
    ball = BallConstraint(radius)
    if name == "spectral_exp_md":
        return SpectralExpMd(SpectralSchedule(m, n, radius), mode=ball)
    if name == "spectral_exp_ftrl":
        return SpectralExpFtrl(SpectralSchedule(m, n, radius), mode=ball)
    if name in ("adagrad", "adaftrl"):
        return _diag_nuclear(name, m, n, radius)
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
