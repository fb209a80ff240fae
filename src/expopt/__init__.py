"""expopt: adaptive optimistic online optimization with exponentiated updates.

A numpy library for online and stochastic convex optimization built around
an entropy-like regularizer whose mirror maps update magnitudes
multiplicatively and signs like a p-norm method.  It bundles the entropic
geometry, Lambert-function proximal steps, exact l1-ball Bregman
projections, spectral (matrix) learners, online-to-batch acceleration,
diagonal-preconditioner baselines, two-point gradient estimation, and a
benchmark harness with a CLI.
"""

from .accelerate import Accelerator, AccelState
from .baselines import (
    AdaFtrl,
    AdaGrad,
    DiagProxState,
    EgPm,
    EgPmState,
    adaftrl_step,
    adagrad_step,
    diag_init,
    eg_pm_init,
    eg_pm_step,
    euclidean_nuclear_ball_project,
    weighted_l1_ball_project,
)
from .entropy import (
    EntropyParams,
    NumericRangeError,
    bregman_div,
    entropy,
    entropy_conj,
    entropy_conj_grad,
    entropy_conj_hess,
    entropy_grad,
    entropy_hess,
    mirror_map,
    mirror_map_inv,
    reg_value,
)
from .lambertw import LambertResult, lambert_w0, lambert_w0_from_log
from .learners import (
    ExpFtrl,
    ExpMd,
    FtrlState,
    OmdState,
    ScheduleParams,
    ftrl_init,
    ftrl_step,
    omd_init,
    omd_step,
    regret,
    resolve_dual_point,
)
from .prox import (
    BallConstraint,
    CompositeRegularizer,
    elastic_net_prox,
    elastic_net_prox_from_log,
    l1_ball_project,
    l1_ball_project_from_log,
    project_or_pass,
)
from .spectral import (
    SpectralExpFtrl,
    SpectralExpMd,
    SpectralSchedule,
    SvdFactors,
    nuclear_ball_project,
    nuclear_norm,
    nuclear_project_or_pass,
    spectral_bregman,
    spectral_ftrl_init,
    spectral_ftrl_step,
    spectral_grad,
    spectral_norm,
    spectral_omd_init,
    spectral_omd_step,
    spectral_prox,
    spectral_reg_value,
    svd,
)
from .zeroth_order import (
    EstimatorConfig,
    default_smoothing,
    rademacher_config,
    sphere_config,
    two_point_grad,
    two_point_grad_rows,
)

__version__ = "0.1.0"
