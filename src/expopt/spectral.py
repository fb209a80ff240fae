"""Spectral (matrix) variants of the entropic machinery.

The matrix regularizer is the vector one composed with the singular-value
map; it is strongly convex with respect to the nuclear norm on nuclear
balls.  Every operation factors the matrix once, applies the corresponding
vector operation to the spectrum, and recomposes:

* :func:`spectral_prox` -- nuclear + Frobenius composite prox,
* :func:`nuclear_ball_project` -- Bregman projection onto the nuclear ball,
* :data:`MATRICES` -- the geometry a :class:`SpectralSchedule` names, under
  which the learners of :mod:`expopt.learners` run on matrices.

``spectral_omd_*``/``spectral_ftrl_*`` are those learners' entry points under
their spectral names, and :class:`SpectralExpMd`/:class:`SpectralExpFtrl` the
learners' constructor declared over them, each ``_step`` finding its step here
when called; mirror-descent states carry the factors of the current iterate, so
each step costs a single decomposition of the dual matrix.
"""

from dataclasses import dataclass

import numpy as np

from . import learners
from .entropy import EntropyParams, NumericRangeError, entropy, mirror_map
from .learners import Geometry
from .prox import BallConstraint, CompositeRegularizer, elastic_net_prox, l1_ball_project

__all__ = [
    "SvdFactors",
    "SpectralSchedule",
    "svd",
    "nuclear_norm",
    "spectral_norm",
    "spectral_reg_value",
    "spectral_grad",
    "spectral_bregman",
    "spectral_prox",
    "nuclear_ball_project",
    "nuclear_project_or_pass",
    "spectral_omd_init",
    "spectral_omd_step",
    "spectral_ftrl_init",
    "spectral_ftrl_step",
    "SpectralExpMd",
    "SpectralExpFtrl",
]


@dataclass(frozen=True)
class SvdFactors:
    """Thin singular value decomposition ``u @ diag(s) @ vt``.

    ``s`` is nonnegative and sorted descending; ``u`` has orthonormal
    columns and ``vt`` orthonormal rows.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def compose(self) -> np.ndarray:
        return _recompose(self.u, self.s, self.vt)


def svd(x) -> SvdFactors:
    """Thin SVD of a finite matrix.

    Raises a numeric error (``numpy.linalg.LinAlgError``) if the backend
    fails to converge.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("svd requires finite entries")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return SvdFactors(u=u, s=s, vt=vt)


def nuclear_norm(x) -> float:
    return float(np.sum(np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)))


def spectral_norm(x):
    """Largest singular value of a matrix; of a stack ``(rows, m, n)``, one per matrix ``(rows,)``
    from one stacked decomposition."""
    s = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    if s.ndim > 1:
        return s[:, 0]
    return float(s[0]) if s.size else 0.0


def _matrix_factor(x, beta):
    f = svd(x)
    return SvdFactors(f.u, np.log1p(f.s / beta), f.vt)


def _recompose(u, s, vt):
    """``u @ diag(s) @ vt``, for one matrix or a stack."""
    return (u * s[..., None, :]) @ vt


def _resolve_matrix(z, p, mode, reg_weight):
    f = svd(z)
    spectrum = learners.resolve_dual_point(f.s, p, mode, reg_weight)
    return _recompose(f.u, spectrum, f.vt), SvdFactors(f.u, np.log1p(spectrum / p.beta), f.vt)


# m-by-n matrices: the vector mirror map applied to the singular values (a
# factor is an SvdFactors holding their directions).  The hint mismatch enters
# ``sum_sq`` through its largest singular value, the spectral dual norm; the
# dual matrix is factored once and its spectrum resolved as in the vector learner.
# A stack ``(rows, m, n)`` takes one stacked decomposition and one stacked product.
MATRICES = Geometry(
    shape=lambda sched: (sched.m, sched.n),
    norm=lambda d: spectral_norm(d),  # looked up per call, so a wrapper of it sees the steps
    factor=_matrix_factor,
    mirror=lambda f, p: _recompose(f.u, p.alpha * f.s, f.vt),
    resolve=_resolve_matrix,
)


@dataclass(frozen=True)
class SpectralSchedule:
    """Stepsize schedule for m-by-n matrix learners on a nuclear ball.

    Defaults: ``beta = 1/min(m, n)`` and
    ``eta = sqrt(1 / (ln(radius + 1) + ln(min(m, n))))``.
    """

    m: int
    n: int
    radius: float
    eta: float | None = None
    beta: float | None = None
    epsilon0: float = 1e-12
    geometry = MATRICES  # unannotated: a class attribute, not a field

    def __post_init__(self):
        learners._fill_schedule(self, "m", "n")


def spectral_reg_value(x, p: EntropyParams) -> float:
    """Regularizer value: entropy summed over the singular values."""
    s = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    return float(np.sum(entropy(s, p)))


def spectral_grad(x, p: EntropyParams) -> np.ndarray:
    """Gradient ``u @ diag(mirror_map(s)) @ vt`` of the spectral regularizer; of a stack
    ``(rows, m, n)``, each matrix's gradient."""
    f = svd(x)
    return _recompose(f.u, mirror_map(f.s, p), f.vt)


def spectral_bregman(x, y, p: EntropyParams) -> float:
    """Bregman divergence of the spectral regularizer (Frobenius pairing)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    val = (
        spectral_reg_value(x, p)
        - spectral_reg_value(y, p)
        - float(np.sum(spectral_grad(y, p) * (x - y)))
    )
    return max(val, 0.0)


def spectral_prox(y, reg: CompositeRegularizer, p: EntropyParams) -> np.ndarray:
    """Nuclear/Frobenius composite prox: factor, shrink the spectrum, recompose; of a stack
    ``(rows, m, n)``, each matrix's prox."""
    f = svd(y)
    return _recompose(f.u, elastic_net_prox(f.s, reg, p), f.vt)


def _project_spectrum(y, radius, project) -> np.ndarray:
    """A copy of ``y`` inside the nuclear ball; outside, ``y`` with spectrum ``project(s, radius)``.

    A stack ``(rows, m, n)``, with ``radius`` a float or one per row ``(rows, 1)``, takes one
    SVD; the rows outside their balls get ``project`` of their spectra as one stack, and each
    row has the bits it has alone.
    """
    y = np.asarray(y, dtype=float)
    # ahead of the SVD: on a 5x4 input with an infinite entry it ran 20 s without returning
    if not np.isfinite(y).all():
        raise NumericRangeError("nuclear-ball projection got a non-finite entry")
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    inside = s.sum(axis=-1, keepdims=True) <= radius
    if inside.all():
        return y.copy()
    if not inside.any():  # one matrix, or a stack whose every row projects
        return _recompose(u, project(s, radius), vt)
    out, p = y.copy(), ~inside[:, 0]
    out[p] = _recompose(u[p], project(s[p], np.broadcast_to(radius, inside.shape)[p]), vt[p])
    return out


def nuclear_ball_project(y, ball: BallConstraint, p: EntropyParams) -> np.ndarray:
    """Bregman projection onto the nuclear ball: :func:`l1_ball_project` of the spectrum."""
    return _project_spectrum(y, ball.radius, lambda s, _: l1_ball_project(s, ball, p))


nuclear_project_or_pass = nuclear_ball_project


spectral_omd_init = learners.omd_init
spectral_omd_step = learners.omd_step
spectral_ftrl_init = learners.ftrl_init
spectral_ftrl_step = learners.ftrl_step


class SpectralExpMd(learners._Exponentiated):
    """Stateful spectral mirror-descent learner."""

    _init, _step = staticmethod(spectral_omd_init), staticmethod(lambda *a: spectral_omd_step(*a))


class SpectralExpFtrl(learners._Exponentiated):
    """Stateful spectral leader-following learner."""

    _init = staticmethod(spectral_ftrl_init)
    _step = staticmethod(lambda *a: spectral_ftrl_step(*a))
