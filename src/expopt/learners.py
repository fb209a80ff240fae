"""Adaptive optimistic online learners with exponentiated updates.

Both learners run through a two-step dual-point scheme: form a dual point
``z``, map it back through the inverse mirror map, then resolve the
feasibility mode (free space, composite regularizer, or l1 ball).

* mirror-descent flavor: ``z = mirror_map(x_t) - (g_t - h_t + h_{t+1})``
* leader-following flavor: ``z = mirror_map(x_1) - g_{1:t} - h_{t+1}``

The per-round scale ``alpha_{t+1} = eta * sqrt(eps0 + sum_s ||g_s - h_s||_*^2)``
adapts to how well the hints ``h`` predict the gradients.  Mode resolution
happens in the log domain: the prox and projection consume ``|z_i|/alpha``
directly, which equals ``ln(|y_i|/beta + 1)`` of the primal image, so huge
dual coordinates are clamped by the constraint without overflowing.

One mirror-descent body and one leader-following body serve vectors and
matrices alike: the schedule names its :data:`Geometry` (:data:`VECTORS`
here, ``MATRICES`` for a :class:`~expopt.spectral.SpectralSchedule`).  Every
learner's step, these and the baselines', checks its inputs in one place,
:func:`_inputs`, and runs under one floating-point guard.  A non-finite
gradient or hint, an overflow, invalid operation or division by zero in the
step, or an adaptive scale outside ``(0, inf)`` raises
:class:`NumericRangeError`, with no ``RuntimeWarning``, before any state changes.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyParams, NumericRangeError, _range_guard, mirror_map_inv
from .prox import (
    BallConstraint,
    CompositeRegularizer,
    FeasibleMode,
    elastic_net_prox_from_log,
    l1_ball_project_from_log,
)

__all__ = [
    "ScheduleParams",
    "OmdState",
    "FtrlState",
    "omd_init",
    "omd_step",
    "ftrl_init",
    "ftrl_step",
    "regret",
    "Learner",
    "ExpMd",
    "ExpFtrl",
]


# What vector and matrix learners differ in: the iterates' ``shape(sched)``;
# the dual ``norm(d)`` of a gradient mismatch; ``factor(x, beta)``, the
# scale-free mirror direction of a point, scaled into the dual space by
# ``mirror(f, p)``; ``resolve(z, p, mode, reg_weight)``, the feasible point
# of a dual point and its factor (``None``: rebuild it from the point).
Geometry = namedtuple("Geometry", "shape norm factor mirror resolve")


# R^d: max-abs dual norm and the coordinatewise mirror map.
VECTORS = Geometry(
    shape=lambda sched: (sched.dim,),
    norm=lambda d: float(np.max(np.abs(d))),
    factor=lambda x, beta: np.log1p(np.abs(x) / beta) * np.sign(x),
    mirror=lambda f, p: p.alpha * f,
    resolve=lambda z, p, mode, w: (resolve_dual_point(z, p, mode, w), None),
)


@dataclass(frozen=True)
class ScheduleParams:
    """Stepsize schedule for a d-dimensional learner on a radius-D domain.

    Defaults follow the adaptive schedule: ``beta = 1/dim`` and
    ``eta = sqrt(1 / (ln(radius + 1) + ln(dim)))``.  ``epsilon0`` keeps the
    mirror map finite on rounds where every gradient matched its hint.
    """

    dim: int
    radius: float
    eta: float | None = None
    beta: float | None = None
    epsilon0: float = 1e-12
    geometry = VECTORS  # unannotated: a class attribute, not a field

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        _fill_schedule(self, self.dim)


def _fill_schedule(sched, k: int) -> None:
    """Validate a schedule and fill its defaults for ``k`` = dim or min(m, n)."""
    if not sched.radius > 0:
        raise ValueError("radius must be positive")
    if sched.beta is None:
        object.__setattr__(sched, "beta", 1.0 / k)
    if sched.eta is None:
        object.__setattr__(
            sched, "eta", math.sqrt(1.0 / (math.log(sched.radius + 1.0) + math.log(k)))
        )
    if not (0 < sched.eta < math.inf and 0 < sched.beta < math.inf):
        raise ValueError("eta and beta must be positive and finite")
    if not 0 <= sched.epsilon0 < math.inf:
        raise ValueError("epsilon0 must be finite and nonnegative")


@dataclass(frozen=True)
class OmdState:
    """Mirror-descent learner state: current point and hint bookkeeping.

    ``factor`` caches the geometry's scale-free mirror direction of ``x``;
    ``None`` rebuilds it from ``x`` on the next step.
    """

    x: np.ndarray
    sum_sq: float
    h_prev: np.ndarray
    round: int
    factor: object = None


@dataclass(frozen=True)
class FtrlState:
    """Leader-following learner state anchored at ``x1``.

    ``anchor_dual`` caches the scale-free mirror direction of the anchor so
    the dual point for any round is ``alpha * anchor_dual - g_accum - h``
    (for matrices it is the anchor's factors with the spectrum replaced by
    its direction).  ``reg_rounds`` is the accumulated composite-regularizer
    weight (``t + 1`` under unit per-round weights).
    """

    g_accum: np.ndarray
    x1: np.ndarray
    anchor_dual: object
    sum_sq: float
    h_prev: np.ndarray
    round: int
    reg_rounds: float


def resolve_dual_point(z, p: EntropyParams, mode: FeasibleMode, reg_weight: float = 1.0):
    """Map a dual vector to the feasible primal point of the configured mode.

    Free mode is the inverse mirror map, :func:`~expopt.entropy.mirror_map_inv`
    (raising :class:`NumericRangeError` past the exponent range or on a NaN).
    Ball and regularized modes stay in the log domain throughout; the ball
    projection passes a point that is already inside through.
    """
    if mode is None:
        return mirror_map_inv(z, p)
    scale = np.abs(z) / p.alpha
    signs = np.sign(z)
    if isinstance(mode, BallConstraint):
        return l1_ball_project_from_log(scale, signs, mode, p)
    if isinstance(mode, CompositeRegularizer):
        return elastic_net_prox_from_log(scale, signs, mode.scaled(reg_weight), p)
    raise TypeError(f"unsupported feasibility mode: {mode!r}")


def _checked(v, shape, name):
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise ValueError(f"{name} has shape {v.shape}, expected {shape}")
    return v


def _inputs(shape, g, h_next):
    """A step's gradient and hint (zeros when none) as float arrays of ``shape``.

    The one check of every learner's step inputs, made before any state
    changes: a wrong shape raises ``ValueError``, a non-finite gradient or
    hint (a quiet NaN trips no guard) :class:`NumericRangeError`.
    """
    g = _checked(g, shape, "g")
    h = np.zeros(shape) if h_next is None else _checked(h_next, shape, "h_next")
    if not (np.isfinite(g).all() and (h_next is None or np.isfinite(h).all())):
        raise NumericRangeError("gradient g or hint h_next is not finite")
    return g, h


def _anchor(x1, shape):
    """A fresh copy of the anchor ``x1`` (default: the origin); ``ValueError`` if not finite."""
    if x1 is None:
        return np.zeros(shape)
    x1 = _checked(x1, shape, "x1")
    if not np.isfinite(x1).all():
        raise ValueError("anchor x1 must be finite")
    return x1.copy()


def _add_square(sum_sq: float, norm: float, what: str) -> float:
    """``sum_sq + norm**2``, or :class:`NumericRangeError` if not finite.

    The square is taken as a numpy scalar's, bit for bit the float power, so
    that an overflow trips the calling step's guard.
    """
    sum_sq = sum_sq + float(np.float64(norm) ** 2)
    if not math.isfinite(sum_sq):
        raise NumericRangeError(f"{what} has a non-finite or overflowing norm")
    return sum_sq


def _round_params(geo, sched, sum_sq, diff):
    """The new hint-error sum and this round's entropy parameters."""
    sum_sq = _add_square(sum_sq, geo.norm(diff), "gradient minus hint")
    alpha = sched.eta * math.sqrt(sched.epsilon0 + sum_sq)
    if not 0 < alpha < math.inf:  # no hint error yet with epsilon0 = 0, or overflow
        raise NumericRangeError(f"adaptive scale alpha = {alpha} is outside (0, inf)")
    return sum_sq, EntropyParams(alpha, sched.beta)


def omd_init(sched: ScheduleParams, x1=None) -> OmdState:
    """Fresh state at a feasible anchor (default: the origin)."""
    geo = sched.geometry
    shape = geo.shape(sched)
    x1 = _anchor(x1, shape)
    factor = geo.factor(x1, sched.beta)
    return OmdState(x=x1, sum_sq=0.0, h_prev=np.zeros(shape), round=1, factor=factor)


@_range_guard()
def omd_step(
    state: OmdState,
    g,
    sched: ScheduleParams,
    mode: FeasibleMode = None,
    h_next=None,
    reg_weight: float = 1.0,
):
    """One mirror-descent round: consume ``g_t`` and the next hint.

    Returns the new state and the decision ``x_{t+1}``.  ``reg_weight``
    scales the composite regularizer for this round (used by the
    stochastic-acceleration wrapper).
    """
    geo = sched.geometry
    g, h_next = _inputs(geo.shape(sched), g, h_next)
    diff = g - state.h_prev
    sum_sq, p = _round_params(geo, sched, state.sum_sq, diff)
    f = state.factor if state.factor is not None else geo.factor(state.x, sched.beta)
    z = geo.mirror(f, p) - (diff + h_next)
    x, factor = geo.resolve(z, p, mode, reg_weight)
    return OmdState(x=x, sum_sq=sum_sq, h_prev=h_next, round=state.round + 1, factor=factor), x


def ftrl_init(sched: ScheduleParams, x1=None) -> FtrlState:
    geo = sched.geometry
    shape = geo.shape(sched)
    x1 = _anchor(x1, shape)
    return FtrlState(
        g_accum=np.zeros(shape),
        x1=x1,
        anchor_dual=geo.factor(x1, sched.beta),
        sum_sq=0.0,
        h_prev=np.zeros(shape),
        round=1,
        reg_rounds=1.0,
    )


@_range_guard()
def ftrl_step(
    state: FtrlState,
    g,
    sched: ScheduleParams,
    mode: FeasibleMode = None,
    h_next=None,
    reg_weight: float = 1.0,
):
    """One leader-following round; mirrors :func:`omd_step`.

    In regularized mode the prox uses the accumulated weight
    ``r_{1:t+1}``, i.e. ``(t + 1)`` under unit weights.
    """
    geo = sched.geometry
    g, h_next = _inputs(geo.shape(sched), g, h_next)
    sum_sq, p = _round_params(geo, sched, state.sum_sq, g - state.h_prev)
    g_accum = state.g_accum + g
    reg_rounds = state.reg_rounds + reg_weight
    z = geo.mirror(state.anchor_dual, p) - g_accum - h_next
    x, _ = geo.resolve(z, p, mode, reg_rounds)
    return FtrlState(
        g_accum=g_accum,
        x1=state.x1,
        anchor_dual=state.anchor_dual,
        sum_sq=sum_sq,
        h_prev=h_next,
        round=state.round + 1,
        reg_rounds=reg_rounds,
    ), x


def regret(losses_player, losses_comparator):
    """Running cumulative difference of two per-round loss sequences."""
    a = np.asarray(losses_player, dtype=float)
    b = np.asarray(losses_comparator, dtype=float)
    if a.shape != b.shape:
        raise ValueError("loss sequences must have equal length")
    return np.cumsum(a - b)


class Learner:
    """A stateful learner: its ``state``, its decision ``x`` and a step rule.

    ``advance(state, g, h_next, reg_weight)`` returns the next state and decision.
    """

    def __init__(self, state, x, advance):
        self.state = state
        self._x = x
        self._advance = advance

    @property
    def x(self):
        return self._x

    def step(self, g, h_next=None, reg_weight: float = 1.0):
        self.state, self._x = self._advance(self.state, g, h_next, reg_weight)
        return self._x


class ExpMd(Learner):
    """Stateful mirror-descent learner over :func:`omd_step`, on either schedule."""

    def __init__(self, sched: ScheduleParams, mode: FeasibleMode = None, x1=None):
        state = omd_init(sched, x1)
        super().__init__(state, state.x, lambda s, g, h, w: omd_step(s, g, sched, mode, h, w))


class ExpFtrl(Learner):
    """Stateful leader-following learner over :func:`ftrl_step`, on either schedule."""

    def __init__(self, sched: ScheduleParams, mode: FeasibleMode = None, x1=None):
        state = ftrl_init(sched, x1)
        super().__init__(
            state, state.x1.copy(), lambda s, g, h, w: ftrl_step(s, g, sched, mode, h, w)
        )
