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
here, ``MATRICES`` for a :class:`~expopt.spectral.SpectralSchedule`).  The
same bodies step a stack of runs that share a geometry, ``beta`` and
``epsilon0``, in the free space or on balls, with a leading row axis on every
array and one ``eta``, ``sum_sq`` and ``alpha`` per row; each row keeps the
bits it has stepped alone.  :class:`Learner` is the base of every stateful
learner; :class:`ExpMd`, :class:`ExpFtrl` and their spectral twins share one
constructor and declare only their init and ``_step``, which finds the step in
its module when called.  A family declares how its runs stack in one ``_Stacking``;
:func:`stack_key`, :func:`stack` and :func:`row_of` group, stack and split any runs.
Every learner's step, these and the baselines', checks its inputs in one
place, :func:`_inputs`, and runs under one floating-point guard.  A non-finite
gradient, hint or regularizer weight, an overflow, invalid operation or
division by zero in the step, or an adaptive scale outside ``(0, inf)``
raises :class:`NumericRangeError`, and a negative regularizer weight
``ValueError``, with no ``RuntimeWarning``, before any state changes.
"""

import math
import operator
from collections import namedtuple
from dataclasses import dataclass, fields, is_dataclass, replace

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
    "resolve_dual_point",
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
# of a dual point and its factor (``None``: rebuild it from the point).  Each
# also takes a stack of points with a leading row axis: ``norm`` gives one
# value per row, ``(rows,)``, and ``p.alpha`` is one scale per row, ``(rows, 1)``.
Geometry = namedtuple("Geometry", "shape norm factor mirror resolve")


# R^d: max-abs dual norm and the coordinatewise mirror map.
VECTORS = Geometry(
    shape=lambda sched: (sched.dim,),
    norm=lambda d: np.abs(d).max(axis=-1),
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
        _fill_schedule(self, "dim")


def _dims(*dims) -> tuple:
    """``dims`` as ints, each through ``operator.index``: ``TypeError`` for a bool or a value it
    rejects, ``ValueError`` below 1."""
    try:
        if any(isinstance(d, bool) for d in dims):
            raise TypeError
        ints = tuple(map(operator.index, dims))
    except TypeError:
        raise TypeError(f"dimensions must be integers, got {dims}") from None
    if not ints or min(ints) < 1:
        raise ValueError(f"dimensions must be positive, got {dims}")
    return ints


def _fill_schedule(sched, *names) -> None:
    """Validate a schedule on its dimension fields ``names`` (dim, or m and n), store them as
    ints and fill its defaults for their least."""
    dims = _dims(*(getattr(sched, name) for name in names))
    for name, d in zip(names, dims):
        object.__setattr__(sched, name, d)
    k = min(dims)
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


# The schedule of runs stepped as the rows of one state: one ``eta`` per row,
# ``(rows, 1)``, and the ``geometry``, ``beta`` and ``epsilon0`` the rows share.
_RowSchedule = namedtuple("_RowSchedule", "geometry eta beta epsilon0")

# How a family's runs stack: ``key(learner)``, what they share besides the family, state type
# and shape (``None``: step alone), and ``advance(learners, balls)``, their stack's step rule.
_Stacking = namedtuple("_Stacking", "key advance")

# The entropy parameters of stacked runs, one ``alpha`` per row ``(rows, 1)``, each
# checked by ``_run_scale`` (``EntropyParams`` checks a float).
_RowParams = namedtuple("_RowParams", "alpha beta")


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
    projection passes a point that is already inside through.  In free and
    ball mode a stack of dual points ``(rows, k)`` resolves with one ``p.alpha``
    per row, ``(rows, 1)``, each row as alone.
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


def _inputs(shape, g, h_next, reg_weight):
    """A step's gradient and hint (zeros when none) as float arrays of ``shape``.

    The one check of every learner's step inputs, made before any state
    changes: a wrong shape or a negative ``reg_weight`` raises ``ValueError``;
    a non-finite weight, gradient or hint (a quiet NaN trips no guard)
    :class:`NumericRangeError`.
    """
    if not math.isfinite(reg_weight):
        raise NumericRangeError(f"regularizer weight {reg_weight} is not finite")
    if reg_weight < 0:
        raise ValueError(f"regularizer weight {reg_weight} is negative")
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
    that an overflow trips the calling step's guard.  (An array's ``** 2`` is
    ``n * n``, which differs from the power in the last bit of some floats.)
    """
    sum_sq = sum_sq + float(np.float64(norm) ** 2)
    if not math.isfinite(sum_sq):
        raise NumericRangeError(f"{what} has a non-finite or overflowing norm")
    return sum_sq


def _run_scale(eta, epsilon0, sum_sq, norm):
    """One run's new hint-error sum and adaptive scale ``alpha``, as floats."""
    sum_sq = _add_square(sum_sq, norm, "gradient minus hint")
    alpha = eta * math.sqrt(epsilon0 + sum_sq)
    if not 0 < alpha < math.inf:  # no hint error yet with epsilon0 = 0, or overflow
        raise NumericRangeError(f"adaptive scale alpha = {alpha} is outside (0, inf)")
    return sum_sq, alpha


def _round_params(sched, sum_sq, diff):
    """The new hint-error sum and this round's entropy parameters.

    A stack's rows, with one norm per row, take :func:`_run_scale` one by one, as
    each run alone: ``sum_sq`` ``(rows,)`` and ``alpha`` ``(rows, 1)``.
    """
    norm = sched.geometry.norm(diff)
    if np.ndim(norm) == 0:
        sum_sq, alpha = _run_scale(sched.eta, sched.epsilon0, sum_sq, norm)
        return sum_sq, EntropyParams(alpha, sched.beta)
    etas = sched.eta.ravel().tolist()
    rows = zip(etas, sum_sq.tolist(), norm.tolist())
    sums, alphas = zip(*[_run_scale(eta, sched.epsilon0, s, n) for eta, s, n in rows])
    return np.array(sums), _RowParams(np.array(alphas)[:, None], sched.beta)


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

    A stacked state steps each row bit for bit as alone, on a :class:`_RowSchedule`
    and in the free space or on balls of one radius per row; ``g`` and ``h_next`` then
    have the rows' leading axis.
    """
    geo = sched.geometry
    g, h_next = _inputs(state.h_prev.shape, g, h_next, reg_weight)
    diff = g - state.h_prev
    sum_sq, p = _round_params(sched, state.sum_sq, diff)
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
    ``r_{1:t+1}``, i.e. ``(t + 1)`` under unit weights.  Stacks step as in
    :func:`omd_step`.
    """
    geo = sched.geometry
    g, h_next = _inputs(state.h_prev.shape, g, h_next, reg_weight)
    sum_sq, p = _round_params(sched, state.sum_sq, g - state.h_prev)
    g_accum = state.g_accum + g
    reg_rounds = state.reg_rounds + reg_weight
    if math.isinf(reg_rounds):  # a sum of Python floats trips no guard
        raise NumericRangeError("accumulated regularizer weight overflows")
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


def stack_key(learner):
    """What runs must share to step as the rows of one :func:`stack`, or ``None`` for a run
    that steps alone: their family's ``_stacking``, state type, decision shape and the family's
    key.  A run stacks only unpatched, on a ball, of a class that declares its own ``_step`` or
    ``_stacking``, and with a key: a subclass steps alone, through its own ``step``."""
    kind = type(learner)
    declared = "step" not in vars(learner) and vars(kind).keys() & {"_step", "_stacking"}
    family = getattr(kind, "_stacking", None) if declared else None
    on_ball = isinstance(getattr(learner, "mode", None), BallConstraint)
    key = family.key(learner) if family and on_ball else None
    return None if key is None else (family, type(learner.state), np.shape(learner.x), key)


def _fieldwise(values, leaf):
    """``values[0]``, each field that the rows of a :func:`stack` do not share replaced by
    ``leaf`` of that field's arrays in all ``values``."""
    first = values[0]
    if first is None:  # a vector mirror-descent factor, rebuilt from ``x``
        return None
    if is_dataclass(first):
        return replace(first, **{f.name: _fieldwise([getattr(v, f.name) for v in values], leaf)
                                 for f in fields(first) if f.name not in ("round", "reg_rounds")})
    return leaf(values)


def row_of(state, j):
    """Row ``j`` of a stacked state as the run alone holds it."""
    return _fieldwise([state], lambda a: a[0][j] if a[0].ndim > 1 else float(a[0][j]))


def stack(learners) -> Learner:
    """Learners that started together and share a :func:`stack_key`, as one learner stepped as
    the first one's family declares.  The stack's state holds one row per run in every field
    but ``round`` and ``reg_rounds``, which the rows share; :func:`row_of` splits it."""
    balls = BallConstraint(np.array([[lrn.mode.radius] for lrn in learners]))
    advance = learners[0]._stacking.advance(learners, balls)
    x = np.stack([lrn.x for lrn in learners])
    return Learner(_fieldwise([lrn.state for lrn in learners], np.stack), x, advance)


def _exponentiated_rows(learners, balls):  # one ``eta`` per row, through the class's own step
    one, step = learners[0].sched, learners[0]._step
    etas = np.array([[lrn.sched.eta] for lrn in learners])
    sched = _RowSchedule(one.geometry, etas, one.beta, one.epsilon0)
    return lambda s, g, h, w: step(s, g, sched, balls, h, w)


class _Exponentiated(Learner):
    """An exponentiated learner on either schedule, starting at the anchor ``x1``; each class
    declares its state's ``_init`` and its ``_step``, which finds the step in the class's module
    when called, so a wrapper installed there later sees the steps, alone or stacked."""

    # runs stack by class, schedule geometry, ``beta`` and ``epsilon0``
    _stacking = _Stacking(lambda lrn: (type(lrn), lrn.sched.geometry, lrn.sched.beta,
                                       lrn.sched.epsilon0), _exponentiated_rows)

    def __init__(self, sched, mode: FeasibleMode = None, x1=None):
        self.sched, self.mode, step = sched, mode, self._step
        state = self._init(sched, x1)
        x = state.x if isinstance(state, OmdState) else state.x1.copy()  # a leader keeps x1
        super().__init__(state, x, lambda s, g, h, w: step(s, g, sched, mode, h, w))


class ExpMd(_Exponentiated):
    """Stateful mirror-descent learner over :func:`omd_step`, on either schedule."""

    _init, _step = staticmethod(omd_init), staticmethod(lambda *a: omd_step(*a))


class ExpFtrl(_Exponentiated):
    """Stateful leader-following learner over :func:`ftrl_step`, on either schedule."""

    _init, _step = staticmethod(ftrl_init), staticmethod(lambda *a: ftrl_step(*a))
