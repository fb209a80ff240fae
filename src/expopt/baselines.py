"""Comparison learners: diagonal-preconditioner methods and signed
multiplicative weights.

The diagonal family accumulates per-coordinate squared gradients
``h_ii = 1e-6 + sum_s g_{s,i}^2`` (including the current round, so the very
first step is already sensibly scaled) and preconditions by ``1/sqrt(h)``.
Ball-mode feasibility uses an exact weighted-Euclidean projection onto the
l1 ball: a scan of the sorted breakpoints of its dual variable, which at
large dimension first discards coordinates that a cheap lower bound on the
threshold proves inactive.  On an ``(m, n)`` matrix the ball is the nuclear
one, reached by a Frobenius-metric projection (the exact weighted projection
has no spectral form).  Both also take stacks of runs with a leading row axis,
each row bit for bit as alone, so that one call does the numpy work of many.
``AdaGrad`` and ``AdaFtrl`` share one constructor and stack together; each
declares its ``_step`` and ``leader``, whether it follows the accumulated gradients.

The signed multiplicative-weights learner maintains 2d nonnegative weights
of total mass D; its decision is the difference of the positive and
negative halves, which keeps the l1 norm within D by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .entropy import NumericRangeError, _range_guard
from .learners import Learner, _add_square, _anchor, _checked, _dims, _inputs, _Stacking
from .prox import BallConstraint, CompositeRegularizer, FeasibleMode, _check_radius
from .spectral import _project_spectrum

__all__ = [
    "DiagProxState",
    "diag_init",
    "adagrad_step",
    "adaftrl_step",
    "weighted_l1_ball_project",
    "euclidean_nuclear_ball_project",
    "EgPmState",
    "eg_pm_init",
    "eg_pm_step",
    "AdaGrad",
    "AdaFtrl",
    "EgPm",
]

_H_FLOOR = 1e-6

# The weighted projection filters its breakpoints from this dimension on,
# bounding the threshold with the top 1/_FILTER_SHARE of them.
_FILTER_MIN_DIM = 1024
_FILTER_SHARE = 16


@dataclass(frozen=True)
class DiagProxState:
    """Diagonal learner state shared by the descent and leader variants, in the decision's
    shape, or with a leading row axis for a :func:`~expopt.learners.stack` of runs."""

    h_diag: np.ndarray
    g_accum: np.ndarray
    x: np.ndarray
    h_prev: np.ndarray
    round: int
    reg_rounds: float


def diag_init(dim: int | tuple[int, int], x1=None) -> DiagProxState:
    """Fresh state on ``dim`` coordinates, or on the entries of an ``(m, n)`` matrix."""
    shape = _dims(*(tuple(dim) if np.ndim(dim) else (dim,)))
    if len(shape) > 2:  # a vector or a matrix, not a tensor
        raise ValueError(f"dim must be a length or an (m, n) shape, got {shape}")
    return DiagProxState(
        h_diag=np.full(shape, _H_FLOOR),
        g_accum=np.zeros(shape),
        x=_anchor(x1, shape),
        h_prev=np.zeros(shape),
        round=1,
        reg_rounds=1.0,
    )


def _breakpoint_threshold(abs_y, w, radius):
    """Exact threshold ``tau``, ``(1,)`` or ``(rows, 1)``, from a scan of the sorted breakpoints.

    ``abs_y`` and ``w`` are one row ``(n,)`` or rows ``(rows, n)``, ``radius`` a float or
    ``(rows, 1)``; each row is sorted and summed alone.  They may omit coordinates whose
    breakpoint lies at or below the threshold: the suffix sums run from the largest down.
    """
    breaks = w * abs_y
    n = breaks.shape[-1]
    # each row's first position in the flattened stack, for ``.take``
    starts = np.arange(0, breaks.size, n)[:, None] if breaks.ndim > 1 else 0
    order = breaks.argsort(axis=-1)
    order += starts
    ts = breaks.take(order)
    # sums from the largest breakpoint down; read backwards, the suffix sums
    # over the candidate active sets {j, ..., n-1}
    top_ay = abs_y.take(order)[..., ::-1].cumsum(axis=-1)
    top_iw = (1.0 / w.take(order))[..., ::-1].cumsum(axis=-1)
    suf_ay, suf_iw = top_ay[..., ::-1], top_iw[..., ::-1]
    # remaining mass when tau reaches the j-th breakpoint
    mass_at = np.empty_like(ts)
    mass_at[..., :-1] = suf_ay[..., 1:] - ts[..., :-1] * suf_iw[..., 1:]
    mass_at[..., -1] = 0.0
    # the first segment whose mass drops below radius, as a position in top_*
    j = starts + (n - 1) - (mass_at <= radius).argmax(axis=-1, keepdims=True)
    return (top_ay.take(j) - radius) / top_iw.take(j)


def _threshold_candidates(abs_y, w, radius: float):
    """Indices of the coordinates that may be active, a superset of the support.

    Any subset ``S`` bounds the threshold from below,
    ``(sum_S |y_i| - radius) / sum_S 1/w_i <= tau``, so a coordinate whose
    breakpoint ``w_i |y_i|`` lies below that bound is inactive.  ``S`` is the
    top ``d/_FILTER_SHARE`` breakpoints, found by partition instead of a sort.
    """
    breaks = w * abs_y
    kth = abs_y.size - abs_y.size // _FILTER_SHARE
    top = np.argpartition(breaks, kth)[kth:]
    top_breaks = breaks[top]
    bound = (float(np.sum(abs_y[top])) - radius) / float(np.sum(1.0 / w[top]))
    # the largest breakpoint is always active; rounding must not drop it
    bound = min(bound, float(np.max(top_breaks)))
    if top_breaks[0] < bound:  # top[0] is the partition pivot, the smallest of the top
        return top[top_breaks >= bound]
    return np.flatnonzero(breaks >= bound)


@_range_guard()
def weighted_l1_ball_project(y, weights, radius):
    """Projection of ``y`` onto the l1 ball in the ``diag(weights)`` metric.

    Minimizes ``sum_i w_i * (x_i - y_i)^2`` subject to ``||x||_1 <= radius``.
    The solution is the weighted soft threshold ``max(|y_i| - tau/w_i, 0)``;
    the dual variable ``tau`` is bracketed on the sorted grid of its
    breakpoints ``w_i * |y_i|`` (where the remaining mass is piecewise
    linear) and solved exactly on the active segment.  At
    ``d >= _FILTER_MIN_DIM`` only the coordinates that survive a lower bound
    on ``tau`` are sorted (:func:`_threshold_candidates`), with the same
    result.

    A stack ``y`` of ``(rows, d)``, with ``weights`` alike and ``radius`` a float or one
    per row ``(rows, 1)``, projects each row onto its ball, bit for bit as that row alone.

    Raises ``ValueError`` for a radius that is not positive and finite or, when ``y`` lies
    outside its ball, a weight at or below 0, and :class:`NumericRangeError` when ``y`` has a
    NaN or infinite coordinate, which the feasibility test's own sum shows, when ``y`` lies
    outside its ball and a weight is NaN or infinite, or when the guard trips (that sum
    overflows, say).  A point inside its ball passes without a look at its weights.
    """
    _check_radius(radius)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    abs_y = np.abs(y)
    norm = abs_y.sum(axis=-1, keepdims=True)
    inside = norm <= radius
    if inside.all():
        return y.copy()
    if not np.isfinite(norm).all():
        raise NumericRangeError("weighted l1-ball projection needs a finite l1 norm")

    if y.ndim > 1 and y.shape[-1] >= _FILTER_MIN_DIM:  # filtered one row at a time
        out, radii = y.copy(), np.broadcast_to(radius, norm.shape)
        for i in np.flatnonzero(~inside):
            out[i] = weighted_l1_ball_project(y[i], w[i], radii[i, 0])
        return out
    if inside.any():  # the rows that project, as a stack; the others keep their points
        out, p = y.copy(), ~inside[:, 0]
        out[p] = weighted_l1_ball_project(y[p], w[p], np.broadcast_to(radius, norm.shape)[p])
        return out
    # here every row projects, and its weights are checked once: min and max, NaN failing both
    if not (0 < w.min() and w.max() < math.inf):
        error = ValueError if np.isfinite(w).all() else NumericRangeError
        raise error("weighted l1-ball projection needs positive, finite weights")
    if y.shape[-1] < _FILTER_MIN_DIM:
        tau = _breakpoint_threshold(abs_y, w, radius)
        return np.sign(y) * np.maximum(abs_y - tau / w, 0.0)
    idx = _threshold_candidates(abs_y, w, radius)
    cand_y, cand_w = abs_y[idx], w[idx]
    tau = _breakpoint_threshold(cand_y, cand_w, radius)
    out = np.zeros_like(y)
    out[idx] = np.sign(y[idx]) * np.maximum(cand_y - tau / cand_w, 0.0)
    return out


def euclidean_nuclear_ball_project(y, radius):
    """Frobenius-metric projection of a matrix onto the nuclear ball.

    Factors once and projects the singular values onto the simplex-style
    l1 ball (unit weights).  A stack ``(rows, m, n)`` with a float or one
    radius per row ``(rows, 1)`` projects each matrix bit for bit as alone.
    A radius that is not positive and finite raises ``ValueError``.
    """
    _check_radius(radius)
    return _project_spectrum(
        y, radius, lambda s, r: weighted_l1_ball_project(s, np.ones_like(s), r)
    )


@_range_guard()
def _diag_step(state: DiagProxState, g, mode, h_next, reg_weight: float, leader):
    """One diagonal round; ``leader`` selects the accumulated-gradient target.

    ``target`` is the round's minimizer without a mode; ball mode projects a vector in the
    ``diag(h_sqrt)`` metric and a matrix onto the nuclear ball in the Frobenius metric, and
    elastic net soft-thresholds a vector's ``target * h_sqrt``.

    A stacked state steps each row bit for bit as alone; ``leader`` is then one flag per
    row, ``(rows, 1)`` or ``(rows, 1, 1)``, and a ball mode one radius per row.
    """
    g, h_next = _inputs(state.x.shape, g, h_next, reg_weight)
    diff = g - state.h_prev
    h_diag = state.h_diag + diff * diff
    h_sqrt = np.sqrt(h_diag)
    g_accum = state.g_accum + g
    stacked = isinstance(leader, np.ndarray)  # one flag per row
    if stacked:
        base, num = np.where(leader, -0.0, state.x), np.where(leader, g_accum, diff)
    else:
        base, num = (-0.0, g_accum) if leader else (state.x, diff)
    # a leader's -0.0 - (g_accum + h_next) / h_sqrt has the bits of
    # -(g_accum + h_next) / h_sqrt, signed zeros included
    target = base - (num + h_next) / h_sqrt
    reg_rounds = state.reg_rounds + reg_weight
    if math.isinf(reg_rounds):  # a sum of Python floats trips no guard
        raise NumericRangeError("accumulated regularizer weight overflows")
    matrices = target.ndim - stacked == 2
    if isinstance(mode, BallConstraint):
        x = (euclidean_nuclear_ball_project(target, mode.radius) if matrices
             else weighted_l1_ball_project(target, h_sqrt, mode.radius))
    elif isinstance(mode, CompositeRegularizer) and not matrices:
        weight = np.where(leader, reg_rounds, reg_weight) if stacked else (
            reg_rounds if leader else reg_weight)
        # numpy products, alone too: an overflowing scaled weight trips the guard
        l1, l2 = np.multiply(mode.l1, weight), np.multiply(mode.l2, weight)
        q = target * h_sqrt
        x = np.sign(q) * np.maximum(np.abs(q) - l1, 0.0) / (h_sqrt + l2)
    elif mode is None:
        x = target
    else:
        raise TypeError(f"unsupported feasibility mode: {mode!r}")
    return DiagProxState(h_diag, g_accum, x, h_next, state.round + 1, reg_rounds), x


def adagrad_step(
    state: DiagProxState,
    g,
    mode: FeasibleMode = None,
    h_next=None,
    reg_weight: float = 1.0,
):
    """Diagonal mirror-descent round.

    Without a hint this is the classic rule ``x - g_i / sqrt(h_ii)``
    followed by the mode resolution; an optional hint shifts the linear
    term to ``g - h_prev + h_next`` and the accumulator to the hint error.
    """
    return _diag_step(state, g, mode, h_next, reg_weight, leader=False)


def adaftrl_step(
    state: DiagProxState,
    g,
    mode: FeasibleMode = None,
    h_next=None,
    reg_weight: float = 1.0,
):
    """Diagonal leader-following round on the accumulated gradients."""
    return _diag_step(state, g, mode, h_next, reg_weight, leader=True)


@dataclass(frozen=True)
class EgPmState:
    """Signed multiplicative-weights state in log space.

    ``log_weights`` holds the 2d logits of the positive and negative
    halves, normalized to log-sum-exp 0; the decision is
    ``D * (softmax_+ - softmax_-)``.
    """

    log_weights: np.ndarray
    sum_sq: float
    round: int


def eg_pm_init(dim: int) -> EgPmState:
    (dim,) = _dims(dim)
    return EgPmState(log_weights=np.zeros(2 * dim), sum_sq=0.0, round=1)


@_range_guard()
def eg_pm_step(state: EgPmState, g, radius: float, stepsize: float | None = None):
    """Multiplicative update with the doubled gradient ``[D/2*g, -D/2*g]``.

    The default stepsize is the adaptive ``1/sqrt(sum_s ||g_s||_inf^2)``
    including the current round.  Returns the new state and the signed
    difference of the two weight halves (l1 norm at most ``radius``).

    A ``g`` of a shape other than ``(d,)`` raises ``ValueError``; one that
    is not finite (its max-norm is not), or an overflow inside the step,
    :class:`NumericRangeError`.
    """
    d = state.log_weights.size // 2
    g = _checked(g, (d,), "g")
    gmax = float(np.max(np.abs(g)))
    sum_sq = _add_square(state.sum_sq, gmax, "eg_pm step's gradient")
    if stepsize is None:
        stepsize = 1.0 / math.sqrt(1e-12 + sum_sq)
    # the doubled gradient is [u, -u]; negation is exact, so subtracting u
    # from one half and adding it to the other gives the same bits
    u = stepsize * (0.5 * radius * g)
    lw = state.log_weights
    logits = np.empty_like(lw)
    np.subtract(lw[:d], u, out=logits[:d])
    np.add(lw[d:], u, out=logits[d:])
    logits -= np.max(logits)
    mass = np.exp(logits)
    total = float(np.sum(mass))
    weights = radius * mass / total
    x = weights[:d] - weights[d:]
    new_state = EgPmState(
        # normalized logits, not logs of the weights: a weight that
        # underflows keeps its log-mass and can grow back
        log_weights=logits - math.log(total),
        sum_sq=sum_sq,
        round=state.round + 1,
    )
    return new_state, x


def _diagonal_rows(learners, mode):  # one leader flag per row, broadcast over its decision
    leader = np.reshape([lrn.leader for lrn in learners], (-1,) + (1,) * learners[0].x.ndim)
    return lambda s, g, h, w: _diag_step(s, g, mode, h, w, leader)


class _Diagonal(Learner):
    """A diagonal baseline on its feasibility ``mode``; each class declares ``leader`` and its
    ``_step``, which finds the step in this module when it is called."""

    # the stack steps through ``_diag_step``: a subclass with its own ``_step`` steps alone
    _stacking = _Stacking(lambda lrn: () if type(lrn) in (AdaGrad, AdaFtrl) else None,
                          _diagonal_rows)

    def __init__(self, dim: int | tuple[int, int], mode: FeasibleMode = None, x1=None):
        self.mode, step = mode, self._step
        state = diag_init(dim, x1)
        super().__init__(state, state.x, lambda s, g, h, w: step(s, g, mode, h, w))


class AdaGrad(_Diagonal):
    """Stateful diagonal mirror-descent baseline on its feasibility ``mode``, over ``dim``
    coordinates or an ``(m, n)`` matrix's entries, whose ball is then the nuclear one."""

    leader, _step = False, staticmethod(lambda *a: adagrad_step(*a))


class AdaFtrl(_Diagonal):
    """Stateful diagonal leader-following baseline on its feasibility ``mode``."""

    leader, _step = True, staticmethod(lambda *a: adaftrl_step(*a))


class EgPm(Learner):
    """Stateful signed multiplicative-weights baseline on a radius-D ball.

    Hints and regularizer weights are accepted and ignored, but both are
    checked as every learner checks them (:func:`~expopt.learners._inputs`).
    ``radius`` and a given ``stepsize`` must be positive and finite.
    """

    def __init__(self, dim: int, radius: float, stepsize: float | None = None):
        (dim,) = _dims(dim)
        if not 0 < radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if stepsize is not None and not 0 < stepsize < math.inf:
            raise ValueError("stepsize must be positive and finite")

        def advance(state, g, h_next, reg_weight):
            return eg_pm_step(state, _inputs((dim,), g, h_next, reg_weight)[0], radius, stepsize)

        # equal weights on both halves: the decision starts at the origin
        super().__init__(eg_pm_init(dim), np.zeros(dim), advance)
