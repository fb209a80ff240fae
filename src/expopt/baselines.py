"""Comparison learners: diagonal-preconditioner methods and signed
multiplicative weights.

The diagonal family accumulates per-coordinate squared gradients
``h_ii = 1e-6 + sum_s g_{s,i}^2`` (including the current round, so the very
first step is already sensibly scaled) and preconditions by ``1/sqrt(h)``.
Ball-mode feasibility uses an exact weighted-Euclidean projection onto the
l1 ball: a scan of the sorted breakpoints of its dual variable, which at
large dimension first discards coordinates that a cheap lower bound on the
threshold proves inactive.

The signed multiplicative-weights learner maintains 2d nonnegative weights
of total mass D; its decision is the difference of the positive and
negative halves, which keeps the l1 norm within D by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .entropy import NumericRangeError, _range_guard
from .learners import Learner, _add_square, _anchor, _checked, _inputs
from .prox import BallConstraint, CompositeRegularizer, FeasibleMode
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
    """Diagonal learner state shared by the descent and leader variants."""

    h_diag: np.ndarray
    g_accum: np.ndarray
    x: np.ndarray
    h_prev: np.ndarray
    round: int
    reg_rounds: float


def diag_init(dim: int, x1=None) -> DiagProxState:
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    return DiagProxState(
        h_diag=np.full(dim, _H_FLOOR),
        g_accum=np.zeros(dim),
        x=_anchor(x1, (dim,)),
        h_prev=np.zeros(dim),
        round=1,
        reg_rounds=1.0,
    )


def _breakpoint_threshold(abs_y, w, radius: float) -> float:
    """Exact threshold ``tau`` from a scan of the sorted breakpoints.

    ``abs_y`` and ``w`` may omit coordinates whose breakpoint lies at or
    below the threshold: the suffix sums run from the largest breakpoint
    down, so the result is the same as on the full arrays.
    """
    breaks = w * abs_y
    order = np.argsort(breaks)
    ts = breaks[order]
    # suffix sums over the candidate active sets {j, ..., d-1}
    suf_ay = np.cumsum(abs_y[order][::-1])[::-1]
    suf_iw = np.cumsum((1.0 / w[order])[::-1])[::-1]
    # remaining mass when tau reaches the j-th breakpoint
    mass_at = np.empty_like(ts)
    mass_at[:-1] = suf_ay[1:] - ts[:-1] * suf_iw[1:]
    mass_at[-1] = 0.0
    j = int(np.argmax(mass_at <= radius))  # first segment whose mass drops below radius
    return (suf_ay[j] - radius) / suf_iw[j]


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
def weighted_l1_ball_project(y, weights, radius: float):
    """Projection of ``y`` onto the l1 ball in the ``diag(weights)`` metric.

    Minimizes ``sum_i w_i * (x_i - y_i)^2`` subject to ``||x||_1 <= radius``.
    The solution is the weighted soft threshold ``max(|y_i| - tau/w_i, 0)``;
    the dual variable ``tau`` is bracketed on the sorted grid of its
    breakpoints ``w_i * |y_i|`` (where the remaining mass is piecewise
    linear) and solved exactly on the active segment.  At
    ``d >= _FILTER_MIN_DIM`` only the coordinates that survive a lower bound
    on ``tau`` are sorted (:func:`_threshold_candidates`), with the same
    result.

    Raises :class:`NumericRangeError` when ``y`` has a NaN or infinite
    coordinate, which the feasibility test's own sum shows, or when the guard
    trips (that sum overflows, say).
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    abs_y = np.abs(y)
    norm = float(np.sum(abs_y))
    if norm <= radius:
        return y.copy()
    if not math.isfinite(norm):
        raise NumericRangeError("weighted l1-ball projection needs a finite l1 norm")

    if y.size < _FILTER_MIN_DIM:
        tau = _breakpoint_threshold(abs_y, w, radius)
        return np.sign(y) * np.maximum(abs_y - tau / w, 0.0)
    idx = _threshold_candidates(abs_y, w, radius)
    cand_y, cand_w = abs_y[idx], w[idx]
    tau = _breakpoint_threshold(cand_y, cand_w, radius)
    out = np.zeros_like(y)
    out[idx] = np.sign(y[idx]) * np.maximum(cand_y - tau / cand_w, 0.0)
    return out


def euclidean_nuclear_ball_project(y, radius: float):
    """Frobenius-metric projection of a matrix onto the nuclear ball.

    Factors once and projects the singular values onto the simplex-style
    l1 ball (unit weights).
    """
    return _project_spectrum(
        y, radius, lambda s: weighted_l1_ball_project(s, np.ones_like(s), radius)
    )


@_range_guard()
def _diag_step(state: DiagProxState, g, mode, h_next, reg_weight: float, leader: bool):
    """One diagonal round; ``leader`` selects the accumulated-gradient target.

    ``target`` is the round's minimizer without a mode; ball mode projects it
    in the ``diag(h_sqrt)`` metric, elastic net soft-thresholds ``target * h_sqrt``.
    """
    g, h_next = _inputs(state.x.shape, g, h_next)
    diff = g - state.h_prev
    h_diag = state.h_diag + diff * diff
    h_sqrt = np.sqrt(h_diag)
    g_accum = state.g_accum + g
    if leader:
        target = -(g_accum + h_next) / h_sqrt
    else:
        target = state.x - (diff + h_next) / h_sqrt
    reg_rounds = state.reg_rounds + reg_weight
    weight = reg_rounds if leader else reg_weight
    if isinstance(mode, BallConstraint):
        x = weighted_l1_ball_project(target, h_sqrt, mode.radius)
    elif isinstance(mode, CompositeRegularizer):
        q = target * h_sqrt
        x = np.sign(q) * np.maximum(np.abs(q) - mode.l1 * weight, 0.0) / (h_sqrt + mode.l2 * weight)
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
    if dim < 1:
        raise ValueError("dim must be a positive integer")
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


class AdaGrad(Learner):
    """Stateful diagonal mirror-descent baseline."""

    def __init__(self, dim: int, mode: FeasibleMode = None, x1=None):
        state = diag_init(dim, x1)
        super().__init__(state, state.x, lambda s, g, h, w: adagrad_step(s, g, mode, h, w))


class AdaFtrl(Learner):
    """Stateful diagonal leader-following baseline."""

    def __init__(self, dim: int, mode: FeasibleMode = None, x1=None):
        state = diag_init(dim, x1)
        super().__init__(state, state.x, lambda s, g, h, w: adaftrl_step(s, g, mode, h, w))


class EgPm(Learner):
    """Stateful signed multiplicative-weights baseline on a radius-D ball.

    Hints and regularizer weights are accepted and ignored, but a given hint
    is checked as every learner checks it (:func:`~expopt.learners._inputs`).
    ``radius`` and a given ``stepsize`` must be positive and finite.
    """

    def __init__(self, dim: int, radius: float, stepsize: float | None = None):
        if not 0 < radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if stepsize is not None and not 0 < stepsize < math.inf:
            raise ValueError("stepsize must be positive and finite")

        def advance(state, g, h_next, reg_weight):
            return eg_pm_step(state, _inputs((dim,), g, h_next)[0], radius, stepsize)

        # equal weights on both halves: the decision starts at the origin
        super().__init__(eg_pm_init(dim), np.zeros(dim), advance)
