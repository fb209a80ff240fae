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

from .entropy import NumericRangeError
from .learners import Learner, _add_square, _checked, _checked_hint
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
    x1 = np.zeros(dim) if x1 is None else _checked(x1, (dim,), "x1").copy()
    return DiagProxState(
        h_diag=np.full(dim, _H_FLOOR),
        g_accum=np.zeros(dim),
        x=x1,
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

    Raises :class:`NumericRangeError` when ``||y||_1`` is not finite (a NaN
    or infinite coordinate, or a sum that overflows); the check is the
    feasibility test's own sum.
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


def _diag_resolve(target, h_sqrt, mode: FeasibleMode, reg_weight: float):
    """Minimize <q, x> + reg + 1/2 x' diag(h_sqrt) x shifted to ``target``.

    ``target`` is the unconstrained minimizer; ball mode projects it in the
    weighted metric, elastic net has the coordinatewise soft threshold of
    ``target * h_sqrt``.  A non-finite target, or in elastic-net mode a
    non-finite ``target * h_sqrt``, raises :class:`NumericRangeError` (in
    ball mode through the projection's own l1 sum).
    """
    if isinstance(mode, BallConstraint):
        return weighted_l1_ball_project(target, h_sqrt, mode.radius)
    if mode is not None and not isinstance(mode, CompositeRegularizer):
        raise TypeError(f"unsupported feasibility mode: {mode!r}")
    q = target if mode is None else target * h_sqrt
    if not np.isfinite(q).all():
        raise NumericRangeError("diagonal step got a non-finite gradient or hint")
    if mode is None:
        return target
    l1 = mode.l1 * reg_weight
    l2 = mode.l2 * reg_weight
    return np.sign(q) * np.maximum(np.abs(q) - l1, 0.0) / (h_sqrt + l2)


def _diag_step(state: DiagProxState, g, mode, h_next, reg_weight: float, leader: bool):
    """One diagonal round; ``leader`` selects the accumulated-gradient target."""
    g = _checked(g, state.x.shape, "g")
    h_next = np.zeros_like(g) if h_next is None else _checked(h_next, g.shape, "h_next")
    with np.errstate(over="ignore"):
        diff = g - state.h_prev
        h_diag = state.h_diag + diff * diff
    # raised before any state change: an infinite h_diag pins every later step
    if not h_diag.max() < math.inf:
        raise NumericRangeError("diagonal step's squared gradient minus hint is not finite")
    h_sqrt = np.sqrt(h_diag)
    g_accum = state.g_accum + g
    reg_rounds = state.reg_rounds + reg_weight
    if leader:
        x = _diag_resolve(-(g_accum + h_next) / h_sqrt, h_sqrt, mode, reg_rounds)
    else:
        x = _diag_resolve(state.x - (diff + h_next) / h_sqrt, h_sqrt, mode, reg_weight)
    return DiagProxState(
        h_diag=h_diag,
        g_accum=g_accum,
        x=x,
        h_prev=h_next,
        round=state.round + 1,
        reg_rounds=reg_rounds,
    ), x


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
    return EgPmState(log_weights=np.zeros(2 * dim), sum_sq=0.0, round=1)


def eg_pm_step(state: EgPmState, g, radius: float, stepsize: float | None = None):
    """Multiplicative update with the doubled gradient ``[D/2*g, -D/2*g]``.

    The default stepsize is the adaptive ``1/sqrt(sum_s ||g_s||_inf^2)``
    including the current round.  Returns the new state and the signed
    difference of the two weight halves (l1 norm at most ``radius``).

    Raises :class:`NumericRangeError` when ``g`` is not finite or the sum
    of squared max-norms overflows.
    """
    g = np.asarray(g, dtype=float)
    d = g.size
    gmax = float(np.max(np.abs(g))) if d else 0.0
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
    is checked as every learner checks it: a shape other than ``(dim,)``
    raises ``ValueError`` and a non-finite entry :class:`NumericRangeError`,
    before the state changes.
    """

    def __init__(self, dim: int, radius: float, stepsize: float | None = None):
        def advance(state, g, h_next, reg_weight):
            if h_next is not None:
                _checked_hint(h_next, (dim,))
            return eg_pm_step(state, g, radius, stepsize)

        # equal weights on both halves: the decision starts at the origin
        super().__init__(eg_pm_init(dim), np.zeros(dim), advance)
