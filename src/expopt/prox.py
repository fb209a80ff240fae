"""Proximal steps under the entropic geometry.

Two solvers cover the composite objectives used throughout the package:

* :func:`elastic_net_prox` minimizes ``l1*||x||_1 + l2/2*||x||_2^2`` plus the
  entropic Bregman divergence to a dual anchor, coordinatewise, closing the
  nonzero branch with the Lambert function.
* :func:`l1_ball_project` is the Bregman projection onto an l1 ball: one
  sort of the magnitudes plus a constant number of O(d) passes (none on a
  point already inside), as the tests measure.

Both have ``*_from_log`` twins that take ``ln(|y_i|/beta + 1)`` directly.
The learners always use those: the quantity equals ``|z_i|/alpha`` of the
dual point exactly, so huge dual coordinates never need to be mapped into
the (overflowing) primal space just to be shrunk back down.  The
log-domain projection needs no sort: a pivot loop in the style of Michelot
(see Duchi et al. 2008 and Condat 2016) shrinks an active set onto the
support in at most ``d`` passes, each linear in the active set; on the
learners' inputs it stops after two or three.

Every ball projection (the two l1 ones here, the nuclear one in
:mod:`expopt.spectral`, the weighted l1 and Euclidean nuclear ones in
:mod:`expopt.baselines`) decides feasibility itself, from the sums it
projects with: a point inside the ball or on its boundary passes through
unchanged (the log-domain one returns its primal image), one outside lands
on the sphere, and a non-finite input raises
:class:`~expopt.entropy.NumericRangeError`.  Callers never test first.
"""

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EXP_ARG_LIMIT, EntropyParams, NumericRangeError, _range_guard
from .lambertw import _w0_log_array

__all__ = [
    "CompositeRegularizer",
    "BallConstraint",
    "FeasibleMode",
    "elastic_net_prox",
    "elastic_net_prox_from_log",
    "l1_ball_project",
    "l1_ball_project_from_log",
    "project_or_pass",
]

_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class CompositeRegularizer:
    """Elastic-net weights: ``l1*||x||_1 + l2/2*||x||_2^2``.

    For matrices the same weights apply to nuclear and squared Frobenius
    norms through the singular values.
    """

    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self):
        if not (0 <= self.l1 < math.inf and 0 <= self.l2 < math.inf):
            raise ValueError("regularizer weights must be finite and nonnegative")

    def scaled(self, weight: float) -> "CompositeRegularizer":
        """The weights times ``weight``; :class:`NumericRangeError` if a product overflows."""
        l1, l2 = self.l1 * weight, self.l2 * weight
        if not (math.isfinite(l1) and math.isfinite(l2)):
            raise NumericRangeError(f"regularizer weights scaled by {weight} overflow")
        return CompositeRegularizer(l1, l2)


def _check_radius(r) -> None:
    """``ValueError`` unless ``r``, a ball radius or an array of them, is positive and finite."""
    if not (((0 < r) & (r < math.inf)).all() if isinstance(r, np.ndarray) else 0 < r < math.inf):
        raise ValueError("ball radius must be positive and finite")


@dataclass(frozen=True)
class BallConstraint:
    """l1 (or nuclear) ball of given positive, finite radius, or one per row ``(rows, 1)``."""

    radius: float

    def __post_init__(self):
        _check_radius(self.radius)


# Feasibility mode of a learner: None for the free space, a BallConstraint
# for the l1 (or nuclear) ball, a CompositeRegularizer for elastic net.
FeasibleMode = BallConstraint | CompositeRegularizer | None


def elastic_net_prox(y, reg: CompositeRegularizer, p: EntropyParams):
    """Unique minimizer of ``reg(x) + bregman_div(x, y, p)`` over R^d.

    Coordinates with ``ln(|y_i|/beta + 1) <= l1/alpha`` are set to zero;
    the rest keep the sign of ``y_i`` with magnitude solving the scalar
    stationarity equation.  With ``l1 = l2 = 0`` this is the identity.
    """
    y = np.asarray(y, dtype=float)
    if reg.l1 == 0.0 and reg.l2 == 0.0:
        return y.copy()
    log_scale = np.log1p(np.abs(y) / p.beta)
    return elastic_net_prox_from_log(log_scale, np.sign(y), reg, p)


def elastic_net_prox_from_log(log_scale, signs, reg: CompositeRegularizer, p: EntropyParams):
    """Elastic-net prox from dual-side inputs.

    Parameters
    ----------
    log_scale : array
        ``ln(|y_i|/beta + 1) >= 0`` per coordinate (equals ``|z_i|/alpha``
        when ``y`` is the image of a dual point ``z``).
    signs : array
        Signs to attach to the nonzero outputs.

    Raises :class:`NumericRangeError` when an active entry (one above
    ``l1/alpha``, or NaN) is not finite, or the output would overflow.
    Only the active entries are checked: an inactive one maps to 0.

    A stack ``(rows, d)``, with ``p.alpha`` a float or one per row ``(rows, 1)``,
    gives each row bit for bit as that row alone: its Lambert solve stops at its
    own iteration, and a row with no active entry is ``+0.0`` throughout.
    """
    log_scale = np.asarray(log_scale, dtype=float)
    signs = np.asarray(signs, dtype=float)
    threshold = reg.l1 / p.alpha
    out = np.zeros_like(log_scale)
    # negated so that a NaN, which fails every comparison, counts as active
    active = ~(log_scale <= threshold)
    if not np.any(active):
        return out
    stacked = log_scale.ndim == 2
    if stacked:  # each active entry's row's threshold
        threshold = np.broadcast_to(threshold, log_scale.shape)[active]

    if reg.l2 == 0.0:
        excess = log_scale[active] - threshold
        # negated so that a NaN excess raises too
        if not np.max(excess) + np.log(p.beta) <= EXP_ARG_LIMIT:
            raise NumericRangeError("l1-only prox output exceeds float range")
        out[active] = p.beta * np.expm1(excess)
    else:
        a = p.beta
        b = reg.l2 / p.alpha
        if stacked:
            b = np.broadcast_to(b, log_scale.shape)[active]
        # magnitude m solves ln(m/beta+1) + (l2/alpha)*m = log_scale - l1/alpha;
        # in Lambert form m = w0(a*b*exp(a*b - c))/b - a with the argument
        # kept in the log domain.
        s = np.log(a * b) + a * b - (threshold - log_scale[active])
        if not np.isfinite(s).all():
            raise NumericRangeError("elastic-net prox got a non-finite log scale")
        if stacked:  # each row's active entries, in place, for a Newton stop per row
            rows = np.zeros_like(log_scale)
            rows[active] = s
            w = _w0_log_array(rows, ~active)[0][active]
        else:
            w, _ = _w0_log_array(s)
        out[active] = np.maximum(w / b - a, 0.0)
    if stacked:  # a row with no active entry keeps its +0.0: alone, no sign reaches it
        return np.multiply(signs, out, out=out, where=active.any(axis=1, keepdims=True))
    return signs * out


@_range_guard()
def l1_ball_project(y, ball: BallConstraint, p: EntropyParams):
    """Bregman projection of ``y`` onto the l1 ball (a copy of ``y`` if inside).

    Sorts the magnitudes ascending, locates the support breakpoint by a
    linear scan of the suffix statistics, and rescales the surviving
    coordinates by a common factor: outside the ball, one sort plus a
    constant number of O(d) passes; inside, no sort.

    Raises :class:`NumericRangeError` when ``y`` has a NaN or infinite
    coordinate, or when the guard trips (an l1 sum that overflows, say).
    """
    y = np.asarray(y, dtype=float)
    d = y.size
    radius = ball.radius
    beta = p.beta

    abs_y = np.abs(y)
    if np.sum(abs_y) <= radius:
        return y.copy()
    mags = np.sort(abs_y)  # ascending
    suffix = np.cumsum(mags[::-1])[::-1]  # suffix[j] = sum_{i >= j} mags[i]
    if not np.isfinite(suffix[0]):
        raise NumericRangeError("l1-ball projection needs a finite l1 norm")
    counts = np.arange(d, 0, -1, dtype=float)  # d - j + 1 for j = 1..d
    thresh = mags * (radius + counts * beta) + beta * radius - beta * suffix
    positive = thresh > 0
    rho = int(np.argmax(positive))  # first index with thresh > 0; exists for y != 0
    k = d - rho
    scale = (suffix[rho] + k * beta) / (radius + k * beta)
    return np.maximum((abs_y + beta) / scale - beta, 0.0) * np.sign(y)


project_or_pass = l1_ball_project


def l1_ball_project_from_log(log_scale, signs, ball: BallConstraint, p: EntropyParams):
    """Log-domain twin of :func:`l1_ball_project`.

    Works entirely on ``L_i = ln(|y_i|/beta + 1)``, so arbitrarily large
    dual coordinates project without ever forming ``|y_i|``.  Output
    coordinates are bounded by the radius, hence always representable.

    Inside the ball (``S - ln(radius/beta + d) <= 0`` for ``S`` below) the
    output is ``beta*expm1(L)*signs``.  Otherwise the support is found
    without sorting.  Starting from the active set ``A`` of all
    coordinates, each pass takes ``S = ln sum_A exp(L_i)`` and ``k = |A|``
    and drops every ``i`` with
    ``L_i <= S + ln(beta) - ln(radius + k*beta)``; it stops at the first
    pass that drops nothing, and the output is
    ``max((radius + k*beta) * exp(L - S) - beta, 0) * signs``.  Dropping a
    coordinate only raises that threshold, so the active set shrinks onto
    the exact support from above; the largest coordinate never leaves it
    (``S - max L <= ln k < ln(radius/beta + k)``), so the loop ends within
    ``d`` passes.  The passes run on ``exp(L - max L)``, where the test
    reads ``exp(L_i - max L) <= sum_A exp(L - max L) * beta/(radius + k*beta)``.

    A stack ``(rows, d)``, with ``ball.radius`` a float or one per row ``(rows, 1)``,
    projects each row onto its ball bit for bit as that row alone: the feasibility
    test and the passes run row by row, on each row's own active set.

    Raises :class:`NumericRangeError` when ``log_scale`` is not finite.
    """
    L = np.asarray(log_scale, dtype=float)
    signs = np.asarray(signs, dtype=float)
    # ahead of the feasibility test, which a -inf entry would pass
    if not np.isfinite(L).all():
        raise NumericRangeError("l1-ball projection got a non-finite log scale")
    beta, radius = p.beta, ball.radius
    top = L.max(axis=-1, keepdims=True)
    ratios = np.exp(L - top)  # the largest coordinate of each row has ratio exactly 1
    totals = ratios.sum(axis=-1, keepdims=True)
    tops = top.ravel().tolist()
    radii = radius.ravel().tolist() if isinstance(radius, np.ndarray) else [radius] * len(tops)
    rows = zip(ratios.reshape(len(tops), -1), tops, totals.ravel().tolist(), radii)
    scales = [_support_scale(*row, beta) for row in rows]
    inside = [scale is None for scale in scales]
    if all(inside):
        return beta * np.expm1(L) * signs
    scale = np.array([scale or 0.0 for scale in scales]).reshape(totals.shape)
    out = np.maximum(scale * ratios - beta, 0.0) * signs
    if any(inside):  # a stack whose rows inside their balls pass through
        out[inside] = beta * np.expm1(L[inside]) * signs[inside]
    return out


def _support_scale(ratios, top, total, radius, beta):
    """``(radius + k*beta) / total`` over the support of one row's projection, from its
    ``ratios = exp(L - top)`` and their ``total``; ``None`` if the row is inside its ball."""
    k = ratios.size
    if top + math.log(total) <= math.log(radius / beta + k):
        return None
    active = ratios
    for _ in range(ratios.size):
        # capped below 1 so that rounding cannot drop the largest coordinate
        cut = min(total * beta / (radius + k * beta), _BELOW_ONE)
        kept = active[active > cut]
        if kept.size == k:
            break
        active = kept
        k = active.size
        total = float(active.sum())
    return (radius + k * beta) / total
