"""Two-point stochastic gradient estimation for black-box objectives.

The estimator averages randomized forward differences

    (1/b) * sum_i (delta/mu) * (f(x + mu*v_i) - f(x)) * v_i

over ``b`` directions, re-using a single evaluation of ``f(x)``: exactly
``b + 1`` evaluations per estimate.  The points form one stack,
``[x; x + mu*v_1; ...; x + mu*v_b]``, with ``f(x)`` in row 0 and the
perturbed points in direction order.  A rows oracle
(:func:`two_point_grad_rows`) gets one call on the whole stack; a scalar
oracle (:func:`two_point_grad`) gets ``b + 1`` calls, one per row in that
order.  The weighted directions are summed in direction order, so the
estimate is bit for bit that of a loop over the directions.  A non-finite
oracle value raises :class:`~expopt.entropy.NumericRangeError` instead of
becoming a NaN gradient.

Two direction laws are supported, matching the recipes for the two learner
families: unit-sphere directions with ``delta = d`` (diagonal-preconditioner
methods) and Rademacher directions with ``delta = 1`` (exponentiated
methods, whose analysis lives in the max-norm geometry).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .entropy import NumericRangeError, _range_guard

__all__ = [
    "EstimatorConfig",
    "default_smoothing",
    "sphere_config",
    "rademacher_config",
    "two_point_grad",
    "two_point_grad_rows",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Scaling ``delta``, smoothing ``mu``, batch size and direction law."""

    delta: float
    mu: float
    batch: int = 1
    direction_law: str = "rademacher"

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError("smoothing mu must be finite and positive")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("scaling delta must be finite and positive")
        if isinstance(self.batch, bool):  # operator.index would take it as 0 or 1
            raise TypeError("batch must be an integer, got a bool")
        object.__setattr__(self, "batch", operator.index(self.batch))
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.direction_law not in ("rademacher", "sphere"):
            raise ValueError(f"unknown direction law {self.direction_law!r}")


def default_smoothing(dim: int, horizon: int) -> float:
    """Smoothing radius ``1/sqrt(dim * horizon)`` keeping the bias small."""
    return 1.0 / math.sqrt(dim * horizon)


def sphere_config(dim: int, mu: float, batch: int = 1) -> EstimatorConfig:
    """Unit-sphere directions with ``delta = dim``."""
    return EstimatorConfig(delta=float(dim), mu=mu, batch=batch, direction_law="sphere")


def rademacher_config(mu: float, batch: int = 1) -> EstimatorConfig:
    """Rademacher directions with ``delta = 1``."""
    return EstimatorConfig(delta=1.0, mu=mu, batch=batch, direction_law="rademacher")


def _directions(law: str, batch: int, dim: int, rng: np.random.Generator):
    if law == "rademacher":
        return rng.integers(0, 2, size=(batch, dim)).astype(float) * 2.0 - 1.0
    v = rng.standard_normal((batch, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def two_point_grad_rows(f_rows, x, cfg: EstimatorConfig, rng: np.random.Generator) -> np.ndarray:
    """Batch-averaged two-point gradient estimate from one oracle call.

    Deterministic given the generator state.  Draws the directions, then
    calls ``f_rows`` once on the stack ``(cfg.batch + 1, x.size)`` whose
    row 0 is ``x`` and whose row ``i`` is ``x + mu * dirs[i - 1]``; it must
    return the ``cfg.batch + 1`` values of the rows in order.  The sum over
    directions runs row by row from zero, so the estimate equals, bit for
    bit, that of a loop adding ``(f(x + mu*v) - f(x)) * v`` one direction
    at a time.

    Raises :class:`~expopt.entropy.NumericRangeError` when an oracle value is
    not finite or the guarded arithmetic around the oracle call overflows, and
    ``ValueError`` when the oracle returns other than one value per row.
    """
    x = np.asarray(x, dtype=float)
    with _range_guard():
        dirs = _directions(cfg.direction_law, cfg.batch, x.size, rng)
        points = np.empty((cfg.batch + 1, x.size))
        points[0] = x
        np.add(x, cfg.mu * dirs, out=points[1:])
    values = np.asarray(f_rows(points), dtype=float)
    if values.shape != (cfg.batch + 1,):
        raise ValueError(f"oracle returned shape {values.shape} for {cfg.batch + 1} rows")
    with _range_guard():
        diffs = values[1:] - values[0]
        if not np.isfinite(diffs).all():
            raise NumericRangeError("two-point estimate got a non-finite oracle value")
        # a zero first row, then an accumulate down the rows: the sequential
        # order of a loop (an axis-0 add.reduce sums a single column pairwise)
        terms = np.zeros((cfg.batch + 1, x.size))
        np.multiply(diffs[:, None], dirs, out=terms[1:])
        return (cfg.delta / (cfg.mu * cfg.batch)) * np.add.accumulate(terms, axis=0)[-1]


def two_point_grad(f, x, cfg: EstimatorConfig, rng: np.random.Generator) -> np.ndarray:
    """:func:`two_point_grad_rows` for a scalar oracle ``f`` of one point.

    Calls ``f`` exactly ``cfg.batch + 1`` times, after the directions are
    drawn: at ``x``, then at the rows of ``x + mu * dirs`` in direction
    order.  The estimate is the same, bit for bit, as that of a rows oracle
    whose values equal ``f``'s.
    """
    return two_point_grad_rows(lambda rows: [float(f(row)) for row in rows], x, cfg, rng)
