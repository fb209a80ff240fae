"""Two-point stochastic gradient estimation for black-box objectives.

The estimator averages randomized forward differences

    (1/b) * sum_i (delta/mu) * (f(x + mu*v_i) - f(x)) * v_i

over ``b`` directions, re-using a single evaluation of ``f(x)``: exactly
``b + 1`` oracle calls per estimate, ``f(x)`` first and then the perturbed
points in direction order.  The perturbed points are formed at once, as the
rows of ``x + mu * V``, and the weighted directions are summed in that same
order, so the estimate is bit for bit that of a loop over the directions.
A non-finite oracle value raises
:class:`~expopt.entropy.NumericRangeError` instead of becoming a NaN
gradient.

Two direction laws are supported, matching the recipes for the two learner
families: unit-sphere directions with ``delta = d`` (diagonal-preconditioner
methods) and Rademacher directions with ``delta = 1`` (exponentiated
methods, whose analysis lives in the max-norm geometry).
"""

import math
from dataclasses import dataclass

import numpy as np

from .entropy import NumericRangeError

__all__ = [
    "EstimatorConfig",
    "default_smoothing",
    "sphere_config",
    "rademacher_config",
    "two_point_grad",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Scaling ``delta``, smoothing ``mu``, batch size and direction law."""

    delta: float
    mu: float
    batch: int = 1
    direction_law: str = "rademacher"

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("smoothing mu must be positive")
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


def two_point_grad(f, x, cfg: EstimatorConfig, rng: np.random.Generator) -> np.ndarray:
    """Batch-averaged two-point gradient estimate of ``f`` at ``x``.

    Deterministic given the generator state.  Evaluates ``f`` exactly
    ``cfg.batch + 1`` times: at ``x``, then at the rows of
    ``x + mu * dirs`` in direction order.  The sum over directions runs
    row by row from zero, so the estimate equals, bit for bit, that of a
    loop adding ``(f(x + mu*v) - f(x)) * v`` one direction at a time.

    Raises :class:`~expopt.entropy.NumericRangeError` when a value of ``f``
    is not finite, or a difference of two values overflows.
    """
    x = np.asarray(x, dtype=float)
    fx = float(f(x))
    dirs = _directions(cfg.direction_law, cfg.batch, x.size, rng)
    diffs = np.array([float(f(point)) for point in x + cfg.mu * dirs]) - fx
    if not np.isfinite(diffs).all():
        raise NumericRangeError("two-point estimate got a non-finite oracle value")
    # a zero first row, then an accumulate down the rows: the sequential order
    # of a loop (an axis-0 add.reduce sums a single column pairwise)
    terms = np.zeros((cfg.batch + 1, x.size))
    np.multiply(diffs[:, None], dirs, out=terms[1:])
    return (cfg.delta / (cfg.mu * cfg.batch)) * np.add.accumulate(terms, axis=0)[-1]
